"""Exact enumeration and counting of complete multipartite pattern copies and matchings.

The pattern with side r in a k-graph is the complete k-partite k-graph whose k
parts all have size r; its edges are the r^k transversals. For graphs (k = 2)
this is the r-by-r biclique.

Copy conventions:
  * no partition given, k = 2: copies are unordered pairs {A, B} of disjoint
    r-sets with every cross pair an edge, stored with min(A) < min(B);
  * no partition given, k >= 3: copies are unordered families of k disjoint
    r-sets with every transversal an edge, parts stored sorted by minimum;
  * partition given: part i of the copy must lie inside part i of the host.

Copies are found as the paper carries its bound over to hypergraphs. An
unordered k >= 3 copy whose least vertex is v leaves a copy with k - 1 parts in
the link of v (induction on links); they are listed in the order in which
extending every r-matching, in order, first meets them (see _first_seen_key).
An anchored copy's first k - 1 parts are an anchored copy one part down
(induction on parts); both end in the wedge kernel for graphs.

All counts are exact integers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, groupby, permutations, product
from math import comb, factorial
from operator import and_, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .hypergraph import Edge, Hypergraph, PartitionSpec, require_partite


@dataclass(frozen=True)
class PatternCopy:
    """One embedded pattern copy: an ordered tuple of disjoint sorted vertex tuples."""

    parts: tuple[tuple[int, ...], ...]

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for part in self.parts for v in part))

    def edge_set(self) -> frozenset[Edge]:
        """All transversal edges of the copy (one vertex per part)."""
        return frozenset(tuple(sorted(t)) for t in product(*self.parts))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: frozenset[Edge]

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for e in self.edges for v in e))


def pattern_exponent(r: int, k: int) -> int:
    """q = 1 + r + ... + r^(k-1), the edge-count exponent of the side-r pattern.

    Computed in closed form, (r^k - 1)/(r - 1) for r >= 2 and k for r = 1; it
    reduces to q = r + 1 when k = 2.
    """
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")
    return (r**k - 1) // (r - 1) if r > 1 else k


# The common-completion kernel. The copy mask loops yield (S, mask): S is a
# tuple of r-sets and the mask holds the vertices that complete every
# transversal of S, as bit positions into a label sequence. A copy adds an
# s-set R of them (s = r but for the oriented oracle patterns): R joins S[0]
# in a linked loop, _link_masks', where S starts with (v,), and follows S in
# the others. Both inductions build their pairs by one step, _lift, from the
# copies of a loop one level down, ANDing each mask member's completers once
# per pair: _partite_masks one part down, _link_masks one uniformity down in
# each link, until both reach the wedge scan on graphs. Each call reads its
# graph's _rows, converted once per graph, and all set-up before a scan is
# numpy over them. A loop has three readers: _expand, the one expansion, lists
# its copies, count_copies counts them, and _copy_edge_masks turns each into a
# mask over the host's sorted edges. A copy's edges are the edges that meet
# each of its parts, so its mask ANDs, over the parts, the OR of their
# vertices' masks in the host's _incidence.
# _matching_masks has the same shape for matchings: S is an (r-1)-matching and
# the mask holds the edges that extend it. It feeds enumerate_matchings;
# count_matchings stops one level earlier and counts the disjoint pairs in each
# mask in closed form, but on graphs at r = 3 it needs only the degrees and the
# triangles. Every mask keyed by a vertex or a vertex set, the completers of
# both inductions included, comes from an _Index: it lists each key's
# positions in one pass and sets a key's mask only when a caller first reads
# it, so a filter that needs only a count reads the list.

_Masks = Iterable[tuple[tuple, int]]
_Loop = tuple[_Masks, Sequence[int], int, bool]


def _relabel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a, sorted, and each entry's position among them; no array is sized by a value."""
    order = a.ravel().argsort()
    ordered = a.ravel()[order]
    new = np.empty(len(ordered), bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.empty(a.shape, np.int64)
    ids.ravel()[order] = new.cumsum() - 1
    return ordered[new], ids


def _r_core(a: np.ndarray, r: int, rank: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The r-core of the graph with edge rows a: its vertices, and their neighbours by position (see _csr).

    The vertices are ordered by rank[v], then by label. Numpy rounds drop the
    edges with an endpoint of degree below r while a round drops a quarter of
    the edges left; a queue finishes, so a long path stays linear.
    """
    vertices, e = _relabel(a)
    while True:
        deg = np.bincount(e.ravel(), minlength=len(vertices))
        keep = np.minimum(deg[e[:, 0]], deg[e[:, 1]]) >= r
        dropped = len(e) - np.count_nonzero(keep)
        if not dropped:
            break
        e = e[keep]
        if 4 * dropped < len(e) + dropped:
            e = _peel(e, r, len(vertices))
    core = deg.nonzero()[0]
    if rank is not None:
        core = core[rank[vertices[core]].argsort(kind="stable")]
    pos = np.empty(len(vertices), np.int64)
    pos[core] = np.arange(len(core))
    return (vertices[core], *_csr(pos[e], len(core)))


def _peel(e: np.ndarray, r: int, n: int) -> np.ndarray:
    """The edges of the r-core of the edges e on vertices 0 .. n-1, peeled one vertex at a time."""
    nbrs, cuts = (x.tolist() for x in _csr(e, n))
    deg = [j - i for i, j in zip(cuts, cuts[1:])]
    low = [v for v, d in enumerate(deg) if 0 < d < r]
    while low:
        v = low.pop()
        for w in nbrs[cuts[v]:cuts[v + 1]]:
            deg[w] -= 1
            if deg[w] == r - 1:
                low.append(w)
    alive = np.array(deg) >= r
    return e[alive[e[:, 0]] & alive[e[:, 1]]]


def _csr(e: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbours of vertices 0 .. n-1 over the edges e, sorted by key src * n + dst, and where each run starts."""
    key = np.concatenate((e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]))
    key.sort()
    return key % n, key.searchsorted(np.arange(n + 1) * n)


def _graph_masks(a: np.ndarray, r: int, s: int, rank: np.ndarray | None = None) -> tuple[_Masks, list[int]]:
    """Graphs: each vertex r-set A with at least s common neighbours ranked above min(A).

    a holds the edges as rows. Vertices rank by rank[v], the position of v's
    part, then by label. Unordered copies take s = r and label order, so each
    appears once. An anchored host ranks its first part first, so A runs over
    that part's r-sets alone. A and its common neighbours induce a subgraph of
    minimum degree r (as s >= r), so the scan runs on the r-core, in rank order:
    the masks are over positions into the returned labels, the core's vertices.
    The rest of A is drawn from the b above min(A) that close at least s wedges
    min(A)-w-b with w above min(A), so the cost follows the core's wedges, not
    C(n, r). The pairs come in lexicographic order of A's ranks, as a scan of
    all vertex r-sets would give them.
    """
    labels, nbrs, cuts = (x.tolist() for x in _r_core(a, r, rank))
    return _wedge_scan(nbrs, cuts, r, s, labels), labels


def _wedge_scan(nbrs: list[int], cuts: list[int], r: int, s: int, labels: Sequence[int]) -> _Masks:
    """The (A, mask) pairs of _graph_masks on a core whose position v has neighbours nbrs[cuts[v]:cuts[v + 1]]."""
    def above(v: int, a0: int) -> list[int]:
        return nbrs[bisect_right(nbrs, a0, cuts[v], cuts[v + 1]):cuts[v + 1]]

    # Neighbour masks of the candidates the scan has not reached yet. A vertex
    # is a candidate only for smaller a0, so its mask needs only the bits above
    # the a0 that first builds it, and is dropped when a0 reaches it.
    ahead: dict[int, int] = {}
    for a0 in range(len(labels)):
        ahead.pop(a0, None)
        up = above(a0, a0)
        if len(up) < s:
            continue
        wedges = Counter(chain.from_iterable([above(w, a0) for w in up]))
        candidates = sorted(b for b, c in wedges.items() if c >= s)
        if len(candidates) < r - 1:
            continue
        for b in candidates:
            if b not in ahead:
                ahead[b] = sum(1 << w for w in above(b, a0))
        up_mask = sum(1 << w for w in up)
        for rest in combinations(candidates, r - 1):
            common = up_mask
            for b in rest:
                common &= ahead[b]
            if common.bit_count() >= s:
                yield (tuple(labels[v] for v in (a0, *rest)),), common


def _partite_masks(a: np.ndarray, rank: np.ndarray, r: int, s: int) -> tuple[_Masks, list[int]]:
    """Anchored: each choice S of r-sets in every part but the last with at least s completions.

    Each edge row of a meets every part once; rank[v] is the position of v's
    part. Two parts are the graph kernel, the first part ranked first. For
    k >= 3, S's transversals each have s or more completions in the last part,
    so S is an anchored copy of that prefix graph, found one part down, and its
    mask ANDs their completer masks (_lift). S comes in lexicographic order, as
    a product scan gives it.
    """
    if a.shape[1] == 2:
        return _graph_masks(a, r, s, rank)
    ordered = np.empty_like(a)
    ordered[np.arange(len(a))[:, None], rank[a]] = a
    labels, pos = _relabel(ordered[:, -1])
    completers = _Index(zip(map(tuple, ordered[:, :-1].tolist()), pos.tolist()))
    prefix = np.array([t for t, at in completers.at.items() if len(at) >= s], np.int64)

    def through(x: int, fixed: tuple) -> int:
        return reduce(and_, (completers[(*f, x)] for f in product(*fixed)))

    prefixes = _partite_masks(prefix.reshape(-1, a.shape[1] - 1), rank, r, r)
    return _lift((*prefixes, r, False), through, -1, s), labels.tolist()


def _link_masks(a: np.ndarray, r: int) -> tuple[_Masks, list[int]]:
    """Unordered k-graphs, k >= 3: each vertex v and copy C in v's link with a completion above v.

    a holds the edges as sorted rows. A copy whose least vertex is v leaves the
    copy C of its other k - 1 parts in the link above v, {e - {v} : min(e) = v},
    found by _unordered over the link's own labels (_lift). The mask holds the
    vertices above v that complete every transversal of C; v's part is v plus
    any (r - 1)-set of them. S is ((v,),) + C. As in the graph kernel, the
    masks are over positions into the returned labels, the vertices of the
    edges in increasing order, and the pairs come in increasing order of v.

    Every transversal of C needs r - 1 completions above v besides v, so a
    link edge without them is dropped before the search: otherwise a host
    whose edges all pass through one vertex would have its whole link
    searched for copies that cannot be completed.
    """
    labels, pos = _relabel(a)
    labels, order = labels.tolist(), np.lexsort(a.T[::-1])
    # Completers are keyed by sorted label sets, as the links name their copies,
    # and listed by position. combinations(e, k - 1) leaves out e's vertices
    # from the last; with the edges in lexicographic order, every list comes sorted.
    edges, rows = pos[order].tolist(), list(map(tuple, a[order].tolist()))
    rests = chain.from_iterable(combinations(e, a.shape[1] - 1) for e in rows)
    completers = _Index(zip(rests, chain.from_iterable(e[::-1] for e in edges)))
    links = [
        (e[0], rest) for e, rest in zip(edges, (row[1:] for row in rows))
        if len(at := completers.at[rest]) - bisect_right(at, e[0]) >= r - 1
    ]

    def through(x: int, fixed: tuple) -> int:
        return reduce(and_, (completers[tuple(sorted((x, *f)))] for f in product(*fixed)))

    # Start from every position above v. A transversal's own vertices never
    # complete it, so the AND also clears the copy's.
    return chain.from_iterable(
        _lift(_unordered(np.array([rest for _v, rest in link], np.int64), r), through, -(2 << v), r - 1, ((labels[v],),))
        for v, link in groupby(links, key=itemgetter(0))
    ), labels


def _lift(loop: _Loop, through: Callable[[int, tuple], int], start: int, s: int, head: tuple = ()) -> _Masks:
    """Each copy of the loop, its parts after head, with its transversals' completers ANDed from start, if s or more.

    A pair's copies share every part but the one R grows (see _expand), so
    through(x, fixed), the AND over the fixed parts' transversals through x, is
    taken once per pair for each x of the grown part and of the mask; a copy
    ANDs one per x in R, so at size 0 (r = 1) no mask member is read.
    """
    masks, labels, size, linked = loop
    for S, mask in masks:
        grown, fixed = (S[0], S[1:]) if linked else ((), S)
        base = reduce(and_, (through(x, fixed) for x in grown), start)
        xs = _members(mask, labels) if size else []
        for R, ands in zip(combinations(xs, size), combinations([through(x, fixed) for x in xs], size)):
            common = reduce(and_, ands, base)
            if common.bit_count() >= s:
                yield ((*head, grown + R, *fixed) if linked else (*head, *fixed, R)), common


def _members(mask: int, labels: Sequence[int]) -> list[int]:
    """The labels of the mask's set bits, in increasing bit order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(labels[low.bit_length() - 1])
        mask ^= low
    return members


def _first_seen_key(parts: tuple[tuple[int, ...], ...]) -> tuple:
    """Sort key for the order in which extending every r-matching first meets unordered copies.

    Matchings come in lexicographic order of their sorted edge lists, and the
    least perfect transversal matching of a copy (parts sorted by minimum)
    pairs up the j-th smallest vertices of its parts: those sorted rows come
    first. extensions_of_matching pins row 0's i-th vertex to part i, then
    tries in itertools.product order the permutations that send each later
    row's sorted vertices to parts; the copy's permutations come next.
    """
    k = len(parts)
    rows = [[part[j] for part in parts] for j in range(len(parts[0]))]
    return tuple(tuple(sorted(row)) for row in rows) + tuple(
        tuple(sorted(range(k), key=row.__getitem__)) for row in rows[1:]
    )


class _Index(dict):
    """Key -> the mask of the positions listed in at[key], set when the key is first read.

    The positions are listed in one pass over (key, position) pairs. A mask is
    set in a bytearray, not by | 1 << i, which costs an i-bit int per step, so a
    key nobody reads costs its list alone.
    """

    def __init__(self, pairs: Iterable[tuple[object, int]]) -> None:
        at = self.at = defaultdict(list)
        for key, i in pairs:
            at[key].append(i)

    def __missing__(self, key: object) -> int:
        at = self.at[key]
        bits = bytearray(max(at) // 8 + 1)
        for i in at:
            bits[i >> 3] |= 1 << (i & 7)
        mask = self[key] = int.from_bytes(bits, "little")
        return mask


def _incidence(edges: Sequence[Edge]) -> _Index:
    """Vertex v -> the mask of the sorted edges containing v; at[v] lists their positions in increasing order."""
    return _Index((v, i) for i, e in enumerate(edges) for v in e)


def _matching_masks(edges: Sequence[Edge], incident: _Index, r: int) -> _Masks:
    """Each (r-1)-matching with the later edges that extend it to an r-matching.

    Edges are bit positions into the sorted edges, whose _incidence is incident.
    The (r-1)-matchings come as sorted index tuples in lexicographic order, each
    with the mask of edges after its last index that are disjoint from all of it.
    """
    def grow(chosen: tuple[int, ...], allowed: int) -> _Masks:
        if len(chosen) == r - 1:
            yield chosen, allowed
            return
        for i in _members(allowed, range(len(edges))):
            later = allowed & -(2 << i)
            for v in edges[i]:
                later &= ~incident[v]
            yield from grow(chosen + (i,), later)

    return grow((), (1 << len(edges)) - 1)


def enumerate_matchings(g: Hypergraph, r: int) -> Iterator[Matching]:
    """All r-edge matchings, in lexicographic order of their sorted edge lists; r is checked at the call."""
    if r < 1:
        raise ValueError("matching size r must be >= 1")
    edges = g._sorted_order
    return (
        Matching(frozenset([*(edges[i] for i in chosen), last]))
        for chosen, mask in _matching_masks(edges, _incidence(edges), r)
        for last in _members(mask, edges)
    )


def count_matchings(g: Hypergraph, r: int) -> int:
    """Number of r-edge matchings, without materializing them.

    An (r-2)-matching whose later disjoint edges form the mask A starts
    C(|A|, 2) - sum_T (-1)^(|T|+1) C(|A & E_T|, 2) r-matchings, where E_T masks
    the edges containing T and T runs over the vertex sets in at least two
    edges (_shared_sets). This is exact: two edges meeting in S != {} are
    subtracted sum over nonempty T in S of (-1)^(|T|+1) = 1 time. At r = 2, A
    holds every edge, and no mask is built. Graphs at r = 3 count from their
    degrees and triangles (_three_matchings), also with no mask.
    """
    if r < 1:
        raise ValueError("matching size r must be >= 1")
    if r > g.m:
        return 0
    if r == 1:
        return g.m
    if r == 3 and g.k == 2:
        return _three_matchings(_relabel(g._rows)[1])
    shared = list(enumerate(_shared_sets(g._rows), 1))
    if r == 2:
        return comb(g.m, 2) + sum((-1) ** t * int((c * (c - 1) // 2).sum()) for t, (_Ts, c) in shared)
    # E_T is the AND of T's vertex masks. A T in one edge holds no pair and needs none.
    edges = g._sorted_order
    incident = _incidence(edges)
    terms = [((-1) ** t, reduce(and_, map(incident.__getitem__, T))) for t, (Ts, _c) in shared for T in Ts.tolist()]
    return sum(
        comb(A.bit_count(), 2) + sum(sign * comb((A & E_T).bit_count(), 2) for sign, E_T in terms)
        for _chosen, A in _matching_masks(edges, incident, r - 1)
    )


def _shared_sets(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For t = 1, 2, ...: the vertex t-sets in two or more edge rows of a, as increasing rows, and their edge counts.

    It stops at the first t with none, as every (t - 1)-subset of a shared t-set
    is shared. From t = 2 on, a row keeps its shared vertices first, in order,
    in as many columns as the widest needs: a set with an unshared vertex lies
    in one edge, so an edge costs at most 2^s sets, s the most any edge shares.
    """
    for t in range(1, a.shape[1]):
        # Sorted, the t-sets of the edges come in runs of length |E_T|.
        sets = a[:, list(combinations(range(a.shape[1]), t))].reshape(-1, t)
        order = np.lexsort(sets.T)
        sets = sets[order]
        starts = np.flatnonzero(np.r_[True, (sets[1:] != sets[:-1]).any(axis=1), True])
        runs = np.diff(starts)
        if runs.max(initial=0) < 2:
            return
        yield sets[starts[:-1][runs > 1]], runs[runs > 1]
        if t == 1:
            shared = np.empty(a.shape, bool)
            shared.ravel()[order] = np.repeat(runs > 1, runs)
            if (width := shared.sum(axis=1).max()) < a.shape[1]:
                a = np.take_along_axis(a, (~shared).argsort(axis=1, kind="stable")[:, :width], axis=1)


def _three_matchings(e: np.ndarray) -> int:
    """3-matchings of the graph with edge rows e on vertices 0 .. n-1, by inclusion-exclusion over its line graph.

    All triples of edges, less the intersecting pairs (in m - 2 triples each),
    plus the paths of two, C(d_u - 1, 2) + C(d_v - 1, 2) + X_uv centred on uv
    (3 sum_v C(d_v, 3) + sum_uv X_uv in all), less the stars and triangles.
    """
    deg = np.bincount(e.ravel())
    # X_uv = (d_u - 1)(d_v - 1) counts the edges e' at u and e'' at v other than
    # uv, which e', e'' and an end of each fix: the sum is at most 4 m^2.
    return _by_degree(len(e), deg) + int(((deg[e[:, 0]] - 1) * (deg[e[:, 1]] - 1)).sum()) - _triangles(e, deg)


def _by_degree(m: int, deg: np.ndarray) -> int:
    """C(m, 3) - (m - 2) sum_v C(d_v, 2) + 2 sum_v C(d_v, 3), in Python ints, one term per distinct degree."""
    ds, times = (x.tolist() for x in np.unique(deg, return_counts=True))
    return comb(m, 3) + sum(t * (2 * comb(d, 3) - (m - 2) * comb(d, 2)) for d, t in zip(ds, times))


def _triangles(e: np.ndarray, deg: np.ndarray) -> int:
    """Triangles of the graph with edge rows e on vertices 0 .. n-1 of degrees deg.

    Each edge points to its end of higher (degree, position), so a vertex has
    at most sqrt(2m) out-neighbours, sorted in the keys src * n + dst; a
    triangle is the one out-wedge of its lowest vertex that a key closes.
    """
    n = len(deg)
    ends = np.sort(deg.argsort(kind="stable").argsort()[e], axis=1)
    key = np.sort(ends[:, 0] * n + ends[:, 1])
    later = key.searchsorted((key // n + 1) * n) - np.arange(len(key)) - 1
    first = np.repeat(np.arange(len(key)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(later.cumsum() - later, later)
    wedges = key[first] % n * n + key[second] % n
    return int(np.count_nonzero(key.take(key.searchsorted(wedges), mode="clip") == wedges))


def extensions_of_matching(
    g: Hypergraph, matching: Matching, r: int, spec: PartitionSpec | None = None
) -> list[PatternCopy]:
    """All pattern copies whose vertex set is exactly the matching's vertex set.

    Each matching edge must be a transversal of the copy. The list has at most
    2^r entries for graphs and at most (k!)^r in general.
    """
    if r < 1:
        raise ValueError("matching size r must be >= 1")
    edges = sorted(matching.edges)
    if len(edges) != r:
        raise ValueError(f"matching has {len(edges)} edges, expected r={r}")
    if not matching.edges <= g.edges:
        raise ValueError("matching contains edges not present in the hypergraph")
    vertices = set(matching.vertices())
    if len(vertices) != r * g.k:
        raise ValueError("matching edges are not pairwise disjoint")

    if spec is not None:
        require_partite(g, spec)
        candidates = [tuple(tuple(v for v in part if v in vertices) for part in spec.parts)]
    else:
        # Assign each edge's k vertices bijectively to the k parts: a later
        # edge's permutation sends its j-th vertex to part perm[j]. Pinning the
        # first edge to the identity picks one representative per unordered copy.
        base, *rest = edges
        candidates = []
        for assignment in product(permutations(range(g.k)), repeat=r - 1):
            parts = [[v] for v in base]
            for v, i in zip(chain.from_iterable(rest), chain.from_iterable(assignment)):
                parts[i].append(v)
            candidates.append(tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda t: t[0])))
    return [c for c in map(PatternCopy, candidates) if c.edge_set() <= g.edges]


def _copy_masks(g: Hypergraph, r: int, spec: PartitionSpec | None, s: int) -> _Loop:
    """The mask loop for r-sets with s completions, its labels, mask vertices per copy, and if it is the link kernel's.

    Checks r and the partition, then picks the kernel: k = 1, anchored, or
    _unordered, which takes s = r; the link kernel in it adds r - 1 mask
    vertices to the least vertex's part.
    """
    if r < 1:
        raise ValueError("pattern side r must be >= 1")
    a = g._rows
    if spec is not None:
        require_partite(g, spec)
    if g.k == 1:
        return [((), (1 << g.m) - 1)], np.sort(a[:, 0]).tolist(), s, False
    if spec is not None:
        return (*_partite_masks(a, spec._labels, r, s), s, False)
    return _unordered(a, r)


def _unordered(a: np.ndarray, r: int) -> _Loop:
    """The _copy_masks loop of unordered side-r copies in the edge rows a: the graph kernel, or the link kernel."""
    if a.shape[1] == 2:
        return (*_graph_masks(a, r, r), r, False)
    return (*_link_masks(a, r), r - 1, True)


def enumerate_copies(
    g: Hypergraph, r: int, spec: PartitionSpec | None = None
) -> Iterator[PatternCopy]:
    """All copies of the side-r pattern in g, under the module's copy conventions.

    An oversized pattern (r * k > n) yields nothing rather than raising.
    """
    return _expand(*_copy_masks(g, r, spec, r))


def _expand(masks: _Masks, labels: Sequence[int], size: int, linked: bool) -> Iterator[PatternCopy]:
    """The copies of a _copy_masks loop in enumeration order, a size-set R of each mask joining S[0] or following S."""
    copies = (
        (S[0] + R, *S[1:]) if linked else (*S, R) for S, mask in masks for R in combinations(_members(mask, labels), size)
    )
    if linked:
        # Each least vertex's copies are sorted on their own, so the iterator
        # stays lazy from one least vertex to the next.
        groups = groupby(copies, key=lambda parts: parts[0][0])
        return (PatternCopy(parts) for _v, group in groups for parts in sorted(group, key=_first_seen_key))
    return map(PatternCopy, copies)


def _copy_edge_masks(edges: Sequence[Edge], incident: _Index, loops: Iterable[_Loop]) -> list[int]:
    """The distinct copies of the _copy_masks loops as masks over the sorted edges, in increasing order.

    incident is the _incidence of edges. The AND over S's parts is taken once
    per pair (S, mask); each s-set B of the mask's vertices then adds one OR
    and one AND. In the link kernel's pairs S starts with (v,), and B joins v's part.
    """
    def meets(part: Sequence[int]) -> int:
        union = 0
        for v in part:
            union |= incident[v]
        return union

    masks = []
    for loop, labels, size, linked in loops:
        for S, mask in loop:
            grown, fixed = (S[0], S[1:]) if linked else ((), S)
            head = meets(grown)
            common = reduce(and_, map(meets, fixed), -1)
            for B in combinations([incident[v] for v in _members(mask, labels)], size):
                union = head
                for b in B:
                    union |= b
                masks.append(common & union)
    # Only krs_either at r = s finds a copy twice, once per orientation.
    masks.sort()
    return [c for c, _ in groupby(masks)]


def count_copies(g: Hypergraph, r: int, spec: PartitionSpec | None = None) -> int:
    """Number of copies of the side-r pattern, equal to the enumeration's length."""
    masks, _labels, size, _linked = _copy_masks(g, r, spec, r)
    return sum(comb(mask.bit_count(), size) for _S, mask in masks)


def copy_count_upper_bound(m: int, r: int, k: int) -> int:
    """(k!)^r * C(m, r): every copy contains an r-matching, each r-matching extends
    to at most (k!)^r copies, and there are at most C(m, r) r-matchings."""
    if m < 0 or r < 1 or k < 1:
        raise ValueError("need m >= 0, r >= 1, k >= 1")
    return factorial(k) ** r * comb(m, r)


def copy_count_upper_bound_relaxed(m: int, r: int) -> int:
    """The weaker graph-case form 2 * m^r, dominating 2^r * C(m, r) for m >= r."""
    if m < 0 or r < 1:
        raise ValueError("need m >= 0, r >= 1")
    return 2 * m**r
