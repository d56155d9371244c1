"""Independent brute-force oracles for the test suite.

Everything here is written the slow, obvious way on purpose: straight
enumeration over subsets, no bitset tricks, no shared code with the library's
counting paths. Tests compare the fast implementations against these.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, permutations, product

from krsfree import EdgeSubset, Hypergraph, PartitionSpec


def _is_complete_between(g: Hypergraph, A, B) -> bool:
    return all(tuple(sorted((a, b))) in g.edges for a in A for b in B)


def brute_count_biclique_unordered(g: Hypergraph, r: int) -> int:
    """Unordered r-by-r bicliques anywhere in a graph: test all disjoint r-set pairs."""
    count = 0
    subsets = list(combinations(range(g.n), r))
    for A, B in combinations(subsets, 2):
        if set(A) & set(B):
            continue
        if _is_complete_between(g, A, B):
            count += 1
    return count


def brute_copies_unordered(g: Hypergraph, r: int) -> set[tuple[tuple[int, ...], ...]]:
    """The same pairs as sets of canonical (min-sorted) part tuples."""
    found = set()
    subsets = list(combinations(range(g.n), r))
    for A, B in combinations(subsets, 2):
        if set(A) & set(B):
            continue
        if _is_complete_between(g, A, B):
            found.add(tuple(sorted((A, B), key=lambda t: t[0])))
    return found


def brute_graph_masks(g: Hypergraph, r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The unordered-graph r-set scan over all C(n, r) vertex r-sets.

    Lists (A, B) in lexicographic order of A, for every r-set A with at least r
    common neighbours above min(A); B is those neighbours, sorted. This is the
    sequence the library's graph kernel must produce, in the same order.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    found = []
    for A in combinations(range(g.n), r):
        common = {b for b in nbrs[A[0]] if b > A[0]}
        for a in A[1:]:
            common &= nbrs[a]
        if len(common) >= r:
            found.append((A, tuple(sorted(common))))
    return found


def brute_r_core(edges, r: int) -> set[int]:
    """The vertices of the r-core: repeatedly delete a vertex of degree below r, one at a time."""
    nbrs: dict[int, set[int]] = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    low = [v for v, vs in nbrs.items() if len(vs) < r]
    while low:
        v = low.pop()
        for w in nbrs.pop(v):
            nbrs[w].discard(v)
            if len(nbrs[w]) == r - 1:
                low.append(w)
    return set(nbrs)


def brute_link_masks(g: Hypergraph, r: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """Unordered k >= 3 copies through links, one link at a time, as (S, completions) pairs.

    For each vertex v in increasing order and each copy C of v's link above v,
    {e - {v} : min(e) = v}, in the order this search one uniformity down lists
    it (brute_graph_masks at k - 1 = 2), the vertices above v that complete
    every transversal of C, when there are at least r - 1 of them. S is
    ((v,),) + C. This is the sequence the library's link kernel must produce.
    """
    found = []
    for v in range(g.n):
        link = Hypergraph.from_edges(g.k - 1, g.n, (e[1:] for e in g.edges if e[0] == v))
        if g.k == 3:
            copies = [(A, B) for A, common in brute_graph_masks(link, r) for B in combinations(common, r)]
        else:
            copies = [
                ((u, *R), *C) for ((u,), *C), common in brute_link_masks(link, r) for R in combinations(common, r - 1)
            ]
        for C in copies:
            common = tuple(w for w in range(v + 1, g.n) if all(tuple(sorted((*t, w))) in g.edges for t in product(*C)))
            if len(common) >= r - 1:
                found.append((((v,), *C), common))
    return found


def without_isolated(g: Hypergraph) -> tuple[Hypergraph, list[int]]:
    """g on its non-isolated vertices, relabelled in increasing order, with the old labels.

    An isolated vertex lies in no copy, and the relabelling keeps vertex order,
    so referees can run on the small graph and map their answers back.
    """
    labels = sorted({v for e in g.edges for v in e})
    pos = {v: i for i, v in enumerate(labels)}
    small = Hypergraph.from_edges(g.k, len(labels), (tuple(pos[v] for v in e) for e in g.edges))
    return small, labels


def brute_copies_oriented(g: Hypergraph, U, W, r: int, s: int) -> list[tuple[tuple[int, ...], ...]]:
    """r-by-s bicliques (R, S) with R inside U and S inside W, in lexicographic order of (R, S)."""
    found = []
    for R in combinations(sorted(U), r):
        for S in combinations(sorted(W), s):
            if _is_complete_between(g, R, S):
                found.append((R, S))
    return found


def brute_validate(k: int, n: int, edges) -> None:
    """The per-edge construction check: raise ValueError naming the first bad edge in iteration order."""
    if k < 1:
        raise ValueError("uniformity k must be >= 1")
    if n < 0:
        raise ValueError("vertex count n must be >= 0")
    for e in edges:
        if len(e) != k or len(set(e)) != k:
            raise ValueError(f"edge {e!r} must have exactly {k} distinct vertices")
        if tuple(sorted(e)) != e:
            raise ValueError(f"edge {e!r} is not sorted")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e!r} has vertices outside [0, {n})")


def brute_is_partite(g: Hypergraph, spec: PartitionSpec) -> bool:
    """spec has g.k parts whose vertices are exactly [0, n), and every edge meets each part once."""
    if spec.k != g.k:
        return False
    covered = [v for part in spec.parts for v in part]
    if len(covered) != g.n or set(covered) != set(range(g.n)):
        return False
    pmap = {v: i for i, part in enumerate(spec.parts) for v in part}
    expect = list(range(g.k))
    for e in g.edges:
        if sorted(pmap[v] for v in e) != expect:
            return False
    return True


def brute_copies_partite(g: Hypergraph, spec: PartitionSpec, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Anchored copies: choose an r-set in every part, check all transversals."""
    choices = [list(combinations(part, r)) for part in spec.parts]
    return [
        parts
        for parts in product(*choices)
        if all(tuple(sorted(t)) in g.edges for t in product(*parts))
    ]


def brute_partite_masks(g: Hypergraph, parts, r: int, s: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """The anchored product scan over every r-set tuple of all parts but the last.

    Lists (S, C) in product order of S = (A_1, ..., A_{k-1}), each A_i an r-set
    of parts[i] in lexicographic order, for every S whose transversals have at
    least s common completions in the last part; C is those completions, sorted.
    This is the sequence the library's anchored kernel must produce, in order.
    """
    found = []
    for S in product(*(combinations(part, r) for part in parts[:-1])):
        common = set(parts[-1])
        for t in product(*S):
            common = {x for x in common if tuple(sorted((*t, x))) in g.edges}
        if len(common) >= s:
            found.append((S, tuple(sorted(common))))
    return found


def brute_count_partite_copies(g: Hypergraph, spec: PartitionSpec, r: int) -> int:
    return len(brute_copies_partite(g, spec, r))


def brute_count_kgraph_unordered(g: Hypergraph, r: int) -> int:
    """Unordered k-partite pattern copies anywhere in a k-graph.

    Enumerates unordered families of k disjoint r-sets by fixing the part
    containing the smallest vertex first (parts sorted by their minimum).
    """
    k = g.k
    verts = range(g.n)
    found = set()
    for family in _families(k, r, verts):
        if all(tuple(sorted(t)) in g.edges for t in product(*family)):
            found.add(family)
    return len(found)


def brute_kgraph_copies_in_order(g: Hypergraph, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Unordered k-partite copies, in the order a matching-extension loop first meets them.

    Every copy contains a perfect matching of r disjoint transversals. Take the
    r-matchings in lexicographic order of their sorted edge lists; pin the first
    edge's vertices to one part each and try every assignment of each later
    edge's vertices to the parts, in itertools.product order of the
    permutations. A copy is listed, as its parts sorted by minimum, the first
    time an assignment yields it.
    """
    k = g.k
    edges = g.sorted_edges()
    found: list[tuple[tuple[int, ...], ...]] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()

    def matchings(start: int, chosen: list, used: set[int]):
        if len(chosen) == r:
            yield list(chosen)
            return
        for i in range(start, len(edges)):
            if used.isdisjoint(edges[i]):
                chosen.append(edges[i])
                yield from matchings(i + 1, chosen, used | set(edges[i]))
                chosen.pop()

    for matching in matchings(0, [], set()):
        base = matching[0]
        for assignment in product(permutations(range(k)), repeat=r - 1):
            parts = [[v] for v in base]
            for e, perm in zip(matching[1:], assignment):
                for pos, v in enumerate(e):
                    parts[perm[pos]].append(v)
            copy = tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda t: t[0]))
            if copy not in seen and all(tuple(sorted(t)) in g.edges for t in product(*copy)):
                seen.add(copy)
                found.append(copy)
    return found


def _families(k: int, r: int, verts) -> list[tuple[tuple[int, ...], ...]]:
    out = []
    subsets = list(combinations(verts, r))

    def rec(chosen: list[tuple[int, ...]], used: set[int], last_min: int) -> None:
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for sub in subsets:
            if sub[0] <= last_min:
                continue
            if used.intersection(sub):
                continue
            chosen.append(sub)
            rec(chosen, used | set(sub), sub[0])
            chosen.pop()

    rec([], set(), -1)
    return out


def brute_count_matchings(g: Hypergraph, r: int) -> int:
    count = 0
    for edges in combinations(sorted(g.edges), r):
        seen: set[int] = set()
        ok = True
        for e in edges:
            if seen.intersection(e):
                ok = False
                break
            seen.update(e)
        if ok:
            count += 1
    return count


def brute_two_colouring(g: Hypergraph) -> tuple[list[int], list[int]] | None:
    """The colour classes of a BFS 2-colouring over a dict of neighbour lists, or None if g has an odd cycle.

    Vertices are rooted in order of first appearance over the sorted edges, and
    each lists its neighbours in edge order.
    """
    adjacent: dict[int, list[int]] = defaultdict(list)
    for a, b in g.sorted_edges():
        adjacent[a].append(b)
        adjacent[b].append(a)
    colour: dict[int, int] = {}
    for root in adjacent:
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:
            for w in adjacent[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    return [v for v, c in colour.items() if c == 0], [v for v, c in colour.items() if c == 1]


def copies_as_masks(g: Hypergraph, copies) -> list[int]:
    """Each copy as a bitmask over the sorted edge list of g."""
    order = {e: i for i, e in enumerate(g.sorted_edges())}
    masks = set()
    for parts in copies:
        mask = 0
        for t in product(*parts):
            mask |= 1 << order[tuple(sorted(t))]
        masks.add(mask)
    return sorted(masks)


def brute_max_free(g: Hypergraph, copy_masks: list[int]) -> tuple[int, int]:
    """Exhaustive 2^m scan: the largest edge subset containing no copy.

    Returns (optimum, witness mask). copy_masks must list every pattern copy of
    the FULL graph as an edge bitmask; a subset is free iff it covers none of
    them entirely.
    """
    m = g.m
    best_size = -1
    best_mask = 0
    for subset in range(1 << m):
        size = subset.bit_count()
        if size <= best_size:
            continue
        if all(c & subset != c for c in copy_masks):
            best_size = size
            best_mask = subset
    return best_size, best_mask


def mask_to_subset(g: Hypergraph, mask: int) -> EdgeSubset:
    order = g.sorted_edges()
    return EdgeSubset(g, frozenset(order[i] for i in range(len(order)) if mask >> i & 1))
