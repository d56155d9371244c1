"""Freeness testing and exact maximum pattern-free subgraph search.

Patterns are described by PatternSpec:
  * krr(r): unordered r-by-r biclique anywhere in a graph;
  * krs_oriented(r, s): r-by-s biclique with the r-side inside the first part
    of a bipartite host's partition (the orientation the certificate proves);
  * krs_either(r, s): either orientation;
  * multipartite(r, k): the side-r complete k-partite pattern, anchored to the
    parts when a partition is supplied, unordered otherwise.

Each copy is a bitmask over the host's sorted edges, built by
patterns._copy_edge_masks from the copy kernel's loop for each orientation;
one _incidence index of those edges per call serves it and the root bound.
max_free_subgraph resolves the pattern once: one _orientations call gives the
copy loops and the partitions the root bound reads.

Before searching, max_free_subgraph computes a root upper bound and an
incumbent:
  * The bound is the paper's Kővári–Sós–Turán count, carried to k-graphs by
    induction on links: in a free subgraph each choice of r-sets in
    U_1 ... U_{k-1} has at most s - 1 common completions in U_k, so the
    anchored copies of the links of the vertices of U_k add up to at most
    (s - 1) prod_{i<k} C(|U_i|, r). A convex floor F(d) on the copies of a
    d-edge link turns that into a cap on sum_x d_x (greedy by marginal cost,
    d_x capped at x's host degree). At k = 2, F(d) = C(d, r) and the count is
    sum_w C(d_w, r) <= (s - 1) C(|U|, r). krr, and the unordered multipartite
    pattern on a graph, use a BFS 2-colouring of the host and take the smaller
    bound of its two orientations; krs_oriented and the anchored multipartite
    pattern use the given parts in order, and krs_either the smaller of both
    orientations. A non-bipartite host without a partition and the unordered
    multipartite pattern at k >= 3 get no bound, which is reported as m.
  * The incumbent comes from seeded insertion: the edges are added in the
    order of an np.random.default_rng(0) permutation, each unless some copy
    through it would become complete. An edge in no copy is always inserted,
    so each pass starts with those edges kept and walks the copy edges only.
    With a bound below m, the passes restart (at most 64 passes) until one
    meets it; otherwise there is a single pass, since a bound of m cannot be
    met while a copy exists. The seed is fixed, so the output is
    byte-reproducible.
If the incumbent meets the bound, it is optimal and is returned with zero
nodes explored. A host with no copy takes the same path: its bound is m, and
its one pass keeps every edge.

Otherwise a depth-first branch and bound over edge deletions runs on an
explicit stack. Each node keeps the copies of its parent's list that miss the
deleted edge, and a greedy packing of edge-disjoint surviving copies gives an
admissible lower bound on the deletions still needed. Only a node that bound
does not prune picks its branch copy: the surviving copy with the fewest
deletable edges (ties broken lexicographically). Its children delete one edge
each and freeze the earlier-tried ones, so a copy with no deletable edge gives
no children. One test stops the search: the stack is empty, the incumbent
meets the root bound, or the node budget is spent. In the last case the best
subgraph found so far is returned with the optimality flag cleared, and
upper_bound - optimum is how far from proven it is.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import comb, prod
from typing import Callable, Iterator, Sequence

import numpy as np

from .deletion import run_trials
from .hypergraph import Edge, EdgeSubset, Hypergraph, PartitionSpec
from .patterns import PatternCopy, _copy_edge_masks, _copy_masks, _expand, _incidence

KIND_KRR = "rr-unordered"
KIND_KRS_ORIENTED = "rs-oriented"
KIND_KRS_EITHER = "rs-either"
KIND_MULTIPARTITE = "multipartite"


@dataclass(frozen=True)
class PatternSpec:
    """Which forbidden pattern the oracle is talking about."""

    kind: str
    r: int
    s: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_KRR, KIND_KRS_ORIENTED, KIND_KRS_EITHER, KIND_MULTIPARTITE):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("need r >= 1")
        if self.kind in (KIND_KRS_ORIENTED, KIND_KRS_EITHER):
            if self.s is None or not 2 <= self.r <= self.s:
                raise ValueError("biclique patterns need 2 <= r <= s")
        if self.kind == KIND_MULTIPARTITE and (self.k is None or self.k < 1):
            raise ValueError("multipartite pattern needs k >= 1")

    @classmethod
    def krr(cls, r: int) -> "PatternSpec":
        return cls(KIND_KRR, r=r, k=2)

    @classmethod
    def krs_oriented(cls, r: int, s: int) -> "PatternSpec":
        return cls(KIND_KRS_ORIENTED, r=r, s=s, k=2)

    @classmethod
    def krs_either(cls, r: int, s: int) -> "PatternSpec":
        return cls(KIND_KRS_EITHER, r=r, s=s, k=2)

    @classmethod
    def multipartite(cls, r: int, k: int) -> "PatternSpec":
        return cls(KIND_MULTIPARTITE, r=r, k=k)


def _orientations(g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None) -> list[PartitionSpec | None]:
    """The partitions the pattern's copies are anchored to, one per orientation; None leaves them unanchored.

    Checks the uniformity, then that an oriented biclique has a bipartition.
    krr ignores any partition it is given.
    """
    if pattern.k != g.k:
        raise ValueError(f"pattern uniformity {pattern.k} does not match host {g.k}")
    if pattern.kind == KIND_KRR:
        return [None]
    if pattern.kind == KIND_MULTIPARTITE:
        return [spec]
    if spec is None or spec.k != 2:
        raise ValueError("oriented biclique patterns need a bipartition of the host")
    if pattern.kind == KIND_KRS_EITHER:
        return [spec, PartitionSpec(spec.parts[::-1])]
    return [spec]


def iter_pattern_copies(
    g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None = None
) -> Iterator[PatternCopy]:
    """An iterator over all copies of the pattern in g, its arguments checked at the call.

    Oversized patterns yield nothing.
    """
    s = pattern.r if pattern.s is None else pattern.s
    return chain.from_iterable([_expand(*_copy_masks(g, pattern.r, o, s)) for o in _orientations(g, pattern, spec)])


def is_free(
    g: Hypergraph | EdgeSubset, pattern: PatternSpec, spec: PartitionSpec | None = None
) -> tuple[bool, PatternCopy | None]:
    """Whether g contains no copy of the pattern; if it does, return one witness copy."""
    graph = g.as_hypergraph() if isinstance(g, EdgeSubset) else g
    for copy in iter_pattern_copies(graph, pattern, spec):
        return False, copy
    return True, None


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: EdgeSubset
    nodes_explored: int
    proof_of_optimality: bool
    upper_bound: int


# Most insertion passes tried before the search when the root bound is below m:
# K_{6,6} first meets its bound at the 10th pass, K_{4,16} at the 4th.
_INSERTION_RESTARTS = 64


def _two_colouring(edges: Sequence[Edge], at: dict[int, list[int]]) -> tuple[list[int], list[int]] | None:
    """The classes of a BFS 2-colouring of the graph's non-isolated vertices, or None; at is _incidence(edges).at."""
    colour: dict[int, int] = {}
    for root in at:
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:  # the queue grows while it is read: breadth first
            for i in at[v]:
                a, b = edges[i]
                w = b if a == v else a
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    return [v for v, c in colour.items() if c == 0], [v for v, c in colour.items() if c == 1]


def _balanced(t: int, n: int, f: Callable[[int], int]) -> int:
    """Least sum of f(x_i) over n integers x_i >= 0 summing to t, for convex f.

    Convexity makes the most even split the cheapest. With no bins there is
    nothing to count, so the sum is 0.
    """
    if n == 0:
        return 0
    q, rem = divmod(t, n)
    return (rem * f(q + 1) if rem else 0) + (n - rem) * f(q)


def _link_floor(d: int, sizes: Sequence[int], r: int) -> int:
    """A convex lower bound on the anchored side-r copies of a j-partite j-graph with d edges.

    sizes holds the j part sizes. Jensen twice per level: the d edges split
    over the last part's vertices, whose links hold at least the balanced sum
    of the level-below floors; those link copies split over the r-set tuples
    of the other parts, and a tuple completed by t vertices of the last part
    lies in C(t, r) copies. With no parts the floor is d itself, so one part
    gives C(d, r).
    """
    if not sizes:
        return d
    *prefix, last = sizes
    link_copies = _balanced(d, last, lambda x: _link_floor(x, prefix, r))
    return _balanced(link_copies, prod(comb(a, r) for a in prefix), lambda t: comb(t, r))


def _kst_bound(caps: list[int], sizes: Sequence[int], r: int, s: int) -> int:
    """Largest sum of d_x with sum F(d_x) <= (s - 1) N and d_x <= caps[x].

    The r-set tuples of the parts of the given sizes number N = prod C(a, r),
    and F is _link_floor over those parts. At k = 2 this is the
    Kővári–Sós–Turán count sum C(d_x, r) <= (s - 1) C(|U|, r). Raising d_x
    from d to d + 1 costs F(d + 1) - F(d), which never falls as d grows, so
    taking the cheapest raises first is optimal. Bisection finds the highest
    level all d_x reach, or their caps; the rest lifts as many as it pays for.
    """
    budget = (s - 1) * prod(comb(a, r) for a in sizes)
    count = Counter(caps)

    def spent(level: int) -> int:
        return sum(n * _link_floor(min(c, level), sizes, r) for c, n in count.items())

    # spent(0) = 0 (no edges, no copies), so low >= 0.
    low = bisect_right(range(max(caps, default=0) + 1), budget, key=spent) - 1
    above = sum(n for c, n in count.items() if c > low)
    total = sum(n * min(c, low) for c, n in count.items())
    if not above:
        return total
    # Positive: were it 0, spent(low + 1) = spent(low) would fit the budget.
    step = _link_floor(low + 1, sizes, r) - _link_floor(low, sizes, r)
    return total + min(above, (budget - spent(low)) // step)


def _root_bound(at: dict[int, list[int]], partitions: list[Sequence[Sequence[int]]], r: int, s: int, m: int) -> int:
    """The paper's link-induction count over each partition, as an upper bound on the optimum (m if none is given).

    In a free subgraph each choice S of r-sets in U_1 ... U_{k-1} has at most
    s - 1 common completions x in the last part U_k. Summing over S, the
    anchored copies c(L_x) of the links of x in U_k add up to at most
    (s - 1) prod C(|U_i|, r), and c(L_x) is at least _link_floor(d_x), so
    _kst_bound caps sum d_x, with d_x at most x's host degree (its list's
    length in at, the _incidence(...).at of the host's sorted edges) and U_i
    counting only vertices with edges. The least count over the partitions
    bounds the optimum.
    """
    if not partitions:
        return m
    return min(
        _kst_bound(  # at is a defaultdict: reading a key it lacks would insert it
            [len(at[x]) for x in parts[-1] if x in at],
            [sum(u in at for u in part) for part in parts[:-1]],
            r,
            s,
        )
        for parts in partitions
    )


def max_free_subgraph(
    g: Hypergraph,
    pattern: PatternSpec,
    spec: PartitionSpec | None = None,
    budget: int = 2_000_000,
) -> OracleResult:
    """Largest pattern-free edge subset, certified optimal unless the budget runs out."""
    if budget < 1:
        raise ValueError("need budget >= 1")
    orientations = _orientations(g, pattern, spec)
    s = pattern.r if pattern.s is None else pattern.s
    edges = g._sorted_order
    m = len(edges)
    incident = _incidence(edges)
    copy_masks = _copy_edge_masks(edges, incident, [_copy_masks(g, pattern.r, o, s) for o in orientations])
    full = (1 << m) - 1
    # The bound reads the anchors' parts. A K_{r,r} copy in a bipartite graph has
    # its sides in opposite classes of any 2-colouring, so an unanchored graph
    # pattern reads both orientations of one; other unanchored patterns get none.
    partitions = [o.parts for o in orientations if o]
    if not partitions and g.k == 2 and (sides := _two_colouring(edges, incident.at)):
        partitions = [sides, sides[::-1]]
    upper_bound = _root_bound(incident.at, partitions, pattern.r, s, m)
    # The search stops once the incumbent deletes no more than this.
    floor = m - upper_bound

    # Incumbent: insert the edges in a seeded random order, each unless some
    # copy through it would become complete; keep the largest of the passes.
    # An edge in no copy is always inserted and no check reads it, so each
    # pass starts with those kept and walks the copy edges only.
    through: list[list[int]] = [[] for _ in range(m)]
    for c in copy_masks:
        rest = c
        while rest:
            bit = rest & -rest
            through[bit.bit_length() - 1].append(c)
            rest ^= bit
    in_copy = np.array([bool(cs) for cs in through], bool)
    copy_free = int.from_bytes(np.packbits(~in_copy, bitorder="little").tobytes(), "little")
    # The fewest deletions found so far, and the edges that solution keeps.
    fewest, best_kept = m, 0
    rng = np.random.default_rng(0)
    for _ in range(_INSERTION_RESTARTS if upper_bound < m else 1):
        kept = copy_free
        order = rng.permutation(m)
        for i in order[in_copy[order]].tolist():
            grown = kept | 1 << i
            if all(c & grown != c for c in through[i]):
                kept = grown
        if m - kept.bit_count() < fewest:
            fewest, best_kept = m - kept.bit_count(), kept
        if fewest <= floor:
            break

    # Depth first, on an explicit stack so that a deep first dive cannot
    # overflow the interpreter's recursion limit. Each entry is (parent's
    # surviving copies, edge deleted last, deleted, frozen, depth).
    nodes = 0
    stack: list[tuple[list[int], int, int, int, int]] = [(copy_masks, 0, 0, 0, 0)]
    while stack and fewest > floor and nodes < budget:
        parent_intact, cut, deleted, kept, depth = stack.pop()
        nodes += 1
        intact = [c for c in parent_intact if not c & cut]
        if not intact:
            if depth < fewest:
                fewest, best_kept = depth, full & ~deleted
            continue
        packed = 0
        packing = 0
        for c in intact:
            if not c & packed:
                packed |= c
                packing += 1
        if depth + packing < fewest:
            # A copy frozen solid has the least key and no bit to branch on.
            branch = min(intact, key=lambda c: ((c & ~kept).bit_count(), c)) & ~kept
            # Pushed highest bit first, the children pop lowest bit first, and
            # each freezes the lower bits its elder siblings delete.
            while branch:
                bit = 1 << branch.bit_length() - 1
                branch ^= bit
                stack.append((intact, bit, deleted | bit, kept | branch, depth + 1))

    # bin() writes the highest bit first; reversed, its characters line up with edges.
    witness_edges = frozenset(e for e, bit in zip(edges, bin(best_kept)[:1:-1]) if bit == "1")
    return OracleResult(
        optimum=m - fewest,
        witness=EdgeSubset(g, witness_edges),
        nodes_explored=nodes,
        proof_of_optimality=not stack or fewest <= floor,
        upper_bound=upper_bound,
    )


@dataclass(frozen=True)
class FreeSubgraphComparison:
    """Sandwich for one host: closed-form guarantee <= randomized best <= exact optimum."""

    m: int
    r: int
    k: int
    guarantee: float
    best_of_trials: int
    num_trials: int
    base_seed: int
    oracle: OracleResult


def f_lower_report(
    g: Hypergraph,
    pattern: PatternSpec,
    spec: PartitionSpec | None = None,
    num_trials: int = 100,
    base_seed: int = 0,
    budget: int = 2_000_000,
) -> FreeSubgraphComparison:
    """Compare the exact optimum, the randomized extraction's best trial, and the guarantee.

    The extraction removes all side-r pattern copies, which also destroys every
    r-by-s biclique for s >= r, so its best trial never exceeds the optimum.
    """
    if pattern.r < 2:
        raise ValueError("need pattern side r >= 2")
    oracle = max_free_subgraph(g, pattern, spec, budget)
    trial_spec = spec if pattern.kind == KIND_MULTIPARTITE else None
    summary = run_trials(g, pattern.r, num_trials, base_seed, spec=trial_spec)
    return FreeSubgraphComparison(
        m=g.m,
        r=pattern.r,
        k=g.k,
        guarantee=summary.guarantee,
        best_of_trials=summary.max_final_size,
        num_trials=num_trials,
        base_seed=base_seed,
        oracle=oracle,
    )
