"""Freeness testing and exact maximum pattern-free subgraph search.

Patterns are described by PatternSpec:
  * krr(r): unordered r-by-r biclique anywhere in a graph;
  * krs_oriented(r, s): r-by-s biclique with the r-side inside the first part
    of a bipartite host's partition (the orientation the certificate proves);
  * krs_either(r, s): either orientation;
  * multipartite(r, k): the side-r complete k-partite pattern, anchored to the
    parts when a partition is supplied, unordered otherwise.

The search is a branch and bound over edge deletions: branch on the surviving
copy with the fewest deletable edges (ties broken lexicographically), children
delete one edge each and freeze the earlier-tried ones, and a greedy packing of
edge-disjoint surviving copies gives an admissible lower bound on the deletions
still needed. A node budget caps the search; if it runs out, the best subgraph
found so far is returned with the optimality flag cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .deletion import run_trials
from .hypergraph import EdgeSubset, Hypergraph, PartitionSpec, require_partite
from .patterns import (
    PatternCopy,
    _completions,
    _partite_masks,
    enumerate_copies,
)

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


def iter_pattern_copies(
    g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None = None
) -> Iterator[PatternCopy]:
    """All copies of the pattern in g. Oversized patterns yield nothing."""
    if pattern.kind == KIND_KRR:
        if g.k != 2:
            raise ValueError("r-by-r biclique pattern needs a graph host")
        yield from enumerate_copies(g, pattern.r)
        return
    if pattern.kind == KIND_MULTIPARTITE:
        if pattern.k != g.k:
            raise ValueError(f"pattern uniformity {pattern.k} does not match host {g.k}")
        yield from enumerate_copies(g, pattern.r, spec)
        return
    if g.k != 2:
        raise ValueError("biclique patterns need a graph host")
    if spec is None or spec.k != 2:
        raise ValueError("oriented biclique patterns need a bipartition of the host")
    require_partite(g, spec)
    assert pattern.s is not None
    orientations = [spec.parts]
    if pattern.kind == KIND_KRS_EITHER:
        orientations.append(spec.parts[::-1])
    for parts in orientations:
        masks = _partite_masks(g.edges, parts, pattern.r, pattern.s)
        yield from _completions(masks, pattern.s, parts[-1])


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


def max_free_subgraph(
    g: Hypergraph,
    pattern: PatternSpec,
    spec: PartitionSpec | None = None,
    budget: int = 2_000_000,
) -> OracleResult:
    """Largest pattern-free edge subset, certified optimal unless the budget runs out."""
    if budget < 1:
        raise ValueError("need budget >= 1")
    edges = g.sorted_edges()
    m = len(edges)
    index = {e: i for i, e in enumerate(edges)}
    copy_masks = sorted(
        {
            sum(1 << index[e] for e in copy.edge_set())
            for copy in iter_pattern_copies(g, pattern, spec)
        }
    )
    full = (1 << m) - 1
    if not copy_masks:
        return OracleResult(
            optimum=m,
            witness=EdgeSubset(g, frozenset(edges)),
            nodes_explored=0,
            proof_of_optimality=True,
        )

    # Greedy incumbent: sweep once, deleting the lowest edge of each surviving copy.
    greedy_deleted = 0
    for c in copy_masks:
        if not c & greedy_deleted:
            greedy_deleted |= c & -c
    best = [greedy_deleted.bit_count(), full & ~greedy_deleted]
    nodes = 0
    exhausted = False

    def search(deleted: int, kept: int, depth: int) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        if nodes >= budget:
            exhausted = True
            return
        nodes += 1
        intact = [c for c in copy_masks if not c & deleted]
        if not intact:
            if depth < best[0]:
                best[0] = depth
                best[1] = full & ~deleted
            return
        packed = 0
        packing = 0
        branch_key = None
        branch = 0
        for c in intact:
            free_bits = c & ~kept
            if not free_bits:
                return  # some surviving copy is frozen solid: no solution below here
            if not c & packed:
                packed |= c
                packing += 1
            key = (free_bits.bit_count(), c)
            if branch_key is None or key < branch_key:
                branch_key = key
                branch = free_bits
        if depth + packing >= best[0]:
            return
        tried = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            search(deleted | bit, kept | tried, depth + 1)
            tried |= bit

    search(0, 0, 0)
    witness_edges = frozenset(edges[i] for i in range(m) if best[1] >> i & 1)
    return OracleResult(
        optimum=m - best[0],
        witness=EdgeSubset(g, witness_edges),
        nodes_explored=nodes,
        proof_of_optimality=not exhausted,
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
