"""Exact maximum pattern-free subgraph search against an exhaustive subset scan."""

from __future__ import annotations

import hashlib
import math
import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from krsfree import (
    Hypergraph,
    build_construction,
    OracleResult,
    PartitionSpec,
    PatternSpec,
    complete_bipartite,
    complete_multipartite,
    f_lower_report,
    is_free,
    max_free_subgraph,
)
from krsfree.oracle import (
    KIND_KRR,
    KIND_KRS_EITHER,
    KIND_MULTIPARTITE,
    _kst_bound,
    _link_floor,
    _orientations,
    _root_bound,
    _two_colouring,
    iter_pattern_copies,
)
from krsfree.patterns import _copy_edge_masks, _copy_masks, _incidence

from bruteforce import (
    brute_copies_oriented,
    brute_copies_partite,
    brute_copies_unordered,
    brute_max_free,
    brute_two_colouring,
    copies_as_masks,
    mask_to_subset,
)
from corpus import (
    disjoint_k33,
    graph_corpus,
    kgraph_corpus,
    partite_corpus_small,
    partite_host,
    random_graph,
    shuffled_partite_corpus,
)


def witness_digest(result: OracleResult) -> str:
    """sha256 of the witness's sorted edges, one "u v" line each (bench/workloads.py's witness_sha256)."""
    text = "".join(" ".join(map(str, e)) + "\n" for e in sorted(result.witness.edges))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_and_brute(g: Hypergraph, pattern: PatternSpec) -> tuple[OracleResult, int]:
    result = max_free_subgraph(g, pattern)
    masks = copies_as_masks(g, brute_copies_unordered(g, pattern.r))
    brute_opt, _ = brute_max_free(g, masks)
    return result, brute_opt


class TestPatternSpec:
    def test_constructors(self):
        assert PatternSpec.krr(2).kind == KIND_KRR
        assert PatternSpec.krs_oriented(2, 3).s == 3
        assert PatternSpec.krs_either(2, 2).kind == KIND_KRS_EITHER
        assert PatternSpec.multipartite(2, 3).k == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown pattern kind"):
            PatternSpec("diagonal", 2)
        with pytest.raises(ValueError, match="r >= 1"):
            PatternSpec(KIND_KRR, 0)
        with pytest.raises(ValueError, match="2 <= r <= s"):
            PatternSpec.krs_oriented(3, 2)
        with pytest.raises(ValueError, match="k >= 1"):
            PatternSpec(KIND_MULTIPARTITE, 2)


class TestIsFree:
    def test_k22_contains_itself(self):
        g, _ = complete_bipartite(2, 2)
        free, witness = is_free(g, PatternSpec.krr(2))
        assert not free
        assert witness is not None and witness.vertices() == (0, 1, 2, 3)

    def test_matching_is_free(self):
        g = Hypergraph.from_edges(2, 8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        free, witness = is_free(g, PatternSpec.krr(2))
        assert free and witness is None

    def test_oriented_patterns_need_bipartition(self):
        g, spec = complete_bipartite(3, 3)
        free, _ = is_free(g, PatternSpec.krs_oriented(2, 3), spec)
        assert not free
        with pytest.raises(ValueError, match="bipartition"):
            is_free(g, PatternSpec.krs_oriented(2, 3))
        with pytest.raises(ValueError, match="bipartition"):
            iter_pattern_copies(g, PatternSpec.krs_either(2, 3))
        g = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5)])
        # vertices 4 and 5 uncovered; then edge 0-1 inside a part
        for parts in (((0, 1), (2, 3)), ((0, 1, 4), (2, 3, 5))):
            spec = PartitionSpec(parts)
            for pattern in (PatternSpec.krs_oriented(2, 2), PatternSpec.krs_either(2, 2)):
                with pytest.raises(ValueError, match="not partite"):
                    is_free(g, pattern, spec)
                with pytest.raises(ValueError, match="not partite"):
                    iter_pattern_copies(g, pattern, spec)
                with pytest.raises(ValueError, match="not partite"):
                    max_free_subgraph(g, pattern, spec)

    def test_orientation_counts(self):
        g, spec = complete_bipartite(3, 3)
        oriented = list(iter_pattern_copies(g, PatternSpec.krs_oriented(2, 3), spec))
        either = list(iter_pattern_copies(g, PatternSpec.krs_either(2, 3), spec))
        assert len(oriented) == 3
        assert len(either) == 6

    def test_oriented_r_side_in_first_part(self):
        g, spec = complete_bipartite(3, 4)
        for copy in iter_pattern_copies(g, PatternSpec.krs_oriented(2, 3), spec):
            r_side, s_side = copy.parts
            assert set(r_side) <= set(spec.parts[0])
            assert set(s_side) <= set(spec.parts[1])

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (3, 3)])
    def test_oriented_copies_match_brute_force(self, r, s):
        rng = random.Random(1000 * r + s)
        for sizes in [(3, 3), (4, 5), (5, 4), (5, 6), (6, 6)] * 4:
            g, spec = partite_host(sizes, rng.uniform(0.4, 1.0), rng)
            u, w = spec.parts
            forward = brute_copies_oriented(g, u, w, r, s)
            backward = brute_copies_oriented(g, w, u, r, s)
            oriented = [c.parts for c in iter_pattern_copies(g, PatternSpec.krs_oriented(r, s), spec)]
            either = [c.parts for c in iter_pattern_copies(g, PatternSpec.krs_either(r, s), spec)]
            assert oriented == forward
            assert either == forward + backward

    def test_multipartite_kind(self):
        g, spec = complete_multipartite([2, 2, 2])
        free, witness = is_free(g, PatternSpec.multipartite(2, 3), spec)
        assert not free and witness.parts == ((0, 1), (2, 3), (4, 5))
        for pattern in (
            PatternSpec.multipartite(2, 2),
            PatternSpec.krr(2),
            PatternSpec.krs_oriented(2, 3),
            PatternSpec.krs_either(2, 3),
        ):
            with pytest.raises(ValueError, match="does not match host"):
                is_free(g, pattern, spec)
            # The bare call raises, before any copy is asked for.
            with pytest.raises(ValueError, match="does not match host"):
                iter_pattern_copies(g, pattern, spec)


def referee_masks(g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None) -> list[int]:
    """The enumerated copies as sorted edge masks, by a product over each copy's parts."""
    return copies_as_masks(g, [c.parts for c in iter_pattern_copies(g, pattern, spec)])


def copy_edge_masks(g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None) -> list[int]:
    """The oracle's copy masks: the edge masks of the pattern's loops, one per orientation."""
    s = pattern.r if pattern.s is None else pattern.s
    loops = [_copy_masks(g, pattern.r, o, s) for o in _orientations(g, pattern, spec)]
    return _copy_edge_masks(g._sorted_order, _incidence(g._sorted_order), loops)


def root_bound(g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None) -> int:
    """The oracle's root bound over the partitions max_free_subgraph settles, read from its index of g's sorted edges.

    Those are the anchors' parts, or a graph's 2-colouring both ways when the
    pattern is unanchored; test_one_orientation_call_per_search checks that
    the oracle reports the same bound.
    """
    edges = g._sorted_order
    at = _incidence(edges).at
    orientations = _orientations(g, pattern, spec)
    partitions = [o.parts for o in orientations if o]
    if not partitions and g.k == 2 and (sides := _two_colouring(edges, at)):
        partitions = [sides, sides[::-1]]
    return _root_bound(at, partitions, pattern.r, pattern.r if pattern.s is None else pattern.s, g.m)


def raised(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestCopyEdgeMasks:
    """The oracle's masks, built from the kernel's pairs, against the enumerated copies."""

    def test_graph_patterns(self):
        checked = 0
        for g in graph_corpus(200):
            for r in (1, 2, 3):
                for pattern in (PatternSpec.krr(r), PatternSpec.multipartite(r, 2)):
                    masks = copy_edge_masks(g, pattern, None)
                    assert masks == referee_masks(g, pattern, None)
                    checked += bool(masks)
        assert checked >= 300

    def test_partite_patterns(self):
        # r = s is where the two orientations of krs_either overlap.
        checked = 0
        for g, spec in partite_corpus_small(120) + shuffled_partite_corpus(80):
            patterns = [PatternSpec.multipartite(r, g.k) for r in (1, 2)]
            if g.k == 2:
                patterns += [kind(r, s) for kind in (PatternSpec.krs_oriented, PatternSpec.krs_either)
                             for r, s in ((2, 2), (2, 3), (3, 3))]
            for pattern in patterns:
                for parts in (spec, None) if pattern.kind == KIND_MULTIPARTITE else (spec,):
                    masks = copy_edge_masks(g, pattern, parts)
                    assert masks == referee_masks(g, pattern, parts)
                    checked += bool(masks)
        assert checked >= 400

    @pytest.mark.parametrize("k", [3, 4])
    def test_unordered_kgraph_patterns(self, k):
        checked = 0
        for g in kgraph_corpus(60, seed=k, k=k):
            for r in (1, 2):
                masks = copy_edge_masks(g, PatternSpec.multipartite(r, k), None)
                assert masks == referee_masks(g, PatternSpec.multipartite(r, k), None)
                checked += bool(masks)
        assert checked >= 60

    def test_one_uniform_hosts(self):
        for n in range(6):
            g = Hypergraph.from_edges(1, n, [(v,) for v in range(0, n, 2)])
            spec = PartitionSpec((tuple(range(n)),))
            for r in (1, 2, 3):
                for parts in (None, spec):
                    pattern = PatternSpec.multipartite(r, 1)
                    assert copy_edge_masks(g, pattern, parts) == referee_masks(g, pattern, parts)

    def test_oversized_patterns_give_no_masks(self):
        g, spec = complete_bipartite(3, 3)
        for pattern in (PatternSpec.krr(4), PatternSpec.krs_oriented(4, 4), PatternSpec.krs_either(2, 4),
                        PatternSpec.multipartite(4, 2)):
            assert copy_edge_masks(g, pattern, spec) == []
        g, spec = complete_multipartite([2, 2, 2])
        for parts in (spec, None):
            assert copy_edge_masks(g, PatternSpec.multipartite(3, 3), parts) == []

    def test_only_copy_vertices_get_a_mask(self):
        # A star's 20,000 leaves are in no copy. A mask for each would be as
        # wide as its edge's position, 25 MB in all; the K_{2,2} beside the
        # star needs four.
        n = 20_000
        edges = [(0, i) for i in range(1, n + 1)] + [(n + 1, n + 3), (n + 1, n + 4), (n + 2, n + 3), (n + 2, n + 4)]
        g = Hypergraph.from_edges(2, n + 5, edges)
        tracemalloc.start()
        try:
            masks = copy_edge_masks(g, PatternSpec.krr(2), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks == [0b1111 << n]
        assert peak < 12 * 2**20

    def test_errors_match_the_enumeration(self):
        g, spec = complete_bipartite(3, 3)
        g3, spec3 = complete_multipartite([2, 2, 2])
        misfit = PartitionSpec(((0, 1, 3), (2, 4, 5)))
        cases = [
            # Uniformity first, even with no bipartition.
            (g3, PatternSpec.krs_either(2, 3), None, "does not match host"),
            (g3, PatternSpec.krr(2), spec3, "does not match host"),
            (g, PatternSpec.multipartite(2, 3), spec, "does not match host"),
            # Then the bipartition, before the partition is checked against the host.
            (g, PatternSpec.krs_oriented(2, 3), None, "bipartition"),
            (g, PatternSpec.krs_either(2, 2), PartitionSpec(((0,), (1, 2), (3, 4, 5))), "bipartition"),
            (g, PatternSpec.krs_oriented(2, 3), misfit, "not partite"),
            (g, PatternSpec.krs_either(2, 3), misfit, "not partite"),
            (g, PatternSpec.multipartite(2, 2), misfit, "not partite"),
        ]
        for host, pattern, parts, text in cases:
            message = raised(copy_edge_masks, host, pattern, parts)
            assert text in message
            assert message == raised(iter_pattern_copies, host, pattern, parts)


class TestOracleFrozenValues:
    def test_k22(self):
        g, _ = complete_bipartite(2, 2)
        result, brute_opt = oracle_and_brute(g, PatternSpec.krr(2))
        assert result.optimum == brute_opt == 3
        assert result.proof_of_optimality

    def test_k24(self):
        g, _ = complete_bipartite(2, 4)
        result, brute_opt = oracle_and_brute(g, PatternSpec.krr(2))
        assert result.optimum == brute_opt == 5

    def test_k33(self):
        g, _ = complete_bipartite(3, 3)
        result, brute_opt = oracle_and_brute(g, PatternSpec.krr(2))
        assert result.optimum == brute_opt == 6

    def test_k44(self):
        g, _ = complete_bipartite(4, 4)
        result, brute_opt = oracle_and_brute(g, PatternSpec.krr(2))
        assert result.optimum == brute_opt == 9


class TestOracleProperties:
    def test_witness_is_free_and_sized(self):
        for g in graph_corpus(30, max_n=8, seed=123):
            if g.m > 14:
                continue
            result = max_free_subgraph(g, PatternSpec.krr(2))
            assert len(result.witness.edges) == result.optimum
            free, _ = is_free(result.witness, PatternSpec.krr(2))
            assert free

    def test_matches_brute_force(self):
        checked = 0
        for g in graph_corpus(60, max_n=8, seed=321):
            if g.m > 13:
                continue
            result, brute_opt = oracle_and_brute(g, PatternSpec.krr(2))
            assert result.optimum == brute_opt
            assert result.proof_of_optimality
            checked += 1
        assert checked >= 30

    def test_brute_witness_agrees(self):
        g, _ = complete_bipartite(2, 4)
        masks = copies_as_masks(g, brute_copies_unordered(g, 2))
        opt, mask = brute_max_free(g, masks)
        sub = mask_to_subset(g, mask)
        assert len(sub.edges) == opt
        free, _ = is_free(sub, PatternSpec.krr(2))
        assert free

    def test_monotone_under_edge_addition(self):
        rng = random.Random(7)
        for _ in range(12):
            g = random_graph(7, 0.4, rng)
            extra = [e for e in random_graph(7, 0.3, rng).edges if e not in g.edges]
            h = Hypergraph(2, 7, g.edges | frozenset(extra[:3]))
            opt_g = max_free_subgraph(g, PatternSpec.krr(2)).optimum
            opt_h = max_free_subgraph(h, PatternSpec.krr(2)).optimum
            assert opt_h >= opt_g

    def test_budget_exhaustion_is_reported(self):
        # K_{8,8}'s root bound is 25 against an optimum of z(8; 2) = 24, so
        # only the search could prove it.
        g, _ = complete_bipartite(8, 8)
        result = max_free_subgraph(g, PatternSpec.krr(2), budget=2)
        assert not result.proof_of_optimality
        free, _ = is_free(result.witness, PatternSpec.krr(2))
        assert free
        assert len(result.witness.edges) == result.optimum

    def test_copyless_host_is_trivially_solved(self):
        g = Hypergraph.from_edges(2, 6, [(0, 1), (2, 3)])
        result = max_free_subgraph(g, PatternSpec.krr(2))
        assert result.optimum == 2
        assert result.nodes_explored == 0
        assert result.proof_of_optimality

    def test_oriented_pattern_optimum(self):
        # forbidding only one orientation can never cost more edges than both
        g, spec = complete_bipartite(3, 3)
        one = max_free_subgraph(g, PatternSpec.krs_oriented(2, 3), spec)
        both = max_free_subgraph(g, PatternSpec.krs_either(2, 3), spec)
        assert one.optimum >= both.optimum
        free, _ = is_free(one.witness, PatternSpec.krs_oriented(2, 3), spec)
        assert free

    def test_budget_validation(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="budget"):
            max_free_subgraph(g, PatternSpec.krr(2), budget=0)


def pattern_masks(g: Hypergraph, pattern: PatternSpec, spec: PartitionSpec | None) -> list[int]:
    """Every copy of a graph pattern as an edge bitmask, from the brute-force referees."""
    if pattern.kind == KIND_KRR:
        return copies_as_masks(g, brute_copies_unordered(g, pattern.r))
    u, w = spec.parts
    copies = brute_copies_oriented(g, u, w, pattern.r, pattern.s)
    if pattern.kind == KIND_KRS_EITHER:
        copies += brute_copies_oriented(g, w, u, pattern.r, pattern.s)
    return copies_as_masks(g, copies)


GRAPH_PATTERNS = (PatternSpec.krr(2), PatternSpec.krs_oriented(2, 3), PatternSpec.krs_either(2, 3))

# z(n; 2), the most edges of a C4-free subgraph of K_{n,n} (OEIS A001197).
ZARANKIEWICZ = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}


class TestRootBound:
    def test_bound_is_at_least_the_optimum(self):
        rng = random.Random(77)
        hosts = [(g, None) for g in graph_corpus(80, max_n=8, seed=4242) if g.m <= 13]
        for sizes in [(2, 3), (3, 3), (3, 4), (2, 6), (4, 3), (3, 5)] * 6:
            g, spec = partite_host(sizes, rng.uniform(0.5, 1.0), rng)
            if g.m <= 13:
                hosts.append((g, spec))
        below_m = met = 0
        for g, spec in hosts:
            for pattern in GRAPH_PATTERNS if spec else GRAPH_PATTERNS[:1]:
                result = max_free_subgraph(g, pattern, spec)
                brute_opt, _ = brute_max_free(g, pattern_masks(g, pattern, spec))
                assert result.optimum == brute_opt
                assert brute_opt <= result.upper_bound <= g.m
                if pattern.kind == KIND_KRS_EITHER:
                    # a free subgraph is free of both orientations: the smaller bound holds
                    oriented = PatternSpec.krs_oriented(2, 3)
                    flipped = PartitionSpec(spec.parts[::-1])
                    assert result.upper_bound == min(
                        max_free_subgraph(g, oriented, parts).upper_bound for parts in (spec, flipped)
                    )
                below_m += result.upper_bound < g.m
                met += result.upper_bound == brute_opt < g.m
        assert below_m >= 60 and met >= 30

    def test_non_bipartite_and_multipartite_hosts_have_no_bound(self):
        g = Hypergraph.from_edges(2, 5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)])
        result = max_free_subgraph(g, PatternSpec.krr(2))
        assert result.upper_bound == g.m
        # Without its partition the (2,2,3) host's pattern is unordered: no bound.
        g, _, _ = build_construction(2, 2, 3)
        result = max_free_subgraph(g, PatternSpec.multipartite(2, 3), budget=2)
        assert result.upper_bound == g.m
        assert not result.proof_of_optimality and result.nodes_explored == 2

    def test_link_induction_bound_is_pinned(self):
        # Pinned, so that a weaker bound fails as well as an invalid one. The
        # (2,2,3) host's 86 is its optimum; the (3,2,3) host is never solved here.
        multipartite = PatternSpec.multipartite(2, 3)
        for n, bound in [(2, 86), (3, 1_080)]:
            g, spec, _ = build_construction(n, 2, 3)
            assert root_bound(g, multipartite, spec) == bound
        assert root_bound(complete_bipartite(2, 4)[0], PatternSpec.krr(2), None) == 5
        assert root_bound(build_construction(3, 2, 2)[0], PatternSpec.krr(2), None) == 12

    def test_two_colouring_matches_the_adjacency_bfs(self):
        def union(blocks: list[Hypergraph], labels: list[int]) -> Hypergraph:
            # Block vertices map, in turn, to the next unused entries of labels.
            edges, base = [], 0
            for b in blocks:
                edges += [(labels[base + u], labels[base + v]) for u, v in b.edges]
                base += b.n
            return Hypergraph.from_edges(2, max(labels) + 1, edges)

        def cycle(n: int) -> Hypergraph:
            return Hypergraph.from_edges(2, n, [(i, (i + 1) % n) for i in range(n)])

        rng = random.Random(3030)
        hosts = list(graph_corpus())
        for _ in range(60):
            # Shuffled labels put the root of each block, its least-labelled
            # vertex with an edge, on either side.
            blocks = [partite_host((rng.randint(1, 4), rng.randint(1, 5)), rng.uniform(0.3, 1.0), rng)[0]
                      for _ in range(rng.randint(2, 4))]
            labels = rng.sample(range(3 * sum(b.n for b in blocks)), sum(b.n for b in blocks))
            hosts.append(union(blocks, labels))
            odd = cycle(rng.choice((3, 5, 7)))
            labels = rng.sample(range(3 * (blocks[0].n + odd.n)), blocks[0].n + odd.n)
            hosts.append(union([blocks[0], odd], labels))
        hosts += [cycle(n) for n in (3, 5, 7, 9)]
        k33 = complete_bipartite(3, 3)[0]
        hosts += [union([k33, cycle(5)], list(range(11))), union([cycle(5), k33], list(range(11)))]
        far = 2**62
        hosts += [Hypergraph.from_edges(2, far + g.n, [(far + u, far + v) for u, v in g.edges])
                  for g in hosts[-3:] + [k33, disjoint_k33(3)]]
        hosts.append(Hypergraph(2, 0, frozenset()))
        outcomes = [0, 0]
        for g in hosts:
            edges = g._sorted_order
            sides = _two_colouring(edges, _incidence(edges).at)
            assert sides == brute_two_colouring(g)
            outcomes[sides is None] += 1
        assert min(outcomes) >= 100

    def test_kst_cap_does_not_walk_every_degree_level(self, monkeypatch):
        # A 10,000-leaf star plus a disjoint K_{2,2}: raising the star's centre
        # one degree level at a time took 30,012 link-floor calls.
        from krsfree import oracle

        calls = []
        floor = oracle._link_floor
        monkeypatch.setattr(oracle, "_link_floor", lambda *a: calls.append(a) or floor(*a))
        edges = [(0, leaf) for leaf in range(1, 10_001)]
        edges += [(10_001, 10_003), (10_001, 10_004), (10_002, 10_003), (10_002, 10_004)]
        g = Hypergraph.from_edges(2, 10_005, edges)
        assert root_bound(g, PatternSpec.krr(2), None) == 10_004
        assert len(calls) < 300

    def test_link_floor_skips_the_term_it_does_not_weight(self, monkeypatch):
        # On one-vertex parts every level splits its edges with no remainder. Evaluating
        # the remainder's term there anyway doubled the calls per level: 2^k - 1 in all.
        from krsfree import oracle

        calls = []
        floor = oracle._link_floor

        def counted(*a):
            calls.append(a)
            if len(calls) > 200:
                raise AssertionError("_link_floor called more than 200 times")
            return floor(*a)

        monkeypatch.setattr(oracle, "_link_floor", counted)
        g, spec, _ = build_construction(1, 2, 20)
        assert root_bound(g, PatternSpec.multipartite(2, 20), spec) == 1
        assert len(calls) == 20

    def test_unordered_graph_pattern_gets_the_colouring_bound(self):
        # multipartite(r, 2) without a partition enumerates krr(r)'s copies, so
        # a 2-colouring of a bipartite host bounds it the same way.
        g, _ = complete_bipartite(4, 16)
        unordered = max_free_subgraph(g, PatternSpec.multipartite(2, 2), budget=200_000)
        assert unordered == max_free_subgraph(g, PatternSpec.krr(2), budget=200_000)
        assert (unordered.optimum, unordered.proof_of_optimality, unordered.nodes_explored) == (22, True, 0)
        assert unordered.upper_bound == 22
        rng = random.Random(1919)
        below_m = 0
        for _ in range(40):
            g, _ = partite_host((rng.randint(2, 6), rng.randint(2, 8)), rng.uniform(0.3, 1.0), rng)
            r = rng.choice((2, 3))
            bound = root_bound(g, PatternSpec.multipartite(r, 2), None)
            assert bound == root_bound(g, PatternSpec.krr(r), None)
            below_m += bound < g.m
        assert below_m >= 20

    def test_kst_bound_is_the_cheapest_raises_first(self):
        # Referee: raise the d_x whose next degree costs least, one at a time,
        # while the budget (s - 1) prod C(a, r) still pays for it.
        def greedy(caps, sizes, r, s):
            budget = (s - 1) * math.prod(math.comb(a, r) for a in sizes)
            degrees = [0] * len(caps)
            while True:
                cost, x = min(
                    ((_link_floor(d + 1, sizes, r) - _link_floor(d, sizes, r), x)
                     for x, d in enumerate(degrees) if d < caps[x]),
                    default=(None, None),
                )
                if cost is None or cost > budget:
                    return sum(degrees)
                budget -= cost
                degrees[x] += 1

        rng = random.Random(600)
        for _ in range(600):
            k = rng.randint(2, 4)
            sizes = [rng.randint(0, 6) for _ in range(k - 1)]
            caps = [rng.randint(0, 20) for _ in range(rng.randint(0, 7))]
            r = rng.randint(1, 3)
            s = rng.randint(r, r + 2)
            assert _kst_bound(caps, sizes, r, s) == greedy(caps, sizes, r, s)

    def test_kgraph_bound_is_at_least_the_optimum(self):
        rng = random.Random(2014)
        shapes = [(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 4), (2, 3, 3), (2, 2, 2, 2), (2, 2, 2, 3)]
        checked = below_m = met = 0
        for sizes in shapes * 20:
            g, spec = partite_host(sizes, rng.uniform(0.6, 1.0), rng)
            if g.m > 18:
                continue
            pattern = PatternSpec.multipartite(2, g.k)
            brute_opt, _ = brute_max_free(g, copies_as_masks(g, brute_copies_partite(g, spec, 2)))
            result = max_free_subgraph(g, pattern, spec)
            assert result.proof_of_optimality and result.optimum == brute_opt
            assert brute_opt <= result.upper_bound == root_bound(g, pattern, spec) <= g.m
            checked += 1
            below_m += result.upper_bound < g.m
            met += result.upper_bound == brute_opt < g.m
        assert checked >= 100 and below_m >= 40 and met >= 40

    def test_anchored_graph_pattern_matches_the_oriented_one(self):
        # multipartite(r, 2) with a partition is krs_oriented(r, r).
        rng = random.Random(22)
        for sizes in [(3, 3), (3, 5), (4, 4), (2, 6), (5, 3)] * 4:
            g, spec = partite_host(sizes, rng.uniform(0.5, 1.0), rng)
            anchored = max_free_subgraph(g, PatternSpec.multipartite(2, 2), spec)
            oriented = max_free_subgraph(g, PatternSpec.krs_oriented(2, 2), spec)
            assert anchored == oriented
        g, spec = complete_bipartite(4, 16)
        assert root_bound(g, PatternSpec.multipartite(2, 2), spec) == 22 < g.m

    def test_one_index_serves_the_masks_and_the_bound(self, monkeypatch):
        from krsfree import oracle

        triangle_host = Hypergraph.from_edges(2, 5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)])
        g223, spec223, _ = build_construction(2, 2, 3)
        k46, spec46 = complete_bipartite(4, 6)
        cases = [
            (complete_bipartite(3, 3)[0], PatternSpec.krr(2), None),
            (triangle_host, PatternSpec.krr(2), None),
            (g223, PatternSpec.multipartite(2, 3), spec223),
            (k46, PatternSpec.krs_either(2, 3), spec46),
        ]
        expected = [max_free_subgraph(*case) for case in cases]
        built = []
        monkeypatch.setattr(oracle, "_incidence", lambda edges: built.append(edges) or _incidence(edges))

        def refuse(self):
            raise AssertionError("the oracle copies no sorted edges")

        monkeypatch.setattr(Hypergraph, "sorted_edges", refuse)
        for case, want in zip(cases, expected):
            built.clear()
            assert max_free_subgraph(*case) == want
            assert len(built) == 1

    def test_one_orientation_call_per_search(self, monkeypatch):
        # The copy loops and the bound's partitions come from one _orientations
        # call. The bound reported is the one the test helper settles, pinned.
        from krsfree import oracle

        triangle_host = Hypergraph.from_edges(2, 5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)])
        g223, spec223, _ = build_construction(2, 2, 3)
        k33, spec33 = complete_bipartite(3, 3)
        k46, spec46 = complete_bipartite(4, 6)
        cases = [
            (k33, PatternSpec.krr(2), None),
            (k33, PatternSpec.krr(2), spec33),
            (triangle_host, PatternSpec.krr(2), None),
            (k46, PatternSpec.multipartite(2, 2), None),
            (k46, PatternSpec.krs_oriented(2, 3), spec46),
            (k46, PatternSpec.krs_either(2, 3), spec46),
            (g223, PatternSpec.multipartite(2, 3), spec223),
            (g223, PatternSpec.multipartite(2, 3), None),
            (Hypergraph(2, 0, frozenset()), PatternSpec.krr(2), None),
        ]
        calls, bounds = [], []
        orientations = oracle._orientations
        monkeypatch.setattr(oracle, "_orientations", lambda *a: calls.append(a) or orientations(*a))
        for g, pattern, spec in cases:
            calls.clear()
            bounds.append(max_free_subgraph(g, pattern, spec, budget=50).upper_bound)
            assert len(calls) == 1
            assert bounds[-1] == root_bound(g, pattern, spec)
        assert bounds == [6, 6, 7, 12, 15, 15, 86, 128, 0]

    def test_deep_first_dive_does_not_overflow(self):
        # 340 disjoint K_{3,3}: the first dive deletes about three edges per
        # block, deeper than the interpreter's recursion limit.
        g = disjoint_k33(340)
        result = max_free_subgraph(g, PatternSpec.krr(2), budget=5_000)
        assert not result.proof_of_optimality and result.nodes_explored == 5_000
        assert result.upper_bound - result.optimum > 0
        assert len(result.witness.edges) == result.optimum
        assert (result.optimum, result.upper_bound) == (1_828, 3_060)
        assert witness_digest(result) == "55504f619083d16018ed2d3414b9a043ed98196ddb8663c692073a0551be79c0"

    @pytest.mark.parametrize("g,pattern,spec,budget,optimum,upper_bound,digest", [
        pytest.param(
            complete_bipartite(8, 8)[0], PatternSpec.krr(2), None, 30_000, 24, 25,
            "2001a7199a871999348ce094a412d928ddc2bf41fd9d42df9d5791592dda694e", id="K8_8",
        ),
        pytest.param(
            disjoint_k33(100), PatternSpec.krr(2), None, 5_000, 546, 900,
            "0ecc37716064a47c7ef6e8078dda52255934ba7bc8611315458edc977a062bcf", id="100xK3_3",
        ),
        pytest.param(
            build_construction(2, 2, 3)[0], PatternSpec.multipartite(2, 3), None, 3_000, 85, 128,
            "956baf4c7498c7292192a0a645efded820c5e6e1ffd24a4545ed1ee16c5c5b7c", id="c2_2_3-unordered",
        ),
        pytest.param(
            complete_bipartite(6, 6)[0], PatternSpec.krs_either(2, 3), complete_bipartite(6, 6)[1], 3_000, 21, 22,
            "e47efd656e2971d338d5119b78765bd7d042a05e412adba49b8ff8770d7a31d7", id="K6_6-either",
        ),
        pytest.param(
            Hypergraph.from_edges(3, 7, combinations(range(7), 3)), PatternSpec.multipartite(2, 3), None,
            2_000, 26, 35,
            "e46a7c050d9ea9d292e9e51a95646b9cf9a8c979712fb4e6f30a81f3a2dcd43b", id="K7^3-unordered",
        ),
        # Hosts whose copy-free edges interleave with copy edges in the insertion order:
        # a K_{3,3} and a 50-edge path (bound m, one pass), and K_{8,8} with 40
        # leaves on one side (bound below m, all 64 passes).
        pytest.param(
            Hypergraph.from_edges(2, 57, [(i, 3 + j) for i in range(3) for j in range(3)]
                                  + [(6 + i, 7 + i) for i in range(50)]),
            PatternSpec.krr(2), None, 10, 56, 59,
            "60634c667f48f8d769a1c36b099fb8bd8838db1eafbfd626200595dac465e598", id="K3_3+path",
        ),
        pytest.param(
            Hypergraph.from_edges(2, 56, [(i, 8 + j) for i in range(8) for j in range(8)]
                                  + [(i % 8, 16 + i) for i in range(40)]),
            PatternSpec.krr(2), None, 3_000, 64, 65,
            "0b9d5abb1b1261f9daa0530a51b253fe6a9c87f180e50ee39e35c3438b322305", id="K8_8+leaves",
        ),
    ])
    def test_budgeted_search_path_is_frozen(self, g, pattern, spec, budget, optimum, upper_bound, digest):
        # Where the search stands when its budget runs out pins the order it
        # visits nodes in, not only the optimum it would reach.
        result = max_free_subgraph(g, pattern, spec, budget=budget)
        assert (result.optimum, result.nodes_explored, result.proof_of_optimality, result.upper_bound) == (
            optimum, budget, False, upper_bound,
        )
        assert witness_digest(result) == digest

    def test_insertion_passes_walk_only_copy_edges(self):
        # All 64 passes run (bound below m). Walking the 40,000 copy-free
        # leaves in every pass took ~3 s; walking the 64 copy edges ~0.35 s (2-core VM).
        g = Hypergraph.from_edges(2, 40_016, [(i, 8 + j) for i in range(8) for j in range(8)]
                                  + [(i % 8, 16 + i) for i in range(40_000)])
        start = time.perf_counter()
        result = max_free_subgraph(g, PatternSpec.krr(2), budget=1)
        assert time.perf_counter() - start < 2.0
        assert (result.optimum, result.upper_bound) == (40_024, 40_025)

    @pytest.mark.parametrize("n", sorted(ZARANKIEWICZ))
    def test_zarankiewicz_table_closes_at_the_root(self, n):
        g, _ = complete_bipartite(n, n)
        start = time.perf_counter()
        result = max_free_subgraph(g, PatternSpec.krr(2))
        assert time.perf_counter() - start < 2.0
        assert result.optimum == result.upper_bound == ZARANKIEWICZ[n]
        assert result.proof_of_optimality and result.nodes_explored == 0
        assert is_free(result.witness, PatternSpec.krr(2))[0]

    @pytest.mark.parametrize("n,optimum", [(3, 12), (4, 22), (5, 35)])
    def test_tight_hosts_close_at_the_root(self, n, optimum):
        # On K_{n,n^2} the bound is n^2 + C(n, 2), met by the insertion
        # incumbent. The mirror K_{n^2,n} has its big side in the first colour
        # class, so both orientations of the 2-colouring must be tried.
        for g in (build_construction(n, 2, 2)[0], complete_bipartite(n * n, n)[0]):
            start = time.perf_counter()
            result = max_free_subgraph(g, PatternSpec.krr(2))
            assert time.perf_counter() - start < 2.0
            assert result.optimum == result.upper_bound == optimum
            assert result.proof_of_optimality and result.nodes_explored == 0
            assert is_free(result.witness, PatternSpec.krr(2))[0]

    def test_k33_oriented_optima_unchanged(self):
        g, spec = complete_bipartite(3, 3)
        for pattern, optimum in [
            (PatternSpec.krs_oriented(2, 3), 7),
            (PatternSpec.krs_either(2, 3), 7),
            (PatternSpec.krs_oriented(2, 2), 6),
            (PatternSpec.krs_either(2, 2), 6),
        ]:
            result = max_free_subgraph(g, pattern, spec)
            assert result.optimum == optimum
            assert result.proof_of_optimality
            assert result.upper_bound >= optimum
            assert is_free(result.witness, pattern, spec)[0]

    def test_search_stops_when_the_incumbent_meets_the_bound(self):
        # A 20-edge subgraph of K_{4,6} whose insertion passes stop at 11 of
        # the bound 12: the search reaches 12 at node 130 and stops there.
        # Searching on until the tree is pruned would take 697 nodes.
        g = Hypergraph.from_edges(2, 10, [
            (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 4), (1, 5), (1, 7), (1, 8),
            (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 5), (3, 7), (3, 8), (3, 9),
        ])
        result = max_free_subgraph(g, PatternSpec.krr(2))
        assert result.optimum == result.upper_bound == 12
        assert result.proof_of_optimality and result.nodes_explored == 130
        assert max_free_subgraph(g, PatternSpec.krr(2), budget=130).proof_of_optimality

    def test_reruns_are_identical(self):
        g, spec, _ = build_construction(2, 2, 3)
        first = max_free_subgraph(g, PatternSpec.multipartite(2, 3), spec, budget=50)
        again = max_free_subgraph(g, PatternSpec.multipartite(2, 3), spec, budget=50)
        assert first == again


class TestMilpCrossCheck:
    """The optimum against a minimum hitting set of the copies, solved by an integer program."""

    @staticmethod
    def milp_optimum(m: int, masks: list[int]) -> int:
        optimize = pytest.importorskip("scipy.optimize")
        if not masks:
            return m
        rows = np.array([[mask >> i & 1 for i in range(m)] for mask in masks], dtype=float)
        res = optimize.milp(
            c=np.ones(m),
            constraints=optimize.LinearConstraint(rows, lb=1, ub=np.inf),
            integrality=np.ones(m),
            bounds=optimize.Bounds(0, 1),
        )
        assert res.success
        return m - round(res.fun)

    def test_graph_patterns(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(12):
            g = random_graph(rng.randint(6, 9), rng.uniform(0.4, 0.7), rng)
            if 14 <= g.m <= 24:
                result = max_free_subgraph(g, PatternSpec.krr(2))
                assert result.proof_of_optimality
                assert result.optimum == self.milp_optimum(g.m, pattern_masks(g, PatternSpec.krr(2), None))
                checked += 1
        for sizes in [(4, 5), (5, 5), (3, 8), (5, 6)] * 2:
            g, spec = partite_host(sizes, rng.uniform(0.5, 0.9), rng)
            if g.m <= 24:
                for pattern in GRAPH_PATTERNS:
                    result = max_free_subgraph(g, pattern, spec)
                    optimum = self.milp_optimum(g.m, pattern_masks(g, pattern, spec))
                    assert result.proof_of_optimality
                    assert result.optimum == optimum <= result.upper_bound
                    checked += 1
        assert checked >= 20

    def test_kgraph_bound_holds_up_to_24_edges(self):
        rng = random.Random(24)
        checked = below_m = 0
        for sizes in [(2, 3, 4), (3, 3, 3), (4, 3, 2), (2, 2, 2, 3), (3, 2, 2, 2)] * 6:
            g, spec = partite_host(sizes, rng.uniform(0.7, 0.95), rng)
            if g.m > 24:
                continue
            pattern = PatternSpec.multipartite(2, g.k)
            optimum = self.milp_optimum(g.m, copies_as_masks(g, brute_copies_partite(g, spec, 2)))
            result = max_free_subgraph(g, pattern, spec)
            assert result.proof_of_optimality
            assert result.optimum == optimum <= result.upper_bound
            checked += 1
            below_m += result.upper_bound < g.m
        assert checked >= 20 and below_m >= 5

    def test_kgraph_patterns(self):
        rng = random.Random(5)
        for _ in range(6):
            g, spec = partite_host((2, 3, 3), rng.uniform(0.5, 1.0), rng)
            pattern = PatternSpec.multipartite(2, 3)
            masks = copies_as_masks(g, [c.parts for c in iter_pattern_copies(g, pattern, spec)])
            result = max_free_subgraph(g, pattern, spec)
            assert result.proof_of_optimality
            assert result.optimum == self.milp_optimum(g.m, masks)


class TestComparisonReport:
    def test_k22_sandwich(self):
        g, _ = complete_bipartite(2, 2)
        report = f_lower_report(g, PatternSpec.krr(2), num_trials=20)
        assert report.oracle.optimum == 3
        assert report.guarantee == pytest.approx(0.25 * 4 ** (2 / 3), rel=1e-12)
        assert report.oracle.optimum >= report.guarantee
        assert report.best_of_trials <= report.oracle.optimum
        assert report.best_of_trials >= 0

    def test_empty_host(self):
        g = Hypergraph(2, 4, frozenset())
        report = f_lower_report(g, PatternSpec.krr(2), num_trials=5)
        assert report.m == 0
        assert report.guarantee == 0.0
        assert report.best_of_trials == 0
        assert report.oracle.optimum == 0

    def test_construction_respects_upper_bound(self):
        from krsfree import build_construction, theorem_upper_bound

        g, spec, cspec = build_construction(2, 2, 2)
        report = f_lower_report(g, PatternSpec.krr(2), num_trials=20)
        assert report.oracle.proof_of_optimality
        assert report.oracle.optimum <= theorem_upper_bound(cspec.m, 2, s=2) + 1e-9
        assert report.guarantee <= report.oracle.optimum

    def test_multipartite_pattern(self):
        g, spec = complete_multipartite([2, 2, 2])
        report = f_lower_report(g, PatternSpec.multipartite(2, 3), spec, num_trials=10)
        assert report.oracle.optimum == g.m - 1
        assert report.best_of_trials <= report.oracle.optimum

    def test_rejects_side_one(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="need pattern side r >= 2"):
            f_lower_report(g, PatternSpec.krr(1), num_trials=1)
