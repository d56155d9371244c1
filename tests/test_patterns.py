"""Pattern enumeration and the counting bounds, checked against naive brute force."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb, factorial, perm
from pathlib import Path

import numpy as np
import pytest

from krsfree import (
    Hypergraph,
    Matching,
    PartitionSpec,
    PatternCopy,
    PatternSpec,
    bernoulli_edge_sample,
    build_construction,
    complete_bipartite,
    complete_multipartite,
    copy_count_upper_bound,
    copy_count_upper_bound_relaxed,
    count_copies,
    count_matchings,
    enumerate_copies,
    enumerate_matchings,
    extensions_of_matching,
    hypergraph_to_text,
    pattern_exponent,
    reports_to_csv,
    run_trials,
    summary_to_json,
)
from krsfree import patterns
from krsfree.hypergraph import _edge_array
from krsfree.oracle import iter_pattern_copies
from krsfree.patterns import (
    _by_degree,
    _copy_masks,
    _graph_masks,
    _link_masks,
    _partite_masks,
    _relabel,
    _shared_sets,
    _three_matchings,
)

from bruteforce import (
    brute_copies_unordered,
    brute_count_biclique_unordered,
    brute_count_kgraph_unordered,
    brute_count_matchings,
    brute_count_partite_copies,
    brute_graph_masks,
    brute_kgraph_copies_in_order,
    brute_link_masks,
    brute_partite_masks,
    brute_r_core,
    without_isolated,
)
from corpus import (
    graph_corpus,
    kgraph_corpus,
    partite_corpus_small,
    partite_host,
    random_graph,
    random_kgraph,
    shuffled_partite_corpus,
    sparse_graph_corpus,
    sparse_partite_host,
)


def _rank(parts, n: int) -> np.ndarray:
    """Each vertex's part position, for the parts in the order given."""
    rank = np.empty(n, np.int64)
    for i, part in enumerate(parts):
        rank[list(part)] = i
    return rank


def k33_minus_edge() -> Hypergraph:
    g, _ = complete_bipartite(3, 3)
    return Hypergraph(2, g.n, g.edges - {(0, 3)})


class TestExponent:
    def test_values(self):
        assert pattern_exponent(2, 2) == 3
        assert pattern_exponent(2, 3) == 7
        assert pattern_exponent(3, 3) == 13
        assert pattern_exponent(4, 2) == 5

    def test_closed_form(self):
        for r in range(2, 6):
            for k in range(1, 5):
                assert pattern_exponent(r, k) == (r**k - 1) // (r - 1)

    def test_equals_the_sum_of_powers(self):
        for r in range(1, 7):
            for k in range(1, 9):
                assert pattern_exponent(r, k) == sum(r**i for i in range(k))

    def test_graph_case_is_r_plus_one(self):
        for r in range(1, 8):
            assert pattern_exponent(r, 2) == r + 1

    def test_rejects_side_below_one(self):
        with pytest.raises(ValueError, match="r >= 1"):
            pattern_exponent(0, 2)


class TestGraphCopies:
    def test_k22_is_a_single_copy(self):
        g, _ = complete_bipartite(2, 2)
        copies = list(enumerate_copies(g, 2))
        assert len(copies) == 1
        assert copies[0].vertices() == (0, 1, 2, 3)

    def test_k33_has_nine_copies(self):
        g, _ = complete_bipartite(3, 3)
        assert count_copies(g, 2) == 9

    def test_rejects_side_below_one(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="r must be >= 1"):
            count_copies(g, 0)
        with pytest.raises(ValueError, match="r must be >= 1"):
            enumerate_copies(g, 0)

    def test_k24_has_six_copies(self):
        g, _ = complete_bipartite(2, 4)
        assert count_copies(g, 2) == 6

    def test_k33_minus_edge_has_five(self):
        assert count_copies(k33_minus_edge(), 2) == 5

    def test_empty_graph(self):
        g = Hypergraph(2, 6, frozenset())
        assert count_copies(g, 2) == 0

    def test_oversized_pattern_is_empty_not_error(self):
        g, _ = complete_bipartite(2, 2)
        assert count_copies(g, 3) == 0
        assert list(enumerate_copies(g, 3)) == []

    def test_canonical_form_min_first(self):
        g, _ = complete_bipartite(3, 3)
        for copy in enumerate_copies(g, 2):
            a, b = copy.parts
            assert a[0] < b[0]
            assert not set(a) & set(b)

    def test_no_duplicates(self):
        g, _ = complete_bipartite(3, 4)
        copies = list(enumerate_copies(g, 2))
        assert len(copies) == len(set(copies))

    def test_matches_brute_force_counts(self):
        for g in graph_corpus(80, max_n=9, seed=101):
            for r in (2, 3):
                assert count_copies(g, r) == brute_count_biclique_unordered(g, r)

    def test_matches_brute_force_copy_sets(self):
        for g in graph_corpus(25, max_n=8, seed=202):
            got = {c.parts for c in enumerate_copies(g, 2)}
            assert got == brute_copies_unordered(g, 2)


class TestGraphKernel:
    """The unordered graph kernel against the C(n, r) referee scan, in order.

    Copy order, the "lex" policy and the is_free witness all follow the order
    of the kernel's (A, mask) pairs, so the pairs are compared as sequences.
    """

    @staticmethod
    def _kernel_pairs(g: Hypergraph, r: int):
        masks, labels, _size, _linked = _copy_masks(g, r, None, r)
        return [
            (A, tuple(labels[i] for i in range(mask.bit_length()) if mask >> i & 1))
            for (A,), mask in masks
        ]

    def test_matches_referee_on_graph_corpus(self):
        for g in graph_corpus(150, seed=1212):
            for r in (1, 2, 3):
                assert self._kernel_pairs(g, r) == brute_graph_masks(g, r)

    def test_matches_referee_on_sparse_hosts(self):
        for g in sparse_graph_corpus():
            small, labels = without_isolated(g)
            for r in (1, 2, 3):
                expected = [
                    (tuple(labels[v] for v in A), tuple(labels[v] for v in B))
                    for A, B in brute_graph_masks(small, r)
                ]
                assert self._kernel_pairs(g, r) == expected

    def test_sparse_counts_match_brute_force(self):
        # The pairwise brute force is O(C(n, r)^2): run it where that stays small.
        for g in sparse_graph_corpus():
            small, labels = without_isolated(g)
            for r, max_n in ((2, 40), (3, 14)):
                if small.n <= max_n:
                    assert count_copies(g, r) == brute_count_biclique_unordered(small, r)
                    got = {c.parts for c in enumerate_copies(g, r)}
                    assert got == {
                        tuple(tuple(labels[v] for v in part) for part in copy)
                        for copy in brute_copies_unordered(small, r)
                    }

    def test_c4_among_100000_vertices(self):
        n = 100_000
        g = Hypergraph.from_edges(2, n, [(0, n - 2), (0, n - 1), (1, n - 2), (1, n - 1)])
        start = time.perf_counter()
        assert count_copies(g, 2) == 1
        assert [c.parts for c in enumerate_copies(g, 2)] == [((0, 1), (n - 2, n - 1))]
        assert time.perf_counter() - start < 1.0

    def test_dense_scan_carries_its_candidate_masks(self):
        # A candidate's neighbour mask is built once, by the first a0 that needs
        # it. Rebuilding it for each a0 took 0.41-0.49 s here against 0.10-0.19 s
        # on a 2-core VM. The count is sum over pairs of C(codegree, 2), halved.
        g = random_graph(300, 0.3, random.Random(300))
        times = []
        for _ in range(2):
            start = time.perf_counter()
            assert count_copies(g, 2) == 8_155_481
            times.append(time.perf_counter() - start)
        assert min(times) < 0.4


class TestGraphCore:
    """The graph kernel's numpy set-up: the r-core against the one-vertex-at-a-time referee."""

    @staticmethod
    def _hosts():
        """(edges, rank) pairs: unordered graphs with rank None, bipartite ones ranked by part."""
        hosts = [(g.edges, None) for g in graph_corpus(150, seed=1818) + sparse_graph_corpus()]
        hosts += [(frozenset(), None), (frozenset({(3, 7)}), None)]
        for g, spec in partite_corpus_small(60, seed=1919) + shuffled_partite_corpus(60, seed=2020):
            # The first two parts of every row, a bipartite graph under the same rank.
            rank = spec._labels
            hosts.append((frozenset(tuple(sorted(v for v in e if rank[v] < 2)) for e in g.edges), rank))
        return hosts

    def test_core_matches_referee(self):
        for edges, rank in self._hosts():
            a = _edge_array(edges, 2)
            for r in (1, 2, 3, 4):
                order = (lambda v: v) if rank is None else (lambda v: (rank[v], v))
                expected = sorted(brute_r_core(edges, r), key=order)
                assert _graph_masks(a, r, r, rank)[1] == expected

    def test_huge_labels_count_fast(self):
        # Vertices near 2^62: no array may be sized by the largest label.
        n = 2**62 + 2
        big = [n - 6 + i for i in range(6)]
        g = Hypergraph.from_edges(2, n, [(u, w) for u in big[:3] for w in big[3:]] + [(0, big[0])])
        h = Hypergraph.from_edges(3, n, [(u, v, w) for u in big[:2] for v in big[2:4] for w in big[4:]])
        start = time.perf_counter()
        assert count_copies(g, 2) == 9
        assert [c.parts for c in enumerate_copies(g, 3)] == [(tuple(big[:3]), tuple(big[3:]))]
        assert count_copies(h, 2) == 1
        assert [c.parts for c in enumerate_copies(h, 2)] == [(tuple(big[:2]), tuple(big[2:4]), tuple(big[4:]))]
        assert time.perf_counter() - start < 0.1

    @staticmethod
    def _path(m: int) -> list[tuple[int, int]]:
        return [(i, i + 1) for i in range(m)]

    @staticmethod
    def _caterpillar(m: int) -> list[tuple[int, int]]:
        # A spine with a hair of three edges at every vertex: at r = 2 three
        # numpy rounds each strip a quarter or more, then the queue eats the spine.
        spine = m // 4
        edges = [(i, i + 1) for i in range(spine - 1)]
        for i in range(spine):
            hair = [i] + [spine + 3 * i + j for j in range(3)]
            edges += list(zip(hair, hair[1:]))
        return edges

    @staticmethod
    def _binary_tree(m: int) -> list[tuple[int, int]]:
        # Every numpy round strips the leaves, half of what is left.
        return [((v - 1) // 2, v) for v in range(1, m + 1)]

    @pytest.mark.parametrize(
        "shape,r", [("_path", 2), ("_path", 3), ("_caterpillar", 2), ("_binary_tree", 2)]
    )
    def test_peel_is_linear(self, shape, r):
        # A quadratic peel would take 16 times as long at four times the edges.
        def best_time(m: int) -> float:
            a = _edge_array(frozenset(getattr(self, shape)(m)), 2)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                assert _graph_masks(a, r, r)[1] == []
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_time(100_000) < 8 * best_time(25_000)


class TestPartiteCopies:
    def test_complete_tripartite_single_copy(self):
        g, spec = complete_multipartite([2, 2, 2])
        copies = list(enumerate_copies(g, 2, spec))
        assert len(copies) == 1
        assert copies[0].parts == ((0, 1), (2, 3), (4, 5))

    def test_complete_host_count_is_binomial_product(self):
        g, spec = complete_multipartite([3, 4, 3])
        assert count_copies(g, 2, spec) == comb(3, 2) * comb(4, 2) * comb(3, 2)

    def test_anchored_k33_count(self):
        g, spec = complete_bipartite(3, 3)
        # with the partition fixed there is no orientation freedom
        assert count_copies(g, 2, spec) == 9

    def test_matches_brute_force(self):
        for g, spec in partite_corpus_small(60, seed=303):
            assert count_copies(g, 2, spec) == brute_count_partite_copies(g, spec, 2)

    def test_parts_stay_inside_declared_parts(self):
        for g, spec in partite_corpus_small(15, seed=404):
            for copy in enumerate_copies(g, 2, spec):
                for part, upart in zip(copy.parts, spec.parts):
                    assert set(part) <= set(upart)


class TestPartiteKernel:
    """Anchored copies against the product-scan referee, in order.

    Anchored copy order, the "lex" batches and the oriented oracle patterns all
    follow the order of the kernel's (S, mask) pairs, so the pairs are compared
    as sequences. Only the shuffled hosts interleave the parts in vertex order.
    """

    HOSTS = partite_corpus_small(60, seed=1515) + shuffled_partite_corpus(60)

    @staticmethod
    def _pairs(masks, labels):
        return [(S, tuple(labels[i] for i in range(mask.bit_length()) if mask >> i & 1)) for S, mask in masks]

    @staticmethod
    def _five_partite_hosts() -> list[tuple[Hypergraph, PartitionSpec]]:
        # The completion step runs three levels deep. The complete host's labels
        # are shuffled, so its parts interleave in vertex order; the random
        # hosts run from sparse to a few edges short of complete.
        g, spec = complete_multipartite([2] * 5)
        rng = random.Random(1616)
        label = list(range(g.n))
        rng.shuffle(label)
        hosts = [(
            Hypergraph.from_edges(5, g.n, [[label[v] for v in e] for e in g.edges]),
            PartitionSpec.from_parts([label[v] for v in part] for part in spec.parts),
        )]
        for density in (0.4, 0.7, 0.95, 0.97, 0.98):
            hosts += [partite_host(sizes, density, rng) for sizes in ((2, 3, 2, 2, 3), (3, 2, 3, 2, 2))]
        return hosts

    def test_matches_referee(self):
        ks = set()
        for g, spec in self.HOSTS + self._five_partite_hosts():
            ks.add(g.k)
            for r in (1, 2, 3):
                assert self._pairs(*_copy_masks(g, r, spec, r)[:2]) == brute_partite_masks(g, spec.parts, r, r)
        assert ks == {2, 3, 4, 5}

    def test_completion_step_reads_each_completer_once_per_pair_and_member(self, monkeypatch):
        # ANDing all r^(k-1) transversals of every prefix copy read 1,872 and
        # 432 completer masks. The unordered link kernel already read each once
        # per (pair, member).
        reads = []

        class Counting(patterns._Index):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        monkeypatch.setattr(patterns, "_Index", Counting)
        cases = [(*complete_multipartite([4] * 4), 1296, 624, 4320), (*build_construction(3, 2, 3)[:2], 349_920, 54, 11_664)]
        for g, spec, copies, anchored, unordered in cases:
            for parts, expected in ((spec, anchored), (None, unordered)):
                reads.clear()
                assert count_copies(g, 2, parts) == copies
                assert len(reads) == expected

    def test_thresholds_and_orientations_match_referee(self):
        # The oriented oracle patterns ask for s > r and may reverse the parts.
        for g, spec in self.HOSTS:
            for parts in (spec.parts, spec.parts[::-1]):
                for r in (1, 2, 3):
                    for s in (r, r + 1, r + 2):
                        got = self._pairs(*_partite_masks(_edge_array(g.edges, g.k), _rank(parts, g.n), r, s))
                        assert got == brute_partite_masks(g, parts, r, s)

    def test_oriented_patterns_match_referee(self):
        def expected(g, parts, r, s):
            return [S + (B,) for S, C in brute_partite_masks(g, parts, r, s) for B in combinations(C, s)]

        for g, spec in self.HOSTS:
            if g.k != 2:
                continue
            for r in (2, 3):
                for s in (r, r + 1, r + 2):
                    forward = expected(g, spec.parts, r, s)
                    backward = expected(g, spec.parts[::-1], r, s)
                    oriented = iter_pattern_copies(g, PatternSpec.krs_oriented(r, s), spec)
                    either = iter_pattern_copies(g, PatternSpec.krs_either(r, s), spec)
                    assert [c.parts for c in oriented] == forward
                    assert [c.parts for c in either] == forward + backward

    @pytest.mark.parametrize("sizes,m", [((2000, 2000), 3999), ((90, 90, 90), 450)])
    def test_sparse_hosts_count_fast(self, sizes, m):
        # Scanning every r-set tuple of the first parts took 2.7 s and 8.3 s on a 2-core VM.
        g, spec = sparse_partite_host(sizes, m, seed=12)
        start = time.perf_counter()
        anchored = count_copies(g, 2, spec)
        assert time.perf_counter() - start < 0.1
        # In a partite host every copy's parts lie in distinct host parts.
        assert anchored == count_copies(g, 2)

    def test_dense_tight_host(self):
        g, spec, _ = build_construction(30, 2, 2)
        start = time.perf_counter()
        assert count_copies(g, 2, spec) == comb(30, 2) * comb(900, 2)
        assert time.perf_counter() - start < 0.5

    def test_one_uniform_copies_are_r_sets_of_edges(self):
        g = Hypergraph.from_edges(1, 6, [(0,), (2,), (3,), (5,)])
        for spec in (None, PartitionSpec((tuple(range(6)),))):
            for r in range(1, 6):
                expected = [(A,) for A in combinations((0, 2, 3, 5), r)]
                assert [c.parts for c in enumerate_copies(g, r, spec)] == expected
                assert count_copies(g, r, spec) == len(expected)

    def test_oversized_pattern_still_checks_the_partition(self):
        g = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5)])
        bad = PartitionSpec(((0, 1, 4), (2, 3, 5)))
        for r in (2, 4):
            with pytest.raises(ValueError, match="not partite"):
                count_copies(g, r, bad)
            with pytest.raises(ValueError, match="not partite"):
                list(enumerate_copies(g, r, bad))

    def test_sparse_host_memory_follows_its_edges(self):
        # Each prefix held an eager mask of its last-part completers, as wide
        # as the largest, so this host peaked at ~29 MB.
        size, m = 10_000, 30_000
        rng = random.Random(2424)
        edges = set()
        while len(edges) < m:
            edges.add(tuple(i * size + rng.randrange(size) for i in range(3)))
        g = Hypergraph.from_edges(3, 3 * size, edges)
        spec = PartitionSpec.from_parts(range(i * size, (i + 1) * size) for i in range(3))
        tracemalloc.start()
        try:
            assert count_copies(g, 2, spec) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestKGraphCopies:
    def test_matches_brute_force(self):
        for g in kgraph_corpus(40, seed=505):
            assert count_copies(g, 2) == brute_count_kgraph_unordered(g, 2)

    def test_complete_host_unordered_vs_anchored(self):
        g, spec = complete_multipartite([2, 2, 2])
        # parts of distinct sizes can only embed one way; equal sizes still give
        # one unordered copy here because the host itself is the only copy
        assert count_copies(g, 2) == 1
        assert count_copies(g, 2, spec) == 1


class TestKGraphKernel:
    """Unordered k >= 3 copies against the matching-extension referee, in order.

    The "lex" policy and the is_free witness follow copy order, so the lists are
    compared as sequences; the family scan checks the count independently.
    """

    @staticmethod
    def _shuffled_complete(sizes, seed: int, drop: int = 0) -> Hypergraph:
        # Random labels interleave the parts in vertex order, so copies are met
        # through every assignment of the later matching edges, not only the first.
        g, _ = complete_multipartite(list(sizes))
        rng = random.Random(seed)
        label = list(range(g.n))
        rng.shuffle(label)
        edges = [tuple(sorted(label[v] for v in e)) for e in g.sorted_edges()]
        rng.shuffle(edges)
        return Hypergraph.from_edges(g.k, g.n, edges[drop:])

    @staticmethod
    def _check(g: Hypergraph, r: int, family_scan: bool = True) -> None:
        expected = brute_kgraph_copies_in_order(g, r)
        assert [c.parts for c in enumerate_copies(g, r)] == expected
        assert count_copies(g, r) == len(expected)
        if family_scan:
            assert len(expected) == brute_count_kgraph_unordered(g, r)

    def test_matches_referee_on_3_uniform_corpus(self):
        for g in kgraph_corpus(60, seed=1313):
            for r in (1, 2, 3):
                self._check(g, r)

    def test_matches_referee_on_4_uniform_corpus(self):
        for g in kgraph_corpus(20, seed=1414, k=4, max_n=10):
            for r in (1, 2, 3):
                self._check(g, r)

    def test_matches_referee_on_5_uniform_corpus(self):
        # Links of links: the linked branch of _link_masks runs two levels deep.
        for g in kgraph_corpus(15, seed=1515, k=5, max_n=10):
            for r in (1, 2, 3):
                self._check(g, r)

    def test_matches_referee_on_shuffled_complete_hosts(self):
        for sizes in ((3, 3, 3), (2, 3, 4), (2, 2, 3, 3), (2, 2, 2, 2, 2)):
            for seed in range(2):
                for drop in (0, 1):
                    g = self._shuffled_complete(sizes, seed, drop)
                    for r in (1, 2, 3):
                        self._check(g, r)
        # The one side-3 copy in a 4-graph; the family scan adds seconds here.
        self._check(self._shuffled_complete((3, 3, 3, 3), 0), 3, family_scan=False)

    def test_matches_referee_on_construction_samples(self):
        # The family scan is too slow on 22 vertices, and at r = 3 on 14: run it
        # on the hosts cut to their first 14 vertices (parts of sizes 2, 4 and
        # 8), at r <= 2. With a part of size 2 there is no copy at r = 3.
        g, _, _ = build_construction(2, 2, 3)
        hosts = [g] + [
            bernoulli_edge_sample(g, p, seed).as_hypergraph() for p in (0.5, 0.7, 0.9) for seed in range(2)
        ]
        for host in hosts:
            small = Hypergraph.from_edges(3, 14, (e for e in host.edges if e[-1] < 14))
            for r in (1, 2, 3):
                self._check(host, r, family_scan=False)
                self._check(small, r, family_scan=r <= 2)

    def test_sparse_samples_of_the_3_2_3_host(self):
        # Extending every 2-matching of these ~560-edge samples took 5.7-7.2 s;
        # the link search follows the copies found.
        g, _, _ = build_construction(3, 2, 3)
        for seed, copies in ((0, 1), (1, 8), (2, 7)):
            sub = bernoulli_edge_sample(g, 0.25, seed).as_hypergraph()
            start = time.perf_counter()
            assert count_copies(sub, 2) == copies
            assert time.perf_counter() - start < 1.0
            start = time.perf_counter()
            assert len(list(enumerate_copies(sub, 2))) == copies
            assert time.perf_counter() - start < 1.0
        assert count_copies(build_construction(2, 2, 3)[0], 2) == 720

    def test_link_scan_ands_each_member_once_per_pair(self):
        # Each member's completer AND is taken once per link pair; ANDing the
        # r^2 transversals of every copy took 1.3-1.9 s on a 2-core VM.
        g = build_construction(3, 2, 3)[0]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert count_copies(g, 2) == 349_920
            times.append(time.perf_counter() - start)
        assert min(times) < 0.8

    def test_batched_link_cores_match_per_link_referee(self):
        # _link_masks searches each link through the host's own unordered
        # dispatch; the referee searches each link by brute force.
        # At r = 1 a link copy with no completion above v is still a pair.
        hosts = kgraph_corpus(60, seed=2121) + kgraph_corpus(20, seed=2222, k=4, max_n=10)
        hosts += kgraph_corpus(15, seed=2323, k=5, max_n=10) + [self._shuffled_complete((2, 2, 2, 2, 2), 0)]
        for g in hosts:
            for r in (1, 2, 3):
                masks, labels = _link_masks(_edge_array(g.edges, g.k), r)
                got = [(S, tuple(labels[i] for i in range(mask.bit_length()) if mask >> i & 1)) for S, mask in masks]
                assert got == brute_link_masks(g, r)

    def test_sparse_host_memory_follows_its_edges(self):
        # Each (k-1)-set of an edge held an eager mask of its completers, as
        # wide as the largest, so a sparse host peaked at ~84 MB here.
        n = 20_000
        rng = random.Random(2323)
        edges = set()
        while len(edges) < n:
            edges.add(tuple(sorted(rng.sample(range(n), 3))))
        g = Hypergraph.from_edges(3, n, edges)
        tracemalloc.start()
        try:
            assert count_copies(g, 2) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_all_edges_through_one_vertex(self):
        # Vertex 0's link is complete, with 1,365,378 4-cycles, but no other
        # vertex completes any of its edges, so no copy exists.
        n = 60
        g = Hypergraph.from_edges(3, n, [(0, a, b) for a in range(1, n) for b in range(a + 1, n)])
        start = time.perf_counter()
        assert count_copies(g, 2) == 0
        assert list(enumerate_copies(g, 2)) == []
        assert time.perf_counter() - start < 1.0

class TestFrozenCopyOrder:
    """Copy order, frozen as digests of the ordered copy lists.

    The "lex" deletion policy and the is_free witness both depend on the order
    in which copies are enumerated, so every kernel must keep it. The constants
    were recorded before the copy kernels were merged.
    """

    COPY_DIGESTS = {
        "c30_2_2": (973, "04c97666598bf69e56590dc137111c6199062d6a65d95188bd6da76f8d6433fa"),
        "c6_2_2_parts": (3242, "e931969b3c85684d9c3a53d9dc3b347eed3872a5ce5bb941fea42195d13b1db5"),
        "c4_2_3_parts": (3302, "5d12bd099f0fb357f9ef83954a53a86a9bc3727904dd8ce0b3f8ebf3d3a703b3"),
        "k6_8_krs": (464, "fe6f0e53f00fe182391eeee7aab9d920a49b2d93232d222199b36c16e203360e"),
        "c2_2_3_unordered": (720, "2823d4a127fae9121cd9070688ac95105ad4944e71f40c3febdcc99c41f5edd3"),
    }

    @staticmethod
    def _digest(copy_lists) -> tuple[int, str]:
        h = hashlib.sha256()
        total = 0
        for copies in copy_lists:
            total += len(copies)
            h.update(repr([c.parts for c in copies]).encode())
        return total, h.hexdigest()

    def _samples(self, n: int, k: int, ps):
        g, spec, _ = build_construction(n, 2, k)
        for p in ps:
            for seed in range(2):
                yield bernoulli_edge_sample(g, p, seed).as_hypergraph(), spec

    def test_unanchored_graph_order(self):
        lists = [list(enumerate_copies(sub, 2)) for sub, _ in self._samples(30, 2, (0.02, 0.04))]
        assert self._digest(lists) == self.COPY_DIGESTS["c30_2_2"]

    def test_anchored_graph_order(self):
        lists = [
            list(enumerate_copies(sub, r, spec))
            for sub, spec in self._samples(6, 2, (0.3, 0.6))
            for r in (2, 3)
        ]
        assert self._digest(lists) == self.COPY_DIGESTS["c6_2_2_parts"]

    def test_anchored_kgraph_order(self):
        lists = [list(enumerate_copies(sub, 2, spec)) for sub, spec in self._samples(4, 3, (0.2, 0.3))]
        assert self._digest(lists) == self.COPY_DIGESTS["c4_2_3_parts"]

    def test_unordered_kgraph_order(self):
        # Recorded before the link scan ANDed each member once per pair.
        lists = [list(enumerate_copies(build_construction(2, 2, 3)[0], 2))]
        assert self._digest(lists) == self.COPY_DIGESTS["c2_2_3_unordered"]

    def test_oriented_biclique_order(self):
        lists = []
        for seed in range(3):
            g, spec = partite_host((6, 8), 0.7, random.Random(seed))
            for pattern in (PatternSpec.krs_oriented(2, 3), PatternSpec.krs_either(2, 3)):
                lists.append(list(iter_pattern_copies(g, pattern, spec)))
        assert self._digest(lists) == self.COPY_DIGESTS["k6_8_krs"]


class TestFrozenMatchingOrder:
    """Matching order, unordered k-graph copy order and one "lex" batch, frozen as digests.

    Unordered k >= 3 copies are found through links, but listed in the order in
    which extending the matchings in order first meets them: by their least
    perfect transversal matching, then by the part assignment of its later
    edges. The "lex" deletion policy deletes by copy order, so all three depend
    on matching order. The constants were recorded before the matching
    recursions were replaced by one mask loop, and before the link kernel.
    """

    DIGESTS = {
        "matchings_gnp": (2892, "bcb023d43b4f941e82a941ad45968a8b190e343c51d538f0cf76c14f4278a865"),
        "matchings_c2_2_3": (6132, "c0c1b3cc8fc8696d2136f1057b874a144d06697cd43740087922aaff27014086"),
        "copies_c2_2_3": (649, "bd711d7c9ceee55f9f28568ce2b717d11bff4fcd0e773b59c1acf726eb84f7db"),
        "copies_c3_2_3": (146, "7bce4ea16aa9aca05694754c140bf3212eb837520e65900f7e22886fa4be9d5f"),
        "lex_c2_2_3": "1c80bbd3162a5d0b77bf2735c7352da806a86cd1e62bf908cb19cb27fbccfc31",
    }

    @staticmethod
    def _digest(lists) -> tuple[int, str]:
        h = hashlib.sha256()
        total = 0
        for items in lists:
            total += len(items)
            h.update(repr(items).encode())
        return total, h.hexdigest()

    @staticmethod
    def _samples(n: int, ps):
        g, _, _ = build_construction(n, 2, 3)
        for p in ps:
            for seed in range(2):
                yield bernoulli_edge_sample(g, p, seed).as_hypergraph()

    @staticmethod
    def _matching_lists(hosts):
        return [
            [sorted(m.edges) for m in enumerate_matchings(g, r)] for g in hosts for r in (1, 2, 3)
        ]

    def test_graph_matching_order(self):
        hosts = [
            random_graph(n, d, random.Random(seed)) for seed in range(3) for n, d in ((9, 0.5), (12, 0.4))
        ]
        assert self._digest(self._matching_lists(hosts)) == self.DIGESTS["matchings_gnp"]

    def test_kgraph_matching_order(self):
        hosts = list(self._samples(2, (0.5, 0.9)))
        assert self._digest(self._matching_lists(hosts)) == self.DIGESTS["matchings_c2_2_3"]

    def test_unordered_kgraph_copy_order(self):
        lists = [[c.parts for c in enumerate_copies(sub, 2)] for sub in self._samples(2, (0.7, 0.9))]
        assert self._digest(lists) == self.DIGESTS["copies_c2_2_3"]
        # The full (3,2,3) host is too large for a dense sample, so keep the
        # sampled edges inside its first 20 vertices (parts of sizes 3, 9, 8).
        lists = []
        for sub in self._samples(3, (0.5, 0.6)):
            small = Hypergraph.from_edges(3, 20, (e for e in sub.edges if e[-1] < 20))
            lists.append([c.parts for c in enumerate_copies(small, 2)])
        assert self._digest(lists) == self.DIGESTS["copies_c3_2_3"]

    def test_unanchored_lex_batch(self):
        g, _, _ = build_construction(2, 2, 3)
        summary = run_trials(g, 2, 6, 3, None, "lex", p=0.7)
        text = reports_to_csv(summary.reports) + summary_to_json(summary)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS["lex_c2_2_3"]


class TestMatchings:
    def test_k22_perfect_matchings(self):
        g, _ = complete_bipartite(2, 2)
        assert count_matchings(g, 2) == 2

    def test_k33_permanent(self):
        g, _ = complete_bipartite(3, 3)
        assert count_matchings(g, 3) == 6

    def test_r_one_is_edge_count(self):
        for g in graph_corpus(20, seed=606):
            assert count_matchings(g, 1) == g.m

    def test_more_edges_than_the_host_has(self):
        # The r = 2 closed form indexes all 2^k - 2 column subsets, whatever m is.
        for g in [*graph_corpus(20, max_n=5, seed=626), *kgraph_corpus(10, seed=636, max_n=5)]:
            for r in (g.m + 1, g.m + 2):
                assert count_matchings(g, r) == 0 == len(list(enumerate_matchings(g, r)))
        g = build_construction(1, 2, 20)[0]
        start = time.perf_counter()
        assert count_matchings(g, 2) == 0
        assert time.perf_counter() - start < 0.3

    def test_rejects_size_below_one_at_the_call(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="matching size r must be >= 1"):
            count_matchings(g, 0)
        # Not on the first next(): the bare call raises.
        with pytest.raises(ValueError, match="matching size r must be >= 1"):
            enumerate_matchings(g, 0)

    def test_matches_brute_force(self):
        for g in graph_corpus(50, max_n=8, seed=707):
            for r in (2, 3):
                assert count_matchings(g, r) == brute_count_matchings(g, r)
        for g in kgraph_corpus(20, seed=808):
            for r in (2, 3):
                assert count_matchings(g, r) == brute_count_matchings(g, r)
        # Pairs of 4-edges can share 1, 2 or 3 vertices, so every sign of the
        # inclusion-exclusion sum is exercised. 3-matchings need at least 3k
        # vertices; about 50 edges there keep the referee's C(m, 3) scan small.
        rng = random.Random(828)
        for k in (3, 4):
            sparse = [random_kgraph(n, k, 50 / comb(n, k), rng) for n in range(3 * k, 3 * k + 4) for _ in range(4)]
            assert sum(count_matchings(g, 3) > 0 for g in sparse) >= 8
            for g in kgraph_corpus(20, seed=818, k=k) + sparse:
                for r in (2, 3):
                    assert count_matchings(g, r) == brute_count_matchings(g, r)
        for n in (1, 4, 9):
            g = random_kgraph(n, 1, 0.7, rng)
            for r in (1, 2, 3, 4):
                assert count_matchings(g, r) == brute_count_matchings(g, r) == comb(g.m, r)

    def test_complete_bipartite_closed_form(self):
        for a in range(1, 6):
            for b in range(a, 7):
                g, _ = complete_bipartite(a, b)
                for r in range(1, a + 1):
                    assert count_matchings(g, r) == comb(a, r) * perm(b, r)
        assert count_matchings(complete_bipartite(4, 64)[0], 3) == 999_936

    def test_dense_host_counts_without_walking_every_prefix(self):
        # Extending each of its 597,000 2-matchings one at a time took ~1 s on a 2-core VM.
        g, _ = complete_bipartite(6, 200)
        start = time.perf_counter()
        assert count_matchings(g, 3) == 157_608_000
        assert time.perf_counter() - start < 0.5

    def test_kgraph_triples_walk_one_level_short(self):
        # The r = 3 count walks the 1-matchings and counts the disjoint pairs of
        # each mask by inclusion-exclusion. Extending every 2-matching instead
        # took 0.63-1.05 s here against 0.16-0.29 s on a 2-core VM.
        g = random_kgraph(60, 3, 1000 / comb(60, 3), random.Random(6060))
        assert g.m == 978
        times = []
        for _ in range(2):
            start = time.perf_counter()
            assert count_matchings(g, 3) == 96_372_803
            times.append(time.perf_counter() - start)
        assert min(times) < 0.6

    def test_memory_follows_edges_not_declared_vertices(self):
        g = Hypergraph.from_edges(2, 10**7, [(0, 1), (2, 3), (5, 10**7 - 1)])
        g.sorted_edges()
        tracemalloc.start()
        try:
            assert count_matchings(g, 2) == 3
            assert len(list(enumerate_matchings(g, 2))) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_library_reads_the_cached_sorted_edges(self, monkeypatch):
        # The matching walks and the text writer read the host's cached order,
        # not a fresh list copy of it. The r = 3 count walks on the 3-graph and
        # is closed-form on K_{3,3}; every value is pinned.
        def refuse(self):
            raise AssertionError("the library copies no sorted edges")

        monkeypatch.setattr(Hypergraph, "sorted_edges", refuse)
        hosts = [
            (random_kgraph(12, 3, 0.25, random.Random(3131)), 1351,
             "e2d238680400f47f280ccef5c1fe4e34070241ebc9f369e133b9f1303ba26174",
             "8f00162fbb4af18e64406867318cbbc38e8f845491354e907a71fd46ec75b66d"),
            (complete_bipartite(3, 3)[0], 6,
             "3344e4cc1f2fcc2b10c02ec337c744c1145dd85e769e58e289d746999cbf6f85",
             "bca44b61f40516f0040a49542ac186b5afb84576ba036569acaf0f081a42417f"),
        ]
        for g, count, matchings, text in hosts:
            listed = [sorted(m.edges) for m in enumerate_matchings(g, 3)]
            assert count_matchings(g, 3) == len(listed) == count
            assert hashlib.sha256(repr(listed).encode()).hexdigest() == matchings
            assert hashlib.sha256(hypergraph_to_text(g).encode()).hexdigest() == text

    def test_pairs_on_a_long_path_follow_the_edges(self):
        # The m-wide masks took 0.56 s and 208 MB on a path of 5 * 10^4 edges.
        m = 100_000
        g = Hypergraph.from_edges(2, m + 1, [(i, i + 1) for i in range(m)])
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert count_matchings(g, 2) == comb(m, 2) - (m - 1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 200 * m

    def test_each_vertex_mask_is_built_once(self):
        # A leaf's mask is as wide as its edge's position, ~25 MB over the
        # star's 20,000 leaves. The walk and the closed-form terms share one
        # index (~34 MB peak); two eager copies of it peaked at ~56 MB.
        n = 20_000
        edges = [(0, i) for i in range(1, n + 1)] + [(n + 1, n + 2), (n + 3, n + 4), (n + 5, n + 6)]
        g = Hypergraph.from_edges(2, n + 7, edges)
        g.sorted_edges()
        tracemalloc.start()
        try:
            assert count_matchings(g, 3) == 3 * n + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20

    def test_walk_builds_each_vertex_mask_once(self):
        # The walk still serves 3-graphs at r = 3. The star's 20,000 leaves each
        # get a mask as wide as their edge's position. One shared index peaks at
        # ~17 MB; an eager copy each for the walk and the terms, at ~33 MB.
        n = 10_000
        edges = [(0, 2 * i - 1, 2 * i) for i in range(1, n + 1)]
        edges += [(2 * n + 1, 2 * n + 2, 2 * n + 3), (2 * n + 4, 2 * n + 5, 2 * n + 6)]
        g = Hypergraph.from_edges(3, 2 * n + 7, edges)
        g.sorted_edges()
        tracemalloc.start()
        try:
            assert count_matchings(g, 3) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20

    def test_graph_triples_match_the_referees(self):
        # Graphs at r = 3 count from degrees and triangles: triangle-rich random
        # graphs, unions of cliques and stars (the pairwise meeting triples of
        # both kinds), labels near 2^62 and hosts with fewer than three edges.
        rng = random.Random(2727)
        hosts = [random_graph(12, 0.6, rng) for _ in range(6)]

        def union(blocks):
            edges, base = [], 0
            for kind, size in blocks:
                pairs = combinations(range(size), 2) if kind == "clique" else ((0, i) for i in range(1, size))
                edges += [(base + u, base + v) for u, v in pairs]
                base += size
            return Hypergraph.from_edges(2, base, edges)

        hosts += [union(b) for b in ([("clique", 4), ("star", 5)], [("clique", 3)] * 3,
                                     [("star", 4), ("star", 3), ("clique", 5)], [("clique", 6), ("clique", 4)])]
        far = 2**62
        hosts += [Hypergraph.from_edges(2, far + 12, [(far + u, far + v) for u, v in g.sorted_edges()])
                  for g in hosts[:2] + hosts[-2:]]
        hosts += [Hypergraph.from_edges(2, 5, edges) for edges in ([], [(0, 1)], [(0, 1), (2, 3)], [(0, 1), (1, 2)])]
        assert sum(count_matchings(g, 3) > 0 for g in hosts) >= 12
        for g in hosts:
            assert count_matchings(g, 3) == brute_count_matchings(g, 3) == len(list(enumerate_matchings(g, 3)))

    def test_graph_triples_build_no_masks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("graphs at r = 3 build no masks")

        monkeypatch.setattr(patterns, "_incidence", refuse)
        monkeypatch.setattr(patterns, "_matching_masks", refuse)
        assert count_matchings(complete_bipartite(4, 64)[0], 3) == 999_936
        assert count_matchings(random_graph(12, 0.6, random.Random(2828)), 3) > 0
        with pytest.raises(AssertionError, match="build no masks"):
            count_matchings(complete_bipartite(4, 64)[0], 4)

    def test_graph_triples_on_a_long_path_follow_the_edges(self):
        # The mask walk took ~1.1 s on a 2,000-edge path (2-core VM).
        m = 20_000
        g = Hypergraph.from_edges(2, m + 1, [(i, i + 1) for i in range(m)])
        start = time.perf_counter()
        assert count_matchings(g, 3) == comb(m - 2, 3)
        assert time.perf_counter() - start < 1.0

    def test_graph_triple_sums_are_exact(self):
        # A star with 3 * 10^6 leaves and two more edges: the paths of two in its
        # line graph number ~1.35 * 10^19, past int64, so the degree sums are
        # Python ints. The leaves' degree 1 adds nothing to them, and no edge has
        # two ends of degree 2 or more, nor is there a triangle, so the count is
        # the degree terms alone: one star edge beside the other two.
        d = 3 * 10**6
        assert d * comb(d - 1, 2) > 2**63
        assert _by_degree(d + 2, np.array([d, 1, 1, 1, 1])) == d

    def test_disjoint_edges_stop_at_the_first_unshared_size(self):
        # No vertex lies in two edges, so no vertex set does. Scanning every size
        # up to k - 1 took 0.34 s for two 18-edges at r = 2, x4 per +2 in k (2-core VM).
        for blocks, k, r, expected in ((2, 40, 2, 1), (3, 30, 3, 1), (5, 40, 4, 5)):
            g = Hypergraph.from_edges(k, blocks * k, [range(i * k, (i + 1) * k) for i in range(blocks)])
            start = time.perf_counter()
            assert count_matchings(g, r) == expected
            assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("k", [18, 40])
    def test_overlapping_edges_cost_their_shared_vertices(self, k):
        # Two k-edges share 10 vertices and a third is disjoint from both. Every
        # t-set of the edges up to t = 11 took 0.29-0.46 s at k = 18 on a 2-core
        # VM; at k = 40 that is C(40, 11) ~ 2.3 * 10^9 sets per edge.
        edges = [range(k), range(k - 10, 2 * k - 10), range(2 * k - 10, 3 * k - 10)]
        g = Hypergraph.from_edges(k, 3 * k - 10, edges)
        start = time.perf_counter()
        assert count_matchings(g, 2) == 2
        assert count_matchings(g, 3) == 0
        assert time.perf_counter() - start < 0.1

    def test_heavily_overlapping_edges_match_brute_force(self):
        # Few vertices beyond k, so edges share most of theirs. The rows are
        # narrowed past t = 1 when every edge holds a vertex of its own and
        # some edge shares two or more.
        rng = random.Random(4242)
        hosts = []
        for _ in range(300):
            k = rng.randint(2, 6)
            n = rng.randint(k + 1, 2 * k + 2)
            hosts.append(Hypergraph.from_edges(k, n, {tuple(rng.sample(range(n), k)) for _ in range(rng.randint(2, 10))}))
        narrowed = 0
        for g in hosts:
            deg = np.bincount(g._rows.ravel())
            narrowed += 2 <= max(np.count_nonzero(deg[e] > 1) for e in g._rows) < g.k
            for r in (2, 3, 4):
                assert count_matchings(g, r) == brute_count_matchings(g, r)
        assert narrowed >= 30

    def test_enumeration_agrees_with_count(self):
        hosts = graph_corpus(40, max_n=9, seed=9) + kgraph_corpus(15, seed=19, max_n=12)
        rng = random.Random(39)
        hosts += [random_kgraph(n, 4, 80 / comb(n, 4), rng) for n in range(12, 17)]
        for g in hosts:
            for r in (1, 2, 3, 4):
                ms = list(enumerate_matchings(g, r))
                assert len(ms) == count_matchings(g, r)
                assert len(set(ms)) == len(ms)
                for mtch in ms:
                    verts = mtch.vertices()
                    assert len(verts) == len(set(verts))


class TestKernelsIgnoreRowOrder:
    """Hypergraph._rows keeps the edges in set iteration order, unsorted, so
    every kernel must give the same loops, labels and counts for any row order."""

    @staticmethod
    def _both(g: Hypergraph, seed: int) -> tuple[np.ndarray, np.ndarray]:
        return g._rows, g._rows[np.random.default_rng(seed).permutation(g.m)]

    @staticmethod
    def _loop(masks, labels) -> tuple[list, list]:
        return list(masks), list(labels)

    def test_rows_are_read_only(self):
        g, _ = complete_bipartite(2, 3)
        assert g._rows is g._rows
        with pytest.raises(ValueError, match="read-only"):
            g._rows[0, 0] = 1

    def test_graph_kernel_and_triples(self):
        for seed, g in enumerate(graph_corpus(40, seed=3131)):
            a, b = self._both(g, seed)
            for r in (1, 2, 3):
                assert self._loop(*_graph_masks(a, r, r)) == self._loop(*_graph_masks(b, r, r))
            assert _three_matchings(_relabel(a)[1]) == _three_matchings(_relabel(b)[1])

    def test_partite_kernel(self):
        hosts = partite_corpus_small(40, seed=3232) + shuffled_partite_corpus(40, seed=3333)
        assert {g.k for g, _spec in hosts} == {2, 3, 4}
        for seed, (g, spec) in enumerate(hosts):
            a, b = self._both(g, seed)
            for r in (1, 2):
                for s in (r, r + 1):
                    got = [self._loop(*_partite_masks(rows, spec._labels, r, s)) for rows in (a, b)]
                    assert got[0] == got[1]

    def test_link_kernel(self):
        for seed, g in enumerate(kgraph_corpus(25, seed=3434) + kgraph_corpus(15, seed=3535, k=4)):
            a, b = self._both(g, seed)
            for r in (1, 2):
                assert self._loop(*_link_masks(a, r)) == self._loop(*_link_masks(b, r))

    def test_shared_sets(self):
        rng = random.Random(3636)
        hosts = graph_corpus(20, seed=3737) + kgraph_corpus(20, seed=3838) + kgraph_corpus(10, seed=3939, k=4)
        hosts += [random_kgraph(12, 5, 0.005, rng) for _ in range(10)]
        assert sum(len(list(_shared_sets(g._rows))) > 1 for g in hosts) >= 20
        for seed, g in enumerate(hosts):
            a, b = self._both(g, seed)
            assert [(T.tolist(), c.tolist()) for T, c in _shared_sets(a)] == [
                (T.tolist(), c.tolist()) for T, c in _shared_sets(b)
            ]


class TestExtensions:
    def test_perfect_matching_of_k22_extends_once(self):
        g, _ = complete_bipartite(2, 2)
        mtch = Matching(frozenset({(0, 2), (1, 3)}))
        exts = extensions_of_matching(g, mtch, 2)
        assert len(exts) == 1
        assert exts[0].parts == ((0, 1), (2, 3))

    def test_matching_spanning_no_copy(self):
        g = Hypergraph.from_edges(2, 4, [(0, 1), (2, 3)])
        mtch = Matching(frozenset(g.edges))
        assert extensions_of_matching(g, mtch, 2) == []
        # K_{2,2} without (0, 3): the matching's only candidate copy needs it.
        g = Hypergraph.from_edges(2, 4, [(0, 2), (1, 2), (1, 3)])
        mtch = Matching(frozenset({(0, 2), (1, 3)}))
        assert extensions_of_matching(g, mtch, 2, PartitionSpec(((0, 1), (2, 3)))) == []
        assert extensions_of_matching(g, mtch, 2) == []

    def test_rejects_invalid_matchings(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="expected r"):
            extensions_of_matching(g, Matching(frozenset({(0, 2)})), 2)
        with pytest.raises(ValueError, match="not present"):
            extensions_of_matching(g, Matching(frozenset({(0, 1), (2, 3)})), 2)
        bad = Matching(frozenset({(0, 2), (0, 3)}))
        with pytest.raises(ValueError, match="disjoint"):
            extensions_of_matching(g, bad, 2)
        for k in (1, 2, 3):
            one_edge = Hypergraph.from_edges(k, k, [tuple(range(k))])
            with pytest.raises(ValueError, match="matching size r must be >= 1"):
                extensions_of_matching(one_edge, Matching(frozenset()), 0)

    def test_cap_over_corpus(self):
        for g in graph_corpus(30, max_n=8, seed=909):
            for r in (2, 3):
                for mtch in enumerate_matchings(g, r):
                    assert len(extensions_of_matching(g, mtch, r)) <= 2**r

    def test_cap_for_kgraphs(self):
        for g in kgraph_corpus(15, seed=111):
            cap = factorial(g.k) ** 2
            for mtch in enumerate_matchings(g, 2):
                assert len(extensions_of_matching(g, mtch, 2)) <= cap

    def test_one_graph_matching_extends_to_its_one_copy(self):
        # A 1-uniform copy is one part holding every matched vertex, in order.
        rng = random.Random(451)
        checked = 0
        for _ in range(40):
            g = random_kgraph(rng.randint(1, 10), 1, rng.random(), rng)
            for r in (1, 2, 3, 4):
                for mtch in enumerate_matchings(g, r):
                    expected = [PatternCopy((tuple(v for (v,) in sorted(mtch.edges)),))]
                    assert extensions_of_matching(g, mtch, r) == expected
                    checked += 1
        assert checked > 100

    def test_partite_extension_is_unique_when_present(self):
        g, spec = complete_multipartite([2, 2, 2])
        mtch = next(enumerate_matchings(g, 2))
        exts = extensions_of_matching(g, mtch, 2, spec)
        assert len(exts) == 1
        assert exts[0].parts == ((0, 1), (2, 3), (4, 5))


class TestCopiesContainMatchings:
    def test_every_copy_contains_a_transversal_matching(self):
        for g in graph_corpus(25, max_n=8, seed=222):
            for copy in enumerate_copies(g, 2):
                a, b = copy.parts
                m1 = (tuple(sorted((a[0], b[0]))), tuple(sorted((a[1], b[1]))))
                assert all(e in g.edges for e in m1)
                assert not set(m1[0]) & set(m1[1])


class TestBounds:
    def test_frozen_examples(self):
        assert copy_count_upper_bound(9, 2, 2) == 144
        assert copy_count_upper_bound_relaxed(9, 2) == 162
        assert copy_count_upper_bound(3, 2, 3) == 108

    def test_m_equals_r(self):
        for r in range(2, 6):
            assert copy_count_upper_bound(r, r, 2) == 2**r

    def test_chain_over_corpus(self):
        for g in graph_corpus(120, seed=333):
            for r in (2, 3):
                copies = count_copies(g, r)
                tight = copy_count_upper_bound(g.m, r, 2)
                assert copies <= tight
                if g.m >= r:
                    assert tight <= copy_count_upper_bound_relaxed(g.m, r)

    def test_kgraph_bound(self):
        for g in kgraph_corpus(25, seed=444):
            assert count_copies(g, 2) <= copy_count_upper_bound(g.m, 2, g.k)

    def test_matching_count_at_most_binomial(self):
        for g in graph_corpus(40, seed=555):
            for r in (2, 3):
                assert count_matchings(g, r) <= comb(g.m, r)

    def test_rejects_negative_edge_counts(self):
        with pytest.raises(ValueError, match="m >= 0"):
            copy_count_upper_bound(-1, 2, 2)
        with pytest.raises(ValueError, match="m >= 0"):
            copy_count_upper_bound_relaxed(-1, 2)


def test_kernels_do_not_import_numpy_ma():
    # numpy.ma (pulled in by np.unique, among others) adds megabytes of
    # resident memory to every run that touches it; scipy and networkx are
    # test-only, since the runtime depends on numpy alone.
    code = """
import sys
from krsfree import (
    PatternSpec, build_construction, complete_bipartite, count_copies, count_matchings, enumerate_copies,
    is_partite, max_free_subgraph,
)
g, spec = complete_bipartite(4, 5)
h, hspec, _ = build_construction(2, 2, 3)
for host, parts in ((g, spec), (h, hspec)):
    assert is_partite(host, parts)
    assert count_copies(host, 2) and count_copies(host, 2, parts)
    assert list(enumerate_copies(host, 2)) and list(enumerate_copies(host, 2, parts))
assert count_matchings(g, 2) and count_matchings(g, 3) and count_matchings(h, 2)
for pattern in (PatternSpec.krr(2), PatternSpec.krs_either(2, 3)):
    assert max_free_subgraph(g, pattern, spec, budget=2_000).optimum
for name in ("numpy.ma", "scipy", "networkx"):
    assert name not in sys.modules, f"{name} was imported"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
