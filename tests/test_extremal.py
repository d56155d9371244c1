"""Constructions, the degree-convexity certificate, and the inductive copy bound."""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from krsfree import (
    CapacityError,
    EdgeSubset,
    Hypergraph,
    VERDICT_INCONCLUSIVE,
    VERDICT_PROVES,
    build_construction,
    common_extension_count_dS,
    complete_bipartite,
    complete_multipartite,
    count_copies,
    edge_density_a,
    generalized_binomial,
    kst_certificate,
    proposition_lower_bound,
    theorem_upper_bound,
)
from krsfree.oracle import PatternSpec, is_free

from bruteforce import brute_count_partite_copies
from corpus import partite_corpus_small


def full_subset(g: Hypergraph) -> EdgeSubset:
    return EdgeSubset(g, g.edges)


class TestConstruction:
    def test_graph_shape(self):
        g, spec, cspec = build_construction(3, 2, 2)
        assert cspec.part_sizes == (3, 9)
        assert cspec.q == 3
        assert g.m == 27 == cspec.m
        assert tuple(len(p) for p in spec.parts) == (3, 9)

    def test_hypergraph_shape(self):
        g, spec, cspec = build_construction(2, 2, 3)
        assert cspec.part_sizes == (2, 4, 16)
        assert cspec.q == 7
        assert g.m == 128 == 2**7

    def test_base_one(self):
        g, _, cspec = build_construction(1, 3, 3)
        assert cspec.part_sizes == (1, 1, 1)
        assert g.m == 1

    def test_edge_count_is_exact_power(self):
        for n, r, k in ((2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 2), (2, 2, 3)):
            _, _, cspec = build_construction(n, r, k)
            assert cspec.m == n**cspec.q
            prod = 1
            for s in cspec.part_sizes:
                prod *= s
            assert prod == cspec.m

    def test_capacity_errors(self):
        with pytest.raises(CapacityError, match="vertices"):
            build_construction(10, 3, 3)
        # 127 + 127^2 vertices fit, but 127^3 = 2,048,383 edges do not.
        with pytest.raises(CapacityError, match="edges"):
            build_construction(127, 2, 2)

    @pytest.mark.parametrize(
        "n, r, k", [(10, 10, 8), (10, 10, 9), (10**5000, 2, 2)], ids=["10-10-8", "10-10-9", "n=10^5000"]
    )
    def test_over_the_vertex_budget_is_caught_before_the_powers(self, n, r, k):
        # The last part alone would have n^(r^(k-1)) vertices: (10, 10, 9) has 10^(10^8) of them.
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="vertex budget"):
            build_construction(n, r, k)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r, k", [(2, 64), (10, 5000), (2, 10**9), (10**100, 2)])
    def test_exponent_budget_on_one_edge_hosts(self, r, k):
        with pytest.raises(CapacityError, match="exponent q"):
            build_construction(1, r, k)
        _, _, cspec = build_construction(1, 2, 63)
        assert cspec.q == 2**63 - 1 and cspec.m == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_construction(0, 2, 2)
        with pytest.raises(ValueError):
            build_construction(3, 1, 2)


class TestUpperBound:
    def test_values(self):
        assert theorem_upper_bound(27, 2, s=2) == pytest.approx(18.0, rel=1e-12)
        assert theorem_upper_bound(8, 2, s=2) == pytest.approx(8.0, rel=1e-12)
        assert theorem_upper_bound(128, 2, k=3) == pytest.approx(128.0, rel=1e-12)

    def test_s_scales_linearly(self):
        assert theorem_upper_bound(27, 2, s=4) == pytest.approx(36.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="needs s"):
            theorem_upper_bound(27, 2)
        with pytest.raises(ValueError, match="2 <= r <= s"):
            theorem_upper_bound(27, 3, s=2)
        with pytest.raises(ValueError, match="r >= 2"):
            theorem_upper_bound(27, 1, k=3)
        with pytest.raises(ValueError, match="k >= 2"):
            theorem_upper_bound(10, 2, k=1)
        with pytest.raises(ValueError, match="m >= 0"):
            theorem_upper_bound(-1, 2, s=2)


class TestCertificate:
    def test_full_k24_proves(self):
        g, spec = complete_bipartite(2, 4)
        report = kst_certificate(full_subset(g), spec, 2, 2)
        assert report.lhs == 4
        assert report.rhs == 2
        assert report.verdict == VERDICT_PROVES
        assert report.average_degree == Fraction(2)

    def test_perfect_matching_inconclusive(self):
        g, spec = complete_bipartite(4, 4)
        sub = EdgeSubset(g, frozenset({(0, 4), (1, 5), (2, 6), (3, 7)}))
        report = kst_certificate(sub, spec, 2, 2)
        assert report.lhs == 0
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_five_edge_c4_free_subgraph_inconclusive(self):
        g, spec = complete_bipartite(2, 4)
        sub = EdgeSubset(g, frozenset({(0, 2), (1, 2), (0, 3), (1, 4), (0, 5)}))
        report = kst_certificate(sub, spec, 2, 2)
        assert report.lhs == 1
        assert report.rhs == 2
        assert report.verdict == VERDICT_INCONCLUSIVE
        free, _ = is_free(sub, PatternSpec.krs_oriented(2, 2), spec)
        assert free

    def test_degenerate_small_u_side_stays_inconclusive(self):
        # lhs = rhs = 0 carries no information, so it must not prove anything
        g, spec = complete_bipartite(1, 4)
        report = kst_certificate(full_subset(g), spec, 2, 2)
        assert report.lhs == 0 and report.rhs == 0
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_soundness_on_random_subsets(self):
        import random

        g, spec = complete_bipartite(4, 4)
        rng = random.Random(99)
        edges = g.sorted_edges()
        pattern = PatternSpec.krs_oriented(2, 2)
        proved = 0
        for _ in range(300):
            density = rng.random()
            sub = EdgeSubset(g, frozenset(e for e in edges if rng.random() < density))
            report = kst_certificate(sub, spec, 2, 2)
            if report.verdict == VERDICT_PROVES:
                proved += 1
                free, witness = is_free(sub, pattern, spec)
                assert not free and witness is not None
                assert witness.edge_set() <= sub.edges
        assert proved > 0  # the suite actually exercises the proving branch

    def test_domain_errors(self):
        g3, spec3 = complete_multipartite([2, 2, 2])
        with pytest.raises(ValueError, match="bipartite"):
            kst_certificate(EdgeSubset(g3, g3.edges), spec3, 2, 2)
        g, spec = complete_multipartite([3, 0])
        with pytest.raises(ValueError, match="empty"):
            kst_certificate(full_subset(g), spec, 2, 2)
        g2, spec2 = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="r >= 1"):
            kst_certificate(full_subset(g2), spec2, 0, 2)


class TestGeneralizedBinomial:
    def test_matches_integer_binomial(self):
        for a in range(0, 8):
            for r in range(0, 5):
                assert generalized_binomial(Fraction(a), r) == comb(a, r)

    def test_fractional_value(self):
        assert generalized_binomial(Fraction(5, 2), 2) == Fraction(15, 8)
        assert generalized_binomial(Fraction(8, 3), 2) == Fraction(20, 9)

    def test_r_zero(self):
        assert generalized_binomial(Fraction(7, 3), 0) == 1
        with pytest.raises(ValueError, match="r >= 0"):
            generalized_binomial(Fraction(3), -1)


class TestPropositionBound:
    def test_worked_example(self):
        assert proposition_lower_bound(2, [4, 16], 2) == 6

    def test_a_equals_r(self):
        value = proposition_lower_bound(2, [5, 7, 100], 2)
        assert value == comb(5, 2) * comb(7, 2)

    def test_single_part_is_pure_binomial(self):
        assert proposition_lower_bound(4, [9], 2) == comb(4, 2)
        assert proposition_lower_bound(Fraction(7, 2), [9], 2) == Fraction(35, 8)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError, match="below"):
            proposition_lower_bound(Fraction(3, 2), [4, 4], 2)
        with pytest.raises(ValueError, match="r >= 1"):
            proposition_lower_bound(2, [4, 4], 0)
        with pytest.raises(ValueError, match="at least one part size"):
            proposition_lower_bound(2, [], 2)

    def test_bound_holds_on_complete_hosts(self):
        for sizes in ((3, 6), (4, 12), (2, 2, 4), (2, 3, 8)):
            g, spec = complete_multipartite(list(sizes))
            a = edge_density_a(g, spec)
            bound = proposition_lower_bound(a, sizes, 2)
            assert count_copies(g, 2, spec) >= bound

    def test_bound_needs_part_growth(self):
        # with parts (3, 3) the inequality genuinely fails: density 8/3 >= 2 but
        # the host has 5 copies against a claimed floor of 20/3. This is why the
        # random suite only draws shapes with |U_{i+1}| >= |U_i|(|U_i| - 1).
        g, spec = complete_bipartite(3, 3)
        g = Hypergraph(2, g.n, g.edges - {(0, 3)})
        a = edge_density_a(g, spec)
        assert a == Fraction(8, 3)
        bound = proposition_lower_bound(a, (3, 3), 2)
        assert bound == Fraction(20, 3)
        assert count_copies(g, 2, spec) == 5 < bound


class TestDensity:
    def test_complete_host(self):
        g, spec = complete_multipartite([3, 4, 5])
        assert edge_density_a(g, spec) == 3

    def test_empty_host(self):
        g, spec = complete_multipartite([3, 4])
        empty = Hypergraph(2, g.n, frozenset())
        assert edge_density_a(empty, spec) == 0

    def test_k24_missing_two(self):
        g, spec = complete_bipartite(2, 4)
        trimmed = Hypergraph(2, g.n, g.edges - {(0, 2), (1, 3)})
        assert edge_density_a(trimmed, spec) == Fraction(3, 2)

    def test_error_on_empty_later_part(self):
        g, spec = complete_multipartite([3, 0])
        with pytest.raises(ValueError, match="undefined"):
            edge_density_a(g, spec)

    def test_empty_first_part_is_fine(self):
        g, spec = complete_multipartite([0, 3])
        assert edge_density_a(g, spec) == 0


class TestCommonExtensions:
    def test_complete_host(self):
        g, spec = complete_multipartite([3, 4, 5])
        assert common_extension_count_dS(g, spec, [(0, 1), (3, 4)]) == 5

    def test_empty_host(self):
        g, spec = complete_multipartite([3, 4])
        empty = Hypergraph(2, g.n, frozenset())
        assert common_extension_count_dS(empty, spec, [(0, 1)]) == 0

    def test_k33_worked_example(self):
        g, spec = complete_bipartite(3, 3)
        total = 0
        for s in combinations(spec.parts[0], 2):
            d = common_extension_count_dS(g, spec, [s])
            assert d == 3
            total += comb(d, 2)
        assert total == 9 == count_copies(g, 2, spec)

    def test_sum_identity_over_corpus(self):
        for g, spec in partite_corpus_small(40, seed=808):
            r = 2
            if any(len(p) < r for p in spec.parts[:-1]):
                continue
            total = 0
            for s_combo in _all_s_choices(spec, r):
                d = common_extension_count_dS(g, spec, s_combo)
                total += comb(d, r)
            assert total == count_copies(g, r, spec)
            assert count_copies(g, r, spec) == brute_count_partite_copies(g, spec, r)

    def test_malformed_s(self):
        g, spec = complete_multipartite([3, 4, 5])
        with pytest.raises(ValueError, match="need 2 sets"):
            common_extension_count_dS(g, spec, [(0, 1)])
        with pytest.raises(ValueError, match="equal size"):
            common_extension_count_dS(g, spec, [(0, 1), (3,)])
        with pytest.raises(ValueError, match="inside part"):
            common_extension_count_dS(g, spec, [(0, 3), (3, 4)])
        g, spec = complete_multipartite([3])
        with pytest.raises(ValueError, match="k >= 2"):
            common_extension_count_dS(g, spec, [])


def _all_s_choices(spec, r):
    from itertools import product as iproduct

    pools = [list(combinations(part, r)) for part in spec.parts[:-1]]
    return iproduct(*pools)
