"""Core types: construction validation, builders, links, sampling, text round trips."""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
import types
from itertools import product

import numpy as np
import pytest

import krsfree

from krsfree import (
    CapacityError,
    EdgeSubset,
    Hypergraph,
    PartitionSpec,
    bernoulli_edge_sample,
    build_construction,
    complete_bipartite,
    complete_multipartite,
    hypergraph_from_text,
    hypergraph_to_text,
    is_partite,
    link,
    partition_from_text,
    partition_to_text,
    reports_to_csv,
    run_trials,
)

from bruteforce import brute_is_partite, brute_validate
from corpus import (
    graph_corpus,
    kgraph_corpus,
    partite_corpus_small,
    random_graph,
    shuffled_partite_corpus,
)


def _rejection(fn, *args) -> str | None:
    """The ValueError message fn(*args) raises, or None if it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestHypergraph:
    def test_rejects_bad_uniformity_and_vertices(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            Hypergraph(0, 3, frozenset())
        with pytest.raises(ValueError, match="n must be >= 0"):
            Hypergraph(2, -1, frozenset())
        with pytest.raises(ValueError, match="outside"):
            Hypergraph(2, 3, frozenset({(1, 3)}))
        with pytest.raises(ValueError, match="distinct"):
            Hypergraph.from_edges(2, 3, [(1, 1)])

    def test_from_edges_sorts_and_dedupes(self):
        g = Hypergraph.from_edges(2, 4, [(3, 1), (1, 3), (0, 2)])
        assert g.edges == frozenset({(1, 3), (0, 2)})
        assert g.m == 2

    def test_empty_graph_allowed(self):
        g = Hypergraph(2, 0, frozenset())
        assert g.m == 0 and g.n == 0


class TestValidation:
    """The numpy validator against the per-edge referee: same verdict, same message."""

    CASES = [
        # (name, k, n, edges, message family or None when valid)
        ("empty", 2, 5, frozenset(), None),
        ("empty, n = 0", 3, 0, frozenset(), None),
        ("k = 1", 1, 3, frozenset({(0,), (2,)}), None),
        ("k = 1, vertex = n", 1, 3, frozenset({(0,), (3,)}), "outside"),
        ("valid 3-graph", 3, 5, frozenset({(0, 1, 4), (1, 2, 3), (0, 3, 4)}), None),
        ("wrong length", 2, 4, frozenset({(0, 1), (0, 1, 2)}), "distinct"),
        ("mixed lengths, total m*k", 2, 4, frozenset({(0,), (0, 1, 2)}), "distinct"),
        ("repeated vertex", 3, 4, frozenset({(0, 1, 2), (1, 1, 3)}), "distinct"),
        ("repeated and unsorted", 3, 4, frozenset({(1, 0, 1)}), "distinct"),
        ("unsorted", 3, 4, frozenset({(0, 1, 2), (0, 3, 1)}), "not sorted"),
        ("negative vertex", 2, 3, frozenset({(0, 1), (-1, 2)}), "outside"),
        ("vertex = n", 2, 3, frozenset({(0, 1), (1, 3)}), "outside"),
        ("vertex beyond 2^63", 2, 3, frozenset({(0, 1), (0, 2**63 + 5)}), "outside"),
        ("vertex below -2^63", 2, 3, frozenset({(-(2**64), 1)}), "outside"),
        ("unsorted, beyond 2^63", 2, 3, frozenset({(2**64, 0)}), "not sorted"),
    ]

    @pytest.mark.parametrize("name,k,n,edges,family", CASES, ids=[c[0] for c in CASES])
    def test_matches_referee(self, name, k, n, edges, family):
        expected = _rejection(brute_validate, k, n, edges)
        assert _rejection(Hypergraph, k, n, edges) == expected
        if family is None:
            assert expected is None
        else:
            assert family in expected

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0.2, 0.7), ("0", "1")], ids=repr)
    def test_non_integer_vertices_raise(self, edge):
        with pytest.raises(TypeError, match="integer"):
            Hypergraph(2, 3, frozenset({(0, 2), edge}))

    def test_one_bad_edge_in_random_hosts(self):
        rng = random.Random(1313)
        hosts = graph_corpus(40, max_n=8, seed=71) + kgraph_corpus(20, seed=72)
        faults = {
            "distinct": lambda e, n: (e[0],) + e[:-1],
            "short": lambda e, n: e[:-1],
            "long": lambda e, n: e + (n + 7,),
            "not sorted": lambda e, n: e[::-1],
            "negative": lambda e, n: (-1,) + e[1:],
            "n": lambda e, n: e[:-1] + (n,),
            "huge": lambda e, n: e[:-1] + (2**63 + rng.randrange(10),),
        }
        for g in hosts:
            assert _rejection(Hypergraph, g.k, g.n, g.edges) is None
            if not g.edges:
                continue
            for name, fault in faults.items():
                victim = rng.choice(g.sorted_edges())
                edges = (g.edges - {victim}) | {fault(victim, g.n)}
                expected = _rejection(brute_validate, g.k, g.n, edges)
                assert expected is not None, (name, g)
                assert _rejection(Hypergraph, g.k, g.n, edges) == expected, (name, g)

    def test_host_keeps_no_array_and_validates_in_linear_memory(self):
        g, _, _ = build_construction(30, 2, 2)
        tracemalloc.start()
        try:
            h = Hypergraph(g.k, g.n, g.edges)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(isinstance(v, np.ndarray) for v in vars(h).values())
        assert peak < 4 * g.m * g.k * 8


class TestPartition:
    def test_rejects_overlapping_parts(self):
        with pytest.raises(ValueError, match="disjoint"):
            PartitionSpec(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="not a sorted set"):
            PartitionSpec(((1, 0),))

    def test_is_partite(self):
        g, spec = complete_bipartite(2, 3)
        assert is_partite(g, spec)
        # a partition that misses a vertex is not valid for this host
        bad = PartitionSpec(((0, 1), (2, 3)))
        assert not is_partite(g, bad)
        # an edge inside one part breaks partiteness
        g2 = Hypergraph.from_edges(2, 5, list(g.edges) + [(0, 1)])
        assert not is_partite(g2, spec)

    @staticmethod
    def _random_specs(g: Hypergraph, rng: random.Random):
        """Random partitions of g: proper ones, and ones with a vertex dropped,
        an out-of-range vertex added, or a part too many."""
        for _ in range(4):
            parts = [[] for _ in range(g.k)]
            for v in range(g.n):
                parts[rng.randrange(g.k)].append(v)
            yield PartitionSpec.from_parts(parts)
            if g.n:
                drop = rng.randrange(g.n)
                yield PartitionSpec.from_parts([[v for v in part if v != drop] for part in parts])
            yield PartitionSpec.from_parts(parts[:-1] + [parts[-1] + [g.n + rng.randrange(2)]])
            yield PartitionSpec.from_parts(parts + [[]])

    def test_matches_brute_on_random_partitions(self):
        rng = random.Random(4242)
        hosts = graph_corpus(60, max_n=8, seed=31)
        hosts += kgraph_corpus(20, seed=32)
        hosts += [g for g, _ in partite_corpus_small(30, seed=33)]
        cases = [(g, s) for g in hosts for s in self._random_specs(g, rng)]
        cases += partite_corpus_small(30, seed=33)
        outcomes = set()
        for g, spec in cases:
            got = is_partite(g, spec)
            assert got == brute_is_partite(g, spec), (g, spec)
            outcomes.add(got)
        assert outcomes == {True, False}

    EDGE_CASES = [
        # (name, host, parts, partite)
        ("fits", Hypergraph.from_edges(2, 4, [(0, 2), (1, 3)]), ((0, 1), (2, 3)), True),
        ("empty part, no edges", Hypergraph(2, 3, frozenset()), ((0, 1, 2), ()), True),
        ("empty part, an edge", Hypergraph.from_edges(2, 3, [(0, 1)]), ((0, 1, 2), ()), False),
        ("vertex < 0", Hypergraph.from_edges(2, 3, [(0, 2)]), ((-1, 0, 1), (2,)), False),
        ("vertex < 0, sizes sum to n", Hypergraph.from_edges(2, 3, [(0, 2)]), ((-1, 0), (2,)), False),
        ("vertex >= n", Hypergraph.from_edges(2, 3, [(0, 2)]), ((0, 1), (2, 3)), False),
        ("vertex >= n, sizes sum to n", Hypergraph.from_edges(2, 3, [(0, 2)]), ((0,), (2, 3)), False),
        ("uncovered isolated vertex", Hypergraph.from_edges(2, 4, [(0, 2)]), ((0, 1), (2,)), False),
        ("uncovered vertex with edges", Hypergraph.from_edges(2, 4, [(0, 3)]), ((0, 1), (2,)), False),
        ("edge inside a part", Hypergraph.from_edges(2, 4, [(0, 2), (0, 1)]), ((0, 1), (2, 3)), False),
        ("spec.k > g.k", Hypergraph.from_edges(2, 3, [(0, 1)]), ((0,), (1,), (2,)), False),
        ("spec.k < g.k", Hypergraph.from_edges(3, 3, [(0, 1, 2)]), ((0, 1), (2,)), False),
        ("n = 0", Hypergraph(2, 0, frozenset()), ((), ()), True),
        ("n = 0, spec.k != g.k", Hypergraph(2, 0, frozenset()), ((),), False),
        ("3-graph fits", Hypergraph.from_edges(3, 4, [(0, 1, 3), (0, 2, 3)]), ((0,), (1, 2), (3,)), True),
        ("3-graph, two in a part", Hypergraph.from_edges(3, 4, [(0, 1, 2)]), ((0,), (1, 2), (3,)), False),
    ]

    @pytest.mark.parametrize("name,g,parts,partite", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_edge_cases_match_brute(self, name, g, parts, partite):
        spec = PartitionSpec(parts)
        assert brute_is_partite(g, spec) is partite
        assert is_partite(g, spec) is partite

    def test_interleaved_parts_and_one_stray_edge(self):
        """Partite hosts, with parts in label order and interleaved, then with one
        edge moved so that it misses a part."""
        rng = random.Random(2024)
        cases = partite_corpus_small(40, seed=34) + shuffled_partite_corpus(40, seed=35)
        stray_count = 0
        for g, spec in cases:
            assert is_partite(g, spec) and brute_is_partite(g, spec)
            if not g.edges:
                continue
            # Replace e[j] by another vertex of e[i]'s part: the edge then has
            # two vertices in that part and misses e[j]'s.
            e = rng.choice(g.sorted_edges())
            i, j = rng.sample(range(g.k), 2)
            part_of = {v: p for p, part in enumerate(spec.parts) for v in part}
            twin = [v for v in spec.parts[part_of[e[i]]] if v not in e]
            if not twin:
                continue
            stray = tuple(sorted(e[:j] + (rng.choice(twin),) + e[j + 1 :]))
            h = Hypergraph(g.k, g.n, (g.edges - {e}) | {stray})
            assert not brute_is_partite(h, spec)
            assert not is_partite(h, spec)
            stray_count += 1
        assert stray_count >= 40


class TestBuilders:
    def test_complete_bipartite_counts(self):
        g, spec = complete_bipartite(3, 9)
        assert g.m == 27 and g.n == 12
        assert spec.parts[0] == (0, 1, 2)
        assert is_partite(g, spec)

    def test_multipartite_matches_bipartite(self):
        g1, _ = complete_bipartite(2, 4)
        g2, _ = complete_multipartite([2, 4])
        assert g1.edges == g2.edges

    def test_multipartite_edge_count_is_product(self):
        g, spec = complete_multipartite([2, 3, 4])
        assert g.m == 24
        assert is_partite(g, spec)

    def test_zero_size_part(self):
        g, spec = complete_multipartite([2, 0, 3])
        assert g.m == 0
        assert is_partite(g, spec)

    def test_single_part_is_singletons(self):
        g, _ = complete_multipartite([4])
        assert g.edges == frozenset({(0,), (1,), (2,), (3,)})

    def test_rejects_no_parts_and_negative_sizes(self):
        with pytest.raises(ValueError, match="at least one part"):
            complete_multipartite([])
        with pytest.raises(ValueError, match="sizes must be >= 0"):
            complete_multipartite([2, -1])


class TestValidByConstruction:
    """The builders skip the validator, so the referee checks what they build."""

    @staticmethod
    def _assert_valid(g: Hypergraph) -> None:
        brute_validate(g.k, g.n, g.edges)
        rebuilt = Hypergraph(g.k, g.n, g.edges)
        assert g == rebuilt and hash(g) == hash(rebuilt)

    @pytest.mark.parametrize(
        "sizes",
        [(0,), (1,), (5,), (0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (1, 4, 2), (2, 0, 3),
         (3, 3, 3), (1, 1, 1, 1), (2, 3, 1, 2), (2, 2, 0, 2), (3, 1, 4, 2)],
    )
    def test_complete_multipartite(self, sizes):
        g, spec = complete_multipartite(sizes)
        self._assert_valid(g)
        assert brute_is_partite(g, spec) and g.m == math.prod(sizes)

    def test_every_construction_within_the_budgets_for_n_up_to_4(self):
        # n >= 2 runs out of budget by r = 18 or k = 5; n = 1 builds one edge for any r, k.
        built = 0
        for n, r, k in product(range(1, 5), range(2, 19), range(2, 6)):
            try:
                g, spec, cspec = build_construction(n, r, k)
            except CapacityError:
                continue
            self._assert_valid(g)
            assert g.m == cspec.m and spec.parts[-1][-1] == g.n - 1
            built += 1
        assert built == 107

    def test_link_on_the_corpus_hosts(self):
        for g, spec in partite_corpus_small(25, seed=42) + shuffled_partite_corpus(25):
            for x in spec.parts[-1]:
                lg, lspec = link(g, spec, x)
                self._assert_valid(lg)
                assert brute_is_partite(lg, lspec)

    def test_builders_never_run_the_validator(self, monkeypatch):
        calls = []
        validate = Hypergraph.__post_init__
        monkeypatch.setattr(Hypergraph, "__post_init__", lambda h: calls.append(h) or validate(h))
        g, spec = complete_multipartite((2, 3, 4))
        complete_bipartite(3, 9)
        build_construction(3, 2, 2)
        link(g, spec, spec.parts[-1][0])
        assert calls == []


class TestPackageSurface:
    PUBLIC_NAMES = """
        GENERATOR_ID Edge EdgeSubset Hypergraph PartitionSpec bernoulli_edge_sample
        complete_bipartite complete_multipartite hypergraph_from_text hypergraph_to_text
        is_partite link partition_from_text partition_to_text read_hypergraph read_partition
        write_hypergraph write_partition
        Matching PatternCopy copy_count_upper_bound copy_count_upper_bound_relaxed count_copies
        count_matchings enumerate_copies enumerate_matchings extensions_of_matching
        pattern_exponent
        DeletionParams DeletionRunReport ExpectationBound TrialSummary deletion_params
        derive_trial_seed expectation_lower_bound extract_free_subgraph reports_to_csv
        run_trials summary_to_json
        CapacityError CertificateReport ConstructionSpec VERDICT_INCONCLUSIVE VERDICT_PROVES
        build_construction common_extension_count_dS edge_density_a generalized_binomial
        kst_certificate proposition_lower_bound theorem_upper_bound
        FreeSubgraphComparison OracleResult PatternSpec f_lower_report is_free max_free_subgraph
    """.split()

    def test_all_lists_the_public_names(self):
        assert len(self.PUBLIC_NAMES) == 57
        assert sorted(krsfree.__all__) == sorted(self.PUBLIC_NAMES)
        for name in krsfree.__all__:
            assert not isinstance(getattr(krsfree, name), types.ModuleType), name


class TestEdgeSubset:
    def test_rejects_foreign_edges(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="not present"):
            EdgeSubset(g, frozenset({(0, 1)}))

    def test_as_hypergraph_keeps_vertex_count(self):
        g, _ = complete_bipartite(2, 2)
        sub = EdgeSubset(g, frozenset({(0, 2)}))
        h = sub.as_hypergraph()
        assert h.n == g.n and h.m == 1

    def test_unvalidated_sample_equals_validated(self):
        g, _, _ = build_construction(30, 2, 2)
        for seed in range(5):
            sample = bernoulli_edge_sample(g, 0.01, seed)
            h = sample.as_hypergraph()
            validated = Hypergraph(g.k, g.n, sample.edges)
            assert h == validated and hash(h) == hash(validated)
            assert repr(h) == repr(validated)
            assert h.sorted_edges() == validated.sorted_edges()
            with pytest.raises(ValueError, match="not present"):
                EdgeSubset(g, sample.edges | {(0, 1)})


class TestLink:
    def test_link_of_bipartite_vertex_is_singletons(self):
        g, spec = complete_bipartite(2, 4)
        for x in spec.parts[-1]:
            lg, lspec = link(g, spec, x)
            assert lg.k == 1
            assert lg.edges == frozenset({(0,), (1,)})
            assert lspec.parts == ((0, 1),)

    def test_link_of_tripartite_vertex_is_bipartite(self):
        g, spec = complete_multipartite([2, 3, 4])
        x = spec.parts[-1][0]
        lg, lspec = link(g, spec, x)
        expected, _ = complete_bipartite(2, 3)
        assert lg.edges == expected.edges

    def test_link_requires_last_part_vertex(self):
        g, spec = complete_multipartite([2, 3, 4])
        with pytest.raises(ValueError, match="last part"):
            link(g, spec, 0)
        g, spec = complete_multipartite([3])
        with pytest.raises(ValueError, match="k >= 2"):
            link(g, spec, 0)

    def test_link_sizes_sum_to_edge_count(self):
        for g, spec in partite_corpus_small(25, seed=42):
            if g.k < 2:
                continue
            total = sum(link(g, spec, x)[0].m for x in spec.parts[-1])
            assert total == g.m


class TestSampling:
    def test_p_zero_and_one(self):
        g, _ = complete_bipartite(3, 3)
        assert bernoulli_edge_sample(g, 0.0, 5).edges == frozenset()
        assert bernoulli_edge_sample(g, 1.0, 5).edges == g.edges

    def test_rejects_bad_p(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="outside"):
            bernoulli_edge_sample(g, 1.5, 0)
        with pytest.raises(ValueError, match="outside"):
            bernoulli_edge_sample(g, -0.1, 0)
        with pytest.raises(ValueError, match="seed"):
            bernoulli_edge_sample(g, 0.5, -1)

    def test_deterministic_in_seed(self):
        g = random_graph(10, 0.6, random.Random(3))
        a = bernoulli_edge_sample(g, 0.4, 123).edges
        b = bernoulli_edge_sample(g, 0.4, 123).edges
        c = bernoulli_edge_sample(g, 0.4, 124).edges
        assert a == b
        assert a != c  # seeds 123 and 124 happen to differ on this graph

    def test_sizes_in_binomial_range_for_fixed_seeds(self):
        g, _ = complete_bipartite(25, 40)  # m = 1000
        for seed in range(100):
            size = bernoulli_edge_sample(g, 0.5, seed).m
            assert 400 <= size <= 600

    def test_sorted_order_cache_cannot_leak(self):
        g = random_graph(12, 0.5, random.Random(5))
        before_text = hypergraph_to_text(g)
        before_sample = bernoulli_edge_sample(g, 0.4, 9).edges
        before_repr, before_hash = repr(g), hash(g)
        order = g.sorted_edges()
        assert order == sorted(g.edges)
        order.reverse()
        order.append((0, 99))
        assert g.sorted_edges() == sorted(g.edges)
        assert hypergraph_to_text(g) == before_text
        assert bernoulli_edge_sample(g, 0.4, 9).edges == before_sample
        assert g == Hypergraph(g.k, g.n, g.edges)
        assert hash(g) == before_hash == hash(Hypergraph(g.k, g.n, g.edges))
        assert repr(g) == before_repr

    def test_rows_cache_is_built_on_first_read_and_is_not_a_field(self):
        g = random_graph(12, 0.5, random.Random(6))
        h = Hypergraph(g.k, g.n, g.edges)
        # Validation's array is dropped; the cache appears only when read.
        assert "_rows" not in vars(h)
        before_repr, before_hash = repr(h), hash(h)
        assert h._rows.dtype == np.int64 and h._rows.shape == (h.m, h.k)
        assert sorted(map(tuple, h._rows.tolist())) == h.sorted_edges()
        assert repr(h) == before_repr and hash(h) == before_hash == hash(g) and h == g

    def test_mean_size_matches_p_m(self):
        g, _ = complete_bipartite(25, 40)
        p, m, seeds = 0.3, 1000, 1000
        mean = sum(bernoulli_edge_sample(g, p, s).m for s in range(seeds)) / seeds
        assert abs(mean - p * m) <= 3 * math.sqrt(p * (1 - p) * m)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestFrozenSamplingDigest:
    """The seed -> sample map, frozen as digests; any change to it is a contract break.

    The constants were recorded before sampling was vectorised, and must hold
    for every later implementation of the sampler.
    """

    SAMPLE_DIGESTS = {
        "c30_2_2": (27000, "df0747f8b2964bba57627b6447aa9c92c443313adbf9dbbf814d3176568c96d8"),
        "c4_2_3": (16384, "6989a450768de1d944eddb8b58b9759ed4b8d061287942fc02d0236739b701f5"),
        "gnp40": (264, "98fff427cfe05fa06d835a8a2abc5a5d66bde1ace28beaf1c902bb45924b0fb7"),
    }

    @staticmethod
    def _hosts():
        return {
            "c30_2_2": build_construction(30, 2, 2)[0],
            "c4_2_3": build_construction(4, 2, 3)[0],
            "gnp40": random_graph(40, 0.3, random.Random(7)),
        }

    def test_sample_digests(self):
        for name, g in self._hosts().items():
            h = hashlib.sha256()
            for p in (0.0, 0.01, 0.4, 1.0):
                for seed in range(5):
                    h.update(repr(sorted(bernoulli_edge_sample(g, p, seed).edges)).encode())
            assert (g.m, h.hexdigest()) == self.SAMPLE_DIGESTS[name], name

    def test_random_policy_batch_digests(self):
        # The "random" policy draws from the sample's generator after the
        # sample, so these catch any change in how many uniforms a sample uses.
        g = random_graph(40, 0.3, random.Random(7))
        summary = run_trials(g, 2, 4, 11, None, "random", p=0.6)
        assert _sha256(reports_to_csv(summary.reports)) == (
            "4b680f011f291b1f919de3dc948987bb745d5539121f4118e81e63e1d73c0a9d"
        )
        g, spec, _ = build_construction(3, 2, 3)
        summary = run_trials(g, 2, 4, 11, spec, "random", p=0.3)
        assert _sha256(reports_to_csv(summary.reports)) == (
            "7d16fc2663a464d4309b6ea0eb3489528133561225dce5fc5988794791b33b6b"
        )


class TestTextFormats:
    def test_hypergraph_round_trip(self):
        g, _ = complete_multipartite([2, 3, 4])
        text = hypergraph_to_text(g)
        assert text.splitlines()[0] == "3 9 24"
        assert hypergraph_from_text(text) == g

    def test_partition_round_trip(self):
        spec = PartitionSpec(((0, 1), (), (2, 4)))
        assert partition_from_text(partition_to_text(spec)) == spec

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="empty hypergraph"):
            hypergraph_from_text("")
        with pytest.raises(ValueError, match="non-integer header"):
            hypergraph_from_text("2 x 1\n")
        with pytest.raises(ValueError, match="empty partition"):
            partition_from_text("")
        with pytest.raises(ValueError, match="non-integer vertex in partition"):
            partition_from_text("0 x\n")
        with pytest.raises(ValueError, match="header"):
            hypergraph_from_text("2 3\n")
        with pytest.raises(ValueError, match="promises"):
            hypergraph_from_text("2 3 2\n0 1\n")
        with pytest.raises(ValueError, match="does not have"):
            hypergraph_from_text("2 3 1\n0 1 2\n")
        with pytest.raises(ValueError, match="non-integer"):
            hypergraph_from_text("2 3 1\n0 x\n")
        with pytest.raises(ValueError, match=r"repeated edge \(0, 1\)"):
            hypergraph_from_text("2 4 2\n0 1\n1 0\n")
