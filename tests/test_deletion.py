"""Randomized extraction: parameters, determinism, freeness, trials, serialization."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from itertools import product

import pytest

from krsfree import (
    GENERATOR_ID,
    EdgeSubset,
    Hypergraph,
    build_construction,
    complete_bipartite,
    complete_multipartite,
    count_copies,
    deletion_params,
    derive_trial_seed,
    expectation_lower_bound,
    extract_free_subgraph,
    reports_to_csv,
    run_trials,
    summary_to_json,
)
from krsfree.deletion import EDGE_CHOICE_POLICIES, REPORT_CSV_COLUMNS

from corpus import graph_corpus, kgraph_corpus


class TestParams:
    def test_worked_example(self):
        params = deletion_params(27, 2, 2)
        assert params.q == 3
        assert params.p == pytest.approx(1 / 6, rel=1e-12)
        assert params.guarantee == pytest.approx(2.25, rel=1e-12)

    def test_single_edge(self):
        params = deletion_params(1, 3, 2)
        assert params.p == 0.5
        assert params.guarantee == 0.25

    def test_graph_case_exponent(self):
        for r in range(2, 6):
            assert deletion_params(100, r, 2).q == r + 1

    def test_hypergraph_exponent(self):
        assert deletion_params(128, 2, 3).q == 7

    def test_p_range(self):
        for m in (1, 2, 10, 1000, 10**6):
            for r, k in ((2, 2), (3, 2), (2, 3)):
                p = deletion_params(m, r, k).p
                assert 0 < p <= 0.5

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="m >= 1"):
            deletion_params(0, 2, 2)
        with pytest.raises(ValueError, match="r >= 2"):
            deletion_params(5, 1, 2)
        with pytest.raises(ValueError, match="k >= 2"):
            deletion_params(5, 2, 1)


class TestTrialSeeds:
    def test_deterministic(self):
        assert derive_trial_seed(7, 0) == derive_trial_seed(7, 0)

    def test_spread(self):
        seeds = {derive_trial_seed(0, i) for i in range(200)}
        assert len(seeds) == 200

    def test_base_seed_matters(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_trial_seed(-1, 0)


class TestExtract:
    def test_forced_full_sample_on_k22(self):
        g, _ = complete_bipartite(2, 2)
        for policy in EDGE_CHOICE_POLICIES:
            sub, rep = extract_free_subgraph(g, 2, seed=0, edge_choice=policy, p=1.0)
            assert rep.edges_sampled == 4
            assert rep.copies_found == 1
            assert rep.edges_deleted == 1
            assert sub.as_hypergraph().m == 3
            assert rep.freeness_verified

    def test_lex_policy_deletes_smallest_edge(self):
        g, _ = complete_bipartite(2, 2)
        sub, _ = extract_free_subgraph(g, 2, seed=0, edge_choice="lex", p=1.0)
        assert (0, 2) not in sub.edges

    def test_empty_host(self):
        g = Hypergraph(2, 4, frozenset())
        sub, rep = extract_free_subgraph(g, 2, seed=3)
        assert sub.edges == frozenset()
        assert rep.freeness_verified and rep.final_size == 0
        assert rep.vacuous_regime

    def test_deterministic_per_seed(self):
        g, _ = complete_bipartite(4, 6)
        for policy in EDGE_CHOICE_POLICIES:
            a, ra = extract_free_subgraph(g, 2, seed=99, edge_choice=policy, p=0.7)
            b, rb = extract_free_subgraph(g, 2, seed=99, edge_choice=policy, p=0.7)
            assert a.edges == b.edges
            assert ra == rb

    def test_report_accounting(self):
        g, _ = complete_bipartite(4, 5)
        for seed in range(10):
            sub, rep = extract_free_subgraph(g, 2, seed=seed, p=0.8)
            assert rep.final_size == rep.edges_sampled - rep.edges_deleted
            assert rep.final_size == len(sub.edges)
            assert rep.final_size >= rep.edges_sampled - rep.copies_found
            assert rep.generator == GENERATOR_ID

    def test_output_nested_in_sample(self):
        # The run draws its sample through bernoulli_edge_sample's seed-to-sample
        # map, at the default p as well as a given one, under every policy.
        from krsfree import bernoulli_edge_sample

        hosts = [complete_bipartite(4, 4), build_construction(3, 2, 2)[:2], build_construction(2, 2, 3)[:2]]
        for g, parts in hosts:
            for spec, policy, p, seed in product((None, parts), EDGE_CHOICE_POLICIES, (None, 0.6), (0, 1, 2, 5)):
                sub, rep = extract_free_subgraph(g, 2, seed, spec, policy, p)
                sample = bernoulli_edge_sample(g, rep.p, seed)
                assert rep.edges_sampled == sample.m
                assert sub.edges <= sample.edges <= g.edges

    def test_freeness_absolute_over_corpus(self):
        for g in graph_corpus(40, max_n=9, seed=616):
            for policy in EDGE_CHOICE_POLICIES:
                sub, rep = extract_free_subgraph(g, 2, seed=11, edge_choice=policy, p=0.9)
                assert rep.freeness_verified
                assert count_copies(sub.as_hypergraph(), 2) == 0

    def test_freeness_on_kgraphs(self):
        for g in kgraph_corpus(15, seed=717):
            sub, rep = extract_free_subgraph(g, 2, seed=4, p=0.9)
            assert rep.freeness_verified
            assert count_copies(sub.as_hypergraph(), 2) == 0

    def test_freeness_partitioned(self):
        g, spec = complete_multipartite([2, 4, 6])
        sub, rep = extract_free_subgraph(g, 2, seed=8, spec=spec, p=0.9)
        assert rep.freeness_verified
        assert count_copies(sub.as_hypergraph(), 2, spec) == 0

    @pytest.mark.parametrize("anchored", [False, True])
    @pytest.mark.parametrize("policy", EDGE_CHOICE_POLICIES)
    def test_trial_validates_no_hypergraph(self, monkeypatch, anchored, policy):
        """Samples and the final subgraph are subsets of a valid host: a trial
        builds no Hypergraph through the validator."""
        g, spec, _ = build_construction(30, 2, 2)
        calls = []
        validate = Hypergraph.__post_init__
        monkeypatch.setattr(Hypergraph, "__post_init__", lambda h: calls.append(h) or validate(h))
        final, report = extract_free_subgraph(g, 2, 11, spec if anchored else None, policy)
        assert calls == []
        assert report.freeness_verified and report.copies_found > 0
        assert final.host is g and final.m == report.final_size
        monkeypatch.undo()
        assert final.as_hypergraph() == Hypergraph(g.k, g.n, final.edges)

    def test_vacuous_flag(self):
        g, _ = complete_bipartite(2, 2)  # m = 4 < 2^3
        _, rep = extract_free_subgraph(g, 2, seed=0)
        assert rep.vacuous_regime
        g2, _ = complete_bipartite(3, 9)  # m = 27 >= 2^3
        _, rep2 = extract_free_subgraph(g2, 2, seed=0)
        assert not rep2.vacuous_regime
        # At the boundary: m = 7 lies below 2^3, m = 8 does not.
        assert extract_free_subgraph(complete_bipartite(1, 7)[0], 2, seed=0)[1].vacuous_regime
        assert not extract_free_subgraph(complete_bipartite(2, 4)[0], 2, seed=0)[1].vacuous_regime

    def test_vacuous_flag_builds_no_power_of_two(self):
        # q = 2^28 - 1 on this one-edge host: 2^q alone is a 32 MB integer.
        g, _, cspec = build_construction(1, 2, 28)
        start = time.perf_counter()
        _, rep = extract_free_subgraph(g, 2, seed=0)
        assert time.perf_counter() - start < 0.5
        assert rep.vacuous_regime and cspec.q == 2**28 - 1

    def test_a_trial_checks_one_edge_subset(self, monkeypatch):
        """The sample and the survivors are sub-hypergraphs of the host; the
        subgraph a trial returns is the one EdgeSubset it checks."""
        g, spec, _ = build_construction(30, 2, 2)
        calls = []
        check = EdgeSubset.__post_init__
        monkeypatch.setattr(EdgeSubset, "__post_init__", lambda sub: calls.append(sub) or check(sub))
        final, _ = extract_free_subgraph(g, 2, 11, spec)
        assert len(calls) == 1 and calls[0] is final
        calls.clear()
        run_trials(g, 2, 5, base_seed=3, spec=spec)
        assert len(calls) == 5

    def test_trial_sample_is_the_public_sample(self, monkeypatch):
        from krsfree import bernoulli_edge_sample, deletion

        seen = []
        enumerate_copies = deletion.enumerate_copies
        monkeypatch.setattr(deletion, "enumerate_copies", lambda h, *a: seen.append(h) or enumerate_copies(h, *a))
        hosts = [*graph_corpus(30, max_n=9, seed=646), *kgraph_corpus(10, seed=656), build_construction(3, 2, 2)[0]]
        for g in hosts:
            for seed in (0, 1, 7):
                _, rep = extract_free_subgraph(g, 2, seed)
                sample = seen.pop()
                assert sample == bernoulli_edge_sample(g, rep.p, seed).as_hypergraph()
                assert sample == Hypergraph(g.k, g.n, sample.edges) and sample.m == rep.edges_sampled

    def test_domain_errors(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="r must be >= 2"):
            extract_free_subgraph(g, 1, seed=0)
        with pytest.raises(ValueError, match="policy"):
            extract_free_subgraph(g, 2, seed=0, edge_choice="best")
        with pytest.raises(ValueError, match="seed"):
            extract_free_subgraph(g, 2, seed=-1)
        with pytest.raises(ValueError, match="outside"):
            extract_free_subgraph(g, 2, seed=0, p=1.0001)
        with pytest.raises(ValueError, match="outside"):
            extract_free_subgraph(g, 2, seed=0, p=-0.1)
        # p is checked before the seed, as bernoulli_edge_sample does.
        with pytest.raises(ValueError, match="outside"):
            extract_free_subgraph(g, 2, seed=-1, p=1.5)


class TestRunTrials:
    def test_single_trial_equals_single_report(self):
        g, _ = complete_bipartite(3, 9)
        summary = run_trials(g, 2, num_trials=1, base_seed=17)
        _, rep = extract_free_subgraph(g, 2, seed=derive_trial_seed(17, 0))
        assert summary.reports == (rep,)
        assert summary.mean_final_size == rep.final_size
        assert summary.min_final_size == summary.max_final_size == rep.final_size

    def test_guarantee_passthrough(self):
        g, _ = complete_bipartite(3, 9)
        summary = run_trials(g, 2, num_trials=5, base_seed=0)
        assert summary.guarantee == deletion_params(27, 2, 2).guarantee
        assert summary.q == 3 and summary.m == 27

    def test_policy_recorded(self):
        g, _ = complete_bipartite(3, 3)
        summary = run_trials(g, 2, num_trials=3, base_seed=1, edge_choice="greedy")
        assert summary.policy == "greedy"
        assert all(rep.policy == "greedy" for rep in summary.reports)

    def test_fraction_and_max_flags(self):
        g, _ = complete_bipartite(3, 9)
        summary = run_trials(g, 2, num_trials=50, base_seed=23)
        meeting = sum(
            1 for rep in summary.reports if rep.final_size >= summary.guarantee - 1e-9
        )
        assert summary.fraction_meeting_guarantee == meeting / 50
        expect_max = summary.max_final_size >= math.ceil(summary.guarantee - 1e-9)
        assert summary.max_meets_guarantee == expect_max

    def test_rejects_zero_trials(self):
        g, _ = complete_bipartite(2, 2)
        with pytest.raises(ValueError, match="num_trials"):
            run_trials(g, 2, num_trials=0, base_seed=0)


class TestExpectationBound:
    def test_worked_example(self):
        eb = expectation_lower_bound(27, 2, 2)
        assert eb.p == pytest.approx(1 / 6, rel=1e-12)
        assert eb.relaxed_value == pytest.approx(3.375, rel=1e-12)
        assert eb.relaxed_value == pytest.approx((0.5 - 0.125) * 27 ** (2 / 3), rel=1e-12)
        assert eb.value == pytest.approx(4.5 - 4 * (1 / 6) ** 4 * math.comb(27, 2), rel=1e-12)
        assert eb.value >= eb.floor

    def test_single_edge_boundary(self):
        for r, k in ((2, 2), (3, 2), (2, 3)):
            eb = expectation_lower_bound(1, r, k)
            assert eb.value == pytest.approx(0.5, rel=1e-12)
            assert eb.value >= eb.floor - 1e-12

    def test_no_relaxed_value_for_hypergraphs(self):
        assert expectation_lower_bound(128, 2, 3).relaxed_value is None

    def test_large_r_underflows_instead_of_overflowing(self):
        # float(m) ** r overflowed at (10^6, 60); comb(m, r) times a power that
        # underflows to 0.0 overflowed converting the count to float.
        for m, r in ((10**6, 60), (10**6, 100), (10**4, 200)):
            eb = expectation_lower_bound(m, r, 2)
            assert eb.value == pytest.approx(eb.p * m, rel=1e-12)
            assert eb.relaxed_value == pytest.approx(eb.p * m, rel=1e-12)
            assert eb.value >= eb.floor

    def test_relaxed_below_main_for_graphs(self):
        # the relaxed count bound is weaker, so the relaxed size bound is lower
        for m in (2, 5, 27, 1000):
            eb = expectation_lower_bound(m, 2, 2)
            assert eb.relaxed_value <= eb.value + 1e-12


class TestSerialization:
    def test_csv_shape_and_determinism(self):
        g, _ = complete_bipartite(3, 9)
        summary = run_trials(g, 2, num_trials=6, base_seed=2)
        text = reports_to_csv(summary.reports)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(REPORT_CSV_COLUMNS)
        assert len(rows) == 7
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(6)]
        assert text == reports_to_csv(summary.reports)

    def test_csv_row_matches_report(self):
        g, _ = complete_bipartite(3, 3)
        summary = run_trials(g, 2, num_trials=1, base_seed=9)
        rep = summary.reports[0]
        row = list(csv.reader(io.StringIO(reports_to_csv(summary.reports))))[1]
        assert row[1] == str(rep.seed)
        assert int(row[3]) == rep.edges_sampled
        assert int(row[6]) == rep.final_size
        assert row[7] == "true"
        assert row[8] == GENERATOR_ID

    def test_json_summary(self):
        g, _ = complete_bipartite(3, 9)
        summary = run_trials(g, 2, num_trials=4, base_seed=31)
        payload = json.loads(summary_to_json(summary))
        assert payload["schema"] == "v1"
        assert payload["num_trials"] == 4
        assert payload["generator"] == GENERATOR_ID
        assert len(payload["reports"]) == 4
        assert payload["reports"][0]["seed"] == derive_trial_seed(31, 0)
        assert payload["guarantee"] == float(f"{summary.guarantee:.12g}")

    def test_report_json_dict_fields(self):
        g, _ = complete_bipartite(2, 2)
        d = json.loads(summary_to_json(run_trials(g, 2, num_trials=1, base_seed=1, p=1.0)))["reports"][0]
        for key in REPORT_CSV_COLUMNS[1:]:
            assert key in d
        assert d["freeness_verified"] is True


class TestFrozenPolicyDigests:
    """Every policy's batches, frozen as sha256 of reports_to_csv + summary_to_json.

    At p = 0.6 and 0.9 the samples keep overlapping copies, so the three
    policies delete different edges; any change to which edge a policy picks,
    or to the draws of "random", shows up here.
    """

    DIGESTS = {
        "c3_2_2_parts": {
            "lex": "01e4a506eea0fdcb37ec0c2735582db87840bd710f8c8fb4a1c9eb6bbe4ebbc7",
            "random": "9f5987581e5736a8799fee60baee37d4d244b264685167710384b621ca966081",
            "greedy": "bc9beca5eda0ba098b3dedae1b2b00245d53a6028f96700f99ef0116c917ae00",
        },
        "c3_2_2": {
            "lex": "01e4a506eea0fdcb37ec0c2735582db87840bd710f8c8fb4a1c9eb6bbe4ebbc7",
            "random": "9f5987581e5736a8799fee60baee37d4d244b264685167710384b621ca966081",
            "greedy": "bc9beca5eda0ba098b3dedae1b2b00245d53a6028f96700f99ef0116c917ae00",
        },
        "c2_2_3_parts": {
            "lex": "c625a1345e95d9fd119201150100c6133ca7c8c9cf9172ff9a1610633f3b63ea",
            "random": "21aae911816d3654583ebb1b67e48e1c49a37da9e8d8ad119569548fa9190d31",
            "greedy": "052aaec35e2e2e017aa950690572182bc8c0034215d8b4618db5ace33b4ce1f1",
        },
        "c2_2_3": {
            "lex": "def99f1b1ab603fc81bfa81628b679ce05bdbc7eca8044e7567d90dc0e6b986f",
            "random": "68647a4cd7eed50b1d33d242bb2f019f8ce82fb07c5c25af658630b035854410",
            "greedy": "052aaec35e2e2e017aa950690572182bc8c0034215d8b4618db5ace33b4ce1f1",
        },
        "graph_corpus": {
            "lex": "504f8ab1dec4ae450ac8655ddc53979ac9dc26b4cb32ac97f9a67a02056d6f30",
            "random": "7e7ab8d19825fc69e5a65c6298a753da50fb63ca9254e871f556b2e38fc3c617",
            "greedy": "7195aa4573e7e027f25f1087b44ffffef0c32b500a220179b96708d8b963b9c4",
        },
    }

    @staticmethod
    def _hosts():
        g322, s322, _ = build_construction(3, 2, 2)
        g223, s223, _ = build_construction(2, 2, 3)
        return {
            "c3_2_2_parts": ([g322], s322),
            "c3_2_2": ([g322], None),
            "c2_2_3_parts": ([g223], s223),
            "c2_2_3": ([g223], None),
            "graph_corpus": (graph_corpus(30, max_n=9, seed=616)[2:], None),
        }

    def test_batch_digests(self):
        for name, (hosts, spec) in self._hosts().items():
            for policy in EDGE_CHOICE_POLICIES:
                h = hashlib.sha256()
                for g in hosts:
                    for p in (None, 0.6, 0.9):
                        summary = run_trials(g, 2, 3, 5, spec, policy, p)
                        h.update(reports_to_csv(summary.reports).encode())
                        h.update(summary_to_json(summary).encode())
                assert h.hexdigest() == self.DIGESTS[name][policy], (name, policy)

    def test_policies_diverge_on_overlapping_copies(self):
        g, spec, _ = build_construction(2, 2, 3)
        outcomes = {
            policy: [
                (rep.edges_deleted, rep.final_size)
                for rep in run_trials(g, 2, 3, 5, spec, policy, 0.9).reports
            ]
            for policy in EDGE_CHOICE_POLICIES
        }
        assert len({tuple(v) for v in outcomes.values()}) == len(EDGE_CHOICE_POLICIES)

    def test_greedy_is_linear_in_copy_edge_incidences(self):
        # K_{12,12} at p = 1 keeps all 4,356 overlapping C4s: recounting the
        # live copies through an edge on demand, or rescanning the copies for
        # every victim, would be quadratic in them.
        g, spec = complete_bipartite(12, 12)
        start = time.perf_counter()
        _, rep = extract_free_subgraph(g, 2, seed=0, spec=spec, edge_choice="greedy", p=1.0)
        assert time.perf_counter() - start < 1.0
        assert rep.copies_found == 4356
        assert rep.freeness_verified
