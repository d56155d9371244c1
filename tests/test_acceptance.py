"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go;
plain `pytest -v` shows the same verdicts as test outcomes.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction
from itertools import combinations, product

from krsfree import (
    EdgeSubset,
    PatternSpec,
    VERDICT_PROVES,
    build_construction,
    common_extension_count_dS,
    complete_bipartite,
    count_copies,
    edge_density_a,
    enumerate_matchings,
    expectation_lower_bound,
    extensions_of_matching,
    is_free,
    kst_certificate,
    max_free_subgraph,
    proposition_lower_bound,
    run_trials,
    theorem_upper_bound,
)
from krsfree.cli import main as cli_main

from bruteforce import (
    brute_copies_unordered,
    brute_count_partite_copies,
    brute_max_free,
    copies_as_masks,
)
from corpus import geometric_partite_corpus, graph_corpus

BASE_SEED = 20260814


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_counting_bounds_and_extension_caps():
    start = time.perf_counter()
    corpus = graph_corpus(500)
    violations = 0
    matchings_checked = 0
    for g in corpus:
        m = g.m
        for r in (2, 3):
            copies = count_copies(g, r)
            tight = 2**r * math.comb(m, r)
            if copies > tight:
                violations += 1
            if m >= r and tight > 2 * m**r:
                violations += 1
            for matching in enumerate_matchings(g, r):
                matchings_checked += 1
                if len(extensions_of_matching(g, matching, r)) > 2**r:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and len(corpus) >= 500 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"{len(corpus)} graphs, {matchings_checked} matchings, "
        f"{violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert len(corpus) >= 500
    assert elapsed < 60.0


def test_criterion_2_graph_deletion_statistics():
    start = time.perf_counter()
    g, _, cspec = build_construction(3, 2, 2)
    assert cspec.m == 27
    summary = run_trials(g, 2, num_trials=1000, base_seed=BASE_SEED)
    finals = [rep.final_size for rep in summary.reports]
    all_free = all(rep.freeness_verified for rep in summary.reports)
    std = statistics.stdev(finals)
    threshold = 2.25 - 3 * std / math.sqrt(1000)
    elapsed = time.perf_counter() - start
    ok = (
        all_free
        and summary.mean_final_size >= threshold
        and summary.max_final_size >= 3
        and elapsed < 60.0
    )
    _verdict(
        2,
        ok,
        f"free 1000/1000={all_free}, mean {summary.mean_final_size:.3f} >= "
        f"{threshold:.3f}, max {summary.max_final_size} >= 3, {elapsed:.1f}s",
    )
    assert all_free
    assert summary.mean_final_size >= threshold
    assert summary.max_final_size >= 3
    assert elapsed < 60.0


def test_criterion_3_hypergraph_deletion_statistics():
    start = time.perf_counter()
    g, spec, cspec = build_construction(2, 2, 3)
    assert cspec.m == 128 and cspec.q == 7
    summary = run_trials(g, 2, num_trials=1000, base_seed=BASE_SEED, spec=spec)
    finals = [rep.final_size for rep in summary.reports]
    all_free = all(rep.freeness_verified for rep in summary.reports)
    guarantee = 0.25 * 128 ** (6 / 7)
    assert abs(guarantee - 16.0) < 1e-9
    std = statistics.stdev(finals)
    threshold = guarantee - 3 * std / math.sqrt(1000)
    elapsed = time.perf_counter() - start
    ok = (
        all_free
        and summary.mean_final_size >= threshold
        and summary.max_final_size >= 16
        and elapsed < 60.0
    )
    _verdict(
        3,
        ok,
        f"free 1000/1000={all_free}, mean {summary.mean_final_size:.3f} >= "
        f"{threshold:.3f}, max {summary.max_final_size} >= 16, {elapsed:.1f}s",
    )
    assert all_free
    assert summary.mean_final_size >= threshold
    assert summary.max_final_size >= 16
    assert elapsed < 60.0


def test_criterion_4_expectation_chain():
    grid = sorted({max(1, round(10 ** (i / 6))) for i in range(0, 37)})
    assert grid[0] == 1 and grid[-1] == 10**6
    failures = []
    for r in (2, 3, 4):
        for k in (2, 3):
            for m in grid:
                eb = expectation_lower_bound(m, r, k)
                tol = 1e-9 * max(1.0, abs(eb.floor))
                if eb.value < eb.floor - tol:
                    failures.append((m, r, k))
    # graph-case spot check: the relaxed expression collapses to (1/2 - 1/8) m^(2/3)
    spot_ok = True
    for m in (1, 27, 1000, 10**6):
        eb = expectation_lower_bound(m, 2, 2)
        closed = (0.5 - 0.125) * m ** (2 / 3)
        if not math.isclose(eb.relaxed_value, closed, rel_tol=1e-12):
            spot_ok = False
    ok = not failures and spot_ok
    _verdict(
        4,
        ok,
        f"{len(grid)} grid points x 6 (r,k) pairs, {len(failures)} failures, "
        f"spot check {'ok' if spot_ok else 'failed'}",
    )
    assert not failures
    assert spot_ok


def test_criterion_5_tightness_and_certificate_soundness():
    pattern = PatternSpec.krr(2)

    results = {}
    for name, (nu, nw) in {"K24": (2, 4), "K33": (3, 3)}.items():
        g, _ = complete_bipartite(nu, nw)
        brute_opt, _ = brute_max_free(g, copies_as_masks(g, brute_copies_unordered(g, 2)))
        oracle = max_free_subgraph(g, pattern)
        results[name] = (brute_opt, oracle.optimum, oracle.proof_of_optimality, g.m)

    frozen = {"K24": 5, "K33": 6}
    values_ok = all(
        results[name][0] == results[name][1] == frozen[name] and results[name][2]
        for name in frozen
    )
    bound_ok = (
        frozen["K24"] <= theorem_upper_bound(8, 2, s=2) + 1e-9
        and frozen["K33"] <= theorem_upper_bound(9, 2, s=2) + 1e-9
    )

    g44, spec44 = complete_bipartite(4, 4)
    edges44 = g44.sorted_edges()
    rng = random.Random(BASE_SEED)
    oriented = PatternSpec.krs_oriented(2, 2)
    false_positives = 0
    proved = 0
    for _ in range(1000):
        density = rng.random()
        sub = EdgeSubset(g44, frozenset(e for e in edges44 if rng.random() < density))
        report = kst_certificate(sub, spec44, 2, 2)
        if report.verdict == VERDICT_PROVES:
            proved += 1
            free, _ = is_free(sub, oriented, spec44)
            if free:
                false_positives += 1
    soundness_ok = false_positives == 0 and proved > 0

    ok = values_ok and bound_ok and soundness_ok
    _verdict(
        5,
        ok,
        f"optima K24={results['K24'][1]} K33={results['K33'][1]} (brute-confirmed), "
        f"bounds 8 and {theorem_upper_bound(9, 2, s=2):.3f}, "
        f"{proved} proving subgraphs, {false_positives} false positives",
    )
    assert values_ok
    assert bound_ok
    assert soundness_ok


def test_criterion_6_inductive_bound_and_dS_identity():
    instances = geometric_partite_corpus(200, r=2, seed=BASE_SEED)
    r = 2
    bound_violations = 0
    identity_violations = 0
    for g, spec in instances:
        sizes = tuple(len(p) for p in spec.parts)
        a = edge_density_a(g, spec)
        assert a >= r
        bound = proposition_lower_bound(a, sizes, r)
        brute = brute_count_partite_copies(g, spec, r)
        fast = count_copies(g, r, spec)
        assert brute == fast
        if Fraction(brute) < bound:
            bound_violations += 1
        pools = [list(combinations(part, r)) for part in spec.parts[:-1]]
        total = sum(
            math.comb(common_extension_count_dS(g, spec, list(choice)), r)
            for choice in product(*pools)
        )
        if total != brute:
            identity_violations += 1
    ok = bound_violations == 0 and identity_violations == 0 and len(instances) >= 200
    _verdict(
        6,
        ok,
        f"{len(instances)} instances, {bound_violations} bound violations, "
        f"{identity_violations} identity violations",
    )
    assert len(instances) >= 200
    assert bound_violations == 0
    assert identity_violations == 0


def test_criterion_7_oracle_matches_exhaustive_search():
    pattern = PatternSpec.krr(2)
    checked = 0
    mismatches = 0
    bad_witnesses = 0
    for g in graph_corpus(500):
        if g.m > 16:
            continue
        checked += 1
        masks = copies_as_masks(g, brute_copies_unordered(g, 2))
        brute_opt, _ = brute_max_free(g, masks)
        result = max_free_subgraph(g, pattern)
        if not (result.proof_of_optimality and result.optimum == brute_opt):
            mismatches += 1
        free, _ = is_free(result.witness, pattern)
        if not free or len(result.witness.edges) != result.optimum:
            bad_witnesses += 1
    ok = mismatches == 0 and bad_witnesses == 0 and checked > 0
    _verdict(
        7,
        ok,
        f"{checked} graphs with m <= 16, {mismatches} mismatches, "
        f"{bad_witnesses} bad witnesses",
    )
    assert checked > 0
    assert mismatches == 0
    assert bad_witnesses == 0


def test_criterion_8_reproducible_extraction(tmp_path, capsys):
    argv_base = [
        "extract", "--construct", "--k", "2", "--r", "2", "--n", "3",
        "--trials", "50", "--seed", "12345",
    ]
    outputs = []
    for tag in ("first", "second"):
        prefix = tmp_path / tag
        code = cli_main(argv_base + ["--out", str(prefix)])
        assert code == 0
        outputs.append(
            ((tmp_path / (tag + ".csv")).read_bytes(), (tmp_path / (tag + ".json")).read_bytes())
        )
    capsys.readouterr()
    rerun_identical = outputs[0] == outputs[1]
    _verdict(8, rerun_identical, f"rerun identical={rerun_identical}")
    assert rerun_identical
