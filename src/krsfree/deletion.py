"""Sparsify-then-delete extraction of pattern-free subgraphs, plus the closed-form bounds.

The extraction keeps each edge with probability p = (1/2) * m^(-1/q), where
q = 1 + r + ... + r^(k-1), enumerates the pattern copies that survived, and
deletes one edge from every copy that is still fully present. The expected
final size is at least (1/4) * m^((q-1)/q).

Randomness contract: each run is a pure function of (graph, r, seed, policy).
Trial i of a batch uses derive_trial_seed(base_seed, i). The bit generator is
recorded in every report (see hypergraph.GENERATOR_ID).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .hypergraph import (
    GENERATOR_ID,
    EdgeSubset,
    Hypergraph,
    PartitionSpec,
    _sample,
)
from .patterns import (
    copy_count_upper_bound, copy_count_upper_bound_relaxed, count_copies, enumerate_copies, pattern_exponent
)

EDGE_CHOICE_POLICIES = ("lex", "random", "greedy")

REPORT_CSV_COLUMNS = (
    "trial",
    "seed",
    "p",
    "edges_sampled",
    "copies_found",
    "edges_deleted",
    "final_size",
    "freeness_verified",
    "generator",
    "policy",
)


@dataclass(frozen=True)
class DeletionParams:
    """Derived run parameters for a host with m edges and the side-r pattern in a k-graph."""

    m: int
    r: int
    k: int
    q: int
    p: float
    guarantee: float


def deletion_params(m: int, r: int, k: int) -> DeletionParams:
    """p = (1/2) * m^(-1/q) and the guaranteed expected size (1/4) * m^((q-1)/q)."""
    if m < 1:
        raise ValueError("need m >= 1 edges")
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    q = pattern_exponent(r, k)
    p = 0.5 * m ** (-1.0 / q)
    guarantee = 0.25 * m ** ((q - 1) / q)
    return DeletionParams(m=m, r=r, k=k, q=q, p=p, guarantee=guarantee)


@dataclass(frozen=True)
class DeletionRunReport:
    """What one extraction run did, sufficient to reproduce it exactly."""

    seed: int
    p: float
    edges_sampled: int
    copies_found: int
    edges_deleted: int
    final_size: int
    freeness_verified: bool
    generator: str
    policy: str
    vacuous_regime: bool  # m < 2^q: the expectation bound is too small to test statistically


@dataclass(frozen=True)
class TrialSummary:
    """Aggregates over a seeded batch of extraction runs, in trial-index order."""

    m: int
    r: int
    k: int
    q: int
    p: float
    policy: str
    generator: str
    num_trials: int
    base_seed: int
    guarantee: float
    mean_final_size: float
    min_final_size: int
    max_final_size: int
    mean_copies_found: float
    fraction_meeting_guarantee: float
    max_meets_guarantee: bool  # integer max compared against ceil(guarantee)
    vacuous_regime: bool
    reports: tuple[DeletionRunReport, ...]


def derive_trial_seed(base_seed: int, index: int) -> int:
    """Trial seed rule: first 64-bit word of SeedSequence([base_seed, index])."""
    if base_seed < 0 or index < 0:
        raise ValueError("base_seed and index must be non-negative")
    ss = np.random.SeedSequence([int(base_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def extract_free_subgraph(
    g: Hypergraph,
    r: int,
    seed: int,
    spec: PartitionSpec | None = None,
    edge_choice: str = "lex",
    p: float | None = None,
) -> tuple[EdgeSubset, DeletionRunReport]:
    """One seeded run of the sparsify-then-delete extraction.

    One pass over the sample's copies in enumeration order: a copy that an
    earlier deletion already hit is skipped, and from each other copy one
    edge, the victim, is deleted. The policy picks only the victim:
      * "lex": the lexicographically smallest edge of the copy (default);
      * "random": a seeded-uniform edge of the copy, drawn from the same
        generator that produced the sample;
      * "greedy": the copy edge lying in the most still-present copies,
        ties broken lexicographically.

    The returned subgraph contains no copy of the pattern; the report records
    the verification. spec is checked on the sample, not on the host.
    """
    if r < 2:
        raise ValueError("pattern side r must be >= 2")
    if edge_choice not in EDGE_CHOICE_POLICIES:
        raise ValueError(f"unknown edge choice policy {edge_choice!r}")
    m = g.m
    if p is None:
        p = deletion_params(m, r, g.k).p if m >= 1 else 0.0
    sample, rng = _sample(g, p, seed)
    copies = [sorted(c.edge_set()) for c in enumerate_copies(sample, r, spec)]

    through: dict = {}
    for idx, cedges in enumerate(copies):
        for e in cedges:
            through.setdefault(e, []).append(idx)
    live = {e: len(ids) for e, ids in through.items()}
    hit = [False] * len(copies)
    deleted: set = set()
    for idx, cedges in enumerate(copies):
        if hit[idx]:
            continue
        if edge_choice == "lex":
            victim = cedges[0]
        elif edge_choice == "random":
            victim = cedges[int(rng.integers(len(cedges)))]
        else:
            victim = min(cedges, key=lambda e: (-live[e], e))
        deleted.add(victim)
        for j in through[victim]:
            if not hit[j]:
                hit[j] = True
                for e in copies[j]:
                    live[e] -= 1

    survivors = Hypergraph._unchecked(g.k, g.n, sample.edges - deleted)
    report = DeletionRunReport(
        seed=seed,
        p=float(p),
        edges_sampled=sample.m,
        copies_found=len(copies),
        edges_deleted=len(deleted),
        final_size=survivors.m,
        freeness_verified=count_copies(survivors, r, spec) == 0,
        generator=GENERATOR_ID,
        policy=edge_choice,
        vacuous_regime=m.bit_length() <= pattern_exponent(r, g.k),
    )
    return EdgeSubset(g, survivors.edges), report


def run_trials(
    g: Hypergraph,
    r: int,
    num_trials: int,
    base_seed: int,
    spec: PartitionSpec | None = None,
    edge_choice: str = "lex",
    p: float | None = None,
) -> TrialSummary:
    """Run num_trials seeded extractions; aggregation order is fixed by trial index.

    Each trial checks spec on its own sample, not on the host, so a host edge
    that spec does not fit raises only in the trials whose sample keeps it.
    """
    if num_trials < 1:
        raise ValueError("need num_trials >= 1")
    reports = tuple(
        extract_free_subgraph(g, r, derive_trial_seed(base_seed, i), spec, edge_choice, p)[1]
        for i in range(num_trials)
    )

    m = g.m
    guarantee = deletion_params(m, r, g.k).guarantee if m >= 1 else 0.0
    finals = [rep.final_size for rep in reports]
    mean_final = sum(finals) / num_trials
    mean_copies = sum(rep.copies_found for rep in reports) / num_trials
    meeting = sum(1 for f in finals if f >= guarantee - 1e-9)
    return TrialSummary(
        m=m,
        r=r,
        k=g.k,
        q=pattern_exponent(r, g.k),
        p=reports[0].p,
        policy=edge_choice,
        generator=GENERATOR_ID,
        num_trials=num_trials,
        base_seed=base_seed,
        guarantee=guarantee,
        mean_final_size=mean_final,
        min_final_size=min(finals),
        max_final_size=max(finals),
        mean_copies_found=mean_copies,
        fraction_meeting_guarantee=meeting / num_trials,
        max_meets_guarantee=max(finals) >= math.ceil(guarantee - 1e-9),
        vacuous_regime=reports[0].vacuous_regime,
        reports=reports,
    )


@dataclass(frozen=True)
class ExpectationBound:
    """Closed-form expected-size lower bound at the standard p.

    value:          p*m - (k!)^r * p^(r^k) * C(m, r)
    relaxed_value:  p*m - 2 * p^(r^2) * m^r     (graphs only, else None)
    floor:          (1/4) * m^((q-1)/q), which value must dominate
    """

    m: int
    r: int
    k: int
    q: int
    p: float
    value: float
    relaxed_value: float | None
    floor: float


def expectation_lower_bound(m: int, r: int, k: int) -> ExpectationBound:
    """Evaluate the expected-size bound exactly at p = (1/2) * m^(-1/q)."""
    params = deletion_params(m, r, k)
    p, q = params.p, params.q
    value = p * m - _times_power(copy_count_upper_bound(m, r, k), p, r**k)
    relaxed = p * m - _times_power(copy_count_upper_bound_relaxed(m, r), p, r * r) if k == 2 else None
    return ExpectationBound(
        m=m, r=r, k=k, q=q, p=p, value=value, relaxed_value=relaxed, floor=params.guarantee
    )


def _times_power(count: int, p: float, e: int) -> float:
    """count * p^e, in logs so that a huge count or a tiny power underflows to 0.0 rather than overflowing."""
    return math.exp(math.log(count) + e * math.log(p)) if count else 0.0


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _csv_value(value):
    """A bool as true/false, a float through _fmt_float, anything else as it is."""
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt_float(value) if isinstance(value, float) else value


def reports_to_csv(reports: tuple[DeletionRunReport, ...] | list[DeletionRunReport]) -> str:
    """One CSV row per trial, columns REPORT_CSV_COLUMNS, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_CSV_COLUMNS)
    for i, rep in enumerate(reports):
        writer.writerow([i, *(_csv_value(getattr(rep, name)) for name in REPORT_CSV_COLUMNS[1:])])
    return buf.getvalue()


def _json_fields(record: DeletionRunReport | TrialSummary) -> dict:
    """The record's dataclass fields, floats rounded through _fmt_float."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        out[f.name] = float(_fmt_float(value)) if isinstance(value, float) else value
    return out


def summary_to_json(summary: TrialSummary) -> str:
    return _v1_json({**_json_fields(summary), "reports": [_json_fields(rep) for rep in summary.reports]})


def _v1_json(payload: dict) -> str:
    """The payload tagged "schema": "v1", as JSON with sorted keys, a 2-space indent and a final newline."""
    return json.dumps({"schema": "v1", **payload}, indent=2, sort_keys=True) + "\n"
