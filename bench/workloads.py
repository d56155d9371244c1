"""The four benchmark workloads.

Each workload is a closed loop: one process, one client, one operation at a
time. A workload builds its inputs from the run seed in `setup`, runs one
operation untraced in `run_op`, checks an operation's outputs in `check`, and
repeats the operation with spans around every call into a krsfree layer in
`traced_op`. Layers are the krsfree modules: extremal, hypergraph, patterns,
deletion, oracle and cli.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from math import comb, factorial, prod

import numpy as np

from krsfree import cli
from krsfree.deletion import (
    extract_free_subgraph,
    reports_to_csv,
    run_trials,
    summary_to_json,
)
from krsfree.extremal import build_construction
from krsfree.hypergraph import (
    Hypergraph,
    PartitionSpec,
    bernoulli_edge_sample,
    complete_bipartite,
    hypergraph_to_text,
    read_hypergraph,
)
from krsfree.oracle import PatternSpec, is_free, iter_pattern_copies, max_free_subgraph
from krsfree.patterns import count_copies, count_matchings, enumerate_copies

from tracing import Tracer, duration

# Per-layer metrics reported by every traced run: name -> (unit, kind).
# "time" values are 10th percentiles over the calls a run traced; "self"
# values are a parent's time minus its children's (see SELF_TIMES); "count"
# values are exact and must repeat on every traced operation of a run;
# "ratio" values are computed from counts. A layer a workload does not call
# reports 0.
PER_LAYER = {
    "machine.probe_ms": ("ms", "time"),
    "trace.overhead_ms": ("ms", "time"),
    "extremal.build_s": ("s", "time"),
    "hypergraph.validate_s": ("s", "time"),
    "hypergraph.sample_ms": ("ms", "time"),
    "hypergraph.draws": ("count", "count"),
    "hypergraph.sampled_edges": ("count", "count"),
    "hypergraph.parse_ms": ("ms", "time"),
    "patterns.enumerate_ms": ("ms", "time"),
    "patterns.verify_ms": ("ms", "time"),
    "patterns.count_copies_ms": ("ms", "time"),
    "patterns.count_matchings_ms": ("ms", "time"),
    "patterns.copies_found": ("count", "count"),
    "patterns.rsets_scanned": ("count", "count"),
    "patterns.copies_per_rset": ("ratio", "ratio"),
    "deletion.trial_ms": ("ms", "time"),
    "deletion.self_ms": ("ms", "self"),
    "deletion.serialize_ms": ("ms", "time"),
    "deletion.edges_deleted": ("count", "count"),
    "oracle.proofs_closed": ("count", "count"),
    "oracle.kept_edges": ("count", "count"),
    "cli.self_ms": ("ms", "self"),
}
# A layer's self time: the call's time minus the times of the calls it makes,
# each repeated on its own. "cli.main_ms" is recorded but not reported.
SELF_TIMES = {
    "deletion.self_ms": ("deletion.trial_ms", ("hypergraph.sample_ms", "patterns.enumerate_ms", "patterns.verify_ms")),
    "cli.self_ms": ("cli.main_ms", ("hypergraph.parse_ms", "patterns.count_copies_ms", "patterns.count_matchings_ms")),
}
ORACLE_INSTANCES = ("k5_5", "k3_9", "k4_16", "c2_2_3")
for _inst in ORACLE_INSTANCES:
    PER_LAYER[f"oracle.{_inst}.copies_ms"] = ("ms", "time")
    PER_LAYER[f"oracle.{_inst}.search_s"] = ("s", "time")
    PER_LAYER[f"oracle.{_inst}.nodes"] = ("count", "count")
    PER_LAYER[f"oracle.{_inst}.nodes_per_s"] = ("1/s", "time")
    PER_LAYER[f"oracle.{_inst}.proved"] = ("count", "count")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def scan_size(g: Hypergraph, r: int, spec: PartitionSpec | None, matchings: int = 0) -> int:
    """Candidates the copy kernels scan, computed from their loop bounds.

    Anchored: one r-set per part except the last. Unanchored graphs: every
    vertex r-set. Unanchored k >= 3: every r-matching times its (k!)^(r-1)
    part assignments (pass the matching count).
    """
    if r * g.k > g.n:
        return 0
    if spec is not None:
        if any(len(part) < r for part in spec.parts):
            return 0
        return prod(comb(len(part), r) for part in spec.parts[:-1])
    if g.k == 2:
        return comb(g.n, r)
    return matchings * factorial(g.k) ** (r - 1)


@dataclass
class OpResult:
    """What one operation produced, reduced to the values the checks compare."""

    values: object
    items: int
    counts: dict = field(default_factory=dict)  # exact figures for the diagnostics line


class Workload:
    """Base class: subclasses fill in setup, run_op, check and traced_op."""

    def __init__(self, name: str, seed: int, reference: dict, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.first: OpResult | None = None
        self.first_problems: list[str] = []
        self.notes: list[str] = []  # differences from the reference that are not failures

    def setup(self) -> dict[str, float]:
        """Build the inputs; return the seconds spent in extremal and hypergraph."""
        raise NotImplementedError

    def run_op(self) -> OpResult:
        raise NotImplementedError

    def validate(self, out: OpResult) -> list[str]:
        """Seed-independent invariants plus the reference comparison."""
        raise NotImplementedError

    def traced_op(self, tracer: Tracer, op: int) -> tuple[OpResult, dict, dict, list[str]]:
        """Run the operation traced, then repeat its layer calls one by one.

        Returns the output, per-call layer times, the operation's exact
        counts, and any way the repeated calls failed to reproduce it.
        """
        raise NotImplementedError

    def check(self, out: OpResult) -> list[str]:
        """Fully validate the first output; later ones must repeat it exactly."""
        if self.first is None:
            self.first = out
            self.first_problems = self.validate(out)
        elif out.values != self.first.values:
            return ["output differs from the run's first operation"]
        return list(self.first_problems)


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


class ExtractWorkload(Workload):
    """Seeded run_trials batches on a tight bipartite host, plus the CSV/JSON output."""

    # One-trial batches keep an operation under 0.6 s, so that a run holds
    # 40 or more operations.
    TRIALS = 1

    def __init__(self, name: str, seed: int, reference: dict, workdir: str, base: int, anchored: bool) -> None:
        super().__init__(name, seed, reference, workdir)
        self.base = base
        self.anchored = anchored
        self.r = 2

    def setup(self) -> dict[str, float]:
        (g, spec, _cspec), t_build = _timed(build_construction, self.base, self.r, 2)
        self.host, t_validate = _timed(Hypergraph, g.k, g.n, g.edges)
        self.spec = spec if self.anchored else None
        return {"extremal.build_s": t_build, "hypergraph.validate_s": t_validate}

    def _batch(self):
        return run_trials(self.host, self.r, self.TRIALS, self.seed, self.spec, "lex")

    @staticmethod
    def _serialize(summary) -> tuple[str, str]:
        return reports_to_csv(summary.reports), summary_to_json(summary)

    def run_op(self) -> OpResult:
        summary = self._batch()
        csv_text, json_text = self._serialize(summary)
        return OpResult((summary.reports, csv_text, json_text), self.TRIALS)

    def validate(self, out: OpResult) -> list[str]:
        reports, csv_text, json_text = out.values
        problems = []
        for i, rep in enumerate(reports):
            if not rep.freeness_verified:
                problems.append(f"trial {i}: freeness_verified is false")
            if rep.final_size != rep.edges_sampled - rep.edges_deleted:
                problems.append(f"trial {i}: final_size != edges_sampled - edges_deleted")
            # One uniform per host edge, kept when below p: the sample size is
            # fixed by the seed whatever order the edges are drawn in.
            draws = np.random.Generator(np.random.PCG64(rep.seed)).random(self.host.m)
            if rep.edges_sampled != int(np.count_nonzero(draws < rep.p)):
                problems.append(f"trial {i}: edges_sampled does not match the seed's draws")
        ref = self.reference["extract"][self.name]
        if self.seed == ref["seed"]:
            if sha256(csv_text) != ref["csv_sha256"]:
                problems.append("CSV bytes differ from the reference")
            if sha256(json_text) != ref["json_sha256"]:
                problems.append("JSON bytes differ from the reference")
        return problems

    def digests(self, out: OpResult) -> dict:
        _reports, csv_text, json_text = out.values
        return {"seed": self.seed, "csv_sha256": sha256(csv_text), "json_sha256": sha256(json_text)}

    def traced_op(self, tracer: Tracer, op: int):
        with tracer.span("op", op):
            with tracer.span("deletion.run_trials", op):
                summary = self._batch()
            with tracer.span("deletion.serialize", op) as s_ser:
                csv_text, json_text = self._serialize(summary)
        out = OpResult((summary.reports, csv_text, json_text), self.TRIALS)

        times: dict[str, list[float]] = {
            "deletion.serialize_ms": [duration(s_ser) * 1e3],
            "deletion.trial_ms": [],
            "hypergraph.sample_ms": [],
            "patterns.enumerate_ms": [],
            "patterns.verify_ms": [],
        }
        counts = {"hypergraph.sampled_edges": 0, "patterns.copies_found": 0, "deletion.edges_deleted": 0}
        problems = []
        # Outside-in decomposition: repeat each trial's layer calls at the
        # trial's own seed and check they reproduce the untraced report.
        with tracer.span("probe", op):
            for rep in summary.reports:
                with tracer.span("deletion.trial", op) as s_trial:
                    final, rep2 = extract_free_subgraph(self.host, self.r, rep.seed, self.spec, "lex")
                with tracer.span("hypergraph.sample", op) as s_sample:
                    sample = bernoulli_edge_sample(self.host, rep.p, rep.seed).as_hypergraph()
                    s_sample["counts"]["edges_sampled"] = sample.m
                with tracer.span("patterns.enumerate", op) as s_enum:
                    found = sum(1 for _ in enumerate_copies(sample, self.r, self.spec))
                    s_enum["counts"]["copies_found"] = found
                with tracer.span("patterns.verify", op) as s_verify:
                    left = count_copies(final.as_hypergraph(), self.r, self.spec)
                    s_verify["counts"]["copies_left"] = left
                if rep2 != rep or sample.m != rep.edges_sampled or found != rep.copies_found or left:
                    problems.append(f"traced trial at seed {rep.seed} does not reproduce its report")
                times["deletion.trial_ms"].append(duration(s_trial) * 1e3)
                times["hypergraph.sample_ms"].append(duration(s_sample) * 1e3)
                times["patterns.enumerate_ms"].append(duration(s_enum) * 1e3)
                times["patterns.verify_ms"].append(duration(s_verify) * 1e3)
                counts["hypergraph.sampled_edges"] += sample.m
                counts["patterns.copies_found"] += found
                counts["deletion.edges_deleted"] += rep.edges_deleted
        counts["hypergraph.draws"] = self.TRIALS * self.host.m
        counts["patterns.rsets_scanned"] = self.TRIALS * scan_size(self.host, self.r, self.spec)
        return out, times, counts, problems


@dataclass(frozen=True)
class OracleInstance:
    name: str
    host: Hypergraph
    pattern: PatternSpec
    spec: PartitionSpec | None
    budget: int


def witness_sha256(edges) -> str:
    return sha256("".join(" ".join(map(str, e)) + "\n" for e in sorted(edges)))


class OracleWorkload(Workload):
    """max_free_subgraph over fixed instances, each with a fixed node budget.

    A pass solves K_{5,5} to proof and K_{4,16} and the (2,2,3) host to their
    budgets. Proving K_{3,9} takes 262,048 nodes (seconds), too long to repeat
    40 times in one run, so only traced operations solve it, outside the span
    that times the pass.
    """

    PASS = ("k5_5", "k4_16", "c2_2_3")
    # K_{5,5} and K_{3,9} are proved within their budgets; the other two stop
    # at the budget. Budgets keep a pass near half a second on a 2-core box.
    BUDGETS = {"k5_5": 50_000, "k3_9": 300_000, "k4_16": 2_000, "c2_2_3": 2_000}
    # Each of the C(4,2) = 6 left pairs of K_{4,16} has at most one common
    # neighbour in a C4-free subgraph, so it keeps at most 16 + 6 edges.
    UPPER_BOUNDS = {"k5_5": None, "k3_9": None, "k4_16": 22, "c2_2_3": None}

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        k55, _ = complete_bipartite(5, 5)
        k39, _, _ = build_construction(3, 2, 2)
        k416, _, _ = build_construction(4, 2, 2)
        c223, spec223, _ = build_construction(2, 2, 3)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        hosts = [Hypergraph(g.k, g.n, g.edges) for g in (k55, k39, k416, c223)]
        t_validate = time.perf_counter() - t0
        krr = PatternSpec.krr(2)
        patterns = (krr, krr, krr, PatternSpec.multipartite(2, 3))
        specs = (None, None, None, spec223)
        self.instances = {
            name: OracleInstance(name, host, pattern, spec, self.BUDGETS[name])
            for name, host, pattern, spec in zip(ORACLE_INSTANCES, hosts, patterns, specs)
        }
        # The seed only orders the instances within a pass: the instances are
        # fixed so that their node counts stay comparable across runs.
        self.order = [self.PASS[i] for i in np.random.default_rng(self.seed).permutation(len(self.PASS))]
        return {"extremal.build_s": t_build, "hypergraph.validate_s": t_validate}

    def solve(self, name: str) -> tuple:
        inst = self.instances[name]
        res = max_free_subgraph(inst.host, inst.pattern, inst.spec, inst.budget)
        return (res.optimum, res.proof_of_optimality, res.nodes_explored, res.witness.edges)

    def run_op(self) -> OpResult:
        results = {name: self.solve(name) for name in self.order}
        counts = {
            "proofs_closed": sum(proved for _opt, proved, _nodes, _w in results.values()),
            "kept_edges": sum(optimum for optimum, _proved, _nodes, _w in results.values()),
        }
        return OpResult(results, len(results), counts)

    def validate_instance(self, name: str, result: tuple) -> list[str]:
        """The witness is free and as large as claimed, and no worse than the reference.

        A later oracle may find another optimal witness or a better incumbent,
        so a witness that differs from the reference's fails only if the
        result is worse: a lost proof, another proved optimum, or a smaller
        incumbent.
        """
        optimum, proved, _nodes, witness = result
        inst = self.instances[name]
        ref = self.reference["oracle"][name]
        problems = []
        if len(witness) != optimum:
            problems.append(f"{name}: witness has {len(witness)} edges, optimum is {optimum}")
        if not is_free(Hypergraph(inst.host.k, inst.host.n, witness), inst.pattern, inst.spec)[0]:
            problems.append(f"{name}: witness contains the pattern")
        bound = self.UPPER_BOUNDS[name]
        if bound is not None and optimum > bound:
            problems.append(f"{name}: optimum {optimum} exceeds the known bound {bound}")
        if ref["proved"] and not (proved and optimum == ref["optimum"]):
            problems.append(f"{name}: reference proved {ref['optimum']}, got {optimum} proved={proved}")
        if optimum < ref["optimum"]:
            problems.append(f"{name}: incumbent {optimum} below the reference's {ref['optimum']}")
        if witness_sha256(witness) != ref["witness_sha256"]:
            self.notes.append(f"{name}: witness differs from the reference's")
        return problems

    def validate(self, out: OpResult) -> list[str]:
        return [p for name, result in out.values.items() for p in self.validate_instance(name, result)]

    def digests(self, results: dict[str, tuple]) -> dict:
        return {
            name: {"optimum": optimum, "proved": proved, "nodes": nodes, "witness_sha256": witness_sha256(witness)}
            for name, (optimum, proved, nodes, witness) in results.items()
        }

    def _traced_solve(self, tracer: Tracer, op: int, name: str, times: dict, counts: dict) -> tuple:
        with tracer.span("oracle.search", op) as span:
            result = self.solve(name)
            optimum, proved, nodes, _witness = result
            span["counts"].update(instance=name, nodes=nodes, proved=int(proved), optimum=optimum)
        search_s = duration(span)
        times[f"oracle.{name}.search_s"] = [search_s]
        times[f"oracle.{name}.nodes_per_s"] = [nodes / search_s]
        counts[f"oracle.{name}.nodes"] = nodes
        counts[f"oracle.{name}.proved"] = int(proved)
        counts["oracle.proofs_closed"] += int(proved)
        counts["oracle.kept_edges"] += optimum
        return result

    def traced_op(self, tracer: Tracer, op: int):
        times: dict[str, list[float]] = {}
        counts = dict.fromkeys(("oracle.proofs_closed", "oracle.kept_edges",
                                "patterns.copies_found", "patterns.rsets_scanned"), 0)
        results = {}
        with tracer.span("op", op):
            for name in self.order:
                results[name] = self._traced_solve(tracer, op, name, times, counts)
        with tracer.span("probe", op):
            k39 = self._traced_solve(tracer, op, "k3_9", times, counts)
            for name, inst in self.instances.items():
                with tracer.span("oracle.copies", op) as span:
                    found = sum(1 for _ in iter_pattern_copies(inst.host, inst.pattern, inst.spec))
                    span["counts"].update(instance=name, copies_found=found)
                times[f"oracle.{name}.copies_ms"] = [duration(span) * 1e3]
                counts["patterns.copies_found"] += found
                counts["patterns.rsets_scanned"] += scan_size(inst.host, inst.pattern.r, inst.spec)
        return OpResult(results, len(results)), times, counts, self.validate_instance("k3_9", k39)


class CountWorkload(Workload):
    """`krsfree count` in-process on host files written during set-up."""

    HOSTS = (("k4_64", (4, 3, 2), 3), ("c2_2_3", (2, 2, 3), 2))

    def setup(self) -> dict[str, float]:
        rng = np.random.default_rng(self.seed)
        t_build = t_validate = 0.0
        self.hosts = []
        for name, (n, r, k), pattern_r in self.HOSTS:
            (g, _spec, _cspec), t = _timed(build_construction, n, r, k)
            t_build += t
            g, t = _timed(Hypergraph, g.k, g.n, g.edges)
            t_validate += t
            # The seed shuffles the edge lines; the parsed host is the same.
            header, *lines = hypergraph_to_text(g).splitlines()
            lines = [lines[i] for i in rng.permutation(len(lines))]
            path = os.path.join(self.workdir, f"{name}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join([header, *lines]) + "\n")
            self.hosts.append((name, path, pattern_r))
        return {"extremal.build_s": t_build, "hypergraph.validate_s": t_validate}

    @staticmethod
    def _count(path: str, r: int) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["count", "--input", path, "--r", str(r)])
        return code, out.getvalue(), err.getvalue()

    def run_op(self) -> OpResult:
        return OpResult({name: self._count(path, r) for name, path, r in self.hosts}, len(self.hosts))

    def validate(self, out: OpResult) -> list[str]:
        problems = []
        for name, (code, stdout, stderr) in out.values.items():
            if code != 0:
                problems.append(f"{name}: exit code {code}: {stderr.strip()}")
            if sha256(stdout) != self.reference["count"][name]["stdout_sha256"]:
                problems.append(f"{name}: stdout differs from the reference")
        return problems

    def traced_op(self, tracer: Tracer, op: int):
        values = {}
        cli_s = parse_s = copies_s = matchings_s = 0.0
        counts = {"patterns.copies_found": 0, "patterns.rsets_scanned": 0}
        problems = []
        with tracer.span("op", op):
            for name, path, r in self.hosts:
                with tracer.span("cli.main", op) as s_cli:
                    values[name] = self._count(path, r)
                cli_s += duration(s_cli)
        with tracer.span("probe", op):
            for name, path, r in self.hosts:
                with tracer.span("hypergraph.parse", op) as s_parse:
                    g = read_hypergraph(path)
                with tracer.span("patterns.count_copies", op) as s_copies:
                    copies = count_copies(g, r)
                    s_copies["counts"]["copies"] = copies
                with tracer.span("patterns.count_matchings", op) as s_match:
                    matchings = count_matchings(g, r)
                    s_match["counts"]["matchings"] = matchings
                parse_s += duration(s_parse)
                copies_s += duration(s_copies)
                matchings_s += duration(s_match)
                stdout = values[name][1]
                if f"copies {copies}\n" not in stdout or f"matchings {matchings}\n" not in stdout:
                    problems.append(f"{name}: traced counts do not match the command's output")
                counts["patterns.copies_found"] += copies
                counts["patterns.rsets_scanned"] += scan_size(g, r, None, matchings)
        times = {
            "hypergraph.parse_ms": [parse_s * 1e3],
            "patterns.count_copies_ms": [copies_s * 1e3],
            "patterns.count_matchings_ms": [matchings_s * 1e3],
            "cli.main_ms": [cli_s * 1e3],
        }
        return OpResult(values, len(values)), times, counts, problems


WORKLOADS = {
    "extract_anchored": lambda *a: ExtractWorkload(*a, base=60, anchored=True),
    "extract_unanchored": lambda *a: ExtractWorkload(*a, base=30, anchored=False),
    "oracle_exact": OracleWorkload,
    "count_cli": CountWorkload,
}


def make_workload(name: str, seed: int, reference: dict, workdir: str) -> Workload:
    return WORKLOADS[name](name, seed, reference, workdir)
