"""krsfree benchmark: one workload per run, or every workload with --all.

One run:

    python3 bench/run.py --workload extract_anchored --seed 1 --seconds 25 --trace 0

builds the workload's inputs from --seed, times operations for --seconds (and
at least MIN_OPS of them), checks every output it times, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from a run that alternates untraced and traced operations.
The line before it is a JSON diagnostics object (machine-speed probe, tail
percentile, sample counts, problems found).

    python3 bench/run.py --all --seed 0 --seconds 25 --out bench/results/seed.json

runs every workload untraced and traced, each in its own process, prints a
table and writes the results to --out.

The program under test is the krsfree package in src/ next to this directory;
the benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
MIN_OPS = 11  # the tail percentile needs ten operations beyond it
SETUP_REPS = 3
SETUP_SHARE = 0.2  # of a run's time spent repeating set-up between operations

END_TO_END = {"setup_s": "s", "op_scaled_s": "s", "peak_rss_mb": "MB"}
# Figures on the diagnostics line of an untraced run, with their units.
# Their times are wall times, not scaled.
DIAGNOSTIC_UNITS = {
    "op_p10_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_tail_percentile": "%",
    "ops": "count",
    "items_per_s": "1/s",
    "failed_frac": "ratio",
    "proofs_closed": "count",
    "kept_edges": "count",
}


def import_program():
    """Import krsfree from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "krsfree" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'krsfree'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import krsfree

    if Path(krsfree.__file__).resolve().parent != (src / "krsfree").resolve():
        sys.exit(f"error: imported krsfree from {krsfree.__file__}, not from {src}")


def spin(n: int) -> float:
    """Seconds taken by a fixed pure-Python loop of n steps."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i
    return time.perf_counter() - t0


def machine_probe_ms() -> float:
    """A fixed pure-Python and numpy job; median of five timings, in ms."""
    import numpy as np

    data = np.random.default_rng(12345).random(100_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        spin(100_000)
        np.sort(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class CoreSpeed:
    """Scales timed steps to a reference core speed, from a probe timed beside each step.

    Other tenants of a shared host slow this process by up to 1.9x, for
    seconds or minutes at a time, so wall times of the same work differ from
    run to run by more than any useful bound. Between steps a ~5 ms probe
    runs fixed work of the kinds krsfree does: a pure-Python integer loop,
    AND and popcount over 900-bit integers, and numpy uniform draws. A step's
    scaled time is its wall time times REFERENCE_PROBE_S over the mean of the
    probes just before and just after it: the time the step would take with
    the core at the speed where the probe takes REFERENCE_PROBE_S.
    """

    # The probe's time on a quiet core of the 2-core VM the benchmark was built on.
    REFERENCE_PROBE_S = 0.005

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._bits = [(1 << 900) - 1 - (7 << (i % 800)) for i in range(1000)]
        self.probes: list[float] = []

    def probe(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        spin(20_000)
        acc = 0
        for _ in range(6):
            for x, y in zip(self._bits, self._bits[1:]):
                acc += (x & y).bit_count()
        np.count_nonzero(np.random.Generator(np.random.PCG64(7)).random(300_000) < 0.5)
        seconds = time.perf_counter() - t0
        self.probes.append(seconds)
        return seconds

    def timed(self, step):
        """Run step(); return its value, its wall seconds and its scaled seconds."""
        before = self.probe()
        t0 = time.perf_counter()
        value = step()
        seconds = time.perf_counter() - t0
        after = self.probe()
        return value, seconds, seconds * self.REFERENCE_PROBE_S / ((before + after) / 2)


def p10(values: list[float]) -> float:
    """10th percentile: the time with the machine's other tenants quietest.

    Used for the wall times of traced layer calls and of the diagnostics.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten values beyond it, and that percentile."""
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Setups:
    """Set-up repetitions spread over the whole run, not bunched at its start.

    The first one builds the inputs before any operation; later ones run
    between operations while set-up has taken less than SETUP_SHARE of the
    run, so that they see the machine's speed swings like the operations.
    """

    def __init__(self, workload, speed: CoreSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.totals: list[float] = []
        self.scaled: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.start = time.perf_counter()
        self.repeat()

    def repeat(self) -> None:
        parts, seconds, scaled = self.speed.timed(self.workload.setup)
        for name, part in parts.items():
            self.parts.setdefault(name, []).append(part)
        self.totals.append(seconds)
        self.scaled.append(scaled)

    def between_ops(self) -> None:
        if sum(self.totals) < SETUP_SHARE * (time.perf_counter() - self.start):
            self.repeat()

    def finish(self) -> None:
        while len(self.totals) < SETUP_REPS:
            self.repeat()


class Run:
    """Counts operations and the problems their checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if p not in self.problems:
                    self.problems.append(p)

    def guarded(self, step) -> None:
        """Run one operation and its checks; an exception fails it, not the run."""
        try:
            step()
        except Exception as exc:
            self.record([f"operation raised {type(exc).__name__}: {exc}"])


def measure_untraced(workload, setups: Setups, seconds: float, run: Run) -> dict:
    times: list[float] = []
    scaled: list[float] = []
    items = 0

    def step() -> None:
        nonlocal items
        out, seconds, scaled_seconds = setups.speed.timed(workload.run_op)
        times.append(seconds)
        scaled.append(scaled_seconds)
        items += out.items
        run.record(workload.check(out))

    deadline = setups.start + seconds
    while run.attempted < MIN_OPS or time.perf_counter() < deadline:
        run.guarded(step)
        setups.between_ops()
    setups.finish()
    if len(times) < MIN_OPS:
        sys.exit(f"error: {run.failed} of {run.attempted} operations failed: {run.problems}")
    p_tail, percentile = tail(times)
    return {
        "metrics": {"op_scaled_s": statistics.median(scaled), "setup_s": statistics.median(setups.scaled)},
        "ops": len(times),
        "op_p10_s": p10(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": p_tail,
        "op_tail_percentile": percentile,
        "items_per_s": items / sum(times),
        **workload.first.counts,
    }


def measure_traced(workload, setups: Setups, seconds: float, run: Run, tracer) -> dict:
    from tracing import duration

    from workloads import PER_LAYER, SELF_TIMES

    untraced: list[float] = []
    traced: list[float] = []
    layer_times: dict[str, list[float]] = {}
    first_counts: dict = {}

    def untraced_step() -> None:
        t0 = time.perf_counter()
        out = workload.run_op()
        untraced.append(time.perf_counter() - t0)
        run.record(workload.check(out))

    def traced_step(op: int) -> None:
        out, times, counts, problems = workload.traced_op(tracer, op)
        root = next(s for s in reversed(tracer.spans) if s["name"] == "op" and s["op"] == op)
        traced.append(duration(root))
        for name, values in times.items():
            layer_times.setdefault(name, []).extend(values)
        if not first_counts:
            first_counts.update(counts)
        elif counts != first_counts:
            problems = problems + ["exact counts differ between repetitions"]
        run.record(workload.check(out) + problems)

    deadline = setups.start + seconds
    op = 0
    while run.attempted < 2 or time.perf_counter() < deadline:
        run.guarded(untraced_step if op % 2 == 0 else lambda: traced_step(op))
        op += 1
        setups.between_ops()
    setups.finish()
    if not (untraced and traced):
        sys.exit(f"error: {run.failed} of {run.attempted} operations failed: {run.problems}")

    metrics = {}
    for name, (_unit, kind) in PER_LAYER.items():
        if kind == "time":
            metrics[name] = p10(layer_times[name]) if name in layer_times else 0.0
        elif kind == "count":
            metrics[name] = first_counts.get(name, 0)
    for name, (parent, children) in SELF_TIMES.items():
        if parent in layer_times:
            metrics[name] = p10(layer_times[parent]) - sum(p10(layer_times[c]) for c in children)
        else:
            metrics[name] = 0.0
    scanned = metrics["patterns.rsets_scanned"]
    metrics["patterns.copies_per_rset"] = metrics["patterns.copies_found"] / scanned if scanned else 0.0
    metrics["trace.overhead_ms"] = (p10(traced) - p10(untraced)) * 1e3
    metrics["extremal.build_s"] = p10(setups.parts["extremal.build_s"])
    metrics["hypergraph.validate_s"] = p10(setups.parts["hypergraph.validate_s"])
    return {"metrics": metrics, "ops": len(untraced), "traced_ops": len(traced)}


def run_one(args) -> int:
    import_program()
    from tracing import Tracer

    from workloads import PER_LAYER, WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    probes = [machine_probe_ms()]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workload = make_workload(args.workload, args.seed, reference, workdir)
        setups = Setups(workload, CoreSpeed())
        run = Run()
        if args.trace:
            tracer = Tracer()
            result = measure_traced(workload, setups, args.seconds, run, tracer)
            traces = BENCH_DIR / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(str(traces / f"{args.workload}-seed{args.seed}.json"))
        else:
            result = measure_untraced(workload, setups, args.seconds, run)
            result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(machine_probe_ms())
    if args.trace:
        result["metrics"]["machine.probe_ms"] = min(probes)
        units = {name: unit for name, (unit, _kind) in PER_LAYER.items()}
    else:
        units = END_TO_END

    correct = run.failed == 0
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine_probe_ms": probes,
        "setup_reps": len(setups.totals),
        "setup_wall_s": statistics.median(setups.totals),
        "speed_probe_ms": statistics.median(setups.speed.probes) * 1e3,
        "failed_frac": run.failed / run.attempted,
        "problems": run.problems,
        "notes": sorted(set(workload.notes)),
    }
    diagnostics.update({k: v for k, v in result.items() if k != "metrics"})
    print(json.dumps({"diagnostics": diagnostics}))
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in a fresh process."""
    from workloads import WORKLOADS

    results = []
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                status = 1
            if len(lines) < 2:
                continue
            diagnostics = json.loads(lines[-2])["diagnostics"]
            result = json.loads(lines[-1])
            results.append({"workload": name, "trace": trace, "diagnostics": diagnostics, "result": result})
            rows = [(metric, entry["value"], entry["unit"]) for metric, entry in result["metrics"].items()]
            if not trace:
                rows += [(key, diagnostics[key], unit) for key, unit in DIAGNOSTIC_UNITS.items() if key in diagnostics]
            for metric, value, unit in rows:
                print(f"{name:20s} {metric:28s} {value:>16.6g} {unit}")
            print(f"{name:20s} {'correct':28s} {str(result['correct']):>16s} "
                  f"({result['failed']} of {result['attempted']} failed)")
    if args.out:
        payload = {
            "command": "python3 bench/run.py --all --seed {} --seconds {}".format(args.seed, args.seconds),
            "machine": platform.platform(),
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "runs": results,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload to run")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results here as JSON")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.all:
        import_program()
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
