"""Command line front end.

Subcommands: construct, count, extract, oracle, certify, bounds.
Exit codes: 0 success, 1 usage error, 2 bad or ill-fitting input file (or
unwritable output), 3 capacity error (a construction over its budget, an
input deeper than the interpreter's recursion limit, or out of memory), 4
internal error: a failed count bound or an unexpected exception, which prints
its traceback; either is a bug.

All floats are printed with 12 significant digits and reruns with the same
arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from collections.abc import Callable
from contextlib import contextmanager
from functools import cache

from .deletion import (
    EDGE_CHOICE_POLICIES,
    REPORT_CSV_COLUMNS,
    _fmt_float,
    _v1_json,
    deletion_params,
    reports_to_csv,
    run_trials,
    summary_to_json,
)
from .extremal import (
    CapacityError,
    ConstructionSpec,
    build_construction,
    kst_certificate,
    theorem_upper_bound,
)
from .hypergraph import (
    EdgeSubset,
    Hypergraph,
    PartitionSpec,
    read_hypergraph,
    read_partition,
    require_partite,
    write_hypergraph,
    write_partition,
)
from .oracle import PatternSpec, max_free_subgraph
from .patterns import (
    copy_count_upper_bound,
    copy_count_upper_bound_relaxed,
    count_copies,
    count_matchings,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class InputError(Exception):
    """An input file that cannot be read or parsed, or that does not fit the host."""


@contextmanager
def _reading_input():
    try:
        yield
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    # Flags must be spelled out: with prefix matching, "extract --s 9" would
    # silently set --seed.
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad flags; the contract here is status 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int >= low. argparse names the flag in the error."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return integer


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="PATH", help="hypergraph file ('k n m' header)")
    p.add_argument("--parts", metavar="PATH", help="partition file (k lines of vertices)")
    p.add_argument("--construct", action="store_true", help="build the tight host instead of reading one")
    p.add_argument("--k", type=int, help="uniformity for --construct")
    p.add_argument("--r", type=_at_least(2), required=True, help="pattern side r")
    p.add_argument("--n", type=int, help="base size n for --construct")


def _construct(args: argparse.Namespace) -> tuple[Hypergraph, PartitionSpec, ConstructionSpec]:
    if args.k is None or args.n is None:
        raise UsageError("--construct needs --k and --n")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.k < 2:
        raise UsageError("need --k >= 2")
    return build_construction(args.n, args.r, args.k)


def _load_host(
    args: argparse.Namespace, reads_graph_parts: bool = True
) -> tuple[Hypergraph, PartitionSpec | None]:
    """The host and partition. A --parts file is checked on the whole host, as a
    trial's sample may miss the edges that break it; a built one fits already."""
    if args.construct:
        if args.input:
            raise UsageError("give either --input or --construct, not both")
        if args.parts:
            raise UsageError("--construct builds its own partition; --parts goes with --input")
        g, spec, _cspec = _construct(args)
        return g, spec
    if not args.input:
        raise UsageError("need --input PATH or --construct")
    with _reading_input():
        g = read_hypergraph(args.input)
        if not args.parts:
            return g, None
        if g.k == 2 and not reads_graph_parts:
            raise UsageError("--parts on a graph host needs --s")
        spec = read_partition(args.parts)
        require_partite(g, spec)
    return g, spec


def _pattern(
    r: int, k: int, s: int | None, orientation: str | None, spec: PartitionSpec | None
) -> PatternSpec:
    """The oracle's pattern: K_{r,r} on graphs and the side-r k-partite pattern
    otherwise; with s, K_{r,s} on a partitioned graph, in the proof orientation
    unless orientation is "either"."""
    if s is None:
        return PatternSpec.krr(r) if k == 2 else PatternSpec.multipartite(r, k)
    if k != 2:
        raise UsageError("--s needs a graph host (k = 2)")
    if spec is None:
        raise UsageError("biclique oracle with --s needs --parts or --construct")
    if s < r:
        raise UsageError("need --s >= --r")
    if orientation == "either":
        return PatternSpec.krs_either(r, s)
    return PatternSpec.krs_oriented(r, s)


def cmd_construct(args: argparse.Namespace) -> int:
    g, spec, cspec = _construct(args)
    if args.out:
        write_hypergraph(g, args.out)
        write_partition(spec, args.out + ".parts")
    else:
        sys.stdout.write(f"{g.k} {g.n} {g.m}\n")
    sys.stdout.write(
        "m={m} q={q} parts={parts}\n".format(
            m=cspec.m, q=cspec.q, parts=",".join(str(s) for s in cspec.part_sizes)
        )
    )
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    g, spec = _load_host(args)
    r = args.r
    copies = count_copies(g, r, spec)
    matchings = count_matchings(g, r)
    bound = copy_count_upper_bound(g.m, r, g.k)
    sys.stdout.write(f"m {g.m}\n")
    sys.stdout.write(f"copies {copies}\n")
    sys.stdout.write(f"matchings {matchings}\n")
    sys.stdout.write(f"copy_bound {bound}\n")
    # The paper's chain: copies <= (k!)^r matchings <= (k!)^r C(m, r), the copy bound.
    ok = copies <= math.factorial(g.k) ** r * matchings <= bound
    if g.k == 2 and g.m >= r:
        relaxed = copy_count_upper_bound_relaxed(g.m, r)
        sys.stdout.write(f"copy_bound_relaxed {relaxed}\n")
        ok = ok and bound <= relaxed
    sys.stdout.write(f"bounds {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_INTERNAL


def cmd_extract(args: argparse.Namespace) -> int:
    g, spec = _load_host(args)
    if g.k < 2:
        raise UsageError("extract needs a host with k >= 2")
    summary = run_trials(
        g,
        args.r,
        num_trials=args.trials,
        base_seed=args.seed,
        spec=spec,
        edge_choice=args.policy,
    )
    if args.out:
        with open(args.out + ".csv", "w", encoding="ascii", newline="") as fh:
            fh.write(reports_to_csv(summary.reports))
        with open(args.out + ".json", "w", encoding="ascii") as fh:
            fh.write(summary_to_json(summary))
    sys.stdout.write(
        "trials {n} mean {mean} min {mn} max {mx} guarantee {g}\n".format(
            n=summary.num_trials,
            mean=_fmt_float(summary.mean_final_size),
            mn=summary.min_final_size,
            mx=summary.max_final_size,
            g=_fmt_float(summary.guarantee),
        )
    )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.s is None and args.orientation is not None:
        raise UsageError("--orientation needs --s")
    # The K_{r,r} pattern of a graph host reads no partition.
    g, spec = _load_host(args, reads_graph_parts=args.s is not None)
    pattern = _pattern(args.r, g.k, args.s, args.orientation, spec)
    result = max_free_subgraph(g, pattern, spec, budget=args.budget)
    payload = {
        "m": g.m,
        "optimum": result.optimum,
        "nodes_explored": result.nodes_explored,
        "proof_of_optimality": result.proof_of_optimality,
        "upper_bound": result.upper_bound,
        "gap": 0 if result.proof_of_optimality else result.upper_bound - result.optimum,
        "witness_edges": [list(e) for e in sorted(result.witness.edges)],
    }
    sys.stdout.write(_v1_json(payload))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    g, spec = _load_host(args)
    if spec is None:
        raise UsageError("certify needs --parts or --construct")
    if g.k != 2:
        raise UsageError("certify needs a graph host (k = 2)")
    if not spec.parts[1]:
        raise UsageError("certify needs a nonempty second part")
    s = args.s if args.s is not None else args.r
    if args.subgraph:
        with _reading_input():
            sub = read_hypergraph(args.subgraph)
            if sub.k != g.k or sub.n != g.n:
                raise ValueError("subgraph dimensions do not match the host")
            gprime = EdgeSubset(g, sub.edges)
    else:
        gprime = EdgeSubset(g, g.edges)
    report = kst_certificate(gprime, spec, args.r, s)
    payload = {
        "r": report.r,
        "s": report.s,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "average_degree": str(report.average_degree),
        "average_degree_float": float(_fmt_float(float(report.average_degree))),
        "verdict": report.verdict,
    }
    sys.stdout.write(_v1_json(payload))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    r, k = args.r, args.k
    s = args.s if args.s is not None else r
    rows = ["n,m,guarantee,upper_bound,oracle_optimum,certified"]
    for base in range(1, args.n + 1):
        g, spec, cspec = build_construction(base, r, k)
        pattern = _pattern(r, k, args.s, None, spec)
        guarantee = deletion_params(cspec.m, r, k).guarantee
        upper = theorem_upper_bound(cspec.m, r, s, k)
        result = max_free_subgraph(g, pattern, spec, budget=args.budget)
        rows.append(
            "{n},{m},{lo},{up},{opt},{cert}".format(
                n=base,
                m=cspec.m,
                lo=_fmt_float(guarantee),
                up=_fmt_float(upper),
                opt=result.optimum if result.proof_of_optimality else "",
                cert=str(result.proof_of_optimality).lower(),
            )
        )
    out = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


@cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="krsfree",
        description="Largest biclique-free subgraph toolkit for k-uniform hypergraphs.",
        epilog=(
            "Exit codes: 0 success, 1 usage, 2 unreadable, malformed or ill-fitting "
            "input file, 3 capacity (construction budget, recursion limit or memory), 4 internal error (a bug)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        help="build the tight complete multipartite host and write it out",
        description="Build the host with part sizes n^(r^(i-1)) and m = n^q edges.",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=_at_least(2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH", help="write hypergraph here and partition to PATH.parts")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "count",
        help="count pattern copies and matchings, check the counting bounds",
        description="Counts side-r pattern copies, r-matchings, and verifies copies <= (k!)^r C(m,r) (<= 2 m^r for graphs).",
    )
    _add_input_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "extract",
        help="run seeded sparsify-then-delete trials",
        description=(
            "Runs --trials extractions with per-trial seeds derived from --seed. "
            f"With --out, writes OUT.csv (one row per trial, columns: {', '.join(REPORT_CSV_COLUMNS)}) "
            "and OUT.json (summary, schema v1). Reruns are byte-identical."
        ),
    )
    _add_input_flags(p)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(1), default=1)
    p.add_argument("--policy", choices=EDGE_CHOICE_POLICIES, default="lex")
    p.add_argument("--out", metavar="PATH", help="output prefix")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "oracle",
        help="exact maximum pattern-free subgraph (branch and bound)",
        description=(
            "Prints an OracleResult as JSON (schema v1), with the root upper_bound and "
            "gap = upper_bound - optimum (0 when proved). Budget exhaustion clears "
            "proof_of_optimality but still exits 0."
        ),
    )
    _add_input_flags(p)
    p.add_argument("--s", type=int, help="biclique second side s (graphs; needs a partition)")
    p.add_argument(
        "--orientation", choices=["proof", "either"], help="biclique orientation (needs --s; default proof)"
    )
    p.add_argument("--budget", type=_at_least(1), default=2_000_000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "certify",
        help="degree-convexity containment certificate for bipartite subgraphs",
        description="Prints a CertificateReport as JSON (schema v1). --subgraph restricts to an edge subset of the host.",
    )
    _add_input_flags(p)
    p.add_argument("--s", type=_at_least(1), help="biclique second side s (default r)")
    p.add_argument("--subgraph", metavar="PATH", help="hypergraph file whose edges form the subgraph")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "bounds",
        help="guarantee / upper bound / exact optimum table over bases 1..n",
        description="CSV columns: n, m, guarantee, upper_bound, oracle_optimum (blank if uncertified), certified.",
    )
    p.add_argument("--r", type=_at_least(2), required=True)
    p.add_argument("--k", type=_at_least(2), default=2)
    p.add_argument("--s", type=int, help="biclique second side s (graphs; oracle_optimum as oracle --s)")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--budget", type=_at_least(1), default=500_000)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    # Every recursion is r or k levels deep, so hitting the limit means the input is too deep.
    except (CapacityError, RecursionError) as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY
    except MemoryError as exc:  # its message is often empty
        sys.stderr.write(f"capacity error: out of memory {exc}".rstrip() + "\n")
        return EXIT_CAPACITY
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))
