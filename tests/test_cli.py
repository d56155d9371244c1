"""CLI subcommands: output shapes, exit codes, and byte-level reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import krsfree
from krsfree import Hypergraph, build_construction, complete_bipartite, write_hypergraph, write_partition
from krsfree.cli import (
    EXIT_INTERNAL,
    EXIT_CAPACITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from krsfree.deletion import REPORT_CSV_COLUMNS

from corpus import disjoint_k33


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k24_file(tmp_path):
    g, spec = complete_bipartite(2, 4)
    path = tmp_path / "k24.txt"
    write_hypergraph(g, str(path))
    write_partition(spec, str(path) + ".parts")
    return str(path)


class TestConstruct:
    def test_graph_header(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--k", "2", "--r", "2", "--n", "3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "2 12 27"
        assert "m=27 q=3 parts=3,9" in out

    def test_hypergraph_header(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--k", "3", "--r", "2", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "3 22 128"
        assert "m=128 q=7 parts=2,4,16" in out

    def test_writes_files(self, capsys, tmp_path):
        out_path = tmp_path / "host.txt"
        code, out, _ = run_cli(
            capsys, "construct", "--k", "2", "--r", "2", "--n", "3", "--out", str(out_path)
        )
        assert code == EXIT_OK
        text = out_path.read_text()
        assert text.splitlines()[0] == "2 12 27"
        parts_text = (tmp_path / "host.txt.parts").read_text()
        assert len(parts_text.splitlines()) == 2

    def test_zero_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--k", "2", "--r", "2", "--n", "0")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_capacity_exit(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--k", "3", "--r", "3", "--n", "10")
        assert code == EXIT_CAPACITY
        assert "capacity error" in err

    @pytest.mark.parametrize("k, n, budget", [("5", "10", "vertex budget"), ("5000", "1", "exponent budget")])
    def test_past_a_budget_exits_3_without_a_traceback(self, capsys, k, n, budget):
        # Both once reached an unprintable integer: 10^(10^4) vertices, and a 5,000-digit q.
        code, out, err = run_cli(capsys, "construct", "--k", k, "--r", "10", "--n", n)
        assert code == EXIT_CAPACITY and out == ""
        assert err.startswith("capacity error:") and budget in err
        assert "Traceback" not in err


class TestCount:
    def test_k33(self, capsys, tmp_path):
        g, _ = complete_bipartite(3, 3)
        path = tmp_path / "k33.txt"
        write_hypergraph(g, str(path))
        code, out, _ = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert code == EXIT_OK
        lines = dict(ln.split() for ln in out.splitlines())
        assert lines["copies"] == "9"
        assert lines["matchings"] == "18"
        assert lines["copy_bound"] == "144"
        assert lines["copy_bound_relaxed"] == "162"
        assert lines["bounds"] == "PASS"

    def test_copies_are_checked_against_the_matchings(self, capsys, monkeypatch, tmp_path):
        # K_{3,3} has 9 copies; 2 matchings would allow only (2!)^2 * 2 = 8 of
        # them, though both counts stay under their own C(m, r) bounds.
        path = tmp_path / "k33.txt"
        write_hypergraph(complete_bipartite(3, 3)[0], str(path))
        monkeypatch.setattr("krsfree.cli.count_matchings", lambda g, r: 2)
        code, out, _ = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert code == EXIT_INTERNAL
        assert "copies 9\n" in out and "bounds FAIL\n" in out

    def test_parts_host_is_converted_once(self, capsys, monkeypatch, k24_file):
        # Validation reads the host into an array and drops it; the partition
        # check, the copy kernel and the matching count then share its _rows.
        calls = []

        def counted(edges, k):
            calls.append(len(edges))
            return convert(edges, k)

        # Every module that binds the converter counts, wherever it imported it from.
        convert = krsfree.hypergraph._edge_array
        for name, module in list(sys.modules.items()):
            if name.startswith("krsfree") and getattr(module, "_edge_array", None) is convert:
                monkeypatch.setattr(module, "_edge_array", counted)
        code, out, _ = run_cli(capsys, "count", "--input", k24_file, "--parts", k24_file + ".parts", "--r", "2")
        assert code == EXIT_OK and "copies 6\n" in out and "bounds PASS\n" in out
        assert calls == [8, 8]

    def test_unordered_4_uniform_host_counts_over_its_own_partition(self, capsys, tmp_path):
        # Without --parts the (2,2,4) host's 23,500,800 copies took the link
        # kernel, one (S, mask) pair per copy, past 100 s; over the host's own
        # partition the command takes ~0.6 s on a 2-core VM.
        path = tmp_path / "h224.txt"
        write_hypergraph(build_construction(2, 2, 4)[0], str(path))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK
        assert "copies 23500800\n" in out and "bounds PASS\n" in out

    def test_k24_copies(self, capsys, k24_file):
        code, out, _ = run_cli(capsys, "count", "--input", k24_file, "--r", "2")
        assert code == EXIT_OK
        assert "copies 6" in out

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 5 0\n")
        code, out, _ = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert code == EXIT_OK
        assert "copies 0" in out and "PASS" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "count", "--input", "/nonexistent/g.txt", "--r", "2")
        assert code == EXIT_IO
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 5\n")
        code, _, err = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert code == EXIT_IO

    def test_repeated_edge_line(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 4 2\n0 1\n1 0\n")
        code, out, err = run_cli(capsys, "count", "--input", str(path), "--r", "2")
        assert code == EXIT_IO
        assert out == ""
        assert "repeated edge (0, 1)" in err

    def test_missing_r(self, capsys, k24_file):
        code, _, _ = run_cli(capsys, "count", "--input", k24_file)
        assert code == EXIT_USAGE

    def test_both_input_sources_rejected(self, capsys, k24_file):
        code, _, _ = run_cli(
            capsys, "count", "--input", k24_file, "--construct", "--k", "2", "--r", "2", "--n", "2"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["count", "extract"])
    def test_parts_with_construct_rejected(self, capsys, tmp_path, command):
        code, out, err = run_cli(
            capsys, command, "--construct", "--k", "2", "--r", "2", "--n", "3",
            "--parts", str(tmp_path / "missing.txt"),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--parts" in err


class TestExtract:
    def test_stdout_line(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extract", "--construct", "--k", "2", "--r", "2", "--n", "3",
            "--trials", "5", "--seed", "7",
        )
        assert code == EXIT_OK
        assert out.startswith("trials 5 mean ")
        assert "guarantee 2.25" in out

    def test_csv_and_json_outputs(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys,
            "extract", "--construct", "--k", "2", "--r", "2", "--n", "3",
            "--trials", "4", "--seed", "3", "--out", prefix,
        )
        assert code == EXIT_OK
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.splitlines()[0].startswith("trial,seed,p,")
        assert len(csv_text.splitlines()) == 5
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["schema"] == "v1"
        assert payload["num_trials"] == 4

    def test_byte_identical_reruns_and_jobs(self, capsys, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            prefix = str(tmp_path / tag)
            code, _, _ = run_cli(
                capsys,
                "extract", "--construct", "--k", "2", "--r", "2", "--n", "3",
                "--trials", "12", "--seed", "41", "--out", prefix,
            )
            assert code == EXIT_OK
            outputs.append((tmp_path / (tag + ".csv")).read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_host_single_row(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 4 0\n")
        prefix = str(tmp_path / "e")
        code, out, _ = run_cli(
            capsys,
            "extract", "--input", str(path), "--r", "2", "--trials", "1", "--out", prefix,
        )
        assert code == EXIT_OK
        rows = (tmp_path / "e.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[6] == "0"

    def test_bad_trials(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "extract", "--construct", "--k", "2", "--r", "2", "--n", "2", "--trials", "0",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", [("--jobs", "2"), ("--format", "csv")])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        code, _, _ = run_cli(
            capsys,
            "extract", "--construct", "--k", "2", "--r", "2", "--n", "2", *flag,
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_parts_must_fit_the_host_at_every_seed(self, capsys, tmp_path, seed):
        # Edge 0-1 lies inside a part; whether a trial's sample keeps it
        # depends on the seed, but the host never fits the partition.
        host = tmp_path / "h.txt"
        host.write_text("2 6 6\n0 1\n0 2\n0 3\n1 2\n1 3\n4 5\n")
        parts = tmp_path / "h.parts"
        parts.write_text("0 1 4\n2 3 5\n")
        code, out, err = run_cli(
            capsys,
            "extract", "--input", str(host), "--parts", str(parts),
            "--r", "2", "--trials", "5", "--seed", seed,
        )
        assert code == EXIT_IO
        assert out == ""
        assert "not partite" in err


class TestOracle:
    def test_k24_optimum(self, capsys, k24_file):
        code, out, _ = run_cli(capsys, "oracle", "--input", k24_file, "--r", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["optimum"] == 5
        assert payload["proof_of_optimality"] is True
        assert len(payload["witness_edges"]) == 5

    def test_oriented_needs_parts(self, capsys, k24_file):
        code, _, _ = run_cli(capsys, "oracle", "--input", k24_file, "--r", "2", "--s", "2")
        assert code == EXIT_USAGE

    def test_oriented_with_parts(self, capsys, k24_file):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--input", k24_file, "--parts", k24_file + ".parts",
            "--r", "2", "--s", "2", "--orientation", "proof",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["optimum"] == 5

    def test_orientation_needs_s(self, capsys, k24_file):
        for orientation in ("proof", "either"):
            code, out, err = run_cli(
                capsys, "oracle", "--input", k24_file, "--r", "2", "--orientation", orientation
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "--orientation" in err

    def test_s_without_orientation_means_proof(self, capsys, tmp_path):
        # Parts big / small: no pair of the 5-part has 3 common neighbours, so
        # `proof` keeps all 10 edges; `either` keeps 7.
        g, spec = complete_bipartite(5, 2)
        path = str(tmp_path / "k52.txt")
        write_hypergraph(g, path)
        write_partition(spec, path + ".parts")
        base = ("oracle", "--input", path, "--parts", path + ".parts", "--r", "2", "--s", "3")
        code, out, _ = run_cli(capsys, *base)
        assert code == EXIT_OK
        assert out == run_cli(capsys, *base, "--orientation", "proof")[1]
        either = run_cli(capsys, *base, "--orientation", "either")[1]
        assert out != either
        assert json.loads(out)["optimum"] == 10
        assert json.loads(either)["optimum"] == 7

    def test_oriented_parts_must_fit_the_host(self, capsys, tmp_path):
        host = tmp_path / "h.txt"
        host.write_text("2 6 6\n0 1\n0 2\n0 3\n1 2\n1 3\n4 5\n")
        # vertices 4 and 5 uncovered; then edge 0-1 inside a part
        for i, parts in enumerate(("0 1\n2 3\n", "0 1 4\n2 3 5\n")):
            parts_file = tmp_path / f"h{i}.parts"
            parts_file.write_text(parts)
            code, out, err = run_cli(
                capsys,
                "oracle", "--input", str(host), "--parts", str(parts_file),
                "--r", "2", "--s", "2",
            )
            assert code == EXIT_IO
            assert out == ""
            assert "not partite" in err

    def test_s_on_a_kgraph_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "oracle", "--construct", "--k", "3", "--r", "2", "--n", "2",
            "--s", "3", "--orientation", "either",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--s" in err

    def test_gap_is_zero_when_proved(self, capsys, tmp_path):
        gaps = {}
        for n in (5, 8):
            g, _ = complete_bipartite(n, n)
            path = str(tmp_path / f"k{n}{n}.txt")
            write_hypergraph(g, path)
            code, out, _ = run_cli(capsys, "oracle", "--input", path, "--r", "2", "--budget", "2")
            assert code == EXIT_OK
            payload = json.loads(out)
            assert payload["upper_bound"] >= payload["optimum"]
            gaps[n] = payload["gap"]
            if payload["proof_of_optimality"]:
                assert payload["gap"] == 0
            else:
                assert payload["gap"] == payload["upper_bound"] - payload["optimum"]
        # K_{5,5} closes at the root at 12; K_{8,8}'s bound of 25 is above z(8; 2) = 24.
        assert gaps[5] == 0
        assert gaps[8] > 0

    def test_budget_exhaustion_still_exits_zero(self, capsys, tmp_path):
        # K_{8,8}'s root bound is 25 against an optimum of z(8; 2) = 24.
        path = str(tmp_path / "k88.txt")
        write_hypergraph(complete_bipartite(8, 8)[0], path)
        code, out, _ = run_cli(capsys, "oracle", "--input", path, "--r", "2", "--budget", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["proof_of_optimality"] is False

    def test_deep_first_dive_still_exits_zero(self, capsys, tmp_path):
        # The first dive on 340 disjoint K_{3,3} is deeper than the recursion limit.
        path = str(tmp_path / "k33x340.txt")
        write_hypergraph(disjoint_k33(340), path)
        code, out, err = run_cli(capsys, "oracle", "--input", path, "--r", "2", "--budget", "5000")
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["proof_of_optimality"] is False
        assert payload["nodes_explored"] == 5000 and payload["gap"] > 0


class TestCertify:
    def test_full_k24_proves(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--construct", "--k", "2", "--r", "2", "--n", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lhs"] == 4
        assert payload["rhs"] == 2
        assert payload["verdict"] == "proves-containment"
        assert payload["average_degree"] == "2"

    def test_subgraph_inconclusive(self, capsys, k24_file, tmp_path):
        sub = tmp_path / "sub.txt"
        sub.write_text("2 6 5\n0 2\n1 2\n0 3\n1 4\n0 5\n")
        code, out, _ = run_cli(
            capsys,
            "certify", "--input", k24_file, "--parts", k24_file + ".parts",
            "--r", "2", "--s", "2", "--subgraph", str(sub),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lhs"] == 1
        assert payload["verdict"] == "inconclusive"

    def test_needs_partition(self, capsys, k24_file):
        code, _, _ = run_cli(capsys, "certify", "--input", k24_file, "--r", "2")
        assert code == EXIT_USAGE


class TestBounds:
    def test_table_shape_and_monotonicity(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--n", "3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,m,guarantee,upper_bound,oracle_optimum,certified"
        assert len(lines) == 4
        rows = [ln.split(",") for ln in lines[1:]]
        ms = [int(row[1]) for row in rows]
        guarantees = [float(row[2]) for row in rows]
        uppers = [float(row[3]) for row in rows]
        opts = [int(row[4]) for row in rows if row[4]]
        assert ms == sorted(ms) and ms == [1, 8, 27]
        assert guarantees == sorted(guarantees)
        assert uppers == sorted(uppers)
        assert opts == sorted(opts)
        for row in rows:
            if row[4]:
                assert float(row[2]) <= int(row[4]) <= float(row[3]) + 1e-9

    def test_every_row_certified_through_k5_25(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--k", "2", "--n", "5")
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert [row[5] for row in rows] == ["true"] * 5
        assert [int(row[4]) for row in rows] == [1, 5, 12, 22, 35]

    def test_kgraph_row_certified_by_the_link_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--k", "3", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[2] == "2,128,16,128,86,true"

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--n", "2", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().splitlines()[0].startswith("n,m,")

    def test_s_column_is_the_oracles_krs_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--s", "3", "--n", "3")
        assert code == EXIT_OK
        opts = [int(ln.split(",")[4]) for ln in out.splitlines()[1:]]
        assert opts == [1, 6, 15]
        for base, opt in enumerate(opts, start=1):
            code, oracle_out, _ = run_cli(
                capsys, "oracle", "--construct", "--k", "2", "--r", "2", "--n", str(base), "--s", "3"
            )
            assert code == EXIT_OK
            assert json.loads(oracle_out)["optimum"] == opt

    def test_s_equal_to_r_keeps_the_krr_column(self, capsys):
        def column(*flags: str) -> list[str]:
            code, out, _ = run_cli(capsys, "bounds", "--r", "2", "--n", "3", *flags)
            assert code == EXIT_OK
            return [ln.split(",")[4] for ln in out.splitlines()]

        assert column("--s", "2") == column() == ["oracle_optimum", "1", "5", "12"]

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "bounds", "--r", "1", "--n", "2")[0] == EXIT_USAGE
        assert run_cli(capsys, "bounds", "--r", "3", "--s", "2", "--n", "2")[0] == EXIT_USAGE
        assert run_cli(capsys, "bounds", "--r", "2", "--k", "3", "--s", "9", "--n", "1")[0] == EXIT_USAGE
        assert run_cli(capsys, "bounds", "--r", "2", "--n", "2", "--budget", "0")[0] == EXIT_USAGE


class TestOneEdgeHosts:
    """The one-edge host at the exponent budget, k = 63: every command runs in time linear in k."""

    HOST = ("--n", "1", "--r", "2", "--k", "63")

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (("construct",), "63 63 1"),
            (("count", "--construct"), "m 1"),
            (("extract", "--construct"), "trials 1 mean 0 min 0 max 0 guarantee 0.25"),
            (("oracle", "--construct"), "{"),
            (("bounds",), "n,m,guarantee,upper_bound,oracle_optimum,certified"),
        ],
    )
    def test_each_command_finishes(self, capsys, argv, first_line):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, *self.HOST)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_OK and out.splitlines()[0] == first_line

    def test_outputs(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--construct", *self.HOST)
        assert out == "m 1\ncopies 0\nmatchings 0\ncopy_bound 0\nbounds PASS\n"
        _, out, _ = run_cli(capsys, "oracle", "--construct", *self.HOST)
        payload = json.loads(out)
        assert (payload["optimum"], payload["upper_bound"], payload["proof_of_optimality"]) == (1, 1, True)
        assert payload["witness_edges"] == [list(range(63))]
        _, out, _ = run_cli(capsys, "bounds", *self.HOST)
        assert out.splitlines()[1] == "1,1,0.25,2,1,true"


class TestExitCodes:
    """2 only for a bad or ill-fitting input file; flag mistakes are 1, too deep an input 3, bugs are 4."""

    ILL_FITTING_HOST = "2 6 6\n0 1\n0 2\n0 3\n1 2\n1 3\n4 5\n"
    ILL_FITTING_PARTS = "0 1 4\n2 3 5\n"  # edge 0-1 lies inside a part

    @pytest.fixture()
    def ill_fitting(self, tmp_path):
        host = tmp_path / "h.txt"
        host.write_text(self.ILL_FITTING_HOST)
        parts = tmp_path / "h.parts"
        parts.write_text(self.ILL_FITTING_PARTS)
        return str(host), str(parts)

    def test_count_without_a_host_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "count", "--r", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--input" in err
        code, out, err = run_cli(capsys, "count", "--construct", "--r", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--k and --n" in err

    def test_oracle_budget_below_one_is_usage_error(self, capsys, k24_file):
        code, out, err = run_cli(capsys, "oracle", "--input", k24_file, "--r", "2", "--budget", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--budget" in err

    def test_oracle_s_below_r_is_usage_error(self, capsys, k24_file):
        code, out, err = run_cli(
            capsys,
            "oracle", "--input", k24_file, "--parts", k24_file + ".parts", "--r", "2", "--s", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--s" in err

    def test_certify_on_a_kgraph_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--construct", "--k", "3", "--r", "2", "--n", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "k = 2" in err

    def test_certify_s_below_one_and_empty_second_part_are_usage_errors(self, capsys, tmp_path, k24_file):
        base = ("certify", "--input", k24_file, "--parts", k24_file + ".parts", "--r", "2")
        assert run_cli(capsys, *base, "--s", "0")[0] == EXIT_USAGE
        host = tmp_path / "e.txt"
        host.write_text("2 3 0\n")
        parts = tmp_path / "e.parts"
        parts.write_text("0 1 2\n\n")
        code, _, err = run_cli(capsys, "certify", "--input", str(host), "--parts", str(parts), "--r", "2")
        assert code == EXIT_USAGE
        assert "second part" in err

    def test_extract_on_a_one_graph_is_usage_error(self, capsys, tmp_path):
        host = tmp_path / "k1.txt"
        host.write_text("1 3 2\n0\n1\n")
        code, out, _ = run_cli(capsys, "extract", "--input", str(host), "--r", "2")
        assert code == EXIT_USAGE
        assert out == ""

    def test_oracle_parts_on_a_graph_needs_s(self, capsys, ill_fitting, k24_file):
        # The K_{r,r} pattern reads no partition, fitting or not.
        host, parts = ill_fitting
        for argv in ((host, parts), (k24_file, k24_file + ".parts")):
            code, out, err = run_cli(
                capsys, "oracle", "--input", argv[0], "--parts", argv[1], "--r", "2"
            )
            assert code == EXIT_USAGE
            assert out == ""
            assert "--parts" in err and "--s" in err

    def test_oracle_construct_passes_its_partition_silently(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--construct", "--k", "2", "--r", "2", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["proof_of_optimality"] is True

    # extract and oracle --s have their own tests above.
    @pytest.mark.parametrize("command", ["count", "certify"])
    def test_ill_fitting_parts_exit_2(self, capsys, ill_fitting, command):
        host, parts = ill_fitting
        code, out, err = run_cli(capsys, command, "--input", host, "--parts", parts, "--r", "2")
        assert code == EXIT_IO
        assert out == ""
        assert "not partite" in err

    @pytest.mark.parametrize(
        "text",
        [None, "2 6\n", "2 6 1\n0 9\n", "2 6 1\n0 1\n", "2 7 1\n0 2\n"],
        ids=["missing", "bad-header", "vertex-out-of-range", "edge-not-in-host", "other-dimensions"],
    )
    def test_bad_certify_subgraph_exits_2(self, capsys, tmp_path, k24_file, text):
        sub = tmp_path / "sub.txt"
        if text is not None:
            sub.write_text(text)
        code, out, err = run_cli(
            capsys,
            "certify", "--input", k24_file, "--parts", k24_file + ".parts",
            "--r", "2", "--subgraph", str(sub),
        )
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("error:")

    def test_library_value_error_is_internal_not_parse(self, capsys, monkeypatch, k24_file):
        def broken(*args, **kwargs):
            raise ValueError("simulated library bug")

        monkeypatch.setattr("krsfree.cli.count_copies", broken)
        code, out, err = run_cli(capsys, "count", "--input", k24_file, "--r", "2")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "Traceback" in err and "simulated library bug" in err

    def test_deeper_than_the_recursion_limit_is_a_capacity_error(self, capsys, tmp_path):
        # The matching walk recurses once per matching edge: 1,199 levels here.
        path = str(tmp_path / "edges.txt")
        write_hypergraph(Hypergraph.from_edges(2, 4000, [(2 * i, 2 * i + 1) for i in range(2000)]), path)
        code, out, err = run_cli(capsys, "count", "--input", path, "--r", "1200")
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err.startswith("capacity error: maximum recursion depth exceeded")

    def test_running_out_of_memory_is_a_capacity_error(self, capsys, monkeypatch, k24_file):
        def exhausted(g, r):
            raise MemoryError

        monkeypatch.setattr("krsfree.cli.count_matchings", exhausted)
        code, out, err = run_cli(capsys, "count", "--input", k24_file, "--r", "2")
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == "capacity error: out of memory\n" and "Traceback" not in err


# "{host}" stands for a K_{2,4} host file, with its partition at "{host}.parts".
HOST = "{host}"
PARTS = "{host}.parts"


def _fill(argv: tuple[str, ...], host: str) -> list[str]:
    return [a.replace("{host}", host) for a in argv]


class TestFlagRanges:
    """A flag outside its range exits 1 and names the flag; its boundary is accepted."""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--r", ("construct", "--k", "2", "--r", "1", "--n", "2")),
            ("--r", ("count", "--input", HOST, "--r", "1")),
            ("--r", ("extract", "--input", HOST, "--r", "1")),
            ("--r", ("oracle", "--input", HOST, "--r", "1")),
            ("--r", ("certify", "--input", HOST, "--parts", PARTS, "--r", "1")),
            ("--r", ("bounds", "--r", "1", "--n", "2")),
            ("--trials", ("extract", "--input", HOST, "--r", "2", "--trials", "0")),
            ("--seed", ("extract", "--input", HOST, "--r", "2", "--seed", "-1")),
            ("--budget", ("oracle", "--input", HOST, "--r", "2", "--budget", "0")),
            ("--s", ("oracle", "--input", HOST, "--parts", PARTS, "--r", "2", "--s", "1")),
            ("--budget", ("bounds", "--r", "2", "--n", "2", "--budget", "0")),
            ("--k", ("bounds", "--r", "2", "--k", "1", "--n", "2")),
            ("--n", ("bounds", "--r", "2", "--n", "0")),
            ("--s", ("bounds", "--r", "2", "--s", "1", "--n", "2")),
            ("--s", ("certify", "--input", HOST, "--parts", PARTS, "--r", "2", "--s", "0")),
            ("--n", ("construct", "--k", "2", "--r", "2", "--n", "0")),
            ("--k", ("construct", "--k", "1", "--r", "2", "--n", "2")),
            # Flags are checked before any file is read.
            ("--r", ("count", "--input", HOST + ".missing")),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_out_of_range_is_usage_error_naming_the_flag(self, capsys, k24_file, flag, argv):
        code, out, err = run_cli(capsys, *_fill(argv, k24_file))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--k", "2", "--r", "2", "--n", "1"),
            ("extract", "--input", HOST, "--r", "2", "--trials", "1", "--seed", "0"),
            ("oracle", "--input", HOST, "--r", "2", "--budget", "1"),
            ("oracle", "--input", HOST, "--parts", PARTS, "--r", "2", "--s", "2"),
            ("certify", "--input", HOST, "--parts", PARTS, "--r", "2", "--s", "1"),
            ("bounds", "--r", "2", "--k", "2", "--s", "2", "--n", "1", "--budget", "1"),
            # --k and --n go with --construct; other commands ignore them.
            ("count", "--input", HOST, "--r", "2", "--k", "1", "--n", "0"),
        ],
        ids=" ".join,
    )
    def test_boundary_is_accepted(self, capsys, k24_file, argv):
        code, _, err = run_cli(capsys, *_fill(argv, k24_file))
        assert code == EXIT_OK, err


class TestParserBehaviour:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--frobnicate")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["count", "extract"])
    def test_s_is_only_on_commands_that_read_it(self, capsys, command):
        code, out, _ = run_cli(
            capsys,
            command, "--construct", "--k", "2", "--r", "2", "--n", "2", "--s", "9",
        )
        assert code == EXIT_USAGE
        assert out == ""

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "construct" in out and "oracle" in out
        assert "Exit codes" in out

    def test_extract_help_names_the_csv_columns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--help"])
        assert exc.value.code == 0
        # argparse rewraps the description, so compare with the line breaks folded.
        assert ", ".join(REPORT_CSV_COLUMNS) in " ".join(capsys.readouterr().out.split())

    def test_one_parser_per_process_keeps_no_state(self, capsys, monkeypatch):
        # The parser is built once per process; each call in a row must print
        # what a fresh process prints for the same arguments.
        assert build_parser() is build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(krsfree.__file__).resolve().parents[1]))
        calls = [
            ("extract", "--construct", "--k", "2", "--r", "2", "--n", "2", "--s", "9"),
            ("count", "--construct", "--n", "2", "--r", "2", "--k", "3"),
            ("extract", "--help"),
            ("extract", "--help"),
        ]
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "krsfree", *argv], capture_output=True, text=True, env=env)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == EXIT_OK and ", ".join(REPORT_CSV_COLUMNS) in " ".join(captured.out.split())

    def test_console_script_installed(self, tmp_path):
        # An install writes a `krsfree` launcher for the entry point in
        # [project.scripts]; write the same launcher here so the command is
        # tested from a checkout, without needing an install.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "krsfree" in scripts
        module, _, attr = scripts["krsfree"].partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "krsfree"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = str(Path(krsfree.__file__).resolve().parents[1])

        def krsfree_cmd(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                ["krsfree", *argv], capture_output=True, text=True, env=env
            )

        proc = krsfree_cmd("construct", "--k", "2", "--r", "2", "--n", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "2 12 27"
        proc = krsfree_cmd("construct", "--k", "2", "--r", "2", "--n", "0")
        assert proc.returncode == EXIT_USAGE

    def test_python_dash_m(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(krsfree.__file__).resolve().parents[1])

        def module_cmd(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "krsfree", *argv], capture_output=True, text=True, env=env
            )

        proc = module_cmd("construct", "--k", "2", "--r", "2", "--n", "3")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[0] == "2 12 27"
        proc = module_cmd("construct", "--k", "2", "--r", "2", "--n", "0")
        assert proc.returncode == EXIT_USAGE
