"""The benchmark's seed-0 output gate, run as a test.

Each workload in bench/workloads.py builds its inputs, runs one operation and
checks it against bench/reference.json, as bench/run.py does before timing
anything. A change that alters seed-0 output bytes, or a library name the
benchmark imports, fails here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, make_workload  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_output_passes_the_gate(name, tmp_path):
    workload = make_workload(name, 0, REFERENCE, str(tmp_path))
    workload.setup()
    assert workload.check(workload.run_op()) == []
