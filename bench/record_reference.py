"""Record the reference outputs the benchmark's output gate compares against.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are the reference (the committed file
was recorded at the commit that introduced the benchmark). It writes
bench/reference.json: the extraction CSV/JSON digests at the default seed,
each oracle instance's optimum, proof flag, node count and witness digest,
and the digest of each `count` command's stdout.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run


def main() -> None:
    run.import_program()
    from workloads import ORACLE_INSTANCES, make_workload, sha256

    reference: dict = {"extract": {}}
    workdir = tempfile.mkdtemp(prefix=".work-", dir=run.BENCH_DIR)
    try:
        for name in ("extract_anchored", "extract_unanchored"):
            w = make_workload(name, run.DEFAULT_SEED, reference, workdir)
            w.setup()
            reference["extract"][name] = w.digests(w.run_op())
        w = make_workload("oracle_exact", run.DEFAULT_SEED, reference, workdir)
        w.setup()
        reference["oracle"] = w.digests({name: w.solve(name) for name in ORACLE_INSTANCES})
        w = make_workload("count_cli", run.DEFAULT_SEED, reference, workdir)
        w.setup()
        reference["count"] = {
            name: {"exit_code": code, "stdout_sha256": sha256(text)}
            for name, (code, text, _stderr) in w.run_op().values.items()
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
