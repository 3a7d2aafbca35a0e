"""The benchmark still runs against this checkout: its self-tests pass and
every workload of BENCHMARK.json solves at smoke size, correct and with no
failed solve.  The bench wraps and reads names of the package (solvers,
forms, the source evaluator, stepper attributes), so a renamed or deleted
one shows here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_bench_selftest_passes():
    proc = _run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert " 0 failed" in summary, summary


def test_bench_smoke_run_is_correct_on_every_workload(tmp_path):
    out = tmp_path / "bench.jsonl"
    proc = _run("bench/run.py", "--workload", "all", "--smoke",
                "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert (sorted(r["workload"] for r in records)
            == sorted(w["name"] for w in spec["workloads"]))
    for r in records:
        assert r["correct"] and r["failed"] == 0, (r["workload"],
                                                   r["checks"])
