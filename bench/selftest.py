"""Self-test of the benchmark: ``python3 bench/selftest.py [--workload W] [--seed N]``.

1. In a directory holding only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits non-zero without printing a result.
2. Two traced runs of the same seed pass every gate, and every counter
   (each per-layer metric with unit ``count``) repeats exactly, so a later
   change may rest a claim on a named count.

Run from the root of a checkout.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_bare_directory() -> list[str]:
    bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("bare directory: benchmark exited 0")
    if _result(proc.stdout) is not None:
        errors.append("bare directory: benchmark printed a result")
    return errors


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = _result(proc.stdout)
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"{workload}: traced run failed\n{proc.stderr}")
    return result


def check_counts(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    errors = []
    for n, res in enumerate((first, second), start=1):
        if not res["correct"] or res["failed"]:
            errors.append(f"{workload}: traced run {n} failed {res['failed']} of {res['attempted']}")
    for name, metric in sorted(first["metrics"].items()):
        if metric["unit"] != "count":
            continue
        a, b = metric["value"], second["metrics"][name]["value"]
        if a != b:
            errors.append(f"{workload}: {name} is {a} then {b}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=("certify", "embed", "chain"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    errors = check_bare_directory()
    for workload in args.workload or ("certify", "embed", "chain"):
        errors += check_counts(workload, args.seed)
        print(f"{workload}: counters checked", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
