"""Record one benchmark file: every workload once untraced and once traced.

    python3 scripts/bench_record.py

Run from anywhere; it benchmarks the checkout it lives in, at seed 2024 and
for the ``run_seconds`` of BENCHMARK.json.  For each workload it runs
``perfbench/run.py`` twice, with ``--trace 0`` and ``--trace 1``, one after
the other, and keeps the round-count line and the last line (the JSON
result) of each.  It writes ``BENCH_<sha>.json`` at the root of the
checkout, named by the short git sha of HEAD, with the seed, the seconds,
the full sha and whether the tree had uncommitted changes, ``nproc``, and
the Python, numpy and scipy versions.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
SEED = 2024


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_once(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    rounds = next(line for line in lines if line.startswith(f"workload {workload},"))
    return {"rounds": rounds, "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = git("rev-parse", "--short", "HEAD")
    record = {
        "tag": tag,
        "git_sha": git("rev-parse", "HEAD"),
        "tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": spec["run_seconds"],  # run.py's default --seconds
        "nproc": len(os.sched_getaffinity(0)),  # the CPUs this process may use, as nproc counts
        # the workers run this same interpreter
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = {
            "untraced": run_once(workload, 0),
            "traced": run_once(workload, 1),
        }
        print(record["workloads"][workload]["untraced"]["rounds"], file=sys.stderr)
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
