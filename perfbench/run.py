"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh worker process
(perfbench/worker.py) that imports frequalize from src/, builds the
workload's inputs from the seed, runs the workload's calls and checks their
outputs.  Rounds repeat until the next one would end past --seconds, with
at least two (four when traced), so every run attempts whole rounds of the
same operations.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the rounds.  --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, plus trace.overhead_s, the traced
minus the untraced median run_s.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout as it was

import tracing  # noqa: E402  (stdlib only)

# whole rounds per run: two untraced, or, traced, two of each kind so that
# counts can be compared between traced rounds of one run
MIN_ROUNDS = {False: 2, True: 4}
RUN_LIMIT_S = 170.0  # hard ceiling on one invocation, rounds included
# one BLAS thread: the eigenproblems are 10x10, and a 2-CPU box shared with
# other work times steadier without idle BLAS threads spinning
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_round(workload: str, seed: int, traced: bool, work: Path, timeout: float) -> dict:
    work.mkdir(parents=True)
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)] + (["--trace"] if traced else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round of {workload} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = result["first_call"] - spawned
    shutil.rmtree(work)
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    rounds: list[dict] = []
    begin = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        enough = len(rounds) >= MIN_ROUNDS[trace]
        if enough and elapsed + last > seconds:
            break
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        result = run_round(workload, seed, traced, work / f"round{len(rounds)}", RUN_LIMIT_S - elapsed)
        result["traced"] = traced
        rounds.append(result)
        last = time.perf_counter() - t0
    return rounds


def tally(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); a digest differing from round 0 fails its operation."""
    attempted = failed = 0
    messages = []
    first = {op["name"]: op["digest"] for op in rounds[0]["ops"]}
    for i, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            attempted += 1
            error = op["error"]
            if error is None and first[op["name"]] is not None and op["digest"] != first[op["name"]]:
                error = "output bytes differ from round 0"
            if error is not None:
                failed += 1
                messages.append(f"round {i} {op['name']}: {error}")
    return attempted, failed, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "frequalize" / "__init__.py").is_file():
        print(f"no frequalize sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        rounds = run_rounds(args.workload, args.seed, seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted, failed, messages = tally(rounds)
    for line in messages:
        print(f"FAILED {line}", file=sys.stderr)
    correct = True
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        wanted = [m for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        traced = [tracing.per_layer_metrics(r["trace"], [m["name"] for m in wanted]) for r in rounds if r["traced"]]
        values = {}
        for m in wanted:
            series = [t[m["name"]] for t in traced]
            if m["unit"] == "count" and len(set(series)) > 1:
                print(f"count {m['name']} differs between traced rounds: {series}", file=sys.stderr)
                correct = False
            values[m["name"]] = statistics.median(series)
        values["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in rounds if r["traced"])
            - statistics.median(r["run_s"] for r in plain)
        )
        metrics = spec["per_layer"]
    else:
        values = {m["name"]: statistics.median(r[m["name"]] for r in plain) for m in spec["end_to_end"]}
        metrics = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds "
          f"({len(plain)} untraced), {attempted} operations, {failed} failed")
    for m in metrics:
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
