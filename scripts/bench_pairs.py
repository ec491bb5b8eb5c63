"""Alternating benchmark pairs: a parent revision against this checkout, on one workload.

    python3 scripts/bench_pairs.py --parent REV --workload W --pairs N [--seed 2024]

Run from anywhere.  It exports REV with ``git archive`` into a temporary
directory outside the checkout, then runs ``perfbench/run.py --workload W
--seed S --trace 0`` N times in each tree, alternating between them; the
side that runs first alternates too, the export in odd pairs.  Each side
runs its own ``perfbench/`` on its own ``src/``; the checkout side includes
uncommitted changes.  It prints each pair's end-to-end metrics (parent ->
checkout), then per metric the medians of both sides, the distance between
the quartiles of the parent's runs, the number of pairs in which the
checkout was better, and a verdict against the metric's ``bound`` in
``BENCHMARK.json`` (a share of the parent's median).  Before the first pair
and after the last it prints the CPUs the process may use and the load
averages, since a speed-up from threads depends on idle CPUs.  Verdicts:

- ``better``: the checkout was better in at least nine pairs in ten, and its
  median beats the parent's by more than the parent's quartile distance;
- ``unresolved``: the parent's quartile distance exceeds bound x median,
  and not every checkout run beats every parent run;
- ``worse``: the checkout's median is worse than the parent's by more than
  bound x median;
- ``within bound``: otherwise.

It exits 1 if a run exits non-zero, reports itself
incorrect, or fails an operation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    """The tree of rev, written into dest by git archive."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int) -> dict:
    """The JSON result (the last line of standard output) of one untraced run.py in tree."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_line(when: str) -> str:
    """The CPUs this process may use and the 1, 5 and 15 minute load averages, labelled when."""
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"host {when}: {len(os.sched_getaffinity(0))} CPUs, load averages {load}"


def compare(metric: dict, old: list[float], new: list[float]) -> str:
    """One metric's summary line over the parent's runs old and the checkout's runs new, ending in its verdict."""
    name, bound, sign = metric["name"], metric["bound"], 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    a, b = statistics.median(old), statistics.median(new)
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (a, a, a)
    if wins >= 0.9 * len(old) and sign * (a - b) > q3 - q1:
        verdict = "better"
    elif q3 - q1 > bound * abs(a) and max(sign * v for v in new) >= min(sign * v for v in old):
        verdict = "unresolved"
    elif sign * (b - a) > bound * abs(a):
        verdict = "worse"
    else:
        verdict = "within bound"
    change = f" ({100.0 * (b - a) / a:+.1f}%)" if a else ""
    return (f"median {name}: {a:.4g} -> {b:.4g} {metric['unit']}{change}, parent quartile spread {q3 - q1:.4g}, "
            f"checkout better in {wins} of {len(old)} pairs: {verdict} (bound {bound:g})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs: need at least one pair, got {args.pairs}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    bad = 0
    results: dict[str, list[dict]] = {"parent": [], "checkout": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        print(f"workload {args.workload}, seed {args.seed}: {args.parent} (export in {parent}) -> {ROOT}")
        print(host_line("before the pairs"), flush=True)
        for i in range(1, args.pairs + 1):
            sides = (("parent", parent), ("checkout", ROOT))
            for side, tree in sides if i % 2 else sides[::-1]:
                result = run(tree, args.workload, args.seed)
                results[side].append(result)
                if not result["correct"] or result["failed"]:
                    bad += 1
                    print(f"  {side}: {result['failed']} of {result['attempted']} operations failed, "
                          f"correct={result['correct']}", file=sys.stderr)
            old, new = (results[side][-1]["metrics"] for side in ("parent", "checkout"))
            line = ", ".join(f"{m['name']} {old[m['name']]['value']:.4g} -> {new[m['name']]['value']:.4g}"
                             for m in metrics)
            print(f"pair {i}: {line}", flush=True)
        print(host_line("after the pairs"))

    for m in metrics:
        print(compare(m, *([r["metrics"][m["name"]]["value"] for r in results[side]]
                           for side in ("parent", "checkout"))))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
