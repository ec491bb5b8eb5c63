"""Per-operation wall time, CPU time, RSS high-water mark and minor page faults of one workload round.

    python3 scripts/op_memory.py --workload NAME [--seed 2024]

Run from anywhere; it measures the checkout it lives in.  It imports
frequalize from the checkout's ``src/`` and the workload from
``perfbench/workloads.py``, unchanged, and runs one untraced round in this
process: set-up first, then the operations in order, with the single BLAS
thread of a benchmark round.  The header names the package's worker count
(``frequalize.grid._WORKERS``, the CPUs the process may use), which the FFTs
and the mode propagators share.  Per line: the wall time, and beside it the
CPU seconds of every thread of the process (``ru_utime + ru_stime``), so a
step that ran on several threads reads cpu_s above wall_s; the RSS
high-water mark once the step has run (``ru_maxrss``; it never falls, so a
step that leaves it where it was stayed under the earlier peak); and the
minor page faults the step took.  All but the wall time come from one
``getrusage`` of this process.
After the last operation it runs each operation's check and prints its
digest, so two checkouts can be compared for identical outputs.  It exits 1
if an operation or a check fails.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave the checkout as it was

import run as perfbench_run  # noqa: E402  (stdlib only; sets no thread count on import)

# before numpy loads: the thread counts of a benchmark round's worker
os.environ.update(perfbench_run.THREAD_ENV)


def usage() -> tuple[float, float, float, int]:
    """(monotonic seconds, CPU seconds, RSS high-water mark in MB, minor page faults so far) of this process."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, ru.ru_minflt


def line(name: str, before: tuple[float, float, float, int], after: tuple[float, float, float, int]) -> str:
    return (f"{name:<20} {after[0] - before[0]:>9.3f} {after[1] - before[1]:>9.3f} {after[2]:>11.1f}"
            f" {after[3] - before[3]:>12,d}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    import frequalize
    import frequalize.cli
    import frequalize.grid
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload: expected one of {sorted(workloads.WORKLOADS)}, got {args.workload!r}")
    print(f"workload {args.workload}, seed {args.seed}, {frequalize.grid._WORKERS} workers, "
          f"frequalize from {Path(frequalize.__file__).parent}")
    print(f"{'step':<20} {'wall_s':>9} {'cpu_s':>9} {'max_rss_mb':>11} {'minor_faults':>12}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="op-memory-") as tmp:
        ctx = workloads.Context(seed=args.seed, work=Path(tmp), main=frequalize.cli.main)
        start = usage()
        ops = workloads.WORKLOADS[args.workload](ctx, frequalize)
        mark = usage()
        print(line("set-up", start, mark))
        outcomes = []
        for op in ops:
            before = mark
            try:
                value, error = op.call(), None
            except Exception:  # a failed operation is reported with the others
                value, error = None, traceback.format_exc(limit=4)
            mark = usage()
            print(line(op.name, before, mark), flush=True)
            outcomes.append((op, value, error))
        print(line("round", start, mark))

        for op, value, error in outcomes:
            if error is None:
                try:
                    op.check(value)
                    digest = op.digest(value)
                except Exception:  # a check that fails or raises fails its operation
                    error = traceback.format_exc(limit=4)
            if error is None:
                print(f"{op.name:<20} ok {digest}")
            else:
                failed += 1
                print(f"{op.name:<20} FAILED\n{error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
