"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR [--trace]

Imports frequalize from the checkout's src/, builds the workload's inputs,
runs its operations in order (the timed window), then checks every output
and writes DIR/result.json: the monotonic-clock time of the first call,
run_s, peak RSS at the end of the window, per-operation outcome and digest
and, when traced, the recorded spans.  Exit code 0 means the round ran to
its end, whether or not operations failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib only)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    work = Path(args.work)

    rec = tracing.Recorder() if args.trace else None
    if rec:
        tracing.install_library_wrappers(rec)
    import frequalize
    import frequalize.cli

    src = HERE.parent / "src"
    if src.resolve() not in Path(frequalize.__file__).resolve().parents:
        print(f"frequalize imported from {frequalize.__file__}, not from {src}", file=sys.stderr)
        return 2
    if rec:
        tracing.install_layer_wrappers(rec)
    import workloads

    main_fn = rec.wrap("cli.main", frequalize.cli.main) if rec else frequalize.cli.main
    ctx = workloads.Context(seed=args.seed, work=work, main=main_fn)
    ops = workloads.WORKLOADS[args.workload](ctx, frequalize)

    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    outcomes = []
    for op in ops:
        try:
            outcomes.append((op, op.call(), None))
        except Exception:  # an operation failing is a measured outcome, not a crash
            outcomes.append((op, None, traceback.format_exc(limit=4)))
    run_s = time.clock_gettime(time.CLOCK_MONOTONIC) - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec:
        rec.active = False

    results = []
    for op, value, error in outcomes:
        digest = None
        if error is None:
            try:
                op.check(value)
                digest = op.digest(value)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = "check raised:\n" + traceback.format_exc(limit=4)
        results.append({"name": op.name, "error": error, "digest": digest})

    result = {
        "first_call": first,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "trace": rec.dump() if rec else None,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
