"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/measure.py --workload NAME --seed N [--setup-only]
                                 [--trace 0|1] [--run-id ID] [--out-dir DIR]

``run.py`` starts this with ``src`` on PYTHONPATH.  The pass sets up (import,
field tables, the workload's inputs), then runs the task once, cold: it is
the first call of the task in its process, as it is for a CLI user.  Set-up
and task are timed apart, so work moved into set-up still shows.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

START = time.perf_counter()  # before numpy and skewqc are imported


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="pass")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import tracing

    tracer = tracing.Tracer(args.run_id)
    cpu0 = tracing.cpu_times()[0]
    t0 = time.perf_counter()
    if args.trace:
        with tracing.traced_lib(tracer) as lib, tracer.span("bench.task", "bench"):
            outputs = workload.task(lib, inputs)
    else:
        outputs = workload.task(tracing.plain_lib(), inputs)
    wall_s = time.perf_counter() - t0
    cpu_s = tracing.cpu_times()[0] - cpu0

    check = workload.check(inputs, outputs)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # largest resident set among the process and its workers (forked
        # workers share pages with the parent, so a sum would overcount)
        "peak_rss_mb": max(own_kb, kids_kb) / 1024,
        "ops": check.ops,
        "failures": check.failures,
        "correct": check.correct,
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans, check.row_reports)
        tracer.dump(os.path.join(args.out_dir, f"spans-{args.run_id}.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
