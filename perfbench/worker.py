"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --t0 T [--setup-only] [--trace]

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import normone` and decoding the query
list.  The pass runs every query through normone.cli.run in-process, one
after another (a closed loop with one client), and checks each answer
after timing it.  It prints one JSON line for the set-up, one for each
query as it finishes, and one closing line with the pass's wall time and
peak memory, so a parent that cuts the pass short keeps what it finished.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback

from common import call_cli, check, load_expected, make_queries, use_checkout_source


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    use_checkout_source()
    from normone.cli import run

    queries = make_queries(load_expected(), args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    emit({"setup_s": setup_s})
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = sys.modules["normone.cli"].run  # the wrapped entry point

    wall_s = 0.0
    for q in queries:
        if tracer is not None:
            tracer.query_id = q["id"]
        # each query starts from a collected heap, as a fresh CLI process would
        gc.collect()
        t = time.perf_counter()
        try:
            code, text = call_cli(run, q["argv"])
        except Exception:  # a traceback is a failed query, not a dead pass
            code, text = None, traceback.format_exc()
        latency = time.perf_counter() - t
        wall_s += latency
        reason = check(q["expect"], code, text) if code is not None else text.strip()
        emit({"id": q["id"], "latency": latency, "failure": reason})

    out = {"wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
    emit(out)


def emit(record):
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
