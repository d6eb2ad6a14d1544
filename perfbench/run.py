"""Run one normone benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {brute,structural,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of a workload runs in a fresh
worker process (perfbench/worker.py), so per-process caches start cold.

--trace 0 measures end to end: set-up probes, then passes until S seconds
are used.  The first pass runs to its end; a later one still running when
the time is up is cut, and the queries it finished still count.  setup_s
and peak_rss_mb are medians over their samples; the query metrics take each
query's mean latency over the run.
--trace 1 runs one untraced pass and two traced passes with the same seed,
reports the per-layer metrics of the first traced pass, and fails the
self-check unless the two traced passes give identical counts.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A human-readable table goes to stderr, and the full record, with
the run settings, to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import HERE, PINNED_BUDGET, ROOT, SRC, WORKLOADS, SetupError, use_checkout_source

SETUP_PROBES = 8
MIN_PASS_S = 1.0  # a cut pass shorter than this would finish no query
RUN_LIMIT_S = 170.0  # every worker must have ended by then
RESULTS = os.path.join(HERE, "results")


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, deadline, *flags, cut=None):
    """Run one worker and return its report: set-up time, the queries it
    finished, and, if it ran to the end, the pass's wall time and memory.
    A worker still running at monotonic time `cut` is stopped there."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    until = deadline if cut is None else min(cut, deadline)
    try:
        out, err = proc.communicate(timeout=max(0.0, until - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()  # what the worker printed before the kill
        if until == deadline:
            raise WorkerFailed(f"{workload} worker did not finish in time")
    else:
        if proc.returncode != 0:
            raise WorkerFailed(f"{workload} worker exited {proc.returncode}: "
                               f"{err.strip()[-2000:]}")
    lines = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    if not lines:  # cut before its set-up was done
        return {"queries": []}
    report = dict(lines[0], queries=[ln for ln in lines[1:] if "id" in ln])
    if proc.returncode == 0 and "--setup-only" not in flags:
        report.update(lines[-1])
    return report


def percentile(values, q):
    """The q-th percentile (q in 1..99), interpolating between order statistics
    (statistics.quantiles' inclusive method, numpy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, deadline):
    def probe():
        return spawn(args.workload, args.seed, deadline, "--setup-only")

    started = time.monotonic()
    # half the set-up probes before the passes and half after, so that one
    # slow moment of the machine does not decide the median
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    probe_s = (time.monotonic() - started) / len(probes)
    cut = started + args.seconds - probe_s * (SETUP_PROBES - len(probes))
    # The first pass always runs to its end.  Later passes are cut at the end
    # of the run, so the whole run is measured, and a cut pass still counts
    # the queries it finished.
    passes = [spawn(args.workload, args.seed, deadline)]
    while cut - time.monotonic() > MIN_PASS_S:
        passes.append(spawn(args.workload, args.seed, deadline, cut=cut))
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    whole = [p for p in passes if "wall_s" in p]
    setups = [p["setup_s"] for p in probes + passes if "setup_s" in p]
    # Every pass asks the same queries in the same order.  The host's speed
    # drifts by up to 1.6x over seconds to minutes, so each query counts with
    # its mean latency over the run, an average over that drift: wall_s is the
    # sum of these and the quantiles are taken over them.
    samples = {q["id"]: [] for q in passes[0]["queries"]}
    for p in passes:
        for q in p["queries"]:
            samples[q["id"]].append(q["latency"])
    per_query = [statistics.fmean(ts) for ts in samples.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_query), "s"),
        "query_p50_s": (percentile(per_query, 50), "s"),
        "query_p90_s": (percentile(per_query, 90), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in whole), "MB"),
    }
    notes = {
        "passes": len(whole),
        "cut_passes": len(passes) - len(whole),
        "setup_samples": len(setups),
        "query_samples": len(per_query),
        "pass_wall_s": [p["wall_s"] for p in whole],
        "latencies_s": samples,
        "setup_samples_s": setups,
    }
    return passes, metrics, notes


def traced(args, deadline):
    from tracer import COUNTS

    plain = spawn(args.workload, args.seed, deadline)
    first = spawn(args.workload, args.seed, deadline, "--trace")
    second = spawn(args.workload, args.seed, deadline, "--trace")
    layers = first["layers"]
    mismatched = [k for k in COUNTS if layers[k] != second["layers"][k]]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    metrics = {k: (v, "count" if k in COUNTS else "s") for k, v in layers.items()}
    metrics["trace.overhead_s"] = (first["wall_s"] - plain["wall_s"], "s")
    metrics["trace.unattributed_s"] = (first["wall_s"] - self_total, "s")
    notes = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": first["wall_s"],
        "spans": first["spans"],
        "layer_share": {k[: -len(".self_s")]: v / first["wall_s"]
                        for k, v in layers.items() if k.endswith(".self_s")},
        "count_mismatches": {k: [layers[k], second["layers"][k]] for k in mismatched},
    }
    return [plain, first, second], metrics, notes


def settings(args, versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": versions["numpy"],
        "nproc": os.cpu_count(), "cpu_model": cpu, "cochain_budget": versions["budget"],
        "src_lines": src_lines,
    }


def report(args, passes, metrics, notes, conf):
    finished = [q for p in passes for q in p["queries"]]
    failures = [{"id": q["id"], "reason": q["failure"]} for q in finished if q["failure"]]
    attempted = len(finished)
    correct = not failures and not notes.get("count_mismatches")
    record = {"settings": conf, "correct": correct, "attempted": attempted,
              "failed": len(failures), "failures": failures, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    err = sys.stderr
    print(f"normone benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}",
          file=err)
    for k, (v, u) in metrics.items():
        extra = ""
        if k == "query_p90_s":
            extra = f"  ({notes['query_samples']} samples)"
        print(f"  {k:32s} {v:14.6f} {u}{extra}", file=err)
    if "layer_share" in notes:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in notes["layer_share"].items())
        print(f"  self-time shares of the traced pass: {shares}", file=err)
    print(f"  attempted {attempted}, failed {len(failures)}", file=err)
    for f in failures[:20]:
        print(f"  FAILED {f['id']}: {f['reason']}", file=err)
    for k, (a, b) in notes.get("count_mismatches", {}).items():
        print(f"  SELF-CHECK: {k} read {a} then {b}", file=err)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        use_checkout_source()
        # the module, not the function that the package re-exports under its name
        budget = importlib.import_module("normone.cohomology").DEFAULT_COCHAIN_BUDGET
        if budget != PINNED_BUDGET:
            raise SetupError(f"default cochain budget is {budget}, the benchmark pins "
                             f"{PINNED_BUDGET}")
        import numpy

        versions = {"numpy": numpy.__version__, "budget": budget}
        conf = settings(args, versions)
        passes, metrics, notes = (traced if args.trace else end_to_end)(args, deadline)
    except (SetupError, WorkerFailed, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    report(args, passes, metrics, notes, conf)


if __name__ == "__main__":
    main()
