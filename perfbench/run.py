"""mtalk benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_compile,edit_fold,vm_serve}
        [--seed N] [--seconds S] [--trace 0|1]

Untraced (--trace 0) runs set the workload up three times, measure it for
about S seconds and print its end-to-end metrics. Traced runs (--trace 1)
record spans around mtalk's public calls in one traced pass of every
workload, write them under .bench_build/perfbench/traces/, and print the
per-layer metrics derived from them; trace.overhead_pct compares a traced and
an untraced pass of the named workload. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. The line before it
holds the environment and the workload's metrics under the names of the
benchmark's design (compile_cold_s, fold_value_ms, vm_get_p999_us, ...).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3  # set-ups per run; setup_s is their median

# name: unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p75_ms": "ms",
    "op_tail_ms": "ms",
    "edit_ms": "ms",
    "peak_rss_mb": "MB",
}


def _untraced(mod, run, seconds: float):
    from perfbench.harness import median, peak_rss_mb

    setups = []
    fx = None
    for _ in range(SETUPS):
        fx = None
        gc.collect()
        with run.timed() as timer:
            fx = mod.setup(run)
        setups.append(timer.seconds)
    e2e, report = mod.measure(run, fx, seconds)
    metrics = {"setup_s": median(setups), **e2e}
    if run.rss_baseline_mb is not None:
        # peak_rss_mb leaves out what the process held once the harness's own
        # data was built, before mtalk compiled or loaded anything
        report["process_peak_rss_mb"] = (peak_rss_mb(), "MB")
        report["rss_baseline_mb"] = (run.rss_baseline_mb, "MB")
    return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()}, report


def _traced(workloads, name: str, run):
    from perfbench import layers
    from perfbench.trace import OPTIONAL

    overhead = 0.0
    missing = run.tracer.install()
    for target in missing:
        run.record(target in OPTIONAL, f"trace target {target} not found")
    try:
        for other, mod in workloads.items():
            with run.span(f"bench.{other}"):
                with run.span("bench.setup"):
                    fx = mod.setup(run)
                pair = mod.traced(run, fx, reference=other == name)
            if pair:
                overhead = (pair[0] / pair[1] - 1.0) * 100.0
            fx = None
            gc.collect()
    finally:
        run.tracer.uninstall()
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run.tracer.run_id}.jsonl.gz")
    run.tracer.write(path)
    derived = layers.derive(run.tracer.spans, overhead)
    # a metric without spans reads 0 and fails the run, unless the private
    # target it comes from is missing, which the report names
    empty = [n for n, *_ in layers.METRICS if derived[n] is None]
    for n in empty:
        run.record(n == "compiler.cycle_s" and "compiler.injection_cycles" in missing,
                   f"per-layer metric {n} has no spans")
    metrics = {n: {"value": derived[n] or 0.0, "unit": unit} for n, unit, *_ in layers.METRICS}
    return metrics, {
        "trace_file": (os.path.relpath(path, ROOT), "path"),
        "spans": (len(run.tracer.spans), "count"),
        "untraced_targets": (missing, "names"),
        "metrics_without_spans": (empty, "names"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli_compile", "edit_fold", "vm_serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "mtalk", "__init__.py")):
        print(f"perfbench: no mtalk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import PINNED_OUT, Run

    # measure the default configuration, whatever the caller's environment says
    for key in PINNED_OUT:
        os.environ.pop(key, None)
    # one CPU for this process and its CLI children, so the host-speed
    # calibration runs where the measured work runs (see harness.py)
    allowed = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import mtalk.graph
    from perfbench import cli_compile, edit_fold, vm_serve
    from perfbench.trace import Tracer

    workloads = {"cli_compile": cli_compile, "edit_fold": edit_fold, "vm_serve": vm_serve}
    tracer = Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}") if args.trace else None
    run = Run(args.seed, tracer)
    try:
        if args.trace:
            metrics, report = _traced(workloads, args.workload, run)
        else:
            metrics, report = _untraced(workloads[args.workload], run, args.seconds)
    finally:
        run.close()
    report["ops_failed_ratio"] = (run.failed / max(run.attempted, 1), "ratio")
    print(json.dumps({
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_allowed": allowed,
            "cpus_used": len(os.sched_getaffinity(0)),
            "reach_impl": mtalk.graph.REACH_IMPL,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host_speed": run.host_speed(),
        },
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # fixed set and dict orders for this process and its children
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
