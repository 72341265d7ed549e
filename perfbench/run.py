"""Benchmark of the flow and pattern pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload flow-ctu13 --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up once (session start, inputs, warm-up: ``setup_s``),
then repeats the untraced job until ``--seconds`` have passed (at least
once) and reports the end-to-end metrics, job time as the median.
``--trace 1`` runs the job once untraced and once traced and reports the
per-layer metrics, the tracing overhead among them; the spans, with
self times and Spark counts, go to ``.perfbench/trace-<workload>.json``.

Every run checks the outputs (see ``checks.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def declared_units(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the input rows; the network itself is fixed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs"), str(HERE)]

    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = OUT / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    harness.prepare_environment(ROOT, scratch)
    spark = harness.start_spark(wl.params["partitions_per_core"])
    spark_s = time.perf_counter() - T_START
    try:
        return measure(args, wl, spark, harness, spark_s)
    finally:
        harness.stop_spark(spark)
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, wl, spark, harness, spark_s: float) -> int:
    tracer = harness.Tracer(spark.sparkContext) if args.trace else None
    state = wl.setup(spark, args.seed)
    state.extra.update(order_seed=args.seed, cores=harness.CORES)
    setup_s = time.perf_counter() - T_START
    setup_phases = {"start_spark_s": spark_s, "inputs_and_warm_up_s": setup_s - spark_s}
    prov = harness.provenance(ROOT, {"name": wl.name, "params": wl.params}, args.seed)

    attempted = failed = 0
    messages: list[str] = []

    def account(ops: int, failures: list[str]) -> None:
        nonlocal attempted, failed
        attempted += ops
        failed += min(ops, len(failures))
        messages.extend(failures)

    def guarded(fn, *a):
        nonlocal attempted, failed
        try:
            return fn(*a)
        except Exception:  # a failing job is counted, not fatal
            print(traceback.format_exc(), file=sys.stderr, flush=True)
            attempted += wl.expected_ops  # every operation of the job failed
            failed += wl.expected_ops
            messages.append(f"{fn.__name__} raised")
            return None

    notes: list[str] = []
    if not args.trace:
        times = []
        t_end = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            out = guarded(wl.job, state)
            if out is None:  # a job that raised reports the time it took
                times.append(time.perf_counter() - t0)
                break
            secs, ops, failures = out
            times.append(secs)
            account(ops, failures)
            if time.perf_counter() >= t_end:
                break
        metrics = {
            "setup_s": setup_s,
            "job_s": statistics.median(times),
            "ok_frac": 1.0 - failed / attempted,
        }
        rss = harness.peak_rss_parts()
        metrics["peak_rss_mb"] = rss["python"] + sum(rss["workers"])
        units = declared_units("end_to_end")
        extra = {"job_runs": times, "peak_rss_parts": rss}
    else:
        metrics = {}
        out = guarded(wl.job, state)
        untraced_s = None
        if out is not None:
            untraced_s, ops, failures = out
            account(ops, failures)
        out = guarded(wl.traced, state, tracer)
        if out is not None:
            m, ops, failures, notes = out
            metrics.update(m)
            account(ops, failures)
            traced_s = tracer.get("job").seconds - tracer.probe_seconds()
            metrics["trace.job_s_traced"] = traced_s
            if untraced_s is not None:
                metrics["trace.job_s_untraced"] = untraced_s
                metrics["trace.overhead_s"] = traced_s - untraced_s
        rss = harness.peak_rss_parts()
        metrics["jvm.peak_rss_mb"] = rss["jvm"]
        units = declared_units("per_layer")
        extra = {"spans": tracer.report(), "notes": notes, "peak_rss_parts": rss}
        for k in units:
            metrics.setdefault(k, 0)
    OUT.mkdir(exist_ok=True)
    detail = {"provenance": prov, "setup_phases": setup_phases,
              "attempted": attempted, "failed": failed,
              "failures": messages, "metrics": metrics,
              "summary": getattr(wl, "last_summary", None), **extra}
    name = f"{'trace' if args.trace else 'result'}-{wl.name}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, default=str))

    for n in notes:
        print(n)
    for msg in messages[:20]:
        print(f"FAILED: {msg}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
