#!/usr/bin/env python3
"""latentjam benchmark: one workload per run, result as JSON on the last line.

Usage:
  python3 bench/run.py --workload {train-mnist-aj,compare-oracle}
                       --seed N --seconds S --trace {0,1}

Untraced (--trace 0): set-up runs SETUP_REPS times, then operations run
back to back for S seconds; every operation's output is checked. The
result reports setup_s, op_ms (median per-operation wall time) and
peak_rss_mb. Traced (--trace 1): the tracer wraps the package's public
functions, operations run traced for S/2 seconds and untraced for S/2,
and the result reports the per-layer metrics of the traced operations;
the traced/untraced op_ms gap is printed as the tracing overhead. See
bench/README.md.
"""

import time

T_START = time.perf_counter()  # before numpy or latentjam is imported

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

import spans  # bench/spans.py; imports nothing heavy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC_DIR = os.path.join(ROOT, "src")

# OpenBLAS at 2 threads (the machine's core count) gave the steadiest
# MNIST-shape step times; the benchmark sets it rather than inheriting it.
BLAS_THREADS = "2"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
WORKLOAD_NAMES = ("train-mnist-aj", "compare-oracle")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def run_ops(workload, seconds: float, tracer=None):
    """Operations back to back until `seconds` pass; returns (times_s, attempted, failed)."""
    times, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        workload.before()
        if tracer is not None:
            tracer.phase = spans.OP
        try:
            t0 = time.perf_counter()
            result = workload.op()
            elapsed = time.perf_counter() - t0
        except Exception:
            failed += 1
            print(f"operation {attempted} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.phase = spans.OFF
        try:
            workload.check(result)
        except Exception as err:
            failed += 1
            print(f"operation {attempted} failed its check: {err!r}", file=sys.stderr)
            continue
        times.append(elapsed)
    return times, attempted, failed


def median_ms(times):
    return 1000.0 * statistics.median(times)


def blas_description() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown BLAS"
    return f"{name}, {BLAS_THREADS} threads (set by the benchmark)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "latentjam", "__init__.py")):
        print(f"latentjam sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC_DIR)
    import workloads
    imports_s = time.perf_counter() - T_START
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = spans.OFF
    workload.prepare()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"blas: {blas_description()}")
    correct = True
    if tracer is None:
        times, attempted, failed = run_ops(workload, args.seconds)
    else:
        traced, att_t, fail_t = run_ops(workload, args.seconds / 2, tracer)
        tracer.uninstall()
        times, att_u, fail_u = run_ops(workload, args.seconds / 2)
        attempted, failed = att_t + att_u, fail_t + fail_u
    try:
        workload.finish()
    except workloads.CheckFailed as err:
        correct = False
        print(f"final check failed: {err}", file=sys.stderr)
    if not times:
        print("no operation completed its check", file=sys.stderr)
        return 1

    print(f"operations: {attempted} attempted, {failed} failed")
    if tracer is None:
        metrics = {
            "setup_s": (imports_s + statistics.median(setup_times), "s"),
            "op_ms": (median_ms(times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"  set-up: imports {imports_s:.3f} s + median of {SETUP_REPS} set-ups "
              f"({', '.join(f'{t:.3f}' for t in setup_times)} s)")
        if len(times) < 100:
            print(f"  op times: {' '.join(f'{1000.0 * t:.1f}' for t in times)} ms")
        else:
            print(f"  op p90 {1000.0 * statistics.quantiles(times, n=10)[-1]:.4f} ms "
                  f"over {len(times)} operations (reference, no bound)")
    else:
        values, calls = tracer.per_layer(SETUP_REPS, att_t)
        metrics = {m: (values[m], spec[2]) for m, spec in spans.METRICS.items()}
        if traced and times:
            traced_ms, untraced_ms = median_ms(traced), median_ms(times)
            print(f"  tracing overhead: traced op_ms {traced_ms:.4f} over {len(traced)} ops, "
                  f"untraced {untraced_ms:.4f} over {len(times)} ops "
                  f"({100.0 * (traced_ms / untraced_ms - 1.0):+.1f} %)")
        for missing in spans.missing_calls(args.workload, calls):
            print(f"  trace self-check: {missing} recorded no calls on {args.workload}")
        for binding in tracer.unbound:
            print(f"  trace self-check: binding {binding} not found")
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        tracer.write(trace_path)
        print(f"  spans: {len(tracer.start)} written to {os.path.relpath(trace_path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
