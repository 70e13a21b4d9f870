#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs of the same code, compared
against the bounds in BENCHMARK.json.

Usage:
  python3 bench/steady.py

Every run is `bench/run.py --trace 0` at BENCHMARK.json's run_seconds, on
every workload it names, with its own seed (set s, run i uses seed
s*RUNS + i + 1); the workloads are interleaved so that a slow spell of the
machine falls on all of them. For each workload and end-to-end metric it
prints, per set, the median and the quartile spread (Q3 - Q1, as
`statistics.quantiles(n=4)` gives them) as a share of the median, and the
drift of the second set's median from the first. It exits 1 when a drift,
in either direction, or a spread (setup_s's excepted, see below) exceeds
the metric's bound, when the share of failed operations differs between
the sets, or when a run reports `"correct": false`. Raw values go to
bench/out/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 600
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    results = {w: ([], []) for w in names}
    for s in range(2):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in names:
                out = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(out)
                values = " ".join(f"{k}={v['value']:.4f}" for k, v in out["metrics"].items())
                print(f"set {s + 1} run {i + 1:2d} seed {seed:3d} {w:15s} "
                      f"{out['failed']}/{out['attempted']} failed{'' if out['correct'] else ', INCORRECT'}  "
                      f"{values}", flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"\n{'workload':15s} {'metric':12s} {'bound':>6s}  set 1 median (spread)  set 2 median (spread)  drift")
    for w in names:
        fail_share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                      for runs in results[w]]
        if fail_share[0] != fail_share[1]:
            ok = False
            print(f"{w}: failed share differs between the sets: {fail_share}")
        incorrect = sum(not r["correct"] for runs in results[w] for r in runs)
        if incorrect:
            ok = False
            print(f"{w}: {incorrect} runs reported incorrect output")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            spreads = [spread(v) for v in vals]
            medians = [statistics.median(v) for v in vals]
            drift = medians[1] / medians[0] - 1.0
            # setup_s is one reading of about a second per run, half of it the
            # imports, which a process makes once; it follows the machine's speed
            # from one run to the next (quartile spreads of 5-29 % between runs of
            # the same code), so only its drift between the sets is held to its bound.
            if (name != "setup_s" and max(spreads) > bound) or abs(drift) > bound:
                ok = False
            cells = "  ".join(f"{m:.4f} ({100 * sp:.1f}%)" for m, sp in zip(medians, spreads))
            print(f"{w:15s} {name:12s} {bound:6.2f}  {cells}   {100 * drift:+.1f}%")
    print("steady: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
