"""Run the benchmark over several seeds and print medians and quartiles.

    python3 benchmark/spread.py                       # 10 seeds, every workload
    python3 benchmark/spread.py --workloads dcr-gn --seeds 0 1 2 3 4

Regenerates the reference tables of benchmark/README.md: for each workload
and end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the quartile spread as a share of the median, the failed share, and,
with --trace, the tracing overhead on run_s: three traced runs, each right
after the untraced run of the same seed, their median runner.run_case span
against that run's run_s.
Runs one workload per process, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def traced_run_s(path: str) -> float:
    """Median runner.run_case span of a trace file, warm-up round left out."""
    with open(path) as f:
        spans = json.load(f)
    runs = [end - start for name, start, end, _, _ in spans
            if name == "runner.run_case"]
    return statistics.median(runs[1:])


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    p.add_argument("--trace", action="store_true",
                   help="follow each of the first 3 runs by a traced one")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for wl in args.workloads:
        runs, overhead = [], []
        for i, seed in enumerate(args.seeds):
            t0 = time.perf_counter()
            runs.append(bench(wl, seed, spec["run_seconds"], 0))
            print(f"# {wl} seed {seed} ({time.perf_counter() - t0:.0f} s "
                  "wall): " + json.dumps(runs[-1]), flush=True)
            if args.trace and i < 3:
                # traced run right after the untraced one of the same seed
                bench(wl, seed, spec["run_seconds"], 1)
                traced = traced_run_s(os.path.join(
                    os.path.dirname(HERE), ".bench_out",
                    f"trace-{wl}-s{seed}.json"))
                overhead.append(traced / runs[-1]["metrics"]["run_s"]["value"]
                                - 1)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"## {wl}: correct {all(r['correct'] for r in runs)}, failed "
              f"{failed}/{attempted}, {len(runs)} seeds")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bound} |")
        if overhead:
            print("tracing overhead on run_s (traced runner.run_case median "
                  "over untraced run_s, back-to-back pairs): " + ", ".join(
                      f"{o:+.1%}" for o in overhead))
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
