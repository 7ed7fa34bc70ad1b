"""Benchmark nfinv end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 benchmark/run.py --workload tomo-nfs --seed 0 --seconds 30 --trace 0

Runs ``runner.run_case`` (the library form of ``nfinv invert``) on the
workload's manifest: one warm-up round, then whole rounds while they fit in
``--seconds``.  Checks the last round's outputs (checks.py) and prints one
line per check and metric and, last, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Timings are medians over the
measured rounds.  Must run from a source checkout: it imports nfinv from
``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMED = (("run_s", "s"), ("setup_s", "s"), ("invert_s", "s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            have = int(os.environ.get(var, n))
        except ValueError:
            have = n
        os.environ[var] = str(min(max(have, 1), n))


def run(args) -> dict:
    import numpy as np

    import checks
    import layers
    from nfinv import runner
    from tracing import Tracer, instrument

    man = workloads.manifest(args.workload, args.seed)
    scratch = os.path.join(ROOT, ".bench_out")
    out_dir = os.path.join(scratch, f"{args.workload}-s{args.seed}-"
                                    f"t{args.trace}-{os.getpid()}")
    tracer = Tracer()
    targets = layers.phase_targets()
    if args.trace:
        targets += layers.layer_targets()
    phases = 3 if man.get("svd") else 2     # set-up, inversion[, SVD]

    # round 0 warms the process (imports, allocator, BLAS threads; it runs
    # ~30% slower) and is left out of the medians; the measured rounds
    # then run while they fit in --seconds
    rounds, start = [], None
    with instrument(tracer, targets):
        while start is None or not rounds or (
                time.perf_counter() - start
                + statistics.median(r[1] for r in rounds) <= args.seconds):
            first = len(tracer.spans)
            t0 = time.perf_counter()
            runner.run_case(man, out_dir)
            row = layers.phase_metrics(tracer.spans, first)
            if args.trace:
                row.update(layers.layer_metrics(
                    tracer.spans, first, tracer.results[layers.INVERT], man))
                row["self_time_gap"] = layers.self_time_gap(tracer.spans,
                                                            first)
            if start is None:
                warm, start = row, time.perf_counter()
            else:
                rounds.append((row, time.perf_counter() - t0))
    # read before the checks, so that it is the program's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every round runs the same manifest; the last one's outputs are checked
    results, figures = checks.verify(man, out_dir,
                                     np.random.default_rng(args.seed))
    if man["case"] == 1:
        results.insert(0, checks.check_ray_matrix(
            man, tracer.results["runner.assemble"].simulator.ray_matrix.A))
    if args.trace:
        gap = max(r["self_time_gap"] for r in [warm] + [r for r, _ in rounds])
        results.append(checks.result(
            "trace.self_times", gap <= 1e-6,
            f"self times below the inversion span sum to its duration "
            f"within {gap:.1e} (bound 1e-6)"))
        tracer.write(os.path.join(scratch, f"trace-{args.workload}-"
                                           f"s{args.seed}.json"))
    shutil.rmtree(out_dir, ignore_errors=True)

    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'}: {detail}")
    if args.trace:
        for r, _ in rounds:
            r.update(figures)
        table = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        table = TIMED
    metrics = {name: {"value": float(statistics.median(
                   r.get(name, 0.0) for r, _ in rounds)), "unit": unit}
               for name, unit in table}
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)}, run_s: " + " ".join(
        f"{r['run_s']:.3f}" for r, _ in rounds))
    failed = sum(not ok for _, ok, _ in results)
    return {"correct": failed == 0,
            "attempted": (1 + len(rounds)) * phases + len(results),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nfinv", "__init__.py")):
        print(f"error: no nfinv source under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
