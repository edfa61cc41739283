#!/usr/bin/env python3
"""Benchmark of shearconvex's verdicts, end to end and per layer.

    python3 perfbench/run.py --workload sweep-H --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one thread: BLAS/OpenMP pools are pinned to one
thread before numpy loads.  The workload's verdicts are checked after every
pass.  With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` the layers are wrapped from outside (see tracer.py) and the
per-layer metrics are reported instead.  The last line of standard output
is the result object; the lines before it are a readable summary and a
``{"detail": ...}`` object with quartiles, sample counts, the environment
and every failed check.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-H", "sweep-Li", "certify-rot", "reproduce-fast")
SETUP_REPEATS = 5

# name, unit, better -- the end_to_end list of BENCHMARK.json, in order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("resolved_share", "ratio", "higher"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

# A child interpreter repeats the main process's set-up: import, parse specs,
# expand families.  argv: bench dir, src dir, workload, seed.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _child_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), str(SRC), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(np_version: str) -> dict:
    import platform
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return {"nproc": os.cpu_count(), "cpus_usable": usable, "cpu_model": model,
            "python": platform.python_version(), "numpy": np_version,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def measure(wl, seconds: float, tracer=None):
    """Run passes until ``seconds`` is (about to be) used; at least one.

    Another pass starts only while the elapsed time plus half a median
    pass stays below ``seconds``.
    """
    times, scores, snapshots = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        out = wl.run_pass()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        scores.append(wl.check(out))
        del out
        if time.perf_counter() - start + 0.5 * statistics.median(times) >= seconds:
            return times, scores, snapshots


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the detail and result objects to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "shearconvex" / "__init__.py").is_file():
        print(f"error: no shearconvex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    for var in THREAD_VARS:          # before numpy loads; set-up children inherit it
        os.environ[var] = "1"

    t0 = time.perf_counter()
    import workloads
    wl = workloads.setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - t0]
    setup_samples += [_child_setup(args.workload, args.seed)
                      for _ in range(SETUP_REPEATS - 1)]

    bad = workloads.check_f0_closed_forms()
    if bad:
        print("error: f0 shear does not match its closed forms; aborting:\n  "
              + "\n  ".join(bad), file=sys.stderr)
        return 3

    wl.warm_up()
    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer().install()
    try:
        times, scores, snapshots = measure(wl, args.seconds, tr)
    finally:
        if tr is not None:
            tr.uninstall()

    attempted = sum(s.attempted for s in scores)
    failed = sum(s.failed_count for s in scores)
    curves = sum(s.curves for s in scores)
    inconclusive = sum(s.inconclusive for s in scores)
    hard = sorted({msg for s in scores for msg in s.failed.values()})
    misses = sorted({msg for s in scores for msg in s.known_misses.values()})
    q1, q3 = _quartiles(times)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.inputs,
        "environment": environment(workloads.np.__version__),
        "setup_s_samples": setup_samples,
        "pass_s": {"median": statistics.median(times), "q1": q1, "q3": q3,
                   "n": len(times), "samples": times},
        "inconclusive_share": inconclusive / curves if curves else 0.0,
        "failed_share": failed / attempted,
        "level_curves_per_pass": curves // len(scores),
        "operations_per_pass": attempted // len(scores),
        "failed_checks": hard,
        "known_misses": misses,
    }
    correct = not hard
    unit = {name: u for name, u, _ in END_TO_END}
    if args.trace:
        unit = {name: u for name, u, _ in tracer.PER_LAYER}
        counters = [tracer.deterministic(s) for s in snapshots]
        repeat = all(c == counters[0] for c in counters[1:])
        correct = correct and repeat
        values = {name: (statistics.median(s[name] for s in snapshots)
                         if unit[name] == "s" else snapshots[0][name])
                  for name in snapshots[0]}
        values["traced.pass_s"] = statistics.median(times)
        detail["absent"] = tr.absent
        detail["counters_repeat"] = repeat
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(times),
            "resolved_share": (curves - inconclusive) / curves if curves else 1.0,
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()}}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(times)} correct={correct}")
    print(f"#   pass_s median {detail['pass_s']['median']:.4f} s "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(times)})")
    print(f"#   inconclusive_share {detail['inconclusive_share']:.4f} ratio, "
          f"failed_share {detail['failed_share']:.4f} ratio")
    for k, v in values.items():
        print(f"#   {k} {v} {unit[k]}")
    for msg in hard + misses:
        print(f"#   failed: {msg}")
    if args.trace and tr.absent:
        print(f"#   absent (wrapped name not found): {', '.join(tr.absent)}")
    print(json.dumps({"detail": detail}))
    if args.out:
        Path(args.out).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
