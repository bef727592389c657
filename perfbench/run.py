"""Run one workload of the tscat2d benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-solve --seed 1 --seconds 55 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory and outputs go to ``.perfbench_out/<workload>/``.  Each run is a
closed loop of back-to-back passes in one process: a new pass starts only
if the previous pass's duration still fits into ``--seconds`` (at least two
passes always run, so that repeated passes can be compared byte for byte).
Every pass is checked; a pass that misses a gate counts as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run: its passes alternate untraced and traced, and
``trace.overhead_s`` is the fastest traced pass less the fastest untraced
one.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8  # half before the timed passes, half after
MIN_PASSES = 2
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit); see per_layer_metrics for how each is derived from the spans
PER_LAYER = [
    ("specfun.hankel1.calls", "count"),
    ("specfun.hankel1.points", "count"),
    ("specfun.hankel1.busy_s", "s"),
    ("specfun.bessel_j.calls", "count"),
    ("specfun.bessel_j.points", "count"),
    ("specfun.bessel_j.busy_s", "s"),
    ("specfun.ns_per_point", "ns"),
    ("operators.opset.calls", "count"),
    ("operators.opset.busy_s", "s"),
    ("operators.opset.self_s", "s"),
    ("operators.opset_real.busy_s", "s"),
    ("operators.opset_complex.busy_s", "s"),
    ("operators.fine_entries", "count"),
    ("operators.opset.peak_alloc_mb", "MB"),
    ("formulations.assemble.calls", "count"),
    ("formulations.assemble.self_s", "s"),
    ("solver.busy_s", "s"),
    ("solver.gmres.busy_s", "s"),
    ("solver.gmres.iters", "count"),
    ("solver.lu_solve.calls", "count"),
    ("solver.norm2_estimate.busy_s", "s"),
    ("solver.sigma_min_estimate.busy_s", "s"),
    ("postprocess.far_field.calls", "count"),
    ("postprocess.far_field.entries", "count"),
    ("postprocess.far_field.self_s", "s"),
    ("analytic.mie_solve.calls", "count"),
    ("cli.main.calls", "count"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
]


def pin_blas_threads() -> int:
    """Pin BLAS to ``BLAS_THREADS`` threads; call before numpy loads.

    One thread: on a small shared machine, two OpenBLAS threads made the
    N=256 LU and matrix products bimodal (p95 three times the median) and the
    multi-angle pass slower than one thread did.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas_of(module) -> dict:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return {}
        return {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
                for lib in ("blas", "lapack") if lib in deps}

    return {
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of fresh processes that import the program, set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def quantile_note(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    tail = next((p for p in (99, 95, 90) if n * (100 - p) / 100 >= 10), None)
    if tail is None:
        return f"median {med:.6g} (n={n}; too few samples for a tail percentile)"
    q = statistics.quantiles(samples, n=100)[tail - 1]
    return f"median {med:.6g}, p{tail} {q:.6g} (n={n})"


def per_layer_metrics(stats_by_pass: list[dict], traced_pass_s: list[float],
                      untraced_best_s: float) -> dict:
    """Median over the traced passes of each per-layer metric."""
    def one(stats: dict, pass_s: float) -> dict:
        def get(name, key):
            return stats.get(name, {}).get(key, 0)

        points = get("specfun.hankel1", "points") + get("specfun.bessel_j", "points")
        busy = get("specfun.hankel1", "busy_s") + get("specfun.bessel_j", "busy_s")
        values = {
            "specfun.ns_per_point": 1e9 * busy / points if points else 0.0,
            "operators.fine_entries": get("operators.opset", "fine_entries"),
            "operators.opset.peak_alloc_mb": get("operators.opset", "peak_alloc_bytes") / 2**20,
            "solver.busy_s": sum(st["busy_s"] for name, st in stats.items()
                                 if name.startswith("solver.")),
            "solver.gmres.iters": get("solver.gmres", "iters"),
            "trace.pass_s": pass_s,
            "trace.overhead_s": min(traced_pass_s) - untraced_best_s,
        }
        for metric, _ in PER_LAYER:
            if metric not in values:
                name, key = metric.rsplit(".", 1)
                values[metric] = get(name, key)
        return values

    per_pass = [one(st, t) for st, t in zip(stats_by_pass, traced_pass_s)]
    return {m: statistics.median(p[m] for p in per_pass) for m, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    try:
        prog = workloads.import_program(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    wl = workloads.WORKLOADS[args.workload](prog, out, args.seed)
    if args.probe_setup:
        wl.setup()
        return 0

    try:
        wl.prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    wl.setup()

    tracer = tracing.Tracer(prog) if args.trace else None
    if tracer:
        tracer.install()
    passes = []  # (seconds, traced, PassCheck or None)
    loop_start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.pass_index = len(passes)
            t0 = time.perf_counter()
            try:
                outputs = wl.run_pass()
                seconds = time.perf_counter() - t0
                if tracer:
                    tracer.pass_index = -1
                check = wl.check(outputs, seconds)
            except Exception:  # a pass that raises is a failed pass; keep measuring
                seconds = time.perf_counter() - t0
                traceback.print_exc()
                check = None
            if tracer:
                tracer.pass_index = -1
            passes.append((seconds, traced, check))
            if check is not None:
                for reason in check.failures:
                    print(f"pass {len(passes)} failed gate: {reason}", file=sys.stderr)
            elapsed = time.perf_counter() - loop_start
            if len(passes) >= MIN_PASSES and elapsed + seconds > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    loop_seconds = time.perf_counter() - loop_start

    checked = [c for _, _, c in passes if c is not None]
    failed = sum(1 for _, _, c in passes if c is None or c.failures)
    if not checked:
        print("error: every pass raised; no metrics", file=sys.stderr)
        return 1
    # the machine's speed drifts: probe set-up at both ends of the run
    setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    env = environment(nproc)
    pass_times = [s for s, _, _ in passes]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)} in {loop_seconds:.1f} s (closed loop, 1 client)",
        f"env {json.dumps(env, sort_keys=True)}",
        f"setup_s: {quantile_note(setup_times)} s over fresh processes",
        f"pass_s: mean {statistics.fmean(pass_times):.6g}, fastest {min(pass_times):.6g}, "
        f"{quantile_note(pass_times)} s",
        f"gates: {failed} of {len(passes)} passes failed (fail_share {failed}/{len(passes)})",
    ]
    angle_times = [t for c in checked for t in c.angle_times]
    lines.append(f"seconds per angle: {quantile_note(angle_times)}")
    for key, value in sorted(checked[0].detail.items()):
        lines.append(f"{key}: {value}")

    if tracer:
        traced_passes = [(i, s) for i, (s, t, _) in enumerate(passes) if t]
        stats = [tracing.pass_stats(tracer.spans, i) for i, _ in traced_passes]
        untraced_best = min(s for s, t, _ in passes if not t)
        metrics = per_layer_metrics(stats, [s for _, s in traced_passes], untraced_best)
        units = dict(PER_LAYER)
        lines.append("spans of the first traced pass (calls, busy s, self s):")
        for name, st in sorted(stats[0].items()):
            lines.append(f"  {name}: {st['calls']}  {st['busy_s']:.4f}  {st['self_s']:.4f}")
        out.mkdir(parents=True, exist_ok=True)
        (out / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # means over the whole run: the machine's speed drifts over tens of
            # seconds, and the mean of a long run spreads least from run to run
            "pass_s": statistics.fmean(pass_times),
            "angles_per_s": len(angle_times) / sum(angle_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "gmres_iters": max(c.gmres_iters for c in checked),
            "ff_digits": min(c.ff_digits for c in checked),
        }
        units = {"setup_s": "s", "pass_s": "s", "angles_per_s": "1/s", "peak_rss_mb": "MB",
                 "gmres_iters": "count", "ff_digits": "digits"}

    for name, value in metrics.items():
        lines.append(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_times": setup_times, "pass_times": pass_times,
              "failures": [c.failures if c else ["raised"] for _, _, c in passes], **result}
    (out / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
