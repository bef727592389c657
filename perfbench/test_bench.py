"""Exact work counts and determinism of the benchmark's traced passes.

Two traced passes of each workload at a small grid must give identical
counts, and the counts must equal the values computed from the array sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TIMES = ("busy_s", "self_s", "peak_alloc_bytes")


@pytest.fixture(scope="module")
def prog():
    return workloads.import_program(ROOT)


def traced_passes(prog, wl, n_passes=2):
    wl.prepare()
    wl.setup()
    tracer = tracing.Tracer(prog)
    tracer.install()
    checks = []
    try:
        for i in range(n_passes):
            tracer.pass_index = i
            t0 = time.perf_counter()
            outputs = wl.run_pass()
            tracer.pass_index = -1
            checks.append(wl.check(outputs, time.perf_counter() - t0))
    finally:
        tracer.uninstall()
    stats = [tracing.pass_stats(tracer.spans, i) for i in range(n_passes)]
    counts = [{(name, key): v for name, st in s.items() for key, v in st.items()
               if key not in TIMES}
              for s in stats]
    assert counts[0] == counts[1]
    assert checks[0].gmres_iters == checks[1].gmres_iters
    for check in checks:
        assert not [f for f in check.failures if "differs" in f], check.failures
    return counts[0], checks[0], tracer.spans


def test_kite_solve_counts(prog, tmp_path):
    n = 64
    fine = (2 * n) ** 2
    counts, check, _ = traced_passes(prog, workloads.KiteSolve(prog, tmp_path, seed=3, n=n))
    assert counts[("operators.opset", "calls")] == 4  # k1, k2, kappa, and kappa again in far_field
    assert counts[("operators.opset", "fine_entries")] == 4 * fine
    for name in ("specfun.hankel1", "specfun.bessel_j"):  # orders 0 and 1 per operator set
        assert counts[(name, "calls")] == 8
        assert counts[(name, "points")] == 8 * fine
    assert counts[("formulations.assemble", "calls")] == 1
    assert counts[("postprocess.far_field", "entries")] == 360 * n
    assert counts[("solver.gmres", "iters")] == check.gmres_iters
    assert counts[("cli.main", "calls")] == 1


def test_kite_multiangle_counts(prog, tmp_path):
    n, m = 32, 8
    fine = (2 * n) ** 2
    counts, check, spans = traced_passes(prog, workloads.KiteMultiangle(prog, tmp_path, 3, n, m))
    assert counts[("operators.opset", "calls")] == 3
    # built once per pass by the benchmark itself, never inside assemble or far_field
    assert all(s.parent < 0 for s in spans if s.name == "operators.opset")
    assert counts[("operators.opset", "fine_entries")] == 3 * fine
    assert counts[("specfun.hankel1", "points")] == 6 * fine
    assert counts[("formulations.assemble", "calls")] == m + 1
    assert counts[("solver.lu_solve", "calls")] == m + 1
    assert counts[("postprocess.far_field", "calls")] == m
    assert counts[("postprocess.far_field", "entries")] == m * m * n
    assert counts[("solver.gmres", "iters")] == check.gmres_iters
    assert ("cli.main", "calls") not in counts


def test_circle_mie_counts(prog, tmp_path):
    n = 64
    fine = (2 * n) ** 2
    counts, check, _ = traced_passes(prog, workloads.CircleMie(prog, tmp_path, seed=3, n=n))
    # gcsie and gcsie-explicit: 3 sets + kappa again in far_field; classical: k1, k2
    assert counts[("operators.opset", "calls")] == 10
    assert counts[("specfun.hankel1", "points")] == 2 * 10 * fine
    assert counts[("analytic.mie_solve", "calls")] == 3
    assert counts[("cli.main", "calls")] == 3
    assert counts[("postprocess.far_field", "entries")] == 3 * 360 * n
    assert counts[("solver.gmres", "calls")] == 3
    assert check.gmres_iters == check.detail["iterations"]["gcsie"]


def test_cli_solve_runs_both_parts(prog, tmp_path):
    n = 32
    counts, check, _ = traced_passes(prog, workloads.CliSolve(prog, tmp_path, seed=3, n=n))
    assert counts[("operators.opset", "calls")] == 4 + 10
    assert counts[("cli.main", "calls")] == 1 + 3
    assert len(check.angle_times) == 1 + 3
    assert check.gmres_iters == check.detail["kite.gmres_iters"] + check.detail["circle.gmres_iters"]
    assert check.ff_digits == min(check.detail["kite.ff_digits_ref"],
                                  check.detail["circle.ff_digits_mie"])


def test_uninstall_restores_every_binding(prog):
    before = prog.cli.assemble, prog.formulations.boundary_operator_set, prog.specfun.hankel1
    tracer = tracing.Tracer(prog)
    tracer.install()
    assert prog.cli.assemble is not before[0]
    assert prog.cli.assemble is prog.formulations.assemble is prog.assemble
    tracer.uninstall()
    after = prog.cli.assemble, prog.formulations.boundary_operator_set, prog.specfun.hankel1
    assert after == before


def test_refuses_checkout_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(__file__).resolve().parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no tscat2d package" in proc.stderr
