"""Batch driver: config-driven solve / convergence / compare / symbols runs.

One JSON config document drives every experiment; command-line flags
override individual fields.  Outputs are machine readable (CSV + JSON)
and bit-identical across reruns of the same config; wall-clock timings
go to a separate timings.json that is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic
from .formulations import (
    FORMULATIONS,
    ConfigError,
    IncidentWave,
    TransmissionConfig,
    assemble,
    operator_sets,
)
from .geometry import grid, is_finite_real, is_integer, make_curve
from .operators import fourier_modes
from .postprocess import far_field
from .solver import gmres, lu_solve, norm2_estimate, sigma_min_estimate
from .specfun import SpecialFunctionError

DEFAULT_CONFIG = {
    "curve": {"kind": "circle", "radius": 1.0},
    "k1": 4.0,
    "k2": 8.0,
    "nu": 2.0,
    "kappa": None,  # {"re": .., "im": ..}; default k1 + i k1/2, also for a part left out
    "N": 128,
    "formulation": "gcsie",
    "solver": {"type": "gmres", "tol": 1.0e-8, "maxit": None},
    "angle": 0.0,
    "farfield_angles": 360,
    "diagnostics": True,
    "seed": 0,
    "out": "out",
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, val in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(key, "unknown configuration key")
            if isinstance(DEFAULT_CONFIG[key], dict) and isinstance(val, dict):
                cfg[key] = {**DEFAULT_CONFIG[key], **val} if key != "curve" else val
            else:
                cfg[key] = val
    for key, val in overrides.items():
        if val is None:
            continue
        if key in ("kappa_re", "kappa_im"):
            kappa = cfg["kappa"] or {}
            if isinstance(kappa, dict):  # any other value is reported by validate_config
                cfg["kappa"] = kappa | {key.removeprefix("kappa_"): val}
        else:
            cfg[key] = val
    return cfg


def validate_config(cfg: dict) -> TransmissionConfig:
    """TransmissionConfig from the JSON values (it checks them), then the CLI-only fields."""
    curve_spec = cfg.get("curve")
    if not isinstance(curve_spec, dict) or "kind" not in curve_spec:
        raise ConfigError("curve", "must be an object with a 'kind' field")
    params = {k: v for k, v in curve_spec.items() if k != "kind"}
    try:
        curve = make_curve(curve_spec["kind"], **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError("curve", str(exc)) from exc

    kappa = cfg.get("kappa")
    if kappa is not None:
        if not isinstance(kappa, dict) or set(kappa) - {"re", "im"}:
            raise ConfigError("kappa", "must be an object with fields 're' and 'im'")
        if not all(is_finite_real(v) for v in kappa.values()):
            raise ConfigError("kappa", f"'re' and 'im' must be finite numbers, got {kappa!r}")
    try:
        tcfg = TransmissionConfig(
            curve=curve, k1=cfg.get("k1"), k2=cfg.get("k2"), nu=cfg.get("nu"), n_nodes=cfg.get("N"),
        )
        if kappa:  # a part left out keeps its value in the default kappa
            default = tcfg.kappa
            tcfg = replace(
                tcfg, kappa=complex(kappa.get("re", default.real), kappa.get("im", default.imag))
            )
    except ConfigError as exc:
        raise ConfigError("N" if exc.path == "n_nodes" else exc.path, exc.message) from exc
    _check_run_fields(cfg, tcfg.n_nodes)
    return tcfg


def _check_run_fields(cfg: dict, n_nodes: int) -> None:
    """The fields only the CLI reads: formulation, solver, angles, diagnostics and seed."""
    if cfg.get("formulation") not in FORMULATIONS:
        raise ConfigError(
            "formulation", f"must be one of {FORMULATIONS}, got {cfg.get('formulation')!r}"
        )
    sv = cfg.get("solver", {})
    if not isinstance(sv, dict):
        raise ConfigError("solver", f"must be an object, got {sv!r}")
    if sv.get("type") not in ("gmres", "lu"):
        raise ConfigError("solver.type", f"must be 'gmres' or 'lu', got {sv.get('type')!r}")
    tol = sv.get("tol")
    if not (is_finite_real(tol) and 0 < tol < 1):
        raise ConfigError("solver.tol", f"must lie in (0, 1), got {tol!r}")
    maxit, limit = sv.get("maxit"), 4 * n_nodes  # GMRES: twice the 2N unknowns
    if maxit is not None and not (is_integer(maxit) and 1 <= maxit <= limit):
        raise ConfigError("solver.maxit", f"must be an integer in [1, {limit}], got {maxit!r}")
    if not is_finite_real(cfg.get("angle")):
        raise ConfigError("angle", f"must be a finite number, got {cfg.get('angle')!r}")
    if not (is_integer(cfg.get("farfield_angles")) and cfg["farfield_angles"] >= 1):
        raise ConfigError("farfield_angles", "must be a positive integer")
    if not isinstance(cfg.get("diagnostics"), bool):
        raise ConfigError("diagnostics", f"must be true or false, got {cfg.get('diagnostics')!r}")
    if not is_integer(cfg.get("seed")):
        raise ConfigError("seed", "must be an integer")


def _resolved(cfg: dict, tcfg: TransmissionConfig) -> dict:
    out = json.loads(json.dumps(cfg))
    out["kappa"] = {"re": tcfg.kappa.real, "im": tcfg.kappa.imag}
    return out


def _solve_once(tcfg, g, wave, formulation, solver_spec, ops=None):
    system = assemble(tcfg, g, wave, formulation, ops=ops)
    if solver_spec["type"] == "lu":
        report = lu_solve(system.matrix, system.rhs)
    else:
        maxit = solver_spec["maxit"] or 2 * g.n
        report = gmres(system.matrix, system.rhs, tol=solver_spec["tol"], maxit=maxit)
    return system, report


def _write_farfield_csv(path: Path, ff):
    lines = ["theta,re_u_inf,im_u_inf,abs_u_inf"]
    for th, v in zip(ff.angles, ff.values):
        lines.append(f"{_fmt(th)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v))}")
    path.write_text("\n".join(lines) + "\n")


def run_solve(cfg: dict) -> int:
    tcfg = validate_config(cfg)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    g = grid(tcfg.n_nodes)
    wave = IncidentWave(angle=float(cfg["angle"]), k1=tcfg.k1)

    t0 = time.perf_counter()
    system, report = _solve_once(tcfg, g, wave, cfg["formulation"], cfg["solver"])
    t_total = time.perf_counter() - t0

    sol = system.split(report.x)
    angles = np.linspace(0.0, 2.0 * np.pi, cfg["farfield_angles"], endpoint=False)
    ff = far_field(sol, tcfg, g, wave, angles, formulation=cfg["formulation"])
    _write_farfield_csv(outdir / "farfield.csv", ff)

    out = {
        "config": _resolved(cfg, tcfg),
        "status": "converged" if report.converged else "not_converged",
        "method": report.method,
        "iterations": report.iterations,
        "residuals": [float(r) for r in report.residuals],
        "farfield_max_abs": float(np.abs(ff.values).max()),
    }
    if cfg["curve"]["kind"] == "circle":
        mie = analytic.mie_solve(
            cfg["curve"].get("radius", 1.0), tcfg.k1, tcfg.k2, tcfg.nu, alpha=float(cfg["angle"])
        )
        ref = mie.far_field(angles)
        scale = np.abs(ref).max()
        err = float(np.abs(ff.values - ref).max() / scale) if scale > 0 else float(
            np.abs(ff.values).max()
        )
        out["farfield_error_vs_reference"] = err
    if cfg["diagnostics"]:
        a = system.matrix
        out["diagnostics"] = {
            "norm2_minus_identity": norm2_estimate(a, shift=1.0, seed=cfg["seed"]),
            "sigma_min": sigma_min_estimate(a, seed=cfg["seed"]),
        }
    (outdir / "report.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    (outdir / "timings.json").write_text(
        json.dumps({"solve_seconds": report.wall_time, "total_seconds": t_total}) + "\n"
    )
    if not report.converged:
        print("solver did not converge within maxit", file=sys.stderr)
        return 1
    return 0


def run_convergence(cfg: dict, n_list: list[int]) -> int:
    if not n_list or sorted(n_list) != n_list or any(n % 2 for n in n_list):
        raise ConfigError("N-list", f"need a non-empty ascending list of even sizes, got {n_list}")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    wave_angle = float(cfg["angle"])
    is_circle = cfg["curve"]["kind"] == "circle"
    angles = np.linspace(0.0, 2.0 * np.pi, 180, endpoint=False)

    fields = {}
    disagreements = {}
    for n in n_list:
        run_cfg = dict(cfg, N=int(n))
        tcfg = validate_config(run_cfg)
        g = grid(n)
        wave = IncidentWave(angle=wave_angle, k1=tcfg.k1)
        ops = operator_sets(tcfg, g, (tcfg.k1, tcfg.k2, tcfg.kappa))
        composed = assemble(tcfg, g, wave, "gcsie", ops=ops)
        explicit = assemble(tcfg, g, wave, "gcsie-explicit", ops=ops)
        diff = composed.matrix - explicit.matrix
        # action on a fixed band (resolved on the coarsest grid) plus raw entry max
        band_limit = min(n_list) // 4
        rng = np.random.default_rng(cfg["seed"])
        modes = fourier_modes(n)
        mask = np.abs(modes) <= band_limit
        coefs = np.zeros(n, dtype=complex)
        coefs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
        phi = np.fft.ifft(np.fft.ifftshift(coefs)) * n
        x = np.concatenate([phi, phi])
        disagreements[n] = (
            float(np.abs(diff @ x).max() / np.abs(x).max()),
            float(np.abs(diff).max()),
        )

        form = cfg["formulation"]
        if form == "gcsie":
            sys_to_solve = composed
        elif form == "gcsie-explicit":
            sys_to_solve = explicit
        else:
            sys_to_solve = assemble(tcfg, g, wave, "classical", ops=ops)
        report = lu_solve(sys_to_solve.matrix, sys_to_solve.rhs)
        sol = sys_to_solve.split(report.x)
        ff = far_field(sol, tcfg, g, wave, angles, formulation=form, ops=ops)
        fields[n] = ff.values

    if is_circle:
        tcfg = validate_config(cfg)
        mie = analytic.mie_solve(
            cfg["curve"].get("radius", 1.0), tcfg.k1, tcfg.k2, tcfg.nu, alpha=wave_angle
        )
        ref = mie.far_field(angles)
        ref_tag = "mie"
    else:
        ref = fields[n_list[-1]]
        ref_tag = f"self_N{n_list[-1]}"
    scale = max(float(np.abs(ref).max()), 1e-300)

    lines = ["N,farfield_error,reference,block_action_disagreement,block_max_disagreement"]
    for n in n_list:
        err = float(np.abs(fields[n] - ref).max() / scale)
        act, raw = disagreements[n]
        lines.append(f"{n},{_fmt(err)},{ref_tag},{_fmt(act)},{_fmt(raw)}")
    (outdir / "convergence.csv").write_text("\n".join(lines) + "\n")
    return 0


def run_compare(cfg: dict) -> int:
    tcfg = validate_config(cfg)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    g = grid(tcfg.n_nodes)
    wave = IncidentWave(angle=float(cfg["angle"]), k1=tcfg.k1)
    tol = cfg["solver"]["tol"]
    ops = operator_sets(tcfg, g, (tcfg.k1, tcfg.k2, tcfg.kappa))
    lines = ["formulation,N,gmres_iterations,residual_target,converged"]
    for form in ("gcsie", "classical"):
        system = assemble(tcfg, g, wave, form, ops=ops)
        report = gmres(system.matrix, system.rhs, tol=tol, maxit=2 * g.n)
        lines.append(
            f"{form},{tcfg.n_nodes},{report.iterations},{_fmt(tol)},{int(report.converged)}"
        )
    (outdir / "compare.csv").write_text("\n".join(lines) + "\n")
    return 0


def run_symbols(cfg: dict, n_min: int, n_max: int) -> int:
    tcfg = validate_config(cfg)
    if cfg["curve"]["kind"] != "circle":
        raise ConfigError("curve.kind", "symbols experiment requires the circle")
    if not 0 <= n_min < n_max:
        raise ConfigError("n-range", f"need 0 <= n_min < n_max, got [{n_min}, {n_max}]")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    radius = cfg["curve"].get("radius", 1.0)
    k1, k2, nu, kappa = tcfg.k1, tcfg.k2, tcfg.nu, tcfg.kappa

    rows = []
    fits = {key: [] for key in ("r11", "r12", "r21", "r22", "dtn1", "dtn2")}
    for n in range(n_min, n_max + 1):
        row = {"n": n, "pole_flag": 0}
        try:
            exact = analytic.exact_admittance_symbols(radius, k1, k2, nu, n)
            approx = analytic.approx_admittance_symbols(radius, kappa, nu, n)
            y1 = analytic.circle_dtn_symbol("exterior", radius, k1, n)
            y2 = analytic.circle_dtn_symbol("interior", radius, k2, n)
            nk = analytic.circle_operator_symbol("N", radius, kappa, n)
        except analytic.InteriorPoleError:
            row["pole_flag"] = 1
            rows.append(row)
            continue
        except (SpecialFunctionError, ValueError) as exc:
            # past the order or overflow range of the cylinder functions
            raise ConfigError("n-range", f"mode {n} cannot be evaluated: {exc}") from exc
        for tag, e, a in zip(("r11", "r12", "r21", "r22"), exact, approx):
            row[f"{tag}_exact_re"] = e.real
            row[f"{tag}_exact_im"] = e.imag
            row[f"{tag}_diff"] = abs(a - e)
            if n > 0:
                fits[tag].append((n, abs(a - e)))
        row["dtn1_diff"] = abs(2.0 * nk - y1)
        row["dtn2_diff"] = abs(-2.0 * nk - y2)
        if n > 0:
            fits["dtn1"].append((n, row["dtn1_diff"]))
            fits["dtn2"].append((n, row["dtn2_diff"]))
        rows.append(row)

    slopes = {
        tag: analytic.smoothing_order(pts) if len(pts) >= 4 else float("nan")
        for tag, pts in fits.items()
    }

    value_cols = []
    for tag in ("r11", "r12", "r21", "r22"):
        value_cols += [f"{tag}_exact_re", f"{tag}_exact_im", f"{tag}_diff"]
    value_cols += ["dtn1_diff", "dtn2_diff"]
    header = (
        ["n", "pole_flag"]
        + value_cols
        + [f"slope_{tag}" for tag in ("r11", "r12", "r21", "r22", "dtn1", "dtn2")]
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["n"]), str(row["pole_flag"])]
        for col in value_cols:
            cells.append(_fmt(row[col]) if col in row else "")
        cells += [_fmt(slopes[tag]) for tag in ("r11", "r12", "r21", "r22", "dtn1", "dtn2")]
        lines.append(",".join(cells))
    (outdir / "symbols.csv").write_text("\n".join(lines) + "\n")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--kappa-re", dest="kappa_re", type=float)
    p.add_argument("--kappa-im", dest="kappa_im", type=float)
    p.add_argument("--N", dest="N", type=int)
    p.add_argument("--formulation", choices=FORMULATIONS)
    p.add_argument("--angle", type=float)
    p.add_argument("--out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tscat2d",
        description="2D penetrable-scatterer transmission solver (boundary integral)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "convergence", "compare", "symbols"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "convergence":
            p.add_argument("--N-list", dest="n_list", required=True,
                           help="comma-separated ascending even grid sizes")
        if name == "symbols":
            p.add_argument("--n-min", dest="n_min", type=int, default=0)
            p.add_argument("--n-max", dest="n_max", type=int, default=64)

    args = parser.parse_args(argv)
    overrides = {
        k: getattr(args, k, None)
        for k in ("k1", "k2", "nu", "kappa_re", "kappa_im", "N", "formulation", "angle", "out")
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "solve":
            return run_solve(cfg)
        if args.command == "convergence":
            try:
                n_list = [int(s) for s in args.n_list.split(",") if s]
            except ValueError:
                raise ConfigError("N-list", f"not a comma-separated integer list: {args.n_list!r}")
            return run_convergence(cfg, n_list)
        if args.command == "compare":
            return run_compare(cfg)
        if args.command == "symbols":
            return run_symbols(cfg, args.n_min, args.n_max)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
