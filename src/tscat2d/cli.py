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

from . import analytic, specfun
from .formulations import (
    FORMULATIONS,
    ConfigError,
    IncidentWave,
    TransmissionConfig,
    assemble,
    operator_sets,
)
from .geometry import grid, is_finite_real, is_integer, make_curve
from .operators import DEFAULT_OVERSAMPLE, fourier_modes
from .postprocess import far_field
from .solver import MAX_DIRECT_UNKNOWNS, gmres, lu_solve, norm2_estimate, rcond_estimate, sigma_min_estimate

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


# below this many grid points per wavelength of the largest resolved wavenumber along the
# boundary a solve warns (Kress, Linear Integral Equations, ch. 12)
MIN_POINTS_PER_WAVELENGTH = 8.0


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


def validate_config(cfg: dict, lu: bool | None = None) -> TransmissionConfig:
    """TransmissionConfig from the JSON values (it checks them), then the CLI-only fields.

    ``lu``: whether the run factors its 2N x 2N system, which caps N; None: as a solve does.
    """
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
    _check_run_fields(cfg, tcfg.n_nodes, lu)
    return tcfg


def _check_run_fields(cfg: dict, n_nodes: int, lu: bool | None) -> None:
    """The fields only the CLI reads: formulation, solver, angles, diagnostics and seed; N where LU runs."""
    if cfg.get("formulation") not in FORMULATIONS:
        raise ConfigError(
            "formulation", f"must be one of {FORMULATIONS}, got {cfg.get('formulation')!r}"
        )
    sv = cfg.get("solver", {})
    if not isinstance(sv, dict):
        raise ConfigError("solver", f"must be an object, got {sv!r}")
    unknown = sorted(set(sv) - set(DEFAULT_CONFIG["solver"]))
    if unknown:
        raise ConfigError(f"solver.{unknown[0]}", "unknown configuration key")
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
    if not (is_integer(cfg.get("seed")) and cfg["seed"] >= 0):
        raise ConfigError("seed", f"must be a non-negative integer, got {cfg.get('seed')!r}")
    lu = (sv["type"] == "lu" or cfg["diagnostics"]) if lu is None else lu
    if lu and 2 * n_nodes > MAX_DIRECT_UNKNOWNS:
        raise ConfigError("N", f"must be at most {MAX_DIRECT_UNKNOWNS // 2} where LU runs, got {n_nodes}")


def _resolved(cfg: dict, tcfg: TransmissionConfig) -> dict:
    out = json.loads(json.dumps(cfg))
    out["kappa"] = {"re": tcfg.kappa.real, "im": tcfg.kappa.imag}
    return out


def points_per_wavelength(tcfg: TransmissionConfig, g, formulation: str) -> float:
    """N 2 pi / (k L): grid points per shortest wavelength along the boundary.

    k is max(k1, k2), and max(k1, k2, |kappa|) for gcsie-explicit, whose kappa set's Calderon
    residuals hold only to its discretization error; L is the trapezoid-rule perimeter on the grid's nodes.
    """
    perimeter = g.weight * float(np.sum(tcfg.curve.jacobian(g.nodes)))
    k = max(tcfg.k1, tcfg.k2, abs(tcfg.kappa) if formulation == "gcsie-explicit" else 0.0)
    return g.n * 2.0 * np.pi / (k * perimeter)


def _fine_diameter(curve, n: int) -> float:
    """The largest distance between two nodes of the grid that the operator sets on n nodes are built on.

    It is the square root of the largest dx^2 + dy^2, from the offsets of 64
    nodes at a time: a kernel argument's largest r, rounded alike.
    """
    x, y = curve.x(grid(DEFAULT_OVERSAMPLE * n).nodes).T
    blocks = (((x[i : i + 64, None] - x) ** 2 + (y[i : i + 64, None] - y) ** 2).max() for i in range(0, len(x), 64))
    return float(np.sqrt(max(blocks)))


def _check_kernel_arguments(tcfg: TransmissionConfig, g, kappa_set: bool = True) -> None:
    """Refuses kernel arguments k r, r up to the fine grid's diameter, that specfun cannot evaluate."""
    diam = _fine_diameter(tcfg.curve, g.n)
    ks = {"k1": tcfg.k1, "k2": tcfg.k2, "kappa": abs(tcfg.kappa) if kappa_set else 0.0}
    name = max(ks, key=ks.get)
    if ks[name] * diam > specfun._MAX_ABS:
        raise ConfigError(name, f"|{name}| diam = {ks[name] * diam:.4g}, outside |k r| <= {specfun._MAX_ABS:g}")
    if kappa_set and tcfg.kappa.imag * diam > specfun._MAX_IM_J:
        raise ConfigError("kappa", f"Im kappa diam = {tcfg.kappa.imag * diam:.4g}: J_n(kappa r) overflows")


def _output_dir(cfg: dict) -> Path:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One CSV file: strings and ints as they are, floats as %.17g, None as an empty cell."""
    def cell(v) -> str:
        return "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _mie_far_field(cfg: dict, tcfg: TransmissionConfig, angles: np.ndarray) -> np.ndarray:
    """Far field of the Mie series for the configured circle and incident angle; a ConfigError if it fails."""
    try:
        mie = analytic.mie_solve(
            cfg["curve"].get("radius", 1.0), tcfg.k1, tcfg.k2, tcfg.nu, alpha=float(cfg["angle"])
        )
    except (specfun.SpecialFunctionError, ValueError) as exc:
        raise ConfigError("curve", f"the Mie reference of this circle cannot be evaluated: {exc}") from exc
    return mie.far_field(angles)


def run_solve(cfg: dict) -> int:
    tcfg = validate_config(cfg)
    g = grid(tcfg.n_nodes)
    _check_kernel_arguments(tcfg, g, kappa_set=cfg["formulation"] != "classical")
    angles = np.linspace(0.0, 2.0 * np.pi, cfg["farfield_angles"], endpoint=False)
    ref = _mie_far_field(cfg, tcfg, angles) if cfg["curve"]["kind"] == "circle" else None
    outdir = _output_dir(cfg)
    wave = IncidentWave(angle=float(cfg["angle"]), k1=tcfg.k1)
    sv = cfg["solver"]

    t0 = time.perf_counter()
    system = assemble(tcfg, g, wave, cfg["formulation"])
    if sv["type"] == "lu":
        report = lu_solve(system.matrix, system.rhs)
    else:
        report = gmres(system.matrix, system.rhs, tol=sv["tol"], maxit=sv["maxit"])
    t_total = time.perf_counter() - t0

    out = {
        "config": _resolved(cfg, tcfg),
        "status": "converged" if report.converged else "not_converged",
        "method": report.method,
        "iterations": report.iterations,
        "residuals": [float(r) for r in report.residuals],
        # a Krylov space as large as the system holds every vector: convergence there says
        # nothing about the clustering the formulation relies on, and often means under-resolution
        "krylov_exhausted": report.method == "gmres" and report.iterations >= len(system.rhs),
        "points_per_wavelength": points_per_wavelength(tcfg, g, cfg["formulation"]),
    }
    if cfg["diagnostics"]:  # before any file: a numerically singular matrix raises LinAlgError here
        a = system.matrix
        out["diagnostics"] = {
            "norm2_minus_identity": norm2_estimate(a, shift=1.0, seed=cfg["seed"]),
            "sigma_min": sigma_min_estimate(a, seed=cfg["seed"]),
            "rcond": rcond_estimate(a),  # from the LU factors sigma_min used
        }
    sol = system.split(report.x)
    ff = far_field(sol, tcfg, g, wave, angles, formulation=cfg["formulation"])
    rows = ((th, v.real, v.imag, abs(v)) for th, v in zip(ff.angles, ff.values))
    _write_csv(outdir / "farfield.csv", ["theta", "re_u_inf", "im_u_inf", "abs_u_inf"], rows)
    out["farfield_max_abs"] = float(np.abs(ff.values).max())
    if ref is not None:
        scale = np.abs(ref).max()
        err = np.abs(ff.values - ref).max() / scale if scale > 0 else np.abs(ff.values).max()
        out["farfield_error_vs_reference"] = float(err)
    (outdir / "report.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    (outdir / "timings.json").write_text(
        json.dumps({"solve_seconds": report.wall_time, "total_seconds": t_total}) + "\n"
    )
    stderr_lines = [
        out["krylov_exhausted"]
        and f"GMRES needed {report.iterations} iterations, the whole Krylov space of the "
        f"{len(system.rhs)}-unknown system; the grid may not resolve the problem",
        out["points_per_wavelength"] < MIN_POINTS_PER_WAVELENGTH
        and f"{out['points_per_wavelength']:.3g} grid points per wavelength of max(k1, k2"
        f"{', |kappa|' if cfg['formulation'] == 'gcsie-explicit' else ''}) along the boundary, "
        f"below {MIN_POINTS_PER_WAVELENGTH:g}; the grid may not resolve the wavenumbers",
        not report.converged and "solver did not converge within maxit",
    ]
    for line in filter(None, stderr_lines):
        print(line, file=sys.stderr)
    return 0 if report.converged else 1


def run_convergence(cfg: dict, n_list: list[int]) -> int:
    if not n_list or any(a >= b for a, b in zip(n_list, n_list[1:])) or any(n % 2 for n in n_list):
        raise ConfigError("N-list", f"need a non-empty strictly ascending list of even sizes, got {n_list}")
    tcfgs = {n: validate_config(dict(cfg, N=n), lu=True) for n in n_list}  # every solve is LU
    for n, tcfg in tcfgs.items():
        _check_kernel_arguments(tcfg, grid(n))
    angles = np.linspace(0.0, 2.0 * np.pi, 180, endpoint=False)
    ref = _mie_far_field(cfg, tcfg, angles) if cfg["curve"]["kind"] == "circle" else None  # one for every N
    outdir = _output_dir(cfg)
    form = cfg["formulation"]
    band_limit = n_list[0] // 4  # action on a fixed band, resolved on the coarsest grid

    fields, disagreements = {}, {}
    for n, tcfg in tcfgs.items():
        g = grid(n)
        wave = IncidentWave(angle=float(cfg["angle"]), k1=tcfg.k1)
        ops = operator_sets(tcfg, g, (tcfg.k1, tcfg.k2, tcfg.kappa))
        # each formulation once: the one-entry matrix memo would miss on a repeat after another
        systems = {
            f: assemble(tcfg, g, wave, f, ops=ops) for f in dict.fromkeys(("gcsie", "gcsie-explicit", form))
        }
        diff = systems["gcsie"].matrix - systems["gcsie-explicit"].matrix
        rng = np.random.default_rng(cfg["seed"])
        mask = np.abs(fourier_modes(n)) <= band_limit
        coefs = np.zeros(n, dtype=complex)
        coefs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
        phi = np.fft.ifft(np.fft.ifftshift(coefs)) * n
        x = np.concatenate([phi, phi])
        # action on the band plus raw entry max
        disagreements[n] = (float(np.abs(diff @ x).max() / np.abs(x).max()), float(np.abs(diff).max()))
        system = systems[form]
        sol = system.split(lu_solve(system.matrix, system.rhs).x)
        fields[n] = far_field(sol, tcfg, g, wave, angles, formulation=form, ops=ops).values

    ref_tag = "mie" if ref is not None else f"self_N{n_list[-1]}"
    ref = fields[n_list[-1]] if ref is None else ref
    scale = max(float(np.abs(ref).max()), 1e-300)
    _write_csv(
        outdir / "convergence.csv",
        ["N", "farfield_error", "reference", "block_action_disagreement", "block_max_disagreement"],
        ((n, float(np.abs(fields[n] - ref).max() / scale), ref_tag, *disagreements[n]) for n in n_list),
    )
    return 0


def run_compare(cfg: dict) -> int:
    tcfg = validate_config(cfg, lu=False)
    g = grid(tcfg.n_nodes)
    _check_kernel_arguments(tcfg, g)
    outdir = _output_dir(cfg)
    wave = IncidentWave(angle=float(cfg["angle"]), k1=tcfg.k1)
    tol, maxit = cfg["solver"]["tol"], cfg["solver"]["maxit"]
    ops = operator_sets(tcfg, g, (tcfg.k1, tcfg.k2, tcfg.kappa))
    rows = []
    for form in ("gcsie", "classical"):
        system = assemble(tcfg, g, wave, form, ops=ops)
        report = gmres(system.matrix, system.rhs, tol=tol, maxit=maxit)
        rows.append((form, tcfg.n_nodes, report.iterations, tol, int(report.converged)))
    _write_csv(
        outdir / "compare.csv", ["formulation", "N", "gmres_iterations", "residual_target", "converged"], rows
    )
    return 0


def run_symbols(cfg: dict, n_min: int, n_max: int) -> int:
    tcfg = validate_config(cfg, lu=False)
    if cfg["curve"]["kind"] != "circle":
        raise ConfigError("curve.kind", "symbols experiment requires the circle")
    if not 0 <= n_min < n_max:
        raise ConfigError("n-range", f"need 0 <= n_min < n_max, got [{n_min}, {n_max}]")
    outdir = _output_dir(cfg)
    radius = cfg["curve"].get("radius", 1.0)
    k1, k2, nu, kappa = tcfg.k1, tcfg.k2, tcfg.nu, tcfg.kappa
    blocks = ("r11", "r12", "r21", "r22")

    rows = []
    for n in range(n_min, n_max + 1):
        try:
            exact = analytic.exact_admittance_symbols(radius, k1, k2, nu, n)
            approx = analytic.approx_admittance_symbols(radius, kappa, nu, n)
            y1 = analytic.circle_dtn_symbol("exterior", radius, k1, n)
            y2 = analytic.circle_dtn_symbol("interior", radius, k2, n)
            nk = analytic.circle_operator_symbol("N", radius, kappa, n)
        except analytic.InteriorPoleError:
            rows.append({"n": n, "pole_flag": 1})
            continue
        except (specfun.SpecialFunctionError, ValueError) as exc:
            # past the order or overflow range of the cylinder functions
            raise ConfigError("n-range", f"mode {n} cannot be evaluated: {exc}") from exc
        row = {"n": n, "pole_flag": 0}
        for tag, e, a in zip(blocks, exact, approx):
            row |= {f"{tag}_exact_re": e.real, f"{tag}_exact_im": e.imag, f"{tag}_diff": abs(a - e)}
        rows.append(row | {"dtn1_diff": abs(2.0 * nk - y1), "dtn2_diff": abs(-2.0 * nk - y2)})

    fitted = [row for row in rows if row["n"] > 0 and not row["pole_flag"]]
    slopes = {}
    for tag in (*blocks, "dtn1", "dtn2"):
        pts = [(row["n"], row[f"{tag}_diff"]) for row in fitted]
        slopes[f"slope_{tag}"] = analytic.smoothing_order(pts) if len(pts) >= 4 else float("nan")
    header = [
        "n", "pole_flag", *(f"{tag}_{col}" for tag in blocks for col in ("exact_re", "exact_im", "diff")),
        "dtn1_diff", "dtn2_diff", *slopes,
    ]
    _write_csv(outdir / "symbols.csv", header, ([(row | slopes).get(c) for c in header] for row in rows))
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
                           help="comma-separated strictly ascending even grid sizes")
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
    except np.linalg.LinAlgError as exc:  # a numerically singular system
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
