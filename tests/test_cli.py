"""Config-driven batch driver: outputs, schemas, determinism, error paths."""

import json
import warnings

import numpy as np
import pytest

from tscat2d import cli, formulations, specfun
from tscat2d.cli import DEFAULT_CONFIG, main, validate_config
from tscat2d.formulations import ConfigError
from tscat2d.geometry import grid, make_curve
from tscat2d.operators import boundary_operator_set
from tscat2d.solver import MAX_DIRECT_UNKNOWNS

# first zero of J_0: forces an interior Dirichlet pole at mode 0
J0_FIRST_ZERO = 2.404825557695773


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_solve_writes_report_and_farfield(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["solve", "--k1", 4, "--k2", 8, "--nu", 2, "--N", 64, "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["iterations"] > 0
    assert report["krylov_exhausted"] is False
    assert report["points_per_wavelength"] == pytest.approx(64 / 8)  # N / (max(k1, k2) r)
    assert capsys.readouterr().err == ""
    assert report["farfield_error_vs_reference"] <= 1e-8
    assert 0 < report["diagnostics"]["rcond"] <= 1
    assert report["config"]["nu"] == 2.0
    assert report["config"]["kappa"] == {"re": 4.0, "im": 2.0}
    header, rows = read_csv(out / "farfield.csv")
    assert header == ["theta", "re_u_inf", "im_u_inf", "abs_u_inf"]
    assert len(rows) == 360
    assert (out / "timings.json").exists()


def test_solve_flags_an_exhausted_krylov_space(tmp_path, capsys):
    # the kite lit off its symmetry axis on 8 nodes (0.67 points per wavelength of k2 = 8): no
    # eigenvalue of the 16-unknown system repeats, so GMRES "converges" only in the whole space
    out = tmp_path / "exhausted"
    assert run(["solve", "--N", 8, "--angle", 0.7, "--config", _kite_config(tmp_path), "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["iterations"] == 16
    assert report["krylov_exhausted"] is True
    assert report["points_per_wavelength"] == pytest.approx(0.668, abs=0.001)
    err = capsys.readouterr().err
    assert err.count("whole Krylov space") == 1
    assert err.count("points per wavelength") == 1


def test_solve_of_gcsie_explicit_at_a_large_im_kappa_counts_kappa_in_the_resolution(tmp_path, capsys):
    # kappa = 4+20i on the unit circle; gcsie-explicit's grid must resolve |kappa| = 20.4 too,
    # because its kappa set's Calderon residuals hold only to that set's discretization error
    args = ["solve", "--kappa-im", 20, "--N", 64]
    out = tmp_path / "explicit"
    assert run([*args, "--formulation", "gcsie-explicit", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["points_per_wavelength"] == pytest.approx(64 / abs(4 + 20j))
    err = capsys.readouterr().err
    assert err.count("grid points per wavelength of max(k1, k2, |kappa|) along the boundary") == 1
    out = tmp_path / "composed"
    assert run([*args, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["points_per_wavelength"] == pytest.approx(64 / 8)
    assert capsys.readouterr().err == ""


def test_solve_of_gcsie_explicit_on_a_fine_grid_agrees_with_mie_at_k1_40(tmp_path):
    # kappa = 40+20i, J_n(kappa r) up to e^40 across the circle: the windowed log split leaves
    # gcsie-explicit limited by resolution alone, 11.4 points per wavelength of |kappa| here
    cfg = tmp_path / "explicit.json"
    cfg.write_text(json.dumps({"k1": 40.0, "k2": 60.0, "N": 512, "formulation": "gcsie-explicit",
                               "solver": {"type": "lu"}}))
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["farfield_error_vs_reference"] <= 1e-8


def test_solve_warns_below_eight_points_per_wavelength(tmp_path, capsys):
    # kite perimeter L = 9.324, N = 64: 64 * 2 pi / (k2 L) crosses 8 at k2 = 5.39
    for k2, ppw, warned in ((5.2, 8.29, False), (5.6, 7.70, True)):
        out = tmp_path / f"k2-{k2}"
        args = ["solve", "--k1", 3, "--k2", k2, "--N", 64, "--out", out]
        assert run(args + ["--config", _kite_config(tmp_path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["points_per_wavelength"] == pytest.approx(ppw, abs=0.01)
        assert ("points per wavelength" in capsys.readouterr().err) is warned


def test_solve_null_contrast(tmp_path):
    out = tmp_path / "null"
    code = run([
        "solve", "--k1", 3, "--k2", 3, "--nu", 1, "--N", 64,
        "--formulation", "classical", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["farfield_max_abs"] <= 1e-8


@pytest.mark.parametrize("args", [
    ["solve", "--N", 32],
    ["convergence", "--N-list", "16,32"],
    ["compare", "--N", 32],
    ["symbols", "--n-max", 20],
], ids=lambda args: args[0])
def test_subcommand_deterministic(tmp_path, args):
    out = tmp_path / "rep"
    args = [*args, "--k1", 4, "--k2", 8, "--nu", 2, "--out", out]
    assert run(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
    assert run(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"}
    assert first == second


def test_invalid_nu_names_field(tmp_path, capsys):
    code = run(["solve", "--nu", -1, "--out", tmp_path / "x"])
    assert code == 2
    assert "nu" in capsys.readouterr().err


NUMERIC_FIELDS = (
    "k1", "k2", "nu", "N", "solver.tol", "solver.maxit", "angle", "farfield_angles", "seed",
)


@pytest.mark.parametrize("field,value", [
    ("kappa", {"re": "8", "im": 4}),
    ("kappa", {"re": None, "im": 4}),
    ("kappa", {"re": float("nan"), "im": 4}),
    ("kappa", {"re": True, "im": 4}),
    ("solver", "lu"),
    ("angle", float("nan")),
    ("angle", float("inf")),
    ("angle", "0"),
    ("curve", {"kind": "circle", "radius": float("nan")}),
    ("curve", {"kind": "circle", "radius": float("inf")}),
    ("curve", {"kind": "circle", "radius": True}),
    ("curve", {"kind": "ellipse", "a": float("nan"), "b": 1.0}),
    ("kappa", {"re": 4, "im": 0}),
    ("diagnostics", "no"),
    ("diagnostics", 1),
    ("diagnostics", None),
    ("seed", -1),
    ("solver.toll", 1e-12),
] + [(name, bad) for name in NUMERIC_FIELDS for bad in (True, "8")])
def test_malformed_field_is_config_error(tmp_path, capsys, field, value):
    # a dotted field is nested: "solver.tol" -> {"solver": {"tol": value}}
    top, _, sub = field.partition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({top: {sub: value} if sub else value}))
    code = run(["solve", "--config", cfg, "--out", tmp_path / "x"])
    assert code == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,kappa", [
    ("--kappa-re", 5, {"re": 5.0, "im": 2.0}),
    ("--kappa-im", 3, {"re": 4.0, "im": 3.0}),
])
def test_one_kappa_part_keeps_the_default_other(tmp_path, flag, value, kappa):
    # the default kappa is k1 + i k1/2 = 4 + 2i; the flag sets one part only
    out = tmp_path / "run"
    assert run(["solve", flag, value, "--N", 16, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["kappa"] == kappa
    # likewise a config kappa object with that part alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": {flag.removeprefix("--kappa-"): value}}))
    out = tmp_path / "cfg_run"
    assert run(["solve", "--config", cfg, "--N", 16, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["kappa"] == kappa


def test_kappa_flag_on_malformed_config_kappa_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": "4+2j"}))
    code = run(["solve", "--config", cfg, "--kappa-re", 5, "--out", tmp_path / "x"])
    assert code == 2
    assert "config error: kappa: " in capsys.readouterr().err


def test_nan_angle_flag_is_config_error(tmp_path, capsys):
    code = run(["solve", "--angle", "nan", "--N", 16, "--out", tmp_path / "x"])
    assert code == 2
    assert "config error: angle: " in capsys.readouterr().err


def test_maxit_above_gmres_limit_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 32, "solver": {"type": "gmres", "maxit": 1000}}))
    code = run(["solve", "--config", cfg, "--out", tmp_path / "x"])
    assert code == 2
    assert "config error: solver.maxit: " in capsys.readouterr().err
    # 4N = 128 is the largest accepted value
    cfg.write_text(json.dumps({"N": 32, "solver": {"type": "gmres", "maxit": 128}}))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "y"]) == 0


def test_invalid_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wavelength": 3}))
    code = run(["solve", "--config", cfg, "--out", tmp_path / "x"])
    assert code == 2
    assert "wavelength" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "curve": {"kind": "circle", "radius": 1.0},
        "k1": 4.0, "k2": 8.0, "nu": 2.0, "N": 32,
        "solver": {"type": "lu"},
    }))
    out = tmp_path / "run"
    assert run(["solve", "--config", cfg, "--N", 64, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["N"] == 64
    assert report["method"] == "lu"
    assert report["krylov_exhausted"] is False
    assert 0 < report["diagnostics"]["rcond"] <= 1


def test_compare_gcsie_beats_classical(tmp_path):
    out = tmp_path / "cmp"
    code = run([
        "compare", "--config", _kite_config(tmp_path), "--k1", 8, "--k2", 12,
        "--nu", 2, "--kappa-re", 8, "--kappa-im", 4, "--N", 128, "--out", out,
    ])
    assert code == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["formulation", "N", "gmres_iterations", "residual_target", "converged"]
    iters = {r["formulation"]: int(r["gmres_iterations"]) for r in rows}
    assert set(iters) == {"gcsie", "classical"}
    assert iters["gcsie"] <= iters["classical"]
    assert all(r["converged"] == "1" for r in rows)


def _kite_config(tmp_path):
    cfg = tmp_path / "kite.json"
    cfg.write_text(json.dumps({"curve": {"kind": "kite"}}))
    return cfg


def test_compare_null_contrast_counts(tmp_path):
    # classical collapses to the identity (1 iteration); the
    # combined-source system keeps its kappa-dependent compact blocks,
    # measured at 16 iterations for this configuration
    out = tmp_path / "cmp0"
    code = run([
        "compare", "--config", _kite_config(tmp_path),
        "--k1", 3, "--k2", 3, "--nu", 1, "--N", 128, "--out", out,
    ])
    assert code == 0
    _, rows = read_csv(out / "compare.csv")
    iters = {r["formulation"]: int(r["gmres_iterations"]) for r in rows}
    assert iters["classical"] <= 2
    assert iters["gcsie"] <= 20


def test_convergence_circle_decay(tmp_path):
    out = tmp_path / "conv"
    code = run([
        "convergence", "--k1", 12, "--k2", 18, "--nu", 2,
        "--kappa-re", 12, "--kappa-im", 6,
        "--N-list", "32,64,128", "--out", out,
    ])
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    errs = [float(r["farfield_error"]) for r in rows]
    # spectral: each doubling drops the error 10x until roundoff
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 <= max(e0 / 10.0, 1e-12)
    acts = [float(r["block_action_disagreement"]) for r in rows]
    for a0, a1 in zip(acts, acts[1:]):
        assert a1 <= max(a0 / 10.0, 1e-11)


def test_convergence_kite_self_reference(tmp_path):
    out = tmp_path / "convk"
    code = run([
        "convergence", "--config", _kite_config(tmp_path),
        "--k1", 4, "--k2", 6, "--nu", 2, "--N-list", "128,256", "--out", out,
    ])
    assert code == 0
    _, rows = read_csv(out / "convergence.csv")
    assert rows[-1]["reference"] == "self_N256"
    assert float(rows[0]["farfield_error"]) <= 1e-6
    assert float(rows[-1]["farfield_error"]) == 0.0


def test_convergence_single_entry(tmp_path):
    out = tmp_path / "conv1"
    code = run(["convergence", "--N-list", "64", "--out", out])
    assert code == 0
    _, rows = read_csv(out / "convergence.csv")
    assert len(rows) == 1


def test_convergence_rejects_bad_list(tmp_path, capsys):
    code = run(["convergence", "--N-list", "64,32", "--out", tmp_path / "x"])
    assert code == 2
    assert "N-list" in capsys.readouterr().err
    code = run(["convergence", "--N-list", "31,64", "--out", tmp_path / "y"])
    assert code == 2
    # an empty list used to end in an IndexError on the kite and an empty CSV on the circle
    for extra in ([], ["--config", _kite_config(tmp_path)]):
        code = run(["convergence", *extra, "--N-list", ",", "--out", tmp_path / "z"])
        assert code == 2
        assert "config error: N-list: " in capsys.readouterr().err
    assert not (tmp_path / "z" / "convergence.csv").exists()


def test_convergence_rejects_repeated_sizes(tmp_path, capsys):
    # a repeated size used to be solved twice and written as two identical rows
    code = run(["convergence", "--N-list", "8,8", "--out", tmp_path / "x"])
    assert code == 2
    assert "config error: N-list: " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _no_operator_sets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an operator set was built")

    monkeypatch.setattr(formulations, "boundary_operator_set", refuse)


@pytest.mark.parametrize(
    "command,cfg",
    [
        (["solve"], {}),  # diagnostics on by default: sigma_min and rcond factor the system
        (["solve"], {"diagnostics": False, "solver": {"type": "lu", "tol": 1e-8, "maxit": None}}),
        (["convergence", "--N-list", "64,2050"], {"diagnostics": False}),  # LU on every size
    ],
    ids=["solve-diagnostics", "solve-lu", "convergence"],
)
def test_sizes_past_the_lu_cap_are_refused_before_any_work(tmp_path, capsys, monkeypatch, command, cfg):
    _no_operator_sets(monkeypatch)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg | {"N": 2050}))
    out = tmp_path / "out"
    assert run([*command, "--config", path, "--out", out]) == 2
    assert f"config error: N: must be at most {MAX_DIRECT_UNKNOWNS // 2}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["solve", "--N", 64], ["convergence", "--N-list", "32,64"]],
    ids=["solve", "convergence"],
)
def test_a_mie_reference_past_the_order_range_is_refused_before_any_work(tmp_path, capsys, monkeypatch, args):
    # k1 = 185 on the unit circle needs Mie orders up to 206, past the 200 of specfun: the solve
    # used to run, write farfield.csv and then exit 1 with a traceback
    _no_operator_sets(monkeypatch)
    out = tmp_path / "out"
    assert run([*args, "--k1", 185, "--k2", 120, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: curve: the Mie reference of this circle cannot be evaluated: n_max" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["solve", "--k1", 6000, "--N", 64], "kappa: |kappa| diam = 1.342e+04, outside |k r| <= 10000"),
        (["solve", "--k1", 6000, "--N", 64, "--formulation", "classical"], "k1: |k1| diam = 1.2e+04, outside"),
        (["compare", "--k1", 2, "--k2", 6000, "--N", 64], "k2: |k2| diam = 1.2e+04, outside"),
        (["solve", "--k1", 2, "--k2", 3, "--kappa-im", 400, "--N", 32], "kappa: Im kappa diam = 800: J_n"),
        (["solve", "--k1", 2, "--k2", 3, "--kappa-im", 354, "--N", 32], "kappa: Im kappa diam = 708: J_n"),
        (["convergence", "--k1", 2, "--k2", 3, "--kappa-im", 400, "--N-list", "16,32"], "kappa: Im kappa diam"),
    ],
    ids=["k-range", "k-range-classical", "k2-range-compare", "im-overflow", "im-amos-limit", "convergence"],
)
def test_kernel_arguments_specfun_cannot_evaluate_are_refused_before_any_work(
    tmp_path, capsys, monkeypatch, args, message
):
    # the unit circle's nodes are 2 apart: |k r| past 1e4 used to end in a ValueError from specfun,
    # and kappa r past Im 700.92, where AMOS's J_n overflows, in a SpecialFunctionError
    _no_operator_sets(monkeypatch)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*args, "--out", out]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_arguments_are_measured_on_the_fine_grid(tmp_path, capsys, monkeypatch):
    # the kite's 6 coarse nodes are 2.795 apart at most, the 12 fine nodes its sets are built on
    # 3.000: Im kappa diam = 735 there, past 700.92, where bessel_j(1, .) used to overflow in solve
    _no_operator_sets(monkeypatch)
    out = tmp_path / "out"
    args = ["solve", "--config", _kite_config(tmp_path), "--N", 6, "--k1", 2, "--k2", 3]
    assert run([*args, "--kappa-re", 2, "--kappa-im", 245, "--out", out]) == 2
    assert "config error: kappa: Im kappa diam = 735: J_n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [6, 10, 14])
def test_the_refusals_diameter_is_the_largest_distance_of_the_kernel_argument(monkeypatch, n):
    built = []
    argument = specfun.KernelArgument

    class Recorded(argument):
        def __init__(self, k, points):
            super().__init__(k, points)
            built.append(self.r_max)

    monkeypatch.setattr(specfun, "KernelArgument", Recorded)
    kite = make_curve("kite")
    cli._check_kernel_arguments(validate_config(DEFAULT_CONFIG | {"curve": {"kind": "kite"}, "N": n}), grid(n))
    boundary_operator_set(kite, grid(n), 2.0)
    # both on the 2n fine nodes: their diameter, rounded as sqrt(dx^2 + dy^2), equal to the bit
    x = kite.x(grid(2 * n).nodes)
    assert built == [np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1)).max()] * 2


@pytest.mark.parametrize(
    "args",
    [
        ["--formulation", "classical", "--k1", 8000, "--k2", 12000, "--N", 64],  # |k2| diam = 2,400
        ["--k1", 2, "--k2", 3, "--kappa-re", 1, "--kappa-im", 2000, "--N", 32],  # Im kappa diam = 400
    ],
    ids=["classical-k-range", "gcsie-im-kappa"],
)
def test_a_scatterer_narrower_than_1_ends_through_the_clis_own_exits(tmp_path, capsys, args):
    # an ellipse of diameter 0.2: the placeholder r = 1 on the kernel argument's diagonal used to put
    # |k2| r past 1e4 and Im kappa r past 700.92, and both runs ended in a traceback
    cfg = tmp_path / "ellipse.json"
    cfg.write_text(json.dumps({"curve": {"kind": "ellipse", "a": 0.1, "b": 0.05}}))
    out = tmp_path / "out"
    code = run(["solve", "--config", cfg, *args, "--out", out])
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1 and not out.exists()
    else:
        assert code in (0, 1) and json.loads((out / "report.json").read_text())["status"]


@pytest.mark.parametrize(
    "args,solver",
    [
        (["solve", "--N", 32], "gmres"),  # converges; the diagnostics' LU finds the matrix singular
        (["solve", "--N", 32], "lu"),
        (["convergence", "--N-list", "16,32"], "lu"),
    ],
    ids=["solve-diagnostics", "solve-lu", "convergence"],
)
def test_a_numerically_singular_system_ends_in_one_error_line(tmp_path, capsys, args, solver):
    # nu = 1e15 makes the classical system singular to working precision: it used to end in a
    # LinAlgError traceback, and solve with GMRES wrote farfield.csv first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"type": solver}}))
    out = tmp_path / "out"
    assert run([*args, "--config", cfg, "--nu", 1e15, "--formulation", "classical", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix numerically singular: reciprocal condition number")
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_a_classical_solve_builds_no_kappa_set_and_is_not_refused_for_kappa(tmp_path):
    # Im kappa diam = 800 is past where J_n(kappa r) overflows, but no kappa set is built, and no
    # numpy warning is raised
    out = tmp_path / "classical"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = ["solve", "--k1", 2, "--k2", 3, "--kappa-im", 400, "--N", 32, "--formulation", "classical"]
        assert run([*args, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["farfield_error_vs_reference"] <= 1e-8


def test_a_solve_at_large_im_kappa_ends_with_a_report(tmp_path):
    # kappa = 2+100i on the unit circle: J_n(kappa r) reaches e^200, and the run ends with a report
    out = tmp_path / "out"
    assert run(["solve", "--k1", 2, "--k2", 3, "--kappa-im", 100, "--N", 32, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged" and report["farfield_error_vs_reference"] <= 1e-10
    for key in ("norm2_minus_identity", "sigma_min"):
        assert 0.0 < report["diagnostics"][key] < float("inf")


def test_gmres_without_diagnostics_is_not_capped():
    cfg = DEFAULT_CONFIG | {"N": 2050, "diagnostics": False}
    assert validate_config(cfg).n_nodes == 2050
    assert validate_config(cfg | {"diagnostics": True}, lu=False).n_nodes == 2050  # compare, symbols
    with pytest.raises(ConfigError, match="N: must be at most 2048"):
        validate_config(cfg, lu=True)
    assert validate_config(DEFAULT_CONFIG | {"N": 2048}).n_nodes == 2048


def test_symbols_csv_schema_and_slopes(tmp_path):
    # slopes fitted over the mode window the smoothing claims refer to
    out = tmp_path / "sym"
    code = run([
        "symbols", "--k1", 4, "--k2", 8, "--nu", 2,
        "--kappa-re", 4, "--kappa-im", 2,
        "--n-min", 16, "--n-max", 64, "--out", out,
    ])
    assert code == 0
    header, rows = read_csv(out / "symbols.csv")
    for tag in ("r11", "r12", "r21", "r22"):
        assert f"{tag}_diff" in header
        assert f"slope_{tag}" in header
    assert len(rows) == 49
    slopes = {tag: float(rows[0][f"slope_{tag}"]) for tag in ("r11", "r12", "r21", "r22")}
    assert slopes["r11"] <= -2 + 0.3
    assert slopes["r12"] <= -3 + 0.3
    assert slopes["r21"] <= -1 + 0.3
    assert slopes["r22"] <= -2 + 0.3
    assert float(rows[0]["slope_dtn1"]) <= -1 + 0.3
    assert float(rows[0]["slope_dtn2"]) <= -1 + 0.3


def test_symbols_flags_interior_pole(tmp_path):
    out = tmp_path / "pole"
    code = run([
        "symbols", "--k1", 4, "--k2", J0_FIRST_ZERO, "--nu", 2,
        "--n-min", 0, "--n-max", 16, "--out", out,
    ])
    assert code == 0
    _, rows = read_csv(out / "symbols.csv")
    flagged = [r for r in rows if r["pole_flag"] == "1"]
    assert len(flagged) == 1 and flagged[0]["n"] == "0"
    assert flagged[0]["r11_diff"] == ""  # flagged row carries no values
    clean = [r for r in rows if r["pole_flag"] == "0"]
    assert all(r["r11_diff"] != "" for r in clean)


@pytest.mark.parametrize("n_max", [199, 250])
def test_symbols_past_overflow_range_is_config_error(tmp_path, capsys, n_max):
    # with the default config H_196(4) overflows, so mode 195 is the first that fails
    out = tmp_path / "sym"
    assert run(["symbols", "--n-max", n_max, "--out", out]) == 2
    assert "config error: n-range: mode 195 " in capsys.readouterr().err
    assert not (out / "symbols.csv").exists()


def test_symbols_requires_circle(tmp_path, capsys):
    code = run([
        "symbols", "--config", _kite_config(tmp_path), "--out", tmp_path / "x",
    ])
    assert code == 2
    assert "curve.kind" in capsys.readouterr().err
