"""Config-driven batch driver: outputs, schemas, determinism, error paths."""

import json

import pytest

from tscat2d.cli import main

# first zero of J_0: forces an interior Dirichlet pole at mode 0
J0_FIRST_ZERO = 2.404825557695773


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_solve_writes_report_and_farfield(tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--k1", 4, "--k2", 8, "--nu", 2, "--N", 64, "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "converged"
    assert report["iterations"] > 0
    assert report["farfield_error_vs_reference"] <= 1e-8
    assert report["config"]["nu"] == 2.0
    assert report["config"]["kappa"] == {"re": 4.0, "im": 2.0}
    header, rows = read_csv(out / "farfield.csv")
    assert header == ["theta", "re_u_inf", "im_u_inf", "abs_u_inf"]
    assert len(rows) == 360
    assert (out / "timings.json").exists()


def test_solve_null_contrast(tmp_path):
    out = tmp_path / "null"
    code = run([
        "solve", "--k1", 3, "--k2", 3, "--nu", 1, "--N", 64,
        "--formulation", "classical", "--out", out,
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["farfield_max_abs"] <= 1e-8


def test_solve_deterministic(tmp_path):
    out = tmp_path / "rep"
    args = ["solve", "--k1", 4, "--k2", 8, "--nu", 2, "--N", 32, "--out", out]
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
] + [(name, bad) for name in NUMERIC_FIELDS for bad in (True, "8")])
def test_malformed_field_is_config_error(tmp_path, capsys, field, value):
    # a dotted field is nested: "solver.tol" -> {"solver": {"tol": value}}
    top, _, sub = field.partition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({top: {sub: value} if sub else value}))
    code = run(["solve", "--config", cfg, "--out", tmp_path / "x"])
    assert code == 2
    assert f"config error: {field}: " in capsys.readouterr().err


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
