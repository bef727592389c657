import numpy as np
import pytest

from tscat2d.geometry import grid, make_circle, make_curve, make_ellipse, make_kite


def test_unit_circle_point_normal_jacobian():
    c = make_circle(1.0)
    assert np.allclose(c.x(0.0), [1.0, 0.0])
    assert np.allclose(c.normal(0.0), [1.0, 0.0])
    assert np.isclose(c.jacobian(0.0), 1.0)


def test_circle_scaling():
    c = make_circle(2.0)
    assert np.allclose(c.x(np.pi / 2), [0.0, 2.0], atol=1e-15)
    assert np.isclose(c.jacobian(np.pi / 2), 2.0)


def test_circle_curvature_is_inverse_radius():
    c = make_circle(2.0)
    t = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(c.curvature(t), 0.5, atol=1e-14)


def test_circle_outward_normal():
    c = make_circle(1.5)
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    assert np.all(np.sum(c.normal(t) * c.x(t), axis=-1) > 0)


def test_circle_rejects_bad_radius():
    for radius in (0.0, -1.0, float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError, match="radius"):
            make_circle(radius)


def test_kite_endpoints():
    k = make_kite()
    assert np.allclose(k.x(0.0), [1.0, 0.0], atol=1e-15)
    assert np.allclose(k.x(np.pi), [-1.0, 0.0], atol=1e-14)


def test_kite_is_regular():
    # dense sampling: the parametrization never degenerates
    k = make_kite()
    t = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    assert k.jacobian(t).min() > 0.1


def test_ellipse_matches_circle():
    e = make_ellipse(1.0, 1.0)
    c = make_circle(1.0)
    t = np.linspace(0, 2 * np.pi, 33)
    assert np.allclose(e.x(t), c.x(t))
    assert np.allclose(e.jacobian(t), 1.0)


def test_ellipse_jacobian_at_axes():
    e = make_ellipse(2.0, 1.0)
    assert np.allclose(e.x(0.0), [2.0, 0.0])
    assert np.isclose(e.jacobian(0.0), 1.0)
    assert np.isclose(e.jacobian(np.pi / 2), 2.0)


def test_ellipse_rejects_bad_axes():
    for a, b in ((-2.0, 1.0), (2.0, 0.0), (float("nan"), 1.0), (2.0, float("inf")), (True, 1.0)):
        with pytest.raises(ValueError, match="semi-axes"):
            make_ellipse(a, b)


def test_make_curve_dispatch():
    assert make_curve("kite").kind == "kite"
    assert make_curve("circle", radius=2.0).kind == "circle"
    with pytest.raises(ValueError, match="unknown curve kind"):
        make_curve("square")


def test_grid_nodes():
    g = grid(4)
    assert np.allclose(g.nodes, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert grid(8).nodes[3] == pytest.approx(3 * np.pi / 4)


def test_grid_rejects_odd_and_tiny():
    with pytest.raises(ValueError):
        grid(7)
    with pytest.raises(ValueError):
        grid(2)
    for size in (6.5, 8.0, True):  # not truncated to an integer
        with pytest.raises(ValueError, match="must be an integer"):
            grid(size)
    assert grid(np.int64(8)).n == 8


@pytest.mark.parametrize("curve", [make_circle(1.3), make_ellipse(2.0, 1.0), make_kite()])
def test_derivatives_consistent_with_finite_differences(curve):
    # |x(t+h) - x(t) - h x'(t)| = O(h^2): fitted order of the first-order
    # Taylor remainder must be ~2; same for x'' against x'
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 2 * np.pi, 1000)
    hs = np.array([1e-3, 5e-4, 2.5e-4, 1.25e-4])
    for f, df in [(curve.x, curve.dx), (curve.dx, curve.ddx)]:
        errs = []
        for h in hs:
            r = f(t + h) - f(t) - h * df(t)
            errs.append(np.max(np.abs(r)))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 1.9


@pytest.mark.parametrize("curve", [make_circle(2.0), make_ellipse(2.0, 1.0), make_kite()])
def test_normal_is_unit_on_grid(curve):
    g = grid(256)
    n = curve.normal(g.nodes)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-14


def test_periodicity():
    for curve in (make_circle(1.0), make_ellipse(2.0, 0.5), make_kite()):
        t = np.linspace(0, 2 * np.pi, 11)
        assert np.allclose(curve.x(t + 2 * np.pi), curve.x(t), atol=1e-13)
