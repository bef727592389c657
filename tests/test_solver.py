import gc
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tscat2d import IncidentWave, TransmissionConfig, assemble, grid, make_circle, make_kite, solver
from tscat2d.solver import gmres, lu_solve, norm2_estimate, rcond_estimate, sigma_min_estimate


def _read_only(a):
    a.flags.writeable = False
    return a


def _well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + 2 * np.sqrt(n) * np.eye(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pivoted(n, seed, complex_matrix=True):
    """A well-conditioned n x n matrix whose largest entries sit off the diagonal, so getrf swaps rows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_matrix:
        a = a + 1j * rng.standard_normal((n, n))
    return a + 2 * np.sqrt(n) * np.eye(n)[rng.permutation(n)]


def test_lu_identity():
    b = np.array([1.0, -2.0, 3.0], dtype=complex)
    rep = lu_solve(np.eye(3), b)
    assert np.allclose(rep.x, b)
    assert rep.converged


def test_lu_diagonal():
    rep = lu_solve(np.diag([2.0, 3.0]), np.array([2.0, 3.0]))
    assert np.allclose(rep.x, [1.0, 1.0])


def test_lu_random_residual():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    a += 10 * np.eye(100)  # keep it comfortably conditioned
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    rep = lu_solve(a, b)
    assert np.linalg.norm(a @ rep.x - b) / np.linalg.norm(b) <= 1e-11


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_lu_rejects_singular():
    with pytest.raises(np.linalg.LinAlgError):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_lu_rejects_rank_deficient_matrix_with_nonvanishing_pivots():
    # rank 49 of 50: the smallest pivot is 1.9e-13, yet 1/cond is about 3e-18; solving it
    # gave a relative residual of 2.7 and |x| ~ 3e14
    rng = np.random.default_rng(0)
    left = rng.standard_normal((50, 49)) + 1j * rng.standard_normal((50, 49))
    right = rng.standard_normal((49, 50)) + 1j * rng.standard_normal((49, 50))
    a = left @ right
    with pytest.raises(np.linalg.LinAlgError, match=r"reciprocal condition number [0-9.e+-]+ is below"):
        lu_solve(a, np.ones(50))
    with pytest.raises(np.linalg.LinAlgError, match="reciprocal condition number"):
        sigma_min_estimate(_read_only(a))


def test_lu_accepts_tiny_but_well_conditioned_matrices():
    # conditioning, not pivot size, decides: 1e-305 I has pivots far below 1e-300 and cond 1
    b = np.array([1.0, 2.0])
    assert lu_solve(1e-305 * np.eye(2), 1e-305 * b).x == pytest.approx(b, rel=1e-15)
    assert lu_solve(np.diag([1.0, 1e-10]), b).x == pytest.approx([1.0, 2e10], rel=1e-15)


def test_lu_rejects_nonsquare_and_oversize():
    with pytest.raises(ValueError):
        lu_solve(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        lu_solve(np.broadcast_to(1.0, (5000, 5000)), np.ones(5000))


@pytest.mark.parametrize("n", [1, 2, 7, 130, 512])
@pytest.mark.parametrize("kind", ["complex", "real", "real-matrix-complex-b"])
def test_lu_solve_matches_scipy_lu_solve_on_the_same_factors(kind, n):
    a = _pivoted(n, n, complex_matrix=kind == "complex")
    rng = np.random.default_rng(n + 1)
    b = rng.standard_normal(n) + (0 if kind == "real" else 1j * rng.standard_normal(n))
    factors = solver.sla.lu_factor(a)
    if n > 2:
        assert not np.array_equal(factors[1], np.arange(n))
    for x, expected in [
        (lu_solve(a, b).x, solver.sla.lu_solve(factors, b)),
        (solver._lu_apply(solver._lu_factor(a)[0], b, adjoint=True), solver.sla.lu_solve(factors, b, trans=2)),
    ]:
        assert x.dtype == expected.dtype
        assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize(
    "rhs",
    [
        lambda b: np.where(np.arange(b.size) == 3, np.nan, b),
        lambda b: np.where(np.arange(b.size) == 3, np.inf, b),
        lambda b: np.append(b, 1.0),
        lambda b: b[:-1],
        lambda b: b[:, None],
    ],
    ids=["nan", "inf", "too-long", "too-short", "column"],
)
def test_lu_solve_rejects_a_right_hand_side_that_is_not_one_finite_vector(rhs):
    a, b = _well_conditioned(8, 18)
    with pytest.raises(ValueError, match="right-hand side"):
        lu_solve(a, rhs(b))


def test_lu_solve_checks_the_right_hand_side_before_it_factors(monkeypatch):
    calls = []
    checked_lu_factor = solver._checked_lu_factor
    monkeypatch.setattr(solver, "_checked_lu_factor", lambda a: calls.append(a) or checked_lu_factor(a))
    with pytest.raises(ValueError, match="right-hand side"):
        lu_solve(2 * np.eye(4), np.ones(3))
    assert calls == []


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 9.0)
    rep = gmres(np.eye(8), b, tol=1e-10)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(rep.x, b)


def test_gmres_rank_one_perturbation_two_iterations():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(40)
    v = rng.standard_normal(40)
    a = np.eye(40) + np.outer(u, v) / 20.0
    b = rng.standard_normal(40)
    rep = gmres(a, b, tol=1e-10)
    assert rep.iterations <= 2
    assert np.linalg.norm(a @ rep.x - b) / np.linalg.norm(b) <= 1e-9


def test_gmres_zero_rhs():
    rep = gmres(np.eye(5), np.zeros(5))
    assert rep.iterations == 0
    assert rep.converged
    assert np.all(rep.x == 0)


def test_gmres_history_monotone():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    a += 8 * np.eye(60)
    b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    rep = gmres(a, b, tol=1e-12)
    hist = np.array(rep.residuals)
    assert np.all(np.diff(hist) <= 1e-14)
    assert rep.converged
    # reported estimate matches the true final residual
    true_res = np.linalg.norm(a @ rep.x - b) / np.linalg.norm(b)
    assert true_res <= 10 * rep.residuals[-1] + 1e-13


def test_gmres_nonconvergence_reported_not_raised():
    # rotation-like matrix with spread spectrum, tiny budget
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 50))
    b = rng.standard_normal(50)
    rep = gmres(a, b, tol=1e-12, maxit=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_gmres_parameter_validation():
    with pytest.raises(ValueError):
        gmres(np.eye(4), np.ones(4), tol=0.0)
    with pytest.raises(ValueError):
        gmres(np.eye(4), np.ones(4), tol=1.5)
    with pytest.raises(ValueError):
        gmres(np.eye(4), np.ones(4), maxit=9)


@pytest.mark.parametrize(
    "b",
    [np.ones(3), np.ones(5), np.ones((2, 2)), np.array([1.0, np.nan, 1.0, 1.0])],
    ids=["too-short", "too-long", "2x2", "nan"],
)
def test_gmres_rejects_a_right_hand_side_that_is_not_one_finite_vector(b):
    # refused before any arithmetic on b: no numpy error, broadcast or warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="right-hand side"):
            gmres(np.eye(4), b)


def test_norm2_estimate_scaled_identity():
    assert norm2_estimate(2.0 * np.eye(12)) == pytest.approx(2.0, rel=1e-6)


def test_norm2_estimate_shifted_identity():
    assert norm2_estimate(np.eye(12), shift=1.0) <= 1e-10


def test_norm2_estimate_known_singular_values():
    # unitary sandwich with spectrum {3.5, 1, 0.5, ...}
    rng = np.random.default_rng(4)
    q1, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    q2, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    svals = np.concatenate([[3.5, 1.0], 0.5 * rng.random(28)])
    a = q1 @ np.diag(svals) @ q2.conj().T
    assert norm2_estimate(a) == pytest.approx(3.5, abs=1e-4)


def _random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _kite_system_matrix(n):
    cfg = TransmissionConfig(curve=make_kite(), k1=8.0, k2=12.0, nu=2.0, kappa=8 + 4j, n_nodes=n)
    return assemble(cfg, grid(n), IncidentWave(0.0, cfg.k1), "gcsie").matrix


def _circle_system_matrix(n, formulation):
    cfg = TransmissionConfig(curve=make_circle(1.0), k1=20.0, k2=30.0, nu=2.0, n_nodes=n)
    return assemble(cfg, grid(n), IncidentWave(0.0, cfg.k1), formulation).matrix


@pytest.mark.parametrize(
    "matrix",
    [
        lambda: _random_complex(300, 0),
        lambda: _kite_system_matrix(64),
        lambda: _pivoted(512, 17),
        lambda: _circle_system_matrix(64, "gcsie-explicit"),
        lambda: _circle_system_matrix(64, "classical"),
    ],
    ids=["random-300", "kite-gcsie-64", "pivoted-512", "circle-gcsie-explicit-64", "circle-classical-64"],
)
def test_estimators_agree_with_a_dense_svd(matrix):
    a = matrix()
    eye = np.eye(a.shape[0])
    assert norm2_estimate(a, shift=1.0) == pytest.approx(
        np.linalg.svd(a - eye, compute_uv=False)[0], rel=1e-10
    )
    assert norm2_estimate(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-10)
    assert sigma_min_estimate(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[-1], rel=1e-10)


def test_rcond_forms_no_abs_a():
    # scipy.linalg.norm(a, 1) runs LAPACK lange on the Fortran-ordered a.T for a contiguous a
    a = _random_complex(512, 8)
    lu = solver.sla.lu_factor(a)[0]
    gecon = solver.sla.get_lapack_funcs("gecon", (lu,))
    expected = gecon(lu, np.abs(a).sum(axis=0).max(), norm="1")[0]
    tracemalloc.start()
    try:
        rcond = rcond_estimate(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rcond == pytest.approx(expected, rel=1e-12)
    # the LU factors are one copy of A; |A| would add half of one more
    assert peak < 1.25 * a.nbytes


def test_sigma_min_diagonal():
    assert sigma_min_estimate(np.diag([1.0, 1e-3])) == pytest.approx(1e-3, abs=1e-9)
    assert sigma_min_estimate(np.eye(7)) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_sigma_min_rejects_singular():
    with pytest.raises(np.linalg.LinAlgError):
        sigma_min_estimate(np.diag([1.0, 0.0]))


def test_lu_and_gmres_agree():
    rng = np.random.default_rng(5)
    a = np.eye(64) + 0.3 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 8
    b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x1 = lu_solve(a, b).x
    x2 = gmres(a, b, tol=1e-12).x
    assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) <= 1e-8


SOLVERS = {
    "lu_solve": lambda a: lu_solve(a, np.ones(3)),
    "gmres": lambda a: gmres(a, np.ones(3)),
    "norm2_estimate": norm2_estimate,
    "sigma_min_estimate": sigma_min_estimate,
}


@pytest.mark.parametrize("name", SOLVERS)
@pytest.mark.parametrize("shape", [(3, 2), (3,), (1, 3, 3)])
def test_every_solver_rejects_a_non_square_matrix(name, shape):
    with pytest.raises(ValueError, match="matrix must be square"):
        SOLVERS[name](np.ones(shape))


@pytest.mark.parametrize("name", SOLVERS)
def test_every_solver_rejects_an_empty_matrix(name, capfd):
    # LAPACK's gecon would print a complaint about its arguments and fail as if singular
    with pytest.raises(ValueError, match=r"non-empty, got shape \(0, 0\)"):
        SOLVERS[name](np.ones((0, 0)))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("maxit", [-1, 0, 2.5, 3.0, True, "3"])
def test_gmres_rejects_a_maxit_that_is_not_a_positive_integer(maxit):
    with pytest.raises(ValueError, match=r"maxit must be an integer in \[1, 8\]"):
        gmres(np.eye(4), np.ones(4), maxit=maxit)


def test_gmres_takes_a_numpy_integer_maxit():
    assert gmres(np.eye(4), np.ones(4), maxit=np.int64(2)).converged


def test_sigma_min_shares_the_direct_solve_cap():
    # a broadcast view: a 5000 x 5000 matrix that takes no memory
    with pytest.raises(ValueError, match="4096"):
        sigma_min_estimate(np.broadcast_to(1.0, (5000, 5000)))


def _count_lu_factor(monkeypatch):
    calls = []
    lu_factor = solver.sla.lu_factor

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(solver.sla, "lu_factor", counted)
    return calls


def test_lu_solve_and_sigma_min_share_one_factorization(monkeypatch):
    a, b = _well_conditioned(40, 6)
    x_fresh = lu_solve(a, b).x
    sigma_fresh = sigma_min_estimate(a)
    calls = _count_lu_factor(monkeypatch)
    a = _read_only(a)
    x = lu_solve(a, b).x
    sigma = sigma_min_estimate(a)
    rcond = rcond_estimate(a)
    assert lu_solve(a, 2 * b).x == pytest.approx(2 * x, rel=1e-14)
    assert len(calls) == 1
    assert np.array_equal(x, x_fresh)
    assert sigma == sigma_fresh
    assert rcond == rcond_estimate(a.copy())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rcond_estimate_is_within_ten_of_the_one_norm_condition(seed):
    rng = np.random.default_rng(seed)
    # singular values from 1 down to 1e-6: cond_1 about 1e6 or more
    u, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    a = (u * np.geomspace(1.0, 1e-6, 30)) @ v.conj().T
    exact = 1.0 / np.linalg.cond(a, 1)
    assert exact / 10 <= rcond_estimate(a) <= 10 * exact
    assert rcond_estimate(np.eye(4)) == 1.0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_freeing_a_replaced_matrix_keeps_the_newer_factors(monkeypatch):
    old, b = _well_conditioned(20, 12)
    new, _ = _well_conditioned(20, 13)
    old, new = _read_only(old), _read_only(new)
    lu_solve(old, b)
    # the traceback of a failed factorization keeps the lookup's frame alive,
    # and with it the weak references of the entry it replaced (old's)
    with pytest.raises(np.linalg.LinAlgError) as failed:
        lu_solve(_read_only(np.zeros((20, 20))), b)
    x = lu_solve(new, b).x
    calls = _count_lu_factor(monkeypatch)
    del old
    gc.collect()
    assert np.array_equal(lu_solve(new, b).x, x)
    assert calls == []
    assert failed.traceback


def test_threads_never_get_another_matrix_s_factors():
    # the memo is shared by threads; a race may cost a refactorization but
    # must never pair one matrix with the factors of another
    pairs = [_well_conditioned(8, seed) for seed in (14, 15, 16)]
    mats = [_read_only(a) for a, _ in pairs]
    b = pairs[0][1]
    expected = [np.linalg.solve(a, b) for a in mats]
    bad = []

    def work(offset):
        for i in range(300):
            k = (i + offset) % len(mats)
            if not np.allclose(lu_solve(mats[k], b).x, expected[k], rtol=1e-10, atol=0):
                bad.append(k)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_writeable_matrix_changed_in_place_gives_the_new_answer(monkeypatch):
    a, b = _well_conditioned(30, 7)
    calls = _count_lu_factor(monkeypatch)
    x1 = lu_solve(a, b).x
    a *= 2.0
    x2 = lu_solve(a, b).x
    assert np.allclose(x2, x1 / 2, rtol=0, atol=1e-13 * np.abs(x1).max())
    assert sigma_min_estimate(a) == pytest.approx(2 * sigma_min_estimate(a / 2), rel=1e-9)
    assert len(calls) == 4  # nothing reused


def test_read_only_view_of_a_writeable_array_is_not_memoized():
    base, b = _well_conditioned(30, 8)
    view = _read_only(base[:])
    x1 = lu_solve(view, b).x
    base *= 2.0  # writes through to the view's data
    x2 = lu_solve(view, b).x
    assert np.allclose(x2, x1 / 2, rtol=0, atol=1e-13 * np.abs(x1).max())


def test_gmres_memory_follows_the_steps_taken():
    # default maxit = n; an up-front basis would take (n + 1) n complex entries
    n = 1000
    rng = np.random.default_rng(9)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = np.eye(n) + np.outer(u, rng.standard_normal(n)) / (4 * n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        rep = gmres(a, b, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations <= 3
    assert peak < 64 * n * 16  # room for 64 basis vectors, against 1001 up front


def test_gmres_real_matrix_gives_the_bits_of_its_complex_copy():
    # a real matrix is converted to complex once per call and runs the complex product
    n = 1000
    rng = np.random.default_rng(12)
    a = np.eye(n) + np.outer(rng.standard_normal(n), rng.standard_normal(n)) / (4 * n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep, ref = gmres(a, b, tol=1e-10), gmres(a.astype(complex), b, tol=1e-10)
    assert rep.converged and rep.iterations <= 3
    assert np.linalg.norm(a @ rep.x - b) <= 1e-9 * np.linalg.norm(b)
    assert rep.residuals == ref.residuals and np.array_equal(rep.x, ref.x)
    assert norm2_estimate(a, shift=1.0) == norm2_estimate(a.astype(complex), shift=1.0)


@pytest.mark.parametrize("exponent", [600, -600])
def test_krylov_results_scale_exactly_with_the_matrix(exponent):
    # entries near 2^600 square past the largest double and near 2^-600 below the smallest; each
    # Krylov process runs on A over a power of two near its largest entry, which is exact
    a, b = _well_conditioned(60, 21)
    scaled = np.ldexp(a.real, exponent) + 1j * np.ldexp(a.imag, exponent)
    rep, ref = gmres(scaled, b, tol=1e-12), gmres(a, b, tol=1e-12)
    assert rep.converged and rep.residuals == ref.residuals
    assert np.array_equal(rep.x, np.ldexp(ref.x.real, -exponent) + 1j * np.ldexp(ref.x.imag, -exponent))
    assert norm2_estimate(scaled, seed=3) == np.ldexp(norm2_estimate(a, seed=3), exponent)
    fortran = np.asfortranarray(scaled)  # its real and imaginary parts are reduced as strided views
    assert norm2_estimate(fortran, seed=3) == pytest.approx(norm2_estimate(scaled, seed=3), rel=1e-12)
    assert sigma_min_estimate(scaled, seed=3) == np.ldexp(sigma_min_estimate(a, seed=3), exponent)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "-inf", "nan-im"])
@pytest.mark.parametrize("layout", ["complex", "fortran", "real"])
def test_krylov_processes_refuse_a_matrix_that_is_not_finite(bad, layout):
    # the largest part that the scaling reduces is not finite: refused before any Krylov step,
    # with no numpy warning on the way
    a, b = _well_conditioned(12, 22)
    a = a.real.copy() if layout == "real" else np.asfortranarray(a) if layout == "fortran" else a
    if layout == "real" and isinstance(bad, complex):
        bad = bad.imag
    a[4, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            gmres(a, b)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            norm2_estimate(a, shift=1.0)


@pytest.mark.parametrize("maxit", [15, 16, 17, 32, 33, 40])
def test_gmres_growth_keeps_every_iterate(maxit):
    # a budget-limited run must reproduce the first steps of a longer run
    # bit for bit, across the 16 -> 32 -> 64 growth of the Krylov basis
    rng = np.random.default_rng(10)
    a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80)) + 6 * np.eye(80)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    long = gmres(a, b, tol=1e-14, maxit=80)
    short = gmres(a, b, tol=1e-14, maxit=maxit)
    assert long.iterations > 40
    assert short.iterations == maxit
    assert short.residuals == long.residuals[: maxit + 1]


def test_norm2_estimate_shift_matches_the_shifted_matrix():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    for shift in (0.5, 1.0, 3.0):
        shifted = a - shift * np.eye(50)
        assert norm2_estimate(a, shift=shift) == pytest.approx(
            norm2_estimate(shifted), rel=1e-12
        )
        assert norm2_estimate(a, shift=shift) == pytest.approx(
            np.linalg.norm(shifted, 2), rel=1e-3
        )
