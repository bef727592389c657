"""Dense direct and iterative solvers with conditioning diagnostics.

The systems are small enough (2N <= 4096) for dense LAPACK factorization;
GMRES is full (no restart) so that the iteration count is the Krylov
dimension and directly reflects the spectral clustering the second-kind
formulations are designed to produce.  No preconditioning anywhere.
LU factorizations and LU solves run one at a time across threads, under
one module lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from ._memo import LastValue


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    x: np.ndarray
    method: str
    iterations: int
    residuals: list[float]
    wall_time: float
    converged: bool


def _square(a) -> np.ndarray:
    """a as an array; raises ValueError unless it is a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


# LAPACK's getrs corrupts the heap when several threads call it at once on some OpenBLAS
# builds (0.3.31 with scipy 1.17.1): every factorization and LU solve holds this lock
_LAPACK_LOCK = threading.Lock()

# LU factors and rcond of the last read-only matrix, shared by lu_solve, sigma_min_estimate
# and rcond_estimate
_FACTORS = LastValue()


def _lu_factor(a: np.ndarray):
    """Partial-pivoting LU factors of A and LAPACK's estimate of 1/cond_1(A).

    A numerically singular A raises LinAlgError.  The result for a read-only
    A is kept while A lives and reused when A is passed again; a writeable A
    is factored on every call.
    """
    if a.shape[0] > 4096:
        raise ValueError(f"dense direct solve capped at 4096 unknowns, got {a.shape[0]}")
    return _FACTORS.get([a], (), lambda: _checked_lu_factor(a))


def _checked_lu_factor(a: np.ndarray):
    """LU factors of A and rcond, refused when rcond is below machine epsilon.

    gecon estimates the reciprocal condition number from the factors in
    O(n^2); a small pivot alone does not show an ill-conditioned matrix.
    """
    with _LAPACK_LOCK:
        lu, piv = sla.lu_factor(a)
        gecon = sla.get_lapack_funcs("gecon", (lu,))
        rcond, _ = gecon(lu, sla.norm(a, 1, check_finite=False), norm="1")
    if not rcond >= np.finfo(float).eps:
        raise np.linalg.LinAlgError(
            f"matrix numerically singular: reciprocal condition number {rcond:.3g} "
            "is below machine epsilon"
        )
    return (lu, piv), float(rcond)


def rcond_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (gecon) of 1/cond_1(A), from the LU factors lu_solve uses.

    A numerically singular A raises LinAlgError, as in lu_solve.
    """
    return _lu_factor(_square(a))[1]


def lu_solve(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Direct solve via partial-pivoting LU factorization."""
    a = _square(a)
    b = np.asarray(b)
    t0 = time.perf_counter()
    factors = _lu_factor(a)[0]
    with _LAPACK_LOCK:
        x = sla.lu_solve(factors, b)
    elapsed = time.perf_counter() - t0
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(a @ x - b) / bnorm) if bnorm > 0 else 0.0
    return SolveReport(
        x=x,
        method="lu",
        iterations=1,
        residuals=[res],
        wall_time=elapsed,
        converged=True,
    )


_GMRES_FIRST_SIZE = 16


def _grown(a: np.ndarray, shape) -> np.ndarray:
    """a copied into the top-left corner of a zero array of the given shape."""
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a complex vector x; a real matrix acts on a float view of x.

    The view turns x into an n x 2 real matrix of its real and imaginary
    parts, so a real matrix is never converted to complex.
    """
    if np.iscomplexobj(a):
        return a @ x
    return (a @ x.view(float).reshape(-1, 2)).view(complex).reshape(-1)


def gmres(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-8,
    maxit: int | None = None,
) -> SolveReport:
    """Full GMRES with modified Gram-Schmidt and Givens rotations.

    The residual history starts at 1 (relative to |b|, zero initial
    guess) and is non-increasing; iterations = Krylov dimension at
    convergence.  Non-convergence is reported in the returned record,
    not raised.  The Krylov basis starts with room for 16 steps and
    doubles when full, so its memory follows the steps taken, not maxit.
    """
    a = _square(a)
    b = np.asarray(b, dtype=complex)
    n = b.size
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if maxit is None:
        maxit = n
    if maxit > 2 * n:
        raise ValueError(f"maxit {maxit} exceeds twice the system size {n}")

    t0 = time.perf_counter()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(
            x=np.zeros_like(b),
            method="gmres",
            iterations=0,
            residuals=[0.0],
            wall_time=time.perf_counter() - t0,
            converged=True,
        )

    # Krylov basis and Hessenberg matrix for `size` steps, doubled when full
    size = min(maxit, _GMRES_FIRST_SIZE)
    v = np.empty((size + 1, n), dtype=complex)
    h = np.zeros((size + 1, size), dtype=complex)
    cs = np.zeros(maxit, dtype=complex)
    sn = np.zeros(maxit, dtype=complex)
    g = np.zeros(maxit + 1, dtype=complex)

    v[0] = b / bnorm
    g[0] = bnorm
    history = [1.0]
    converged = False
    m = 0
    for j in range(maxit):
        if j == size:
            size = min(2 * size, maxit)
            v = _grown(v, (size + 1, n))
            h = _grown(h, (size + 1, size))
        w = _matvec(a, v[j])
        for i in range(j + 1):  # modified Gram-Schmidt
            h[i, j] = np.vdot(v[i], w)
            w -= h[i, j] * v[i]
        wnorm = np.linalg.norm(w)
        h[j + 1, j] = wnorm

        for i in range(j):  # previously accumulated rotations
            hi = np.conj(cs[i]) * h[i, j] + np.conj(sn[i]) * h[i + 1, j]
            h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
            h[i, j] = hi
        rho = np.hypot(abs(h[j, j]), abs(h[j + 1, j]))
        cs[j] = h[j, j] / rho if rho > 0 else 1.0
        sn[j] = h[j + 1, j] / rho if rho > 0 else 0.0
        h[j, j] = rho
        h[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = np.conj(cs[j]) * g[j]

        m = j + 1
        history.append(abs(g[m]) / bnorm)  # non-increasing: |sn| <= 1
        if history[-1] <= tol:
            converged = True
            break
        if wnorm == 0.0:  # Krylov space invariant; no further progress possible
            break
        v[m] = w / wnorm

    y = sla.solve_triangular(h[:m, :m], g[:m]) if m > 0 else np.zeros(0, dtype=complex)
    x = v[:m].T @ y
    return SolveReport(
        x=x,
        method="gmres",
        iterations=m,
        residuals=history,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


def norm2_estimate(a: np.ndarray, shift: float = 0.0, seed: int = 0) -> float:
    """Largest singular value of (A - shift*I) by power iteration.

    The shift is applied inside the products, (A - s I) v = A v - s v and
    (A - s I)^H u = A^H u - conj(s) u, so no shifted copy of A is formed.
    200 iterations or 1e-6 relative stagnation, whichever comes first.
    """
    a = _square(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(200):
        u = a @ v - shift * v
        # A^H u without copying conj(A)
        w = np.conj(a.T @ np.conj(u)) - np.conj(shift) * u
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new_sigma = np.sqrt(norm)
        v = w / norm
        if sigma > 0 and abs(new_sigma - sigma) <= 1e-6 * sigma:
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def sigma_min_estimate(a: np.ndarray, seed: int = 0) -> float:
    """Smallest singular value by inverse power iteration on A^H A.

    Each step solves with A and A^H from one LU factorization, the one
    lu_solve used if A is the same read-only matrix.
    """
    a = _square(a)
    n = a.shape[0]
    factors = _lu_factor(a)[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(200):
        with _LAPACK_LOCK:
            w = sla.lu_solve(factors, sla.lu_solve(factors, v, trans=2))
        norm = np.linalg.norm(w)
        new_lam = norm
        v = w / norm
        if lam > 0 and abs(new_lam - lam) <= 1e-9 * lam:
            lam = new_lam
            break
        lam = new_lam
    return float(1.0 / np.sqrt(lam))
