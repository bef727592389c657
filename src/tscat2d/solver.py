"""Dense direct and iterative solvers with conditioning diagnostics.

The systems are small enough (2N <= ``MAX_DIRECT_UNKNOWNS``) for dense LAPACK factorization;
GMRES is full (no restart) so that the iteration count is the Krylov
dimension and directly reflects the spectral clustering the second-kind
formulations are designed to produce.  No preconditioning anywhere.
An LU solve takes one right-hand side: it gathers b by the row permutation
of the factorization, kept with the factors, and makes two BLAS-2 triangular
solves (trsv), with no LAPACK getrs.  LU factorizations and LU solves run one
at a time across threads, under one module lock.  The conditioning
diagnostics, ||A - s I||_2 and sigma_min(A) = 1 / ||A^-1||_2, are largest
singular values found by Lanczos on M^H M through GMRES's Arnoldi step, so the
solver builds one kind of Krylov basis, always with modified Gram-Schmidt
against every earlier vector.  All three run on A times a power of two, an
exact scaling that keeps their norms in range however large A's entries are.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from ._memo import LastValue
from .geometry import is_integer


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
    """a as an array; raises ValueError unless it is a non-empty square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
    return a


MAX_DIRECT_UNKNOWNS = 4096  # the largest system the dense LU factors

# LAPACK's getrs corrupted the heap when several threads called it at once on an OpenBLAS
# build (0.3.31 with scipy 1.17.1). Every factorization (getrf and gecon) and every LU solve
# (its two trsv calls) holds this lock; on one thread it costs nothing
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
    if a.shape[0] > MAX_DIRECT_UNKNOWNS:
        raise ValueError(f"dense direct solve capped at {MAX_DIRECT_UNKNOWNS} unknowns, got {a.shape[0]}")
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
    return (lu, _row_permutation(piv)), float(rcond)


def _row_permutation(piv: np.ndarray) -> np.ndarray:
    """The permutation p with A[p] = L U, from getrf's row swaps (row i with row piv[i], in order)."""
    p = list(range(len(piv)))
    for i, j in enumerate(piv.tolist()):
        p[i], p[j] = p[j], p[i]
    return np.array(p)


def _rhs(b, n: int) -> np.ndarray:
    """b as an array; raises ValueError unless it is one finite vector of length n."""
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"right-hand side must be a vector of length {n}, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must contain only finite numbers")
    return b


def _lu_apply(factors, b, adjoint: bool = False) -> np.ndarray:
    """A^-1 b, or A^-H b if adjoint, from the factors L U = A[p] of A.

    A x = b is L U x = b[p]; A^H x = b is U^H L^H y = b with x[p] = y.  Each
    is one gather or scatter and two trsv calls.  b is one finite vector of
    A's size, as ``_rhs`` checks it.  A complex b against real factors is
    solved as its real and imaginary parts, so the factors are never converted.
    """
    lu, p = factors
    if np.iscomplexobj(b) and not np.iscomplexobj(lu):
        return _lu_apply(factors, b.real, adjoint) + 1j * _lu_apply(factors, b.imag, adjoint)
    trsv = sla.get_blas_funcs("trsv", (lu, b))
    with _LAPACK_LOCK:
        if not adjoint:
            y = trsv(lu, b[p], lower=1, diag=1, overwrite_x=1)
            return trsv(lu, y, overwrite_x=1)
        y = trsv(lu, trsv(lu, b, trans=2), lower=1, diag=1, trans=2, overwrite_x=1)
    x = np.empty_like(y)
    x[p] = y
    return x


def rcond_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (gecon) of 1/cond_1(A), from the LU factors lu_solve uses.

    A numerically singular A raises LinAlgError, as in lu_solve.
    """
    return _lu_factor(_square(a))[1]


def lu_solve(a: np.ndarray, b: np.ndarray) -> SolveReport:
    """Direct solve via partial-pivoting LU factorization, for one right-hand side b.

    A b that is not a finite vector of A's size raises ValueError.
    """
    a = _square(a)
    b = _rhs(b, a.shape[0])  # before the factorization, which a malformed b would waste
    t0 = time.perf_counter()
    x = _lu_apply(_lu_factor(a)[0], b)
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


def _grown(a: np.ndarray, shape) -> np.ndarray:
    """a copied into the top-left corner of a zero array of the given shape."""
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


# the Krylov basis starts with room for this many steps and doubles when full
_FIRST_BASIS_SIZE = 16


def _arnoldi_step(op, v: np.ndarray, h: np.ndarray, j: int, steps: int):
    """Step j of Arnoldi with modified Gram-Schmidt, in room for at most ``steps`` steps.

    The rows v_0..v_j of v are an orthonormal basis and h is the Hessenberg
    matrix of the steps before; at j = 0, v may be v_0 alone and h 1 x 0.
    Column j of h gets the coefficients of w = op(v_j) against every earlier
    vector, then |w|, and v_(j+1) = w / |w| unless |w| is 0.  The arrays get
    room for 16 steps at first and double, up to ``steps``, when full, so
    their memory follows the steps taken.  Returns (v, h, |w|); v and h are
    new arrays after a growth.
    """
    if j == h.shape[1]:
        size = min(max(2 * j, _FIRST_BASIS_SIZE), steps)
        v, h = _grown(v, (size + 1, v.shape[1])), _grown(h, (size + 1, size))
    w = op(v[j])
    for i in range(j + 1):
        h[i, j] = np.vdot(v[i], w)
        w -= h[i, j] * v[i]
    wnorm = np.linalg.norm(w)
    h[j + 1, j] = wnorm
    if wnorm > 0.0:
        v[j + 1] = w / wnorm
    return v, h, wnorm


def _scale(a: np.ndarray) -> float:
    """c = 2^-e with the largest |Re a_ij| and |Im a_ij| in [2^(e-1), 2^e); 1 if that is 0.

    Krylov norms of A square its entries, which overflows past about 1e154.
    On c A every product, sum and norm is c times A's, bit for bit, so the
    results scaled back are A's.  Max and min reductions make no n x n
    temporary; an inf or NaN entry makes the largest part not finite, and
    raises ValueError.
    """
    if np.iscomplexobj(a):
        # the real and imaginary parts as one float view where the layout allows: a third of the time
        parts = (a.view(a.real.dtype),) if a.flags.c_contiguous else (a.real, a.imag)
    else:
        parts = (a,)
    largest = np.max([max(part.max(), -part.min()) for part in parts])
    if not np.isfinite(largest):
        raise ValueError("matrix entries must be finite")
    return math.ldexp(1.0, -max(math.frexp(largest)[1], -1022))  # frexp gives 0 for 0


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
    A real A is converted to complex once, a complex128 A is used as it is,
    and the iteration runs on c A (see ``_scale``), with x scaled back.
    A b that is not a finite vector of A's size, or an A with an entry that
    is not finite, raises ValueError.
    """
    a = _square(a)
    n = a.shape[0]
    b = np.asarray(_rhs(b, n), dtype=complex)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if maxit is None:
        maxit = n
    if not (is_integer(maxit) and 1 <= maxit <= 2 * n):
        raise ValueError(f"maxit must be an integer in [1, {2 * n}] (twice the system size), got {maxit!r}")

    t0 = time.perf_counter()
    a = a.astype(complex, copy=False)
    c = _scale(a)  # GMRES on c A: h scales by c and g does not, so y by 1/c
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

    v = (b / bnorm)[None, :]
    h = np.zeros((1, 0), dtype=complex)
    cs = np.zeros(maxit, dtype=complex)
    sn = np.zeros(maxit, dtype=complex)
    g = np.zeros(maxit + 1, dtype=complex)

    g[0] = bnorm
    history = [1.0]
    converged = False
    m = 0
    for j in range(maxit):
        v, h, wnorm = _arnoldi_step(lambda x: c * (a @ x), v, h, j, maxit)

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

    y = sla.solve_triangular(h[:m, :m], g[:m]) if m > 0 else np.zeros(0, dtype=complex)
    x = c * (v[:m].T @ y)
    return SolveReport(
        x=x,
        method="gmres",
        iterations=m,
        residuals=history,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


# Lanczos: at most this many steps, stopped early when the estimate changes by at most this
# much, relative, from one step to the next
_LANCZOS_STEPS = 200
_LANCZOS_RTOL = 1e-10


def _largest_singular_value(matvec, rmatvec, n: int, seed: int) -> float:
    """Largest singular value of an n x n operator M by Lanczos on M^H M through GMRES's Arnoldi step.

    matvec(x) returns M x and rmatvec(y) returns M^H y.  Arnoldi on the
    Hermitian x -> M^H M x is Lanczos with full reorthogonalization: its
    Hessenberg matrix is tridiagonal up to rounding, and the largest
    eigenvalue of its real tridiagonal part grows to sigma_max(M)^2.  It
    spans the spaces of Golub-Kahan-Lanczos bidiagonalization of M (Golub &
    Kahan, SIAM J. Numer. Anal. B 2, 1965).  The iteration stops when sigma
    changes by at most 1e-10 relative from one step to the next, when the
    Krylov space is invariant (sigma is then exact), or after 200 steps.
    v_1 is a complex Gaussian vector drawn from ``seed``.
    """
    steps = min(_LANCZOS_STEPS, n)
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[None, :]
    v /= np.linalg.norm(v)
    h = np.zeros((1, 0), dtype=complex)
    sigma = 0.0
    for j in range(steps):
        v, h, wnorm = _arnoldi_step(lambda x: rmatvec(matvec(x)), v, h, j, steps)
        diagonal, subdiagonal = h.diagonal()[: j + 1].real, h.diagonal(-1)[:j].real
        lam = sla.eigvalsh_tridiagonal(diagonal, subdiagonal, select="i", select_range=(j, j))
        previous, sigma = sigma, float(np.sqrt(lam[0]))
        if wnorm == 0.0 or abs(sigma - previous) <= _LANCZOS_RTOL * sigma:
            break
    return sigma


def norm2_estimate(a: np.ndarray, shift: float = 0.0, seed: int = 0) -> float:
    """Largest singular value of M = A - shift*I, by Lanczos on M^H M through GMRES's Arnoldi step.

    The shift is applied inside the products, (A - s I) v = A v - s v and
    (A - s I)^H u = A^H u - conj(s) u, so no shifted copy of A is formed.
    A real A is converted to complex once, and Lanczos runs on c M (see
    ``_scale``).  Stops at 1e-10 relative change between steps, or after 200 steps.
    """
    a = _square(a).astype(complex, copy=False)
    c = _scale(a)
    cs = c * shift
    return _largest_singular_value(
        lambda x: c * (a @ x) - cs * x,
        lambda y: c * (a.T @ y.conj()).conj() - np.conj(cs) * y,  # A^H u without copying conj(A)
        a.shape[0],
        seed,
    ) / c


def sigma_min_estimate(a: np.ndarray, seed: int = 0) -> float:
    """Smallest singular value 1 / ||M||_2, M = A^-1, by Lanczos on M^H M through GMRES's Arnoldi step.

    The products with A^-1 and A^-H are LU solves with one factorization,
    the one lu_solve used if A is the same read-only matrix.  Lanczos runs
    on M / c = (c A)^-1 (see ``_scale``).  Stops at 1e-10 relative change
    between steps, or after 200 steps.
    """
    a = _square(a)
    factors = _lu_factor(a)[0]
    c = _scale(a)
    return 1.0 / (c * _largest_singular_value(
        lambda x: _lu_apply(factors, x) / c,
        lambda y: _lu_apply(factors, y, adjoint=True) / c,
        a.shape[0],
        seed,
    ))
