"""Special-function wrappers against high-precision mpmath references.

Frozen reference values were computed with mpmath at 50 significant
digits; the Wronskian identities pin every sign and normalization used
by the kernels and circle symbols downstream.
"""

import itertools
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from tscat2d import _pool, specfun
from tscat2d._memo import freeze
from conftest import CephesRecorder

# mpmath, dps=50
J0_1 = 0.76519768655796655145
Y0_1 = 0.088256964215676957983
J1_1 = 0.44005058574493351596
Y1_1 = -0.78121282130028871655
H0_I = -0.26803248203398854876j  # = (2/(i pi)) K0(1), K0(1) = 0.42102443824070833334
J0_3P2J = -1.2492348796074221964 - 0.94798379205773477611j
Y0_1EM6 = -8.8690314816594437029
J0_200 = -0.015437439930565091592


def test_bessel_j_reference_values():
    assert abs(specfun.bessel_j(0, 1.0) - J0_1) <= 1e-11 * abs(J0_1)
    assert abs(specfun.bessel_j(0, 3 + 2j) - J0_3P2J) <= 1e-11 * abs(J0_3P2J)
    assert abs(specfun.bessel_j(0, 200.0) - J0_200) <= 1e-11 * abs(J0_200)


def test_bessel_j_trivial():
    assert specfun.bessel_j(0, 0.0) == pytest.approx(1.0)
    assert specfun.bessel_j(1, 0.0) == pytest.approx(0.0)


def test_bessel_y_reference_value():
    assert abs(specfun.bessel_y(0, 1.0) - Y0_1) <= 1e-11 * abs(Y0_1)


def test_bessel_y_log_asymptote():
    # Y0(x) ~ (2/pi)(log(x/2) + gamma) as x -> 0
    x = 1e-6
    asym = 2 / np.pi * (np.log(x / 2) + specfun.EULER_GAMMA)
    assert abs(specfun.bessel_y(0, x) - Y0_1EM6) <= 1e-11 * abs(Y0_1EM6)
    assert abs(specfun.bessel_y(0, x) - asym) <= 1e-8 * abs(asym)


def test_real_wronskian():
    # J0(x) Y0'(x) - J0'(x) Y0(x) = 2/(pi x), derivatives via F0' = -F1
    x = 3.0
    left = specfun.bessel_j(0, x) * (-specfun.bessel_y(1, x)) - (
        -specfun.bessel_j(1, x)
    ) * specfun.bessel_y(0, x)
    assert abs(left - 2 / (np.pi * x)) < 1e-12


def test_hankel1_reference_values():
    h = specfun.hankel1(0, 1.0)
    assert abs(h - (J0_1 + 1j * Y0_1)) <= 1e-10 * abs(h)
    hi = specfun.hankel1(0, 1j)
    assert abs(hi - H0_I) <= 1e-10 * abs(H0_I)


def test_hankel1_magnitude_decays_off_axis():
    x = np.linspace(1.0, 50.0, 200)
    mags = np.abs(specfun.hankel1(0, x + 5j))
    assert np.all(np.diff(mags) < 0)


def test_hankel1_seq_first_orders():
    h = specfun.hankel1_seq(1, 1.0)
    assert abs(h[0] - (J0_1 + 1j * Y0_1)) < 1e-11
    assert abs(h[1] - (J1_1 + 1j * Y1_1)) < 1e-11


def test_hankel1_seq_recurrence():
    z = 3 + 2j
    h = specfun.hankel1_seq(2, z)
    assert abs(h[2] - (2 / z * h[1] - h[0])) < 1e-11


@pytest.mark.parametrize("z", [10.0, 50.0, 3 + 2j, 20 + 5j])
def test_sequence_wronskian(z):
    # J_n(z) H_n'(z) - J_n'(z) H_n(z) = 2i/(pi z) for n = 0..40
    n_max = 41
    j = specfun.bessel_j_seq(n_max, z)
    h = specfun.hankel1_seq(n_max, z)
    jp = specfun.derivative_seq(j, z)
    hp = specfun.derivative_seq(h, z)
    w = j[:41] * hp[:41] - jp[:41] * h[:41]
    target = 2j / (np.pi * z)
    assert np.max(np.abs(w - target)) <= 1e-10 * abs(target)


def test_hankel1_direct_vs_seq():
    for z in (0.7, 2 + 1j, 40.0):
        seq = specfun.hankel1_seq(1, z)
        assert abs(specfun.hankel1(0, z) - seq[0]) < 1e-12
        assert abs(specfun.hankel1(1, z) - seq[1]) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        specfun.bessel_y(0, -2.0)
    with pytest.raises(ValueError):
        specfun.hankel1(0, 0.0)
    with pytest.raises(ValueError):
        specfun.hankel1(0, 1 - 1j)
    with pytest.raises(ValueError):
        specfun.hankel1(2, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0, 2e4)
    # the same limits on the real-argument path, at both orders
    for n in (0, 1):
        for bad in (np.array([1.0, 0.0]), 1.5e4, np.array([1.0, -2e4])):
            with pytest.raises(ValueError):
                specfun.hankel1(n, bad)
        with pytest.raises(ValueError):
            specfun.bessel_j(n, -2e4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: specfun.bessel_j(1.5, 2 + 1j),
        lambda: specfun.bessel_j(1.0, 2.0),
        lambda: specfun.bessel_j(True, 2.0),
        lambda: specfun.hankel1(1.0, 2.0),
        lambda: specfun.hankel1(1.0, 2 + 1j),
        lambda: specfun.hankel1(False, 2.0),
        lambda: specfun.bessel_y(0.5, 2.0),
        lambda: specfun.hankel1_seq(2.0, 1.0),
        lambda: specfun.bessel_j_seq(True, 1.0),
    ],
    ids=["j-1.5-complex", "j-1.0", "j-True", "h-1.0", "h-1.0-complex", "h-False", "y-0.5", "hseq-2.0",
         "jseq-True"],
)
def test_orders_that_are_not_integers_are_refused(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_orders_are_accepted():
    assert specfun.bessel_j(np.int64(1), 2.0) == specfun.bessel_j(1, 2.0)
    assert specfun.hankel1(np.uint8(0), 2 + 1j) == specfun.hankel1(0, 2 + 1j)
    assert len(specfun.hankel1_seq(np.int32(3), 2.0)) == 4


def test_overflow_reported():
    # Y_150 at a tiny argument exceeds double range; must raise, not return inf
    with pytest.raises(specfun.SpecialFunctionError):
        specfun.bessel_y(150, 1e-8)


def test_array_arguments():
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = specfun.hankel1(0, z)
    assert out.shape == z.shape
    assert np.all(np.isfinite(out.real))


# ---------------------------------------------------------------------------
# real arguments: Cephes j0/j1/y0/y1 against complex AMOS
# ---------------------------------------------------------------------------
X_SPAN = np.geomspace(1e-6, 1e4, 4001)


@pytest.mark.parametrize("n", [0, 1])
def test_real_argument_hankel1_matches_amos(n):
    ref = special.hankel1(n, X_SPAN.astype(complex))
    h = specfun.hankel1(n, X_SPAN)
    assert np.max(np.abs(h - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("n", [0, 1])
def test_real_argument_bessel_j_matches_amos(n):
    x = np.concatenate([-X_SPAN, X_SPAN])
    ref = special.jv(n, x.astype(complex))
    # per entry for |x| < 2, short of the first positive zero; against the envelope |H_n| beyond
    scale = np.where(np.abs(x) < 2, np.abs(ref), np.abs(special.hankel1(n, np.abs(x) + 0j)))
    assert np.max(np.abs(specfun.bessel_j(n, x) - ref) / scale) <= 1e-14


@pytest.mark.parametrize("x", [-1.0, -50.0, np.array([-3.0, 2.0])])
def test_negative_real_hankel1_takes_the_complex_path(x):
    for n in (0, 1):
        ref = specfun.hankel1(n, np.asarray(x, dtype=complex))
        assert np.array_equal(specfun.hankel1(n, x), ref)


@pytest.mark.parametrize("shape", [(3,), (200, 200)], ids=["small", "banded"])
def test_integer_arrays_give_the_bits_of_float_arrays(shape):
    # the result is float or complex whatever the argument's dtype, below and above
    # _pool.MIN_ENTRIES entries
    below = np.arange(1, np.prod(shape) + 1).reshape(shape) % 250 + 1  # 1 .. 250: Cephes
    past = below + 150  # up to 400: AMOS
    calls = [(specfun.bessel_j, 2, below), (specfun.bessel_j, 0, past), (specfun.bessel_j, 1, below)]
    calls += [(specfun.hankel1, n, x) for n in (0, 1) for x in (below, past)]
    for f, n, x in calls:
        assert x.dtype.kind == "i"
        assert same_bits(f(n, x), f(n, x.astype(float)))


def test_real_arguments_up_to_256_skip_amos(monkeypatch):
    def amos(*args):
        raise AssertionError("complex AMOS routine called on real arguments")

    monkeypatch.setattr(special, "hankel1", amos)
    monkeypatch.setattr(special, "jv", amos)
    x = np.linspace(1e-3, 256.0, 101)
    for n in (0, 1):
        specfun.hankel1(n, x)
        specfun.bessel_j(n, -x)


# ---------------------------------------------------------------------------
# kernel arguments: built from node positions, evaluated on one triangle
# ---------------------------------------------------------------------------
def on_a_line(u):
    # nodes (u_i, 0): their distances are |u_i - u_j| exactly, as sqrt(d^2) = |d| in binary floating point
    return np.column_stack((u, np.zeros_like(u)))


def kernel_nodes(n=96):
    # u_i from 1e-3 to 60: r = |u_i - u_j| spans the kernels' range
    return np.geomspace(1e-3, 60.0, n)


def kernel_distances(n=96):
    # the distances of the kernel argument on on_a_line(kernel_nodes(n)), 1 on the diagonal
    u = kernel_nodes(n)
    r = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(r, 1.0)
    return r


def symmetric_kernel_argument(n=96, k=1.0 + 0.5j):
    return specfun.KernelArgument(k, on_a_line(kernel_nodes(n)))


def values(z):
    # the entries k r of a kernel argument; an array as it is
    return z.k * z.r if isinstance(z, specfun.KernelArgument) else z


def test_kernel_argument_holds_k_and_its_frozen_distances():
    pts = on_a_line(kernel_nodes(40))
    arg = specfun.KernelArgument(2 + 0j, pts)
    assert same_bits(arg.r, kernel_distances(40)) and not arg.r.flags.writeable
    assert arg.r_max == arg.r.max()
    assert arg.k == 2.0 and isinstance(arg.k, float) and arg.dtype == float
    assert arg.shape == arg.r.shape == (40, 40) and arg.size == 1600
    assert specfun.KernelArgument(2 + 1j, pts).dtype == complex


def test_kernel_argument_distances_are_symmetric_bit_for_bit(pool_workers):
    # nodes off a line: the triangle is filled, the rest mirrored, as if every entry were its own
    t = np.linspace(0.0, 2.0 * np.pi, BAND_N, endpoint=False)
    pts = np.column_stack((np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)))
    r = specfun.KernelArgument(1.0 + 0.5j, pts).r
    dx, dy = pts[:, 0, None] - pts[None, :, 0], pts[:, 1, None] - pts[None, :, 1]
    ref = np.sqrt(dx**2 + dy**2)
    np.fill_diagonal(ref, 1.0)
    assert same_bits(r, ref) and same_bits(r, r.T)


LINE = on_a_line(kernel_nodes(40))


@pytest.mark.parametrize(
    "k,points,match",
    [
        (1.0, np.where(np.arange(40)[:, None] == 7, np.nan, LINE), "finite"),
        (1.0, np.where(np.arange(40)[:, None] == 7, np.inf, LINE), "finite"),
        (1.0, np.ones((40, 3)), r"shape \(m, 2\)"),
        (1.0, LINE.astype(np.float32), "float"),
        (1.0, np.empty((0, 2)), "non-empty"),
        (1 - 1e-9j, LINE, r"Im k >= 0"),
        (complex(np.nan, 1.0), LINE, "finite"),
    ],
    ids=["nan", "inf", "non-square", "float32", "empty", "im-k-negative", "k-nan"],
)
def test_kernel_argument_rejects_what_is_not_a_kernel_argument(k, points, match):
    with pytest.raises(ValueError, match=match):
        specfun.KernelArgument(k, points)


class AmosRecorder:
    """Stands in for scipy.special and records the size of each AMOS argument."""

    def __init__(self):
        self.sizes = []

    def hankel1(self, n, z):
        self.sizes.append(np.size(z))
        return special.hankel1(n, z)

    def jv(self, n, z):
        self.sizes.append(np.size(z))
        return special.jv(n, z)


@pytest.mark.parametrize("n", [0, 1])
def test_symmetric_argument_bit_identical_to_entrywise_amos(n):
    z = symmetric_kernel_argument()
    kr = values(z)
    assert np.array_equal(kr, kr.T)
    entrywise_h = special.hankel1(n, kr.ravel()).reshape(z.shape)
    entrywise_j = special.jv(n, kr.ravel()).reshape(z.shape)
    assert np.array_equal(specfun.hankel1(n, z), entrywise_h)
    assert np.array_equal(specfun.bessel_j(n, z), entrywise_j)


def test_symmetric_argument_evaluates_one_triangle(monkeypatch):
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(n=40)
    specfun.hankel1(0, z)
    specfun.bessel_j(1, z)
    assert rec.sizes == [40 * 41 // 2] * 2


@pytest.mark.parametrize(
    "z",
    [
        (1.0 + 0.5j) * kernel_distances(40)[:, :39],  # not square
        (1.0 + 0.5j) * kernel_distances(40) + np.triu(np.full((40, 40), 1e-3j)),  # not symmetric
        np.asarray(2.0 + 1.0j),  # scalar
        (1.0 + 0.5j) * kernel_distances(40),  # symmetric, but an array
    ],
    ids=["non-square", "non-symmetric", "scalar", "symmetric-array"],
)
def test_other_arguments_take_the_plain_call(monkeypatch, z):
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    h = specfun.hankel1(1, z)
    j = specfun.bessel_j(0, z)
    assert rec.sizes == [z.size] * 2
    assert np.array_equal(h, special.hankel1(1, z))
    assert np.array_equal(j, special.jv(0, z))


# ---------------------------------------------------------------------------
# kernel arguments in row blocks on the shared pool, arrays in one call, above the size threshold
# ---------------------------------------------------------------------------
BAND_N = 200  # 40,000 entries, above _pool.MIN_ENTRIES
assert BAND_N * BAND_N >= _pool.MIN_ENTRIES


@pytest.fixture(params=[None, 2, 3], ids=["default-pool", "two-workers", "three-workers"])
def pool_workers(request, monkeypatch):
    # two workers are the caller and one pool thread; three exercise the blocks on any machine
    if request.param is not None:
        monkeypatch.setattr(_pool, "workers", lambda: request.param)
    return request.param


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def entrywise(f, *args):
    # one flat call: every entry of the reference is evaluated independently
    z = values(args[-1])
    return f(*args[:-1], z.ravel()).reshape(z.shape)


def off_table_kernel_argument(n=BAND_N):
    # |k r| up to 2,400: a ray table would need more points than 1/_RAY_MIN_SHARE of the entries, so AMOS
    # evaluates every entry of one triangle
    return symmetric_kernel_argument(n, k=40.0 + 1.0j)


@pytest.mark.parametrize("n", [0, 1])
def test_banded_symmetric_argument_bit_identical_to_entrywise_amos(pool_workers, n):
    z = off_table_kernel_argument(BAND_N)
    assert same_bits(specfun.hankel1(n, z), entrywise(special.hankel1, n, z))
    assert same_bits(specfun.bessel_j(n, z), entrywise(special.jv, n, z))


@pytest.mark.parametrize("n", [0, 1])
def test_banded_nonsymmetric_argument_bit_identical_to_entrywise_amos(pool_workers, n):
    z = values(symmetric_kernel_argument(BAND_N)) + np.triu(np.full((BAND_N, BAND_N), 1e-3j))
    assert same_bits(specfun.hankel1(n, z), entrywise(special.hankel1, n, z))
    assert same_bits(specfun.bessel_j(n, z), entrywise(special.jv, n, z))
    flat = z[:, :150].ravel()  # one-dimensional: one call too
    assert same_bits(specfun.hankel1(n, flat), special.hankel1(n, flat))


@pytest.mark.parametrize("n", [0, 1])
def test_banded_real_argument_bit_identical_to_entrywise_cephes(pool_workers, n):
    r = kernel_distances(BAND_N)
    x = 3.0 * r
    ref = np.empty(x.shape, dtype=complex)
    ref.real = entrywise(specfun._CEPHES_J[n], x)
    ref.imag = entrywise(specfun._CEPHES_Y[n], x)
    j_ref = entrywise(specfun._CEPHES_J[n], -x)
    for h, j in ((x, -x), (symmetric_kernel_argument(BAND_N, 3.0), symmetric_kernel_argument(BAND_N, -3.0))):
        assert same_bits(specfun.hankel1(n, h), ref)
        assert same_bits(specfun.bessel_j(n, j), j_ref)


@pytest.mark.parametrize("n", [0, 1])
def test_raw_symmetric_array_evaluated_entry_by_entry(monkeypatch, pool_workers, n):
    # no symmetry or ray is looked for in an array: AMOS sees every entry once, in one call
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = values(symmetric_kernel_argument(BAND_N))
    assert same_bits(specfun.hankel1(n, z), entrywise(special.hankel1, n, z))
    assert same_bits(specfun.bessel_j(n, z), entrywise(special.jv, n, z))
    assert rec.sizes == [z.size] * 2


@pytest.mark.parametrize("shape", [(BAND_N, BAND_N), (BAND_N * BAND_N,)], ids=["matrix", "vector"])
def test_a_plain_array_takes_one_call_off_the_pool(monkeypatch, shape):
    # above _pool.MIN_ENTRIES and with three workers, AMOS and each Cephes routine see the whole
    # array at once, and the pool is not asked to deal anything
    monkeypatch.setattr(_pool, "workers", lambda: 3)
    monkeypatch.setattr(_pool, "map_blocks", lambda *args: pytest.fail("a plain array reached the pool"))
    amos, cephes = AmosRecorder(), [CephesRecorder(f) for f in (*specfun._CEPHES_J, *specfun._CEPHES_Y)]
    monkeypatch.setattr(specfun, "_sp", amos)
    monkeypatch.setattr(specfun, "_CEPHES_J", tuple(cephes[:2]))
    monkeypatch.setattr(specfun, "_CEPHES_Y", tuple(cephes[2:]))
    x = np.linspace(0.5, 200.0, np.prod(shape)).reshape(shape)
    assert x.size >= _pool.MIN_ENTRIES
    for n in (0, 1):
        specfun.hankel1(n, x)
        specfun.hankel1(n, (1 + 0.5j) * x)
        specfun.bessel_j(n, x)
    assert amos.sizes == [x.size] * 2
    assert [r.sizes for r in cephes] == [[x.size] * 2, [x.size] * 2, [x.size], [x.size]]


def test_banded_symmetric_argument_evaluates_one_triangle(monkeypatch, pool_workers):
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = off_table_kernel_argument(BAND_N)
    specfun.hankel1(0, z)
    specfun.bessel_j(1, z)
    assert sum(rec.sizes) == 2 * BAND_N * (BAND_N + 1) // 2
    if _pool.workers() > 1:
        assert len(rec.sizes) > 2  # in blocks


def test_banded_nonsymmetric_argument_evaluates_every_entry_once(monkeypatch, pool_workers):
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = values(symmetric_kernel_argument(BAND_N)) + np.triu(np.full((BAND_N, BAND_N), 1e-3j))
    specfun.hankel1(1, z)
    assert rec.sizes == [z.size]


@pytest.mark.parametrize(
    "i,j", [(0, BAND_N - 1), (BAND_N - 1, 0), (BAND_N - 2, BAND_N - 1), (BAND_N // 2, BAND_N // 2 + 1)]
)
def test_one_asymmetric_pair_takes_the_plain_call(monkeypatch, pool_workers, i, j):
    # no symmetry is looked for in an array: one with a single unequal pair, anywhere, is evaluated
    # entry by entry in one call, as every array is
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    r = kernel_distances(BAND_N)
    r[i, j] += 1e-12
    z = (1.0 + 0.5j) * r
    assert same_bits(specfun.hankel1(0, z), entrywise(special.hankel1, 0, z))
    assert rec.sizes == [z.size]


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
def test_errors_in_a_band_reach_the_caller(pool_workers, symmetric):
    def planted(k, distance):
        # a kernel argument with its next-to-last node moved to distance from the first, which
        # reaches that distance in the next-to-last row and column, so in every block; or one bad
        # distance (and its mirror image) near the end of an array that is not symmetric
        if symmetric:
            u = kernel_nodes(BAND_N)
            u[-2] = u[0] + distance
            return specfun.KernelArgument(k, on_a_line(u))
        r = kernel_distances(BAND_N)
        r[-3, -2] = r[-2, -3] = distance
        return k * r + np.triu(np.full(r.shape, 1e-3j))

    with pytest.raises(specfun.SpecialFunctionError, match=r"bessel_j\(n=0\) overflowed at \|z\| ~ 800"):
        specfun.bessel_j(0, planted(1j, 800.0))  # I_0(800) is past double range
    # a kernel argument refuses a node that is not finite; an array's k r at a negative distance has Im z < 0
    bad, refused = (np.nan, "finite") if symmetric else (-1.0, r"H_n\^\(1\) supported only for Im z >= 0")
    with pytest.raises(ValueError, match=refused):
        specfun.hankel1(1, planted(5 + 1j, bad))
    with pytest.raises(ValueError, match=r"argument outside supported range \|z\| <= 1e4"):
        specfun.hankel1(0, planted(1 + 1e-4j, 2e4))
    with pytest.raises(ValueError, match=r"argument outside supported range \|z\| <= 1e4"):
        specfun.bessel_j(1, planted(1.0, 2e4))


# ---------------------------------------------------------------------------
# checks once per kernel argument, and J_n handed from hankel1 to bessel_j
# ---------------------------------------------------------------------------
EPS = np.finfo(float).eps


def envelope(n, z):
    # max(|J_n|, |H_n|), the scale of the rounding in either at complex z
    return np.maximum(np.abs(special.jv(n, z)), np.abs(special.hankel1(n, z)))


@pytest.fixture
def scans(monkeypatch):
    """The number of passes over an argument array, counted while the test runs."""
    count = []
    extremes = specfun._extremes
    monkeypatch.setattr(specfun, "_extremes", lambda z: count.append(1) or extremes(z))
    return count


def four_calls(z):
    # the calls of an operator set on its argument, order 1 first
    return [f(n, z) for n in (1, 0) for f in (specfun.hankel1, specfun.bessel_j)]


@pytest.mark.parametrize("k", [3.0, 1.0 + 0.5j], ids=["real", "complex"])
def test_read_only_argument_is_scanned_once(scans, pool_workers, k):
    # a kernel argument is checked once, when it is built, and its distances frozen
    z = k * kernel_distances(BAND_N)
    fresh = four_calls(z)
    assert len(scans) == 4  # an array is scanned on every call
    scans.clear()
    arg = symmetric_kernel_argument(BAND_N, k)
    assert not arg.r.flags.writeable
    kept = four_calls(arg)
    assert len(scans) == 0
    if k.imag == 0:
        assert all(same_bits(a, b) for a, b in zip(kept, fresh))
    else:  # the kernel argument takes the ray table, the array AMOS on every entry
        for n, got, ref in zip((1, 1, 0, 0), kept, fresh):
            assert np.all(np.abs(got - ref) <= 8 * EPS * (1 + np.abs(z)) * envelope(n, z))


def test_real_read_only_argument_evaluates_j_once(monkeypatch, pool_workers):
    rec = [CephesRecorder(f) for f in specfun._CEPHES_J]
    monkeypatch.setattr(specfun, "_CEPHES_J", tuple(rec))
    z = 3.0 * kernel_distances(BAND_N)
    fresh = four_calls(z)
    assert [sum(r.sizes) for r in rec] == [2 * z.size] * 2
    for r in rec:
        r.sizes.clear()
    kept = four_calls(symmetric_kernel_argument(BAND_N, k=3.0))
    assert [sum(r.sizes) for r in rec] == [BAND_N * (BAND_N + 1) // 2] * 2  # one triangle each
    assert all(same_bits(a, b) for a, b in zip(kept, fresh))


def test_bessel_j_on_a_read_only_real_argument_gives_the_same_bits():
    z = symmetric_kernel_argument(BAND_N, k=3.0)
    ref = [entrywise(specfun._CEPHES_J[n], z) for n in (0, 1)]
    for n in (0, 1):  # no hankel1 before
        assert same_bits(specfun.bessel_j(n, z), ref[n])
    specfun.hankel1(1, z)
    assert same_bits(specfun.bessel_j(0, z), ref[0])  # another order: no hand-off
    handed = specfun.bessel_j(1, z)
    assert same_bits(handed, ref[1])
    handed[...] = 0.0  # the caller owns the array: a later call is not affected
    again = specfun.bessel_j(1, z)
    assert not np.shares_memory(again, handed) and same_bits(again, ref[1])


def test_writeable_or_mutated_argument_gets_fresh_checks_and_values():
    z = 3.0 * kernel_distances(BAND_N)
    specfun.hankel1(0, z)
    z[5, 7] = z[7, 5] = 2e4
    with pytest.raises(ValueError, match=r"\|z\| <= 1e4"):
        specfun.bessel_j(0, z)
    w = (1.0 + 0.5j) * kernel_distances(BAND_N)
    specfun.hankel1(0, w)
    w[3, 4] = w[4, 3] = 5 - 1j
    with pytest.raises(ValueError, match=r"Im z >= 0"):
        specfun.hankel1(1, w)
    # read-only when evaluated, then made writeable and changed: nothing of the first call is reused
    y = freeze(3.0 * kernel_distances(BAND_N))
    specfun.hankel1(0, y)
    y.flags.writeable = True
    y *= 0.5
    assert same_bits(specfun.bessel_j(0, y), entrywise(specfun._CEPHES_J[0], y))
    y[5, 7] = y[7, 5] = 1e-15
    with pytest.raises(ValueError, match="singular point"):
        specfun.hankel1(0, y)


def test_refrozen_argument_gets_fresh_checks():
    # frozen, evaluated, made writeable, changed and frozen again: the same array object, which
    # an identity memo would have taken for the old one
    z = freeze(3.0 * kernel_distances(BAND_N))
    specfun.hankel1(0, z)
    z.flags.writeable = True
    z[5, 7] = z[7, 5] = 2e4
    freeze(z)
    with pytest.raises(ValueError, match=r"\|z\| <= 1e4"):
        specfun.bessel_j(0, z)


def test_a_handed_on_j_reaches_one_caller():
    # four threads ask for the J_0 that one hankel1 left: one gets it, the others evaluate their own
    z = symmetric_kernel_argument(60, k=3.0)
    ref = entrywise(specfun._CEPHES_J[0], z)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            specfun.hankel1(0, z)
            barrier, got = threading.Barrier(4), [None] * 4

            def call(i):
                barrier.wait(timeout=10)
                got[i] = specfun.bessel_j(0, z)

            threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(got, 2))
            assert all(same_bits(g, ref) for g in got)
    finally:
        sys.setswitchinterval(interval)


def test_argument_scan_temporaries_stay_in_blocks(monkeypatch):
    # one worker fills a kernel argument's distances in blocks of rows on the caller's thread:
    # beyond r itself, a block's temporaries. The last block computes its whole diagonal square,
    # twice its share of the triangle, and numpy adds a fixed iteration buffer of 128 KiB, so the
    # nodes are enough (17 blocks) that these stay well apart from one temporary the size of r
    monkeypatch.setattr(_pool, "workers", lambda: 1)
    m = 1024
    pts = on_a_line(kernel_nodes(m))
    z = (8 + 4j) * kernel_distances(m)
    tracemalloc.start()
    try:
        arg = specfun.KernelArgument(8 + 4j, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the extremes of the kernel argument, from those of r, are the entries' own to the bit
    ext = arg.extremes
    assert ext.abs_min == np.abs(z).min() and ext.abs_max == np.abs(z).max()
    assert ext.re_min == z.real.min() and ext.im_min == z.imag.min()
    assert peak - arg.r.nbytes <= 0.15 * arg.r.nbytes


# ---------------------------------------------------------------------------
# complex arguments on one ray: the Chebyshev table in the ray parameter
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1])
def test_ray_argument_bit_identical_for_any_worker_count(monkeypatch, n):
    z = symmetric_kernel_argument(BAND_N)  # on the ray through 1 + 0.5i
    results = []
    for workers in (None, 3, 1):
        with monkeypatch.context() as m:
            if workers is not None:
                m.setattr(_pool, "workers", lambda: workers)
            results.append((specfun.hankel1(n, z), specfun.bessel_j(n, z)))
    for h, j in results[1:]:
        assert same_bits(h, results[0][0]) and same_bits(j, results[0][1])
    h, j = results[0]
    assert np.array_equal(h, h.T) and np.array_equal(j, j.T)
    kr = values(z)
    bound = 8 * EPS * (1 + np.abs(kr)) * envelope(n, kr)
    assert np.all(np.abs(h - entrywise(special.hankel1, n, z)) <= bound)
    assert np.all(np.abs(j - entrywise(special.jv, n, z)) <= bound)


def test_ray_argument_amos_sees_table_nodes_and_near_entries(monkeypatch, pool_workers):
    # H_n's table starts at |k r| = _RAY_NEAR and AMOS evaluates the entries below it; J_n, entire,
    # is tabulated from r = 0, so AMOS sees its table's points and nothing else
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(BAND_N)
    z_max = np.abs(values(z)).max()
    h_nodes = specfun._RAY_DEGREE * (int((z_max - specfun._RAY_NEAR) / specfun._RAY_PANEL) + 1) + 1
    j_nodes = specfun._RAY_DEGREE * (int(z_max / specfun._RAY_PANEL) + 1) + 1
    near = np.count_nonzero(np.triu(np.abs(values(z)) < specfun._RAY_NEAR))
    assert 0 < near and j_nodes * specfun._RAY_MIN_SHARE <= z.size
    specfun.hankel1(0, z)
    assert rec.sizes[0] == h_nodes  # the table, built first
    assert sum(rec.sizes) == h_nodes + near
    rec.sizes.clear()
    specfun.bessel_j(1, z)
    assert rec.sizes == [j_nodes]


DIAGONAL_BLOCK_ARGUMENTS = [symmetric_kernel_argument(m, k=0.5) for m in range(1, 301)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_cached_triangle_indices_are_read_only_and_give_the_entrywise_bits(monkeypatch, workers):
    for b in (1, 2, 7, 300):
        upper, lower = specfun._triangle(b)
        assert specfun._triangle(b)[0] is upper
        assert np.array_equal(upper, np.ravel_multi_index(np.triu_indices(b), (b, b)))
        assert np.array_equal(lower, np.ravel_multi_index(np.triu_indices(b)[::-1], (b, b)))
        for index in (upper, lower):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1
    # blocks large enough that one worker takes an argument's m rows as one block, whose diagonal
    # square goes through the cached indices of its triangle; more workers cut the larger ones
    monkeypatch.setattr(_pool, "workers", lambda: workers)
    monkeypatch.setattr(_pool, "BAND_ENTRIES", 1 << 20)
    for z in DIAGONAL_BLOCK_ARGUMENTS:
        assert same_bits(specfun.bessel_j(0, z), entrywise(specfun._CEPHES_J[0], z))


def test_large_arguments_on_a_small_array_stay_on_amos(monkeypatch):
    # a table for |z| up to 2000 would need more points than the array has entries over _RAY_MIN_SHARE
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(BAND_N, k=30.0 + 15.0j)
    assert same_bits(specfun.hankel1(1, z), entrywise(special.hankel1, 1, z))
    assert sum(rec.sizes) == BAND_N * (BAND_N + 1) // 2


def test_overflow_on_a_ray_is_reported():
    # J_0 passes double range at Im z = 713: the table is refused and AMOS reports the overflow
    u = np.linspace(0.0, 720.0 / abs(1 + 8j), 540)
    with pytest.raises(specfun.SpecialFunctionError, match=r"bessel_j\(n=0\) overflowed"):
        specfun.bessel_j(0, specfun.KernelArgument(1 + 8j, on_a_line(u)))


def test_higher_orders_stay_on_amos(monkeypatch):
    rec = AmosRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(BAND_N)
    assert same_bits(specfun.bessel_j(2, z), entrywise(special.jv, 2, z))
    assert sum(rec.sizes) == BAND_N * (BAND_N + 1) // 2


RAYS = [8 + 4j, 20 + 10j, 1 + 0.5j, 30 + 0.05j, 1 + 8j, -8 + 4j]


def mpmath_values(n, pts):
    # enough digits that H, e^-Im z, survives its cancellation against J, e^+Im z
    h, j = [], []
    for p in pts:
        with mpmath.workdps(30 + int(np.ceil(p.imag / np.log(10) * 2))):
            w = mpmath.mpc(p.real, p.imag)
            h.append(complex(mpmath.hankel1(n, w)))
            j.append(complex(mpmath.besselj(n, w)))
    return np.array(h), np.array(j)


@pytest.mark.parametrize("k", RAYS, ids=str)
def test_ray_table_matches_mpmath(k):
    # a kernel argument large enough for the table, |k r| from 0 to 70: J_n is tabulated from 0,
    # H_n from _RAY_NEAR, below which its entries are AMOS's
    z = specfun.KernelArgument(k, on_a_line(np.linspace(0.0, 70.0 / abs(k), 220)))
    row = values(z)[0, 1:]
    near = np.flatnonzero(np.abs(row) < specfun._RAY_NEAR)
    pick = np.flatnonzero(np.abs(row) >= specfun._RAY_NEAR)
    pick = np.union1d(pick[:4], np.append(pick[::9], pick[-1]))  # the first panel and a spread to |z| = 70
    pick = np.union1d(near, pick)
    pts = row[pick]
    assert len(near) >= 6 and abs(pts[-1]) > 69
    for n in (0, 1):
        h_ref, j_ref = mpmath_values(n, pts)
        bound = 4 * EPS * (1 + np.abs(pts)) * np.maximum(np.abs(h_ref), np.abs(j_ref))
        for got in (specfun.hankel1(n, z)[0, 1:][pick], special.hankel1(n, pts)):
            assert np.all(np.abs(got - h_ref) <= bound)
        for got in (specfun.bessel_j(n, z)[0, 1:][pick], special.jv(n, pts)):
            assert np.all(np.abs(got - j_ref) <= bound)


RANDOM_RAY_N = 130  # 16,900 entries, above _pool.MIN_ENTRIES; a table to |z| = 45 pays on them
assert RANDOM_RAY_N**2 >= _pool.MIN_ENTRIES


@settings(max_examples=20, deadline=None)
@given(
    # the table is a function of r on the ray from 0 through k, anywhere in the closed upper half plane
    re=st.floats(-30.0, 30.0),
    im=st.floats(0.01, 15.0),
    z_max=st.floats(10.0, 45.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_ray_argument_matches_entrywise_amos(re, im, z_max, seed):
    k = complex(re, im)
    m = RANDOM_RAY_N
    z = specfun.KernelArgument(k, on_a_line(np.random.default_rng(seed).uniform(0.0, z_max / abs(k), m)))
    rec = AmosRecorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "_sp", rec)
        got = {n: (specfun.hankel1(n, z), specfun.bessel_j(n, z)) for n in (0, 1)}
    assert sum(rec.sizes) < 4 * m * (m + 1) // 2  # the table took part
    for n, (h, j) in got.items():
        h_ref, j_ref = entrywise(special.hankel1, n, z), entrywise(special.jv, n, z)
        bound = 8 * EPS * (1 + np.abs(values(z))) * np.maximum(np.abs(h_ref), np.abs(j_ref))
        assert np.all(np.abs(h - h_ref) <= bound)
        assert np.all(np.abs(j - j_ref) <= bound)
