"""Special-function wrappers against high-precision mpmath references.

Frozen reference values were computed with mpmath at 50 significant
digits; the Wronskian identities pin every sign and normalization used
by the kernels and circle symbols downstream.
"""

import numpy as np
import pytest
from scipy import special

from tscat2d import _pool, specfun

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
# AMOS on one triangle of a symmetric argument matrix
# ---------------------------------------------------------------------------
def symmetric_kernel_argument(n=96, k=1.0 + 0.5j):
    # k r for r = |u_i - u_j| spanning 1e-3 .. 60, the kernels' range; 1 on the diagonal
    u = np.geomspace(1e-3, 60.0, n)
    r = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(r, 1.0)
    return k * r


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
    assert np.array_equal(z, z.T)
    entrywise_h = special.hankel1(n, z.ravel()).reshape(z.shape)
    entrywise_j = special.jv(n, z.ravel()).reshape(z.shape)
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
        symmetric_kernel_argument(n=40)[:, :39],  # not square
        symmetric_kernel_argument(n=40) + np.triu(np.full((40, 40), 1e-3j)),  # not symmetric
        np.asarray(2.0 + 1.0j),  # scalar
    ],
    ids=["non-square", "non-symmetric", "scalar"],
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
# row bands on the shared pool, above the size threshold
# ---------------------------------------------------------------------------
BAND_N = 200  # 40,000 entries, above _pool.MIN_ENTRIES
assert BAND_N * BAND_N >= _pool.MIN_ENTRIES


@pytest.fixture(params=[None, 3], ids=["default-pool", "three-workers"])
def pool_workers(request, monkeypatch):
    # three workers exercise the bands even on a machine with one CPU
    if request.param is not None:
        monkeypatch.setattr(_pool, "workers", lambda: request.param)
    return request.param


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def entrywise(f, *args):
    # one flat call: every entry of the reference is evaluated independently
    z = args[-1]
    return f(*args[:-1], z.ravel()).reshape(z.shape)


@pytest.mark.parametrize("n", [0, 1])
def test_banded_symmetric_argument_bit_identical_to_entrywise_amos(pool_workers, n):
    z = symmetric_kernel_argument(BAND_N)
    assert same_bits(specfun.hankel1(n, z), entrywise(special.hankel1, n, z))
    assert same_bits(specfun.bessel_j(n, z), entrywise(special.jv, n, z))


@pytest.mark.parametrize("n", [0, 1])
def test_banded_nonsymmetric_argument_bit_identical_to_entrywise_amos(pool_workers, n):
    z = symmetric_kernel_argument(BAND_N) + np.triu(np.full((BAND_N, BAND_N), 1e-3j))
    assert same_bits(specfun.hankel1(n, z), entrywise(special.hankel1, n, z))
    assert same_bits(specfun.bessel_j(n, z), entrywise(special.jv, n, z))
    flat = z[:, :150].ravel()  # one-dimensional: bands of entries
    assert same_bits(specfun.hankel1(n, flat), special.hankel1(n, flat))


@pytest.mark.parametrize("n", [0, 1])
def test_banded_real_argument_bit_identical_to_entrywise_cephes(pool_workers, n):
    x = symmetric_kernel_argument(BAND_N, k=3.0).real
    ref = np.empty(x.shape, dtype=complex)
    ref.real = entrywise(specfun._CEPHES_J[n], x)
    ref.imag = entrywise(specfun._CEPHES_Y[n], x)
    assert same_bits(specfun.hankel1(n, x), ref)
    assert same_bits(specfun.bessel_j(n, -x), entrywise(specfun._CEPHES_J[n], -x))


class BandRecorder(AmosRecorder):
    """An AMOS recorder that also takes the ``out=`` of a banded call."""

    def hankel1(self, n, z, out=None):
        self.sizes.append(np.size(z))
        return special.hankel1(n, z, out=out)

    def jv(self, n, z, out=None):
        self.sizes.append(np.size(z))
        return special.jv(n, z, out=out)


def test_banded_symmetric_argument_evaluates_one_triangle(monkeypatch, pool_workers):
    rec = BandRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(BAND_N)
    specfun.hankel1(0, z)
    specfun.bessel_j(1, z)
    assert sum(rec.sizes) == 2 * BAND_N * (BAND_N + 1) // 2
    if _pool.workers() > 1:
        assert len(rec.sizes) > 2  # in bands


def test_banded_nonsymmetric_argument_evaluates_every_entry_once(monkeypatch, pool_workers):
    rec = BandRecorder()
    monkeypatch.setattr(specfun, "_sp", rec)
    z = symmetric_kernel_argument(BAND_N) + np.triu(np.full((BAND_N, BAND_N), 1e-3j))
    specfun.hankel1(1, z)
    assert sum(rec.sizes) == z.size


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
def test_errors_in_a_band_reach_the_caller(pool_workers, symmetric):
    # one bad entry (and its mirror image) deep in the last band of a banded argument
    def planted(value):
        z = symmetric_kernel_argument(BAND_N)
        if not symmetric:
            z = z + np.triu(np.full(z.shape, 1e-3j))
        z[-3, -2] = value
        if symmetric:
            z[-2, -3] = value
        return z

    with pytest.raises(specfun.SpecialFunctionError, match=r"bessel_j\(n=0\) overflowed at \|z\| ~ 800"):
        specfun.bessel_j(0, planted(800j))  # I_0(800) is past double range
    with pytest.raises(ValueError, match=r"H_n\^\(1\) supported only for Im z >= 0"):
        specfun.hankel1(1, planted(5 - 1j))
    with pytest.raises(ValueError, match=r"argument outside supported range \|z\| <= 1e4"):
        specfun.hankel1(0, planted(2e4 + 1j))
    with pytest.raises(ValueError, match=r"argument outside supported range \|z\| <= 1e4"):
        specfun.bessel_j(1, planted(2e4))
