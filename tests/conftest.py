import numpy as np
import pytest
from scipy import special

from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import boundary_operator_set, fourier_modes


@pytest.fixture(scope="session")
def circle():
    return make_circle(1.0)


@pytest.fixture(scope="session")
def kite():
    return make_kite()


@pytest.fixture(scope="session")
def op_cache(circle, kite):
    """Memoized operator sets keyed by (curve kind, grid size, wavenumber)."""
    curves = {"circle": circle, "kite": kite}
    cache = {}

    def get(curve_kind, n, k):
        key = (curve_kind, n, complex(k))
        if key not in cache:
            cache[key] = boundary_operator_set(curves[curve_kind], grid(n), k)
        return cache[key]

    return get


def band_limited_density(n, band, seed=3):
    """Random density with Fourier modes restricted to |m| <= band."""
    rng = np.random.default_rng(seed)
    modes = fourier_modes(n)
    mask = np.abs(modes) <= band
    coefs = np.zeros(n, dtype=complex)
    coefs[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    return np.fft.ifft(np.fft.ifftshift(coefs)) * n


class CephesRecorder:
    """Stands in for a Cephes ufunc and records the size of each argument."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, x, out=None):
        self.sizes.append(np.size(x))
        return self.f(x, out=out)


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
