"""The package's own special functions against scipy, kept as a test-only
oracle.  Tolerances are set from measured maxima over the ranges the code
evaluates them on, with a margin of about two to four."""

import numpy as np
import pytest
import scipy.fft
import scipy.special
from numpy.fft import fft, ifft, irfft, rfft

from maxwalk._special import dawsn, ndtr, ndtri, next_fast_len


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_is_scipys(real):
    got = [next_fast_len(n, real) for n in range(1, 100_001)]
    want = [scipy.fft.next_fast_len(n, real) for n in range(1, 100_001)]
    assert got == want


# real lengths of the walk's products, the kernel pass (2^14 cells, n_max 64
# and 256, 2^16 cells at n_max 1024) and the 2^17-cell entropy calculus;
# complex lengths of charfn's chirp-z convolutions
REAL_LENGTHS = (8748, 12800, 16384, 16875, 18432, 20480, 21870, 24576, 69984, 131072)
COMPLEX_LENGTHS = (378, 1100, 3773, 8575, 11979, 16632)


@pytest.mark.parametrize("size", REAL_LENGTHS)
def test_real_ffts_are_scipys_bit_for_bit(size):
    rng = np.random.default_rng(size)
    v = rng.random(size // 2 + 3)
    spec = rfft(v, size)
    assert np.array_equal(spec, scipy.fft.rfft(v, size))
    assert np.array_equal(irfft(spec, size), scipy.fft.irfft(spec, size))


@pytest.mark.parametrize("size", COMPLEX_LENGTHS)
def test_complex_ffts_are_scipys_bit_for_bit(size):
    rng = np.random.default_rng(size)
    w = rng.random((3, size // 2)) + 1j * rng.random((3, size // 2))
    spec = fft(w, size, axis=-1)
    assert np.array_equal(spec, scipy.fft.fft(w, size, axis=-1))
    assert np.array_equal(ifft(spec, axis=-1), scipy.fft.ifft(spec, axis=-1))


def test_ndtr_matches_scipy():
    # grid edges reach +-320 at n_max 1024, the mixture's standardized ones
    # +-360; measured: 2.2e-16 absolute, 5.7e-14 relative above 1e-300
    x = np.concatenate([np.linspace(-400.0, 400.0, 160_001),
                        np.random.default_rng(0).normal(size=40_000) * 5.0])
    got, want = ndtr(x), scipy.special.ndtr(x)
    assert np.max(np.abs(got - want)) <= 4.5e-16
    lower = want > 1e-300
    assert np.max(np.abs(got - want)[lower] / want[lower]) <= 2e-13
    assert ndtr(np.array([0.0]))[0] == 0.5


def test_ndtri_matches_scipy():
    # the simulation's uniforms, clipped to [1e-17, 1 - 2^-53]; measured:
    # 1.2e-15 relative
    u = np.concatenate([
        np.random.default_rng(1).random(200_000),
        np.logspace(-17.0, -1.0, 20_001),
        1.0 - np.logspace(np.log10(2.0**-53), -1.0, 20_001),
        [1e-17, 1.0 - 2.0**-53, 0.5, 0.075, 0.925],
    ])
    got, want = ndtri(u), scipy.special.ndtri(u)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 4e-15
    block = u[:16_384].reshape(256, 64)
    assert np.array_equal(ndtri(block), ndtri(block.ravel()).reshape(256, 64))


def test_dawsn_matches_scipy():
    # measured: 5.6e-16 absolute on |x| <= 1e4
    x = np.concatenate([np.linspace(-1e4, 1e4, 100_001), np.linspace(-5.0, 5.0, 50_001),
                        np.linspace(-0.3, 0.3, 10_001)])
    assert np.max(np.abs(dawsn(x) - scipy.special.dawsn(x))) <= 1.5e-15
    assert np.array_equal(dawsn(-x), -dawsn(x))
