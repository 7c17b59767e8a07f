import math

import numpy as np
import pytest

import maxwalk as mw
from maxwalk.grid import (
    GridError,
    _mixture_inv_table,
    from_spectrum,
    halfline_l1,
    halfline_sup,
    spectrum,
)


def test_grid_spec_validation():
    with pytest.raises(GridError):
        mw.GridSpec(x_min=-1.0, step=0.0, count=10)
    with pytest.raises(GridError):
        mw.GridSpec(x_min=-1.0, step=0.1, count=1)
    g = mw.make_working_grid(4, 2**12)
    assert g.count == 2**12
    assert abs(g.centers()[g.zero_index()]) < 1e-12
    with pytest.raises(GridError):
        mw.make_working_grid(4, 1000)  # not a power of two


def test_sample_gaussian_mass(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert f.mass == pytest.approx(1.0, abs=1e-6)


def test_sample_uniform_plateau(small_grid):
    f = mw.sample_density(mw.DistributionSpec("uniform"), small_grid)
    x = small_grid.centers()
    inside = np.abs(x) <= math.sqrt(3.0) - 2 * small_grid.step
    assert np.allclose(f.values[inside], 1.0 / (2.0 * math.sqrt(3.0)), atol=1e-12)
    outside = np.abs(x) >= math.sqrt(3.0) + 2 * small_grid.step
    assert np.all(f.values[outside] == 0.0)


def test_sample_spike_normalization(small_grid):
    f = mw.sample_density(mw.DistributionSpec("spike"), small_grid)
    assert f.mass == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.isfinite(f.values))
    # unbounded at 0 but cell averages stay finite and dominate the profile
    assert f.values[small_grid.zero_index()] == f.values.max()
    assert mw.moment(f, 2, "all") == pytest.approx(1.0, abs=1e-4)


def test_sample_window_too_small():
    count = 2**12
    g = mw.GridSpec(x_min=-(count // 2) * (8.0 / count), step=8.0 / count, count=count)
    with pytest.raises(mw.WindowTooSmallError):
        mw.sample_density(mw.DistributionSpec("gaussian"), g)


def test_unknown_spec_name():
    with pytest.raises(mw.UnknownDistributionError):
        mw.DistributionSpec("cauchy")


def test_convolve_uniform_triangle(small_grid):
    f = mw.sample_density(mw.DistributionSpec("uniform"), small_grid)
    conv = mw.convolve(f, f)
    peak = 1.0 / (2.0 * math.sqrt(3.0))
    # the cells straddling the plateau edges contribute an O(step) defect
    assert conv.values[small_grid.zero_index()] == pytest.approx(peak, abs=1e-3)
    assert conv.mass == pytest.approx(1.0, abs=1e-5)


def test_convolve_delta_identity(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    delta = np.zeros(small_grid.count)
    delta[small_grid.zero_index()] = 1.0 / small_grid.step
    out = mw.convolve(f, mw.GridDensity(small_grid, delta))
    assert mw.l1_distance(out, f) <= 1e-3  # one-cell smearing only


def test_convolve_gaussians(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    conv = mw.convolve(f, f)
    target = mw.gaussian(0.0, 2.0).sample_on(small_grid)
    assert mw.l1_distance(conv, target) <= 1e-4


def test_convolve_direct_matches_fast(small_grid):
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    b = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    direct = mw.convolve(a, b, "direct")
    fast = mw.convolve(a, b, "fast")
    tol = 1e-10 * a.values.max() * b.values.max()
    assert np.abs(direct.values - fast.values).max() <= tol


def test_convolve_step_mismatch(small_grid):
    other = mw.GridSpec(small_grid.x_min, small_grid.step * 2, small_grid.count // 2)
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    b = mw.GridDensity(other, np.zeros(other.count))
    with pytest.raises(mw.GridMismatchError):
        mw.convolve(a, b)


def test_convolve_window_overflow():
    # mass near the window edge must trigger the overflow guard
    count = 2**12
    g = mw.make_working_grid(4, count)
    v = np.zeros(count)
    v[-2] = 1.0 / g.step
    edge = mw.GridDensity(g, v)
    with pytest.raises(mw.WindowOverflowError):
        mw.convolve(edge, edge)


def test_summed_spectra_guard_and_linearity(small_grid):
    g = small_grid
    a = mw.sample_density(mw.DistributionSpec("gaussian"), g)
    b = mw.sample_density(mw.DistributionSpec("uniform"), g)
    # a weighted sum of products is the weighted sum of the convolutions
    acc = 2.0 * spectrum(a) * spectrum(b) + 0.5 * spectrum(b) * spectrum(b)
    out = from_spectrum(g, acc, 2.5)
    expected = 2.0 * mw.convolve(a, b).values + 0.5 * mw.convolve(b, b).values
    assert np.abs(out.values - expected).max() <= 1e-13
    # one term of the sum lands outside the window: the sum must raise
    v = np.zeros(g.count)
    v[-2] = 1.0 / g.step
    edge = mw.GridDensity(g, v)
    acc = spectrum(a) * spectrum(b) + spectrum(edge) * spectrum(edge)
    with pytest.raises(mw.WindowOverflowError):
        from_spectrum(g, acc, 2.0)


def test_mixture_inverse_cache_is_bounded():
    def spec(t):
        # weight 0.3 at -0.7 t and 0.7 at 0.3 t: mean 0, variance 1
        return mw.DistributionSpec("mixture", (0.3, -0.7 * t, 0.3 * t, 1.0 - 0.21 * t * t))

    u = np.array([0.1, 0.5, 0.9])
    x = spec(1.0).inv_cdf(u)
    hits = _mixture_inv_table.cache_info().hits
    assert np.array_equal(spec(1.0).inv_cdf(u), x)
    assert _mixture_inv_table.cache_info().hits == hits + 1
    for i in range(20):
        spec(0.5 + 0.05 * i).inv_cdf(u)
    info = _mixture_inv_table.cache_info()
    assert info.currsize <= 8


def test_convolve_mass_multiplicative_signed(small_grid):
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    b = mw.sample_density(mw.DistributionSpec("uniform"), small_grid)
    signed = a - 2.0 * b
    out = mw.convolve(signed, b)
    assert out.mass == pytest.approx(signed.mass * b.mass, abs=1e-5)


def test_rescale_identity(small_grid):
    f = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    assert mw.rescale_sqrt(f, 1) is f


def test_rescale_variance_n_to_standard(small_grid):
    wide = mw.gaussian(0.0, 16.0).sample_on(small_grid)
    out = mw.rescale_sqrt(wide, 16)
    target = mw.gaussian(0.0, 1.0).sample_on(small_grid)
    assert mw.l1_distance(out, target) <= 1e-4
    assert out.mass == pytest.approx(wide.mass, abs=1e-6)


def test_rescale_preserves_mass_of_walk_laws(gaussian_walk8):
    for k in (2, 5, 8):
        law = gaussian_walk8.max_laws[k]
        assert mw.rescale_sqrt(law, k).mass == pytest.approx(law.mass, abs=1e-6)


def test_restrict_halves_symmetric(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    _, pos = mw.restrict(f, "positive")
    assert pos == pytest.approx(0.5, abs=1e-6)
    spike = mw.sample_density(mw.DistributionSpec("spike"), small_grid)
    _, neg = mw.restrict(spike, "negative")
    assert neg == pytest.approx(0.5, abs=1e-4)


def test_restrict_disjoint_support(small_grid):
    x = small_grid.centers()
    v = np.where(x < -1.0, 1.0, 0.0)
    f = mw.GridDensity(small_grid, v)
    dens, mass = mw.restrict(f, "positive")
    assert mass == 0.0
    assert np.all(dens.values == 0.0)


def test_restrict_reconstructs(small_grid):
    f = mw.sample_density(mw.DistributionSpec("mixture"), small_grid)
    pos, mp = mw.restrict(f, "positive")
    neg, mn = mw.restrict(f, "negative")
    assert np.allclose(pos.values + neg.values, f.values)
    assert mp + mn == pytest.approx(f.mass, abs=1e-12)


def test_moments(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert mw.moment(f, 2, "all") == pytest.approx(1.0, abs=1e-4)
    assert mw.moment(f, 1, "negative") == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-4)
    assert mw.moment(f, 0, "all") == pytest.approx(f.mass, abs=1e-15)


def test_tv_distance(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert mw.tv_distance(f, f) == 0.0
    hn = mw.half_normal()
    assert mw.tv_distance(hn.sample_on(small_grid), hn) <= 1e-6
    shifted = mw.gaussian(0.1, 1.0).sample_on(small_grid)
    from scipy.special import ndtr

    exact = 2.0 * ndtr(0.05) - 1.0
    assert mw.tv_distance(f, shifted) == pytest.approx(exact, abs=1e-4)


def test_halfline_norms(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert halfline_l1(f, "positive") == pytest.approx(0.5, abs=1e-6)
    assert halfline_sup(f, "positive") == pytest.approx(f.values.max(), rel=1e-2)


def test_density_csv_roundtrip(small_grid):
    f = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    text = mw.density_to_csv(f)
    assert text.splitlines()[1] == "x,value"
    back = mw.density_from_csv(text)
    assert back.grid.close_to(f.grid)
    assert np.array_equal(back.values, f.values)


def test_halfline_law_validation(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    pos, mass = mw.restrict(f, "positive")
    law = mw.HalfLineLaw(atom_at_zero=1.0 - mass, density=pos)
    assert law.atom_at_zero == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(GridError):
        mw.HalfLineLaw(atom_at_zero=0.9, density=pos)  # mass inconsistent
    with pytest.raises(GridError):
        mw.HalfLineLaw(atom_at_zero=0.5, density=f)  # negative-side support
