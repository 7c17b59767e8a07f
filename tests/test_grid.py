import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import log_ndtr, ndtr

import maxwalk as mw
from maxwalk.grid import (
    _SPEC_NAMES,
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


def _trimmed_convolve_cases(grid: mw.GridSpec) -> dict:
    x = grid.centers()

    def bump(c, s, side=None):
        v = np.exp(-((x - c) ** 2) / (2.0 * s * s))
        if side == "positive":
            v[x <= 0] = 0.0
        elif side == "negative":
            v[x >= 0] = 0.0
        return mw.GridDensity(grid, v / (v.sum() * grid.step))

    one = np.zeros(grid.count)
    one[grid.zero_index() + 37] = 1.0 / grid.step
    edges = np.exp(-x * x / 8.0)
    edges[0] = edges[-1] = 1e-4  # nonzero cells at both window edges
    return {
        "opposite_half_lines": (bump(2.0, 0.5, "positive"), bump(-1.5, 0.3, "negative")),
        "single_cell": (bump(0.5, 1.0), mw.GridDensity(grid, one)),
        "both_window_edges": (mw.GridDensity(grid, edges), bump(0.0, 0.05)),
    }


@pytest.mark.parametrize(
    "case", ["opposite_half_lines", "single_cell", "both_window_edges"]
)
def test_trimmed_convolve_matches_direct(small_grid, case):
    # the fast mode transforms only the operands' nonzero index ranges;
    # the dense direct sum is the oracle, in both operand orders
    a, b = _trimmed_convolve_cases(small_grid)[case]
    tol = 1e-12 * np.abs(a.values).max() * np.abs(b.values).max()
    for first, second in ((a, b), (b, a)):
        fast = mw.convolve(first, second, "fast")
        direct = mw.convolve(first, second, "direct")
        assert np.abs(fast.values - direct.values).max() <= tol


def test_convolve_all_zero_operand(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    zero = mw.GridDensity(small_grid, np.zeros(small_grid.count))
    for a, b in ((zero, f), (f, zero), (zero, zero)):
        out = mw.convolve(a, b)
        assert out.grid == small_grid and np.all(out.values == 0.0)


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


_MIX = (0.3, -0.7, 0.3, 0.79)  # the default mixture: weight, loc1, loc2, var
# Well-separated components: x(y) climbs steeply through the density gap, and
# the table splits its cells there (up to 4,096 sub-cells per cell).  In the
# last set one cell's error changes sign near its midpoint: checked at the
# midpoint alone, it is kept and misses the round trip by 1.5e-13.
_BIMODAL = (
    (0.5, -0.95, 0.95, 0.0975),
    (0.5, -0.97, 0.97, 0.0591),
    (0.1, -2.7, 0.3, 0.19),
    (0.7164419822245884, -0.5313575760470672, 1.3425360991017066, 0.2866332726256319),
)
_LAWS = [(name, ()) for name in _SPEC_NAMES] + [("mixture", p) for p in _BIMODAL]
_MIXTURES = [_MIX, *_BIMODAL]


def _law_id(params: tuple) -> str:
    return ",".join(map(str, params))


def _oracle_uniforms() -> np.ndarray:
    """1e5 Philox uniforms, the ends k * 2^-53 and 1 - k * 2^-53 (k <= 200)
    that `Generator.random` can draw, and the simulator's 1e-17 clip."""
    k = np.arange(1, 201)
    u = Generator(Philox(key=20260809)).random(10**5)
    return np.concatenate((u, k * 2.0**-53, 1.0 - k * 2.0**-53, [1e-17]))


def _mixture_log_tail(x: np.ndarray, upper: bool, params: tuple = _MIX) -> np.ndarray:
    """log F(x), or log S(x) when `upper`, of a mixture."""
    w, m1, m2, s2 = params
    sign = -1.0 if upper else 1.0
    s = math.sqrt(s2)
    return np.logaddexp(
        math.log(w) + log_ndtr(sign * (x - m1) / s),
        math.log1p(-w) + log_ndtr(sign * (x - m2) / s),
    )


def _mixture_inv_interp_newton(u: np.ndarray) -> np.ndarray:
    """The former sampler: interpolation in a 32,769-entry x-space table of
    the default mixture's cdf, then two step-bounded Newton iterations."""
    w, m1, m2, s2 = _MIX
    s = math.sqrt(s2)

    def cdf(x):
        return w * ndtr((x - m1) / s) + (1 - w) * ndtr((x - m2) / s)

    def pdf(x):
        z1, z2 = (x - m1) / s, (x - m2) / s
        return (w * np.exp(-z1 * z1 / 2) + (1 - w) * np.exp(-z2 * z2 / 2)) / (
            s * math.sqrt(2.0 * math.pi)
        )

    x_tab = np.linspace(min(m1, m2) - 10.0 * s, max(m1, m2) + 10.0 * s, 32769)
    u_tab = cdf(x_tab)
    spacing = float(x_tab[1] - x_tab[0])
    u = np.clip(u, u_tab[0], u_tab[-1])
    x = np.interp(u, u_tab, x_tab)
    for _ in range(2):
        step = (cdf(x) - u) / np.maximum(pdf(x), 1e-300)
        x = x - np.clip(step, -spacing, spacing)
    return x


@pytest.mark.parametrize(
    "name, params", _LAWS, ids=[f"{n}-{_law_id(p)}" if p else n for n, p in _LAWS]
)
def test_inverse_cdf_round_trip(name, params):
    spec = mw.DistributionSpec(name, params)
    u = _oracle_uniforms()
    x = spec.inv_cdf(u)
    assert np.all(np.isfinite(x))
    assert np.abs(spec.cdf(x) - u).max() <= 1e-13
    block = u[: 10**5].reshape(1000, 100)  # the shape and memory order pass through
    assert np.array_equal(spec.inv_cdf(block.T), x[: 10**5].reshape(1000, 100).T)


@pytest.mark.parametrize("params", _MIXTURES, ids=_law_id)
def test_mixture_inverse_tail_mass_is_relative(params):
    u = _oracle_uniforms()
    x = mw.DistributionSpec("mixture", params).inv_cdf(u)
    lower = u < 0.5
    # 1 - u is exact for u >= 1/2, so log1p(-u) is the upper tail's own log
    rel = np.concatenate((
        np.expm1(_mixture_log_tail(x[lower], False, params) - np.log(u[lower])),
        np.expm1(_mixture_log_tail(x[~lower], True, params) - np.log1p(-u[~lower])),
    ))
    assert np.abs(rel).max() <= 1e-12


@pytest.mark.parametrize("params", _MIXTURES, ids=_law_id)
def test_mixture_inverse_monotone_with_finite_ends(params):
    u = np.linspace(0.0, 1.0, 2 * 10**5)
    x = mw.DistributionSpec("mixture", params).inv_cdf(u)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) > 0.0)


def test_mixture_inverse_refuses_a_gap_it_cannot_resolve():
    # sd 0.14 at +-0.99: the density between the components falls to 3e-11
    spec = mw.DistributionSpec("mixture", (0.5, -0.99, 0.99, 1.0 - 0.99**2))
    with pytest.raises(GridError, match="too deep"):
        spec.inv_cdf(np.array([0.25, 0.5]))


def test_mixture_inverse_matches_interp_newton():
    # The former sampler is compared where it is accurate: random u in
    # [1e-10, 1 - 1e-10] and the lower tail down to 1e-10.  Nearer either end
    # it is wrong (u = 1 - 2^-53 gives 7.671 against the log-space root 7.559).
    u = np.clip(Generator(Philox(key=7)).random(10**6), 1e-10, 1.0 - 1e-10)
    lower_ends = np.geomspace(1e-10, 0.5, 1000)
    u = np.concatenate((u, lower_ends))
    spec = mw.DistributionSpec("mixture")
    assert np.abs(spec.inv_cdf(u) - _mixture_inv_interp_newton(u)).max() <= 1e-10
    # Near u = 1 it reads the tail mass 1 - F off F and loses it to
    # cancellation (a 1e-7 gap at 1 - u = 1e-10): there the log-space tail
    # mass must be no further from 1 - u than the former sampler's.
    u = 1.0 - lower_ends

    def tail_error(x):
        return np.abs(_mixture_log_tail(x, upper=True) - np.log1p(-u))

    assert np.all(tail_error(spec.inv_cdf(u)) <= tail_error(_mixture_inv_interp_newton(u)) + 1e-12)


def test_mixture_parameters_validated():
    u = _oracle_uniforms()
    default = mw.DistributionSpec("mixture").inv_cdf(u)
    assert np.array_equal(mw.DistributionSpec("mixture", _MIX).inv_cdf(u), default)
    for bad in ((0.3, -0.7), _MIX + (1.0,), ("a", -0.7, 0.3, 0.79), (1.0, 0.0, 1.0, 1.0),
                (0.3, -0.7, 0.3, 0.8)):
        with pytest.raises(GridError):
            mw.DistributionSpec("mixture", bad)


def _laplace_inv_two_branch(u: np.ndarray) -> np.ndarray:
    """The former laplace inverse: both np.where branches over every u."""
    b = 1.0 / math.sqrt(2.0)
    return np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))


def _spike_inv_two_branch(u: np.ndarray) -> np.ndarray:
    """The former spike inverse: both np.where branches over every u."""
    c = 2.0 * 5.0**0.25
    return np.where(u >= 0.5, (c * (u - 0.5)) ** 2, -((c * (0.5 - u)) ** 2))


@pytest.mark.parametrize(
    "name, former",
    [("laplace", _laplace_inv_two_branch), ("spike", _spike_inv_two_branch)],
    ids=["laplace", "spike"],
)
def test_single_branch_inverse_is_bit_identical(name, former):
    half = np.nextafter(0.5, [0.0, 1.0])
    u = np.concatenate((_oracle_uniforms(), [0.0, 0.5, 1.0, np.nextafter(1.0, 0.0)], half))
    with np.errstate(divide="ignore"):  # log(0) at u = 0 and u = 1
        assert np.array_equal(mw.DistributionSpec(name).inv_cdf(u), former(u))


def test_centers_cached_read_only():
    g = mw.make_working_grid(4, 2**12)
    x = g.centers()
    assert g.centers() is x
    assert mw.GridSpec(g.x_min, g.step, g.count).centers() is x
    with pytest.raises(ValueError):
        x[0] = 1.0


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
