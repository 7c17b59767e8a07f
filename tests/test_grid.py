import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr
from scipy.stats import kstest, kstwobign

import maxwalk as mw
from maxwalk.grid import (
    _SPEC_NAMES,
    GridError,
    _halfline_weights,
    _mixture_cdf,
    _support,
    from_spectrum,
    halfline_l1,
    halfline_sup,
    spectrum,
)


def gaussian_sample(grid: mw.GridSpec, mu: float, var: float) -> mw.GridDensity:
    """Cell averages of N(mu, var) on the grid."""
    cdf = ndtr((grid.edges() - mu) / math.sqrt(var))
    return mw.GridDensity(grid, np.diff(cdf) / grid.step)


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
    # the window is +-10 sqrt(n_max)
    assert mw.make_working_grid(64, 2**14) == mw.GridSpec(-80.0, 160 / 2**14, 2**14)


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
    target = gaussian_sample(small_grid, 0.0, 2.0)
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


def test_cropped_results_own_their_values(small_grid):
    # the kept window is copied, so no result holds its padded buffer
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    b = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    for out in (
        mw.convolve(a, b, "fast"),
        mw.convolve(a, b, "direct"),
        from_spectrum(small_grid, spectrum(a) * spectrum(b), 1.0),
    ):
        assert out.values.base is None


def test_spectrum_refuses_a_wrapping_size(small_grid):
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert spectrum(a, 10, 5, 15).size == 6
    with pytest.raises(ValueError):
        spectrum(a, 9, 5, 15)


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


_MIX = (0.3, -0.7, 0.3, 0.79)  # the default mixture: weight, loc1, loc2, var
# Well-separated components, with a deep density gap between them; the last
# one's gap (sd 0.14 at +-0.99) falls to 3e-11.
_BIMODAL = (
    (0.5, -0.95, 0.95, 0.0975),
    (0.5, -0.97, 0.97, 0.0591),
    (0.1, -2.7, 0.3, 0.19),
    (0.7164419822245884, -0.5313575760470672, 1.3425360991017066, 0.2866332726256319),
)
_MIXTURES = [_MIX, *_BIMODAL, (0.5, -0.99, 0.99, 0.0199)]
_SINGLE_LAWS = [name for name in _SPEC_NAMES if name != "mixture"]


def _law_id(params: tuple) -> str:
    return ",".join(map(str, params))


def _oracle_uniforms() -> np.ndarray:
    """1e5 Philox uniforms, the ends k * 2^-53 and 1 - k * 2^-53 (k <= 200)
    that `Generator.random` can draw, and the simulator's 1e-17 clip."""
    k = np.arange(1, 201)
    u = Generator(Philox(key=20260809)).random(10**5)
    return np.concatenate((u, k * 2.0**-53, 1.0 - k * 2.0**-53, [1e-17]))


@pytest.mark.parametrize("name", _SINGLE_LAWS)
def test_inverse_cdf_round_trip(name):
    spec = mw.DistributionSpec(name)
    u = _oracle_uniforms()
    x = spec.inv_cdf(u)
    assert np.all(np.isfinite(x))
    assert np.abs(spec.cdf(x) - u).max() <= 1e-13
    block = u[: 10**5].reshape(1000, 100)  # the shape and memory order pass through
    assert np.array_equal(spec.inv_cdf(block.T), x[: 10**5].reshape(1000, 100).T)


@pytest.mark.parametrize("params", _MIXTURES, ids=_law_id)
def test_mixture_draw_pushforward_is_exact(params):
    # Midpoint uniforms (k + 1/2) / 2^20 are the uniform law up to 1/2^20 in
    # every interval; the share of draws <= q is then F(q) up to rounding.
    size = 1 << 20
    u = (np.arange(size) + 0.5) / size
    x = np.sort(mw.DistributionSpec("mixture", params).inv_cdf(u))
    q = np.linspace(-4.0, 4.0, 801)
    share = np.searchsorted(x, q, side="right") / size
    assert np.abs(share - _mixture_cdf(q, *params)).max() <= 2.0 / size


def test_mixture_draw_passes_ks():
    spec = mw.DistributionSpec("mixture")
    samples = 2 * 10**6
    x = spec.inv_cdf(Generator(Philox(key=4242)).random(samples))
    critical = kstwobign.ppf(0.99) / math.sqrt(samples)
    assert kstest(x, spec.cdf).statistic < critical


@pytest.mark.parametrize("params", _MIXTURES, ids=_law_id)
def test_mixture_draw_edges(params):
    w = params[0]
    spec = mw.DistributionSpec("mixture", params)
    ends = np.array([1e-17, np.nextafter(w, 0.0), w, 1.0 - 2.0**-53])
    assert np.all(np.isfinite(spec.inv_cdf(ends)))
    # the upper tail is drawn from 1 - u, exact here: every step of u moves x
    top = 1.0 - np.arange(200, 0, -1) * 2.0**-53
    assert np.all(np.diff(spec.inv_cdf(top)) > 0.0)


def test_mixture_parameters_validated():
    u = _oracle_uniforms()
    default = mw.DistributionSpec("mixture").inv_cdf(u)
    assert np.array_equal(mw.DistributionSpec("mixture", _MIX).inv_cdf(u), default)
    for bad in ((0.3, -0.7), _MIX + (1.0,), ("a", -0.7, 0.3, 0.79), (1.0, 0.0, 1.0, 1.0),
                (0.3, -0.7, 0.3, 0.8), (0.3, -0.7, 0.3, 10**400)):
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


def test_edges_cached_read_only():
    g = mw.make_working_grid(4, 2**12)
    e = g.edges()
    assert mw.GridSpec(g.x_min, g.step, g.count).edges() is e
    assert np.array_equal(e, g.x_min + g.step * (np.arange(g.count + 1) - 0.5))
    with pytest.raises(ValueError):
        e[0] = 1.0


def test_halfline_weights_cached_read_only():
    g = mw.make_working_grid(4, 2**12)
    x, h, i = g.centers(), g.step, g.zero_index()
    for side, inside in (("positive", x > 0), ("negative", x < 0)):
        w = _halfline_weights(g, side)
        assert _halfline_weights(mw.GridSpec(g.x_min, g.step, g.count), side) is w
        expected = np.where(inside, h, 0.0)
        expected[i] = h / 2.0
        assert np.array_equal(w, expected)
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_support_scan_matches_flatnonzero():
    # the fast convolve's operand bounds, against np.flatnonzero
    cases = [np.zeros(9), np.full(9, -0.0), np.eye(9)[0], np.eye(9)[-1], np.eye(9)[4],
             np.r_[1.0, np.zeros(7), 2.0], np.r_[0.0, 0.0, -1e-300, 0.0, 3.0, 0.0]]
    for v in cases:
        nz = np.flatnonzero(v)
        expected = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        assert _support(v) == expected


def test_convolve_mass_multiplicative_signed(small_grid):
    a = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    b = mw.sample_density(mw.DistributionSpec("uniform"), small_grid)
    signed = a - 2.0 * b
    out = mw.convolve(signed, b)
    assert out.mass == pytest.approx(signed.mass * b.mass, abs=1e-5)


def test_rescale_identity(small_grid):
    f = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    assert mw.rescale_sqrt(f, 1) is f


@pytest.mark.parametrize("n", [2, 4, 16, 1024])
def test_rescale_matches_full_length_interp(small_grid, n):
    # rescale_sqrt interpolates only the scaled edges inside the window; the
    # oracle interpolates all of them with left/right for those outside
    v = mw.sample_density(mw.DistributionSpec("laplace"), small_grid).values.copy()
    v[0] = v[-1] = 1e-4  # mass in the window's edge cells
    f = mw.GridDensity(small_grid, v)
    edges = small_grid.edges()
    cum = np.concatenate(([0.0], np.cumsum(v) * small_grid.step))
    target = np.interp(math.sqrt(n) * edges, edges, cum, left=0.0, right=cum[-1])
    assert np.array_equal(mw.rescale_sqrt(f, n).values, np.diff(target) / small_grid.step)


def test_rescale_variance_n_to_standard(small_grid):
    wide = gaussian_sample(small_grid, 0.0, 16.0)
    out = mw.rescale_sqrt(wide, 16)
    target = gaussian_sample(small_grid, 0.0, 1.0)
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


def _masked_restrict(f, side):
    # the mask form: zero every cell center on the other side of 0
    x = f.grid.centers()
    v = f.values.copy()
    v[(x < 0) if side == "positive" else (x > 0)] = 0.0
    i = f.grid.zero_index()
    if i >= 0:
        v[i] = f.values[i] / 2.0
    return v


_SLICE_GRIDS = {
    "zero_cell": mw.GridSpec(-2.0, 0.25, 33),
    "no_zero_cell": mw.GridSpec(-2.125, 0.25, 33),
    "zero_cell_off_by_round_off": mw.GridSpec(-2.0 - 1e-12, 0.25, 33),
    "all_positive": mw.GridSpec(0.5, 0.25, 33),
    "all_negative": mw.GridSpec(-10.0, 0.25, 33),
}


@pytest.mark.parametrize("case", sorted(_SLICE_GRIDS))
def test_restrict_and_sup_slice_like_masks(case):
    grid = _SLICE_GRIDS[case]
    f = mw.GridDensity(grid, np.random.default_rng(7).normal(size=grid.count))
    for side in ("positive", "negative"):
        dens, mass = mw.restrict(f, side)
        assert np.array_equal(dens.values, _masked_restrict(f, side))
        assert mass == dens.mass
    sel = grid.centers() > 0
    expected = float(np.abs(f.values[sel]).max()) if sel.any() else 0.0
    assert halfline_sup(f) == expected


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
    shifted = gaussian_sample(small_grid, 0.1, 1.0)
    exact = 2.0 * ndtr(0.05) - 1.0
    assert mw.tv_distance(f, shifted) == pytest.approx(exact, abs=1e-4)


def test_halfline_norms(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert halfline_l1(f, "positive") == pytest.approx(0.5, abs=1e-6)
    assert halfline_sup(f) == pytest.approx(f.values.max(), rel=1e-2)


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
