import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import maxwalk as mw
from maxwalk.entropy import L, _support_log_density


def bump_params(max_bumps: int = 4):
    bump = st.tuples(
        st.floats(-2.5, 2.5),  # center
        st.floats(0.7, 1.2),  # width
        st.floats(0.1, 2.0),  # weight
    )
    return st.lists(bump, min_size=1, max_size=max_bumps)


def build_bumps(grid: mw.GridSpec, params) -> mw.GridDensity:
    x = grid.centers()
    v = np.zeros(grid.count)
    for c, s, w in params:
        v += w * np.exp(-((x - c) ** 2) / (2.0 * s * s))
    return mw.GridDensity(grid, v)


def halfline_bumps(grid: mw.GridSpec, params, side: str) -> mw.GridDensity:
    x = grid.centers()
    sign = 1.0 if side == "positive" else -1.0
    v = np.zeros(grid.count)
    for c, s, w in params:
        center = sign * (1.0 + abs(c))
        v += w * np.exp(-((x - center) ** 2) / (2.0 * min(s, 0.4) ** 2))
    if side == "positive":
        v[x <= 0] = 0.0
    else:
        v[x >= 0] = 0.0
    f = mw.GridDensity(grid, v)
    return (1.0 / f.mass) * f


def test_L_pointwise():
    assert L(1.0) == 0.0
    assert L(0.0) == 0.0
    assert L(1.0 / math.e) == pytest.approx(-1.0 / math.e, abs=1e-15)
    with pytest.raises(ValueError):
        L(-0.1)
    arr = L(np.array([0.0, 1.0, 2.0]))
    assert arr[0] == 0.0 and arr[2] == pytest.approx(2.0 * math.log(2.0))


def test_reference_laws_normalized(fine_grid):
    for ref in (mw.half_normal(), mw.half_normal(4)):
        assert ref.sample_on(fine_grid).mass == pytest.approx(1.0, abs=1e-6)
        x = np.array([0.5, 1.0, 3.0])
        dens = np.exp(ref.log_density(x))
        assert np.all(np.isfinite(dens)) and np.all(dens > 0)
    assert mw.half_normal() == mw.ReferenceLaw(n=1)
    # n = 1 is the same float operations as the unscaled closed form
    x = fine_grid.centers()
    unscaled = 0.5 * math.log(2.0 / math.pi) - x * x / 2.0
    assert np.array_equal(mw.half_normal().log_density(x), unscaled)
    with pytest.raises(ValueError):
        mw.half_normal(0)


def test_self_entropy_vanishes(fine_grid):
    hn = mw.half_normal()
    assert mw.relative_entropy(hn.sample_on(fine_grid), hn) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "n, target", [(1, -0.5 * math.log(2.0)), (4, -3.0 / 16.0)], ids=["n1", "n4"]
)
def test_gaussian_against_half_normal_closed_form(fine_grid, n, target):
    # on x > 0 a standard gaussian density phi has log(phi / psi_n) =
    # log(sqrt(n)/2) - (1 - 1/n) x^2/2, and phi has mass 1/2 and second
    # moment 1/2 there: D = (log n)/4 - (log 2)/2 - (1 - 1/n)/4
    f = mw.sample_density(mw.DistributionSpec("gaussian"), fine_grid)
    assert mw.relative_entropy(f, mw.half_normal(n)) == pytest.approx(target, abs=1e-8)


def test_scalar_identity_alpha_two(fine_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), fine_grid)
    psi = mw.half_normal()
    lhs = mw.relative_entropy(2.0 * f, psi)
    rhs = 2.0 * mw.relative_entropy(f, psi) + L(2.0) * mw.moment(f, 0, "positive")
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_mass_off_the_support_is_ignored(fine_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), fine_grid)
    d = mw.relative_entropy(f, mw.half_normal())
    assert math.isfinite(d)
    doubled = f.with_values(np.where(fine_grid.centers() < 0, 2.0 * f.values, f.values))
    assert mw.relative_entropy(doubled, mw.half_normal()) == d


def test_negative_argument_rejected(fine_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), fine_grid)
    bad = f - 0.5 * f - 0.51 * f
    with pytest.raises(ValueError):
        mw.relative_entropy(bad, mw.half_normal())


def masked_relative_entropy(f: mw.GridDensity, ref: mw.ReferenceLaw) -> float:
    """Reference: relative_entropy as full-length masks over the whole grid
    (x > 0, v > floor, x < 0 for the negative mass) on the clipped values."""
    x = f.grid.centers()
    v = f.values
    h = f.grid.step
    if np.any(v < -1e-12):
        raise ValueError("below the floor")
    v = np.maximum(v, 0.0)
    total = 0.0
    pos = (x > 0) & (v > 1e-300)
    if np.any(pos):
        total += float(np.sum(v[pos] * (np.log(v[pos]) - ref.log_density(x[pos]))) * h)
    i = f.grid.zero_index()
    if i >= 0 and v[i] > 1e-300:
        log_psi0 = float(ref.log_density(np.array([0.0]))[0])
        neg_mass = float(np.abs(f.values[x < 0]).sum() * h)
        if neg_mass <= 1e-12:
            total += h * v[i] * (math.log(2.0 * v[i]) - log_psi0)
        else:
            total += 0.5 * h * v[i] * (math.log(v[i]) - log_psi0)
    return total


def _sliced_entropy_inputs(grid: mw.GridSpec) -> dict:
    full = build_bumps(grid, [(-0.4, 0.9, 1.0), (1.3, 0.8, 0.5)])
    half, _ = mw.restrict(full, "positive")  # the 0-cell holds half of full's
    shifted = mw.GridSpec(grid.x_min + grid.step / 2.0, grid.step, grid.count)
    no_zero_cell = build_bumps(shifted, [(0.2, 1.0, 1.0)])
    x = grid.centers()
    v = half.values.copy()
    tails = (x < -11.0) | (x > 5.0)
    v[tails] = -1e-12 * np.abs(np.sin(x[tails]))
    round_off = mw.GridDensity(grid, v)  # tail values in [-1e-12, 0)
    v = full.values.copy()
    v[x > 6.0] = 0.0
    zero_cells = mw.GridDensity(grid, v)  # zero cells on the positive half-line
    return {"full_line": full, "half_line": half, "no_zero_cell": no_zero_cell,
            "round_off": round_off, "zero_cells": zero_cells}


@pytest.mark.parametrize(
    "case", ["full_line", "half_line", "no_zero_cell", "round_off", "zero_cells"]
)
def test_sliced_relative_entropy_is_bit_identical(fine_grid, case):
    # full_line and no_zero_cell have every cell above the value floor and
    # take the branch without masks; zero or negative cells on the support
    # take the masked one
    f = _sliced_entropy_inputs(fine_grid)[case]
    assert f.grid.zero_index() == (-1 if case == "no_zero_cell" else fine_grid.zero_index())
    assert (f.values.min() < 0.0) == (case == "round_off")
    assert (f.values.min() > 1e-300) == (case in ("full_line", "no_zero_cell"))
    for ref in (mw.half_normal(), mw.half_normal(4)):
        for scaled in (f, 0.5 * f):
            assert mw.relative_entropy(scaled, ref) == masked_relative_entropy(scaled, ref)


def test_reference_log_density_cached_read_only(fine_grid):
    x = fine_grid.centers()
    for ref in (mw.half_normal(), mw.half_normal(4)):
        start, log_psi = _support_log_density(fine_grid, ref)
        assert start == fine_grid.zero_index() + 1
        assert _support_log_density(fine_grid, ref)[1] is log_psi
        assert np.array_equal(log_psi, ref.log_density(x[start:]))
        with pytest.raises(ValueError):
            log_psi[0] = 0.0


def test_reference_sample_cached_read_only(fine_grid):
    edges = fine_grid.edges()
    for n in (1, 4):
        sampled = mw.half_normal(n).sample_on(fine_grid)
        assert mw.ReferenceLaw(n).sample_on(fine_grid) is sampled
        assert np.array_equal(sampled.values,
                              np.diff(mw.half_normal(n).cdf(edges)) / fine_grid.step)
        with pytest.raises(ValueError):
            sampled.values[0] = 1.0


def test_conditioned_gaussian_is_half_normal(fine_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), fine_grid)
    assert mw.conditional_positive_entropy(f, mw.half_normal()) == pytest.approx(
        0.0, abs=1e-6
    )


def test_conditioned_shifted_gaussian_positive(fine_grid):
    # N(1, 1), cell-averaged
    f = mw.GridDensity(fine_grid, np.diff(ndtr(fine_grid.edges() - 1.0)) / fine_grid.step)
    val = mw.conditional_positive_entropy(f, mw.half_normal())
    assert math.isfinite(val) and val > 0.01


def test_conditioning_identity_exact(fine_grid):
    f = mw.sample_density(mw.DistributionSpec("mixture"), fine_grid)
    psi = mw.half_normal()
    alpha = mw.moment(f, 0, "positive")
    d = mw.relative_entropy(f, psi)
    d_plus = mw.conditional_positive_entropy(f, psi)
    assert d == pytest.approx(alpha * d_plus + L(alpha), abs=1e-9)


# ---------------------------------------------------------------------------
# randomized functional identities of the half-line entropy calculus
# (25 deterministic cases each)
# ---------------------------------------------------------------------------

RANDOMIZED_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@RANDOMIZED_SETTINGS
@given(params=bump_params(), alpha=st.sampled_from([0.5, 2.0, 7.0]))
def test_randomized_scalar_identity(fine_grid, params, alpha):
    f = build_bumps(fine_grid, params)
    psi = mw.half_normal()
    lhs = mw.relative_entropy(alpha * f, psi)
    rhs = alpha * mw.relative_entropy(f, psi) + L(alpha) * mw.moment(f, 0, "positive")
    assert abs(lhs - rhs) <= 1e-6


@RANDOMIZED_SETTINGS
@given(
    params_f=bump_params(),
    params_g=bump_params(),
    a=st.floats(0.25, 3.0),
    b=st.floats(0.25, 3.0),
)
def test_randomized_combination_bound(fine_grid, params_f, params_g, a, b):
    f = build_bumps(fine_grid, params_f)
    g = build_bumps(fine_grid, params_g)
    psi = mw.half_normal()
    lhs = mw.relative_entropy(a * f + b * g, psi)
    bound = (
        a * mw.relative_entropy(f, psi)
        + b * mw.relative_entropy(g, psi)
        + math.log(a + b)
        * (a * mw.moment(f, 0, "positive") + b * mw.moment(g, 0, "positive"))
    )
    assert lhs <= bound + 1e-6


@RANDOMIZED_SETTINGS
@given(params_f=bump_params(2), params_g=bump_params(2))
def test_randomized_convolution_bound(fine_grid, params_f, params_g):
    f = halfline_bumps(fine_grid, params_f, "positive")
    g = halfline_bumps(fine_grid, params_g, "negative")
    psi = mw.half_normal()
    lhs = mw.relative_entropy(mw.convolve(f, g), psi)
    assert lhs <= mw.relative_entropy(f, psi) + math.exp(-1.0) + 1e-6


@RANDOMIZED_SETTINGS
@given(params_f=bump_params(), params_g=bump_params())
def test_randomized_sandwich(fine_grid, params_f, params_g):
    f = build_bumps(fine_grid, params_f)
    g = build_bumps(fine_grid, params_g)
    psi = mw.half_normal()
    df = mw.relative_entropy(f, psi)
    dg = mw.relative_entropy(g, psi)
    together = mw.relative_entropy(f + g, psi)
    mass_f = mw.moment(f, 0, "positive")
    mass_g = mw.moment(g, 0, "positive")
    upper = df + dg + L(mass_f + mass_g) - L(mass_f) - L(mass_g)
    assert together >= df + dg - 1e-6
    assert together <= upper + 1e-6


@RANDOMIZED_SETTINGS
@given(params=bump_params(), n=st.sampled_from([4, 16]))
def test_scaling_invariance(fine_grid, params, n):
    f = build_bumps(fine_grid, params)
    lhs = mw.relative_entropy(mw.rescale_sqrt(f, n), mw.half_normal())
    rhs = mw.relative_entropy(f, mw.half_normal(n))
    assert abs(lhs - rhs) <= 1e-6


@RANDOMIZED_SETTINGS
@given(params=bump_params())
def test_entropy_floor(fine_grid, params):
    f = build_bumps(fine_grid, params)
    assert mw.relative_entropy(f, mw.half_normal()) >= -math.exp(-1.0) - 1e-6


@RANDOMIZED_SETTINGS
@given(params_f=bump_params(), params_g=bump_params(2), eps=st.floats(1e-4, 0.05))
def test_perturbation_stability(fine_grid, params_f, params_g, eps):
    # small-mass additions move the entropy by o(1): the sandwich plus the
    # scalar identity give an explicit modulus
    f = build_bumps(fine_grid, params_f)
    f = (1.0 / f.mass) * f
    g = build_bumps(fine_grid, params_g)
    g = (eps / g.mass) * g
    psi = mw.half_normal()
    base = mw.relative_entropy(f, psi)
    dg = mw.relative_entropy(g, psi)
    together = mw.relative_entropy(f + g, psi)
    mass_f = mw.moment(f, 0, "positive")
    mass_g = mw.moment(g, 0, "positive")
    gap = L(mass_f + mass_g) - L(mass_f) - L(mass_g)
    assert base + dg - 1e-6 <= together <= base + dg + gap + 1e-6
    assert abs(together - base) <= abs(dg) + gap + 1e-6
