import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

import maxwalk as mw
from maxwalk.grid import _SPEC_NAMES
from maxwalk.limits import (
    _check_row_invariants,
    curves_csv,
    entropy_reports_csv,
    fit_log_error_constant,
    log_error_ratio,
)


def half_normal_tail_x2(C: float) -> float:
    """Closed form of the half-normal x^2 tail mass beyond C (the limit of
    tail_mass): sqrt(2/pi) C e^{-C^2/2} + 2 (1 - Phi(C))."""
    return float(
        math.sqrt(2.0 / math.pi) * C * math.exp(-C * C / 2.0)
        + 2.0 * (1.0 - ndtr(C))
    )


@pytest.fixture(scope="module")
def laplace_setup(small_grid):
    walk = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    table = mw.decomp_powers(walk)
    splits = mw.max_law_splits(table, walk, (1, 2, 4, 8))
    return walk, splits


def test_rows_internally_consistent(laplace_setup):
    walk, splits = laplace_setup
    rows = mw.convergence_curves(
        mw.DistributionSpec("laplace"), [1, 2, 4, 8], walk=walk, splits=splits
    )
    assert [r.n for r in rows] == [1, 2, 4, 8]
    for r in rows:
        ident = (1.0 - r.Fbar0) * r.D_plus + mw.L(1.0 - r.Fbar0)
        assert r.D == pytest.approx(ident, abs=1e-6)
        assert r.tv <= math.sqrt(2.0 * max(r.D_plus, 0.0)) + r.Fbar0 + 1e-6
        assert r.pinsker_slack >= -1e-6
    # one-step conditioned law of the gaussian walk is exactly half-normal
    gaussian = mw.DistributionSpec("gaussian")
    g = mw.convergence_curves(gaussian, [1], walk=mw.compute_walk(gaussian, 1, walk.grid))
    assert g[0].D_plus == pytest.approx(0.0, abs=1e-6)


def _curves_and_stars(small_grid, name):
    spec = mw.DistributionSpec(name)
    walk = mw.compute_walk(spec, 8, small_grid, keep=(2, 8))
    rows = mw.convergence_curves(spec, [2, 8], walk=walk)
    return [(row, mw.rescale_sqrt(walk.max_laws[row.n], row.n)) for row in rows]


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_pinsker_slack_matches_one_sided_route(small_grid, name):
    # the curves take the slack's D from D_plus: the full-line star scaled
    # by its half-line moment, whose 0-cell takes the two-sided rule on
    # twice the value restrict keeps.  The one-sided route scales the
    # positive restriction by that same moment, so its 0-cell takes the
    # one-sided rule on the kept value: the same bits.  Both take the tv on
    # the restriction scaled by restrict's mass
    for row, star in _curves_and_stars(small_grid, name):
        pos, alpha = mw.restrict(star, "positive")
        d = mw.relative_entropy((1.0 / mw.moment(star, 0, "positive")) * pos, mw.half_normal())
        tv = mw.tv_distance((1.0 / alpha) * pos, mw.half_normal())
        assert row.D_plus == d
        assert row.pinsker_slack == d - 0.5 * tv * tv


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_pinsker_slack_reads_d_plus(small_grid, name):
    # the slack's D is the row's D_plus, not a second entropy of the
    # conditioned law
    for row, star in _curves_and_stars(small_grid, name):
        pos, alpha = mw.restrict(star, "positive")
        cond_tv = mw.tv_distance((1.0 / alpha) * pos, mw.half_normal())
        assert row.pinsker_slack == row.D_plus - cond_tv**2 / 2


def test_row_invariants_enforce_the_entropy_floor():
    # D = D_plus = -1 with Fbar0 = 0 satisfies the conditioning identity
    row = mw.ConvergenceRow(n=8, D=-1.0, D_plus=-1.0, tv=0.0, m2_plus=1.0, Fbar0=0.0,
                            tail_mass_C=0.0, pinsker_slack=-1.0)
    with pytest.raises(ValueError, match="below the -1/e floor"):
        _check_row_invariants(row)


def _tail_mass_oracle(grid, star, C=4.0):
    # the x^2 weight of the row's star, the law of M_n / sqrt(n), beyond C
    x = grid.centers()
    w = np.where(x > C, grid.step, 0.0)
    return float(np.sum(w * x * x * star.values))


def _rows_with_stars(spec, walk):
    rows = mw.convergence_curves(spec, [1, 2, 8], walk=walk)
    return [(row, mw.rescale_sqrt(walk.max_laws[row.n], row.n)) for row in rows]


@pytest.fixture(scope="module")
def laplace_rows(laplace_setup):
    walk, _ = laplace_setup
    return walk, _rows_with_stars(mw.DistributionSpec("laplace"), walk)


def test_tail_mass_properties(laplace_rows):
    walk, rows = laplace_rows
    for row, star in rows:
        assert row.tail_mass_C == _tail_mass_oracle(walk.grid, star)
        assert 0.0 <= row.tail_mass_C < row.m2_plus
    assert rows[-1][0].tail_mass_C > 0.0  # n = 8
    assert half_normal_tail_x2(4.0) == pytest.approx(0.0011340, abs=1e-6)


def test_local_limit_residual_matches_helper(laplace_rows):
    # oracle: the bounded-density residual against P(M_{n-1} <= 0) times
    # the rescaled step law (1 at n = 1)
    walk, rows = laplace_rows
    for row, star in rows:
        n = row.n
        prev = 1.0 if n == 1 else float(walk.nonpos_prob[n - 1])
        corr = prev * mw.rescale_sqrt(walk.step_density, n)
        assert row.alesh == mw.weighted_sup_residual(star, corr) >= 0.0


@pytest.mark.parametrize("name", ("spike",))
def test_row_reads_tail_mass_and_local_residual_off_its_star(small_grid, name):
    # the spike has no bounded density and no local-limit residual, but
    # its row still reads the tail mass off its star
    spec = mw.DistributionSpec(name)
    walk = mw.compute_walk(spec, 8, small_grid)
    for row, star in _rows_with_stars(spec, walk):
        assert row.tail_mass_C == _tail_mass_oracle(small_grid, star)
        assert 0.0 <= row.tail_mass_C < row.m2_plus
        assert math.isnan(row.alesh)


def test_split_residual_profile(laplace_setup):
    _, splits = laplace_setup
    res = mw.split_local_residual(splits[8])
    assert res.part_a > 0.0
    assert np.all(res.x > 0.0) and np.all(res.x < math.exp(-1.0))
    assert np.all(res.abs_error >= 0.0)
    constant = fit_log_error_constant(res)
    assert constant > 0.0
    assert log_error_ratio(res, constant) == pytest.approx(1.0, abs=1e-12)


def test_curves_csv_format(laplace_setup):
    walk, splits = laplace_setup
    rows = mw.convergence_curves(
        mw.DistributionSpec("laplace"), [2, 8], walk=walk, splits=splits
    )
    text = curves_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,D,D_plus,tv,m2_plus,Fbar0,tail4,alesh,local_a"
    assert len(lines) == 3
    ent = entropy_reports_csv(rows)
    assert ent.splitlines()[0] == "n,D,D_plus,tv,pinsker_slack,mass"
    # the splits passed in and the ones built from the walk give the same rows
    own = mw.convergence_curves(mw.DistributionSpec("laplace"), [2, 8], walk=walk)
    assert curves_csv(own) == text


def test_curves_hold_one_split_at_a_time():
    # memory guard (tracemalloc): without splits passed in, each row builds
    # its split when it reads it and drops it before the next row's, so
    # seven more rows raise the peak by less than one split (bounded part,
    # two remainders and correction: four windows).  Building every split
    # in one batch up front would raise it by four windows a row, 28 here
    spec = mw.DistributionSpec("spike")
    ns = [1, 2, 4, 8, 16, 24, 32, 48, 64]
    grid = mw.make_working_grid(64, 2**13)
    walk = mw.compute_walk(spec, 64, grid, keep=ns)
    mw.convergence_curves(spec, ns[:2], walk=walk)  # first-call caches
    peaks = {}
    for n_list in (ns[:2], ns):
        tracemalloc.start()
        try:
            rows = mw.convergence_curves(spec, n_list, walk=walk)
            peaks[len(n_list)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.n for r in rows] == n_list
    assert peaks[9] - peaks[2] < 4 * grid.count * 8
