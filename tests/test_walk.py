import dataclasses
import math
import random
import weakref
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from numpy.fft import irfft, rfft

import maxwalk as mw
import maxwalk.walk as wk
from maxwalk._special import next_fast_len
from maxwalk.grid import (
    _SPEC_NAMES,
    GridError,
    WindowOverflowError,
    from_spectrum,
    zero_density,
)


def test_one_step_is_step_density(gaussian_walk8):
    assert gaussian_walk8.max_laws[1] is gaussian_walk8.step_density
    assert gaussian_walk8.sum_laws[1] is gaussian_walk8.step_density


def test_symmetric_two_step_probability(gaussian_walk8):
    assert gaussian_walk8.nonpos_prob[2] == pytest.approx(3.0 / 8.0, abs=1e-3)


def test_sparre_andersen_exact_values():
    assert mw.sparre_andersen(1) == 0.5
    assert mw.sparre_andersen(2) == float(Fraction(3, 8))
    assert mw.sparre_andersen(3) == float(Fraction(5, 16))
    assert mw.sparre_andersen(4) == float(Fraction(35, 128))
    with pytest.raises(ValueError):
        mw.sparre_andersen(0)


def test_sparre_andersen_matches_simulation():
    # independent stochastic check of the combinatorial identity
    summary = mw.simulate(mw.DistributionSpec("spike"), 4, 10**5, 99)
    se = summary.nonpos_se
    assert abs(summary.nonpos_hat - mw.sparre_andersen(4)) <= 4 * se


def test_walk_scalar_invariants(gaussian_walk8):
    w = gaussian_walk8
    for k in range(1, 9):
        assert w.max_laws[k].mass == pytest.approx(1.0, abs=k * 1e-6)
        assert w.neg_moment1[k] <= 0.0
        assert w.neg_moment2[k] >= 0.0
    assert np.all(np.diff(w.nonpos_prob[1:9]) < 0)  # strictly shrinking here
    _, p_neg = mw.restrict(w.step_density, "negative")
    assert w.nonpos_prob[1] == pytest.approx(p_neg, abs=1e-15)


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_trimmed_recursion_matches_direct(small_grid, name):
    # oracles: the same max recursion with every product by the dense
    # direct sum, and the dense direct chain S_k = p * S_{k-1} without a
    # crop between products.  The walk transforms p over its support and the
    # positive part over [zero_index, count), each product at its own fast
    # length; the sum laws are spectra on a cyclic buffer whose pad holds
    # what spills over the window's edges (at k = 16 on this window, S_16
    # puts up to 7e-6 of its mass there)
    n_max = 16
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, small_grid)
    p = w.step_density
    sums = uncropped_direct_sum_laws(p, n_max)
    max_law = p
    for k in range(2, n_max + 1):
        pos, _ = mw.restrict(max_law, "positive")
        _, nonpos = mw.restrict(max_law, "negative")
        max_law = nonpos * p + mw.convolve(p, pos, "direct")
        for got, expected in ((w.sum_laws[k], sums[k]), (w.max_laws[k], max_law)):
            sup = np.abs(expected.values).max()
            assert np.abs(got.values - expected.values).max() <= 1e-14 * sup


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_spectral_sum_laws_match_direct_chain(name):
    # oracle: S_k = p * S_{k-1} by a chain of dense direct convolutions, on
    # a window that holds the 32-step walk (so the chain's per-step crop
    # cuts nothing), against the spectra stepped by one product each
    n_max = 32
    grid = mw.make_working_grid(n_max, 2**12)
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, grid, keep=())
    law, mass = w.step_density, w.sum_laws.masses()
    for k in range(2, n_max + 1):
        law = mw.convolve(w.step_density, law, "direct")
        got = w.sum_laws[k]
        sup = np.abs(law.values).max()
        assert np.abs(got.values - law.values).max() <= 1e-14 * sup
        assert mass[k] == pytest.approx(law.mass, abs=1e-14)


def test_sum_laws_too_wide_for_the_window_raise():
    # a window on [-10, 118] holds the 64-step max law (its left tail is
    # the step law's) but not the sum laws beyond a few steps: S_64 puts
    # ~10% of its mass left of -10.  The pad guard raises instead of
    # letting that mass wrap around the cyclic buffer
    step = 2.0**-5
    g = mw.GridSpec(x_min=-320 * step, step=step, count=2**12)
    w = mw.compute_walk(mw.DistributionSpec("gaussian"), 64, g, keep=())
    assert w.sum_laws[4].mass == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(WindowOverflowError, match="sum law puts mass"):
        w.sum_laws[64]
    with pytest.raises(WindowOverflowError):
        mw.nagaev_density(w, [64])


def test_splits_do_not_depend_on_the_sum_law_pad():
    # the window of test_sum_laws_too_wide_for_the_window_raise: it holds
    # the 64-step max law but not S_64.  The split reads no sum law, so it
    # is built; for the gaussian (rho = 0) its bounded part is the max law
    step = 2.0**-5
    g = mw.GridSpec(x_min=-320 * step, step=step, count=2**12)
    w = mw.compute_walk(mw.DistributionSpec("gaussian"), 64, g, keep=(64,))
    split = mw.max_law_splits(mw.decomp_powers(w), w, [64])[64]
    assert np.array_equal(split.bounded.values, w.max_laws[64].values)
    with pytest.raises(WindowOverflowError):
        mw.nagaev_density(w, [64])


@pytest.mark.parametrize("name", ["spike", "uniform"])
def test_sum_laws_on_a_narrow_window_match_the_uncropped_chain_or_raise(small_grid, name):
    # small_grid's cells and left edge at -20 (it is sized for 4 steps),
    # with the window run on to +60 so that it holds the 40-step max law.
    # The pad is widened past the kernel pass's need until nothing wraps
    # around, so each S_k either matches the uncropped chain or, once more
    # than the window guard's share of its mass lies left of -20, raises, as
    # do every later one and the stream of masses
    n_max = 40
    g = mw.GridSpec(x_min=small_grid.x_min, step=small_grid.step, count=2 * small_grid.count)
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, g, keep=())
    kernel_size = wk.next_fast_len(g.count + g.zero_index() - w.kernel_start, real=True)
    assert w.pass_size > kernel_size
    assert w.pass_size == wk._pass_size(w.step_density, n_max, w.kernel_start)
    oracle = uncropped_direct_sum_laws(w.step_density, n_max)
    bound = 10 * mw.MASS_TOL
    read = 1
    for k in range(2, n_max + 1):
        outside = 1.0 - oracle[k].mass  # the oracle's mass past the window
        try:
            got = w.sum_laws[k]
        except WindowOverflowError:
            assert outside > 0.9 * bound
            break
        assert outside <= 1.1 * bound
        sup = np.abs(oracle[k].values).max()
        assert np.abs(got.values - oracle[k].values).max() <= 1e-14 * sup
        read = k
    assert 16 <= read < n_max
    for k in range(read + 1, n_max + 1):
        with pytest.raises(WindowOverflowError):
            w.sum_laws.spectrum(k)
    with pytest.raises(WindowOverflowError):
        w.sum_laws.masses()
    # the same stream stopped at the last S_k the window holds
    mass = wk.SumLaws(w.step_density, read, w.pass_size).masses()
    for k in range(2, read + 1):
        assert mass[k] == pytest.approx(oracle[k].mass, abs=1e-14)


def test_walk_laws_own_their_values(gaussian_walk8):
    # each cropped product is copied out of its padded transform buffer
    for k in range(1, 9):
        for law in (gaussian_walk8.sum_laws[k], gaussian_walk8.max_laws[k]):
            assert law.values.base is None


def test_mass_drift_abort():
    # a too-small window cannot hold the walk: the drift guard must fire
    count = 2**12
    step = 18.0 / count
    g = mw.GridSpec(x_min=-(count // 2) * step, step=step, count=count)
    with pytest.raises(GridError):
        mw.compute_walk(mw.DistributionSpec("gaussian"), 16, g)


def test_nagaev_collapses_at_one(gaussian_walk8):
    out = mw.nagaev_density(gaussian_walk8, [1])[1]
    assert mw.l1_distance(out, gaussian_walk8.step_density) <= 1e-12


def test_nagaev_matches_recursion(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    out = mw.nagaev_density(w, [8])[8]
    assert mw.l1_distance(out, w.max_laws[8]) <= 1e-3
    assert out.mass == pytest.approx(1.0, abs=8e-6)


@pytest.mark.parametrize("name", ["gaussian", "spike"])
def test_nagaev_density_matches_per_term_direct(small_grid, name):
    # oracle: each S_k * G_{n-k} convolved on its own by the dense path and
    # summed in space, with G_j = P(max_j <= 0) minus the negative part of
    # the j-step max law, against one batch of summed inverse transforms
    ns = (1, 3, 5, 8)
    w = mw.compute_walk(mw.DistributionSpec(name), ns[-1], small_grid)
    batch = mw.nagaev_density(w, ns)
    assert sorted(batch) == list(ns)
    for n in ns:
        expected = w.sum_laws[n].values.copy()  # k = n: the unit atom
        for k in range(1, n):
            neg, _ = mw.restrict(w.max_laws[n - k], "negative")
            expected += w.nonpos_prob[n - k] * w.sum_laws[k].values
            expected -= mw.convolve(w.sum_laws[k], neg, "direct").values
        got = batch[n].values
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_kept_law_walk_matches_the_full_walk(small_grid, name):
    # oracle: the walk that keeps every max law; keeping fewer changes no bit
    spec, n_max, keep = mw.DistributionSpec(name), 8, (3, 5, 8)
    full = mw.compute_walk(spec, n_max, small_grid)
    kept = mw.compute_walk(spec, n_max, small_grid, keep=keep)
    assert kept.max_laws.kept == keep
    assert sorted(kept.kernels) == list(range(1, n_max + 1))  # every step's kernel
    # no full-length buffer pinned
    assert all(f.values.base is None for f in kept.kernels.values())
    zero = small_grid.zero_index()
    assert kept.kernel_start == min(wk._support(full.step_density.values)[0], zero)
    kernel_grid = kept.kernels[1].grid  # one grid, made once, for every k
    assert kernel_grid.count == zero - kept.kernel_start + 1
    assert kernel_grid.x_min == small_grid.centers()[kept.kernel_start]
    for k in range(1, n_max + 1):
        assert kept.kernels[k].grid is kernel_grid
        assert np.array_equal(kept.kernels[k].values, full.kernels[k].values)
        assert np.array_equal(kept.sum_laws[k].values, full.sum_laws[k].values)
    for n in keep:
        assert np.array_equal(kept.max_laws[n].values, full.max_laws[n].values)
    for table in ("nonpos_prob", "neg_moment1", "neg_moment2", "max_mass"):
        assert np.array_equal(getattr(kept, table), getattr(full, table), equal_nan=True)
    assert wk.walk_scalars_csv(kept) == wk.walk_scalars_csv(full)
    t = np.linspace(-3.0, 3.0, 61)
    for j in range(n_max + 1):
        a, b = wk.kernel_spectrum(kept, j), wk.kernel_spectrum(full, j)
        assert a.atom_at_zero == b.atom_at_zero
        assert (a.negative_spectrum is None) == (b.negative_spectrum is None)
        if j:
            assert np.array_equal(a.negative_spectrum, b.negative_spectrum)
        tails = zip(mw.negative_tail_transform(kept, j, t).values,
                    mw.negative_tail_transform(full, j, t).values)
        assert all(np.array_equal(x, y) for x, y in tails)
    table_kept, table_full = mw.decomp_powers(kept), mw.decomp_powers(full)
    split_kept = mw.max_law_splits(table_kept, kept, keep)
    split_full = mw.max_law_splits(table_full, full, keep)
    for n in keep:
        a, b = split_kept[n], split_full[n]
        for part in ("bounded", "remainder_pos", "remainder_neg", "correction"):
            assert np.array_equal(getattr(a, part).values, getattr(b, part).values)
    gaps = mw.decomposition.smooth_split_identity_gaps
    assert gaps(table_kept, kept, split_kept.values()) == gaps(table_full, full, split_full.values())
    assert mw.curves_csv(mw.convergence_curves(spec, keep, walk=kept)) == mw.curves_csv(
        mw.convergence_curves(spec, keep, walk=full)
    )
    # the sum-law readers, each an ascending read of the streamed laws
    dens_kept, dens_full = mw.nagaev_density(kept, keep), mw.nagaev_density(full, keep)
    for n in keep:
        assert np.array_equal(dens_kept[n].values, dens_full[n].values)
    a = mw.spitzer_positive_law(kept, [n_max])[n_max]
    b = mw.spitzer_positive_law(full, [n_max])[n_max]
    assert a.atom_at_zero == b.atom_at_zero
    assert np.array_equal(a.density.values, b.density.values)
    assert mw.spitzer_second_moment(kept, n_max) == mw.spitzer_second_moment(full, n_max)
    for k in range(3, n_max + 1):
        assert np.array_equal(
            mw.smooth_part(table_kept, kept, k).values, mw.smooth_part(table_full, full, k).values
        )


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_kernels_match_the_full_grid_restriction(small_grid, name):
    # oracle: the full-grid route, restrict and moment over the whole window
    # of each max law, and the transform of the restricted law
    w = mw.compute_walk(mw.DistributionSpec(name), 8, small_grid)
    zero = small_grid.zero_index()
    t = np.linspace(-3.0, 3.0, 61)
    for k in range(1, 9):
        neg, neg_mass = mw.restrict(w.max_laws[k], "negative")
        assert np.array_equal(w.kernels[k].values, neg.values[w.kernel_start : zero + 1])
        for got, expected in (
            (w.nonpos_prob[k], neg_mass),
            (w.neg_moment1[k], mw.moment(w.max_laws[k], 1, "negative")),
            (w.neg_moment2[k], mw.moment(w.max_laws[k], 2, "negative")),
        ):
            assert abs(got - expected) <= 1e-14 * abs(expected)
        v0, v1, v2 = mw.charfn(neg, t, 2).values
        got = mw.negative_tail_transform(w, k, t).values
        for a, b in zip(got, (neg_mass - v0, -v1, -v2)):
            assert np.abs(a - b).max() <= 1e-15


def test_walk_restricts_no_full_grid_law(small_grid, monkeypatch):
    # each step reads the previous max law's cells in place: no restrict,
    # and every moment is taken of a kernel, on the kernel's own cells
    restricted, moment_grids = [], []
    restrict, moment = wk.restrict, wk.moment

    def recording_restrict(f, side):
        restricted.append(side)
        return restrict(f, side)

    def recording_moment(f, *args):
        moment_grids.append(f.grid)
        return moment(f, *args)

    monkeypatch.setattr(wk, "restrict", recording_restrict)
    monkeypatch.setattr(wk, "moment", recording_moment)
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    assert restricted == []
    kernel_grid = w.kernels[1].grid
    assert kernel_grid.count < small_grid.count
    assert len(moment_grids) == 2 * 8
    assert all(g is kernel_grid for g in moment_grids)


def _count_sum_products(walk, monkeypatch) -> list:
    """Wrap the walk's sum-law step (one spectral product); returns a list
    that grows by one entry per product."""
    made, step = [], walk.sum_laws._step

    def counting(k, *prev):
        result = step(k, *prev)
        made.append(k)
        return result

    monkeypatch.setattr(walk.sum_laws, "_step", counting)
    return made


def uncropped_direct_sum_laws(p, n_max):
    """Oracle: [None, S_1, ..., S_{n_max}] by the dense direct sum, each
    product kept on a window three times as wide as p's and cut to p's
    window only when it is read, so nothing a product pushes over the
    window's edges is dropped (the sum laws' pad cells keep it too)."""
    count, zero = p.grid.count, p.grid.zero_index()
    p0, p1 = wk._support(p.values)
    wide = np.zeros(3 * count)
    wide[count : 2 * count] = p.values
    laws = [None, p]
    for _ in range(2, n_max + 1):
        full = np.convolve(wide, p.values[p0:p1]) * p.grid.step
        wide = full[zero - p0 : zero - p0 + 3 * count].copy()
        laws.append(mw.GridDensity(p.grid, wide[count : 2 * count]))
    return laws


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_streamed_sum_laws_match_in_any_order(small_grid, name):
    # oracles: the walk that keeps every max law, bit for bit, and the dense
    # direct recursion S_k = p * S_{k-1} without a crop between products
    spec, n_max, keep = mw.DistributionSpec(name), 8, (3, 5, 8)
    full = mw.compute_walk(spec, n_max, small_grid)
    direct = uncropped_direct_sum_laws(full.step_density, n_max)
    shuffled = list(range(1, n_max + 1))
    random.Random(7).shuffle(shuffled)
    orders = (range(1, n_max + 1), range(n_max, 0, -1), shuffled)
    for order in orders:
        kept = mw.compute_walk(spec, n_max, small_grid, keep=keep)
        assert kept.sum_laws[0] is None and kept.sum_laws[1] is kept.step_density
        for k in order:
            law = kept.sum_laws[k]
            assert np.array_equal(law.values, full.sum_laws[k].values)
            assert np.array_equal(kept.sum_laws.spectrum(k), full.sum_laws.spectrum(k))
            sup = np.abs(direct[k].values).max()
            assert np.abs(law.values - direct[k].values).max() <= 1e-14 * sup
        assert np.array_equal(kept.sum_laws.masses(), full.sum_laws.masses(), equal_nan=True)
    with pytest.raises(IndexError):
        kept.sum_laws[n_max + 1]


def test_kept_walk_holds_few_sum_laws(monkeypatch):
    # the split's terms stop at K (the last kept q2 power or head): each n
    # makes only the kernels j = n - 1, ..., n - K, one at a time, and the
    # bounded part comes off the max law, so a split pass makes and holds
    # no sum law at all
    make_kernel = wk.kernel_spectrum
    for name, n_max, reach in (("spike", 24, 19), ("laplace", 12, 2)):
        keep = (3, 8, n_max)
        grid = mw.make_working_grid(n_max, 2**12)
        w = mw.compute_walk(mw.DistributionSpec(name), n_max, grid, keep=keep)
        table = mw.decomp_powers(w)
        rho = table.decomp.rho
        cutoff = mw.decomposition._WEIGHT_CUTOFF
        # the table ends at K: a head at every k <= K, and no kept q2 power
        # past it
        assert len(table.heads_hat) == len(table.qk2_hat) == reach + 1
        assert all(h is not None for h in table.heads_hat[1:])
        assert [k for k in range(1, n_max + 1) if rho**k >= cutoff] == [
            k for k, q2 in enumerate(table.qk2_hat) if q2 is not None
        ]
        made, spectra = [], []

        def counting_kernel(walk, index):
            assert all(ref() is None for ref in spectra)  # the last kernel is gone
            made.append(index)
            kern = make_kernel(walk, index)
            if index > 0:
                spectra.append(weakref.ref(kern.negative_spectrum))
            return kern

        monkeypatch.setattr(wk, "kernel_spectrum", counting_kernel)
        products = _count_sum_products(w, monkeypatch)
        monkeypatch.setattr(w.sum_laws, "spectrum", None)
        monkeypatch.setattr(w.sum_laws, "stream", None)
        splits = mw.max_law_splits(table, w, keep)
        assert sorted(splits) == list(keep)
        assert products == []
        assert made == [n - k for n in keep for k in range(1, min(n, reach) + 1)]
        monkeypatch.undo()


def test_scalar_csv_does_not_depend_on_the_stream(small_grid, monkeypatch):
    # the masses and the mass_p column are the same before any kernel pass
    # and after any set of passes: the table streams the sum laws to n_max
    # itself, whatever ran before it
    spec, n_max, keep = mw.DistributionSpec("mixture"), 8, (3, 5, 8)
    full = mw.compute_walk(spec, n_max, small_grid)
    expected = wk.walk_scalars_csv(full)
    for passes in ((), (keep,), ((3, 5),), ((3,), (5, 3), (5,))):
        w = mw.compute_walk(spec, n_max, small_grid, keep=keep)
        made = _count_sum_products(w, monkeypatch)
        table = mw.decomp_powers(w)
        for ns in passes:
            splits = mw.max_law_splits(table, w, ns)
            mw.nagaev_density(w, ns)
            mw.decomposition.smooth_split_identity_gaps(table, w, splits.values())
        before = len(made)
        assert wk.walk_scalars_csv(w) == expected
        assert len(made) - before == n_max - 1
        assert np.array_equal(w.sum_laws.masses(), full.sum_laws.masses(), equal_nan=True)


def walk_arrays(obj, path="walk"):
    """Every numpy array reachable from a walk's fields, by path: the
    scalar tables, the held laws and kernels, and the sum laws' state."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from walk_arrays(value, f"{path}[{key}]")
    elif hasattr(obj, "__dict__"):
        for key, value in vars(obj).items():
            yield from walk_arrays(value, f"{path}.{key}")


def test_no_reader_writes_to_a_walk(small_grid):
    # oracle: a fresh walk of the same law, which no reader has seen; after
    # every reader of the walk has run, each array of the walk keeps its bits
    spec, n_max, ns = mw.DistributionSpec("spike"), 8, (3, 8)
    w = mw.compute_walk(spec, n_max, small_grid)
    mw.nagaev_density(w, ns)
    table = mw.decomp_powers(w)
    splits = mw.max_law_splits(table, w, ns)
    mw.decomposition.smooth_split_identity_gaps(table, w, splits.values())
    wk.spitzer_nonpos_probs(w, n_max)
    mw.spitzer_positive_law(w, [n_max])
    mw.spitzer_second_moment(w, n_max)
    mw.smooth_part(table, w, n_max)
    wk.walk_scalars_csv(w)
    read = dict(walk_arrays(w))
    fresh = dict(walk_arrays(mw.compute_walk(spec, n_max, small_grid)))
    assert read.keys() == fresh.keys() and len(read) > 2 * n_max
    for path, array in fresh.items():
        assert read[path].tobytes() == array.tobytes(), path


def test_reading_a_law_not_kept_raises(small_grid, monkeypatch):
    spec = mw.DistributionSpec("gaussian")
    w = mw.compute_walk(spec, 8, small_grid, keep=(2, 8))
    for n in (0, 1, 5, 9):
        with pytest.raises(ValueError, match=r"keeps n in \[2, 8\]"):
            w.max_laws[n]
    with pytest.raises(ValueError, match="keeps n in"):
        mw.convergence_curves(spec, [2, 5], walk=w)
    assert mw.compute_walk(spec, 2, small_grid, keep=()).max_laws.kept == ()
    with pytest.raises(ValueError, match="keep must name steps"):
        mw.compute_walk(spec, 8, small_grid, keep=(2, 9))
    # convergence_curves keeps its own walk's laws at the n it reports
    seen = []
    build = mw.limits.compute_walk
    monkeypatch.setattr(mw.limits, "compute_walk", lambda *a, **kw: seen.append(kw) or build(*a, **kw))
    mw.convergence_curves(mw.DistributionSpec("uniform"), [2, 1])
    assert seen == [{"keep": [1, 2]}]


def test_kernel_sums_shares_and_drops_kernels(gaussian_walk8, monkeypatch):
    # one n at a time: its kernels n - 1, ..., 0 are made in that order, and
    # each is dropped before the next is made; it reads S_1, ..., S_n once,
    # from its own stream (n - 1 products), and no term past k = n.  Terms
    # that end before k = n end the loop there
    w = gaussian_walk8
    ns, top = (1, 3, 5, 8), 8
    expected = mw.nagaev_density(w, ns)
    stored = {k: w.sum_laws.spectrum(k).copy() for k in range(1, top + 1)}
    made, spectra, sizes, read = [], [], [], []
    make_kernel, rfft = wk.kernel_spectrum, wk.rfft

    def counting_kernel(walk, index):
        assert all(ref() is None for ref in spectra)  # the last kernel is gone
        made.append(index)
        kern = make_kernel(walk, index)
        if index > 0:
            spectra.append(weakref.ref(kern.negative_spectrum))
        return kern

    def counting_rfft(values, size):
        sizes.append(size)
        return rfft(values, size)

    def terms():
        for k, s_hat in enumerate(w.sum_laws.stream(), 1):
            read.append(k)
            assert np.array_equal(s_hat, stored[k])
            yield (s_hat, 1.0), ((w.transform(w.max_laws[k]), 0.5) if k % 2 == 0 else None)

    monkeypatch.setattr(wk, "kernel_spectrum", counting_kernel)
    monkeypatch.setattr(wk, "rfft", counting_rfft)
    products = _count_sum_products(w, monkeypatch)
    for n in ns:
        for log in (made, sizes, read, products):
            log.clear()
        sums = wk.kernel_sums(w, n, terms())
        assert len(sums) == 2
        assert np.array_equal(sums[0].total().values, expected[n].values)
        assert made == list(range(n - 1, -1, -1))
        assert all(ref() is None for ref in spectra)
        assert read == list(range(1, n + 1))
        assert products == list(range(2, n + 1))  # one product per step
        # each kernel transformed straight from its values at the pass
        # length; the streamed sum-law spectra need no transform
        assert sizes == [w.pass_size] * (n - 1)
    made.clear()
    wk.kernel_sums(w, top, [((stored[k], 1.0),) for k in (1, 2, 3)])
    assert made == [7, 6, 5]
    # the kernels' width sets the pass length here: nothing wraps around at
    # 8 steps
    assert w.pass_size == wk._pass_size(w.step_density, 8, w.kernel_start)
    kernel_size = w.grid.count + w.grid.zero_index() - w.kernel_start
    assert w.pass_size == wk.next_fast_len(kernel_size, real=True)
    assert w.pass_size < 2 * w.grid.count


@pytest.mark.parametrize("name", ["gaussian", "spike"])
def test_each_n_drops_its_sums_before_the_next_n(small_grid, name, monkeypatch):
    # nagaev_density, the splits and their oracle run one n at a time: each
    # n's KernelSum accumulators are finished and unreachable before the
    # next n's first kernel is made, so whenever a kernel is made only the
    # current n's sums are alive
    ns = (1, 3, 5, 8)
    w = mw.compute_walk(mw.DistributionSpec(name), ns[-1], small_grid)
    table = mw.decomp_powers(w)
    splits = mw.max_law_splits(table, w, ns)
    reach = len(table.heads_hat) - 1  # K: the table ends at its last head
    alive, made = [], []
    make_kernel = wk.kernel_spectrum

    class CountingSum(wk.KernelSum):
        def __init__(self, walk):
            super().__init__(walk)
            alive.append(weakref.ref(self))

    def counting_kernel(walk, index):
        made.append((index, sum(ref() is not None for ref in alive)))
        return make_kernel(walk, index)

    monkeypatch.setattr(wk, "KernelSum", CountingSum)
    monkeypatch.setattr(wk, "kernel_spectrum", counting_kernel)
    runs = (
        (1, ns[-1], lambda: mw.nagaev_density(w, ns)),
        (2, reach, lambda: mw.max_law_splits(table, w, ns)),
        (2, ns[-1], lambda: mw.decomposition.smooth_split_identity_gaps(table, w, splits.values())),
    )
    for width, terms, run in runs:
        alive.clear()
        made.clear()
        run()
        assert {live for _, live in made} == {width}
        assert made == [(n - k, width) for n in ns for k in range(1, min(n, terms) + 1)]
        assert len(alive) == width * len(ns)
        assert all(ref() is None for ref in alive)


def test_kernel_sum_parts_without_terms_are_shared_zero(gaussian_walk8):
    w = gaussian_walk8
    terms = wk.KernelSum(w)
    zero = zero_density(w.grid)
    assert terms.atom_part() is zero
    assert terms.convolutions() is zero
    assert np.all(terms.total().values == 0.0)
    # the unit atom adds the term's spectrum to the atom part alone
    terms.add(wk.kernel_spectrum(w, 0), w.sum_laws.spectrum(1), 1.0)
    assert terms.convolutions() is zero
    assert np.array_equal(terms.total().values, w.window(w.sum_laws.spectrum(1)).values)
    sup = np.abs(w.step_density.values).max()
    assert np.abs(terms.total().values - w.step_density.values).max() <= 1e-15 * sup


def lattice_max_laws(p, n_max):
    """Oracle: [None, M_1, ..., M_{n_max}] by the lattice recursion
    M_k = X + M_{k-1}^+ with dense direct products: the step law times the
    mass on the cells <= 0, plus p convolved with the cells > 0."""
    h, first = p.grid.step, p.grid.zero_index() + 1
    laws = [None, p]
    for _ in range(2, n_max + 1):
        pos = laws[-1].values.copy()
        pos[:first] = 0.0
        atom = h * laws[-1].values[:first].sum()
        laws.append(atom * p + mw.convolve(p, mw.GridDensity(p.grid, pos), "direct"))
    return laws


def assert_lattice_law(law, f, atom_tol, density_tol):
    """The half-line law of a max law f on the lattice: its atom is f's mass
    on the cells <= 0, its density f on the cells > 0 and zero below."""
    h, first = f.grid.step, f.grid.zero_index() + 1
    assert law.atom_at_zero == pytest.approx(h * f.values[:first].sum(), abs=atom_tol)
    sup = np.abs(f.values[first:]).max()
    assert np.abs(law.density.values[first:] - f.values[first:]).max() <= density_tol * sup
    assert not law.density.values[:first].any()


def test_spitzer_law_one_step(gaussian_walk8):
    # one step: the step law on the cells > 0 and its mass on the cells
    # <= 0; two steps against the dense lattice recursion (gaps measured:
    # 2.2e-16 and 3.2e-16 of the sup)
    w = gaussian_walk8
    oracle = lattice_max_laws(w.step_density, 2)
    for n in (1, 2):
        assert_lattice_law(mw.spitzer_positive_law(w, [n])[n], oracle[n], 1e-15, 2e-15)


def test_spitzer_law_matches_recursion(small_grid):
    # oracles: the walk's own max law and the dense lattice recursion; the
    # series reads the sum laws alone and agrees to rounding (1.0e-15 of
    # the sup measured)
    w = mw.compute_walk(mw.DistributionSpec("uniform"), 8, small_grid)
    law = mw.spitzer_positive_law(w, [8])[8]
    assert_lattice_law(law, w.max_laws[8], 1e-15, 1e-14)
    assert_lattice_law(law, lattice_max_laws(w.step_density, 8)[8], 1e-15, 1e-14)
    assert law.atom_at_zero + law.density.mass == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_spitzer_series_matches_direct_convolutions(small_grid, name):
    # oracle: the same series from the sum laws in space, a_k the mass on
    # the cells <= 0, mu_k the cells > 0, c_j = (1/j) sum_k a_k c_{j-k} and
    # B_m = (1/m) sum_j mu_j * B_{m-j}, each product a dense direct
    # convolution of whole windows
    n_max = 8
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, small_grid)
    h, first = small_grid.step, small_grid.zero_index() + 1
    a, mu = [None], [None]
    for k in range(1, n_max + 1):
        v = w.sum_laws[k].values.copy()
        a.append(h * v[:first].sum())
        v[:first] = 0.0
        mu.append(mw.GridDensity(small_grid, v))
    c = [1.0]
    for j in range(1, n_max + 1):
        c.append(sum(a[k] * c[j - k] for k in range(1, j + 1)) / j)
    b = [None]
    for m in range(1, n_max + 1):
        v = mu[m].values.copy()
        for j in range(1, m):
            v += mw.convolve(mu[j], b[m - j], "direct").values
        b.append(mw.GridDensity(small_grid, v / m))
    assert np.allclose(mw.spitzer_nonpos_probs(w, n_max), c, rtol=0.0, atol=1e-15)
    for n in range(1, n_max + 1):
        expected = np.maximum(sum(c[n - m] * b[m].values for m in range(1, n + 1)), 0.0)
        law = mw.spitzer_positive_law(w, [n])[n]
        assert law.atom_at_zero == pytest.approx(c[n], abs=1e-15)
        assert np.abs(law.density.values - expected).max() <= 2e-15 * expected.max()
        # every operand vanishes on the cells <= 0, and so does every product
        assert not law.density.values[:first].any()


def per_n_series(walk, n):
    """Oracle: the series law of one n as it was made one n at a time, c
    from spitzer_nonpos_probs and mu_k from a second stream of S_1..S_n,
    with B_1..B_n made for this n alone."""
    c = mw.spitzer_nonpos_probs(walk, n)
    grid = walk.grid
    h, first = grid.step, grid.zero_index() + 1
    length = 2 * (grid.count - first) - 1
    size = next_fast_len(length, real=True)
    mu = [None] + [
        irfft(s_hat, walk.pass_size)[first : grid.count].copy()
        for s_hat in islice(walk.sum_laws.stream(), n)
    ]
    mu_hat = [None] + [rfft(mu[j], size) for j in range(1, n)]
    b_hat, b_mass = [None], [None]
    dens = np.zeros(grid.count)
    for m in range(1, n + 1):
        b = mu[m].copy()
        if m > 1:
            acc = sum(mu_hat[j] * b_hat[m - j] for j in range(1, m))
            scale = sum(h * mu[j].sum() * b_mass[m - j] for j in range(1, m))
            b += from_spectrum(grid, acc, scale, size, 2 * first, length).values[first:]
        b /= m
        if m < n:
            b_hat.append(rfft(b, size))
            b_mass.append(h * b.sum())
        dens[first:] += c[n - m] * b
    return mw.HalfLineLaw(atom_at_zero=c[n], density=mw.GridDensity(grid, np.maximum(dens, 0.0)))


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_batched_series_is_the_per_n_series(name):
    # one stream and one set of B_m for all of ns give each n the bits of
    # the series made for that n alone, whatever the order and repeats of
    # ns.  The grids are the working grids of n_max 16 and 64 at one step:
    # on small_grid the laplace series at n = 16 leaves the window, and at
    # 2^12 cells the n_max 64 grid is too coarse to sample the spike
    w = mw.compute_walk(mw.DistributionSpec(name), 16, mw.make_working_grid(16, 2**12))
    cases = [(w, (2, 4, 8, 16)), (w, (16, 4, 4))]
    if name == "spike":
        deep = mw.compute_walk(mw.DistributionSpec(name), 64, mw.make_working_grid(64, 2**13))
        cases.append((deep, (64,)))
    for walk, ns in cases:
        laws = mw.spitzer_positive_law(walk, ns)
        assert sorted(laws) == sorted(set(ns))
        for n, law in laws.items():
            oracle = per_n_series(walk, n)
            assert law.atom_at_zero == oracle.atom_at_zero
            assert np.array_equal(law.density.values, oracle.density.values)
    for ns in ((), (0, 4), (4, 17)):
        with pytest.raises(ValueError):
            mw.spitzer_positive_law(w, ns)


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_series_nonpos_probs_match_the_recursion(acceptance_state, name):
    # P(M_n <= 0) from the sum laws alone against the recursion's mass on
    # the cells <= 0, at every n <= 64 on the default verify grid: the first
    # check of the mixture's, and of any asymmetric law's (the largest gap
    # measured is 1.0e-15; at n = 64 the density's is 8.2e-15 of the sup)
    w = acceptance_state[name].walk
    h, first = w.grid.step, w.grid.zero_index() + 1
    c = mw.spitzer_nonpos_probs(w, w.n_max)
    assert c[0] == 1.0
    for n in range(1, w.n_max + 1):
        assert c[n] == pytest.approx(h * w.max_laws[n].values[:first].sum(), abs=1e-14)
    # the series reads nothing the recursion made: a copy of the walk without
    # its max laws, kernels and P(max <= 0) gives the same bits
    blind = dataclasses.replace(
        w,
        max_laws=wk.KeptLaws({}),
        kernels={},
        nonpos_prob=np.full_like(w.nonpos_prob, np.nan),
    )
    law, seen = mw.spitzer_positive_law(blind, [16])[16], mw.spitzer_positive_law(w, [16])[16]
    assert law.atom_at_zero == seen.atom_at_zero == c[16]
    assert np.array_equal(law.density.values, seen.density.values)
    assert_lattice_law(mw.spitzer_positive_law(blind, [64])[64], w.max_laws[64], 1e-14, 5e-14)


def test_spitzer_second_moment_consistency(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("mixture"), 8, small_grid)
    series = mw.spitzer_second_moment(w, 8)
    grid_value = mw.moment(mw.rescale_sqrt(w.max_laws[8], 8), 2, "positive") * 8.0
    assert series == pytest.approx(grid_value, abs=8e-3)


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_spitzer_second_moment_matches_the_recursion(acceptance_state, name):
    # walk scale, on the lattice: the series moment from the sum laws
    # against the recursion's E(M_n^+)^2; the largest gap measured is
    # 8.2e-13 n
    w = acceptance_state[name].walk
    for n in (8, 64):
        expected = mw.moment(w.max_laws[n], 2, "positive")
        assert abs(mw.spitzer_second_moment(w, n) - expected) <= 2e-12 * n


@pytest.mark.parametrize("name", ["laplace", "spike"])
def test_spitzer_second_moment_reads_the_spectra(small_grid, name, monkeypatch):
    # oracle: the same series over the positive-part moments of the sum laws
    # in space; the walk reads them off the spectra with no inverse transform
    n = 8
    w = mw.compute_walk(mw.DistributionSpec(name), n, small_grid)
    e1 = np.array([mw.moment(w.sum_laws[k], 1, "positive") for k in range(1, n + 1)])
    e2 = np.array([mw.moment(w.sum_laws[k], 2, "positive") for k in range(1, n + 1)])
    a = e1 / np.arange(1, n + 1)
    expected = sum(a[k - 1] * a[: n - k].sum() for k in range(1, n))
    expected += (e2 / np.arange(1, n + 1)).sum()
    monkeypatch.setattr(wk, "irfft", None)
    assert mw.spitzer_second_moment(w, n) == pytest.approx(expected, rel=1e-13)


def test_one_step_positive_second_moment(gaussian_walk8):
    # symmetric unit-variance step: E((X^+)^2) = 1/2
    assert mw.spitzer_second_moment(gaussian_walk8, 1) == pytest.approx(0.5, abs=1e-4)


def test_positive_mean_limit(acceptance_state):
    # E(S_k^+)/sqrt(k) approaches 1/sqrt(2 pi); exact for the gaussian walk
    w = acceptance_state["gaussian"].walk
    val = mw.moment(w.sum_laws[64], 1, "positive") / 8.0
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=0.02)


def test_second_moment_frozen_value(acceptance_state):
    # frozen from the exact generating-series evaluation, confirmed by
    # simulation: E(max^+/8)^2 = 0.8927 for the gaussian walk at n = 64
    w = acceptance_state["gaussian"].walk
    m2 = mw.moment(mw.rescale_sqrt(w.max_laws[64], 64), 2, "positive")
    assert m2 == pytest.approx(0.89269, abs=2e-3)
    assert mw.spitzer_second_moment(w, 64) / 64.0 == pytest.approx(m2, abs=1e-3)


def test_first_term_split(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    rem = mw.spitzer_first_term_split(w, 2)
    assert rem.values.min() >= -1e-6
    pos_step, step_mass = mw.restrict(w.step_density, "positive")
    expected = (1.0 - w.nonpos_prob[2]) - w.nonpos_prob[1] * step_mass
    assert rem.mass == pytest.approx(expected, abs=1e-4)
    # at n = 2 the recursion gives the same split directly
    direct = mw.convolve(w.step_density, pos_step)
    direct_pos, _ = mw.restrict(direct, "positive")
    assert mw.l1_distance(rem, direct_pos) <= 1e-6
    with pytest.raises(ValueError):
        mw.spitzer_first_term_split(w, 1)


def test_scalar_table_csv(gaussian_walk8):
    from maxwalk.walk import walk_scalars_csv

    text = walk_scalars_csv(gaussian_walk8)
    lines = text.strip().splitlines()
    assert lines[0] == "k,Fbar0,abar,bbar,mass_p,mass_pbar"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(0.5, abs=1e-6)
