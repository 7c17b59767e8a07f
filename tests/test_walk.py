import math
import random
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

import maxwalk as mw
import maxwalk.walk as wk
from maxwalk.grid import _SPEC_NAMES, GridError, zero_density


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
    # oracle: the same recursion with every product by the dense direct
    # sum; the walk transforms p over its support, the positive part over
    # [zero_index, count) and the sum law over the window, each product at
    # its own fast length
    n_max = 16
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, small_grid)
    p = w.step_density
    sum_law, max_law = p, p
    for k in range(2, n_max + 1):
        sum_law = mw.convolve(p, sum_law, "direct")
        pos, _ = mw.restrict(max_law, "positive")
        _, nonpos = mw.restrict(max_law, "negative")
        max_law = nonpos * p + mw.convolve(p, pos, "direct")
        for got, expected in ((w.sum_laws[k], sum_law), (w.max_laws[k], max_law)):
            sup = np.abs(expected.values).max()
            assert np.abs(got.values - expected.values).max() <= 1e-14 * sup


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
    assert sorted(kept.kernels) == list(range(1, n_max + 1))  # every step's slice
    assert all(v.base is None for v in kept.kernels.values())  # no full-length buffer pinned
    zero = small_grid.zero_index()
    assert kept.kernel_start == min(wk._support(full.step_density.values)[0], zero)
    for k in range(1, n_max + 1):
        assert kept.kernels[k].size == zero - kept.kernel_start + 1
        assert np.array_equal(kept.kernels[k], full.kernels[k])
        assert np.array_equal(kept.sum_laws[k].values, full.sum_laws[k].values)
        neg, _ = mw.restrict(full.max_laws[k], "negative")
        assert np.array_equal(kept.negative_part(k).values, neg.values)
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
    split_kept = mw.max_law_splits(mw.decomp_powers(kept), kept, keep)
    split_full = mw.max_law_splits(mw.decomp_powers(full), full, keep)
    for n in keep:
        a, b = split_kept[n], split_full[n]
        for part in ("bounded", "remainder_pos", "remainder_neg", "correction"):
            assert np.array_equal(getattr(a, part).values, getattr(b, part).values)
        assert a.reconstruction_gap == b.reconstruction_gap
    assert mw.curves_csv(mw.convergence_curves(spec, keep, walk=kept)) == mw.curves_csv(
        mw.convergence_curves(spec, keep, walk=full)
    )
    # the sum-law readers, each an ascending read of the streamed laws
    dens_kept, dens_full = mw.nagaev_density(kept, keep), mw.nagaev_density(full, keep)
    for n in keep:
        assert np.array_equal(dens_kept[n].values, dens_full[n].values)
    a, b = mw.spitzer_positive_law(kept, n_max), mw.spitzer_positive_law(full, n_max)
    assert (a.atom_at_zero, a.mass_tol) == (b.atom_at_zero, b.mass_tol)
    assert np.array_equal(a.density.values, b.density.values)
    assert mw.spitzer_second_moment(kept, n_max) == mw.spitzer_second_moment(full, n_max)
    table_kept, table_full = mw.decomp_powers(kept), mw.decomp_powers(full)
    for k in range(3, n_max + 1):
        assert np.array_equal(
            mw.smooth_part(table_kept, k).values, mw.smooth_part(table_full, k).values
        )


def _count_sum_convolutions(walk, monkeypatch, check=None) -> list:
    """Wrap the walk's sum-law product, calling `check` before each; returns
    a list that grows by one entry per product."""
    made, convolve = [], walk.sum_laws._convolve

    def counting(f):
        if check is not None:
            check()
        law = convolve(f)
        made.append(1)
        return law

    monkeypatch.setattr(walk.sum_laws, "_convolve", counting)
    return made


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_streamed_sum_laws_match_in_any_order(small_grid, name):
    # oracles: the walk that holds every sum law, bit for bit, and the dense
    # direct recursion S_k = p * S_{k-1}
    spec, n_max, keep = mw.DistributionSpec(name), 8, (3, 5, 8)
    full = mw.compute_walk(spec, n_max, small_grid)
    p, direct = full.step_density, [None, full.step_density]
    for k in range(2, n_max + 1):
        direct.append(mw.convolve(p, direct[-1], "direct"))
    shuffled = list(range(1, n_max + 1))
    random.Random(7).shuffle(shuffled)
    orders = (range(1, n_max + 1), range(n_max, 0, -1), shuffled)
    for order in orders:
        kept = mw.compute_walk(spec, n_max, small_grid, keep=keep)
        assert kept.sum_laws[0] is None and kept.sum_laws[1] is kept.step_density
        for k in order:
            law = kept.sum_laws[k]
            assert np.array_equal(law.values, full.sum_laws[k].values)
            sup = np.abs(direct[k].values).max()
            assert np.abs(law.values - direct[k].values).max() <= 1e-14 * sup
            assert len(kept.sum_laws.held) <= len(keep) + 2
        assert np.array_equal(kept.sum_mass, full.sum_mass, equal_nan=True)
    with pytest.raises(IndexError):
        kept.sum_laws[n_max + 1]


def test_kept_walk_holds_few_sum_laws(small_grid, monkeypatch):
    spec, n_max, keep = mw.DistributionSpec("spike"), 8, (3, 5, 8)
    w = mw.compute_walk(spec, n_max, small_grid, keep=keep)
    table = mw.decomp_powers(w)
    assert w.sum_laws.held == (1,)  # building the walk and the table makes none

    def bounded():
        assert len(w.sum_laws.held) <= len(keep) + 2

    made = _count_sum_convolutions(w, monkeypatch, bounded)
    splits = mw.max_law_splits(table, w, keep)
    assert sorted(splits) == list(keep)
    bounded()
    assert set(keep) <= set(w.sum_laws.held)
    assert len(made) == n_max - 1  # one ascending stream, each law made once


def test_scalar_csv_does_not_depend_on_the_stream(small_grid, monkeypatch):
    # the mass_p column is the same before any kernel pass, after a full
    # one and after one that stopped short of n_max; finishing the stream
    # makes only the laws not made yet
    spec, n_max, keep = mw.DistributionSpec("mixture"), 8, (3, 5, 8)
    expected = wk.walk_scalars_csv(mw.compute_walk(spec, n_max, small_grid))
    for ns in (None, keep, (3, 5)):
        w = mw.compute_walk(spec, n_max, small_grid, keep=keep)
        made = _count_sum_convolutions(w, monkeypatch)
        if ns is not None:
            mw.max_law_splits(mw.decomp_powers(w), w, ns)
            assert len(made) == max(ns) - 1
        assert wk.walk_scalars_csv(w) == expected
        assert len(made) == n_max - 1


def test_threads_share_a_kept_walk(small_grid):
    spec, n_max = mw.DistributionSpec("laplace"), 16
    full = mw.compute_walk(spec, n_max, small_grid)
    w = mw.compute_walk(spec, n_max, small_grid, keep=(4, 9))
    start = threading.Barrier(2)
    seen = {}

    def read(order):
        start.wait()
        seen[order[0]] = {k: w.sum_laws[k].values for k in order}

    threads = [
        threading.Thread(target=read, args=(order,))
        for order in (range(1, n_max + 1), range(n_max, 0, -1))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for laws in seen.values():
        assert sorted(laws) == list(range(1, n_max + 1))
        for k, values in laws.items():
            assert np.array_equal(values, full.sum_laws[k].values)


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
    w = gaussian_walk8
    ns, top = (1, 3, 5, 8), 8
    expected = mw.nagaev_density(w, ns)
    made, spectra, transformed, given, sizes = [], {}, [], {}, set()
    make_kernel, transform = wk.kernel_spectrum, wk.spectrum

    def counting_kernel(walk, index):
        made.append(index)
        kern = make_kernel(walk, index)
        if index > 0:
            spectra[index] = weakref.ref(kern.negative_spectrum)
        return kern

    def counting_transform(f, size, *cells):
        transformed.append(f)
        sizes.add(size)
        return transform(f, size, *cells)

    monkeypatch.setattr(wk, "kernel_spectrum", counting_kernel)
    monkeypatch.setattr(wk, "spectrum", counting_transform)

    def parts(k):
        # kernel j serves no step after k = top - j; the pass holds no other
        live = {j for j, ref in spectra.items() if ref() is not None}
        assert live == {j for j in spectra if j <= top - k}
        given[k] = (w.sum_laws[k], w.max_laws[k] if k % 2 == 0 else None)
        return ((w.sum_laws[k], 1.0), (w.max_laws[k], 0.5) if k % 2 == 0 else None)

    yielded = []
    for n, sums in wk.kernel_sums(w, ns, parts):
        assert max(given) == n  # yielded right after step n
        yielded.append(n)
        assert len(sums) == 2
        assert np.array_equal(sums[0].total().values, expected[n].values)
        del sums
    assert yielded == list(ns)
    assert sorted(made) == sorted(set(made))  # each kernel made once
    assert set(made) == {n - k for k in range(1, top + 1) for n in ns if n >= k}
    assert all(ref() is None for ref in spectra.values())
    # every transform of the pass, kernels and parts, at the kernel length
    assert sizes == {wk._kernel_size(w.grid)}
    assert wk._kernel_size(w.grid) < 2 * w.grid.count
    # each part transformed once per step, none at the last step (kernel 0 only)
    for k, densities in given.items():
        for f in densities:
            if f is not None:
                assert sum(g is f for g in transformed) == (k < top)


def test_kernel_sum_parts_without_terms_are_shared_zero(gaussian_walk8):
    terms = wk.KernelSum(gaussian_walk8.grid)
    zero = zero_density(gaussian_walk8.grid)
    assert terms.atom_part() is zero
    assert terms.convolutions() is zero
    assert np.all(terms.total().values == 0.0)
    terms.add(wk.kernel_spectrum(gaussian_walk8, 0), gaussian_walk8.step_density, 1.0, None)
    assert terms.convolutions() is zero
    assert np.array_equal(terms.total().values, gaussian_walk8.step_density.values)


def test_spitzer_law_one_step(gaussian_walk8):
    law = mw.spitzer_positive_law(gaussian_walk8, 1)
    pos, mass = mw.restrict(gaussian_walk8.step_density, "positive")
    assert law.atom_at_zero == pytest.approx(gaussian_walk8.nonpos_prob[1], abs=1e-12)
    assert mw.l1_distance(law.density, pos) <= 1e-12


def test_spitzer_law_matches_recursion(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("uniform"), 8, small_grid)
    law = mw.spitzer_positive_law(w, 8)
    assert law.atom_at_zero == pytest.approx(w.nonpos_prob[8], abs=8e-6)
    pos, _ = mw.restrict(w.max_laws[8], "positive")
    assert mw.l1_distance(law.density, pos) <= 1e-3


def test_spitzer_second_moment_consistency(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("mixture"), 8, small_grid)
    series = mw.spitzer_second_moment(w, 8)
    grid_value = mw.moment(mw.rescale_sqrt(w.max_laws[8], 8), 2, "positive") * 8.0
    assert series == pytest.approx(grid_value, abs=8e-3)


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
