import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import PCG64, Generator

import maxwalk as mw
from maxwalk.grid import _SPEC_NAMES, _halfline_weights
from maxwalk.montecarlo import _CHUNK, _GROUP, default_bins, histogram_csv, summary_json


def test_reproducible_summaries():
    spec = mw.DistributionSpec("uniform")
    a = mw.simulate(spec, 8, 10**4, 31415)
    b = mw.simulate(spec, 8, 10**4, 31415)
    assert summary_json(a) == summary_json(b)
    assert np.array_equal(a.bin_counts, b.bin_counts)
    c = mw.simulate(spec, 8, 10**4, 31416)
    assert not np.array_equal(a.bin_counts, c.bin_counts)


def test_sample_floor():
    with pytest.raises(ValueError):
        mw.simulate(mw.DistributionSpec("gaussian"), 8, 10**3, 1)


def test_one_step_symmetric():
    summary = mw.simulate(mw.DistributionSpec("gaussian"), 1, 10**5, 7)
    assert abs(summary.nonpos_hat - 0.5) <= 3 * summary.nonpos_se


def test_histogram_accounts_for_everything():
    summary = mw.simulate(mw.DistributionSpec("laplace"), 4, 10**4, 11)
    total = int(summary.bin_counts.sum()) + summary.underflow + summary.overflow
    assert total == summary.samples


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_agreement_with_grid_law(small_grid, name):
    walk = mw.compute_walk(mw.DistributionSpec(name), 8, small_grid)
    summary = mw.simulate(mw.DistributionSpec(name), 8, 10**5, 123)
    sim = mw.compare(summary, walk)
    assert sim.nonpos_z <= 4.0
    assert sim.tv <= 0.01 + sim.allowance
    assert summary.m2_plus_hat == pytest.approx(
        mw.moment(mw.rescale_sqrt(walk.max_laws[8], 8), 2, "positive"), abs=0.02
    )


def test_bin_refinement_consistency(small_grid):
    walk = mw.compute_walk(mw.DistributionSpec("gaussian"), 8, small_grid)
    coarse = mw.compare(mw.simulate(mw.DistributionSpec("gaussian"), 8, 10**5, 5), walk)
    fine = mw.compare(
        mw.simulate(mw.DistributionSpec("gaussian"), 8, 10**5, 5, bins=default_bins(width=0.025)),
        walk,
    )
    assert abs(fine.tv - coarse.tv) <= coarse.allowance + fine.allowance


def test_mean_limit_large_n():
    # E(max/sqrt(n)) approaches E|Z| = sqrt(2/pi) from below
    summary = mw.simulate(mw.DistributionSpec("gaussian"), 64, 2 * 10**5, 2024)
    assert summary.mean_max_scaled == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=0.08
    )
    assert summary.mean_max_scaled < math.sqrt(2.0 / math.pi)


def test_serialization_formats():
    summary = mw.simulate(mw.DistributionSpec("spike"), 4, 10**4, 17)
    text = summary_json(summary)
    assert '"spec": "spike"' in text and '"seed": 17' in text
    hist = histogram_csv(summary)
    lines = hist.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1].startswith("-inf,")
    assert lines[-1].endswith(f",{summary.overflow}")


def test_mismatched_compare_rejected(small_grid):
    walk = mw.compute_walk(mw.DistributionSpec("gaussian"), 4, small_grid)
    other_law = mw.simulate(mw.DistributionSpec("laplace"), 4, 10**4, 3)
    longer_walk = mw.simulate(mw.DistributionSpec("gaussian"), 8, 10**4, 3)
    for summary in (other_law, longer_walk):
        with pytest.raises(ValueError):
            mw.compare(summary, walk)


def _separate_readings(summary, walk) -> tuple:
    """The simulation statistics as they were read one by one: the z-score
    and histogram TV of the former empirical_compare, the former
    binning_allowance, and the mean and second-moment z-scores verify wrote
    out, each rescaling the n-step law on its own."""
    n, samples = summary.n, summary.samples

    def bin_masses(law, edges):
        cum = np.concatenate(([0.0], np.cumsum(law.values) * law.grid.step))
        cdf_at = np.interp(edges, law.grid.edges(), cum, left=0.0, right=cum[-1])
        return np.diff(cdf_at), float(cdf_at[0]), float(cum[-1] - cdf_at[-1])

    z = abs(summary.nonpos_hat - float(walk.nonpos_prob[n])) / summary.nonpos_se
    law = mw.rescale_sqrt(walk.max_laws[n], n)
    inner, under, over = bin_masses(law, summary.bin_edges)
    emp = summary.bin_counts / samples
    tv = 0.5 * (
        float(np.abs(emp - inner).sum())
        + abs(summary.underflow / samples - under)
        + abs(summary.overflow / samples - over)
    )
    law = mw.rescale_sqrt(walk.max_laws[n], n)
    inner, under, over = bin_masses(law, summary.bin_edges)
    masses = np.clip(np.concatenate((inner, [under, over])), 0.0, 1.0)
    allowance = float(0.5 * np.sum(np.sqrt(masses * (1.0 - masses) / samples)))

    star = mw.rescale_sqrt(walk.max_laws[n], n)
    mean_grid = mw.moment(star, 1, "all")
    var = mw.moment(star, 2, "all") - mean_grid**2
    se = math.sqrt(max(var, 1e-12) / samples)
    mean_z = abs(summary.mean_max_scaled - mean_grid) / se

    grid_m2 = mw.moment(star, 2, "positive")
    x = walk.grid.centers()
    w = _halfline_weights(walk.grid, "positive")
    m4 = float(np.sum(w * x**4 * star.values))
    se = math.sqrt(max(m4 - grid_m2**2, 1e-12) / samples)
    m2_z = abs(grid_m2 - summary.m2_plus_hat) / se
    return z, mean_z, m2_z, tv, allowance


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_compare_is_the_separate_readings(small_grid, name):
    spec = mw.DistributionSpec(name)
    walk = mw.compute_walk(spec, 8, small_grid)
    summary = mw.simulate(spec, 8, 10**4, 41)
    sim = mw.compare(summary, walk)
    assert (sim.nonpos_z, sim.mean_z, sim.m2_z, sim.tv, sim.allowance) == _separate_readings(
        summary, walk
    )


def _one_pass_sums(spec, n, samples, seed):
    """The step-major simulation drawn in one piece per group: each group of
    up to _GROUP walks of a chunk takes its uniforms as one (n, walks) matrix
    in step order, floors them at 1e-17, maps them to steps and takes the
    maximum of the cumulative sums down the steps."""
    base = PCG64(seed)
    edges = default_bins()
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    nonpos, mean_sum, m2_sum = 0, 0.0, 0.0
    for i, a in enumerate(range(0, samples, _CHUNK)):
        rng = Generator(base.jumped(i))
        walk_max = np.empty(min(_CHUNK, samples - a))
        for g in range(0, walk_max.size, _GROUP):
            u = rng.random((n, min(_GROUP, walk_max.size - g)))
            steps = spec.inv_cdf(np.maximum(u, 1e-17))
            walk_max[g : g + u.shape[1]] = np.cumsum(steps, axis=0).max(axis=0)
        z = walk_max / math.sqrt(n)
        nonpos += int(np.count_nonzero(walk_max <= 0.0))
        mean_sum += float(z.sum())
        m2_sum += float(np.square(np.maximum(z, 0.0)).sum())
        counts += np.histogram(z, bins=edges)[0]
    return counts, nonpos / samples, mean_sum / samples, m2_sum / samples


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_blocked_draws_match_one_pass(name):
    # n = 1 and 5: two chunks, the second ending in a partial group of walks,
    # and fewer steps than one block holds; n = 300 is not a multiple of the
    # block's steps: one chunk whose last group and last step block are partial
    spec = mw.DistributionSpec(name)
    for n, samples in ((1, _CHUNK + 4464), (5, _CHUNK + 4464), (300, 10**4)):
        summary = mw.simulate(spec, n, samples, 99)
        counts, nonpos, mean, m2 = _one_pass_sums(spec, n, samples, 99)
        assert np.array_equal(summary.bin_counts, counts)
        assert (summary.nonpos_hat, summary.mean_max_scaled, summary.m2_plus_hat) == (
            nonpos, mean, m2
        )


def test_many_seed_means_are_unbiased():
    # Gaussian walk, n = 16: P(M_16 <= 0) = C(32, 16) / 4^16 (Sparre Andersen)
    # and E max(S_1..S_16) = sum_{k<16} (2 pi k)^(-1/2) (Spitzer).  The pooled
    # 12-seed mean of nonpos_hat is read in its binomial standard error, that
    # of mean_max_scaled in the standard error of the 12 per-seed means.
    # Measured: 2.45 and 1.72 standard errors (over 200 seeds the per-seed
    # z-scores of nonpos_hat have mean -0.01 and variance 1.01).  At these
    # 1.2e6 walks 4 standard errors of nonpos_hat are 1.45e-3.
    n, samples, seeds = 16, 10**5, range(12)
    runs = [mw.simulate(mw.DistributionSpec("gaussian"), n, samples, s) for s in seeds]
    p = math.comb(2 * n, n) / 4.0**n
    nonpos = np.mean([r.nonpos_hat for r in runs])
    assert abs(nonpos - p) <= 4.0 * math.sqrt(p * (1.0 - p) / (samples * len(seeds)))
    mean = sum((2.0 * math.pi * k) ** -0.5 for k in range(1, n)) / math.sqrt(n)
    means = np.array([r.mean_max_scaled for r in runs])
    assert abs(means.mean() - mean) <= 4.0 * means.std(ddof=1) / math.sqrt(len(seeds))


@pytest.mark.parametrize(
    "bins", [[0.0, np.nan, 1.0], [0.0], [], [[0.0, 1.0], [2.0, 3.0]], [1.0, 0.0, 2.0],
             [0.0, 0.0, 1.0], [0.0, np.inf]],
    ids=["nan", "one-edge", "empty", "2-d", "non-monotone", "repeated", "inf"],
)
def test_bad_bins_rejected_before_any_draw(monkeypatch, bins):
    def no_draws(*args):
        raise AssertionError("drew before checking the bins")

    monkeypatch.setattr(mw.montecarlo, "Generator", no_draws)
    with pytest.raises(ValueError):
        mw.simulate(mw.DistributionSpec("gaussian"), 64, 10**5, 1, bins=bins)


@pytest.mark.parametrize("name", ["gaussian", "mixture"])
def test_simulation_memory_does_not_grow_with_n(name):
    # one step block and one chunk's maxima, not a (walks, n) step matrix:
    # about 0.5-1 MiB at n = 1024, where the matrix alone is 78 MiB
    spec = mw.DistributionSpec(name)
    tracemalloc.start()
    try:
        mw.simulate(spec, 1024, 10**4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
