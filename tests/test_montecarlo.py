import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import maxwalk as mw
from maxwalk.grid import _SPEC_NAMES, _halfline_weights
from maxwalk.montecarlo import _CHUNK, default_bins, histogram_csv, summary_json


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


def test_agreement_with_grid_law(small_grid):
    walk = mw.compute_walk(mw.DistributionSpec("mixture"), 8, small_grid)
    summary = mw.simulate(mw.DistributionSpec("mixture"), 8, 10**5, 123)
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
    """The former simulation body: each chunk's uniforms drawn as one
    (samples, n) array, then clipped, mapped to steps and summed in that
    array.  The draw is elementwise, so it maps the array 32 columns at a
    time, which keeps its temporaries a tenth of the array's size at n = 300."""
    base = Philox(key=seed)
    edges = default_bins()
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    nonpos, mean_sum, m2_sum = 0, 0.0, 0.0
    for i, a in enumerate(range(0, samples, _CHUNK)):
        steps = Generator(base.jumped(i)).random((min(_CHUNK, samples - a), n))
        np.clip(steps, 1e-17, 1.0 - 1e-17, out=steps)
        for j in range(0, n, 32):
            steps[:, j : j + 32] = spec.inv_cdf(steps[:, j : j + 32])
        walk_max = np.cumsum(steps, axis=1, out=steps).max(axis=1)
        z = walk_max / math.sqrt(n)
        nonpos += int(np.count_nonzero(walk_max <= 0.0))
        mean_sum += float(z.sum())
        m2_sum += float(np.square(np.maximum(z, 0.0)).sum())
        counts += np.histogram(z, bins=edges)[0]
    return counts, nonpos / samples, mean_sum / samples, m2_sum / samples


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_blocked_draws_match_one_pass(name):
    # n = 1 and 5: two chunks, the second ending in a partial row block;
    # n = 300 does not divide the 2^14-uniform block: one chunk whose last
    # row block is partial
    spec = mw.DistributionSpec(name)
    for n, samples in ((1, _CHUNK + 4464), (5, _CHUNK + 4464), (300, 10**4)):
        summary = mw.simulate(spec, n, samples, 99)
        counts, nonpos, mean, m2 = _one_pass_sums(spec, n, samples, 99)
        assert np.array_equal(summary.bin_counts, counts)
        assert (summary.nonpos_hat, summary.mean_max_scaled, summary.m2_plus_hat) == (
            nonpos, mean, m2
        )


@pytest.mark.parametrize("name", ["gaussian", "mixture"])
def test_simulation_memory_does_not_grow_with_n(name):
    # one row block and one chunk's maxima, not a (walks, n) step matrix:
    # about 0.5-1 MiB at n = 1024, where the matrix alone is 78 MiB
    spec = mw.DistributionSpec(name)
    tracemalloc.start()
    try:
        mw.simulate(spec, 1024, 10**4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
