import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import maxwalk as mw
from maxwalk.grid import _SPEC_NAMES
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
    z, tv_hist = mw.empirical_compare(summary, walk)
    assert z <= 4.0
    allowance = mw.binning_allowance(walk, 8, summary.bin_edges, summary.samples)
    assert tv_hist <= 0.01 + allowance
    assert summary.m2_plus_hat == pytest.approx(
        mw.moment(mw.rescale_sqrt(walk.max_laws[8], 8), 2, "positive"), abs=0.02
    )


def test_bin_refinement_consistency(small_grid):
    walk = mw.compute_walk(mw.DistributionSpec("gaussian"), 8, small_grid)
    coarse = mw.simulate(mw.DistributionSpec("gaussian"), 8, 10**5, 5)
    fine = mw.simulate(
        mw.DistributionSpec("gaussian"), 8, 10**5, 5, bins=default_bins(width=0.025)
    )
    _, tv_coarse = mw.empirical_compare(coarse, walk)
    _, tv_fine = mw.empirical_compare(fine, walk)
    a1 = mw.binning_allowance(walk, 8, coarse.bin_edges, coarse.samples)
    a2 = mw.binning_allowance(walk, 8, fine.bin_edges, fine.samples)
    assert abs(tv_fine - tv_coarse) <= a1 + a2


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
    summary = mw.simulate(mw.DistributionSpec("laplace"), 4, 10**4, 3)
    with pytest.raises(ValueError):
        mw.empirical_compare(summary, walk)


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
