import math
from bisect import bisect_left

import numpy as np
import pytest

import maxwalk as mw
import maxwalk.decomposition as dc
import maxwalk.grid as gr
import maxwalk.walk as wk
from maxwalk.decomposition import (
    _WEIGHT_CUTOFF,
    binomial_log_weight,
    diagnostics_csv,
    smooth_split_identity_gaps,
    split_spectra,
)
from maxwalk.grid import _SPEC_NAMES, GridError, _support, zero_density


def smooth_part_mass(table, k: int) -> float:
    """Expected mass of smooth_part: 1 - sum_{j<=2} C(k,j)(1-rho)^j rho^(k-j)."""
    rho = table.decomp.rho
    if rho == 0.0:
        return 1.0
    head = sum(binomial_log_weight(k, j, rho) for j in range(0, min(2, k) + 1))
    return 1.0 - head


def sum_law_split(table, w, k, s_hat=None):
    """split_spectra's (bounded, q2) for S_k, with the transforms made for k
    alone; s_hat is S_k's spectrum (default: streamed from the walk)."""
    if s_hat is None:
        s_hat = w.sum_laws.spectrum(k)
    return split_spectra(table, w, (k,))(k, s_hat)[:2]


def apply_kernel_direct(f, w, j):
    """f convolved with the signed kernel G_j, one term on its own, by the
    dense O(N^2) convolution: G_0 is the unit atom, and G_j for j >= 1 the
    atom P(max_j <= 0) minus the negative part of the j-step max law."""
    if j == 0:
        return f
    neg, _ = mw.restrict(w.max_laws[j], "negative")
    return w.nonpos_prob[j] * f - mw.convolve(f, neg, "direct")


def spike_truncation_mass(M: float) -> float:
    """Closed form for the mass of the spike density above level M:
    the density |x|^{-1/2}/(4*5^(1/4)) exceeds M on |x| < x1 = (4*5^(1/4)*M)^{-2},
    and the excess is sqrt(x1)/5^(1/4) - 2*M*x1."""
    c = 4.0 * 5.0**0.25
    x1 = (c * M) ** -2
    return math.sqrt(x1) / 5.0**0.25 - 2.0 * M * x1


def test_bounded_split_is_trivial(small_grid):
    p = mw.sample_density(mw.DistributionSpec("uniform"), small_grid)
    d = mw.binomial_split(p, 1.0)
    assert d.rho == 0.0
    assert np.array_equal(d.q1.values, p.values)
    assert np.all(d.q2.values == 0.0)


def test_spike_split_at_level_one(small_grid):
    p = mw.sample_density(mw.DistributionSpec("spike"), small_grid)
    d = mw.binomial_split(p, 1.0)
    assert 0.0 < d.rho < 0.5
    # cell-averaged clipping at the singular cells costs O(step^(1/2)) mass
    assert d.rho == pytest.approx(spike_truncation_mass(1.0), abs=5e-4)
    recon = (1.0 - d.rho) * d.q1.values + d.rho * d.q2.values
    assert np.abs(recon - p.values).max() <= 1e-10
    assert d.q2.mass == pytest.approx(1.0, abs=1e-4)


def test_split_default_threshold(small_grid):
    p = mw.sample_density(mw.DistributionSpec("spike"), small_grid)
    d = mw.binomial_split(p)
    assert 0.0 < d.rho < 0.5
    assert d.q1.values.max() <= d.bound_M * (1.0 + 1e-9)


def test_split_rejects_excessive_truncation(small_grid):
    p = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    with pytest.raises(GridError) as err:
        mw.binomial_split(p, 1e-4)
    assert "need M >" in str(err.value)


def test_binomial_weights_sum_to_one():
    for rho in (0.0, 0.1247, 0.4):
        for k in (1, 7, 32, 64):
            total = sum(binomial_log_weight(k, j, rho) for j in range(k + 1))
            assert abs(total - 1.0) <= 1e-12


def test_power_table_trivial_when_bounded(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    table = mw.decomp_powers(w)
    d = table.decomp
    assert np.array_equal(d.q1.values, w.step_density.values)
    for k in (1, 4, 8):
        # every q2 power is dropped: the bounded term is the walk's sum-law
        # spectrum itself
        s_hat = w.sum_laws.spectrum(k)
        bounded, q2_hat = sum_law_split(table, w, k, s_hat)
        assert bounded is s_hat
        assert q2_hat is None
        assert np.all(table.qk2[k].values == 0.0)


def test_power_table_reconstructs_spike(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    table = mw.decomp_powers(w)
    d = table.decomp
    assert np.array_equal(table.qk2[1].values, d.q2.values)
    # one step: the bounded term is (1 - rho) q1, the step law's clipped part
    bounded = w.window(sum_law_split(table, w, 1)[0]).values
    clipped = (1.0 - d.rho) * d.q1.values
    assert np.abs(bounded - clipped).max() <= 1e-12 * np.abs(clipped).max()
    for k in (2, 5, 8):
        rho_k = d.rho**k
        bounded, q2_hat = sum_law_split(table, w, k)
        assert np.array_equal(q2_hat, w.transform(table.qk2[k]))
        recon = w.window(bounded) + rho_k * table.qk2[k]
        assert mw.l1_distance(recon, w.sum_laws[k]) <= 1e-6
        assert np.abs(recon.values - w.sum_laws[k].values).max() <= k * 1e-9
        assert w.window(bounded).mass == pytest.approx(1.0 - rho_k, abs=k * 1e-6)
        assert table.qk2[k].mass == pytest.approx(1.0, abs=k * 1e-6)


def binomial_double_sum(d, n):
    """qk1[k] and the one-/two-factor head for k = 2..n as the weighted
    (k, j) sum of the split, with terms
    C(k, j) (1-rho)^j rho^(k-j) q1^{*j} * q2^{*(k-j)} for j = 1..k below the
    weight cutoff dropped: qk1[k] is their sum / (1 - rho^k), a probability
    density (the split's bounded term is (1 - rho^k) qk1[k]), the head the
    terms j <= 2."""
    pow1, pow2 = [None, d.q1], [None, d.q2]
    for _ in range(2, n + 1):
        pow1.append(mw.convolve(pow1[-1], d.q1))
        pow2.append(mw.convolve(pow2[-1], d.q2))
    qk1, heads = {}, {}
    for k in range(2, n + 1):
        terms = {k: binomial_log_weight(k, k, d.rho) * pow1[k].values}
        for j in range(1, k):
            w = binomial_log_weight(k, j, d.rho)
            if w >= _WEIGHT_CUTOFF:
                terms[j] = w * mw.convolve(pow1[j], pow2[k - j]).values
        qk1[k] = sum(terms.values()) / (1.0 - d.rho**k)
        heads[k] = terms.get(1, 0.0) + terms.get(2, 0.0)
    return qk1, heads


@pytest.mark.parametrize("name, M", [("spike", None), ("gaussian", 0.3)])
def test_power_table_matches_binomial_double_sum(name, M):
    # the grid holds a 16-step walk: on a window sized for fewer steps the
    # two routes crop different intermediate products and part by ~1e-7
    n = 16
    grid = mw.make_working_grid(n, 2**12)
    w = mw.compute_walk(mw.DistributionSpec(name), n, grid)
    table = mw.decomp_powers(w, M)
    d = table.decomp
    assert d.rho > 0
    qk1, heads = binomial_double_sum(d, n)
    for k in qk1:
        bounded = (1.0 - d.rho**k) * qk1[k]
        for got, expected in (
            (w.window(sum_law_split(table, w, k)[0]), bounded),
            (table.heads[k], heads[k]),
        ):
            assert np.abs(got.values - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(table.heads[1].values, (1.0 - d.rho) * d.q1.values)
    dropped = [k for k in range(1, n + 1) if d.rho**k < _WEIGHT_CUTOFF]
    assert (name == "gaussian") == bool(dropped)  # rho = 0.097: 16 is dropped
    for k in range(1, n + 1):
        if k in dropped:
            assert np.all(table.qk2[k].values == 0.0)
            s_hat = w.sum_laws.spectrum(k)
            assert sum_law_split(table, w, k, s_hat)[0] is s_hat
        else:
            assert table.qk2[k].mass == pytest.approx(1.0, abs=k * 1e-6)


def _linear_span(grid, factors) -> tuple[int, int]:
    """[first, last + 1) of the linear convolution of the factors' supports,
    as window cells, cut to the window."""
    zero = grid.zero_index()
    bounds = [_support(f.values) for f in factors]
    shift = (len(bounds) - 1) * zero
    first = sum(a for a, _ in bounds) - shift
    last = sum(b - 1 for _, b in bounds) - shift
    return max(first, 0), min(last + 1, grid.count)


def test_spike_powers_span_their_linear_support(small_grid):
    # each q2 power and head is a chain of trimmed linear convolutions, so it
    # spans no more cells than its factors' supports allow
    n = 8
    w = mw.compute_walk(mw.DistributionSpec("spike"), n, small_grid)
    table = mw.decomp_powers(w)
    d = table.decomp
    assert d.rho**n >= _WEIGHT_CUTOFF  # every q2 power is kept
    for k in range(2, n + 1):
        spans = {"qk2": _linear_span(small_grid, [d.q2] * k)}
        # the head's terms j <= 2 are q1^{*j} * q2^{*(k-j)}: their hull
        terms = [_linear_span(small_grid, [d.q1] * j + [d.q2] * (k - j))
                 for j in range(1, min(k, 2) + 1)]
        spans["heads"] = (min(a for a, _ in terms), max(b for _, b in terms))
        for part, (lo, hi) in spans.items():
            first, stop = _support(getattr(table, part)[k].values)
            assert lo <= first < stop <= hi, (part, k)
            assert hi - lo < small_grid.count // 2, (part, k)


def test_no_product_runs_at_twice_the_cell_count(small_grid, monkeypatch):
    # every transform of the split and of the Spitzer series covers its
    # operands' supports, or runs at the kernel pass's length; none
    # transforms whole windows at 2 * count points
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    sizes = []

    def recording(fn, default):
        def wrapped(x, n=None, *args, **kwargs):
            sizes.append(default(x) if n is None else n)
            return fn(x, n, *args, **kwargs)
        return wrapped

    for mod in (gr, wk):
        monkeypatch.setattr(mod, "rfft", recording(mod.rfft, lambda x: np.shape(x)[-1]))
        monkeypatch.setattr(mod, "irfft", recording(mod.irfft, lambda x: 2 * np.shape(x)[-1] - 2))
    table = mw.decomp_powers(w)
    mw.max_law_splits(table, w, [2, 5, 8])
    for n in range(1, 9):
        mw.spitzer_positive_law(w, n)
    assert sizes and 2 * small_grid.count not in sizes
    assert not {"spectrum", "from_spectrum"} & set(vars(dc))


def test_bounded_approximation_degenerates(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("gaussian"), 8, small_grid)
    table = mw.decomp_powers(w)
    split = mw.max_law_splits(table, w, [8])[8]
    assert np.array_equal(split.bounded.values, w.max_laws[8].values)
    assert split.remainder_pos.mass == 0.0
    assert split.remainder_neg.mass == 0.0
    # rho = 0: both remainders are the grid's one shared zero density
    assert split.remainder_pos is split.remainder_neg is zero_density(w.grid)


def test_bounded_approximation_reconstruction_spike(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    table = mw.decomp_powers(w)
    split = mw.max_law_splits(table, w, [8])[8]
    recon = split.bounded + split.remainder_pos - split.remainder_neg
    assert np.abs(recon.values - w.max_laws[8].values).max() <= 1e-14  # by construction
    # oracle: the bounded part built from the sum laws by the kernel sum
    recon_gap, _ = smooth_split_identity_gaps(table, w, [split])[8]
    assert recon_gap <= 8e-8
    assert split.remainder_pos.values.min() >= -1e-12
    assert split.remainder_neg.values.min() >= -1e-12


def test_correction_term_two_term_collapse(small_grid):
    # bounded step law: only the one- and two-factor terms survive
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 6, small_grid)
    table = mw.decomp_powers(w)
    n = 6
    rn = mw.max_law_splits(table, w, [n])[n].correction
    direct = (
        apply_kernel_direct(w.step_density, w, n - 1).values
        + apply_kernel_direct(w.sum_laws[2], w, n - 2).values
    )
    expected = mw.rescale_sqrt(mw.GridDensity(w.grid, direct), n)
    assert np.abs(rn.values - expected.values).max() <= 1e-12


def per_term_direct_split(w, table, n):
    """The bounded part, the convolution remainder and the correction term
    (before rescaling) of the n-step split, every kernel term convolved on
    its own by the dense path and summed in space."""
    rho = table.decomp.rho
    cutoff = 1e-16
    bounded = np.zeros(w.grid.count)
    rem_neg = np.zeros(w.grid.count)
    corr = np.zeros(w.grid.count)
    q1 = table.decomp.q1
    q1q1 = mw.convolve(q1, q1)
    for k in range(1, n + 1):
        j = n - k
        # the terms of S_k with a bounded factor, in space (qk2[k] is zero
        # where it is dropped)
        base = w.sum_laws[k] - rho**k * table.qk2[k]
        bounded += apply_kernel_direct(base, w, j).values
        if rho > 0 and rho**k >= cutoff and j > 0:
            neg, _ = mw.restrict(w.max_laws[j], "negative")
            rem_neg += rho**k * mw.convolve(table.qk2[k], neg, "direct").values
        w1 = k * (1.0 - rho) * rho ** (k - 1)
        if k == 1:
            corr += w1 * apply_kernel_direct(q1, w, j).values
        elif w1 >= cutoff:
            base1 = mw.convolve(q1, table.qk2[k - 1], "direct")
            corr += w1 * apply_kernel_direct(base1, w, j).values
        if k >= 2:
            w2 = math.comb(k, 2) * (1.0 - rho) ** 2 * rho ** (k - 2)
            if k == 2:
                corr += w2 * apply_kernel_direct(q1q1, w, j).values
            elif w2 >= cutoff:
                base2 = mw.convolve(q1q1, table.qk2[k - 2], "direct")
                corr += w2 * apply_kernel_direct(base2, w, j).values
    return bounded, rem_neg, corr


@pytest.mark.parametrize("name", ["gaussian", "spike"])
def test_kernel_sums_match_per_term_direct(small_grid, name):
    # oracle: every kernel term convolved on its own by the dense path and
    # summed in space, against the single summed inverse transform; one
    # batch of four n shares and drops kernels between the splits
    ns = (1, 3, 5, 8)
    w = mw.compute_walk(mw.DistributionSpec(name), ns[-1], small_grid)
    table = mw.decomp_powers(w)
    rho = table.decomp.rho
    splits = mw.max_law_splits(table, w, ns)
    assert sorted(splits) == list(ns)
    for n in ns:
        bounded, rem_neg, corr = per_term_direct_split(w, table, n)
        split = splits[n]
        assert split.n == n
        expected_rn = mw.rescale_sqrt(mw.GridDensity(small_grid, corr), n).values
        for got, expected in (
            (split.bounded.values, bounded),
            (split.remainder_neg.values, rem_neg),
            (split.correction.values, expected_rn),
        ):
            sup = np.abs(got).max()
            assert np.abs(got - expected).max() <= 1e-12 * sup
        # one step has no kernel to convolve with: no convolution remainder
        assert (np.abs(rem_neg).max() > 0) == (name == "spike" and n > 1)
    assert (rho > 0) == (name == "spike")


def k_major_kernel_sums(walk, ns, parts):
    """Oracle: the kernel pass in k order, as the walk ran it before the
    kernel-major pass.  parts is called once per k with S_k's spectrum
    (SumLaws.spectrum), and each kernel is made on first use and held
    until its last, k = max(ns) - j."""
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("ns must name at least one n")
    for n in ns:
        walk.check_index(n)
    top = ns[-1]
    held: dict = {}
    sums: dict = {}
    for k in range(1, top + 1):
        terms = parts(k, walk.sum_laws.spectrum(k))
        if k == 1:
            sums = {n: tuple(wk.KernelSum(walk) for _ in terms) for n in ns}
        for i, term in enumerate(terms):
            if term is None:
                continue
            f_hat, weight = term
            for n in ns[bisect_left(ns, k):]:
                if n - k not in held:
                    held[n - k] = wk.kernel_spectrum(walk, n - k)
                sums[n][i].add(held[n - k], f_hat, weight)
        held.pop(top - k, None)
    return sums


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_kernel_major_pass_matches_the_k_major_oracle(small_grid, name, monkeypatch):
    # every sum adds its terms in the same ascending k with the same
    # spectra, so the kernel-major pass changes no bit
    spec, ns = mw.DistributionSpec(name), (1, 3, 5, 8)
    results = []
    for oracle in (True, False):
        if oracle:
            monkeypatch.setattr(wk, "kernel_sums", k_major_kernel_sums)
            monkeypatch.setattr(dc, "kernel_sums", k_major_kernel_sums)
        w = mw.compute_walk(spec, ns[-1], small_grid)
        table = mw.decomp_powers(w)
        splits = mw.max_law_splits(table, w, ns)
        gaps = smooth_split_identity_gaps(table, w, splits.values())
        results.append((mw.nagaev_density(w, ns), splits, gaps))
        monkeypatch.undo()
    (dens_a, splits_a, gaps_a), (dens_b, splits_b, gaps_b) = results
    assert list(dens_b) == list(splits_b) == list(ns)
    for n in ns:
        assert np.array_equal(dens_a[n].values, dens_b[n].values)
        for part in ("bounded", "remainder_pos", "remainder_neg", "correction"):
            assert np.array_equal(getattr(splits_a[n], part).values, getattr(splits_b[n], part).values)
    assert gaps_a == gaps_b


@pytest.mark.parametrize("name, n_max", [("spike", 24), ("laplace", 8)])
def test_split_pass_transforms_each_power_and_head_once(name, n_max, monkeypatch):
    # the kept q2 powers and the heads are transformed once for the pass,
    # and every n of it reads the same spectra
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, mw.make_working_grid(n_max, 2**12))
    table = mw.decomp_powers(w)
    rho = table.decomp.rho
    calls = []
    transform = wk.WalkLaws.transform
    monkeypatch.setattr(
        wk.WalkLaws, "transform", lambda walk, f: calls.append(f) or transform(walk, f)
    )
    mw.max_law_splits(table, w, (3, 8, n_max))
    kept = [table.qk2[k] for k in range(1, n_max + 1) if rho**k >= _WEIGHT_CUTOFF]
    heads = [h for h in table.heads[1:] if h is not None]
    assert len(calls) == len(kept) + len(heads)
    assert sorted(map(id, calls)) == sorted(map(id, kept + heads))
    if name == "spike":
        assert 0 < len(kept) < n_max and 0 < len(heads) < n_max  # both cut off
    else:
        assert rho == 0.0 and kept == [] and len(heads) == 2


@pytest.mark.parametrize("name", ["laplace", "spike"])
def test_batched_splits_are_the_single_splits(small_grid, name):
    # the same arithmetic on the same spectra: bit-identical
    w = mw.compute_walk(mw.DistributionSpec(name), 8, small_grid)
    table = mw.decomp_powers(w)
    batch = mw.max_law_splits(table, w, (8, 2, 5, 2))
    assert sorted(batch) == [2, 5, 8]
    gaps = smooth_split_identity_gaps(table, w, batch.values())
    for n, split in batch.items():
        single = mw.max_law_splits(table, w, [n])[n]
        for part in ("bounded", "remainder_pos", "remainder_neg", "correction"):
            assert np.array_equal(getattr(split, part).values, getattr(single, part).values)
        assert smooth_split_identity_gaps(table, w, [single]) == {n: gaps[n]}
    with pytest.raises(ValueError):
        mw.max_law_splits(table, w, ())
    with pytest.raises(ValueError):
        mw.max_law_splits(table, w, (4, 9))


def test_smooth_part(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    table = mw.decomp_powers(w)
    with pytest.raises(ValueError):
        mw.smooth_part(table, w, 2)
    for k in (3, 6, 8):
        part = mw.smooth_part(table, w, k)
        assert part.values.min() >= -1e-9
        assert part.mass == pytest.approx(smooth_part_mass(table, k), abs=1e-6)
    # bounded laws: the smooth part is the whole sum law
    wl = mw.compute_walk(mw.DistributionSpec("uniform"), 4, small_grid)
    tl = mw.decomp_powers(wl)
    assert np.array_equal(mw.smooth_part(tl, wl, 4).values, wl.sum_laws[4].values)


def test_smooth_split_identity(small_grid, monkeypatch):
    def no_convolve(*args):
        raise AssertionError("the smooth parts read the table's heads")

    for name in ("laplace", "spike"):
        w = mw.compute_walk(mw.DistributionSpec(name), 8, small_grid)
        table = mw.decomp_powers(w)
        splits = mw.max_law_splits(table, w, (3, 5, 8))
        monkeypatch.setattr(dc, "convolve", no_convolve)
        gaps = smooth_split_identity_gaps(table, w, splits.values())
        assert sorted(gaps) == [3, 5, 8]
        for n, (recon, smooth) in gaps.items():
            assert recon <= n * 1e-8 and smooth <= n * 1e-8
            alone = smooth_split_identity_gaps(table, w, [splits[n]])
            assert alone == {n: (recon, smooth)}
        monkeypatch.undo()


def test_diagnostics_rows_and_csv(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    table = mw.decomp_powers(w)
    splits = list(mw.max_law_splits(table, w, (8, 4)).values())
    rows = mw.split_quality_diagnostics(w, splits)
    assert [r.n for r in rows] == [4, 8]
    for r in rows:
        assert r.l1_pq >= 0 and r.rn_l1 > 0 and r.rn_sup > 0
    text = diagnostics_csv(rows)
    header = text.splitlines()[0]
    assert header == "n,l1_pq,x2_pq,qminus_l1,qbar_sup_over_sqrtn,rn_l1,rn_sup"
