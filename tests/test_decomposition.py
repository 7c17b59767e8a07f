import math
import tracemalloc
from bisect import bisect_left
from types import SimpleNamespace

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
    """(bounded, q2) for S_k: the bounded part of the split, S_k less
    rho^k q2^{*k} (s_hat itself where q2 is dropped), and k's q2 term,
    (spectrum, weight) or None (_split_terms); s_hat is S_k's spectrum
    (default: streamed from the walk)."""
    if s_hat is None:
        s_hat = w.sum_laws.spectrum(k)
    q2, _ = dc._split_terms(table, k)
    return (s_hat if q2 is None else s_hat - q2[1] * q2[0]), q2


def space_table(w, M=None):
    """Oracle: the split's terms in space, every q2 power and head held at
    once, by the same grid.convolve chains and weights as decomp_powers.
    qk2[k] is q2^{*k} while rho^k >= the cutoff and the zero density beyond;
    heads[k] is the one- and two-factor head, None when every term is
    dropped.  Index 0 is None."""
    decomp = mw.binomial_split(w.step_density, M)
    rho, n_max = decomp.rho, w.n_max
    qk2, heads = [None], [None]
    for k in range(1, n_max + 1):
        if rho**k < _WEIGHT_CUTOFF:
            qk2.append(zero_density(w.grid))
        else:
            qk2.append(decomp.q2 if k == 1 else mw.convolve(decomp.q2, qk2[-1]))
    q1_powers = (None, decomp.q1, mw.convolve(decomp.q1, decomp.q1))
    for k in range(1, n_max + 1):
        head = None
        for j in range(1, min(k, 2) + 1):
            weight = binomial_log_weight(k, j, rho)
            if j == k:
                term = q1_powers[j].values
            elif rho ** (k - j) >= _WEIGHT_CUTOFF:
                term = mw.convolve(q1_powers[j], qk2[k - j]).values
            else:
                continue
            head = weight * term if head is None else head + weight * term
        heads.append(None if head is None else mw.GridDensity(w.grid, head))
    return SimpleNamespace(decomp=decomp, qk2=qk2, heads=heads)


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


def test_binomial_weight_without_a_bounded_factor_is_rho_to_the_k():
    # j = 0 takes the general lgamma form, which gives rho^k's own bits
    for rho in (1e-3, 0.01, 0.1, 0.3, 0.49):
        for k in range(1, 300):
            assert binomial_log_weight(k, 0, rho) == math.exp(k * math.log(rho))


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
        # spectrum itself, and the table holds no q2 spectrum
        s_hat = w.sum_laws.spectrum(k)
        bounded, q2 = sum_law_split(table, w, k, s_hat)
        assert bounded is s_hat
        assert q2 is None
    assert table.qk2_hat == (None, None, None)
    # only the one- and two-factor heads are left, and only for k <= 2: the
    # table ends at K = 2, and past it S_k is all smooth part
    assert [k for k, h in enumerate(table.heads_hat) if h is not None] == [1, 2]
    for k in (3, 4, 8):
        assert dc._split_terms(table, k) == (None, None)
        s_hat = w.sum_laws.spectrum(k)
        assert dc._split_parts(s_hat, *dc._split_terms(table, k)) is s_hat


def test_power_table_reconstructs_spike(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("spike"), 8, small_grid)
    table, space = mw.decomp_powers(w), space_table(w)
    d = table.decomp
    assert np.array_equal(table.qk2_hat[1], w.transform(d.q2))
    # one step: the bounded term is (1 - rho) q1, the step law's clipped part
    bounded = w.window(sum_law_split(table, w, 1)[0]).values
    clipped = (1.0 - d.rho) * d.q1.values
    assert np.abs(bounded - clipped).max() <= 1e-12 * np.abs(clipped).max()
    for k in (2, 5, 8):
        rho_k = d.rho**k
        bounded, (q2_hat, weight) = sum_law_split(table, w, k)
        assert q2_hat is table.qk2_hat[k]
        assert np.array_equal(q2_hat, w.transform(space.qk2[k]))
        assert weight == rho_k
        recon = w.window(bounded) + rho_k * space.qk2[k]
        assert mw.l1_distance(recon, w.sum_laws[k]) <= 1e-6
        assert np.abs(recon.values - w.sum_laws[k].values).max() <= k * 1e-9
        assert w.window(bounded).mass == pytest.approx(1.0 - rho_k, abs=k * 1e-6)
        assert space.qk2[k].mass == pytest.approx(1.0, abs=k * 1e-6)
        assert w.window(q2_hat).mass == pytest.approx(1.0, abs=k * 1e-6)


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
    table, space = mw.decomp_powers(w, M), space_table(w, M)
    d = table.decomp
    assert d.rho > 0
    qk1, heads = binomial_double_sum(d, n)
    for k in qk1:
        bounded = (1.0 - d.rho**k) * qk1[k]
        for got, expected in (
            (w.window(sum_law_split(table, w, k)[0]), bounded),
            (space.heads[k], heads[k]),
            (w.window(table.heads_hat[k]), heads[k]),
        ):
            assert np.abs(got.values - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(space.heads[1].values, (1.0 - d.rho) * d.q1.values)
    assert np.array_equal(table.heads_hat[1], w.transform(space.heads[1]))
    dropped = [k for k in range(1, n + 1) if d.rho**k < _WEIGHT_CUTOFF]
    assert (name == "gaussian") == bool(dropped)  # rho = 0.097: 16 is dropped
    for k in range(1, n + 1):
        if k in dropped:
            assert table.qk2_hat[k] is None
            s_hat = w.sum_laws.spectrum(k)
            assert sum_law_split(table, w, k, s_hat)[0] is s_hat
        else:
            assert space.qk2[k].mass == pytest.approx(1.0, abs=k * 1e-6)
            assert np.array_equal(table.qk2_hat[k], w.transform(space.qk2[k]))


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
    # spans no more cells than its factors' supports allow; the table holds
    # the transform of exactly those chains (the space oracle's terms)
    n = 8
    w = mw.compute_walk(mw.DistributionSpec("spike"), n, small_grid)
    table, space = mw.decomp_powers(w), space_table(w)
    d = table.decomp
    assert d.rho**n >= _WEIGHT_CUTOFF  # every q2 power is kept
    for k in range(2, n + 1):
        spans = {"qk2": _linear_span(small_grid, [d.q2] * k)}
        # the head's terms j <= 2 are q1^{*j} * q2^{*(k-j)}: their hull
        terms = [_linear_span(small_grid, [d.q1] * j + [d.q2] * (k - j))
                 for j in range(1, min(k, 2) + 1)]
        spans["heads"] = (min(a for a, _ in terms), max(b for _, b in terms))
        for part, (lo, hi) in spans.items():
            f = getattr(space, part)[k]
            assert np.array_equal(getattr(table, part + "_hat")[k], w.transform(f))
            first, stop = _support(f.values)
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
        mw.spitzer_positive_law(w, [n])[n]
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
    its own by the dense path and summed in space; table is the space
    oracle (space_table)."""
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
    table, space = mw.decomp_powers(w), space_table(w)
    rho = table.decomp.rho
    splits = mw.max_law_splits(table, w, ns)
    assert sorted(splits) == list(ns)
    for n in ns:
        bounded, rem_neg, corr = per_term_direct_split(w, space, n)
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
    """Oracle: the kernel sums of every n in ns in one pass in k order.
    parts is called once per k with S_k's spectrum (SumLaws.spectrum), and
    each kernel is made on first use and held until its last use, at
    k = max(ns) - j."""
    ns = sorted(set(ns))
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
def test_kernel_major_pass_matches_the_k_major_oracle(small_grid, name):
    # the kernel density, the four split fields and the gaps against the
    # four sums of the k-major oracle, built from the same terms: every sum
    # adds them in the same ascending k with the same spectra, so the n-by-n
    # loop changes no bit
    spec, ns = mw.DistributionSpec(name), (1, 3, 5, 8)
    w = mw.compute_walk(spec, ns[-1], small_grid)
    table = mw.decomp_powers(w)
    split = {k: dc._split_terms(table, k) for k in range(1, ns[-1] + 1)}

    def parts(k, s_hat):
        q2, head = split[k]
        return (
            (s_hat, 1.0),
            q2,
            head,
            (dc._split_parts(s_hat, q2, head), 1.0) if k >= 3 else None,
        )

    oracle = k_major_kernel_sums(w, ns, parts)
    dens = mw.nagaev_density(w, ns)
    splits = mw.max_law_splits(table, w, ns)
    gaps = smooth_split_identity_gaps(table, w, splits.values())
    assert list(dens) == list(splits) == list(gaps) == list(ns)
    for n in ns:
        density, remainder, correction, smooth = oracle[n]
        assert np.array_equal(dens[n].values, density.total().values)
        pos, neg = remainder.atom_part(), remainder.convolutions()
        expected = {
            "bounded": w.max_laws[n] - pos + neg,
            "remainder_pos": pos,
            "remainder_neg": neg,
            "correction": mw.rescale_sqrt(correction.total(), n),
        }
        for part, f in expected.items():
            assert np.array_equal(getattr(splits[n], part).values, f.values)
        lhs = mw.rescale_sqrt(splits[n].bounded, n)
        rhs = mw.rescale_sqrt(smooth.total(), n) + splits[n].correction
        assert gaps[n] == (
            float(np.abs(density.total().values - w.max_laws[n].values).max()),
            float(np.abs(lhs.values - rhs.values).max()),
        )


@pytest.mark.parametrize("name, n_max", [("spike", 24), ("laplace", 8)])
def test_split_pass_transforms_each_power_and_head_once(name, n_max, monkeypatch):
    # decomp_powers transforms each kept q2 power and each head once, the
    # space oracle's terms exactly, and every n of the split pass reads
    # those spectra: the pass itself transforms nothing
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, mw.make_working_grid(n_max, 2**12))
    space = space_table(w)
    rho = space.decomp.rho
    calls = []
    transform = wk.WalkLaws.transform
    monkeypatch.setattr(
        wk.WalkLaws, "transform", lambda walk, f: calls.append(f) or transform(walk, f)
    )
    table = mw.decomp_powers(w)
    kept = [space.qk2[k] for k in range(1, n_max + 1) if rho**k >= _WEIGHT_CUTOFF]
    heads = [h for h in space.heads[1:] if h is not None]
    assert len(calls) == len(kept) + len(heads)
    assert sorted(f.values.tobytes() for f in calls) == sorted(
        f.values.tobytes() for f in kept + heads
    )
    calls.clear()
    mw.max_law_splits(table, w, (3, 8, n_max))
    assert calls == []
    if name == "spike":
        assert 0 < len(kept) < n_max and 0 < len(heads) < n_max  # both cut off
    else:
        assert rho == 0.0 and kept == [] and len(heads) == 2


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_split_readers_make_no_transform(small_grid, name, monkeypatch):
    # work count: decomp_powers makes one WalkLaws.transform per kept q2
    # power and one per head; the splits, their oracle and smooth_part read
    # the table's spectra and make no grid.spectrum call at all
    n_max = 8
    w = mw.compute_walk(mw.DistributionSpec(name), n_max, small_grid)
    transforms, spectra = [], []
    transform, spectrum = wk.WalkLaws.transform, gr.spectrum
    monkeypatch.setattr(
        wk.WalkLaws, "transform", lambda walk, f: transforms.append(f) or transform(walk, f)
    )

    def counting_spectrum(f, size, *args):
        spectra.append(size)
        return spectrum(f, size, *args)

    for mod in (gr, wk):
        monkeypatch.setattr(mod, "spectrum", counting_spectrum)
    table = mw.decomp_powers(w)
    held = [f for f in table.qk2_hat[1:] + table.heads_hat[1:] if f is not None]
    assert len(transforms) == len(held) > 0
    assert spectra.count(w.pass_size) >= len(held)
    transforms.clear()
    spectra.clear()
    splits = mw.max_law_splits(table, w, (3, 5, n_max))
    smooth_split_identity_gaps(table, w, splits.values())
    for k in range(3, n_max + 1):
        mw.smooth_part(table, w, k)
    assert transforms == [] and spectra == []


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_rho_zero_splits_share_the_max_law(small_grid, name):
    # with rho = 0 both remainders are the shared zero density and the
    # bounded part is the walk's max law itself, not a copy; with rho > 0 it
    # is max_law - remainder_pos + remainder_neg, bit for bit
    w = mw.compute_walk(mw.DistributionSpec(name), 8, small_grid)
    table = mw.decomp_powers(w)
    rho = table.decomp.rho
    assert (rho > 0.0) == (name == "spike")
    for n, split in mw.max_law_splits(table, w, (1, 4, 8)).items():
        law = w.max_laws[n]
        if rho == 0.0:
            assert split.bounded is law
        else:
            expected = law - split.remainder_pos + split.remainder_neg
            assert np.array_equal(split.bounded.values, expected.values)


def test_split_pass_holds_each_term_once():
    # memory guard (tracemalloc): the table holds each kept q2 power and
    # head once, as its spectrum, and the split pass reads those spectra in
    # place, so building the table and the splits rises only a few windows
    # above what they return (a kernel spectrum, two sums' accumulators and
    # their temporaries).  Holding the terms in space and transforming them
    # again for the pass would rise by about one window per term, 36 here
    grid = mw.make_working_grid(64, 2**13)
    w = mw.compute_walk(mw.DistributionSpec("spike"), 64, grid)
    window = grid.count * 8
    tracemalloc.start()
    try:
        table = mw.decomp_powers(w)
        splits = mw.max_law_splits(table, w, (8, 16, 32, 64))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 12 * window
    assert sorted(splits) == [8, 16, 32, 64]
    assert sum(f is not None for f in table.qk2_hat + table.heads_hat) == 17 + 19


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_reconstruction_gap_is_the_nagaev_sum_against_the_max_law(name):
    # the oracle's first kernel sum is S_k itself, summed as nagaev_density
    # sums it, so its reconstruction gap is that density's, bit for bit
    ns = (4, 8, 16)
    w = mw.compute_walk(mw.DistributionSpec(name), ns[-1], mw.make_working_grid(16, 2**12))
    table = mw.decomp_powers(w)
    gaps = smooth_split_identity_gaps(table, w, mw.max_law_splits(table, w, ns).values())
    for n, density in mw.nagaev_density(w, ns).items():
        assert gaps[n][0] == float(np.abs(density.values - w.max_laws[n].values).max())


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
