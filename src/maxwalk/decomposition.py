"""Bounded/unbounded splitting of the step density and derived approximants.

The step density p is written as (1-rho) q1 + rho q2 with q1 bounded by a
threshold M and rho < 1/2; the split propagates to every n-fold convolution
(by bilinearity, p^{*k} - rho^k q2^{*k} is the part with a bounded factor),
and yields a
bounded approximation to the running-max density together with explicitly
controlled remainder terms.  Terms weighted by rho^k below a fixed cutoff are
dropped; for bounded step densities rho = 0, so every such term is.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import (
    GridDensity,
    GridError,
    _halfline_weights,
    convolve,
    halfline_l1,
    halfline_sup,
    moment,
    rescale_sqrt,
    zero_density,
)
from .walk import KernelSum, WalkLaws, kernel_sums

_WEIGHT_CUTOFF = 1e-16


@dataclass(frozen=True)
class BinomialDecomposition:
    """Step density split p = (1-rho) q1 + rho q2 with q1 bounded by M."""

    rho: float
    q1: GridDensity
    q2: GridDensity
    bound_M: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 0.5:
            raise GridError(f"rho must lie in [0, 1/2), got {self.rho}")
        if self.q1.values.max() > self.bound_M * (1.0 + 1e-9) + 1e-12:
            raise GridError("q1 exceeds its stated bound")
        if moment(self.q1, 0, "positive") <= 0.0:
            raise GridError("q1 must carry mass on the positive half-line")


def median_level(p: GridDensity) -> float:
    """Level m such that half of p's mass lies where p <= m (mass-weighted
    median of the density's own values)."""
    v = p.values
    order = np.argsort(v, kind="stable")
    masses = v[order] * p.grid.step
    cum = np.cumsum(masses)
    idx = int(np.searchsorted(cum, 0.5 * cum[-1]))
    return float(v[order[min(idx, len(v) - 1)]])


def binomial_split(p: GridDensity, M: float | None = None) -> BinomialDecomposition:
    """Truncation-at-level-M split: q1 = min(p, M)/(1-rho), q2 = excess/rho.

    Default M is twice the mass-weighted median level of p, which keeps rho
    small and q1 far from degenerate.  Raises if the truncated mass rho
    reaches 1/2 (with the minimal admissible M in the message).
    """
    if M is None:
        M = 2.0 * median_level(p)
    if M <= 0:
        raise GridError(f"threshold M must be positive, got {M}")
    if np.any(p.values < -1e-12):
        raise GridError("binomial split expects a nonnegative density")
    clipped = np.minimum(p.values, M)
    rho = float((p.values - clipped).sum() * p.grid.step)
    if rho >= 0.5:
        # smallest admissible M: bisect the excess-mass level
        lo, hi = M, float(p.values.max())
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(np.maximum(p.values - mid, 0.0).sum() * p.grid.step) >= 0.5:
                lo = mid
            else:
                hi = mid
        raise GridError(
            f"truncated mass rho = {rho:.4f} >= 1/2 at M = {M}; need M > {hi:.6g}"
        )
    if rho == 0.0:
        q1 = GridDensity(p.grid, clipped)
        q2 = zero_density(p.grid)
    else:
        q1 = GridDensity(p.grid, clipped / (1.0 - rho))
        q2 = GridDensity(p.grid, (p.values - clipped) / rho)
    return BinomialDecomposition(rho=rho, q1=q1, q2=q2, bound_M=M / max(1.0 - rho, 0.5))


def binomial_log_weight(k: int, j: int, rho: float) -> float:
    """C(k, j) (1-rho)^j rho^(k-j), accumulated in log space; 0^0 = 1."""
    if rho == 0.0:
        return 1.0 if j == k else 0.0
    if j == 0:
        return math.exp(k * math.log(rho))
    log_w = (
        math.lgamma(k + 1)
        - math.lgamma(j + 1)
        - math.lgamma(k - j + 1)
        + j * math.log1p(-rho)
        + (k - j) * math.log(rho)
    )
    return math.exp(log_w)


@dataclass(frozen=True)
class DecompTable:
    """Convolution powers of the split for each k <= n_max: qk2[k] = q2^{*k}
    (a probability density) is kept while rho^k >= _WEIGHT_CUTOFF and is
    zero beyond (every k when rho = 0).  The part of p^{*k} with a bounded
    factor is read off the walk's sum law (split_spectra), so the table
    holds no sum law.  heads[k] is the part of p^{*k} with one or two
    bounded factors (see _bounded_head; None when every such term is
    dropped).  Index 0 is None (the unit atom)."""

    decomp: BinomialDecomposition
    n_max: int
    qk2: tuple
    heads: tuple

    def check_index(self, k: int) -> None:
        if not 1 <= k <= self.n_max:
            raise ValueError(f"k must lie in [1, {self.n_max}], got {k}")


def _powers(q: GridDensity):
    """Yield the convolution powers q, q^{*2}, q^{*3}, ... (without end;
    take as many as needed with islice), each grid.convolve of q with the
    last, so a compactly supported q keeps compact powers."""
    power = q
    while True:
        yield power
        power = convolve(q, power)


def decomp_powers(walk: WalkLaws, M: float | None = None) -> DecompTable:
    """Split the walk's step law at level M (binomial_split; default M as
    there) and propagate the split to all convolution powers up to
    walk.n_max: the kept q2 powers and the one- and two-factor heads.  The
    table reads no sum law when it is built."""
    p = walk.step_density
    decomp = binomial_split(p, M)
    rho = decomp.rho
    n_max = walk.n_max
    kept = sum(1 for k in range(1, n_max + 1) if rho**k >= _WEIGHT_CUTOFF)
    qk2 = (None, *islice(_powers(decomp.q2), kept), *[zero_density(p.grid)] * (n_max - kept))
    q1_powers = (None, *islice(_powers(decomp.q1), min(n_max, 2)))
    heads = [None] + [_bounded_head(rho, q1_powers, qk2, k) for k in range(1, n_max + 1)]
    return DecompTable(decomp, n_max, qk2, tuple(heads))


def split_spectra(table: DecompTable, walk: WalkLaws, ns):
    """The sum law's split as kernel-pass terms, spectra at the walk's
    kernel-pass length, for one kernel pass over ns: a function
    terms(k, s_hat), s_hat the spectrum of S_k, that gives (bounded, q2,
    head).  bounded = S_k - rho^k qk2[k] (every term of the binomial
    expansion of p^{*k} with a bounded factor, by bilinearity) and q2 =
    qk2[k] while the q2 power is kept; beyond, bounded is s_hat itself (the
    same array) and q2 is None.  head is the table's head (None where it is
    None).  In the pass every n of ns reads k = 1..n once, so k's kept q2
    power and head are transformed on its first read, shared by every n >= k
    and dropped after the last."""
    rho = table.decomp.rho
    reads = Counter(k for n in set(ns) for k in range(1, n + 1))
    made: dict = {}

    def terms(k: int, s_hat: np.ndarray):
        if k not in made:
            q2_hat = walk.transform(table.qk2[k]) if rho**k >= _WEIGHT_CUTOFF else None
            head = table.heads[k]
            made[k] = q2_hat, None if head is None else walk.transform(head)
        q2_hat, head_hat = made[k]
        reads[k] -= 1
        if reads[k] <= 0:
            del made[k]
        bounded = s_hat if q2_hat is None else s_hat - rho**k * q2_hat
        return bounded, q2_hat, head_hat

    return terms


@dataclass(frozen=True)
class MaxLawSplit:
    """Bounded approximation of the n-step max density and its remainders.

    ``bounded`` is signed; ``remainder_pos``/``remainder_neg`` are the
    nonnegative remainder parts built from the kernel's atom and negative
    density (the grid's shared zero density when rho = 0).  The
    reconstruction max_law = bounded + remainder_pos - remainder_neg holds
    per cell, with largest gap ``reconstruction_gap``.  ``correction`` is the
    signed local correction term on the sqrt(n) scale: the one- and
    two-factor bounded-component terms of the split, convolved with the max
    kernels."""

    n: int
    bounded: GridDensity
    remainder_pos: GridDensity
    remainder_neg: GridDensity
    correction: GridDensity
    reconstruction_gap: float


def max_law_splits(table: DecompTable, walk: WalkLaws, ns) -> dict[int, MaxLawSplit]:
    """Split the n-step max law, for every n in ns, into the bounded-component
    sum and the remainders carried by the unbounded component, with the local
    correction term.

    One kernel pass (walk.kernel_sums) serves every n, with three sums per n
    of spectra at the kernel pass's length (split_spectra): the bounded
    part S_k - rho^k qk2[k] with weight 1, the kept qk2[k] with weight
    rho^k and the table's head with weight 1.  Each n reads its own stream
    of sum-law spectra; each kept q2 power and head is transformed once for
    the pass and shared by every n that reads its k.
    Verifies each split's per-cell reconstruction against the walk's max law
    at tolerance n * 1e-8 before returning.
    """
    for n in ns:
        table.check_index(n)
    rho = table.decomp.rho
    split = split_spectra(table, walk, ns)

    def parts(k: int, s_hat: np.ndarray):
        bounded, q2_hat, head_hat = split(k, s_hat)
        return (
            (bounded, 1.0),
            None if q2_hat is None else (q2_hat, rho**k),
            None if head_hat is None else (head_hat, 1.0),
        )

    sums = kernel_sums(walk, ns, parts)
    return {n: _finish_split(walk, n, *terms) for n, terms in sums.items()}


def _finish_split(
    walk: WalkLaws, n: int, bounded: KernelSum, remainder: KernelSum, correction: KernelSum
) -> MaxLawSplit:
    bounded_sum = bounded.total()
    remainder_pos = remainder.atom_part()
    remainder_neg = remainder.convolutions()
    recon = bounded_sum + remainder_pos - remainder_neg
    gap = float(np.abs(recon.values - walk.max_laws[n].values).max())
    if gap > n * 1e-8:
        raise GridError(f"split reconstruction gap {gap:.2e} exceeds {n * 1e-8:.1e}")
    return MaxLawSplit(
        n=n,
        bounded=bounded_sum,
        remainder_pos=remainder_pos,
        remainder_neg=remainder_neg,
        correction=rescale_sqrt(correction.total(), n),
        reconstruction_gap=gap,
    )


def _bounded_head(rho: float, q1_powers: tuple, qk2: tuple, k: int) -> GridDensity | None:
    """The terms of the k-step sum law with one or two bounded factors:
    sum over j in {1, 2} of C(k, j) (1-rho)^j rho^(k-j) q1^{*j} * q2^{*(k-j)}
    (q2^{*0} is the unit atom, 0^0 = 1), the weights from
    binomial_log_weight.  A term is dropped when rho^(k-j) is below the
    weight cutoff, as the table drops its q2 power; None when none is
    left."""
    head = None
    for j in range(1, min(k, 2) + 1):
        w = binomial_log_weight(k, j, rho)
        if j == k:
            term = q1_powers[j].values
        elif rho ** (k - j) >= _WEIGHT_CUTOFF:
            term = convolve(q1_powers[j], qk2[k - j]).values
        else:
            continue
        head = w * term if head is None else head + w * term
    return None if head is None else GridDensity(q1_powers[1].grid, head)


def _smooth(terms) -> np.ndarray:
    """The smooth part's spectrum from split_spectra's (bounded, q2, head):
    the bounded part less the head."""
    bounded, _, head = terms
    return bounded if head is None else bounded - head


def smooth_part(table: DecompTable, walk: WalkLaws, k: int) -> GridDensity:
    """Part of the k-step sum law with at least three bounded factors
    (nonnegative; three-fold bounded convolutions have integrable spectra)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    table.check_index(k)
    terms = split_spectra(table, walk, (k,))(k, walk.sum_laws.spectrum(k))
    return walk.window(_smooth(terms))


def smooth_split_identity_gaps(
    table: DecompTable, walk: WalkLaws, splits
) -> dict[int, float]:
    """Per split n, the max per-cell gap in: rescaled bounded part ==
    sqrt(n)-rescaled sum of smooth parts (k >= 3) convolved with kernels,
    plus the local correction term.  One kernel pass serves all splits,
    each n on its own sum-law stream; the split's transforms for k >= 3
    are made once for the pass (split_spectra)."""
    by_n = {s.n: s for s in splits}
    for n in by_n:
        table.check_index(n)
    split = split_spectra(table, walk, by_n)

    def parts(k: int, s_hat: np.ndarray):
        return ((_smooth(split(k, s_hat)), 1.0) if k >= 3 else None,)

    gaps = {}
    for n, (terms,) in kernel_sums(walk, by_n, parts).items():
        lhs = rescale_sqrt(by_n[n].bounded, n)
        rhs = rescale_sqrt(terms.total(), n) + by_n[n].correction
        gaps[n] = float(np.abs(lhs.values - rhs.values).max())
    return gaps


@dataclass(frozen=True)
class DiagnosticsRow:
    """Quality measures of the bounded approximation at one n (positive
    half-line norms, on the sqrt(n) scale)."""

    n: int
    l1_pq: float
    x2_pq: float
    qminus_l1: float
    qbar_sup_over_sqrtn: float
    rn_l1: float
    rn_sup: float


def split_quality_diagnostics(
    walk: WalkLaws, splits: list[MaxLawSplit]
) -> list[DiagnosticsRow]:
    """Per-split diagnostics, in order of n: L1 and x^2-weighted gaps between
    the max density and its bounded approximation, the negative-part mass of
    the approximation, its sup norm, and the correction-term norms."""
    rows = []
    for split in sorted(splits, key=lambda s: s.n):
        n = split.n
        q_star = rescale_sqrt(split.bounded, n)
        p_star = rescale_sqrt(walk.max_laws[n], n)
        diff = p_star - q_star
        x = walk.grid.centers()
        w = _halfline_weights(walk.grid, "positive")
        l1 = float(np.sum(w * np.abs(diff.values)))
        x2 = float(np.sum(w * x * x * np.abs(diff.values)))
        qminus = float(np.sum(w * np.maximum(-q_star.values, 0.0)))
        qsup = halfline_sup(split.bounded) / math.sqrt(n)
        rows.append(
            DiagnosticsRow(
                n=n,
                l1_pq=l1,
                x2_pq=x2,
                qminus_l1=qminus,
                qbar_sup_over_sqrtn=qsup,
                rn_l1=halfline_l1(split.correction, "positive"),
                rn_sup=halfline_sup(split.correction),
            )
        )
    return rows


def diagnostics_csv(rows: list[DiagnosticsRow]) -> str:
    buf = io.StringIO()
    buf.write("n,l1_pq,x2_pq,qminus_l1,qbar_sup_over_sqrtn,rn_l1,rn_sup\n")
    for r in rows:
        buf.write(
            f"{r.n},{r.l1_pq:.17g},{r.x2_pq:.17g},{r.qminus_l1:.17g},"
            f"{r.qbar_sup_over_sqrtn:.17g},{r.rn_l1:.17g},{r.rn_sup:.17g}\n"
        )
    return buf.getvalue()
