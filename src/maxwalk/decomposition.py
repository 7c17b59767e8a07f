"""Bounded/unbounded splitting of the step density and derived approximants.

The step density p is written as (1-rho) q1 + rho q2 with q1 bounded by a
threshold M and rho < 1/2; the split propagates to every n-fold convolution
(by bilinearity, p^{*k} - rho^k q2^{*k} is the part with a bounded factor).
Through the Nagaev kernel sum, whose full sum is the max law, it yields a
bounded approximation to the running-max density, its remainders and a local
correction term.  Terms weighted by rho^k below a fixed cutoff are dropped;
for bounded step densities rho = 0, so every such term is.
"""

from __future__ import annotations

import io
import math
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
    """The split's terms for each k <= K, as spectra only, each
    WalkLaws.transform of its density: qk2_hat[k] that of q2^{*k}, kept while
    rho^k >= _WEIGHT_CUTOFF and None beyond (every k when rho = 0), and
    heads_hat[k] that of the part of p^{*k} with one or two bounded factors
    (_bounded_head).  Both tuples end at K, the last k with a head: no later
    k has a head or a kept q2 power.  The table holds no sum law.  Index 0
    is None (the unit atom); check_index bounds n by the walk's n_max."""

    decomp: BinomialDecomposition
    n_max: int
    qk2_hat: tuple
    heads_hat: tuple

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
    there) and propagate the split to the convolution powers up to K <=
    walk.n_max: the kept q2 powers and the one- and two-factor heads, built
    by grid.convolve chains, each kept only as its spectrum (walk.transform)
    and alive in space only while the next two heads read it."""
    decomp = binomial_split(walk.step_density, M)
    rho, n_max = decomp.rho, walk.n_max
    powers = _powers(decomp.q2)
    q1_powers = (None, *islice(_powers(decomp.q1), min(n_max, 2)))
    last = (None, None)  # q2^{*(k-1)}, q2^{*(k-2)}
    qk2_hat, heads_hat = [None], [None]
    for k in range(1, n_max + 1):
        head = _bounded_head(rho, q1_powers, last, k)
        if head is None:  # k > K: rho^(k-2), and so rho^k, is below the cutoff
            break
        power = next(powers) if rho**k >= _WEIGHT_CUTOFF else None
        last = (power, last[0])
        heads_hat.append(walk.transform(head))
        qk2_hat.append(None if power is None else walk.transform(power))
    return DecompTable(decomp, n_max, tuple(qk2_hat), tuple(heads_hat))


def _split_terms(table: DecompTable, k: int):
    """k's q2 power and head as kernel_sums terms (q2, head): the table's
    spectra with weights rho^k and 1, or None where dropped (both past K)."""
    if k >= len(table.heads_hat):
        return None, None
    q2 = table.qk2_hat[k]
    return None if q2 is None else (q2, table.decomp.rho**k), (table.heads_hat[k], 1.0)


def _split_parts(s_hat: np.ndarray, q2, head) -> np.ndarray:
    """The smooth part of S_k, whose spectrum is s_hat, from k's
    _split_terms: S_k less rho^k q2^{*k} and less the head, the terms of the
    binomial expansion of p^{*k} with at least three bounded factors (by
    bilinearity); s_hat itself (the same array) where both are dropped."""
    bounded = s_hat if q2 is None else s_hat - q2[1] * q2[0]
    return bounded if head is None else bounded - head[0]


@dataclass(frozen=True)
class MaxLawSplit:
    """Bounded approximation of the n-step max density and its remainders.

    ``remainder_pos``/``remainder_neg`` are the nonnegative remainder parts
    built from the kernel's atom and negative density (the grid's shared
    zero density when rho = 0).  ``bounded`` is signed: max_law -
    remainder_pos + remainder_neg, the max law itself when rho = 0.
    ``correction`` is the signed local correction term on the sqrt(n) scale:
    the one- and two-factor bounded-component terms of the split, convolved
    with the max kernels."""

    n: int
    bounded: GridDensity
    remainder_pos: GridDensity
    remainder_neg: GridDensity
    correction: GridDensity


def max_law_splits(table: DecompTable, walk: WalkLaws, ns) -> dict[int, MaxLawSplit]:
    """Split the n-step max law, for every n in ns, into the bounded-component
    sum and the remainders carried by the unbounded component, with the local
    correction term.

    The Nagaev kernel sum of every S_k is the max law, which the walk holds,
    so the bounded part is read off it: max_law - remainder_pos +
    remainder_neg, the max law itself when rho = 0.  Only the kept q2 powers
    (weight rho^k: the remainder) and the heads (weight 1: the correction)
    are summed (kernel_sums) from the table's spectra, k = 1..min(n, K), K
    the table's last k; each n makes only its kernels G_{n-k}, one alive at
    a time, and drops its sums before the next n starts.  No sum law is
    read: the splits' oracle, smooth_split_identity_gaps, reads them.
    """
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("ns must name at least one n")
    for n in ns:
        table.check_index(n)
    splits = {}
    for n in ns:
        terms = (_split_terms(table, k) for k in range(1, len(table.heads_hat)))
        remainder, correction = kernel_sums(walk, n, terms)  # k = 1..min(n, K)
        pos, neg = remainder.atom_part(), remainder.convolutions()
        rn = rescale_sqrt(correction.total(), n)
        del remainder, correction  # finished: dropped before the next n's kernels
        law = walk.max_laws[n]  # rho = 0: both remainders zero, the law itself
        splits[n] = MaxLawSplit(n, law - pos + neg if table.decomp.rho else law, pos, neg, rn)
    return splits


def _bounded_head(rho: float, q1_powers: tuple, last: tuple, k: int) -> GridDensity | None:
    """The terms of the k-step sum law with one or two bounded factors:
    sum over j in {1, 2} of C(k, j) (1-rho)^j rho^(k-j) q1^{*j} * q2^{*(k-j)}
    (q2^{*0} is the unit atom, 0^0 = 1), the weights from
    binomial_log_weight; last[j - 1] is q2^{*(k-j)}.  A term is dropped
    when rho^(k-j) is below the weight cutoff, as the table drops its q2
    power; None when none is left."""
    head = None
    for j in range(1, min(k, 2) + 1):
        w = binomial_log_weight(k, j, rho)
        if j == k:
            term = q1_powers[j].values
        elif rho ** (k - j) >= _WEIGHT_CUTOFF:
            term = convolve(q1_powers[j], last[j - 1]).values
        else:
            continue
        head = w * term if head is None else head + w * term
    return None if head is None else GridDensity(q1_powers[1].grid, head)


def smooth_part(table: DecompTable, walk: WalkLaws, k: int) -> GridDensity:
    """Part of the k-step sum law with at least three bounded factors
    (nonnegative; three-fold bounded convolutions have integrable spectra),
    from S_k's spectrum and the table's spectra of k alone."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    table.check_index(k)
    return walk.window(_split_parts(walk.sum_laws.spectrum(k), *_split_terms(table, k)))


def smooth_split_identity_gaps(
    table: DecompTable, walk: WalkLaws, splits
) -> dict[int, tuple[float, float]]:
    """The splits' oracle: per split n, the max per-cell gaps (reconstruction,
    smooth identity).  Each n streams its own S_1..S_n into kernel_sums, which
    sums S_k (nagaev_density's sum, bit for bit) and the smooth parts (k >=
    3, _split_parts) convolved with the kernels; both are dropped before the
    next n starts.  The gaps: the Nagaev sum against the max law, and the
    sqrt(n)-rescaled split's bounded part against the rescaled smooth sum
    plus correction."""
    by_n = {s.n: s for s in splits}
    if not by_n:
        raise ValueError("splits must name at least one n")
    for n in by_n:
        table.check_index(n)

    def terms():
        for k, s_hat in enumerate(walk.sum_laws.stream(), 1):
            smooth = (_split_parts(s_hat, *_split_terms(table, k)), 1.0) if k >= 3 else None
            yield (s_hat, 1.0), smooth

    gaps = {}
    for n, s in sorted(by_n.items()):
        density, smooth = map(KernelSum.total, kernel_sums(walk, n, terms()))
        lhs = rescale_sqrt(s.bounded, n)
        rhs = rescale_sqrt(smooth, n) + s.correction
        gaps[n] = (
            float(np.abs(density.values - walk.max_laws[n].values).max()),
            float(np.abs(lhs.values - rhs.values).max()),
        )
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
        x2 = float(np.sum(w * x * x * np.abs(diff.values)))
        qminus = float(np.sum(w * np.maximum(-q_star.values, 0.0)))
        qsup = halfline_sup(split.bounded) / math.sqrt(n)
        rows.append(
            DiagnosticsRow(
                n=n,
                l1_pq=halfline_l1(diff, "positive"),
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
