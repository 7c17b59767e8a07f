"""End-to-end convergence experiments for the rescaled running maximum.

Everything here compares the rescaled n-step max law against the half-normal
limit: relative entropy (plain and conditioned), total variation, second
moments, tail mass, and weighted-sup local-limit residuals.
"""

from __future__ import annotations

import io
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .decomposition import MaxLawSplit, decomp_powers, max_law_splits
from .entropy import L, conditional_positive_entropy, half_normal, relative_entropy
from .grid import GridDensity, moment, rescale_sqrt, restrict, tv_distance
from .walk import WalkLaws, compute_walk

_HALF_NORMAL = half_normal()
_TAIL_CUTOFF = 4.0  # C of the x^2 tail mass


@dataclass(frozen=True)
class ConvergenceRow:
    """One n of the convergence experiment.

    D is the relative entropy of the rescaled max density against the
    half-normal law, D_plus its conditioned-to-positive version, tv the total
    variation to the half-normal, m2_plus the second moment of the
    nonnegative part, tail_mass_C the x^2 mass beyond the cutoff C = 4.
    alesh/local_a are the weighted-sup local-limit residuals (alesh is NaN
    for steps without a bounded density).
    """

    n: int
    D: float
    D_plus: float
    tv: float
    m2_plus: float
    Fbar0: float
    tail_mass_C: float
    pinsker_slack: float
    alesh: float = math.nan
    local_a: float = math.nan


def _check_row_invariants(row: ConvergenceRow) -> None:
    for name, value in (("D", row.D), ("D_plus", row.D_plus)):
        if value < -math.exp(-1.0) - 1e-6:
            raise ValueError(f"n={row.n}: {name} {value} below the -1/e floor")
    ident = (1.0 - row.Fbar0) * row.D_plus + L(1.0 - row.Fbar0)
    if abs(row.D - ident) > 1e-6:
        raise ValueError(
            f"n={row.n}: conditioning identity violated by {abs(row.D - ident):.2e}"
        )
    bound = math.sqrt(2.0 * max(row.D_plus, 0.0)) + row.Fbar0 + 1e-6
    if row.tv > bound:
        raise ValueError(f"n={row.n}: tv {row.tv:.4g} exceeds entropy route bound {bound:.4g}")


def tail_mass(walk: WalkLaws, n: int) -> float:
    """x^2 mass of the rescaled n-step max density beyond the cutoff C = 4."""
    walk.check_index(n)
    scaled = rescale_sqrt(walk.max_laws[n], n)
    x = walk.grid.centers()
    w = np.where(x > _TAIL_CUTOFF, walk.grid.step, 0.0)
    return float(np.sum(w * x * x * scaled.values))


def weighted_sup_residual(density_star: GridDensity, correction: GridDensity) -> float:
    """sup over grid x in (0, 8) of x * |density - half_normal - correction|."""
    x = density_star.grid.centers()
    resid = density_star.values - _half_normal_values(density_star.grid) - correction.values
    sel = (x > 0.0) & (x < 8.0)
    if not np.any(sel):
        return 0.0
    return float(np.max(x[sel] * np.abs(resid[sel])))


def _half_normal_values(grid) -> np.ndarray:
    x = grid.centers()
    out = np.zeros(grid.count)
    pos = x > 0
    out[pos] = np.exp(_HALF_NORMAL.log_density(x[pos]))
    return out


def local_limit_residual(walk: WalkLaws, n: int) -> float:
    """Weighted sup residual of the bounded-density local limit expansion:
    sup x |max_density*(x) - half_normal(x) - P(max_{n-1}<=0) sqrt(n) p(sqrt(n) x)|.

    Requires a bounded step density.
    """
    walk.check_index(n)
    if not walk.spec.bounded_density:
        raise ValueError(
            f"{walk.spec.name!r} has an unbounded density; "
            "the bounded-density local limit does not apply"
        )
    prev = 1.0 if n == 1 else float(walk.nonpos_prob[n - 1])
    star = rescale_sqrt(walk.max_laws[n], n)
    corr = prev * rescale_sqrt(walk.step_density, n)
    return weighted_sup_residual(star, corr)


@dataclass(frozen=True)
class SplitResidual:
    """Local-limit residual of the bounded approximation.

    part_a is the x-weighted sup over (0, 8); x/abs_error profile the raw
    residual on (0, 1/e) where the logarithmic error model applies.
    """

    n: int
    part_a: float
    x: np.ndarray
    abs_error: np.ndarray


def split_local_residual(split: MaxLawSplit) -> SplitResidual:
    """Residual of the bounded approximation after removing the half-normal
    and the signed correction term (applies to any spec, unbounded included)."""
    n = split.n
    q_star = rescale_sqrt(split.bounded, n)
    part_a = weighted_sup_residual(q_star, split.correction)
    x = q_star.grid.centers()
    resid = np.abs(q_star.values - _half_normal_values(q_star.grid) - split.correction.values)
    sel = (x > 0) & (x < math.exp(-1.0))
    return SplitResidual(n=n, part_a=part_a, x=x[sel], abs_error=resid[sel])


def fit_log_error_constant(profile: SplitResidual) -> float:
    """Single constant C with |error|(x) <= C * (basis1 + basis2) on the
    profile, where basis1 = min(log n, 1/(sqrt(n) x)) and basis2 = log(1/x)."""
    b = _log_error_basis(profile.n, profile.x)
    return float(np.max(profile.abs_error / b))


def log_error_ratio(profile: SplitResidual, constant: float) -> float:
    """Max of |error| / (C * basis) for a previously fitted constant."""
    b = _log_error_basis(profile.n, profile.x)
    return float(np.max(profile.abs_error / (constant * b)))


def _log_error_basis(n: int, x: np.ndarray) -> np.ndarray:
    b1 = np.minimum(math.log(n) if n > 1 else 0.0, 1.0 / (math.sqrt(n) * x))
    b2 = np.log(1.0 / x)
    return b1 + b2


def convergence_curves(
    spec,
    n_list: list[int],
    walk: WalkLaws | None = None,
    splits: Mapping[int, MaxLawSplit] | None = None,
) -> list[ConvergenceRow]:
    """One ConvergenceRow per n, with the row-level identities asserted.

    A prebuilt WalkLaws and a mapping n -> MaxLawSplit of that walk (one
    split for every n in n_list) may be passed to share work; otherwise
    they are built at n_max = max(n_list) on the standard working grid, with
    the full max law kept at the n of n_list only.
    """
    n_list = sorted(set(n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must contain positive integers")
    if walk is None:
        walk = compute_walk(spec, n_list[-1], keep=n_list)
    if splits is None:
        splits = max_law_splits(decomp_powers(walk), walk, n_list)

    rows = []
    for n in n_list:
        star = rescale_sqrt(walk.max_laws[n], n)
        d = relative_entropy(star, _HALF_NORMAL)
        d_plus = conditional_positive_entropy(star, _HALF_NORMAL)
        tv = tv_distance(star, _HALF_NORMAL)
        m2 = moment(star, 2, "positive")
        pos, alpha = restrict(star, "positive")
        # measured on the rescaled representation, so the conditioning
        # identity ties the row together exactly; it differs from the
        # walk-level probability by the 0-cell quadrature only
        fbar = 1.0 - alpha
        # Pinsker slack D - tv^2/2 of the conditioned law; on the full-line
        # (1/alpha)*star the 0-cell takes the two-sided rule, which equals
        # the one-sided rule on (1/alpha)*pos, whose 0-cell restrict halves
        cond_d = relative_entropy((1.0 / alpha) * star, _HALF_NORMAL)
        cond_tv = tv_distance((1.0 / alpha) * pos, _HALF_NORMAL)
        alesh = (
            local_limit_residual(walk, n) if walk.spec.bounded_density else math.nan
        )
        local = split_local_residual(splits[n])
        row = ConvergenceRow(
            n=n,
            D=d,
            D_plus=d_plus,
            tv=tv,
            m2_plus=m2,
            Fbar0=fbar,
            tail_mass_C=tail_mass(walk, n),
            pinsker_slack=cond_d - 0.5 * cond_tv * cond_tv,
            alesh=alesh,
            local_a=local.part_a,
        )
        _check_row_invariants(row)
        rows.append(row)
    return rows


def curves_csv(rows: list[ConvergenceRow]) -> str:
    buf = io.StringIO()
    buf.write("n,D,D_plus,tv,m2_plus,Fbar0,tail4,alesh,local_a\n")
    for r in rows:
        buf.write(
            f"{r.n},{r.D:.17g},{r.D_plus:.17g},{r.tv:.17g},{r.m2_plus:.17g},"
            f"{r.Fbar0:.17g},{r.tail_mass_C:.17g},{r.alesh:.17g},{r.local_a:.17g}\n"
        )
    return buf.getvalue()


def entropy_reports_csv(rows: list[ConvergenceRow]) -> str:
    """Companion table: n,D,D_plus,tv,pinsker_slack,mass (mass of the
    positive part, the normalizer of the conditioned law)."""
    buf = io.StringIO()
    buf.write("n,D,D_plus,tv,pinsker_slack,mass\n")
    for r in rows:
        buf.write(
            f"{r.n},{r.D:.17g},{r.D_plus:.17g},{r.tv:.17g},"
            f"{r.pinsker_slack:.17g},{1.0 - r.Fbar0:.17g}\n"
        )
    return buf.getvalue()
