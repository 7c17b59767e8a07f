"""Relative entropy against analytic reference laws, and its calculus.

Reference log-densities are evaluated analytically, never from grid samples,
so integrands like f*(log f - log psi) survive far into the tails where psi
underflows.  Cells where the argument vanishes contribute exactly 0
(the L(0) = 0 convention).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .grid import GridDensity, GridSpec, moment, tv_distance

_INV_E = math.exp(-1.0)
_VALUE_FLOOR = 1e-300
_NEG_FLOOR = -1e-12


def L(x):
    """x*log(x) for x > 0, 0 at x = 0; the integrand kernel of relative entropy."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(arr < 0):
        raise ValueError("L is defined on [0, inf)")
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = arr[pos] * np.log(arr[pos])
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ReferenceLaw:
    """Analytic reference law with exact log-density.

    Kinds:
      half_normal              sqrt(2/pi) exp(-x^2/2) on (0, inf)
      half_normal_scaled       sqrt(2/(pi n)) exp(-x^2/(2n)) on (0, inf)
      gaussian                 N(mu, sigma2) on the real line
      gaussian_positive        N(mu, sigma2) conditioned to (0, inf)
    """

    kind: str
    n: int = 1
    mu: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("half_normal", "half_normal_scaled", "gaussian", "gaussian_positive"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.kind == "half_normal_scaled" and self.n < 1:
            raise ValueError("scaled half-normal needs n >= 1")

    @property
    def support_lo(self) -> float:
        return -math.inf if self.kind == "gaussian" else 0.0

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "half_normal":
            return 0.5 * math.log(2.0 / math.pi) - x * x / 2.0
        if self.kind == "half_normal_scaled":
            return 0.5 * math.log(2.0 / (math.pi * self.n)) - x * x / (2.0 * self.n)
        z2 = (x - self.mu) ** 2 / self.sigma2
        base = -0.5 * math.log(2.0 * math.pi * self.sigma2) - z2 / 2.0
        if self.kind == "gaussian":
            return base
        tail = ndtr(self.mu / math.sqrt(self.sigma2))  # P(N(mu, s2) > 0)
        return base - math.log(tail)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s = math.sqrt(self.sigma2)
        if self.kind == "half_normal":
            return np.where(x <= 0, 0.0, 2.0 * ndtr(np.maximum(x, 0.0)) - 1.0)
        if self.kind == "half_normal_scaled":
            r = math.sqrt(self.n)
            return np.where(x <= 0, 0.0, 2.0 * ndtr(np.maximum(x, 0.0) / r) - 1.0)
        if self.kind == "gaussian":
            return ndtr((x - self.mu) / s)
        pos_mass = ndtr(self.mu / s)
        top = ndtr((np.maximum(x, 0.0) - self.mu) / s) - ndtr(-self.mu / s)
        return np.where(x <= 0, 0.0, top / pos_mass)

    def sample_on(self, grid: GridSpec) -> GridDensity:
        """Cell-averaged sampling (zero off the support)."""
        values = np.diff(self.cdf(grid.edges())) / grid.step
        return GridDensity(grid, values)


def half_normal() -> ReferenceLaw:
    return ReferenceLaw("half_normal")


def half_normal_scaled(n: int) -> ReferenceLaw:
    return ReferenceLaw("half_normal_scaled", n=n)


def gaussian(mu: float = 0.0, sigma2: float = 1.0) -> ReferenceLaw:
    return ReferenceLaw("gaussian", mu=mu, sigma2=sigma2)


def gaussian_positive(mu: float = 0.0, sigma2: float = 1.0) -> ReferenceLaw:
    return ReferenceLaw("gaussian_positive", mu=mu, sigma2=sigma2)


@functools.lru_cache(maxsize=8)
def _support_log_density(grid: GridSpec, ref: ReferenceLaw) -> tuple[int, np.ndarray]:
    """(start, log psi): the first cell of `grid` inside ref's support (x > 0
    for a half-line reference) and log psi on the cells from there on,
    shared read-only between calls."""
    x = grid.centers()
    start = 0 if ref.support_lo == -math.inf else int(np.searchsorted(x, 0.0, side="right"))
    log_psi = ref.log_density(x[start:])
    log_psi.setflags(write=False)
    return start, log_psi


def relative_entropy(f: GridDensity, ref: ReferenceLaw) -> float:
    """Relative entropy of a nonnegative grid function against a reference
    law: the quadrature of f * (log f - log psi) over ref's support.  Mass of
    `f` outside that support is ignored (the half-line entropy calculus).

    For half-line references the cell centered at 0 straddles the support
    boundary.  Two cases:

    * the argument carries mass on the negative half-line (a full-line
      density): the 0-cell value approximates the density at 0 from both
      sides, so its positive half contributes (step/2) * v0 * (log v0 - ...);
    * the argument is supported on [0, inf) (a restricted/half-line sample
      whose 0-cell value is the cell average over the positive half only):
      the one-sided density at 0+ is 2*v0 and the positive half of the cell
      contributes step * v0 * (log 2*v0 - ...).

    Both branches are linear-plus-L in a scalar rescaling of f, which keeps
    the conditioning identity D = alpha*D_plus + L(alpha) exact in floats.
    """
    x = f.grid.centers()
    v = f.values
    h = f.grid.step
    low = v.min()
    if low < _NEG_FLOOR:
        raise ValueError(f"argument density below the -1e-12 floor (min {low:.3e})")

    # cells at or below the value floor (negative round-off included)
    # contribute 0, so the raw values are used where they exceed it (all of
    # them, without masked copies, when no cell is at or below it)
    start, log_psi = _support_log_density(f.grid, ref)
    vs = v[start:]
    if not vs.size or vs.min() > _VALUE_FLOOR:
        total = float(np.sum(vs * (np.log(vs) - log_psi)) * h)
    else:
        pos = vs > _VALUE_FLOOR
        total = float(np.sum(vs[pos] * (np.log(vs[pos]) - log_psi[pos])) * h)
    if ref.support_lo == -math.inf:
        return total

    i = f.grid.zero_index()
    if i >= 0 and v[i] > _VALUE_FLOOR:
        log_psi0 = float(ref.log_density(np.array([0.0]))[0])
        below = int(np.searchsorted(x, 0.0, side="left"))  # cells before here have x < 0
        neg_mass = float(np.abs(v[:below]).sum() * h)
        if neg_mass <= 1e-12:
            total += h * v[i] * (math.log(2.0 * v[i]) - log_psi0)
        else:
            total += 0.5 * h * v[i] * (math.log(v[i]) - log_psi0)
    return total


def conditional_positive_entropy(f: GridDensity, ref: ReferenceLaw) -> float:
    """Relative entropy of f conditioned to the positive half-line.

    Equals relative_entropy of the positive restriction normalized to mass 1;
    implemented by rescaling f itself so the boundary-cell quadrature matches
    the unconditioned integral exactly.
    """
    alpha = moment(f, 0, "positive")
    if alpha <= 0:
        raise ValueError("argument has no mass on the positive half-line")
    return relative_entropy((1.0 / alpha) * f, ref)


@dataclass(frozen=True)
class EntropyReport:
    """Relative entropy, total variation, and the Pinsker slack D - tv^2/2."""

    D: float
    mass_of_argument: float
    tv: float
    pinsker_slack: float

    def __post_init__(self) -> None:
        if self.D < -_INV_E - 1e-6:
            raise ValueError(f"relative entropy {self.D} below the -1/e floor")


def pinsker_check(f: GridDensity, ref: ReferenceLaw) -> EntropyReport:
    """Relative entropy and total variation of a probability density vs ref.

    For half-line references pass the half-line representation of f (zero on
    the negative cells, boundary cell holding the one-sided cell average) so
    that the total variation against the sampled reference is unbiased.
    """
    d = relative_entropy(f, ref)
    tv = tv_distance(f, ref)
    return EntropyReport(
        D=d,
        mass_of_argument=f.mass,
        tv=tv,
        pinsker_slack=d - 0.5 * tv * tv,
    )
