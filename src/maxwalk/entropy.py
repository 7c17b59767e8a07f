"""Relative entropy against the half-normal law, and its calculus.

The one reference family is the half-normal law of variance n (ReferenceLaw):
n = 1 is the limit of M_n/sqrt(n), and its variance-n rescaling psi_n carries
the scaling identity D(f(sqrt(n) .)) = D(f || psi_n).  Reference
log-densities are evaluated analytically, never from grid samples, so
integrands like f*(log f - log psi) survive far into the tails where psi
underflows.  Cells where the argument vanishes contribute exactly 0 (the
L(0) = 0 convention).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .grid import GridDensity, GridSpec, moment

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
    """The half-normal law of variance n, the law of sqrt(n)|Z|:
    density sqrt(2/(pi n)) exp(-x^2/(2n)) on (0, inf), with an exact
    log-density.  n = 1 is the limit law of M_n/sqrt(n); its rescaling to
    variance n carries the scaling identity D(f(sqrt(n) .)) = D(f || psi_n).
    """

    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"the half-normal variance n must be >= 1, got {self.n}")

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * math.log(2.0 / (math.pi * self.n)) - x * x / (2.0 * self.n)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        r = math.sqrt(self.n)
        return np.where(x <= 0, 0.0, 2.0 * ndtr(np.maximum(x, 0.0) / r) - 1.0)

    def sample_on(self, grid: GridSpec) -> GridDensity:
        """Cell-averaged sampling (zero off the support)."""
        values = np.diff(self.cdf(grid.edges())) / grid.step
        return GridDensity(grid, values)


def half_normal(n: int = 1) -> ReferenceLaw:
    return ReferenceLaw(n)


@functools.lru_cache(maxsize=8)
def _support_log_density(grid: GridSpec, ref: ReferenceLaw) -> tuple[int, np.ndarray]:
    """(start, log psi): the first cell of `grid` with x > 0 and log psi on
    the cells from there on, shared read-only between calls."""
    x = grid.centers()
    start = int(np.searchsorted(x, 0.0, side="right"))
    log_psi = ref.log_density(x[start:])
    log_psi.setflags(write=False)
    return start, log_psi


def relative_entropy(f: GridDensity, ref: ReferenceLaw) -> float:
    """Relative entropy of a nonnegative grid function against a half-normal
    law: the quadrature of f * (log f - log psi) over (0, inf).  Mass of `f`
    on the negative half-line is ignored (the half-line entropy calculus).

    The cell centered at 0 straddles the boundary of the support, and its
    positive half is read by what the argument is:

    * a full-line density (mass on the negative cells): v0 approximates the
      density at 0 from both sides, so the half cell contributes
      (step/2) * v0 * (log v0 - log psi(0));
    * a density that vanishes below 0 (no mass on the negative cells, as a
      sampled half-normal or a restriction): v0 is the cell average over
      the positive half only, the one-sided density at 0+ is 2*v0 and the
      half cell contributes step * v0 * (log 2*v0 - log psi(0)).

    Both rules are linear-plus-L in a scalar rescaling of f, which keeps the
    conditioning identity D = alpha*D_plus + L(alpha) exact in floats.
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
