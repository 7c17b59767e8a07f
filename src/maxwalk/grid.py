"""Uniform-grid signed densities and the operations every other module builds on.

A density is stored as cell-averaged values on an equally spaced grid with a
cell centered at 0.  Cell averaging (CDF differences over cells) keeps
unbounded-but-integrable densities representable and makes mass bookkeeping
exact.  The objects of this module are immutable and all operations are
pure, deterministic functions.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from numpy.fft import irfft, rfft

from ._special import ndtr, ndtri, next_fast_len

MASS_TOL = 1e-6

Side = Literal["positive", "negative"]
Region = Literal["all", "positive", "negative"]
ConvMode = Literal["direct", "fast"]


class GridError(ValueError):
    """Base class for grid-layer failures."""


class GridMismatchError(GridError):
    """Operands live on incompatible grids."""


class WindowOverflowError(GridError):
    """Significant mass would leave the grid window."""


class WindowTooSmallError(GridError):
    """Requested window cannot hold the distribution's effective support."""


class UnknownDistributionError(GridError):
    """Distribution name not in the registry."""


@dataclass(frozen=True)
class GridSpec:
    """Equally spaced grid: cell centers x_min + step*i for i < count."""

    x_min: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (self.step > 0):
            raise GridError(f"step must be positive, got {self.step}")
        if self.count < 2:
            raise GridError(f"count must be >= 2, got {self.count}")

    def centers(self) -> np.ndarray:
        """Cell centers, shared read-only between callers."""
        return _grid_centers(self)

    def edges(self) -> np.ndarray:
        """count+1 cell edges, shared read-only between callers."""
        return _grid_edges(self)

    @property
    def x_max(self) -> float:
        return self.x_min + self.step * (self.count - 1)

    def zero_index(self) -> int:
        """Index of the cell centered at 0, or -1 if no cell center is at 0."""
        i = round(-self.x_min / self.step)
        if 0 <= i < self.count and abs(self.x_min + i * self.step) <= 1e-9 * self.step:
            return i
        return -1

    def close_to(self, other: "GridSpec") -> bool:
        return (
            self.count == other.count
            and math.isclose(self.step, other.step, rel_tol=1e-12, abs_tol=0.0)
            and abs(self.x_min - other.x_min) <= 1e-9 * self.step
        )


@functools.lru_cache(maxsize=8)
def _grid_centers(grid: GridSpec) -> np.ndarray:
    x = grid.x_min + grid.step * np.arange(grid.count)
    x.setflags(write=False)
    return x


@functools.lru_cache(maxsize=8)
def _grid_edges(grid: GridSpec) -> np.ndarray:
    e = grid.x_min + grid.step * (np.arange(grid.count + 1) - 0.5)
    e.setflags(write=False)
    return e


@dataclass(frozen=True)
class GridDensity:
    """Signed density sampled (cell-averaged) on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.count,):
            raise GridError(
                f"values shape {v.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("density values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(self.grid.step * self.values.sum())

    def with_values(self, values: np.ndarray) -> "GridDensity":
        return GridDensity(self.grid, values)

    def __add__(self, other: "GridDensity") -> "GridDensity":
        if not self.grid.close_to(other.grid):
            raise GridMismatchError("cannot add densities on different grids")
        return GridDensity(self.grid, self.values + other.values)

    def __sub__(self, other: "GridDensity") -> "GridDensity":
        if not self.grid.close_to(other.grid):
            raise GridMismatchError("cannot subtract densities on different grids")
        return GridDensity(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridDensity":
        return GridDensity(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@functools.lru_cache(maxsize=8)
def zero_density(grid: GridSpec) -> GridDensity:
    """The all-zero density on `grid`, one shared read-only instance per grid."""
    return GridDensity(grid, np.zeros(grid.count))


@dataclass(frozen=True)
class HalfLineLaw:
    """Law on [0, inf): an atom at 0 plus a density on (0, inf)."""

    atom_at_zero: float
    density: GridDensity

    def __post_init__(self) -> None:
        if not (0.0 <= self.atom_at_zero <= 1.0 + MASS_TOL):
            raise GridError(f"atom mass {self.atom_at_zero} outside [0, 1]")
        x = self.density.grid.centers()
        v = self.density.values
        if np.any(v < -1e-12):
            raise GridError("half-line density must be nonnegative")
        if float(np.abs(v[x < -self.density.grid.step / 2]).sum()) > 1e-12:
            raise GridError("half-line density has mass at negative abscissas")
        total = self.atom_at_zero + self.density.mass
        if abs(total - 1.0) > MASS_TOL:
            raise GridError(f"atom + density mass = {total}, expected 1 +- {MASS_TOL}")


def make_working_grid(n_max: int, points: int = 2**14) -> GridSpec:
    """Grid wide enough to hold an n_max-step unit-variance walk.

    Window is +-10*sqrt(n_max); the grid has a cell centered at 0 and
    `points` cells (power of two, for fast convolution).
    """
    if points < 16 or points & (points - 1):
        raise GridError(f"points must be a power of two >= 16, got {points}")
    half_width = 10.0 * math.sqrt(n_max)
    step = 2.0 * half_width / points
    return GridSpec(x_min=-(points // 2) * step, step=step, count=points)


# ---------------------------------------------------------------------------
# step distributions
# ---------------------------------------------------------------------------

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SPIKE_C = 2.0 * 5.0**0.25  # cdf(x) = 1/2 + sqrt(x)/_SPIKE_C on [0, sqrt(5)]


def _uniform_cdf(x: np.ndarray) -> np.ndarray:
    return np.clip((x + _SQRT3) / (2.0 * _SQRT3), 0.0, 1.0)


def _uniform_inv(u: np.ndarray) -> np.ndarray:
    return (2.0 * u - 1.0) * _SQRT3


_LAPLACE_B = 1.0 / math.sqrt(2.0)


def _laplace_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, 0.5 * np.exp(x / _LAPLACE_B), 1.0 - 0.5 * np.exp(-x / _LAPLACE_B))


def _laplace_inv(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    return np.where(u < 0.5, _LAPLACE_B, -_LAPLACE_B) * np.log(2.0 * np.minimum(u, 1.0 - u))


def _spike_cdf(x: np.ndarray) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=np.float64), -_SQRT5, _SQRT5)
    return np.where(
        x >= 0,
        0.5 + np.sqrt(np.maximum(x, 0.0)) / _SPIKE_C,
        0.5 - np.sqrt(np.maximum(-x, 0.0)) / _SPIKE_C,
    )


def _spike_inv(u: np.ndarray) -> np.ndarray:
    v = np.asarray(u, dtype=np.float64) - 0.5
    return np.copysign((_SPIKE_C * v) ** 2, v)


# mixture: w*N(m1, s2) + (1-w)*N(m2, s2), standardized to mean 0, variance 1
_MIX_DEFAULT = (0.3, -0.7, 0.3, 0.79)  # weight, loc1, loc2, var


def _mixture_params(parameters: tuple) -> tuple[float, float, float, float]:
    """(weight, loc1, loc2, var): the defaults when `parameters` is empty,
    else exactly four numbers that standardize the mixture to (0, 1)."""
    if not parameters:
        parameters = _MIX_DEFAULT
    if len(parameters) != 4:
        raise GridError(
            f"mixture takes 4 parameters (weight, loc1, loc2, var), got {len(parameters)}"
        )
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parameters):
        raise GridError(f"mixture parameters must be numbers, got {parameters}")
    try:
        w, m1, m2, s2 = (float(p) for p in parameters)
    except OverflowError as exc:  # an int beyond the float range
        raise GridError(f"mixture parameters must be finite: {exc}") from exc
    if not (0.0 < w < 1.0 and s2 > 0.0 and math.isfinite(m1) and math.isfinite(m2)):
        raise GridError(
            f"mixture needs 0 < weight < 1, var > 0 and finite locations; got {parameters}"
        )
    mean = w * m1 + (1 - w) * m2
    var = w * (m1 * m1 + s2) + (1 - w) * (m2 * m2 + s2)
    if abs(mean) > 1e-9 or abs(var - 1.0) > 1e-9:
        raise GridError(
            f"mixture parameters give mean {mean:.3g}, variance {var:.6g}; "
            "must standardize to (0, 1)"
        )
    return w, m1, m2, s2


def _mixture_cdf(x: np.ndarray, w: float, m1: float, m2: float, s2: float) -> np.ndarray:
    s = math.sqrt(s2)
    x = np.asarray(x, dtype=np.float64)
    return w * ndtr((x - m1) / s) + (1 - w) * ndtr((x - m2) / s)


def _mixture_draw(u: np.ndarray, w: float, m1: float, m2: float, s2: float) -> np.ndarray:
    """One mixture draw per uniform, by composition: u < w picks component 1
    and inverts it at u / w, the rest pick component 2 and invert it,
    mirrored, at (1 - u) / (1 - w).  Exact in law but not monotone in u.  The
    lowest uniforms feed component 1's lower tail and the highest component
    2's upper tail, through 1 - u, which is exact for u >= 1/2; u = w, whose
    second argument is 1, draws component 2 at 1 - 2^-53 instead."""
    s = math.sqrt(s2)
    first = u < w
    v = np.where(first, u / w, (1.0 - u) / (1.0 - w))
    z = ndtri(np.minimum(v, 1.0 - 2.0**-53, out=v))
    return np.where(first, m1 + s * z, m2 - s * z)


@dataclass(frozen=True)
class _Law:
    """One step law of the registry.  ``cdf(x, *args)`` and ``draw(u, *args)``
    take the arguments ``parameters`` makes of a spec's parameters (checked
    and unpacked); a law whose ``parameters`` is None takes none.  ``draw``
    maps uniforms to steps elementwise, so any block of uniforms can go
    through it alone."""

    cdf: Callable
    draw: Callable
    symmetric: bool
    bounded_density: bool
    parameters: Callable | None = None


_LAWS = {
    "gaussian": _Law(ndtr, ndtri, symmetric=True, bounded_density=True),
    "uniform": _Law(_uniform_cdf, _uniform_inv, symmetric=True, bounded_density=True),
    "laplace": _Law(_laplace_cdf, _laplace_inv, symmetric=True, bounded_density=True),
    "mixture": _Law(_mixture_cdf, _mixture_draw, symmetric=False, bounded_density=True,
                    parameters=_mixture_params),
    "spike": _Law(_spike_cdf, _spike_inv, symmetric=True, bounded_density=False),
}
_SPEC_NAMES = tuple(_LAWS)


@dataclass(frozen=True)
class DistributionSpec:
    """A built-in standardized (mean 0, variance 1) step distribution."""

    name: str
    parameters: tuple = ()

    def __post_init__(self) -> None:
        if self.name not in _LAWS:
            raise UnknownDistributionError(
                f"unknown distribution {self.name!r}; choose from {_SPEC_NAMES}"
            )
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if self.parameters and _LAWS[self.name].parameters is None:
            raise GridError(f"{self.name!r} takes no parameters")
        self._args()  # length, range and standardization check

    def _args(self) -> tuple:
        check = _LAWS[self.name].parameters
        return () if check is None else check(self.parameters)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _LAWS[self.name].cdf(x, *self._args())

    def inv_cdf(self, u: np.ndarray) -> np.ndarray:
        """A step drawn from each uniform, elementwise: the inverse CDF for
        the four single laws, the draw by component for the mixture (exact
        in law, not monotone in u)."""
        return _LAWS[self.name].draw(u, *self._args())

    @property
    def symmetric(self) -> bool:
        return _LAWS[self.name].symmetric

    @property
    def bounded_density(self) -> bool:
        return _LAWS[self.name].bounded_density


def sample_density(spec: DistributionSpec, grid: GridSpec) -> GridDensity:
    """Cell-averaged sampling of the step density onto the grid.

    Requires at least 8 standard deviations of window on each side of 0 and
    checks the standardization invariants on the sampled result.
    """
    if grid.x_min > -8.0 or grid.x_max < 8.0:
        raise WindowTooSmallError(
            f"window [{grid.x_min:.3g}, {grid.x_max:.3g}] must contain [-8, 8]"
        )
    edges = grid.edges()
    values = np.diff(spec.cdf(edges)) / grid.step
    f = GridDensity(grid, values)
    if abs(f.mass - 1.0) > MASS_TOL:
        raise GridError(f"sampled mass {f.mass} deviates from 1 beyond {MASS_TOL}")
    mean = moment(f, 1, "all")
    var = moment(f, 2, "all") - mean * mean
    if abs(mean) > 1e-6 or abs(var - 1.0) > 1e-4:
        raise GridError(
            f"sampled law has mean {mean:.2e}, variance {var:.6f}; "
            "refine the grid (smaller step) to meet the standardization invariants"
        )
    return f


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def _require_same_grid(a: GridDensity, b: GridDensity) -> None:
    if not math.isclose(a.grid.step, b.grid.step, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(
            f"step mismatch: {a.grid.step} vs {b.grid.step}"
        )
    if not a.grid.close_to(b.grid):
        raise GridMismatchError("convolution operands must share one working grid")


def convolve(a: GridDensity, b: GridDensity, mode: ConvMode = "fast") -> GridDensity:
    """Linear convolution of two densities, cropped back to their common grid.

    The full (zero-padded) linear convolution is computed, so there is no
    circular wraparound; the result is then restricted to the input window.
    Raises WindowOverflowError if the cropped-away mass is significant.

    The fast mode transforms only each operand's nonzero index range
    [a0, a1) and [b0, b1), padded to a fast length of at least
    (a1 - a0) + (b1 - b0) - 1, and places the product at offset a0 + b0 of
    the full convolution (`from_spectrum`).
    """
    _require_same_grid(a, b)
    scale = abs(a.mass * b.mass)
    if mode == "direct":
        return _crop(a.grid, np.convolve(a.values, b.values) * a.grid.step, 0, scale)
    if mode != "fast":
        raise ValueError(f"mode must be 'direct' or 'fast', got {mode!r}")
    a0, a1 = _support(a.values)
    b0, b1 = _support(b.values)
    if not (a1 and b1):
        return zero_density(a.grid)
    length = (a1 - a0) + (b1 - b0) - 1
    size = next_fast_len(length, real=True)
    prod = spectrum(a, size, a0, a1) * spectrum(b, size, b0, b1)
    return from_spectrum(a.grid, prod, scale, size, a0 + b0, length)


def _support(v: np.ndarray) -> tuple[int, int]:
    """[first, last + 1) of the nonzero cells of v, or (0, 0) if none."""
    nz = v != 0
    first = int(nz.argmax())
    if not nz[first]:
        return 0, 0
    return first, len(v) - int(nz[::-1].argmax())


def spectrum(f: GridDensity, size: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Half spectrum of f's cells [start, stop), zero-padded to `size` points.

    The product of two spectra at one size is the transform of the linear
    convolution of their cell ranges, without wraparound when `size` is at
    least that convolution's length (the two range lengths summed, minus
    one); so is any weighted sum of such products.  `from_spectrum` turns it
    back into a cropped density.
    """
    values = f.values[start:stop]
    if size < values.size:
        raise ValueError(f"size {size} is shorter than the {values.size} cells transformed")
    return rfft(values, size)


def from_spectrum(
    grid: GridSpec,
    acc: np.ndarray,
    scale: float,
    size: int,
    start: int = 0,
    length: int | None = None,
) -> GridDensity:
    """Density whose spectrum is `acc`, placed in the full convolution and
    cropped to the grid window.

    `acc` is a product of two `spectrum` values on `grid` at `size` points,
    or a weighted sum of such products.  Its inverse transform, cut to the
    products' `length` (default all `size` points), is the full linear
    convolution of the whole windows from index `start` on, which is where
    the products' cell ranges begin (the two range starts summed); the rest
    of the full convolution is zero.

    `scale` bounds the operands' total mass product (sum of
    |w * mass_a * mass_b| over the terms); WindowOverflowError is raised
    when the mass cropped away exceeds 10 * MASS_TOL * max(1, scale).  For
    nonnegative operands and weights the cropped mass of a sum is the sum of
    the per-term losses, so the guard on the sum is the guard on every term
    at once.
    """
    return _crop(grid, irfft(acc, size)[:length] * grid.step, start, scale)


def _crop(grid: GridSpec, part: np.ndarray, start: int, scale: float) -> GridDensity:
    """The grid window of a full convolution whose only nonzero values are
    `part`, from index `start` on; the kept cells are copied, so the result
    does not hold `part`."""
    # the full convolution starts at 2*x_min; the window at x_min = -i_zero*step
    offset = grid.zero_index()
    if offset < 0:
        raise GridMismatchError("convolution requires a grid with a cell centered at 0")
    lo = offset - start  # the window's first cell, as an index of part
    hi = lo + grid.count
    kept = np.zeros(grid.count)
    first, last = max(lo, 0), min(hi, part.size)
    if first < last:
        kept[first - lo : last - lo] = part[first:last]
    lost = grid.step * (np.abs(part[: max(lo, 0)]).sum() + np.abs(part[max(hi, 0) :]).sum())
    if lost > 10.0 * MASS_TOL * max(1.0, scale):
        raise WindowOverflowError(
            f"convolution loses mass {lost:.3e} outside the window; "
            "enlarge the window or increase the cell count"
        )
    return GridDensity(grid, kept)


def cdf_at(f: GridDensity, x: np.ndarray) -> np.ndarray:
    """The cumulative mass function of f at the points x: exactly piecewise
    linear for a cell-averaged density, the cells' cumulative sums times the
    cell width at the edges, 0 below the window and f's mass above it."""
    cum = np.concatenate(([0.0], np.cumsum(f.values) * f.grid.step))
    return np.interp(x, f.grid.edges(), cum, left=0.0, right=cum[-1])


def rescale_sqrt(f: GridDensity, n: int) -> GridDensity:
    """Law of X/sqrt(n) for X ~ f: x -> sqrt(n) f(sqrt(n) x), cell-averaged.

    Re-binning through the cumulative mass function (cdf_at) at the scaled
    cell edges is the exact pushforward of the represented law: mass and
    nonnegativity are preserved, and unbounded inputs stay representable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return f
    return GridDensity(f.grid, np.diff(cdf_at(f, math.sqrt(n) * f.grid.edges())) / f.grid.step)


@functools.lru_cache(maxsize=16)
def _halfline_weights(grid: GridSpec, side: Side) -> np.ndarray:
    """Integration weights for one open half-line; the 0-cell counts half.
    Shared read-only between callers."""
    x = grid.centers()
    h = grid.step
    if side == "positive":
        w = np.where(x > 0, h, 0.0)
    else:
        w = np.where(x < 0, h, 0.0)
    i = grid.zero_index()
    if i >= 0:
        w[i] = h / 2.0
    w.setflags(write=False)
    return w


def restrict(f: GridDensity, side: Side) -> tuple[GridDensity, float]:
    """Restriction of f to an open half-line, and its mass.

    The cell centered at 0 is split evenly between the two sides, which
    removes the O(step) bias a hard cut would introduce: f times the
    half-line weights of moment and halfline_l1 (_halfline_weights) over the
    cell width, 1, 1/2 or 0 per cell.  The two restrictions always add back
    to f exactly.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    out = GridDensity(f.grid, f.values * (_halfline_weights(f.grid, side) / f.grid.step))
    return out, out.mass


def moment(f: GridDensity, order: int, region: Region = "all") -> float:
    """step-weighted sum of x**order * f(x) over a region (0-cell split)."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    x = f.grid.centers()
    if region == "all":
        w = np.full(f.grid.count, f.grid.step)
    elif region in ("positive", "negative"):
        w = _halfline_weights(f.grid, region)
    else:
        raise ValueError(f"region must be 'all', 'positive' or 'negative', got {region!r}")
    if order == 0:
        return float(np.sum(w * f.values))
    return float(np.sum(w * x**order * f.values))


def tv_distance(f: GridDensity, g) -> float:
    """Total variation distance: half the L1 distance between densities.

    `g` may be a GridDensity on the same grid or any object exposing
    ``sample_on(grid) -> GridDensity`` (analytic reference laws do).
    """
    if not isinstance(g, GridDensity):
        g = g.sample_on(f.grid)
    if not f.grid.close_to(g.grid):
        raise GridMismatchError("total variation requires a common grid")
    return float(0.5 * f.grid.step * np.abs(f.values - g.values).sum())


def l1_distance(f: GridDensity, g: GridDensity) -> float:
    """L1 distance between two densities on a common grid."""
    if not f.grid.close_to(g.grid):
        raise GridMismatchError("L1 distance requires a common grid")
    return float(f.grid.step * np.abs(f.values - g.values).sum())


def halfline_l1(f: GridDensity, side: Side = "positive") -> float:
    """Integral of |f| over one half-line (the total-variation norm there)."""
    return float(np.sum(_halfline_weights(f.grid, side) * np.abs(f.values)))


def halfline_sup(f: GridDensity) -> float:
    """sup of |f| over the open positive half-line."""
    positive = f.values[np.searchsorted(f.grid.centers(), 0.0, side="right") :]
    if not positive.size:
        return 0.0
    return float(np.abs(positive).max())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def density_to_csv(f: GridDensity) -> str:
    """CSV with header `x,value` and a grid header comment line."""
    buf = io.StringIO()
    g = f.grid
    buf.write(f"# x_min={g.x_min:.17g} step={g.step:.17g} count={g.count}\n")
    buf.write("x,value\n")
    x = g.centers()
    for xi, vi in zip(x, f.values):
        buf.write(f"{xi:.17g},{vi:.17g}\n")
    return buf.getvalue()


def density_from_csv(text: str) -> GridDensity:
    """The density density_to_csv wrote; GridError naming the fault if not."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise GridError("missing grid header comment line")
    fields = dict(token.partition("=")[::2] for token in lines[0][1:].split())
    missing = [key for key in ("x_min", "step", "count") if not fields.get(key)]
    if missing:
        raise GridError(f"grid header {lines[0]!r} gives no {', '.join(missing)}=value")
    rows = [line.split(",") for line in lines[2:]]
    short = [number for number, row in enumerate(rows, 3) if len(row) < 2]
    if short:
        raise GridError(f"line {short[0]} has no value column")
    try:
        x_min, step, count = float(fields["x_min"]), float(fields["step"]), int(fields["count"])
        values = np.array([float(row[1]) for row in rows])
    except ValueError as exc:
        raise GridError(f"malformed number in the density CSV: {exc}") from exc
    return GridDensity(GridSpec(x_min, step, count), values)
