"""Laws of the partial-sum walk and its running maximum, by three routes.

The canonical route is the distributional recursion
``max(S_1..S_n) =d X + max(S_1..S_{n-1})^+`` (one convolution per step).
Two independent representations are provided for cross-validation: the
Nagaev kernel sum and the Spitzer generating-series expansion of the law of
the nonnegative part.  All three must agree on the grid to far better than
the published cross-route tolerance of 1e-3 in L1.
"""

from __future__ import annotations

import io
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.fft import next_fast_len

from .grid import (
    MASS_TOL,
    DistributionSpec,
    GridDensity,
    GridError,
    GridMismatchError,
    GridSpec,
    HalfLineLaw,
    _support,
    from_spectrum,
    make_working_grid,
    moment,
    restrict,
    sample_density,
    spectrum,
    zero_density,
)


class KeptLaws:
    """The max laws a walk holds, by n.  ``laws[n]`` is the n-step max law
    for a kept n; any other n raises ValueError naming the kept ones."""

    def __init__(self, laws: dict[int, GridDensity]) -> None:
        self._laws = laws

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(sorted(self._laws))

    def __getitem__(self, n: int) -> GridDensity:
        law = self._laws.get(n)
        if law is None:
            raise ValueError(
                f"the {n}-step max law was not kept; this walk keeps n in {list(self.kept)}"
            )
        return law


class SumLaws:
    """The sum laws S_k = p^{*k} of a walk, made on first read.

    ``[k]`` is valid for 1 <= k <= n_max (index 0 is None).  A law is
    made forward from the nearest held law below k by S_k = p * S_{k-1}
    (the same product, so the same bits, whatever the order of reads), its
    mass written to the walk's ``sum_mass`` table as it is made.  The store
    holds S_1 (the step law), the law at each n of ``keep`` and the last law
    made, so an ascending read costs one convolution per step and a kept
    walk holds at most len(keep) + 2 sum laws.  Reads are serialized by a
    lock, so threads may share a walk.
    """

    def __init__(self, step: GridDensity, n_max: int, keep, convolve_p, mass: np.ndarray):
        self.n_max = n_max
        self._keep = keep
        self._convolve = convolve_p
        self._mass = mass
        self._laws = {1: step}
        self._last = 1
        self._lock = threading.Lock()
        mass[1] = step.mass

    @property
    def held(self) -> tuple[int, ...]:
        """The k whose law the store holds now."""
        return tuple(sorted(self._laws))

    def __getitem__(self, k: int) -> GridDensity | None:
        if k == 0:
            return None
        if not 1 <= k <= self.n_max:
            raise IndexError(f"sum law index must lie in [0, {self.n_max}], got {k}")
        with self._lock:
            law = self._laws.get(k)
            if law is not None:
                return law
            j = max(i for i in self._laws if i < k)
            law = self._laws[j]
            for i in range(j + 1, k + 1):
                law = self._convolve(law)
                self._mass[i] = law.mass
                if i in self._keep:
                    self._laws[i] = law
            if self._last != 1 and self._last not in self._keep:
                del self._laws[self._last]
            self._laws[k] = law
            self._last = k
            return law


@dataclass(frozen=True)
class WalkLaws:
    """Per-step laws of S_k and of the running maximum, with scalar tables.

    ``sum_laws[k]`` is valid for 1 <= k <= n_max (index 0 is None); each
    is made on its first read and held only at the n of ``keep`` (SumLaws).
    ``max_laws[k]`` is the full k-step max law for each kept k (every k
    unless compute_walk was given ``keep``).  For every k the walk holds
    what the Nagaev kernel reads: the max law's negative part on cells
    [kernel_start, zero_index], the 0-cell halved as restrict does
    (``kernels[k]``; the recursion leaves every max law exactly zero below
    the step law's first nonzero cell).  ``negative_part(k)`` rebuilds the
    full-grid restriction from it.  ``nonpos_prob[k]`` is P(max <= 0) after
    k steps, ``neg_moment1``/``neg_moment2`` are the first and second
    moments of the running maximum over the negative half-line and
    ``max_mass[k]`` is the mass of the k-step max law.  ``sum_mass[k]`` is
    the mass of S_k, written when S_k is made (NaN before).
    """

    spec: DistributionSpec
    n_max: int
    step_density: GridDensity
    sum_laws: SumLaws
    max_laws: KeptLaws
    kernels: dict
    kernel_start: int
    nonpos_prob: np.ndarray
    neg_moment1: np.ndarray
    neg_moment2: np.ndarray
    max_mass: np.ndarray
    sum_mass: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.step_density.grid

    def check_index(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}], got {n}")

    def negative_part(self, n: int) -> GridDensity:
        """The n-step max law restricted to the negative half-line,
        restrict(max_laws[n], "negative")[0], rebuilt from its kernel slice
        whether or not that law is kept."""
        self.check_index(n)
        v = np.zeros(self.grid.count)
        v[self.kernel_start : self.grid.zero_index() + 1] = self.kernels[n]
        return GridDensity(self.grid, v)


def _kernel_size(grid: GridSpec) -> int:
    """FFT length of the kernel pass.  A kernel's negative part lives on
    cells [0, zero_index]; its linear convolution with a whole window has
    count + zero_index points, which this length holds without wraparound."""
    return next_fast_len(grid.count + grid.zero_index(), real=True)


class KernelSpectrum(NamedTuple):
    """What a kernel sum needs of the signed Nagaev kernel G_j: its atom at
    0, P(max_j <= 0), which is also the mass of its negative part, and that
    part's spectrum at the kernel pass's length (see grid.spectrum and
    _kernel_size; None for the unit atom, j = 0).  The negative density
    itself is not held."""

    index: int
    atom_at_zero: float
    negative_spectrum: np.ndarray | None


class KernelSum:
    """Running sum of densities convolved with signed Nagaev kernels:
    sum over terms (G, f, w) of w * (atom * f - f * neg), G = atom - neg.

    Atom terms add in space and convolution terms as products of spectra
    at the kernel pass's length, which holds a whole window convolved with a
    negative part on cells [0, zero_index] (_kernel_size), so the whole sum
    costs one inverse transform at that length.  Every f and neg is a
    nonnegative density and every w positive, so the window guard acts on
    the sum with scale sum |w * mass(f) * mass(neg)| (grid.from_spectrum).
    Each accumulator is allocated on its first term; a part without terms is
    the grid's shared zero density.
    """

    def __init__(self, grid: GridSpec) -> None:
        self.grid = grid
        self._size = _kernel_size(grid)
        self._atoms: np.ndarray | None = None
        self._acc: np.ndarray | None = None
        self._scale = 0.0

    def add(
        self, kernel: KernelSpectrum, f: GridDensity, weight: float, f_hat: np.ndarray | None
    ) -> None:
        """Add w * (G * f), with f_hat the spectrum of f's whole window at
        the kernel pass's length (unused, and may be None, for the unit
        atom)."""
        atoms = (weight * kernel.atom_at_zero) * f.values
        if self._atoms is None:
            self._atoms = atoms
        else:
            self._atoms += atoms
        if kernel.index > 0:
            term = weight * f_hat * kernel.negative_spectrum
            if self._acc is None:
                self._acc = term
            else:
                self._acc += term
            self._scale += abs(weight * f.mass * kernel.atom_at_zero)

    def atom_part(self) -> GridDensity:
        """The kernels' atoms alone: sum of w * atom * f."""
        if self._atoms is None:
            return zero_density(self.grid)
        return GridDensity(self.grid, self._atoms)

    def convolutions(self) -> GridDensity:
        """The kernels' negative parts alone: sum of w * (f * neg)."""
        if self._acc is None:
            return zero_density(self.grid)
        length = self.grid.count + self.grid.zero_index()
        return from_spectrum(self.grid, self._acc, self._scale, self._size, 0, length)

    def total(self) -> GridDensity:
        return self.atom_part() - self.convolutions()


def compute_walk(
    spec: DistributionSpec,
    n_max: int,
    grid: GridSpec | None = None,
    keep=None,
) -> WalkLaws:
    """Build the walk laws up to n_max by the one-step max recursion.

    Each step convolves the step law p with the previous max law's positive
    part, transformed over cells [zero_index, count) with p over its
    nonzero cells.  The sum laws are not made here: the walk's SumLaws
    makes S_k = p * S_{k-1} when a reader first asks for it, with the sum
    law transformed over the whole window.  p is transformed once for each
    of the two lengths.

    ``keep`` names the n whose full max and sum laws the walk holds (None:
    every n in [1, n_max]).  Every step keeps its Nagaev kernel's negative
    part (see WalkLaws); the max-side scalar tables are filled here, the
    sum-law masses as the laws are made.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    keep = range(1, n_max + 1) if keep is None else set(keep)
    if not all(1 <= n <= n_max for n in keep):
        raise ValueError(f"keep must name steps in [1, {n_max}], got {sorted(keep)}")
    if grid is None:
        grid = make_working_grid(n_max)
    zero = grid.zero_index()
    if zero < 0:
        raise GridMismatchError("the walk requires a grid with a cell centered at 0")
    p = sample_density(spec, grid)
    p0, p1 = _support(p.values)
    kernel_start = min(p0, zero)

    def convolver(start: int):
        """f -> p * f for densities f that vanish below cell `start`."""
        length = (grid.count - start) + (p1 - p0) - 1
        size = next_fast_len(length, real=True)
        p_hat = spectrum(p, size, p0, p1)

        def convolve_p(f: GridDensity) -> GridDensity:
            prod = p_hat * spectrum(f, size, start)
            return from_spectrum(grid, prod, abs(p.mass * f.mass), size, start + p0, length)

        return convolve_p

    convolve_pos = convolver(zero)

    laws: dict = {}
    kernels: dict = {}
    nonpos = np.full(n_max + 1, np.nan)
    m1 = np.full(n_max + 1, np.nan)
    m2 = np.full(n_max + 1, np.nan)
    mass = np.full(n_max + 1, np.nan)
    sum_mass = np.full(n_max + 1, np.nan)

    def record(k: int, f: GridDensity) -> None:
        neg, neg_mass = restrict(f, "negative")
        nonpos[k] = neg_mass
        m1[k] = moment(f, 1, "negative")
        m2[k] = moment(f, 2, "negative")
        mass[k] = f.mass
        kernels[k] = neg.values[kernel_start : zero + 1].copy()
        if k in keep:
            laws[k] = f

    record(1, p)
    prev = p
    for k in range(2, n_max + 1):
        pos_part, _ = restrict(prev, "positive")
        prev = nonpos[k - 1] * p + convolve_pos(pos_part)
        drift = abs(prev.mass - 1.0)
        if drift > k * MASS_TOL:
            raise GridError(
                f"mass drift {drift:.2e} at step {k} exceeds {k * MASS_TOL:.1e}; "
                "increase the grid resolution or window"
            )
        record(k, prev)

    return WalkLaws(
        spec=spec,
        n_max=n_max,
        step_density=p,
        sum_laws=SumLaws(p, n_max, keep, convolver(0), sum_mass),
        max_laws=KeptLaws(laws),
        kernels=kernels,
        kernel_start=kernel_start,
        nonpos_prob=nonpos,
        neg_moment1=m1,
        neg_moment2=m2,
        max_mass=mass,
        sum_mass=sum_mass,
    )


def kernel_spectrum(walk: WalkLaws, index: int) -> KernelSpectrum:
    """Kernel G_j in spectral form: the unit atom for j = 0; else the atom
    P(max_j <= 0) minus the negative part of the j-step max law, transformed
    over cells [0, zero_index] whether or not the walk kept that law."""
    if index == 0:
        return KernelSpectrum(0, 1.0, None)
    neg = walk.negative_part(index)
    neg_hat = spectrum(neg, _kernel_size(walk.grid), 0, walk.grid.zero_index() + 1)
    return KernelSpectrum(index, float(walk.nonpos_prob[index]), neg_hat)


def kernel_sums(walk: WalkLaws, ns, parts):
    """Nagaev kernel sums sum_k w_k (f_k * G_{n-k}) for every n in ns, in one
    pass over k = 1..max(ns).

    parts(k) gives one (density, weight) term, or None, per sum.  Each term
    is transformed once, at the kernel pass's length, and added, with kernel
    n - k, into its sum for every n >= k of ns.  Yields (n, sums) right after
    step n.  Each kernel is made on first use and dropped after its last:
    kernel j serves no step after k = max(ns) - j.
    """
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("ns must name at least one n")
    for n in ns:
        walk.check_index(n)
    top = ns[-1]
    size = _kernel_size(walk.grid)
    held: dict = {}
    sums: dict = {}
    for k in range(1, top + 1):
        terms = parts(k)
        if k == 1:
            sums = {n: tuple(KernelSum(walk.grid) for _ in terms) for n in ns}
        for i, term in enumerate(terms):
            if term is None:
                continue
            f, weight = term
            f_hat = spectrum(f, size) if k < top else None  # step top needs kernel 0 only
            for n in ns[bisect_left(ns, k):]:
                if n - k not in held:
                    held[n - k] = kernel_spectrum(walk, n - k)
                sums[n][i].add(held[n - k], f, weight, f_hat)
        held.pop(top - k, None)
        if k in sums:
            yield k, sums.pop(k)


def nagaev_density(walk: WalkLaws, ns) -> dict[int, GridDensity]:
    """Density of the n-step running maximum, for every n in ns, as the
    kernel representation: the sum over k of the k-step sum law convolved
    with the (n-k)-step kernel."""
    sums = kernel_sums(walk, ns, lambda k: ((walk.sum_laws[k], 1.0),))
    return {n: terms.total() for n, (terms,) in sums}


def spitzer_positive_law(walk: WalkLaws, n: int) -> HalfLineLaw:
    """Law of the nonnegative part of the n-step maximum via the
    exponential generating-series recursion over positive sum restrictions.

    With mu_k the restriction of the k-step sum law to (0, inf), the series
    exp(sum_k s^k mu_k / k) has measure coefficients B_0 = delta_0 and
    B_m = (1/m) sum_{j<=m} mu_j * B_{m-j}; the result is
    sum_m c_{n-m} B_m with c_0 = 1 and c_j = P(max_j < 0).
    """
    walk.check_index(n)
    grid = walk.grid
    mu = [None] + [restrict(walk.sum_laws[k], "positive")[0] for k in range(1, n + 1)]
    # each mu_j and B_i is transformed once; B_m is one inverse transform of
    # the summed products (all operands are nonnegative measures)
    mu_hat = [None] + [spectrum(mu[j]) for j in range(1, n)]
    b_hat: list = [None]
    b_mass: list = [None]

    atom = float(walk.nonpos_prob[n])  # c_n * B_0
    dens = np.zeros(grid.count)
    for m in range(1, n + 1):
        b = mu[m].values.copy()  # j = m term: mu_m * B_0 = mu_m
        if m > 1:
            acc = sum(mu_hat[j] * b_hat[m - j] for j in range(1, m))
            scale = sum(mu[j].mass * b_mass[m - j] for j in range(1, m))
            b += from_spectrum(grid, acc, scale).values
        b_m = GridDensity(grid, b / m)
        if m < n:
            b_hat.append(spectrum(b_m))
            b_mass.append(b_m.mass)
        c = 1.0 if n == m else float(walk.nonpos_prob[n - m])
        dens += c * b_m.values
    density = GridDensity(grid, np.maximum(dens, 0.0))
    # the boundary cells of the half-line restrictions carry an O(n step^2)
    # quadrature drift into the total mass, plus an O(step^{3/2}) term driven
    # by the boundary magnitude when the step density is unbounded at 0
    boundary = max(
        float(mu[j].values[grid.zero_index()]) for j in range(1, min(n, 2) + 1)
    )
    tol = n * (MASS_TOL + 0.05 * grid.step**2)
    tol += 0.2 * grid.step**1.5 * boundary**2
    return HalfLineLaw(atom_at_zero=atom, density=density, mass_tol=tol)


def spitzer_second_moment(walk: WalkLaws, n: int) -> float:
    """Second moment of the nonnegative part of the n-step maximum from the
    generating-series identity over positive-part moments of the sum laws."""
    walk.check_index(n)
    e1, e2 = np.empty(n), np.empty(n)
    for k in range(1, n + 1):  # one ascending read of the sum laws
        law = walk.sum_laws[k]
        e1[k - 1] = moment(law, 1, "positive")
        e2[k - 1] = moment(law, 2, "positive")
    inv = 1.0 / np.arange(1, n + 1)
    a = inv * e1
    cross = 0.0
    for k in range(1, n):
        cross += a[k - 1] * a[: n - k].sum()
    return float(cross + (inv * e2).sum())


def sparre_andersen(n: int) -> float:
    """P(all of S_1..S_n <= 0) for symmetric continuous steps:
    binom(2n, n) / 4^n, evaluated in exact rational arithmetic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(Fraction(math.comb(2 * n, n), 4**n))


def spitzer_first_term_split(walk: WalkLaws, n: int) -> GridDensity:
    """Subprobability remainder on (0, inf) after removing the leading
    single-step term from the n-step max law:
    remainder = max_law_n - P(max_{n-1} <= 0) * step_density, restricted."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    walk.check_index(n)
    signed = walk.max_laws[n] - float(walk.nonpos_prob[n - 1]) * walk.step_density
    rem, _ = restrict(signed, "positive")
    return rem


def walk_scalars_csv(walk: WalkLaws) -> str:
    """Per-step scalar table: k,Fbar0,abar,bbar,mass_p,mass_pbar.  Makes the
    sum laws no reader has asked for yet, for their masses."""
    if np.isnan(walk.sum_mass[walk.n_max]):
        walk.sum_laws[walk.n_max]
    buf = io.StringIO()
    buf.write("k,Fbar0,abar,bbar,mass_p,mass_pbar\n")
    for k in range(1, walk.n_max + 1):
        buf.write(
            f"{k},{walk.nonpos_prob[k]:.17g},{walk.neg_moment1[k]:.17g},"
            f"{walk.neg_moment2[k]:.17g},{walk.sum_mass[k]:.17g},"
            f"{walk.max_mass[k]:.17g}\n"
        )
    return buf.getvalue()
