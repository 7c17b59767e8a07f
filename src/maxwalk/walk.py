"""Laws of the partial-sum walk and its running maximum, by three routes.

The canonical route is the distributional recursion
``max(S_1..S_n) =d X + max(S_1..S_{n-1})^+`` (one convolution per step),
exact for the lattice walk on the grid's cells.  Two other representations
check it: the Nagaev kernel sum, which reads the recursion's negative parts
and is the recursion re-expanded (f_{n+1} = p * (f_n + G_n)), and Spitzer's
generating series for the law of the nonnegative part, which reads the sum
laws alone.  On the default verify grid (2^14 cells, n <= 16) both match
the recursion to rounding: the kernel route to 1.1e-14 in L1 or better,
the series to 6.7e-15 (2e-16 to 8e-16 in P(M_n <= 0) at every n <= 64).
So the routes check the code, not the grid error.  The published
cross-route tolerance is 1e-3.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from ._special import next_fast_len
from .grid import (
    MASS_TOL,
    DistributionSpec,
    GridDensity,
    GridError,
    GridMismatchError,
    GridSpec,
    HalfLineLaw,
    WindowOverflowError,
    _halfline_weights,
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
    """The sum laws S_k = p^{*k} of a walk, carried as spectra at the kernel
    pass's length L (_pass_size) and made by the reader that asks for them.

    The spectrum of S_k is the half spectrum of a cyclic buffer of L cells:
    the window's cells in [0, count) and, on the pad cells [count, L), what
    the products pushed over the window's edges.  One step is one complex
    product with the spectrum of h * p rolled back by zero_index cells (h
    the cell width): the cyclic convolution with p, shifted so the window
    stays at [0, count).  The pad is wide enough (_wrap_width) that what
    spills over one edge does not come back in at the other, so the window
    holds the uncropped chain p * ... * p to rounding.  At every step the
    pad's mass is read from the spectrum (Parseval against the pad's
    indicator) and WindowOverflowError is raised when it exceeds
    grid.from_spectrum's bound, 10 * MASS_TOL * max(1, |mass(p)
    mass(S_{k-1})|), the window's mass (the total less the pad's) carried by
    the stream.

    ``stream()`` yields the spectra of S_1, S_2, ..., S_{n_max} in order,
    one product per step; ``spectrum(k)`` is S_k's, streamed to k, and
    ``masses()`` the window's masses.  Only S_1's spectrum is held, so every
    read makes the same products and the same bits, and changes nothing.
    ``[k]`` is S_k in space (index 0 is None): the step law for k = 1, else
    one inverse transform of spectrum(k) cut to the window.
    """

    def __init__(self, step: GridDensity, n_max: int, size: int):
        grid = step.grid
        self.n_max = n_max
        self.size = size
        self._p = step
        self._first = rfft(step.values, size)
        padded = np.zeros(size)
        padded[: grid.count] = step.values
        self._factor = grid.step * rfft(np.roll(padded, -grid.zero_index()))
        pad = np.zeros(size)
        pad[grid.count :] = 1.0
        self._pad = _dual(pad, size)

    def spectrum(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n_max:
            raise IndexError(f"sum law index must lie in [1, {self.n_max}], got {k}")
        return next(islice(self.stream(), k - 1, None))

    def stream(self):
        """Yield the spectra of S_1, S_2, ..., S_{n_max} in order, each made
        from the last by _step.  The generator holds only its current
        spectrum and mass and belongs to its caller."""
        s_hat, mass = self._first, self._p.mass
        yield s_hat
        for k in range(2, self.n_max + 1):
            s_hat, mass = self._step(k, s_hat, mass)
            yield s_hat

    def masses(self) -> np.ndarray:
        """The window's mass of S_k at index k <= n_max (NaN at 0), streamed."""
        mass = np.full(self.n_max + 1, np.nan)
        s_hat, mass[1] = self._first, self._p.mass
        for k in range(2, self.n_max + 1):
            s_hat, mass[k] = self._step(k, s_hat, mass[k - 1])
        return mass

    def _step(self, k: int, prev: np.ndarray, prev_mass: float) -> tuple[np.ndarray, float]:
        """S_k's spectrum and window mass from S_{k-1}'s: one product, guarded."""
        s_hat = self._factor * prev
        h = self._p.grid.step
        pad = _parseval(s_hat, self._pad)
        lost = h * abs(pad)
        if lost > 10.0 * MASS_TOL * max(1.0, abs(self._p.mass * prev_mass)):
            raise WindowOverflowError(
                f"the {k}-step sum law puts mass {lost:.3e} outside the window; "
                "enlarge the window or increase the cell count"
            )
        return s_hat, h * (float(s_hat[0].real) - pad)

    def __getitem__(self, k: int) -> GridDensity | None:
        if k == 0:
            return None
        if k == 1:
            return self._p
        return _window(self._p.grid, self.spectrum(k), self.size)


def _dual(v: np.ndarray, size: int) -> np.ndarray:
    """The vector d with Re(s_hat . d) = sum(v * s) for every real buffer s
    of `size` cells with half spectrum s_hat (Parseval); v is zero past its
    length."""
    d = np.conj(rfft(v, size)) * (2.0 / size)
    d[0] /= 2.0
    if size % 2 == 0:
        d[-1] /= 2.0
    return d


def _parseval(s_hat: np.ndarray, dual: np.ndarray) -> float:
    """Re(s_hat . dual), sum(v * s) for `dual` = _dual(v), by numpy's pairwise
    sum on this thread: a complex np.dot is BLAS zdotu, which OpenBLAS splits
    past about 10,000 entries across threads that then spin."""
    return float((s_hat * dual).real.sum())


def _window(grid: GridSpec, s_hat: np.ndarray, size: int) -> GridDensity:
    """The window cells [0, count) of the cyclic buffer whose half spectrum
    at `size` points is s_hat, copied out of the inverse transform."""
    return GridDensity(grid, irfft(s_hat, size)[: grid.count].copy())


@dataclass(frozen=True)
class WalkLaws:
    """Per-step laws of S_k and of the running maximum, with scalar tables.

    ``sum_laws`` carries S_k for 1 <= k <= n_max as spectra at the kernel
    pass's length (``pass_size``), streamed to each reader (SumLaws);
    ``sum_laws[k]`` is S_k in space.
    ``max_laws[k]`` is the full k-step max law for each kept k (every k
    unless compute_walk was given ``keep``).  For every k the walk holds
    the Nagaev kernel's negative part, ``kernels[k]``: the max law's
    negative half-line, the 0-cell halved as restrict does, as a density on
    its own cells [kernel_start, zero_index] (one GridSpec for every k; the
    recursion leaves every max law exactly zero below the step law's first
    nonzero cell).  ``nonpos_prob[k]``, P(max <= 0) after k steps, is that
    density's mass and ``neg_moment1``/``neg_moment2`` its first and second
    moments; ``max_mass[k]`` is the mass of the k-step max law.  No reader
    changes a walk.
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

    @property
    def grid(self) -> GridSpec:
        return self.step_density.grid

    @property
    def pass_size(self) -> int:
        """FFT length of the kernel pass and of the sum-law spectra."""
        return self.sum_laws.size

    def check_index(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}], got {n}")

    def transform(self, f: GridDensity) -> np.ndarray:
        """f's window as a kernel-pass term: its half spectrum at pass_size."""
        return spectrum(f, self.pass_size)

    def window(self, f_hat: np.ndarray) -> GridDensity:
        """The density in the window of a kernel-pass term (the inverse of
        transform, which also drops a sum law's pad cells)."""
        return _window(self.grid, f_hat, self.pass_size)


def _pass_size(p: GridDensity, n_max: int, kernel_start: int) -> int:
    """FFT length of the kernel pass and of the sum-law spectra, count plus
    a pad, rounded up by next_fast_len.  A kernel's negative part lives on
    cells [kernel_start, zero_index]; its linear convolution with a whole
    window has count + zero_index - kernel_start points, so the pad is at
    least zero_index - kernel_start cells wide.  It is also at least
    _wrap_width(p, n_max) wide, so that no sum law wraps around the cyclic
    buffer.  On the working grids (make_working_grid) the kernel's width is
    the larger; on a window narrower than the sum laws the pad grows."""
    grid = p.grid
    pad = max(grid.zero_index() - kernel_start, _wrap_width(p, n_max))
    return next_fast_len(grid.count + pad, real=True)


# exponential tilts, per cell, over which _wrap_width minimizes its bound
_TILTS = np.geomspace(1e-5, 4.0, 56)


def _wrap_width(p: GridDensity, n: int) -> int:
    """Least pad width, in cells, at which no S_k with k <= n puts more
    than eps / (count * step) of density (eps * the smallest sup of a
    window's unit mass) on the window by wrapping around the cyclic buffer.

    With q(d) = step * p at d cells from the 0-cell, S_k is 1/step times
    q^{*k} there, and for every tilt t > 0 (a Chernoff bound on the
    uncropped chain) q^{*k}(m) <= e^{-t m} max_d(q(d) e^{t d}) M(t)^{k-1},
    M(t) = sum_d q(d) e^{t d}.  The first image past the right edge lies
    count + pad - zero_index cells right of the 0-cell, the first past the
    left edge zero_index + pad + 1 cells left of it, and the later laps add
    a geometric series in e^{-t count}.  The width is the least over
    _TILTS, for the worse side (negative when the window alone suffices).
    """
    grid = p.grid
    zero = grid.zero_index()
    p0, p1 = _support(p.values)
    d = np.arange(p0 - zero, p1 - zero, dtype=float)
    with np.errstate(divide="ignore"):
        log_q = np.log(grid.step * np.maximum(p.values[p0:p1], 0.0))
    floor = math.log(np.finfo(float).eps / grid.count)
    width = -grid.count
    for sign, edge in ((1.0, grid.count - zero), (-1.0, zero + 1)):
        reach = math.inf
        for t in _TILTS:
            a = log_q + (sign * t) * d
            top = float(a.max())
            log_m = max(top + math.log(float(np.exp(a - top).sum())), 0.0)
            log_bound = top + (n - 1) * log_m - math.log(-math.expm1(-t * grid.count))
            reach = min(reach, (log_bound - floor) / t)
        width = max(width, math.ceil(reach) - edge)
    return width


class KernelSpectrum(NamedTuple):
    """What a kernel sum needs of the signed Nagaev kernel G_j: its atom at
    0, P(max_j <= 0), which is also the mass of its negative part, and that
    part's spectrum: the values of WalkLaws.kernels[j] (cells [kernel_start,
    zero_index]) transformed at the kernel pass's length (_pass_size; None
    for the unit atom, j = 0)."""

    index: int
    atom_at_zero: float
    negative_spectrum: np.ndarray | None


class KernelSum:
    """Running sum of densities convolved with signed Nagaev kernels:
    sum over terms (G, f, w) of w * (atom * f - f * neg), G = atom - neg.

    Each f comes as a spectrum at the walk's kernel-pass length (a sum
    law's spectrum, or WalkLaws.transform of a density); kernel_sums alone
    adds the terms, one n at a time and in ascending k, each with its
    kernel's spectrum while that spectrum is alive.  The
    atom terms and the convolution terms are summed as spectra, and each
    part costs one inverse transform: the atoms' is cut to the window, the
    convolutions' placed at offset kernel_start of the full convolution
    and cropped (grid.from_spectrum).  That length holds a whole window
    convolved with a negative part on cells [kernel_start, zero_index]
    without wraparound (_pass_size).  Every f and neg is a nonnegative
    density and every w positive, so the window guard acts on the sum with
    scale sum |w * mass(f) * mass(neg)|, mass(f) read from f's spectrum at
    0.  Each accumulator is allocated on its first term; a part without
    terms is the grid's shared zero density.
    """

    def __init__(self, walk: WalkLaws) -> None:
        self.grid = walk.grid
        self._size = walk.pass_size
        self._start = walk.kernel_start
        self._atoms: np.ndarray | None = None
        self._acc: np.ndarray | None = None
        self._scale = 0.0

    def add(self, kernel: KernelSpectrum, f_hat: np.ndarray, weight: float) -> None:
        """Add w * (G * f), with f_hat the spectrum of f at the kernel
        pass's length."""
        atoms = (weight * kernel.atom_at_zero) * f_hat
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
            mass = self.grid.step * f_hat[0].real
            self._scale += abs(weight * mass * kernel.atom_at_zero)

    def atom_part(self) -> GridDensity:
        """The kernels' atoms alone: sum of w * atom * f."""
        if self._atoms is None:
            return zero_density(self.grid)
        return _window(self.grid, self._atoms, self._size)

    def convolutions(self) -> GridDensity:
        """The kernels' negative parts alone: sum of w * (f * neg)."""
        if self._acc is None:
            return zero_density(self.grid)
        length = self.grid.count + self.grid.zero_index() - self._start
        return from_spectrum(self.grid, self._acc, self._scale, self._size, self._start, length)

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
    part, its cells [zero_index, count) read in place with the 0-cell
    halved, transformed with p over its nonzero cells.  The sum laws are
    not made here: the walk's SumLaws steps the spectrum of S_k by one
    product with p's when a reader streams it.

    ``keep`` names the n whose full max law the walk holds (None: every n
    in [1, n_max]).  Every step keeps its Nagaev kernel's negative part on
    the kernel's own cells (see WalkLaws) and reads the max-side scalar
    tables off it.
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
    x0 = grid.x_min + kernel_start * grid.step  # as grid.centers() has it
    kernel_grid = GridSpec(x0, grid.step, zero - kernel_start + 1)

    # p * f for the positive parts f, which vanish below cell zero
    length = (grid.count - zero) + (p1 - p0) - 1
    size = next_fast_len(length, real=True)
    p_hat = spectrum(p, size, p0, p1)

    laws: dict = {}
    kernels: dict = {}
    nonpos = np.full(n_max + 1, np.nan)
    m1 = np.full(n_max + 1, np.nan)
    m2 = np.full(n_max + 1, np.nan)
    mass = np.full(n_max + 1, np.nan)

    def record(k: int, f: GridDensity, f_mass: float) -> None:
        neg = f.values[kernel_start : zero + 1].copy()
        neg[-1] /= 2.0
        kernel = kernels[k] = GridDensity(kernel_grid, neg)
        nonpos[k] = kernel.mass
        m1[k] = moment(kernel, 1)
        m2[k] = moment(kernel, 2)
        mass[k] = f_mass
        if k in keep:
            laws[k] = f

    record(1, p, p.mass)
    prev = p
    for k in range(2, n_max + 1):
        pos = prev.values[zero:].copy()
        pos[0] /= 2.0
        scale = abs(p.mass * grid.step * pos.sum())
        conv = from_spectrum(grid, p_hat * rfft(pos, size), scale, size, zero + p0, length)
        prev = nonpos[k - 1] * p + conv
        prev_mass = prev.mass  # one window sum for the guard and the table
        drift = abs(prev_mass - 1.0)
        if drift > k * MASS_TOL:
            raise GridError(
                f"mass drift {drift:.2e} at step {k} exceeds {k * MASS_TOL:.1e}; "
                "increase the grid resolution or window"
            )
        record(k, prev, prev_mass)

    return WalkLaws(
        spec=spec,
        n_max=n_max,
        step_density=p,
        sum_laws=SumLaws(p, n_max, _pass_size(p, n_max, kernel_start)),
        max_laws=KeptLaws(laws),
        kernels=kernels,
        kernel_start=kernel_start,
        nonpos_prob=nonpos,
        neg_moment1=m1,
        neg_moment2=m2,
        max_mass=mass,
    )


def kernel_spectrum(walk: WalkLaws, index: int) -> KernelSpectrum:
    """Kernel G_j in spectral form: the unit atom for j = 0; else the atom
    P(max_j <= 0) minus the negative part of the j-step max law,
    walk.kernels[j] transformed at the kernel pass's length whether or not
    the walk kept that law."""
    if index == 0:
        return KernelSpectrum(0, 1.0, None)
    neg_hat = rfft(walk.kernels[index].values, walk.pass_size)
    return KernelSpectrum(index, float(walk.nonpos_prob[index]), neg_hat)


def kernel_sums(walk: WalkLaws, n: int, terms) -> tuple[KernelSum, ...]:
    """The Nagaev kernel sums sum_k w_k (f_k * G_{n-k}) of one n: the loop
    every kernel sum runs.  ``terms`` yields one tuple per k = 1, 2, ...,
    one (spectrum at the kernel pass's length, weight) term or None per
    sum.  For each k the loop makes G_{n-k} (kernel_spectrum), adds k's
    terms into the sums and drops the kernel, so one kernel spectrum is
    alive at a time.  It stops where ``terms`` ends or at k = n and pulls
    no tuple past k = n, so a sum-law stream (SumLaws.stream) is stepped
    to S_n and no further.  Returns the sums, one per tuple entry."""
    walk.check_index(n)
    sums: tuple = ()
    for k, row in zip(range(1, n + 1), terms):
        if k == 1:
            sums = tuple(KernelSum(walk) for _ in row)
        kernel = kernel_spectrum(walk, n - k)
        for acc, term in zip(sums, row):
            if term is not None:
                acc.add(kernel, *term)
        del kernel
    return sums


def _ascending(walk: WalkLaws, ns) -> list[int]:
    """ns sorted, each n once, every n in [1, n_max] (a batch reader's ns)."""
    ns = sorted(set(ns))
    if not ns:
        raise ValueError("ns must name at least one n")
    walk.check_index(ns[0])
    walk.check_index(ns[-1])
    return ns


def nagaev_density(walk: WalkLaws, ns) -> dict[int, GridDensity]:
    """Density of the n-step running maximum, for every n in ns, as the
    kernel representation: the sum over k of the k-step sum law convolved
    with the (n-k)-step kernel (kernel_sums), whose terms are the spectra
    of the sum-law stream itself.  Each n streams its own S_1..S_n, and its
    sum is finished and dropped before the next n starts."""
    ns, stream = _ascending(walk, ns), walk.sum_laws.stream
    return {n: kernel_sums(walk, n, (((s, 1.0),) for s in stream()))[0].total() for n in ns}


def _series_coefficients(a: np.ndarray) -> np.ndarray:
    """c_0 = 1 and c_j = (1/j) sum_{k<=j} a_k c_{j-k} for j <= len(a), the
    coefficients of exp(sum_k a_k s^k / k), a_k = a[k - 1]."""
    c = np.ones(len(a) + 1)
    for j in range(1, len(a) + 1):
        c[j] = np.dot(a[:j], c[j - 1 :: -1]) / j
    return c


def spitzer_nonpos_probs(walk: WalkLaws, n: int) -> np.ndarray:
    """P(M_j <= 0) for j = 0, 1, ..., n (1 at j = 0) from the sum laws
    alone, on the lattice of the walk's cells (see spitzer_positive_law):
    the coefficients c_j of exp(sum_k a_k s^k / k), a_k = P(S_k <= 0),
    each read off one stream of S_1..S_n (Parseval against the indicator
    of the window's cells <= 0, as spitzer_second_moment reads its
    moments)."""
    walk.check_index(n)
    h, first = walk.grid.step, walk.grid.zero_index() + 1
    nonpos = _dual(np.ones(first), walk.pass_size)
    a = h * np.array([_parseval(s_hat, nonpos) for s_hat in islice(walk.sum_laws.stream(), n)])
    return _series_coefficients(a)


def spitzer_positive_law(walk: WalkLaws, ns) -> dict[int, HalfLineLaw]:
    """Law of the nonnegative part of the n-step maximum, for every n in ns,
    from the sum laws alone, by Spitzer's identity (Trans. AMS 82, 1956) on
    the lattice of the walk's cells, the 0-cell the point 0:
    sum_n s^n E e^{itM_n^+} = exp(sum_k (s^k / k) E e^{itS_k^+}).

    S_k^+ is P(S_k <= 0), the full 0-cell included, at 0 plus mu_k, S_k on
    the cells > 0.  So the law is sum_m c_{n-m} B_m, with c_j = P(M_j <= 0)
    (as spitzer_nonpos_probs makes them) and B_0 = delta_0, B_m = (1/m)
    sum_{j<=m} mu_j * B_{m-j} the coefficients of exp(sum_k mu_k s^k / k);
    its atom at 0 is c_n.  This is the lattice law the recursion computes:
    its halved 0-cell and its atom land on the same point.

    One stream of S_1..S_N, N = max(ns), gives both P(S_k <= 0) (Parseval)
    and mu_k (one inverse transform); c and B_1..B_N are made once for all
    of ns, each n summing its own c_{n-m} B_m in ascending m.  Each mu_j
    and B_m is transformed once over the cells > 0, at their linear
    convolution's fast length; B_m is one inverse of the summed products,
    cropped under the window guard (all operands are nonnegative measures).
    """
    ns = _ascending(walk, ns)
    n_max, grid = ns[-1], walk.grid
    h, first = grid.step, grid.zero_index() + 1  # the first cell > 0
    nonpos = _dual(np.ones(first), walk.pass_size)
    length = 2 * (grid.count - first) - 1
    size = next_fast_len(length, real=True)
    a, mu = np.empty(n_max), [None]
    for k, s_hat in enumerate(islice(walk.sum_laws.stream(), n_max)):
        a[k] = h * _parseval(s_hat, nonpos)
        mu.append(irfft(s_hat, walk.pass_size)[first : grid.count].copy())
    c = _series_coefficients(a)
    mu_hat = [None] + [rfft(mu[j], size) for j in range(1, n_max)]
    b_hat, b_mass = [None], [None]
    dens = {n: np.zeros(grid.count) for n in ns}
    for m in range(1, n_max + 1):
        b = mu[m].copy()  # j = m term: mu_m * B_0 = mu_m
        if m > 1:
            acc = sum(mu_hat[j] * b_hat[m - j] for j in range(1, m))
            scale = sum(h * mu[j].sum() * b_mass[m - j] for j in range(1, m))
            b += from_spectrum(grid, acc, scale, size, 2 * first, length).values[first:]
        b /= m
        if m < n_max:
            b_hat.append(rfft(b, size))
            b_mass.append(h * b.sum())
        for n in ns:
            if n >= m:
                dens[n][first:] += c[n - m] * b
    return {n: HalfLineLaw(c[n], GridDensity(grid, np.maximum(d, 0.0))) for n, d in dens.items()}


def spitzer_second_moment(walk: WalkLaws, n: int) -> float:
    """Second moment of the nonnegative part of the n-step maximum from the
    generating-series identity over positive-part moments of the sum laws."""
    walk.check_index(n)
    # E S_k^+ and E (S_k^+)^2 read off the streamed sum-law spectra
    # (Parseval), with no inverse transform
    x = walk.grid.centers()
    w1 = _halfline_weights(walk.grid, "positive") * x
    d1, d2 = _dual(w1, walk.pass_size), _dual(w1 * x, walk.pass_size)
    e1, e2 = np.empty(n), np.empty(n)
    for i, s_hat in enumerate(islice(walk.sum_laws.stream(), n)):
        e1[i] = _parseval(s_hat, d1)
        e2[i] = _parseval(s_hat, d2)
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
    """Per-step scalar table: k,Fbar0,abar,bbar,mass_p,mass_pbar (mass_p from
    SumLaws.masses)."""
    mass_p = walk.sum_laws.masses()
    buf = io.StringIO()
    buf.write("k,Fbar0,abar,bbar,mass_p,mass_pbar\n")
    for k in range(1, walk.n_max + 1):
        buf.write(
            f"{k},{walk.nonpos_prob[k]:.17g},{walk.neg_moment1[k]:.17g},"
            f"{walk.neg_moment2[k]:.17g},{mass_p[k]:.17g},"
            f"{walk.max_mass[k]:.17g}\n"
        )
    return buf.getvalue()
