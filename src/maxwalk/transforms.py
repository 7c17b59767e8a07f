"""Characteristic functions with exact moment-weighted derivatives.

Derivatives are computed by weighting the quadrature with (ix)^j rather than
by finite differencing, so second derivatives are as accurate as values.  The
half-normal limit's transform is in closed form.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from ._special import dawsn, next_fast_len
from .grid import GridDensity, rescale_sqrt
from .walk import WalkLaws


@dataclass(frozen=True)
class CharFnSamples:
    """Characteristic function samples: values[j][i] is the j-th derivative
    at t_grid[i], for j <= order."""

    t_grid: np.ndarray
    order: int
    values: tuple

    def __post_init__(self) -> None:
        t = np.array(self.t_grid, dtype=np.float64)  # a copy: the caller's stays writable
        t.setflags(write=False)
        object.__setattr__(self, "t_grid", t)
        if self.order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {self.order}")
        if len(self.values) != self.order + 1:
            raise ValueError("values must hold one array per derivative order")


def charfn(f: GridDensity, t_grid: np.ndarray, order: int = 2) -> CharFnSamples:
    """step-weighted quadrature of (ix)^j e^{itx} f(x) for j <= order.

    The t grid must be uniform up to a relative spacing jitter of 1e-9
    (ValueError otherwise), like the density grid.  With x_n = x0 + n h over
    the support of f, t_k = t0 + k dt, theta = dt h and
    kn = (k^2 + n^2 - (k - n)^2) / 2, the sum is a chirp-z transform,
    evaluated for all orders as one FFT convolution (Bluestein):

        X_k = e^{i(theta k^2/2 + t_k x0)} sum_n [w_n e^{i(t0 h n + theta n^2/2)}]
              e^{-i theta (k - n)^2 / 2}.

    Every chirp is formed as exp(i theta/2 * k*k) with integer-valued k:
    powers of a unit complex number would let the modulus drift by ~k^2 eps.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    m = len(t)
    dt = (t[-1] - t[0]) / (m - 1) if m > 1 else 0.0
    if m > 2 and np.any(np.abs(np.diff(t) - dt) > 1e-9 * abs(dt)):
        raise ValueError("charfn needs a uniform t grid")
    support = np.flatnonzero(f.values)
    if m == 0 or len(support) == 0:
        zeros = tuple(np.zeros(m, dtype=np.complex128) for _ in range(order + 1))
        return CharFnSamples(t, order, zeros)
    lo, hi = support[0], support[-1] + 1
    h = f.grid.step
    x = f.grid.centers()[lo:hi]
    x0 = x[0]
    weights = np.stack([(1j * x) ** j * f.values[lo:hi] * h for j in range(order + 1)])
    count = hi - lo
    half_theta = 0.5 * dt * h
    n = np.arange(count, dtype=np.float64)
    k = np.arange(m, dtype=np.float64)
    size = next_fast_len(count + m - 1)
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:m] = np.exp(-1j * half_theta * k * k)
    kernel[size - count + 1 :] = np.exp(-1j * half_theta * (n[:0:-1] * n[:0:-1]))
    chirped = weights * np.exp(1j * (t[0] * h * n + half_theta * n * n))
    conv = ifft(fft(chirped, size, axis=-1) * fft(kernel), axis=-1)[:, :m]
    outs = conv * np.exp(1j * (half_theta * k * k + t * x0))
    return CharFnSamples(t, order, tuple(outs))


def negative_tail_transform(walk: WalkLaws, k: int, t_grid: np.ndarray) -> CharFnSamples:
    """Transform of the max law's negative tail, with its first two
    derivatives: the deficit integral of (1 - e^{itx}) over the k-step max
    law on (-inf, 0).

    k = 0 is the constant 1 (derivatives 0).  Reads only the walk's kernel
    walk.kernels[k], the negative part on its own cells, so k need not be a
    kept step.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if k == 0:
        ones = np.ones(t.shape, dtype=np.complex128)
        return CharFnSamples(t, 2, (ones, np.zeros_like(ones), np.zeros_like(ones)))
    walk.check_index(k)
    neg = walk.kernels[k]
    v0, v1, v2 = charfn(neg, t, 2).values
    return CharFnSamples(t, 2, (neg.mass - v0, -v1, -v2))


def half_normal_charfn(t_grid: np.ndarray) -> CharFnSamples:
    """Fourier transform of the half-normal density, with its first two
    derivatives, in closed form through Dawson's function D
    (Abramowitz & Stegun 7.1.17): with z = t/sqrt(2),

        phi(t)   = e^{-t^2/2} + i (2/sqrt(pi)) D(z),
        phi'(t)  = -t e^{-t^2/2} + i (2/sqrt(pi)) D'(z) / sqrt(2),
        phi''(t) = (t^2 - 1) e^{-t^2/2} + i (2/sqrt(pi)) D''(z) / 2,

    where D' = 1 - 2 z D and D'' = (4 z^2 - 2) D - 2 z.  Valid at every t;
    phi'' loses about |t| eps to the cancellation in D''.  `verify` checks it
    against the paper's n-parameterized integral representation.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    z = t / math.sqrt(2.0)
    d0 = dawsn(z)
    d1 = 1.0 - 2.0 * z * d0
    d2 = (4.0 * z * z - 2.0) * d0 - 2.0 * z
    gauss = np.exp(-t * t / 2.0)
    scale = 2.0 / math.sqrt(math.pi)
    v0 = gauss + 1j * scale * d0
    v1 = -t * gauss + 1j * (scale / math.sqrt(2.0)) * d1
    v2 = (t * t - 1.0) * gauss + 1j * (scale / 2.0) * d2
    return CharFnSamples(t, 2, (v0, v1, v2))


def nagaev_charfn(walk: WalkLaws, ns, t_grid: np.ndarray) -> dict[int, CharFnSamples]:
    """Transform of the n-step max law, with its first two derivatives, for
    every n in ns, as the kernel-representation sum of step-transform
    powers times negative-tail transforms.  Each negative tail is
    transformed once for the whole batch."""
    ns = sorted(set(ns))
    for n in ns:
        walk.check_index(n)
    t = np.asarray(t_grid, dtype=np.float64)
    f0, f1, f2 = charfn(walk.step_density, t, 2).values
    tails = [negative_tail_transform(walk, j, t).values for j in range(max(ns, default=0))]
    out = {}
    for n in ns:
        out0 = np.zeros(t.shape, dtype=np.complex128)
        out1 = np.zeros(t.shape, dtype=np.complex128)
        out2 = np.zeros(t.shape, dtype=np.complex128)
        for k in range(1, n + 1):
            g0, g1, g2 = tails[n - k]
            fk = f0**k
            fk1 = k * f0 ** (k - 1) * f1
            fk2 = k * (k - 1) * f0 ** (k - 2) * f1 * f1 + k * f0 ** (k - 1) * f2
            out0 += fk * g0
            out1 += fk1 * g0 + fk * g1
            out2 += fk2 * g0 + 2.0 * fk1 * g1 + fk * g2
        out[n] = CharFnSamples(t, 2, (out0, out1, out2))
    return out


# The |t| range of the transform comparisons with the half-normal and the
# gaussian limits: a fixed choice of the implementation, not a quantity of
# the theorems.
_T_WINDOW = 3.0


def charfn_convergence_report(walk: WalkLaws, n: int) -> tuple[float, float, float]:
    """Sup deviations (value, first, second derivative) between the transform
    of the rescaled n-step max law and the half-normal transform, over
    |t| <= _T_WINDOW on a grid of spacing 0.01."""
    walk.check_index(n)
    count = int(round(2 * _T_WINDOW / 0.01)) + 1
    t = np.linspace(-_T_WINDOW, _T_WINDOW, count)
    scaled = rescale_sqrt(walk.max_laws[n], n)
    ours = charfn(scaled, t, 2)
    ref = half_normal_charfn(t)
    return tuple(
        float(np.abs(ours.values[j] - ref.values[j]).max()) for j in range(3)
    )


def gaussian_envelope_window(f: GridDensity) -> float:
    """Admissible window for the envelope-weighted transform comparison.

    Once |charfn(f)(s)| e^{s^2/4} reaches 1, n-th powers of the transform
    stop contracting under the gaussian envelope weight and the weighted
    comparison carries no information.  The window is 0.9 times the first
    such s on a grid of spacing 0.005 (capped at _T_WINDOW), keeping the
    edge term strictly contracting in n.
    """
    spacing = 0.005
    s = np.arange(spacing, _T_WINDOW + spacing / 2, spacing)
    vals = np.abs(charfn(f, s, 0).values[0]) * np.exp(s * s / 4.0)
    bad = np.nonzero(vals >= 1.0)[0]
    if len(bad) == 0:
        return _T_WINDOW
    return float(min(_T_WINDOW, max(0.9 * s[bad[0]], spacing)))


def clt_envelope(walk: WalkLaws, n: int) -> float:
    """Gaussian-envelope-weighted sup distance between the n-th transform
    power of the rescaled step law and the standard gaussian transform:
    sup |f^n(t/sqrt(n)) - e^{-t^2/2}| e^{t^2/4} over the admissible window.

    The window is |t| <= W sqrt(n) with W the gaussian-envelope window of
    the step transform (at most _T_WINDOW).
    """
    walk.check_index(n)
    window = gaussian_envelope_window(walk.step_density)
    spacing = 0.01 / math.sqrt(n)
    s = np.arange(0.0, window + spacing / 2, spacing)
    f = charfn(walk.step_density, s, 0).values[0]
    t2 = n * s * s
    diff = np.abs(f**n - np.exp(-t2 / 2.0)) * np.exp(t2 / 4.0)
    return float(diff.max())


def charfn_decay_window(f: GridDensity) -> float:
    """Smallest t in [0, 50] beyond which |charfn(f)| has dropped to 0.99
    (a proxy for the high-frequency decay onset of the step law); 50 when it
    never does."""
    s = np.linspace(0.0, 50.0, 5001)
    vals = np.abs(charfn(f, s, 0).values[0])
    below = np.nonzero(vals <= 0.99)[0]
    return float(s[below[0]]) if len(below) else 50.0


def transform_bound_slacks(walk: WalkLaws, k: int, t_grid: np.ndarray) -> dict[str, float]:
    """Minimum slacks of the six negative-tail transform bounds at index k:
    each entry is min over t of (bound - measured); nonnegative slack means
    the bound holds on the whole t grid."""
    walk.check_index(k)
    t = np.asarray(t_grid, dtype=np.float64)
    v0, v1, v2 = negative_tail_transform(walk, k, t).values
    f0 = float(walk.nonpos_prob[k])
    a = float(walk.neg_moment1[k])  # <= 0
    b = float(walk.neg_moment2[k])  # >= 0
    lin = -1j * t * a
    return {
        "value_vs_mass": float(np.min(2.0 * f0 - np.abs(v0))),
        "value_vs_mean": float(np.min(abs(a) * np.abs(t) - np.abs(v0))),
        "deriv_vs_mean": float(np.min(abs(a) - np.abs(v1))),
        "value_linearized": float(np.min(0.5 * b * t * t - np.abs(v0 - lin))),
        "deriv_linearized": float(np.min(b * np.abs(t) - np.abs(v1 - (-1j * a)))),
        "second_deriv": float(np.min(b - np.abs(v2))),
    }


def charfn_csv(samples: CharFnSamples) -> str:
    """CSV with header t,re0,im0,re1,im1,re2,im2 (missing orders as 0)."""
    buf = io.StringIO()
    buf.write("t,re0,im0,re1,im1,re2,im2\n")
    zeros = np.zeros(len(samples.t_grid), dtype=np.complex128)
    cols = [samples.values[j] if j <= samples.order else zeros for j in range(3)]
    for i, ti in enumerate(samples.t_grid):
        row = [f"{ti:.17g}"]
        for j in range(3):
            row.append(f"{cols[j][i].real:.17g}")
            row.append(f"{cols[j][i].imag:.17g}")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
