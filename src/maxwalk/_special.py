"""The special functions the package needs, on numpy and the math module.

* ``ndtr``, the standard normal CDF, from libm's erf and erfc with the
  branch split of Cephes' ndtr;
* ``ndtri``, its inverse, by Wichura's algorithm AS241 (Appl. Stat. 37,
  1988), about 1e-16 relative;
* ``dawsn``, Dawson's integral D(x) = e^{-x^2} int_0^x e^{t^2} dt, by
  Rybicki's exponential sum (Computers in Physics 3, 1989; Numerical Recipes
  section 6.10) with a Taylor series near 0;
* ``next_fast_len``, the FFT length rule of scipy.fft: the smallest length
  at least the target whose prime factors are at most 5 (real transforms)
  or 11 (complex ones).

The FFTs themselves are numpy.fft's, the same pocketfft as scipy.fft.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_erf = np.frompyfunc(math.erf, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_BLOCK = 1 << 16  # cells per libm pass: its boxed temporaries take 32 B a cell


def ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise: 1/2 + erf(x/sqrt 2)/2 where
    |x| < 1, erfc(|x|/sqrt 2)/2 (reflected for x > 0) elsewhere, so the
    lower tail keeps its relative accuracy."""
    z = np.asarray(x, dtype=np.float64) * _SQRT1_2
    out = np.empty_like(z)
    z_flat, out_flat = z.reshape(-1), out.reshape(-1)
    for i in range(0, z.size, _BLOCK):
        zb, ob = z_flat[i : i + _BLOCK], out_flat[i : i + _BLOCK]
        central = np.abs(zb) < _SQRT1_2
        ob[central] = 0.5 + 0.5 * _erf(zb[central]).astype(np.float64)
        zt = zb[~central]
        half = 0.5 * _erfc(np.abs(zt)).astype(np.float64)
        ob[~central] = np.where(zt > 0.0, 1.0 - half, half)
    return out


# AS241 (PPND16): rational approximations in r = 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425 (r >= 0), else in r = sqrt(-log min(p, 1 - p)),
# shifted by 1.6 up to r = 5 and by 5 beyond.  Each holds the numerator's and
# the denominator's coefficients, highest power first.
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _ratio(coefficients: tuple, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, in two buffers updated in place."""
    (n0, n1, *num_rest), (d0, d1, *den_rest) = coefficients
    num = n0 * r
    num += n1
    den = d0 * r
    den += d1
    for a, b in zip(num_rest, den_rest):
        num *= r
        num += a
        den *= r
        den += b
    num /= den
    return num


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF on 0 < p < 1, elementwise, by
    AS241.  The central rational function is evaluated on every cell; only
    the cells with |p - 1/2| > 0.425 (about 15% of uniforms) are gathered
    for the tail functions, which read min(p, 1 - p) from p itself (p - 1/2
    loses a p below 2^-54)."""
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    q = flat - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _ratio(_CENTRAL, r)
    x *= q
    tail = np.flatnonzero(r < 0.0)
    if tail.size:
        qt = q[tail]
        pt = flat[tail]
        rt = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
        zt = _ratio(_NEAR, rt - 1.6)
        far = rt > 5.0
        if far.any():
            zt[far] = _ratio(_FAR, rt[far] - 5.0)
        x[tail] = np.copysign(zt, qt)
    return x.reshape(p.shape)


# Rybicki: D(x) = lim_{h->0} pi^{-1/2} sum_{n odd} e^{-(x - nh)^2} / n, with
# an error of order e^{-(pi/2h)^2} (1e-27 at h = 0.2).  The sum runs over
# the 20 odd n on each side of the even n0 nearest x/h: with x = n0 h + xp,
# |xp| <= h, the term at n0 +- m is at most e^{-h^2 (m^2 - 2m)} of the
# nearest ones, below e^{-57} past m = 39.
_H = 0.2
_RYBICKI = np.exp(-(((2 * np.arange(20) + 1) * _H) ** 2))
# Taylor series D(x) = sum_k (-2)^k x^{2k+1} / (2k+1)!!, for |x| < _H
_TAYLOR = tuple((-2.0) ** k / math.prod(range(1, 2 * k + 2, 2)) for k in range(11))


def dawsn(x) -> np.ndarray:
    """Dawson's integral, elementwise, odd in x: within 6e-16 absolute of
    Cephes' dawsn on |x| <= 1e4."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    n0 = 2.0 * np.rint(0.5 * ax / _H)
    xp = ax - n0 * _H
    e1 = np.exp(2.0 * _H * xp)
    e2 = e1 * e1
    d1 = n0 + 1.0
    d2 = d1 - 2.0
    total = np.zeros_like(x)
    for c in _RYBICKI:
        total += c * (e1 / d1 + 1.0 / (d2 * e1))
        d1 += 2.0
        d2 -= 2.0
        e1 *= e2
    out = np.copysign(np.exp(-xp * xp) / math.sqrt(math.pi) * total, x)
    small = ax < _H
    if small.any():
        xs = x[small]
        x2 = xs * xs
        series = np.full_like(xs, _TAYLOR[-1])
        for c in _TAYLOR[-2::-1]:
            series *= x2
            series += c
        out[small] = xs * series
    return out


@functools.lru_cache(maxsize=None)
def _smooth_lengths(bits: int, real: bool) -> list[int]:
    """The sorted lengths below 2^bits with no prime factor above 5 (real)
    or 11."""
    limit = 1 << bits
    out = [1]
    for prime in (2, 3, 5) if real else (2, 3, 5, 7, 11):
        for m in out[:]:
            m *= prime
            while m < limit:
                out.append(m)
                m *= prime
    return sorted(out)


def next_fast_len(target: int, real: bool = False) -> int:
    """The smallest length >= target (>= 1) whose prime factors are at most
    5 for real transforms, at most 11 otherwise, as scipy.fft's rule.  The
    power of two 2^bit_length(target) always qualifies, so the lengths below
    2^(bit_length + 1) hold the answer."""
    lengths = _smooth_lengths(int(target).bit_length() + 1, real)
    return lengths[bisect.bisect_left(lengths, target)]
