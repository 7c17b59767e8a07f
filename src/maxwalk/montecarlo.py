"""Stochastic oracle: direct simulation of the walk maximum.

Each step is drawn from one uniform by its law's elementwise map
(`DistributionSpec.inv_cdf`): the inverse CDF for the single laws, the draw
by component for the mixture, both exact in law.  Walks are drawn in blocks
of whole rows, about `_DRAW_BLOCK` uniforms each, and only the maxima of the
walks outlive a block, so memory does not grow with n (for n up to
`_DRAW_BLOCK`, where a block is one row).  Chunk i of 2^16 walks uses the
base Philox stream jumped i times and its blocks read that stream in row
order, so results are bit-reproducible for a given (spec, n, samples, seed)
and the chunk merge is order-independent by construction.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .grid import DistributionSpec, _halfline_weights, cdf_at, moment, rescale_sqrt
from .walk import WalkLaws

_CHUNK = 1 << 16
_DRAW_BLOCK = 1 << 14  # uniforms per row block: the block's temporaries stay in cache
_U_CLIP = 1e-17  # lowest uniform: keeps the lower tails finite (random() is < 1)


def default_bins(width: float = 0.05) -> np.ndarray:
    """Histogram edges of the rescaled maximum over [-4, 8]."""
    count = int(round(12.0 / width))
    return -4.0 + width * np.arange(count + 1)


@dataclass(frozen=True)
class EmpiricalSummary:
    """Simulation summary of the rescaled running maximum."""

    spec_name: str
    n: int
    samples: int
    seed: int
    nonpos_hat: float
    nonpos_se: float
    mean_max_scaled: float
    m2_plus_hat: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    underflow: int
    overflow: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.nonpos_hat <= 1.0:
            raise ValueError("empirical probability outside [0, 1]")
        total = int(self.bin_counts.sum()) + self.underflow + self.overflow
        if total != self.samples:
            raise ValueError(f"histogram accounts for {total} of {self.samples} samples")
        for name in ("bin_edges", "bin_counts"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def simulate(
    spec: DistributionSpec,
    n: int,
    samples: int,
    seed: int,
    bins: np.ndarray | None = None,
) -> EmpiricalSummary:
    """Simulate the n-step walk maximum, rescaled by sqrt(n).

    Each block of max(1, _DRAW_BLOCK // n) rows is filled with uniforms,
    floored at _U_CLIP, mapped to steps, summed in place along each row and
    reduced to one maximum per row.  A call holds one block and one chunk's
    maxima whatever n is, and the summary is bit-identical to drawing each
    chunk as one (walks, n) matrix.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 10**4:
        raise ValueError(f"need at least 1e4 samples, got {samples}")
    edges = default_bins() if bins is None else np.asarray(bins, dtype=np.float64)
    root_n = math.sqrt(n)
    base = Philox(key=seed)

    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    underflow = 0
    overflow = 0
    nonpos = 0
    mean_sum = 0.0
    m2_sum = 0.0

    rows = max(1, _DRAW_BLOCK // n)
    block = np.empty((rows, n))
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    done = 0
    for i in range(n_chunks):
        m = min(_CHUNK, samples - done)
        done += m
        rng = Generator(base.jumped(i))
        walk_max = np.empty(m)
        for r in range(0, m, rows):
            u = block[: min(rows, m - r)]
            rng.random(out=u)
            np.maximum(u, _U_CLIP, out=u)
            steps = spec.inv_cdf(u)
            np.cumsum(steps, axis=1, out=steps).max(axis=1, out=walk_max[r : r + len(u)])
        z = walk_max / root_n
        nonpos += int(np.count_nonzero(walk_max <= 0.0))
        mean_sum += float(z.sum())
        m2_sum += float(np.square(np.maximum(z, 0.0)).sum())
        counts += np.histogram(z, bins=edges)[0]
        underflow += int(np.count_nonzero(z < edges[0]))
        overflow += int(np.count_nonzero(z >= edges[-1]))

    p_hat = nonpos / samples
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return EmpiricalSummary(
        spec_name=spec.name,
        n=n,
        samples=samples,
        seed=seed,
        nonpos_hat=p_hat,
        nonpos_se=se,
        mean_max_scaled=mean_sum / samples,
        m2_plus_hat=m2_sum / samples,
        bin_edges=edges,
        bin_counts=counts,
        underflow=underflow,
        overflow=overflow,
    )


@dataclass(frozen=True)
class Comparison:
    """A simulation against the grid law of its walk, rescaled by sqrt(n):
    z-scores of P(max <= 0), E(max/sqrt(n)) and E(max^+/sqrt(n))^2, and the
    histogram-vs-grid-law total variation with its sampling allowance."""

    nonpos_z: float
    mean_z: float
    m2_z: float
    tv: float
    allowance: float


def compare(summary: EmpiricalSummary, walk: WalkLaws) -> Comparison:
    """`summary` against the walk's n-step max law, rescaled once.  A z-score
    is a gap over the grid law's standard error of the mean (variance floored
    at 1e-12; P(max <= 0) takes the summary's binomial error).  The bin masses
    are the law's CDF at the histogram edges (cdf_at) and the mass beyond
    them; the allowance is half their summed binomial standard errors."""
    n, samples = summary.n, summary.samples
    if walk.spec.name != summary.spec_name or n > walk.n_max:
        raise ValueError("summary and walk describe different experiments")
    nonpos_z = abs(summary.nonpos_hat - float(walk.nonpos_prob[n])) / summary.nonpos_se

    star = rescale_sqrt(walk.max_laws[n], n)
    mean = moment(star, 1, "all")
    se = math.sqrt(max(moment(star, 2, "all") - mean**2, 1e-12) / samples)
    mean_z = abs(summary.mean_max_scaled - mean) / se
    m2 = moment(star, 2, "positive")
    x = star.grid.centers()
    m4 = float(np.sum(_halfline_weights(star.grid, "positive") * x**4 * star.values))
    se = math.sqrt(max(m4 - m2**2, 1e-12) / samples)
    m2_z = abs(m2 - summary.m2_plus_hat) / se

    cdf = cdf_at(star, np.concatenate((summary.bin_edges, [np.inf])))  # the mass at inf
    inner, under, over = np.diff(cdf[:-1]), float(cdf[0]), float(cdf[-1] - cdf[-2])
    tv = 0.5 * (
        float(np.abs(summary.bin_counts / samples - inner).sum())
        + abs(summary.underflow / samples - under)
        + abs(summary.overflow / samples - over)
    )
    masses = np.clip(np.concatenate((inner, [under, over])), 0.0, 1.0)
    allowance = float(0.5 * np.sum(np.sqrt(masses * (1.0 - masses) / samples)))
    return Comparison(nonpos_z, mean_z, m2_z, tv, allowance)


def summary_json(summary: EmpiricalSummary) -> str:
    payload = {
        "spec": summary.spec_name,
        "n": summary.n,
        "samples": summary.samples,
        "seed": summary.seed,
        "nonpos_hat": summary.nonpos_hat,
        "nonpos_se": summary.nonpos_se,
        "mean_max_scaled": summary.mean_max_scaled,
        "m2_plus_hat": summary.m2_plus_hat,
        "underflow": summary.underflow,
        "overflow": summary.overflow,
        "bin_width": float(summary.bin_edges[1] - summary.bin_edges[0]),
        "bin_lo": float(summary.bin_edges[0]),
        "bin_hi": float(summary.bin_edges[-1]),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def histogram_csv(summary: EmpiricalSummary) -> str:
    buf = io.StringIO()
    buf.write("bin_lo,bin_hi,count\n")
    buf.write(f"-inf,{summary.bin_edges[0]:.17g},{summary.underflow}\n")
    for i, c in enumerate(summary.bin_counts):
        buf.write(f"{summary.bin_edges[i]:.17g},{summary.bin_edges[i + 1]:.17g},{c}\n")
    buf.write(f"{summary.bin_edges[-1]:.17g},inf,{summary.overflow}\n")
    return buf.getvalue()
