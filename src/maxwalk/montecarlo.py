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

from .grid import DistributionSpec, GridDensity, rescale_sqrt
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


def _grid_bin_masses(law: GridDensity, edges: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Bin masses of a grid law integrated over histogram bins, plus the
    under/overflow masses."""
    cum = np.concatenate(([0.0], np.cumsum(law.values) * law.grid.step))
    cdf_at = np.interp(edges, law.grid.edges(), cum, left=0.0, right=cum[-1])
    inner = np.diff(cdf_at)
    return inner, float(cdf_at[0]), float(cum[-1] - cdf_at[-1])


def empirical_compare(summary: EmpiricalSummary, walk: WalkLaws) -> tuple[float, float]:
    """Consistency of simulation and grid law: (z-score of P(max<=0),
    histogram-vs-grid-law total variation over the summary's bins)."""
    if walk.spec.name != summary.spec_name or summary.n > walk.n_max:
        raise ValueError("summary and walk describe different experiments")
    fbar = float(walk.nonpos_prob[summary.n])
    z = abs(summary.nonpos_hat - fbar) / summary.nonpos_se

    law = rescale_sqrt(walk.max_laws[summary.n], summary.n)
    inner, under, over = _grid_bin_masses(law, summary.bin_edges)
    emp = summary.bin_counts / summary.samples
    tv = 0.5 * (
        float(np.abs(emp - inner).sum())
        + abs(summary.underflow / summary.samples - under)
        + abs(summary.overflow / summary.samples - over)
    )
    return z, tv


def binning_allowance(walk: WalkLaws, n: int, edges: np.ndarray, samples: int) -> float:
    """Expected sampling contribution to the histogram TV: half the summed
    binomial standard errors of the bin masses."""
    law = rescale_sqrt(walk.max_laws[n], n)
    inner, under, over = _grid_bin_masses(law, edges)
    masses = np.concatenate((inner, [under, over]))
    masses = np.clip(masses, 0.0, 1.0)
    return float(0.5 * np.sum(np.sqrt(masses * (1.0 - masses) / samples)))


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
