"""The runnable verification suite: acceptance criteria plus module invariants.

Every check produces a CheckResult row with a stable identifier, the measured
value, its threshold, and a pass flag; the report is JSON-serializable and
byte-stable for a fixed configuration.  Checks that need a larger n_max than
the configuration provides are skipped (listed separately), not failed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from . import transforms as cf
from . import decomposition as dc
from . import entropy as en
from . import grid as gr
from . import limits as lm
from . import montecarlo as mc
from . import walk as wk
from .config import RunConfig

ENVELOPE_SLACK = 1.25  # headroom for rate-envelope fits at the smallest n
_ZERO_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool
    note: str = ""


def _le(check_id: str, desc: str, value: float, threshold: float, note: str = "") -> CheckResult:
    ok = bool(value <= threshold) and math.isfinite(value)
    return CheckResult(check_id, desc, float(value), float(threshold), "<=", ok, note)


def _ge(check_id: str, desc: str, value: float, threshold: float) -> CheckResult:
    ok = bool(value >= threshold) and math.isfinite(value)
    return CheckResult(check_id, desc, float(value), float(threshold), ">=", ok)


class SuiteState:
    """The lazily built state of one step law: its walk, decomposition table,
    max-law splits, convergence curves and simulation comparisons.  Each is
    computed at most once and shared by every check of that spec; a run
    builds one state per spec and drops it before the next, so only one
    spec's arrays are alive at a time.  ``keep`` names the n whose full max
    law the walk holds (compute_walk; None, as verify needs: every n)."""

    def __init__(self, config: RunConfig, name: str, keep=None):
        self.config = config
        self.name = name
        self.keep = keep
        self._splits: dict[int, dc.MaxLawSplit] = {}
        self._mc: dict[tuple[int, int], mc.Comparison] = {}

    @cached_property
    def spec(self) -> gr.DistributionSpec:
        params = self.config.spec_parameters if self.name == "mixture" else ()
        return gr.DistributionSpec(self.name, params)

    @cached_property
    def walk(self) -> wk.WalkLaws:
        c = self.config
        grid = gr.make_working_grid(c.n_max, c.grid_points)
        return wk.compute_walk(self.spec, c.n_max, grid, self.keep)

    @cached_property
    def table(self) -> dc.DecompTable:
        return dc.decomp_powers(self.walk)

    def splits(self, ns) -> dict[int, dc.MaxLawSplit]:
        """The max-law splits at every n of ns; the ones not built yet are
        built together, in one max_law_splits call."""
        missing = [n for n in ns if n not in self._splits]
        if missing:
            self._splits.update(dc.max_law_splits(self.table, self.walk, missing))
        return {n: self._splits[n] for n in ns}

    @cached_property
    def curves(self) -> list[lm.ConvergenceRow]:
        ns = list(self.config.n_list)
        return lm.convergence_curves(self.spec, ns, walk=self.walk, splits=self.splits(ns))

    def simulation(self, n: int, samples: int | None = None) -> mc.Comparison:
        """The n-step simulation (config.mc_samples walks unless `samples`
        is given) compared with the walk's law (montecarlo.compare)."""
        samples = self.config.mc_samples if samples is None else samples
        if (n, samples) not in self._mc:
            seed = self.config.seed + gr._SPEC_NAMES.index(self.name)
            self._mc[n, samples] = mc.compare(mc.simulate(self.spec, n, samples, seed), self.walk)
        return self._mc[n, samples]


def _envelope_rows(
    check_id: str, desc: str, values: dict[int, float], rate: float
) -> list[CheckResult]:
    """Fit C = ENVELOPE_SLACK * v(n0) * n0^rate at the smallest n; assert
    v(n) * n^rate <= C at every larger n.  All-zero columns pass against an
    absolute floor."""
    ns = sorted(values)
    n0 = ns[0]
    cap = ENVELOPE_SLACK * values[n0] * n0**rate
    out = []
    for n in ns[1:]:
        scaled = values[n] * n**rate
        if cap < _ZERO_FLOOR:
            out.append(
                _le(f"{check_id}.n{n}", f"{desc} (degenerate column)", values[n], _ZERO_FLOOR)
            )
        else:
            out.append(
                _le(f"{check_id}.n{n}", f"{desc}, envelope fitted at n={n0}", scaled, cap)
            )
    return out


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


def check_route_equivalence(state: SuiteState) -> list[CheckResult]:
    out = []
    name, walk = state.name, state.walk
    ns = [n for n in (2, 4, 8, 16) if n <= state.config.n_max]
    start = time.perf_counter()
    kernel_route = wk.nagaev_density(walk, ns) if ns else {}
    series_route = wk.spitzer_positive_law(walk, ns) if ns else {}
    for n, series in series_route.items():
        direct = walk.max_laws[n]
        out.append(
            _le(
                f"acceptance.route_equivalence.{name}.kernel.n{n}",
                "L1 gap, one-step recursion vs kernel representation",
                gr.l1_distance(direct, kernel_route[n]),
                1e-3,
            )
        )
        # on the lattice: the max law's cells > 0 against the series density,
        # its mass on the cells <= 0 against the series atom
        v, h, first = direct.values, walk.grid.step, walk.grid.zero_index() + 1
        gap = h * float(np.abs(v[first:] - series.density.values[first:]).sum())
        gap += abs(series.atom_at_zero - h * float(v[:first].sum()))
        out.append(
            _le(
                f"acceptance.route_equivalence.{name}.series.n{n}",
                "L1 gap, one-step recursion vs generating-series law",
                gap,
                1e-3,
            )
        )
    elapsed = time.perf_counter() - start
    out.append(
        _le(
            f"acceptance.route_equivalence.{name}.runtime",
            "three-route verification runtime per spec (s)",
            elapsed,
            120.0,
        )
    )
    return out


def check_sparre_andersen(state: SuiteState) -> list[CheckResult]:
    if not state.spec.symmetric:
        return []
    ns = range(1, min(16, state.config.n_max) + 1)
    p = state.walk.nonpos_prob
    worst = max(abs(float(p[n]) - wk.sparre_andersen(n)) for n in ns)
    return [
        _le(
            f"acceptance.sparre_andersen.{state.name}",
            "max |P(max<=0) - binom(2n,n)/4^n| over n <= 16",
            worst,
            1e-3,
        )
    ]


def check_entropic_endpoint(state: SuiteState) -> list[CheckResult]:
    rows = {r.n: r for r in state.curves}
    return [
        _le(
            f"acceptance.entropic_endpoint.{state.name}.absolute",
            "conditioned relative entropy at n=64",
            rows[64].D_plus,
            0.01,
        ),
        _le(
            f"acceptance.entropic_endpoint.{state.name}.ratio",
            "D_plus(64) / D_plus(8)",
            rows[64].D_plus / rows[8].D_plus,
            1.0 / 3.0,
            note="a Theta(n^-1/2) quantity gives ratio ~0.35 > 1/3; "
            "measured decay is genuine but slower than the pinned ratio",
        ),
    ]


def check_tv_endpoint(state: SuiteState) -> list[CheckResult]:
    rows = {r.n: r for r in state.curves}
    sim = state.simulation(64)
    return [
        _le(
            f"acceptance.tv_endpoint.{state.name}.absolute",
            "total variation to the half-normal at n=64",
            rows[64].tv,
            0.05,
            note="tv(64) ~ 0.56/sqrt(64) = 0.07 for centered unit-variance "
            "steps; the pinned 0.05 sits below the n=64 asymptote",
        ),
        _le(
            f"acceptance.tv_endpoint.{state.name}.simulation",
            "histogram-vs-grid-law total variation",
            sim.tv,
            0.01 + sim.allowance,
        ),
    ]


def check_second_moment(state: SuiteState) -> list[CheckResult]:
    name = state.name
    grid_m2 = {r.n: r for r in state.curves}[64].m2_plus
    series_m2 = wk.spitzer_second_moment(state.walk, 64) / 64.0
    return [
        _le(
            f"acceptance.second_moment.{name}.absolute",
            "|E(max^+/sqrt(n))^2 - 1| at n=64",
            abs(grid_m2 - 1.0),
            0.1,
            note="the true value is 1 - c/sqrt(n) with c ~ 0.93; at n=64 "
            "the deviation is ~0.107, confirmed by series and simulation",
        ),
        _le(
            f"acceptance.second_moment.{name}.series_gap",
            "|grid moment - generating-series moment|",
            abs(grid_m2 - series_m2),
            1e-3,
        ),
        _le(
            f"acceptance.second_moment.{name}.simulation_gap",
            "|grid moment - simulated moment| in standard errors",
            state.simulation(64).m2_z,
            4.0,
        ),
    ]


def check_pinsker(state: SuiteState) -> list[CheckResult]:
    return [
        _ge(
            f"acceptance.pinsker.{state.name}",
            "min over n of D - tv^2/2 for the conditioned law",
            min(r.pinsker_slack for r in state.curves),
            -1e-6,
        )
    ]


def _random_bump_density(rng: Generator, grid: gr.GridSpec) -> gr.GridDensity:
    # smooth at grid scale and decayed well inside the window, so the
    # piecewise-linear rescaling error stays far below the 1e-6 tolerances
    x = grid.centers()
    k = int(rng.integers(1, 5))
    v = np.zeros(grid.count)
    for _ in range(k):
        c = rng.uniform(-2.5, 2.5)
        s = rng.uniform(0.7, 1.2)
        w = rng.uniform(0.1, 2.0)
        v += w * np.exp(-((x - c) ** 2) / (2.0 * s * s))
    return gr.GridDensity(grid, v)


def _halfline_probability_density(
    rng: Generator, grid: gr.GridSpec, side: str
) -> gr.GridDensity:
    # zero off the open half-line; the bumps are evaluated on it only
    x = grid.centers()
    sign = 1.0 if side == "positive" else -1.0
    v = np.zeros(grid.count)
    if side == "positive":
        half = slice(int(np.searchsorted(x, 0.0, side="right")), None)
    else:
        half = slice(0, int(np.searchsorted(x, 0.0, side="left")))
    xs, vs = x[half], v[half]
    for _ in range(int(rng.integers(1, 4))):
        c = sign * rng.uniform(0.8, 3.5)
        s = rng.uniform(0.15, 0.5)
        w = rng.uniform(0.2, 2.0)
        vs += w * np.exp(-((xs - c) ** 2) / (2.0 * s * s))
    f = gr.GridDensity(grid, v)
    return (1.0 / f.mass) * f


def check_entropy_calculus(config: RunConfig) -> list[CheckResult]:
    """Randomized functional identities and inequalities of the half-line
    relative entropy calculus, over 25 random pairs of functions."""
    rng = Generator(Philox(key=config.seed + 0x1E77A))
    grid = gr.GridSpec(x_min=-(2**16) * 8.0 / 2**16, step=2.0 * 8.0 / 2**17, count=2**17)
    psi = en.half_normal()
    scaling_gap = 0.0
    scalar_gap = 0.0
    combo_slack = math.inf
    conv_slack = math.inf
    sandwich_lo = math.inf
    sandwich_hi = math.inf
    floor_slack = math.inf
    for _ in range(25):
        f = _random_bump_density(rng, grid)
        g = _random_bump_density(rng, grid)
        df = en.relative_entropy(f, psi)
        dg = en.relative_entropy(g, psi)
        mass_f = gr.moment(f, 0, "positive")
        mass_g = gr.moment(g, 0, "positive")
        floor_slack = min(floor_slack, df + math.exp(-1.0), dg + math.exp(-1.0))
        for alpha in (0.5, 2.0, 7.0):
            lhs = en.relative_entropy(alpha * f, psi)
            scalar_gap = max(scalar_gap, abs(lhs - (alpha * df + en.L(alpha) * mass_f)))
        for a, b in ((0.5, 2.0), (1.5, 0.25)):
            lhs = en.relative_entropy(a * f + b * g, psi)
            bound = (
                a * df
                + b * dg
                + math.log(a + b) * (a * mass_f + b * mass_g)
            )
            combo_slack = min(combo_slack, bound - lhs)
        lhs = en.relative_entropy(f + g, psi)
        lo = df + dg
        hi = df + dg + en.L(mass_f + mass_g) - en.L(mass_f) - en.L(mass_g)
        sandwich_lo = min(sandwich_lo, lhs - lo)
        sandwich_hi = min(sandwich_hi, hi - lhs)
        for n in (4, 16):
            lhs = en.relative_entropy(gr.rescale_sqrt(f, n), psi)
            rhs = en.relative_entropy(f, en.half_normal(n))
            scaling_gap = max(scaling_gap, abs(lhs - rhs))
        fp = _halfline_probability_density(rng, grid, "positive")
        gn = _halfline_probability_density(rng, grid, "negative")
        conv = gr.convolve(fp, gn)
        lhs = en.relative_entropy(conv, psi)
        conv_slack = min(
            conv_slack, en.relative_entropy(fp, psi) + math.exp(-1.0) - lhs
        )
    return [
        _le("acceptance.entropy_calculus.scalar_identity",
            "max |D(a f) - a D(f) - L(a) mass|", scalar_gap, 1e-6),
        _ge("acceptance.entropy_calculus.combination_bound",
            "min slack of the convex-combination bound", combo_slack, -1e-6),
        _ge("acceptance.entropy_calculus.convolution_bound",
            "min slack of D(f*g) <= D(f) + 1/e", conv_slack, -1e-6),
        _ge("acceptance.entropy_calculus.sandwich_lower",
            "min slack of D(f+g) >= D(f) + D(g)", sandwich_lo, -1e-6),
        _ge("acceptance.entropy_calculus.sandwich_upper",
            "min slack of the superadditive upper bound", sandwich_hi, -1e-6),
        _le("acceptance.entropy_calculus.scaling_invariance",
            "max |D(rescaled f) - D(f | scaled reference)|", scaling_gap, 1e-6),
        _ge("acceptance.entropy_calculus.entropy_floor",
            "min D + 1/e over all sampled functions", floor_slack, -1e-6),
    ]


def check_conditioning_identity(state: SuiteState) -> list[CheckResult]:
    worst = max(
        abs(r.D - ((1.0 - r.Fbar0) * r.D_plus + en.L(1.0 - r.Fbar0))) for r in state.curves
    )
    return [
        _le(
            f"acceptance.conditioning_identity.{state.name}",
            "max row gap of D = (1-F) D_plus + L(1-F)",
            worst,
            1e-6,
        )
    ]


def check_neg_tail_asymptotics(state: SuiteState) -> list[CheckResult]:
    out = []
    n_max, name, walk = state.config.n_max, state.name, state.walk
    if n_max >= 64:
        a64 = float(walk.neg_moment1[64])
        out.append(
            _le(
                f"acceptance.neg_tail.{name}.mean",
                "|neg-tail mean * sqrt(2 pi 64) + 1|",
                abs(a64 * math.sqrt(2.0 * math.pi * 64.0) + 1.0),
                0.05,
            )
        )
        out.append(
            _le(
                f"acceptance.neg_tail.{name}.second",
                "neg-tail second moment halves from n=4 to n=64",
                float(walk.neg_moment2[64]),
                0.5 * float(walk.neg_moment2[4]),
            )
        )
    if n_max >= 4:
        scaled = [float(walk.nonpos_prob[n]) * math.sqrt(n) for n in range(4, n_max + 1)]
        out.append(
            _ge(
                f"acceptance.neg_tail.{name}.nonpos_low",
                "min of sqrt(n) P(max<=0) over 4<=n<=n_max",
                min(scaled),
                0.2,
            )
        )
        out.append(
            _le(
                f"acceptance.neg_tail.{name}.nonpos_high",
                "max of sqrt(n) P(max<=0) over 4<=n<=n_max",
                max(scaled),
                1.0,
            )
        )
    t = np.linspace(-5.0, 5.0, 401)
    worst = math.inf
    for k in range(1, min(64, n_max) + 1):
        slacks = cf.transform_bound_slacks(walk, k, t)
        worst = min(worst, min(slacks.values()))
    out.append(
        _ge(
            f"acceptance.neg_tail.{name}.transform_bounds",
            "min slack of the six negative-tail transform bounds, k <= 64",
            worst,
            -1e-8,
        )
    )
    return out


def check_charfn_convergence(state: SuiteState) -> list[CheckResult]:
    name = state.name
    d8 = cf.charfn_convergence_report(state.walk, 8)
    d64 = cf.charfn_convergence_report(state.walk, 64)
    out = [
        _le(
            f"acceptance.charfn_convergence.{name}.d{j}",
            f"order-{j} transform deviation halves from n=8 to n=64",
            d64[j],
            0.5 * d8[j],
        )
        for j in range(3)
    ]
    if name == "gaussian":
        out.append(
            _le(
                "acceptance.charfn_convergence.gaussian.absolute",
                "transform deviation d0 at n=64",
                d64[0],
                0.05,
                note="the measured deviation ~0.08 is the honest size of the "
                "1/sqrt(n) term at n=64 (simulation-confirmed law)",
            )
        )
    return out


def _half_normal_representation(t: np.ndarray, n: int) -> tuple:
    """The paper's n-parameterized representation of the half-normal
    transform, e^{-t^2/2} + (it/sqrt(2 pi n)) I_n(t), with its first two
    derivatives (differentiating under the integral sign).

    The endpoint singularity of I_n is removed by the substitution
    u = n - v^2, which leaves I_n(t) = int_0^sqrt(n) 2 e^{-u t^2/(2n)} dv and
    its moments I_n^(m) with weight (u/n)^m; each is integrated by a fixed
    40-node Gauss-Legendre rule over v in [0, sqrt(n)].  The integrands are entire,
    so the rule is exact to rounding for moderate |t| (|t| <= 5 here).
    """
    t = np.asarray(t, dtype=np.float64)
    x, w = np.polynomial.legendre.leggauss(40)
    root_n = math.sqrt(n)
    v = 0.5 * root_n * (x + 1.0)
    u = (n - v * v) / n
    e = 2.0 * np.exp(-np.outer(t * t / 2.0, u))
    weights = 0.5 * root_n * w
    i0, i1, i2 = (e @ (weights * u**m) for m in range(3))
    norm = 1.0 / math.sqrt(2.0 * math.pi * n)
    gauss = np.exp(-t * t / 2.0)
    return (
        gauss + 1j * norm * t * i0,
        -t * gauss + 1j * norm * (i0 - t * t * i1),
        (t * t - 1.0) * gauss + 1j * norm * (-3.0 * t * i1 + t**3 * i2),
    )


def check_half_normal_transform(config: RunConfig) -> list[CheckResult]:
    t = np.linspace(-5.0, 5.0, 501)
    base = cf.half_normal_charfn(t)
    worst = 0.0
    for n in (1, 2, 4, 16):
        other = _half_normal_representation(t, n)
        for j in range(3):
            worst = max(worst, float(np.abs(base.values[j] - other[j]).max()))
    rows = [
        _le(
            "acceptance.half_normal_transform.n_independence",
            "max deviation of the n-parameterized representations (n = 1, 2, "
            "4, 16) from the closed form, with two derivatives, on |t| <= 5",
            worst,
            1e-8,
        )
    ]
    fine = gr.GridSpec(x_min=-(2**14) * 10.0 / 2**15, step=10.0 / 2**14, count=2**15)
    sampled = en.half_normal().sample_on(fine)
    direct = cf.charfn(sampled, t, 0)
    rows.append(
        _le(
            "acceptance.half_normal_transform.quadrature_agreement",
            "max |closed form - grid quadrature| on |t| <= 5",
            float(np.abs(base.values[0] - direct.values[0]).max()),
            1e-6,
        )
    )
    return rows


def check_local_limit(state: SuiteState) -> list[CheckResult]:
    out = []
    name, walk = state.name, state.walk
    rows = {r.n: r for r in state.curves}
    if state.spec.bounded_density:
        out.append(
            _le(
                f"acceptance.local_limit.{name}.bounded_residual",
                "weighted sup residual halves from n=8 to n=64",
                rows[64].alesh,
                0.5 * rows[8].alesh,
            )
        )
    out.append(
        _le(
            f"acceptance.local_limit.{name}.split_residual",
            "split-route weighted sup residual halves from n=8 to n=64",
            rows[64].local_a,
            0.5 * rows[8].local_a,
        )
    )
    ns = state.config.diag_ns
    splits = list(state.splits(ns).values())
    gaps = dc.smooth_split_identity_gaps(state.table, walk, splits)
    recon_worst = max(recon / (n * 1e-8) for n, (recon, _) in gaps.items())
    smooth_worst = max(smooth / (n * 1e-8) for n, (_, smooth) in gaps.items())
    rbar1 = {}
    rbar2 = {}
    x2r = {}
    x = walk.grid.centers()
    w = gr._halfline_weights(walk.grid, "positive")
    for split in splits:
        n = split.n
        r1 = gr.rescale_sqrt(split.remainder_pos, n)
        r2 = gr.rescale_sqrt(split.remainder_neg, n)
        rbar1[n] = gr.halfline_l1(r1, "positive")
        rbar2[n] = gr.halfline_l1(r2, "positive")
        x2r[n] = float(np.sum(w * x * x * np.abs(r1.values)))
    out.append(
        _le(
            f"acceptance.local_limit.{name}.reconstruction",
            "split reconstruction gap in units of n*1e-8",
            recon_worst,
            1.0,
        )
    )
    out.append(
        _le(
            f"acceptance.local_limit.{name}.smooth_identity",
            "smooth-part identity gap in units of n*1e-8",
            smooth_worst,
            1.0,
        )
    )
    rn = {s.n: gr.halfline_l1(s.correction, "positive") for s in splits}
    prefix = f"acceptance.local_limit.{name}"
    out += _envelope_rows(f"{prefix}.rn_l1", "correction-term L1 norm obeys C/sqrt(n)", rn, 0.5)
    out += _envelope_rows(
        f"{prefix}.remainder_pos_l1", "atom-part remainder L1 obeys C/sqrt(n)", rbar1, 0.5
    )
    out += _envelope_rows(
        f"{prefix}.remainder_neg_l1", "tail-part remainder L1 obeys C/sqrt(n)", rbar2, 0.5
    )
    out += _envelope_rows(
        f"{prefix}.remainder_x2", "x^2-weighted remainder obeys C/n^(3/2)", x2r, 1.5
    )
    if len(ns) >= 2:
        profiles = {s.n: lm.split_local_residual(s) for s in splits}
        constant = lm.fit_log_error_constant(profiles[ns[0]])
        if constant < _ZERO_FLOOR:
            worst_ratio = 0.0
        else:
            worst_ratio = max(lm.log_error_ratio(profiles[n], constant) for n in ns[1:])
        out.append(
            _le(
                f"{prefix}.log_error_envelope",
                "near-origin residual under the fitted logarithmic model",
                worst_ratio,
                1.2,
            )
        )
    return out


def check_first_term_split(state: SuiteState) -> list[CheckResult]:
    walk = state.walk
    worst_min = 0.0
    worst_mass = 0.0
    _, step_mass = gr.restrict(walk.step_density, "positive")
    for n in range(2, state.config.n_max + 1):
        rem = wk.spitzer_first_term_split(walk, n)
        worst_min = min(worst_min, float(rem.values.min()))
        expected = (
            (1.0 - float(walk.nonpos_prob[n]))
            - float(walk.nonpos_prob[n - 1]) * step_mass
        )
        worst_mass = max(worst_mass, abs(rem.mass - expected))
    return [
        _ge(
            f"acceptance.first_term_split.{state.name}.nonnegative",
            "min cell of the leading-term remainder over n <= n_max",
            worst_min,
            -1e-6,
        ),
        _le(
            f"acceptance.first_term_split.{state.name}.mass",
            "max remainder-mass bookkeeping gap",
            worst_mass,
            1e-4,
        ),
    ]


def check_density_core(config: RunConfig) -> list[CheckResult]:
    rng = Generator(Philox(key=config.seed + 0xD0))
    grid = gr.make_working_grid(4, 2**12)
    a = _random_bump_density(rng, grid)
    b = _random_bump_density(rng, grid)
    c = _random_bump_density(rng, grid)
    signed = a - b
    out = []
    comm = gr.l1_distance(gr.convolve(a, b), gr.convolve(b, a))
    norm = gr.halfline_l1(gr.convolve(a, b), "positive") + gr.halfline_l1(
        gr.convolve(a, b), "negative"
    )
    out.append(
        _le(
            "invariant.density_core.commutative",
            "relative L1 gap of a*b vs b*a",
            comm / max(norm, 1e-12),
            1e-9,
        )
    )
    assoc = gr.l1_distance(
        gr.convolve(gr.convolve(a, b), c), gr.convolve(a, gr.convolve(b, c))
    )
    out.append(
        _le(
            "invariant.density_core.associative",
            "relative L1 gap of (a*b)*c vs a*(b*c)",
            assoc / max(norm, 1e-12),
            1e-9,
        )
    )
    conv_signed = gr.convolve(signed, b)
    out.append(
        _le(
            "invariant.density_core.mass_multiplicative",
            "|mass(f*g) - mass(f) mass(g)| for signed f",
            abs(conv_signed.mass - signed.mass * b.mass),
            10.0 * gr.MASS_TOL,
        )
    )
    small = gr.make_working_grid(1, 2**12)
    sa = gr.sample_density(gr.DistributionSpec("gaussian"), small)
    sb = gr.sample_density(gr.DistributionSpec("laplace"), small)
    direct = gr.convolve(sa, sb, "direct")
    fast = gr.convolve(sa, sb, "fast")
    tol = 1e-10 * float(sa.values.max()) * float(sb.values.max())
    out.append(
        _le(
            "invariant.density_core.direct_vs_fast",
            "max per-cell gap between direct and fast convolution",
            float(np.abs(direct.values - fast.values).max()),
            tol,
        )
    )
    # re-binning spreads each cell over the target lattice, which costs
    # step^2/12-level second moment; the 1e-6 relative contract therefore
    # needs a step below ~3e-3, independent of the walk window
    fine = gr.GridSpec(x_min=-(2**14) * 12.0 / 2**14, step=2.0 * 12.0 / 2**15, count=2**15)
    law = gr.sample_density(gr.DistributionSpec("gaussian"), fine)
    scaled = gr.rescale_sqrt(law, 9)
    target = gr.moment(law, 2, "all") / 9.0
    out.append(
        _le(
            "invariant.density_core.rescale_second_moment",
            "relative gap of the second moment under sqrt-rescaling",
            abs(gr.moment(scaled, 2, "all") - target) / max(abs(target), 1e-12),
            1e-6,
        )
    )
    return out


def check_simulation_agreement(state: SuiteState) -> list[CheckResult]:
    sim = state.simulation(min(64, state.config.n_max))
    return [
        _le(
            f"invariant.simulation.{state.name}.nonpos_z",
            "z-score of P(max<=0), simulation vs grid law",
            sim.nonpos_z,
            4.0,
        ),
        _le(
            f"invariant.simulation.{state.name}.mean_z",
            "z-score of E(max/sqrt(n)), simulation vs grid law",
            sim.mean_z,
            4.0,
        ),
    ]


def check_simulation_reproducible(config: RunConfig) -> list[CheckResult]:
    spec = gr.DistributionSpec("gaussian")
    a = mc.simulate(spec, min(8, config.n_max), 10**4, config.seed)
    b = mc.simulate(spec, min(8, config.n_max), 10**4, config.seed)
    identical = (
        mc.summary_json(a) == mc.summary_json(b)
        and np.array_equal(a.bin_counts, b.bin_counts)
    )
    return [
        _ge(
            "invariant.simulation.reproducible",
            "identical seed gives a bit-identical summary (1 = yes)",
            1.0 if identical else 0.0,
            1.0,
        )
    ]


def check_misc_invariants(state: SuiteState) -> list[CheckResult]:
    out = []
    c, name, walk = state.config, state.name, state.walk
    rows = {r.n: r for r in state.curves}
    if c.n_max >= 64:
        for field_name in ("D", "D_plus", "tv"):
            out.append(
                _le(
                    f"invariant.limits.{name}.{field_name}_endpoint",
                    f"|{field_name}| at n=64 below its n=8 value",
                    abs(getattr(rows[64], field_name)),
                    abs(getattr(rows[8], field_name)),
                )
            )
        out.append(
            _le(
                f"invariant.limits.{name}.m2_endpoint",
                "|1 - m2_plus| shrinks from n=8 to n=64",
                abs(1.0 - rows[64].m2_plus),
                abs(1.0 - rows[8].m2_plus),
            )
        )
    if c.n_max >= 32:
        out.append(
            _le(
                f"invariant.limits.{name}.tail_mass",
                "x^2 tail mass beyond 4 for n >= 32",
                max(r.tail_mass_C for r in state.curves if r.n >= 32),
                0.02,
            )
        )
    if c.n_max >= 64:
        psi = en.half_normal()
        gaps = {}
        for n, split in state.splits((8, 64)).items():
            q_plus = gr.GridDensity(
                walk.grid, np.maximum(gr.rescale_sqrt(split.bounded, n).values, 0.0)
            )
            gaps[n] = abs(en.relative_entropy(q_plus, psi) - rows[n].D)
        out.append(
            _le(
                f"invariant.decomposition.{name}.entropy_stability",
                "entropy gap of the bounded approximation, n=64 vs n=8/3",
                gaps[64],
                max(gaps[8] / 3.0, _ZERO_FLOOR),
            )
        )
    rho = state.table.decomp.rho
    worst_w = max(
        abs(sum(dc.binomial_log_weight(k, j, rho) for j in range(k + 1)) - 1.0)
        for k in range(1, min(64, c.n_max) + 1)
    )
    out.append(
        _le(
            f"invariant.decomposition.{name}.weight_sums",
            "max |sum of binomial split weights - 1| over k <= 64",
            worst_w,
            1e-12,
        )
    )
    t = np.linspace(-5.0, 5.0, 201)
    worst_cf = 0.0
    routes = cf.nagaev_charfn(walk, {min(8, c.n_max), min(16, c.n_max)}, t)
    for n, route in routes.items():
        direct = cf.charfn(walk.max_laws[n], t, 2)
        for j in range(3):
            worst_cf = max(
                worst_cf, float(np.abs(route.values[j] - direct.values[j]).max())
            )
    out.append(
        _le(
            f"invariant.charfn.{name}.kernel_route",
            "transform-side kernel representation matches, n <= 16",
            worst_cf,
            1e-4,
        )
    )
    if c.n_max >= 8:
        e8 = cf.clt_envelope(walk, 8)
        e64 = cf.clt_envelope(walk, min(64, c.n_max))
        if name == "gaussian":
            out.append(
                _le(
                    "invariant.charfn.gaussian.clt_envelope",
                    "envelope-weighted transform gap (exact-law case)",
                    max(e8, e64),
                    1e-4,
                )
            )
        elif c.n_max >= 64:
            out.append(
                _le(
                    f"invariant.charfn.{name}.clt_envelope_trend",
                    "envelope-weighted transform gap halves 8 -> 64",
                    e64,
                    0.5 * e8,
                )
            )
    return out


def check_determinism(config: RunConfig) -> list[CheckResult]:
    spec = gr.DistributionSpec("gaussian")
    n_max = min(16, config.n_max)
    ns = [n for n in config.n_list if n <= n_max] or [n_max]
    g = gr.make_working_grid(n_max, 2**12)

    def one_pass() -> str:
        walk = wk.compute_walk(spec, n_max, g)
        return lm.curves_csv(lm.convergence_curves(spec, ns, walk=walk))

    identical = one_pass() == one_pass()
    return [
        _ge(
            "invariant.cli.deterministic",
            "identical configuration reproduces byte-identical tables (1 = yes)",
            1.0 if identical else 0.0,
            1.0,
        )
    ]


@dataclass
class VerifyReport:
    config: RunConfig
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "config": {
                "specs": list(self.config.specs),
                "n_max": self.config.n_max,
                "n_list": list(self.config.n_list),
                "grid_points": self.config.grid_points,
                "mc_samples": self.config.mc_samples,
                "seed": self.config.seed,
                "spec_parameters": list(self.config.spec_parameters),
            },
            "checks": [asdict(c) for c in self.checks],
            "skipped": self.skipped,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# (section, check, smallest n_max it needs, per_spec).  A per-spec check takes
# the SuiteState of one spec and runs once per spec; a spec-free check takes
# the RunConfig and runs once.  Rows keep this order, specs in config order
# within a section.
_SECTIONS = (
    ("route_equivalence", check_route_equivalence, 1, True),
    ("sparre_andersen", check_sparre_andersen, 1, True),
    ("entropic_endpoint", check_entropic_endpoint, 64, True),
    ("tv_endpoint", check_tv_endpoint, 64, True),
    ("second_moment", check_second_moment, 64, True),
    ("pinsker", check_pinsker, 1, True),
    ("entropy_calculus", check_entropy_calculus, 1, False),
    ("conditioning_identity", check_conditioning_identity, 1, True),
    ("neg_tail_asymptotics", check_neg_tail_asymptotics, 4, True),
    ("charfn_convergence", check_charfn_convergence, 64, True),
    ("half_normal_transform", check_half_normal_transform, 1, False),
    ("local_limit", check_local_limit, 64, True),
    ("first_term_split", check_first_term_split, 2, True),
    ("density_core", check_density_core, 1, False),
    ("simulation_agreement", check_simulation_agreement, 1, True),
    ("simulation_reproducible", check_simulation_reproducible, 1, False),
    ("misc_invariants", check_misc_invariants, 1, True),
    ("determinism", check_determinism, 1, False),
)


def run_verification(config: RunConfig) -> VerifyReport:
    """Run every check the configuration can support and time the suite:
    the per-spec sections on a fresh state for each spec in turn, then the
    spec-free ones once."""
    start = time.perf_counter()
    report = VerifyReport(config=config)
    runnable = []
    for section in _SECTIONS:
        name, _, min_n, _ = section
        if config.n_max < min_n:
            report.skipped.append({"section": name, "reason": f"needs n_max >= {min_n}"})
        else:
            runnable.append(section)
    rows = {name: [] for name, *_ in runnable}
    for spec_name in config.specs:
        state = SuiteState(config, spec_name)
        for name, check, _, per_spec in runnable:
            if per_spec:
                rows[name] += check(state)
    del state  # the spec-free sections build grids and walks of their own
    for name, check, _, per_spec in runnable:
        if not per_spec:
            rows[name] = check(config)
    for section_rows in rows.values():
        report.checks.extend(section_rows)
    report.runtime_seconds = time.perf_counter() - start
    report.checks.append(
        _le(
            "acceptance.runtime",
            "verification suite runtime (s)",
            report.runtime_seconds,
            900.0,
        )
    )
    return report
