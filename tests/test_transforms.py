import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn, fresnel

import maxwalk as mw
from maxwalk.grid import _MIX_DEFAULT
from maxwalk import transforms
from maxwalk.transforms import _half_normal_charfn, charfn_csv, gaussian_envelope_window


@pytest.fixture(scope="module")
def charfn_grid():
    # fine standalone grid: the phase-snapping bias (1 - sinc(t h / 2))
    # stays below 1e-6 on |t| <= 5 only for step ~1e-3
    count = 2**14
    step = 20.0 / count
    return mw.GridSpec(x_min=-(count // 2) * step, step=step, count=count)


def half_normal_transform_exact(t: np.ndarray) -> np.ndarray:
    return np.exp(-t * t / 2.0) + 2j / math.sqrt(math.pi) * dawsn(t / math.sqrt(2.0))


def dense_charfn(f: mw.GridDensity, t: np.ndarray, order: int) -> list[np.ndarray]:
    """Reference: the e^{itx} matrix product over the nonzero cells, in
    blocks of 32 t values (each t's sum does not depend on the block)."""
    x = f.grid.centers()
    mask = f.values != 0.0
    xs = x[mask]
    weights = [((1j * xs) ** j) * f.values[mask] * f.grid.step for j in range(order + 1)]
    outs = [np.zeros(t.shape, dtype=np.complex128) for _ in range(order + 1)]
    for start in range(0, len(t), 32):
        phase = np.exp(1j * np.outer(t[start : start + 32], xs))
        for j in range(order + 1):
            outs[j][start : start + 32] = phase @ weights[j]
    return outs


@pytest.mark.parametrize("name", ["gaussian", "spike"])
def test_chirp_z_matches_dense_path(acceptance_state, name):
    walk = acceptance_state[name].walk
    laws = {
        "step": walk.step_density,
        "max64": walk.max_laws[64],
        "negative": mw.restrict(walk.max_laws[8], "negative")[0],
        "rescaled": mw.rescale_sqrt(walk.max_laws[64], 64),
    }
    grids = [
        np.linspace(-5.0, 5.0, 401),
        np.linspace(0.3, 5.0, 100),
        np.array([0.0]),
        np.array([0.0, 1.0]),
        np.arange(0.0, 3.0, 0.0025),
    ]
    for law, f in laws.items():
        for t in grids:
            fast = mw.charfn(f, t, 2)
            ref = dense_charfn(f, t, 2)
            for j in range(3):
                gap = np.abs(fast.values[j] - ref[j]).max()
                assert gap <= 1e-9, (law, len(t), j, gap)


def test_charfn_rejects_nonuniform_t(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    with pytest.raises(ValueError, match="charfn needs a uniform t grid"):
        mw.charfn(f, np.array([0.0, 1.0, 3.0]), 0)
    with pytest.raises(ValueError, match="charfn needs a uniform t grid"):
        mw.charfn(f, np.array([0.0, 1.0, 0.0]), 0)
    t = np.linspace(0.0, 1.0, 11)
    jittered = t + np.array([0.0, 1e-12] + [0.0] * 9)  # 1e-11 of the spacing
    gap = mw.charfn(f, jittered, 0).values[0] - mw.charfn(f, t, 0).values[0]
    assert np.abs(gap).max() <= 1e-10


def test_charfn_empty_inputs(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    empty = mw.charfn(f, np.array([]), 2)
    assert len(empty.values) == 3 and all(v.shape == (0,) for v in empty.values)
    zero = f.with_values(np.zeros(small_grid.count))
    out = mw.charfn(zero, np.linspace(-1.0, 1.0, 5), 1)
    assert len(out.values) == 2
    assert all(np.all(v == 0.0) for v in out.values)


def test_half_normal_cache_is_bounded():
    t = np.linspace(-1.0, 1.0, 5)
    first = mw.half_normal_charfn(t)
    hits = _half_normal_charfn.cache_info().hits
    assert mw.half_normal_charfn(t.copy()) is first
    assert _half_normal_charfn.cache_info().hits == hits + 1
    for i in range(20):
        mw.half_normal_charfn(np.array([0.1 * i, 0.1 * i + 0.05]))
    info = _half_normal_charfn.cache_info()
    assert info.currsize <= info.maxsize


def test_moment_identities_at_zero(charfn_grid):
    f = mw.sample_density(mw.DistributionSpec("mixture"), charfn_grid)
    out = mw.charfn(f, np.array([0.0]), 2)
    assert out.values[0][0] == pytest.approx(1.0, abs=1e-6)
    assert abs(out.values[1][0]) <= 1e-6
    assert out.values[2][0].real == pytest.approx(-1.0, abs=1e-4)


def test_gaussian_transform_closed_form(charfn_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), charfn_grid)
    t = np.linspace(-5.0, 5.0, 201)
    out = mw.charfn(f, t, 0)
    assert np.abs(out.values[0] - np.exp(-t * t / 2.0)).max() <= 1e-6


def test_uniform_transform_closed_form(charfn_grid):
    f = mw.sample_density(mw.DistributionSpec("uniform"), charfn_grid)
    t = np.linspace(0.3, 5.0, 100)
    out = mw.charfn(f, t, 0)
    exact = np.sin(math.sqrt(3.0) * t) / (math.sqrt(3.0) * t)
    assert np.abs(out.values[0] - exact).max() <= 1e-6


def _spike_transform(t: np.ndarray) -> np.ndarray:
    # density 1 / (4 * 5^(1/4) * sqrt|x|) on |x| <= sqrt(5): a Fresnel cosine
    # integral, with value 1 at t = 0
    out = np.ones(t.shape, dtype=np.complex128)
    pos = t > 0
    tp = t[pos]
    _, c = fresnel(5.0**0.25 * np.sqrt(2.0 * tp / math.pi))
    out[pos] = 5.0**-0.25 * np.sqrt(math.pi / (2.0 * tp)) * c
    return out


def _mixture_transform(t: np.ndarray) -> np.ndarray:
    w, m1, m2, s2 = _MIX_DEFAULT
    return np.exp(-s2 * t * t / 2.0) * (w * np.exp(1j * m1 * t) + (1 - w) * np.exp(1j * m2 * t))


# Closed-form characteristic functions of the standardized step laws.
STEP_TRANSFORMS = {
    "gaussian": lambda t: np.exp(-t * t / 2.0),
    "uniform": lambda t: np.sinc(math.sqrt(3.0) * t / math.pi),
    "laplace": lambda t: 1.0 / (1.0 + t * t / 2.0),
    "mixture": _mixture_transform,
    "spike": _spike_transform,
}


@pytest.mark.parametrize("name", sorted(STEP_TRANSFORMS))
def test_step_transform_within_cell_averaging_bound(charfn_grid, name):
    # the grid law moves each cell's mass to its center (a shift of at most
    # h/2, so |e^{itx} - e^{itc}| <= |t| h/2) and drops the mass outside the
    # window; the 1e-12 absorbs rounding where both terms vanish (t = 0)
    f = mw.sample_density(mw.DistributionSpec(name), charfn_grid)
    t = np.linspace(0.0, 5.0, 501)
    gap = np.abs(mw.charfn(f, t, 0).values[0] - STEP_TRANSFORMS[name](t))
    bound = t * charfn_grid.step / 2.0 + abs(1.0 - f.mass) + 1e-12
    assert np.all(gap <= bound), float(np.max(gap / bound))


def test_negative_tail_transform_basics(gaussian_walk8):
    t = np.linspace(-5.0, 5.0, 101)
    base = mw.negative_tail_transform(gaussian_walk8, 0, t)
    assert np.all(base.values[0] == 1.0)
    assert np.all(base.values[1] == 0.0)
    for k in (1, 4, 8):
        tail = mw.negative_tail_transform(gaussian_walk8, k, t)
        i0 = np.argmin(np.abs(t))
        assert abs(tail.values[0][i0]) <= 1e-12


def test_transform_bounds_hold(gaussian_walk8):
    t = np.linspace(-5.0, 5.0, 101)
    for k in (1, 3, 8):
        slacks = mw.transform_bound_slacks(gaussian_walk8, k, t)
        assert len(slacks) == 6
        assert min(slacks.values()) >= -1e-8


def test_half_normal_transform_properties():
    t = np.linspace(-5.0, 5.0, 101)
    base = mw.half_normal_charfn(t)
    i0 = np.argmin(np.abs(t))
    assert base.values[0][i0] == pytest.approx(1.0, abs=1e-10)
    # independent closed form through the Dawson function
    assert np.abs(base.values[0] - half_normal_transform_exact(t)).max() <= 1e-9
    for n in (2, 4, 16):
        other = mw.half_normal_charfn(t, n=n)
        for j in range(3):
            assert np.abs(base.values[j] - other.values[j]).max() <= 1e-8


@pytest.mark.parametrize("n", [1, 16])
def test_half_normal_transform_closed_form_to_t_100(n):
    t = np.linspace(-100.0, 100.0, 2001)
    values = mw.half_normal_charfn(t, n=n).values[0]
    assert np.abs(values - half_normal_transform_exact(t)).max() <= 1e-14


def test_half_normal_transform_refuses_large_t():
    # at t = 200 the quadrature misses the imaginary part by 4e-3
    with pytest.raises(ValueError, match="accurate for"):
        mw.half_normal_charfn(np.array([0.0, 200.0]))


def scalar_half_normal_charfn(t: np.ndarray, n: int) -> list[np.ndarray]:
    """Reference: the half-normal transform with one scalar adaptive `quad`
    call per t and per moment of the inner integral."""
    root_n = math.sqrt(n)
    norm = 1.0 / math.sqrt(2.0 * math.pi * n)

    def moment(ti: float, m: int) -> float:
        val, _ = quad(
            lambda v: 2.0 * ((n - v * v) / n) ** m * math.exp(-(n - v * v) * ti * ti / (2.0 * n)),
            0.0, root_n, epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        return val

    gauss = np.exp(-t * t / 2.0)
    out = [np.zeros(t.shape, dtype=np.complex128) for _ in range(3)]
    for i, ti in enumerate(t):
        i0, i1, i2 = (moment(float(ti), m) for m in range(3))
        out[0][i] = gauss[i] + 1j * norm * ti * i0
        out[1][i] = -ti * gauss[i] + 1j * norm * (i0 - ti * ti * i1)
        out[2][i] = (ti * ti - 1.0) * gauss[i] + 1j * norm * (-3.0 * ti * i1 + ti**3 * i2)
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_half_normal_transform_matches_scalar_quad(n):
    t = np.linspace(-30.0, 30.0, 301)
    ours = mw.half_normal_charfn(t, n=n)
    ref = scalar_half_normal_charfn(t, n)
    for j in range(3):
        assert np.abs(ours.values[j] - ref[j]).max() <= 1e-13, j


def test_half_normal_transform_matches_quadrature(charfn_grid):
    t = np.linspace(-5.0, 5.0, 101)
    base = mw.half_normal_charfn(t)
    sampled = mw.half_normal().sample_on(charfn_grid)
    direct = mw.charfn(sampled, t, 0)
    assert np.abs(base.values[0] - direct.values[0]).max() <= 1e-6


def test_kernel_route_transform(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    t = np.linspace(-5.0, 5.0, 101)
    routes = mw.nagaev_charfn(w, (8, 1), t)
    assert sorted(routes) == [1, 8]
    route = routes[8]
    direct = mw.charfn(w.max_laws[8], t, 2)
    for j in range(3):
        assert np.abs(route.values[j] - direct.values[j]).max() <= 1e-4
    i0 = np.argmin(np.abs(t))
    assert route.values[0][i0].real == pytest.approx(1.0, abs=8e-6)
    one = routes[1]
    step = mw.charfn(w.step_density, t, 1)
    assert np.abs(one.values[0] - step.values[0]).max() <= 1e-14


def test_kernel_route_batch_transforms_each_tail_once(small_grid, monkeypatch):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 8, small_grid)
    t = np.linspace(-5.0, 5.0, 101)
    alone = {n: mw.nagaev_charfn(w, [n], t)[n] for n in (4, 8)}
    calls = []
    tail = transforms.negative_tail_transform

    def counted(walk, k, t_grid):
        calls.append(k)
        return tail(walk, k, t_grid)

    monkeypatch.setattr(transforms, "negative_tail_transform", counted)
    batch = mw.nagaev_charfn(w, [8, 4, 8], t)
    assert sorted(calls) == list(range(8))
    assert sorted(batch) == [4, 8]
    for n in (4, 8):
        for j in range(3):
            assert np.array_equal(batch[n].values[j], alone[n].values[j])


def test_convergence_report_decreases(acceptance_state):
    w = acceptance_state["gaussian"].walk
    d8 = mw.charfn_convergence_report(w, 8)
    d64 = mw.charfn_convergence_report(w, 64)
    for j in range(3):
        assert 0.0 < d64[j] < d8[j]


def test_clt_envelope_gaussian_tiny():
    g = mw.make_working_grid(8, 2**14)
    w = mw.compute_walk(mw.DistributionSpec("gaussian"), 8, g)
    for n in (1, 2, 8):
        assert mw.clt_envelope(w, n) <= 1e-6


def test_clt_envelope_laplace_halves(small_grid):
    w = mw.compute_walk(mw.DistributionSpec("laplace"), 16, small_grid)
    assert mw.clt_envelope(w, 16) <= 0.75 * mw.clt_envelope(w, 8)
    assert mw.clt_envelope(w, 8) >= 0.0


def test_envelope_window_per_law(small_grid):
    g = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    assert gaussian_envelope_window(g) == 3.0
    lap = mw.sample_density(mw.DistributionSpec("laplace"), small_grid)
    assert 1.8 <= gaussian_envelope_window(lap) <= 2.2


def test_decay_window(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    t99 = mw.charfn_decay_window(f)
    assert t99 == pytest.approx(math.sqrt(-2.0 * math.log(0.99)), abs=0.02)


def test_charfn_csv_format(small_grid):
    f = mw.sample_density(mw.DistributionSpec("gaussian"), small_grid)
    out = mw.charfn(f, np.array([0.0, 1.0]), 1)
    text = charfn_csv(out)
    lines = text.splitlines()
    assert lines[0] == "t,re0,im0,re1,im1,re2,im2"
    assert len(lines) == 3
    assert lines[1].endswith(",0,0")  # second-derivative columns zero-filled
