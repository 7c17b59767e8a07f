import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxwalk
from maxwalk.cli import main
from maxwalk.config import ConfigError, RunConfig
from maxwalk.montecarlo import summary_json
from maxwalk.verify import SuiteState


def write_config(tmp_path, **overrides):
    data = {
        "specs": ["gaussian"],
        "n_max": 4,
        "n_list": [1, 2, 4],
        "grid_points": 2**12,
        "mc_samples": 10**4,
        "seed": 7,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="plot")
    with pytest.raises(ConfigError):
        RunConfig(n_list=(0, 1))
    with pytest.raises(ConfigError):
        RunConfig(grid_points=3000)
    with pytest.raises(ConfigError):
        RunConfig(specs=("gaussian", "exotic"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"unexpected": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"threads": 2})
    cfg = RunConfig.from_dict({"specs": ["spike"], "n_list": [4, 2, 2], "n_max": 8})
    assert cfg.n_list == (2, 4)
    for bad in _BAD_VALUES:
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        RunConfig(out_dir=5)
    assert RunConfig(seed=0).seed == 0
    assert RunConfig(seed=2**63 - 1).seed == 2**63 - 1
    # the largest sizes still accepted
    assert RunConfig(n_max=64, grid_points=2**20).grid_points == 2**20
    assert RunConfig(mode="curves", n_max=1024, n_list=(1,), grid_points=2**16).n_max == 1024
    # verify needs the curve rows its checks read; the other modes take any n_list
    with pytest.raises(ConfigError, match=r"needs n_list to hold n = \[8, 32, 64\]"):
        RunConfig(n_max=1024, n_list=(1,), grid_points=2**16)
    assert RunConfig(mode="curves", n_max=64, n_list=(1, 2, 4)).n_list == (1, 2, 4)
    assert RunConfig(n_max=31, n_list=(1, 2, 4)).n_list == (1, 2, 4)
    assert RunConfig(mc_samples=10**9).mc_samples == 10**9
    mix = (0.3, -0.7, 0.3, 0.79)
    assert RunConfig(spec_parameters=mix).spec_parameters == mix
    with pytest.raises(ConfigError):  # four numbers, but not a standardized mixture
        RunConfig(specs=("gaussian",), spec_parameters=(0.5, 0, 0, 1.5))


# each is a traceback or a silent misreading unless the config rejects it
_BAD_VALUES = (
    {"seed": -1},
    {"seed": 2**63},
    {"seed": 7.0},
    {"mc_samples": 1e4},
    {"mc_samples": True},
    {"n_max": 4.5},
    {"n_max": True},
    {"grid_points": 4096.0},
    {"spec_parameters": ["a"]},
    {"spec_parameters": [0.3, -0.7]},
    {"spec_parameters": [0.3, -0.7, 0.3, 0.79, 1.0]},
    {"spec_parameters": [0.3, -0.7, 0.3, float("nan")]},
    {"spec_parameters": [True, -0.7, 0.3, 0.79]},
    {"spec_parameters": ["0.3", "-0.7", "0.3", "0.79"]},
    {"half_width_factor": "a"},
    {"sigma_pad": float("inf")},
    {"t_window": float("nan")},
    {"t_window": 50.5},
    {"t_window": 1e300},
    {"decomposition_M": -1.0},
    {"sigma_pad": 10**400},
    {"spec_parameters": [0.3, -0.7, 0.3, 10**400]},
    {"n_max": 1025, "n_list": [1]},
    {"n_max": 10**400, "n_list": [1]},
    {"n_max": 128, "n_list": [1], "grid_points": 2**20},
    {"mc_samples": 10**9 + 1},
    {"specs": ["gaussian", "gaussian"]},
)


def test_invalid_config_exits_2(tmp_path, capsys):
    cases = (
        ("curves", {"n_list": [0, 1]}),
        ("montecarlo", _BAD_VALUES[0]),
        ("curves", {"n_max": 10**400, "n_list": [1]}),
        ("density", {"n_max": 10**400, "n_list": [1]}),
        ("curves", {"n_max": 128, "n_list": [1], "grid_points": 2**20}),
        ("montecarlo", {"mc_samples": 10**9 + 1}),
        ("charfn", {"t_window": 1e300}),  # rejected before any t grid is built
        ("verify", {"specs": ["gaussian", "gaussian"]}),
    )
    for verb, bad in cases:
        path = write_config(tmp_path, **bad)
        code = main([verb, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
    # a verify n_list without the n its endpoint and tail checks read, which
    # would drop their rows without listing them as skipped
    for n_max, n_list, missing in ((64, [1, 2, 4], [8, 32, 64]), (40, [1, 2, 4, 8], [32])):
        path = write_config(tmp_path, n_max=n_max, n_list=n_list)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"needs n_list to hold n = {missing}" in capsys.readouterr().err
    # keys of settings that are no longer configurable, with values they once took
    for key in ("threads", "half_width_factor", "sigma_pad", "decomposition_M", "t_window"):
        path = write_config(tmp_path, **{key: 1.0})
        assert main(["curves", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    path = write_config(tmp_path, n_list=5)
    assert main(["curves", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: n_list must be a list, got 5" in capsys.readouterr().err
    # a string is not read character by character
    for key, value in (("n_list", "12"), ("spec_parameters", "0.3")):
        path = write_config(tmp_path, n_max=16, **{key: value})
        assert main(["curves", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key} must be a list, got '{value}'" in capsys.readouterr().err
    path = write_config(tmp_path, specs="gaussian")
    assert main(["density", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    # an output path that is a file, or lies below one
    path = write_config(tmp_path)
    for out in (path, path / "sub"):
        assert main(["density", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot use out_dir") and err.count("\n") == 1


def test_n_list_defaults_to_the_listed_n_up_to_n_max(tmp_path):
    """A config without n_list reports the curves at 1, 2, 4, ... up to
    n_max; --nmax replaces a file's n_list the same way."""
    path = write_config(tmp_path)
    data = json.loads(path.read_text())
    del data["n_list"]
    path.write_text(json.dumps(data))
    for verb in ("verify", "curves"):
        assert main([verb, "--config", str(path), "--out", str(tmp_path / verb)]) == 0
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    assert report["config"]["n_list"] == [1, 2, 4]

    def curve_ns(out):
        rows = (out / "curves_gaussian.csv").read_text().splitlines()[1:]
        return [int(row.split(",")[0]) for row in rows]

    assert curve_ns(tmp_path / "curves") == [1, 2, 4]
    path = write_config(tmp_path, n_max=16, n_list=[1, 2, 4, 8, 16])
    out = tmp_path / "flag"
    assert main(["curves", "--config", str(path), "--nmax", "2", "--out", str(out)]) == 0
    assert curve_ns(out) == [1, 2]
    assert RunConfig(n_max=256, n_list=None).n_list == (1, 2, 4, 8, 16, 32, 64)
    for bad in ((), (8,)):
        with pytest.raises(ConfigError):
            RunConfig(n_max=4, n_list=bad)


def test_curves_mode_writes_deterministic_files(tmp_path):
    path = write_config(tmp_path)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["curves", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["curves", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("curves_gaussian.csv", "entropy_gaussian.csv", "walk_gaussian.csv"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b and len(a) > 0
    header = (out1 / "curves_gaussian.csv").read_text().splitlines()[0]
    assert header == "n,D,D_plus,tv,m2_plus,Fbar0,tail4,alesh,local_a"


def test_density_and_decomp_modes(tmp_path):
    path = write_config(tmp_path, specs=["spike"])
    out = tmp_path / "out"
    assert main(["density", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "max_density_spike_n4.csv").exists()
    assert (out / "max_density_spike_n4_rescaled.csv").exists()
    assert main(["decomp", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "decomp_spike.csv").read_text()
    assert text.splitlines()[0].startswith("n,l1_pq")


def test_streamed_rows_are_the_batched_rows(tmp_path, monkeypatch):
    # curves and decomp build each split alone, when its row reads it; their
    # files are byte for byte those from one max_law_splits batch over all n
    import maxwalk.verify as vf

    batches = []
    batch = vf.dc.max_law_splits

    def recording(table, walk, ns):
        batches.append(sorted(ns))
        return batch(table, walk, ns)

    path = write_config(tmp_path, specs=["gaussian", "spike"], n_max=16,
                        n_list=[1, 2, 4, 8, 16])
    out = tmp_path / "out"
    for module in (vf.dc, vf.lm):
        monkeypatch.setattr(module, "max_law_splits", recording)
    for verb in ("curves", "decomp"):
        assert main([verb, "--config", str(path), "--out", str(out)]) == 0
    assert batches == 2 * [[1], [2], [4], [8], [16]] + 2 * [[8], [16]]
    monkeypatch.undo()
    config = RunConfig.from_dict({**json.loads(path.read_text()), "mode": "curves"})
    for name in ("gaussian", "spike"):
        state = SuiteState(config, name, config.n_list)
        walk = state.walk
        splits = maxwalk.max_law_splits(state.table, walk, config.n_list)
        rows = maxwalk.convergence_curves(state.spec, list(config.n_list), walk=walk,
                                          splits=splits)
        for file, text in (("curves", maxwalk.limits.curves_csv(rows)),
                           ("entropy", maxwalk.limits.entropy_reports_csv(rows)),
                           ("walk", maxwalk.walk.walk_scalars_csv(walk))):
            assert (out / f"{file}_{name}.csv").read_bytes() == text.encode()
        state = SuiteState(config, name, config.diag_ns)
        splits = maxwalk.max_law_splits(state.table, state.walk, config.diag_ns)
        rows = maxwalk.split_quality_diagnostics(state.walk, list(splits.values()))
        text = maxwalk.decomposition.diagnostics_csv(rows)
        assert (out / f"decomp_{name}.csv").read_bytes() == text.encode()


def test_runners_keep_only_the_laws_they_read(tmp_path, monkeypatch):
    import maxwalk.verify as vf

    seen = []
    build = vf.wk.compute_walk

    def recording(spec, n_max, grid=None, keep=None):
        seen.append(None if keep is None else sorted(keep))
        return build(spec, n_max, grid, keep)

    monkeypatch.setattr(vf.wk, "compute_walk", recording)
    path = write_config(tmp_path, n_max=8, n_list=[1, 2, 4])
    expected = {"curves": [1, 2, 4], "density": [8], "charfn": [8], "decomp": [8]}
    for verb, keep in expected.items():
        seen.clear()
        assert main([verb, "--config", str(path), "--out", str(tmp_path / verb)]) == 0
        assert seen == [keep]
    seen.clear()
    assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "mc")]) == 0
    assert seen == []
    seen.clear()
    main(["verify", "--config", str(path), "--out", str(tmp_path / "verify")])
    assert seen and all(keep is None for keep in seen)


def test_montecarlo_and_charfn_modes(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "mc_gaussian_n4.json").read_text())
    assert summary["samples"] == 10**4
    assert main(["charfn", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "charfn_half_normal.csv").exists()
    windows = (out / "charfn_windows_gaussian.csv").read_text().splitlines()
    assert windows[0] == "decay_window_99,envelope_window"


def test_montecarlo_seeds_each_spec_as_verify_does(tmp_path):
    # one seed rule for both verbs: the CLI writes SuiteState.summary, and
    # the specs of one run draw from distinct streams
    path = write_config(tmp_path, specs=["gaussian", "uniform"])
    out = tmp_path / "out"
    assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
    config = RunConfig.from_dict(json.loads(path.read_text()))
    seeds = set()
    for name in ("gaussian", "uniform"):
        text = (out / f"mc_{name}_n4.json").read_text()
        assert text == summary_json(SuiteState(config, name).summary(4))
        seeds.add(json.loads(text)["seed"])
    assert len(seeds) == 2


def test_montecarlo_draws_a_mixture_with_a_deep_gap(tmp_path):
    # sd 0.14 at +-0.99: the density between the components falls to 3e-11
    path = write_config(tmp_path, spec_parameters=[0.5, -0.99, 0.99, 0.0199])
    out = tmp_path / "out"
    args = ["montecarlo", "--config", str(path), "--spec", "mixture", "--nmax", "4",
            "--mc-samples", "10000", "--out", str(out)]
    assert main(args) == 0
    summary = json.loads((out / "mc_mixture_n4.json").read_text())
    assert summary["spec"] == "mixture" and summary["samples"] == 10**4


def test_verify_mode_small_scale(tmp_path, capsys):
    path = write_config(tmp_path, n_max=8, n_list=[1, 2, 4, 8], grid_points=2**13)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0, captured
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]
    for check in report["checks"]:
        assert {"check_id", "description", "value", "threshold", "passed"} <= set(check)
    assert "[pass]" in captured


@pytest.mark.parametrize("n_max", [1, 4])
def test_verify_below_eight_steps(tmp_path, n_max):
    # the transform-side kernel check runs at min(8, n_max) and
    # min(16, n_max); at n_max 1 the route section has no kernel n at all
    out = tmp_path / "out"
    code = main(["verify", "--spec", "gaussian", "--nmax", str(n_max),
                 "--grid-points", "4096", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "verify_report.json").read_text())["checks"]


def test_verify_report_config_names_the_mixture(tmp_path):
    # two runs that differ only in the mixture's parameters write different
    # config blocks, which name those parameters
    configs = {}
    for label, params in (("default", []), ("custom", [0.5, -0.99, 0.99, 0.0199])):
        path = write_config(tmp_path, specs=["mixture"], n_max=1, n_list=[1],
                            spec_parameters=params)
        out = tmp_path / label
        main(["verify", "--config", str(path), "--out", str(out)])
        configs[label] = json.loads((out / "verify_report.json").read_text())["config"]
    assert configs["default"]["spec_parameters"] == []
    assert configs["custom"]["spec_parameters"] == [0.5, -0.99, 0.99, 0.0199]
    assert configs["default"] != configs["custom"]
    del configs["custom"]["spec_parameters"], configs["default"]["spec_parameters"]
    assert configs["default"] == configs["custom"]


def test_flag_overrides(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = main([
        "montecarlo", "--config", str(path), "--spec", "uniform",
        "--seed", "99", "--out", str(out),
    ])
    assert code == 0
    assert (out / "mc_uniform_n4.json").exists()
    # the simulation seed: --seed plus the spec's registry index (SuiteState.summary)
    assert json.loads((out / "mc_uniform_n4.json").read_text())["seed"] == 99 + 1


def test_verify_report_is_deterministic(tmp_path):
    """Two identical verify runs agree byte for byte once the wall-clock
    fields are masked: runtime_seconds and the values of the *.runtime rows."""
    path = write_config(tmp_path, n_max=16, n_list=[1, 2, 4, 8, 16])

    def masked_report(out):
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        report["runtime_seconds"] = None
        for check in report["checks"]:
            if check["check_id"].endswith(".runtime"):
                check["value"] = None
        return json.dumps(report, sort_keys=True)

    assert masked_report(tmp_path / "out1") == masked_report(tmp_path / "out2")


def _fresh_interpreter(code: str) -> str:
    src = str(Path(maxwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_skips_scipy_signal():
    # importing scipy.signal costs most of a CLI run's start-up; nothing
    # in the package needs it
    assert _fresh_interpreter(
        "import maxwalk.cli, sys; print('scipy.signal' in sys.modules)") == "False"


def test_cli_import_footprint():
    # the package runs on numpy alone: importing scipy.special and scipy.fft
    # would double a CLI run's start-up time and add 25 MB
    loaded = _fresh_interpreter(
        "import maxwalk, maxwalk.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded == "[]"


_MMAP_PROBE = """
import ctypes
import numpy as np
import maxwalk, maxwalk.cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2

def mapped_alone(nbytes):
    before = mallinfo2().hblkhd
    a = np.empty(nbytes // 8)
    grew = mallinfo2().hblkhd - before
    del a
    return grew >= nbytes

print(mapped_alone(1 << 20), mapped_alone(8 << 20))
maxwalk.cli.main(["verify", "--nmax", "0"])  # a config error, after the policy is set
print(mapped_alone(1 << 20), mapped_alone(8 << 20), mapped_alone(32 << 20))
"""


def test_heap_policy_is_set_by_main_only():
    # glibc maps a block of 128 KiB and up on its own until told otherwise;
    # cli.main raises that threshold to 16 MiB, importing the package does not
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("the C library has no mallinfo2 (not glibc >= 2.33)")
    assert _fresh_interpreter(_MMAP_PROBE).splitlines() == ["True True", "False False True"]
