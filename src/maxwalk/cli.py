"""Command line interface: run experiments and emit CSV/JSON artifacts.

Verbs: curves, verify, charfn, montecarlo, density, decomp.  A JSON config
file supplies defaults; flags override individual fields.  Exit codes:
0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import transforms as cf
from . import decomposition as dc
from . import grid as gr
from . import limits as lm
from . import montecarlo as mc
from . import walk as wk
from .config import ConfigError, RunConfig
from .verify import SuiteState, run_verification


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxwalk",
        description="Numerical laws of random-walk maxima and their "
        "half-normal limit diagnostics.",
    )
    p.add_argument("mode", choices=("curves", "verify", "charfn", "montecarlo",
                                    "density", "decomp"))
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--spec", type=str, default=None, help="restrict to one step law")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="output directory")
    return p


def load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    data["mode"] = args.mode
    if args.spec is not None:
        data["specs"] = (args.spec,)
    if args.nmax is not None:
        data["n_max"] = args.nmax
        data.pop("n_list", None)  # RunConfig derives the default from n_max
    if args.grid_points is not None:
        data["grid_points"] = args.grid_points
    if args.seed is not None:
        data["seed"] = args.seed
    if args.mc_samples is not None:
        data["mc_samples"] = args.mc_samples
    if args.out is not None:
        data["out_dir"] = args.out
    return RunConfig.from_dict(data)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _states(config: RunConfig, keep):
    """(name, SuiteState) for each spec in turn, a fresh state each, so only
    one spec's walk and splits are held at a time (the loops below keep no
    walk or split in a variable that outlives its iteration).  Each walk
    holds the full max law only at the n of `keep`, those its runner reads."""
    return ((name, SuiteState(config, name, keep)) for name in config.specs)


def run_curves(config: RunConfig, out: Path) -> int:
    for name, state in _states(config, config.n_list):
        rows = state.curves
        _write(out / f"curves_{name}.csv", lm.curves_csv(rows))
        _write(out / f"entropy_{name}.csv", lm.entropy_reports_csv(rows))
        _write(out / f"walk_{name}.csv", wk.walk_scalars_csv(state.walk))
    return 0


def run_verify(config: RunConfig, out: Path) -> int:
    report = run_verification(config)
    _write(out / "verify_report.json", report.to_json())
    for check in report.checks:
        state = "pass" if check.passed else "FAIL"
        print(f"[{state}] {check.check_id}: value={check.value:.6g} "
              f"{check.comparison} {check.threshold:.6g}")
    print(f"verification {'passed' if report.passed else 'FAILED'} "
          f"({len(report.checks)} checks, {report.runtime_seconds:.1f}s)")
    return 0 if report.passed else 1


def run_charfn(config: RunConfig, out: Path) -> int:
    t = np.linspace(-5.0, 5.0, 1001)
    n = config.n_max
    _write(out / "charfn_half_normal.csv",
           cf.charfn_csv(cf.half_normal_charfn(t)))
    for name, state in _states(config, (n,)):
        p = state.walk.step_density
        law = gr.rescale_sqrt(state.walk.max_laws[n], n)
        _write(out / f"charfn_step_{name}.csv", cf.charfn_csv(cf.charfn(p, t, 2)))
        _write(out / f"charfn_max_{name}_n{n}.csv", cf.charfn_csv(cf.charfn(law, t, 2)))
        decay = cf.charfn_decay_window(p)
        envelope = cf.gaussian_envelope_window(p)
        _write(out / f"charfn_windows_{name}.csv",
               f"decay_window_99,envelope_window\n{decay:.17g},{envelope:.17g}\n")
    return 0


def run_montecarlo(config: RunConfig, out: Path) -> int:
    n = config.n_max
    for name, state in _states(config, ()):  # builds no walk
        summary = mc.simulate(state.spec, n, config.mc_samples, config.seed)
        _write(out / f"mc_{name}_n{n}.json", mc.summary_json(summary))
        _write(out / f"mc_{name}_n{n}_hist.csv", mc.histogram_csv(summary))
    return 0


def run_density(config: RunConfig, out: Path) -> int:
    n = config.n_max
    for name, state in _states(config, (n,)):
        law = state.walk.max_laws[n]
        _write(out / f"max_density_{name}_n{n}.csv", gr.density_to_csv(law))
        _write(out / f"max_density_{name}_n{n}_rescaled.csv",
               gr.density_to_csv(gr.rescale_sqrt(law, n)))
    return 0


def run_decomp(config: RunConfig, out: Path) -> int:
    for name, state in _states(config, config.diag_ns):
        splits = state.splits(config.diag_ns)
        rows = dc.split_quality_diagnostics(state.walk, list(splits.values()))
        _write(out / f"decomp_{name}.csv", dc.diagnostics_csv(rows))
    return 0


_RUNNERS = {
    "curves": run_curves,
    "verify": run_verify,
    "charfn": run_charfn,
    "montecarlo": run_montecarlo,
    "density": run_density,
    "decomp": run_decomp,
}


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> None:
    """Let glibc's heap keep the program's arrays.

    By default glibc maps each block of 128 KiB and up on its own and
    unmaps it on free, and returns the top of the heap to the kernel, so an
    array made again after a free faults its pages in again (the threshold
    only rises after a mapped block is freed, as importing a large library
    does).  Blocks below 16 MiB come from the heap, and the heap keeps up to
    64 MiB free at its top.  Does nothing where the C library has no
    mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    args = _parser().parse_args(argv)
    try:
        config = load_config(args)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot use out_dir {config.out_dir!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        return _RUNNERS[config.mode](config, out)
    except gr.GridError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
