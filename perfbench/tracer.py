"""Outside-in tracer for maxwalk's layers.

``Tracer.install`` wraps, from outside the package, the public functions of
each layer module at every place they are bound: the defining module, every
``maxwalk`` module that imported them by name and the package namespace.  It
also wraps ``DistributionSpec.inv_cdf`` and replaces ``verify._SECTIONS`` with
one span per section.  Spans (name, start, end, parent) stay in memory until
the traced operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
from scipy.fft import next_fast_len

LAYERS = ("grid", "walk", "transforms", "decomposition", "entropy", "limits",
          "montecarlo", "verify")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fft_points(args, kwargs) -> float:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "fast")
    if mode != "fast":
        return 0.0
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return float(next_fast_len(a.values.size + b.values.size - 1, real=True))


def _t_x_cells(args, kwargs) -> float:
    f, t = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "t_grid")
    return float(np.size(t) * np.count_nonzero(f.values))


def _simulate_draws(args, kwargs) -> float:
    return float(_arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "samples"))


def _inv_cdf_draws(args, kwargs) -> float:
    return float(np.size(_arg(args, kwargs, 1, "u")))


# Work counted at a boundary, as (metric suffix, function of the call's arguments).
WORK = {
    "grid.convolve": ("fft_points", _fft_points),
    "transforms.charfn": ("t_x_cells", _t_x_cells),
    "montecarlo.simulate": ("draws", _simulate_draws),
    "grid.inv_cdf": ("draws", _inv_cdf_draws),
}

# Calls whose (walk, index) argument pair names the object they compute:
# positions of the walk and of the index.
DISTINCT = {
    "transforms.negative_tail_transform": ((0, "walk"), (1, "k")),
    "walk.nagaev_kernel": ((0, "walk"), (1, "index")),
    "decomposition.bounded_max_approximation": ((1, "walk"), (2, "n")),
    "decomposition.local_correction_term": ((1, "walk"), (2, "n")),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.work: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._held: list = []  # keeps keyed objects alive so their ids stay unique

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        distinct = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, kwargs)
            if distinct is not None:
                (wi, wname), (ki, kname) = distinct
                walk = _arg(args, kwargs, wi, wname)
                self._held.append(walk)
                self.keys[name].add((id(walk), _arg(args, kwargs, ki, kname)))
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        modules = {short: importlib.import_module(f"maxwalk.{short}") for short in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        binding_sites = [m for name, m in sys.modules.items()
                         if name == "maxwalk" or name.startswith("maxwalk.")]
        for mod in binding_sites:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        spec = modules["grid"].DistributionSpec
        spec.inv_cdf = self.wrap("grid.inv_cdf", spec.inv_cdf)
        verify = modules["verify"]
        verify._SECTIONS = tuple(
            (name, self.wrap(f"verify.{name}", fn), *rest)
            for name, fn, *rest in verify._SECTIONS
        )

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        distinct ratios and work counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        for name, keys in self.keys.items():
            out[f"{name}.distinct_ratio"] = len(keys) / out[f"{name}.calls"]
        out.update(self.work)
        return dict(out)

    def dump(self, run_id: str) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "run_id": run_id,
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
        }
