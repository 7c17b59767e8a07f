"""Workload definitions and the correctness gate of each workload.

A workload is one ``maxwalk`` CLI verb with a fixed configuration.  Each
operation of a run calls ``maxwalk.cli.main`` once, in a fresh interpreter,
and its outputs are then checked here.  A gate returns ``(attempted, failed)``
in the workload's own unit: one check row of ``verify``, one spec's result of
``curves`` and ``montecarlo``.

The reference values in ``reference.json`` were recorded from these exact
configurations on the seed commit 627c9c0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Curves values must survive float-level reorderings (about 1e-11) and
# catch any change of the law itself.
CURVES_TOL = 1e-7
SPARRE_ANDERSEN_TOL = 1e-3
MC_SE_FACTOR = 4.0
SYMMETRIC_SPECS = ("gaussian", "uniform", "laplace", "spike")


def sparre_andersen(k: int) -> float:
    """P(S_1 <= 0, ..., S_k <= 0) for a symmetric continuous walk."""
    return math.comb(2 * k, k) / 4.0**k


def check_verify(out: Path, rc: int, config: dict) -> tuple[int, int]:
    expected_ids = REFERENCE["verify_check_ids"]
    # The red acceptance checks of this spec that tests/test_acceptance.py
    # catalogues as KNOWN_UNATTAINABLE: 1/sqrt(n) effects at n = 64.
    expected_failing = set(REFERENCE["verify_expected_failing"])
    if rc != 1:  # the catalogued red checks make verify exit 1
        return len(expected_ids), len(expected_ids)
    report = json.loads((out / "verify_report.json").read_text())
    passed = {row["check_id"]: row["passed"] for row in report["checks"]}
    failed = sum(
        1 for cid in expected_ids
        if cid not in passed or passed[cid] == (cid in expected_failing)
    )
    extra = len(set(passed) - set(expected_ids))
    return len(expected_ids) + extra, failed + extra


def _spec_curves_ok(out: Path, name: str, config: dict) -> bool:
    with open(out / f"walk_{name}.csv", newline="") as fh:
        fbar0 = {int(r["k"]): float(r["Fbar0"]) for r in csv.DictReader(fh)}
    n_max = config["n_max"]
    if sorted(fbar0) != list(range(1, n_max + 1)):
        return False
    if any(abs(fbar0[k] - sparre_andersen(k)) > SPARRE_ANDERSEN_TOL for k in fbar0):
        return False
    with open(out / f"curves_{name}.csv", newline="") as fh:
        rows = {int(r["n"]): r for r in csv.DictReader(fh)}
    if sorted(rows) != sorted(config["n_list"]):
        return False
    ref = REFERENCE["curves_end"][name]
    return all(abs(float(rows[n_max][key]) - ref[key]) <= CURVES_TOL for key in ref)


def check_curves(out: Path, rc: int, config: dict) -> tuple[int, int]:
    specs = config["specs"]
    if rc != 0:
        return len(specs), len(specs)
    return len(specs), sum(1 for name in specs if not _spec_curves_ok(out, name, config))


def check_montecarlo(out: Path, rc: int, config: dict) -> tuple[int, int]:
    specs = config["specs"]
    n = config["n_max"]
    if rc != 0:
        return len(specs), len(specs)
    failed = 0
    for name in specs:
        summary = json.loads((out / f"mc_{name}_n{n}.json").read_text())
        target = (sparre_andersen(n) if name in SYMMETRIC_SPECS
                  else REFERENCE["mixture_grid_nonpos"])
        gap = abs(summary["nonpos_hat"] - target)
        if summary["samples"] != config["mc_samples"] or gap > MC_SE_FACTOR * summary["nonpos_se"]:
            failed += 1
    return len(specs), failed


@dataclass(frozen=True)
class Workload:
    mode: str
    config: dict
    seeded: bool
    check: Callable[[Path, int, dict], tuple[int, int]]

    def cli_config(self, seed: int) -> dict:
        """The JSON config handed to the CLI; the benchmark seed goes to the
        program's own seed where the workload is random."""
        config = dict(self.config)
        if self.seeded:
            config["seed"] = seed % 2**63
        return config


WORKLOADS = {
    # `maxwalk verify` at the default n_max 64, n_list and 1e5 samples, for
    # one spec on 2^13 cells: every section runs, the transforms layer leads.
    "verify-default": Workload(
        mode="verify",
        config={"specs": ["gaussian"], "n_max": 64, "grid_points": 2**13},
        seeded=True,
        check=check_verify,
    ),
    # `maxwalk curves` to n = 256: the convolution engine on one length,
    # every decomposition call distinct, no transform calls.  Deterministic.
    "curves-deep": Workload(
        mode="curves",
        config={
            "specs": ["gaussian", "spike"],
            "n_max": 256,
            "n_list": [1, 2, 4, 8, 16, 32, 64, 128, 256],
            "grid_points": 2**14,
        },
        seeded=False,
        check=check_curves,
    ),
    # `maxwalk montecarlo` for the five specs: the stochastic oracle alone.
    "mc-oracle": Workload(
        mode="montecarlo",
        config={
            "specs": ["gaussian", "uniform", "laplace", "mixture", "spike"],
            "n_max": 64,
            "mc_samples": 100_000,
        },
        seeded=True,
        check=check_montecarlo,
    ),
}
