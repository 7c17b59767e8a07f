"""Compare the benchmark runs of a parent commit and of a change.

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS
    python3 perfbench/compare.py RUNS

Each RUNS is a directory of run records as ``run.py`` writes them to
``.perfbench_out/runs/``.  With one directory, the runs of each workload are
summarised as JSON in the format of ``baseline.json``.  With two, runs pair
up by workload and seed.  For each workload both sides' fail ratios (failed
over attempted operations, all runs) are printed, then for each end-to-end
metric both medians and quartiles over runs, the pairs the change won and a
verdict:

* ``worse``: the change fails a larger share of its operations than the
  parent, or its median is worse than the parent's by more than the bound in
  ``BENCHMARK.json``;
* ``improved``: at least ten pairs, the change wins nine tenths of them
  (ties count for neither side), and the medians differ in its favour by
  more than the distance between the parent's quartiles;
* ``unresolved``: the parent's quartile distance, as a share of its median,
  is wider than the bound, and not every run of the change beats every run
  of the parent;
* ``no worse within bound`` otherwise.

Per-layer medians of the traced runs follow, for the metrics that differ.
``trace.overhead_s`` is recomputed over all runs of a workload: the median
wall time of its traced operations minus that of its untraced ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import ROOT, high_percentile


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> run record."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["trace"]][record["seed"]] = record
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def fail_counts(records: list[dict]) -> tuple[int, int]:
    return (sum(r["attempted"] for r in records), sum(r["failed"] for r in records))


def trace_overhead(records: list[dict]) -> tuple[float | None, int]:
    """Median wall time of the traced operations minus that of the untraced
    ones, pooled over every run of one workload, and the traced count."""
    ops = [op for r in records for op in r["ops"] if op["ok"]]
    traced = [op["wall_s"] for op in ops if op["traced"]]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    if not traced or not plain:
        return None, len(traced)
    return statistics.median(traced) - statistics.median(plain), len(traced)


def layer_medians(traced: list[dict], records: list[dict], declared: dict) -> dict:
    """Per-layer medians over the traced runs; the overhead over all runs."""
    values = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
              for m in declared["per_layer"]}
    values["trace.overhead_s"] = trace_overhead(records)[0]
    return values


def by_workload(runs: dict) -> dict:
    """workload -> (untraced records, traced records)."""
    out: dict = defaultdict(lambda: ([], []))
    for (workload, trace), by_seed in runs.items():
        out[workload][trace].extend(by_seed.values())
    return out


def summarize(runs: dict, declared: dict) -> dict:
    """Per workload: the machine block, the fail counts, each end-to-end
    metric's median and quartiles over the untraced runs with run and sample
    counts, and each per-layer metric's median over the traced runs."""
    out: dict = {}
    for workload, (plain, traced) in sorted(by_workload(runs).items()):
        records = plain + traced
        attempted, failed = fail_counts(records)
        summary = out[workload] = {"machine": records[0]["machine"],
                                   "attempted": attempted, "failed": failed}
        if plain:
            e2e = summary["end_to_end"] = {}
            for m in declared["end_to_end"]:
                name = m["name"]
                values = [r["metrics"][name]["value"] for r in plain]
                pooled = [v for r in plain for v in r["samples"][name]]
                q1, median, q3 = spread(values)
                high = high_percentile(pooled)
                e2e[name] = {
                    "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                    "runs": len(values), "samples": len(pooled),
                    "high_percentile": None if high is None else {"p": high[0], "value": high[1]},
                }
        if traced:
            summary["per_layer"] = layer_medians(traced, records, declared)
            summary["traced_runs"] = len(traced)
            summary["traced_ops"] = trace_overhead(records)[1]
    return out


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            sign: float, bound: float, fails_more: bool) -> tuple[str, int]:
    """sign is +1 where lower is better, -1 where higher is better."""
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if fails_more:
        return "worse", won
    p_q1, p_med, p_q3 = spread(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    if len(pairs) >= 10 and won >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved", won
    if -gain > bound * abs(p_med):
        return "worse", won
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved", won
    return "no worse within bound", won


def compare(parent: dict, change: dict, declared: dict) -> None:
    p_work, c_work = by_workload(parent), by_workload(change)
    for workload in sorted(set(p_work) & set(c_work)):
        (p_plain, p_traced), (c_plain, c_traced) = p_work[workload], c_work[workload]
        (p_att, p_fail), (c_att, c_fail) = fail_counts(p_plain + p_traced), fail_counts(
            c_plain + c_traced)
        fails_more = c_fail * p_att > p_fail * c_att
        print(f"\n{workload}: {len(p_plain)} parent runs, {len(c_plain)} change runs")
        print(f"  fail_ratio: parent {p_fail}/{p_att} = {p_fail / p_att:.6g}  "
              f"change {c_fail}/{c_att} = {c_fail / c_att:.6g}"
              + ("  (the change fails more: every metric is worse)" if fails_more else ""))
        p_runs = {r["seed"]: r for r in p_plain}
        c_runs = {r["seed"]: r for r in c_plain}
        seeds = sorted(set(p_runs) & set(c_runs))
        for m in declared["end_to_end"] if p_plain and c_plain else []:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_plain]
            c_vals = [r["metrics"][name]["value"] for r in c_plain]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            sign = 1.0 if m["better"] == "lower" else -1.0
            result, won = verdict(p_vals, c_vals, pairs, sign, m["bound"], fails_more)
            (pq1, pmed, pq3), (cq1, cmed, cq3) = spread(p_vals), spread(c_vals)
            print(f"  {name}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] {m['unit']}  "
                  f"won {won}/{len(pairs)}  bound {m['bound']:g}: {result}")
        if p_traced and c_traced:
            print("  per layer (medians over traced runs, parent -> change)")
            p = layer_medians(p_traced, p_plain + p_traced, declared)
            c = layer_medians(c_traced, c_plain + c_traced, declared)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            for name, unit in units.items():
                if p[name] != c[name]:
                    print(f"    {name}: {p[name]} -> {c[name]} {unit}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("runs", nargs="+", type=Path, help="PARENT_RUNS [CHANGE_RUNS]")
    args = p.parse_args()
    if len(args.runs) > 2:
        p.error("give one or two run directories")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(args.runs) == 2:
        compare(load(args.runs[0]), load(args.runs[1]), declared)
    else:
        print(json.dumps(summarize(load(args.runs[0]), declared), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
