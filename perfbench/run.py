"""maxwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.WORKLOADS`` for about S seconds, from the
root of a checkout.  Each operation is one ``maxwalk.cli.main`` call in a
fresh interpreter (``worker.py``), so every operation pays set-up and fills
the program's caches as a user's CLI run does.  Operations start until the
next one would end after S seconds, with at least three.  Every operation's
outputs go through the workload's correctness gate.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of ``BENCHMARK.json`` as medians over the operations.  With
``--trace 1`` untraced and traced operations alternate; the traced ones give
the per-layer metrics, and ``trace.overhead_s`` is the traced minus the
untraced median wall time of this run (``compare.py`` pools it over runs).
Other lines give quartiles, the highest percentile with ten samples beyond
it, sample counts and the machine block.
The whole record of the run, the input of ``compare.py``, is written to
``.perfbench_out/runs/``; the spans of traced operations are written beside
each workload's outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_OPS = 3
OP_TIMEOUT_S = 150.0
E2E_SAMPLES = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _git_commit() -> str:
    # A checkout without .git must not report the commit of an enclosing repo.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}"
    high = high_percentile(values)
    text += f", p{high[0]} {high[1]:.6g}" if high else ", no percentile has 10 samples beyond it"
    return text + f", n={len(values)}"


def run_op(workload, config: dict, config_path: Path, env: dict, traced: bool,
           run_id: str) -> dict:
    """Start one worker, wait for it and gate its outputs."""
    cli_out = Path(config["out_dir"])
    shutil.rmtree(cli_out, ignore_errors=True)
    result_path = config_path.with_name(f"{run_id}.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns()),
           workload.mode, str(config_path), str(result_path),
           "1" if traced else "0", run_id]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S)
        ok = proc.returncode == 0 and result_path.is_file()
    except subprocess.TimeoutExpired:
        print(f"operation {run_id} timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
        ok = False
    duration = time.perf_counter() - start
    op = json.loads(result_path.read_text()) if ok else {"rc": None}
    try:
        attempted, failed = workload.check(cli_out, op["rc"], config)
    except (OSError, KeyError, ValueError) as exc:
        print(f"operation {run_id}: outputs unreadable: {exc!r}", file=sys.stderr)
        attempted, _ = workload.check(cli_out, None, config)
        failed = attempted
    op.update(traced=traced, run_id=run_id, duration_s=duration, ok=ok,
              attempted=attempted, failed=failed)
    return op


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "maxwalk" / "cli.py").is_file():
        print(f"error: no maxwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "tmp").mkdir(exist_ok=True)
    config = {**workload.cli_config(args.seed), "out_dir": str(work_dir / "cli")}
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))

    # One process does all the work: per-spec threads would change what a
    # run measures, so the variable is cleared for the workers.
    env = dict(os.environ, TMPDIR=str(work_dir / "tmp"))
    threads_cleared = env.pop("MAXWALK_THREADS", None)

    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        if ops:
            elapsed = time.perf_counter() - start
            estimate = statistics.median(op["duration_s"] for op in ops)
            limit = args.seconds if len(ops) >= MIN_OPS else OP_TIMEOUT_S
            if elapsed + estimate > limit:
                break
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(workload, config, config_path, env, traced,
                          f"seed{args.seed}-op{len(ops)}"))

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    traced_ops = [op for op in ops if op["ok"] and op["traced"]]
    if not plain or (args.trace and not traced_ops):
        print("error: no operation produced measurements", file=sys.stderr)
        return 1

    samples = {m: [op[m] for op in plain] for m in E2E_SAMPLES}
    samples["setup_s"] = [op["setup_s"] for op in plain + traced_ops]
    values = {m: statistics.median(v) for m, v in samples.items()}
    if args.trace:
        names = {name for op in traced_ops for name in op["layers"]}
        values = {name: statistics.median(op["layers"].get(name, 0.0) for op in traced_ops)
                  for name in names}
        values["trace.overhead_s"] = (
            statistics.median(op["wall_s"] for op in traced_ops)
            - statistics.median(op["wall_s"] for op in plain)
        )
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    machine = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **plain[0]["libraries"],
        "commit": _git_commit(),
        "maxwalk_threads_cleared": threads_cleared,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mode": workload.mode, "config": config,
        "machine": machine, "samples": samples, "ops": ops, "metrics": metrics,
        "attempted": attempted, "failed": failed,
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload}: {len(ops)} operations, {failed} of {attempted} "
          f"{'check rows' if workload.mode == 'verify' else 'spec results'} failed "
          f"(fail_ratio {failed / attempted:.6g})")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for m, v in samples.items():
        print(describe(m, units.get(m, ""), v))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
