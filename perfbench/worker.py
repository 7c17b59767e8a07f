"""One benchmark operation, in a fresh interpreter.

    python3 perfbench/worker.py SPAWNED_NS MODE CONFIG RESULT TRACE RUN_ID

SPAWNED_NS is the CLOCK_MONOTONIC time in ns that the parent read just before
starting this process.  Set-up runs from then until ``maxwalk`` is imported
and CONFIG is validated.  The operation is then one in-process call of
``maxwalk.cli.main([MODE, "--config", CONFIG])``, timed in wall and process
CPU time.  With TRACE 1 the layers are wrapped by ``tracer.Tracer`` first,
and the spans go to RESULT with ``.spans.json`` appended.  The measurements
go to RESULT as JSON.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _libraries() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    spawned_ns, mode, config_path, result_path, trace, run_id = argv
    sys.path.insert(0, str(ROOT / "src"))
    import maxwalk
    from maxwalk import cli

    config = json.loads(Path(config_path).read_text())
    maxwalk.RunConfig.from_dict({**config, "mode": mode})
    setup_s = (time.monotonic_ns() - int(spawned_ns)) / 1e9

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    rc = cli.main([mode, "--config", config_path])
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "libraries": _libraries(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        Path(result_path + ".spans.json").write_text(json.dumps(tracer.dump(run_id)))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
