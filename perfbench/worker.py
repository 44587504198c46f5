"""Perform one `coft run` in this process and write what it measured as JSON.

    python3 perfbench/worker.py RESULT_JSON TRACE(0|1) -- <coft run arguments>

`run_s` is the wall time of `coft.cli.main` from entry to return; the
program's stdout goes to a buffer so it cannot interleave with the
benchmark's. The calibration kernel runs just before, outside `run_s`; with
the parent's measurement after this process has exited, it lets the parent
scale the run to the machine's current speed. `peak_rss_mb` is this
process's own high-water mark (`VmHWM`, which starts again at exec), not
`ru_maxrss`, which keeps the parent's peak across the exec. With TRACE=1
the public functions of the program are wrapped for the duration of the run
only, and the result carries the per-layer metrics and whether every original
was restored. The parent sets the BLAS thread variables before starting this
process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibration  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

def peak_rss_mb() -> float:
    """This process's peak resident memory since exec, from `VmHWM` (in kB)."""
    with open("/proc/self/status", "r", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    coft_argv = argv[argv.index("--") + 1:]

    from coft.cli import main as coft_main

    calibration_s = calibration.measure()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = coft_main(coft_argv)
    finally:
        run_s = perf_counter() - t0
        restored = tracer.restore() if tracer is not None else True
    result = {
        "exit_code": code,
        "run_s": run_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb(),
        "restored": restored,
    }
    if tracer is not None:
        result["layers"], result["spans"] = layer_metrics(tracer, run_s)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
