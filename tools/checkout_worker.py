"""Worker processes that import `coft` from one source checkout each.

The tools that compare two checkouts (`envelope.py`, `stepbench.py`) run each
side in its own worker: the tool's script started again with
``--worker CHECKOUT``, `coft` importable from CHECKOUT's `src/` only, and
BLAS at 1 thread so the two sides do not share or fight over cores.
`pairs.py` runs each checkout's own benchmark instead, and shares only
`require_sources`.
"""

from __future__ import annotations

import os
import subprocess
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def require_sources(parser, checkouts: list) -> list:
    """The checkouts as absolute paths; a parser error for one without
    `coft` sources under its `src/`."""
    checkouts = [os.path.abspath(c) for c in checkouts]
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, "src", "coft", "__init__.py")):
            parser.error(f"no coft sources under {checkout}/src")
    return checkouts


def start(script: str, checkout: str, *args: str, **popen) -> subprocess.Popen:
    """``python3 SCRIPT --worker CHECKOUT ARGS...`` with `coft` from
    CHECKOUT/src and BLAS at 1 thread; ``popen`` goes to ``subprocess.Popen``
    (text mode)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update({var: "1" for var in BLAS_VARS})
    return subprocess.Popen([sys.executable, os.path.abspath(script), "--worker", checkout,
                             *args], env=env, text=True, **popen)


def check_import(checkout: str) -> None:
    """In a worker: exit unless `coft` was imported from CHECKOUT/src."""
    import coft

    src = os.path.realpath(os.path.join(checkout, "src"))
    if os.path.commonpath([src, os.path.realpath(coft.__file__)]) != src:
        raise SystemExit(f"coft imported from {coft.__file__}, not from {src}")
