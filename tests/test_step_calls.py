"""Python-level calls made by one training step at the acceptance shape
(10 classes x 64-d, batch 32), counted with ``sys.setprofile``.

At this shape a step does little arithmetic, so the interpreter's per-call
overhead sets its time; timings are too noisy to guard that, while the call
count is deterministic. Each step is counted warm, after the optimizer has
bound its tensors and the adapter has left its identity start. A count that
moves means the step's code path changed: update the pinned number only
with the reason in the change's notes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from stepbench import build_steps  # noqa: E402  (the steps tools/stepbench.py times)

CLASSES, DIM = 10, 64
# numpy's Python wrappers around ufunc reductions; no step may call them
WRAPPER_FILES = ("fromnumeric.py", "_methods.py", "_linalg.py")


def python_calls(fn) -> list:
    """Code objects of the Python-level calls ``fn()`` makes, in call order."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return codes[1:]  # codes[0] is fn itself


@pytest.fixture(scope="module")
def steps():
    return build_steps(CLASSES, DIM)


# The parent of the change that pinned these made 140, 54 and 137 calls.
PINNED = {"phase1": 54, "student": 35, "coft-plus": 83}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_step_call_count_is_pinned(steps, name):
    codes = python_calls(steps[name])
    wrappers = sorted({f"{c.co_filename.rsplit('/', 1)[-1]}:{c.co_name}" for c in codes
                       if c.co_filename.endswith(WRAPPER_FILES)})
    assert not wrappers, f"{name} step calls numpy reduction wrappers: {wrappers}"
    assert len(codes) == PINNED[name]

