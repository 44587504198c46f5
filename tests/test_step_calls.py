"""Python-level calls made by one training step at the acceptance shape
(10 classes x 64-d, batch 32), counted with ``sys.setprofile``, and the
traced allocations of a phase-1 step at the scale shape.

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
from stepbench import build_steps, python_calls, traced_peak  # noqa: E402  (what stepbench times)

CLASSES, DIM = 10, 64
# numpy's Python wrappers around ufunc reductions; no step may call them
WRAPPER_FILES = ("fromnumeric.py", "_methods.py", "_linalg.py")


@pytest.fixture(scope="module")
def steps():
    return build_steps(CLASSES, DIM)


# Phase 1 made 140 calls before the reductions went straight to ufuncs, and
# 54 before it composed one stacked text table per step; the student steps
# made 54 and 137 before the ufunc change. The coft-plus step made 83 while
# its EMA gathered the student's values from its tensors (two params() calls,
# a list comprehension and np.concatenate) instead of reading their buffer.
# Phase 1 made 42 while the adapter's identity test was a method of its own
# class rather than one expression in adapt_batch. The student and coft-plus
# steps made 35 and 79 while logits_batch wrapped its encode cache in a
# logits cache of its own.
PINNED = {"phase1": 41, "student": 34, "coft-plus": 78}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_step_call_count_is_pinned(steps, name):
    codes = python_calls(steps[name])
    wrappers = sorted({f"{c.co_filename.rsplit('/', 1)[-1]}:{c.co_name}" for c in codes
                       if c.co_filename.endswith(WRAPPER_FILES)})
    assert not wrappers, f"{name} step calls numpy reduction wrappers: {wrappers}"
    assert len(codes) == PINNED[name]


def test_phase1_composes_the_text_table_once(steps):
    names = [c.co_name for c in python_calls(steps["phase1"])
             if c.co_filename.endswith("encoders.py")]
    assert names.count("compose_texts") == 1
    assert names.count("compose_texts_backward") == 1


def test_warm_phase1_step_allocates_no_text_table():
    # At 100 classes x 256-d one (2C, d) text table is 400 KiB. A step that
    # allocates its texts, their gradient and the backward pass's temporaries
    # peaks at 2.05 MB; writing them into the run's TextScratch leaves the
    # batch-sized arrays, about 0.33 MB. Freed at the heap's top, the 2 MB of
    # tables were handed back to the kernel and faulted in again every step.
    step = build_steps(100, 256)["phase1"]
    assert traced_peak(step) < 512 * 1024
