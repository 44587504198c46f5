"""The comparison tools under ``tools/``, on made-up figures: no pipeline runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from envelope import table  # noqa: E402  (the envelope tool's markdown table)

from test_acceptance import SEEDS  # noqa: E402  (criterion 4's seeds)


def median_rows(seeds):
    figures = {s: {"zero_shot_pct": 60.0 + s, "coft_gain": 5.0 + s, "plus_delta": -s / 10}
               for s in seeds}
    text = table([figures, figures], seeds, SEEDS)
    return [line.split(" | ")[0].lstrip("| ") for line in text.splitlines()
            if line.startswith("| median")]


@pytest.mark.parametrize("seeds, expected", [
    (range(1, 4), ["median 1-3"]),
    (range(1, 16), ["median 1-5", "median 1-15"]),
    (range(6, 8), ["median 6-7"]),
], ids=["criterion-seeds-only", "criterion-and-more", "no-criterion-seed"])
def test_envelope_prints_each_median_row_once(seeds, expected):
    # seeds 1-3 once printed two identical "median 1-3" rows
    assert median_rows(list(seeds)) == expected
