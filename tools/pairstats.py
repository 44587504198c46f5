"""Paired comparison of two sides' figures, shared by `pairs.py` and
`stepbench.py`.

Pair ``i`` is side A's ``a[i]`` against side B's ``b[i]``, measured back to
back. A pair is won by the side whose figure is better in the metric's
direction (``"lower"`` or ``"higher"``); a tie counts for neither side and is
left out of the exact two-sided sign test.
"""

from __future__ import annotations

import statistics
from math import comb


def median_iqr(values) -> tuple:
    """(median, interquartile range) of ``values``, quartiles interpolated
    between the order statistics (numpy's default); the IQR of one value is 0."""
    values = list(values)
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties already dropped): the chance under a fair coin of a split at least
    this uneven. 1.0 when there is no untied pair."""
    n = wins + losses
    tail = sum(comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(a, b, better: str) -> dict:
    """Side B against side A over the pairs ``zip(a, b)``:

    * ``a`` and ``b``: each side's (median, IQR);
    * ``change``: B's median against A's, as a fraction of A's (None when A's
      median is 0);
    * ``b_won``, ``a_won``, ``ties``: pairs won by each side, and tied;
    * ``p``: the sign test of ``b_won`` against ``a_won``;
    * ``resolved``: one side won at least nine tenths of all the pairs, ties
      included in the count, and the medians are further apart than A's IQR.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    a, b = list(a), list(b)
    if len(a) != len(b) or not a:
        raise ValueError(f"need the same number of figures per side, got {len(a)} and {len(b)}")
    sign = 1 if better == "higher" else -1
    b_won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    a_won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    (med_a, iqr_a), (med_b, iqr_b) = median_iqr(a), median_iqr(b)
    return {
        "a": (med_a, iqr_a),
        "b": (med_b, iqr_b),
        "change": (med_b - med_a) / med_a if med_a else None,
        "b_won": b_won,
        "a_won": a_won,
        "ties": len(a) - b_won - a_won,
        "p": sign_test(b_won, a_won),
        "resolved": 10 * max(b_won, a_won) >= 9 * len(a) and abs(med_b - med_a) > iqr_a,
    }
