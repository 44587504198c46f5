"""The comparison tools under ``tools/``, on made-up figures: no pipeline runs."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import pairs  # noqa: E402
import stepbench  # noqa: E402
from envelope import table  # noqa: E402  (the envelope tool's markdown table)
from pairstats import compare, median_iqr, sign_test  # noqa: E402

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


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024),     # 0.00195
    (9, 1, 22 / 1024),     # 0.0215
    (8, 2, 112 / 1024),    # 0.109
    (1, 9, 22 / 1024),     # two-sided: either side's split counts
    (5, 5, 1.0),
    (0, 0, 1.0),           # no untied pair says nothing
])
def test_sign_test_is_exact_and_two_sided(wins, losses, p):
    assert sign_test(wins, losses) == pytest.approx(p, rel=1e-12)


def test_ties_count_for_neither_side():
    a = [1.0] * 12
    b = [0.5] * 9 + [1.0] * 3  # nine lower, three tied
    c = compare(a, b, "lower")
    assert (c["b_won"], c["a_won"], c["ties"]) == (9, 0, 3)
    assert c["p"] == sign_test(9, 0) == pytest.approx(2 / 512)
    assert not c["resolved"]  # 9 of 12 pairs is short of nine tenths
    assert compare(a[:10], b[:10], "lower")["resolved"]  # 9 of 10


@pytest.mark.parametrize("values", [[1, 2, 3, 4, 5], [1, 2, 3, 4], [4.2, 0.5, 3.3, 9.0, 7.1,
                                                                   2.2, 8.8], [5.0]])
def test_median_and_iqr_match_numpy(values):
    median, iqr = median_iqr(values)
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    assert median == pytest.approx(q2)
    assert iqr == pytest.approx(q3 - q1)


def test_higher_is_better_turns_the_wins_around():
    a = [0.70] * 10
    b = [0.71] * 9 + [0.69]
    up = compare(a, b, "higher")
    assert (up["b_won"], up["a_won"], up["ties"]) == (9, 1, 0)
    assert up["p"] == pytest.approx(22 / 1024)
    assert up["change"] == pytest.approx(0.01 / 0.70)
    assert up["resolved"]  # 9 of 10, and medians 0.01 apart against an IQR of 0
    down = compare(a, b, "lower")
    assert (down["b_won"], down["a_won"]) == (1, 9)


def test_a_win_inside_the_spread_is_not_resolved():
    a = [float(x) for x in range(1, 11)]  # IQR 4.5
    c = compare(a, [x - 0.5 for x in a], "lower")
    assert (c["b_won"], c["p"]) == (10, pytest.approx(2 / 1024))
    assert not c["resolved"]


def test_pairs_table_skips_a_pair_without_the_metric():
    def result(mb):
        return {"correct": True, "failed": 0, "metrics": {"peak_rss_mb": {"value": mb}}}

    runs = [(result(84.5), result(78.8)) for _ in range(9)]
    runs.append((result(84.5), {"error": "exit 1: boom"}))
    [row] = pairs.table("scale-coft", runs, [{"name": "peak_rss_mb", "better": "lower"}])
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[:2] == ["scale-coft", "peak_rss_mb"]
    assert cells[4:] == ["-6.7 %", "9/9", "0/9", "0", "0.00391", "yes"]
    assert pairs.problem(runs[-1][1]) == "exit 1: boom"
    assert pairs.problem({"correct": False, "failed": 1, "attempted": 4}) is not None
    assert pairs.problem(result(1.0)) is None


def test_stepbench_table_prints_calls_and_peaks_beside_the_times():
    key = ("phase1", "scale")
    times = [{key: [2e-3] * 10}, {key: [1e-3] * 10}]
    counts = [{key: (41, 2_050_144)}, {key: (41, 336_320)}]
    header, _, row = stepbench.table(times, counts).splitlines()
    columns = [cell.strip() for cell in header.strip("|").split("|")]
    cells = dict(zip(columns, (cell.strip() for cell in row.strip("|").split("|"))))
    assert (cells["A calls"], cells["B calls"]) == ("41", "41")
    assert (cells["A peak (KiB)"], cells["B peak (KiB)"]) == ("2002.1", "328.4")
    assert (cells["B / A"], cells["rounds B faster"], cells["resolved"]) == ("0.500", "10/10",
                                                                              "yes")


def details_line(run_s, setup_median, ok=None):
    """A made-up details line, as perfbench/run.py prints it before its result."""
    ok = ok or [True] * len(run_s)
    return json.dumps({"workload": "label-heavy", "problems": [],
                       "runs": [{"ok": flag, "run_s": t, "run_ref_s": 2 * t, "trace": False}
                                for t, flag in zip(run_s, ok)],
                       "setup_wall_s": {"reps": 9, "median": setup_median, "min": 0.1,
                                        "max": 0.3}})


def test_raw_wall_reads_the_details_line():
    metrics = pairs.raw_wall(details_line([2.0, 1.0, 5.0, 9.0], 0.17,
                                          ok=[True, True, True, False]))
    assert metrics == {"wall.run_s": {"value": 2.0, "unit": "s"},  # the failed run is out
                       "wall.setup_s": {"value": 0.17, "unit": "s"}}
    only_setup = pairs.raw_wall(details_line([3.0], 0.2, ok=[False]))
    assert list(only_setup) == ["wall.setup_s"]
    for line in ("not json", json.dumps({"runs": []})):
        assert pairs.raw_wall(line) == {}


def test_raw_wall_rows_use_the_paired_columns():
    def result(run_s, setup):
        metrics = {"run_s": {"value": 2 * run_s}}
        metrics.update(pairs.raw_wall(details_line([run_s, run_s + 0.1], setup)))
        return {"correct": True, "failed": 0, "metrics": metrics}

    runs = [(result(2.0, 0.19), result(1.96 - 0.001 * i, 0.16)) for i in range(10)]
    rows = pairs.table("label-heavy", runs, pairs.RAW_METRICS)
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert [c[1] for c in cells] == ["wall.run_s", "wall.setup_s"]
    assert cells[0][5:] == ["10/10", "0/10", "0", "0.00195", "yes"]
    assert cells[1][2:5] == ["0.1900 [0.000]", "0.1600 [0.000]", "-15.8 %"]


@pytest.mark.parametrize("names, warned", [(("a", "b"), False), (("a", "bb"), True)])
def test_pairs_warns_on_checkout_paths_of_unequal_length(tmp_path, monkeypatch, capsys,
                                                         names, warned):
    checkouts = [tmp_path / name for name in names]
    for checkout in checkouts:
        for rel in ("src/coft/__init__.py", pairs.BENCH):
            (checkout / rel).parent.mkdir(parents=True, exist_ok=True)
            (checkout / rel).touch()
    ran = []

    def invoke(checkout, workload, seed, seconds):
        ran.append(checkout)
        return {"correct": True, "failed": 0, "metrics": {"run_s": {"value": 1.0}}}

    monkeypatch.setattr(pairs, "invoke", invoke)
    assert pairs.main([str(c) for c in checkouts]
                      + ["--pairs", "1", "--workloads", "accept-coft"]) == 0
    assert sorted(ran) == sorted(str(c) for c in checkouts)  # it still runs
    err = capsys.readouterr().err
    a, b = (len(str(c)) for c in checkouts)
    assert ("warning" in err) == warned
    assert not warned or f"warning: the checkout paths are {a} and {b} characters long" in err


def test_identity_names_equal_seeds_and_differing_files():
    same = {"checkpoints/phase1_model1.f64le": "aa", "labels/zeroshot.jsonl": "bb"}
    moved = dict(same, **{"labels/zeroshot.jsonl": "cc"})
    extra = dict(same, **{"labels/round2_model1.jsonl": "dd"})

    def result(digests):
        return {"correct": True, "failed": 0, "metrics": {}, "digests": digests}

    runs = [(result(same), result(same)), (result(same), result(moved)),
            (result(same), result(same)), (result(extra), result(same)),
            (result(same), {"error": "exit 1: boom"})]
    assert pairs.identity("accept-coft", runs) == [
        "- accept-coft: equal on 2 of 5 seeds: seeds 1 3",
        "- accept-coft seed 2 differs in labels/zeroshot.jsonl",
        "- accept-coft seed 4 differs in labels/round2_model1.jsonl",
        "- accept-coft seed 5: no digests from B",
    ]


def test_digests_read_from_the_details_line_reach_the_report(monkeypatch, capsys, tmp_path):
    line = json.dumps({"workload": "accept-coft", "digests": {"labels/zeroshot.jsonl": "ab"}})
    assert pairs.digests(line) == {"labels/zeroshot.jsonl": "ab"}
    assert pairs.digests("not json") is None and pairs.digests("[1]") is None
    assert pairs.digests(details_line([1.0], 0.1)) is None

    checkouts = [tmp_path / name for name in ("a", "b")]
    for checkout in checkouts:
        for rel in ("src/coft/__init__.py", pairs.BENCH):
            (checkout / rel).parent.mkdir(parents=True, exist_ok=True)
            (checkout / rel).touch()

    def invoke(checkout, workload, seed, seconds):
        return {"correct": True, "failed": 0, "metrics": {"run_s": {"value": 1.0}},
                "digests": pairs.digests(line)}

    monkeypatch.setattr(pairs, "invoke", invoke)
    assert pairs.main([str(c) for c in checkouts]
                      + ["--pairs", "2", "--workloads", "accept-coft"]) == 0
    assert "- accept-coft: equal on 2 of 2 seeds: seeds 1 2\n" in capsys.readouterr().out
