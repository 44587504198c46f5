"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

A reduced-size smoke run of each workload shape checks that every metric
BENCHMARK.json names is produced with its unit; the other tests check the
tracer's bookkeeping and that ground truth stays out of the program's inputs.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import tracer
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)

SMALL = {  # per_class for the reduced-size shapes; classes and dim stay
    "accept-coft": 20,
    "accept-plus": 20,
    "scale-coft": 4,
    "label-heavy": 60,
}
SHORT_EPOCHS = ("--phase1-epochs", "2", "--phase2-epochs", "1")


def small(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, per_class=SMALL[name], run_args=w.run_args + SHORT_EPOCHS)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_what_the_code_measures():
    b = benchmark_json()
    assert {w["name"]: w["why"] for w in b["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.per_layer_units()


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_ROUND_S", 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, tmp_path, quick_setup):
    for trace, units in ((False, run.END_TO_END), (True, run.per_layer_units())):
        work = tmp_path / f"t{int(trace)}"
        work.mkdir()
        result, details = run.run_benchmark(small(name), seed=3, seconds=0, trace=trace,
                                            work_dir=str(work))
        assert result["correct"], details["runs"]
        assert result["failed"] == 0
        assert result["attempted"] == (1 + run.TRACED_REPS if trace else 1)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert details["environment"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["encoders.compose_texts.per_phase1_step"] > 0
    assert metrics["grad.step.elements"] > 0
    assert metrics["pseudo.PseudoLabelSet.mark.calls"] == 2 * WORKLOADS[name].classes * SMALL[name]


def test_truth_is_read_only_after_the_run_returns(tmp_path, quick_setup, monkeypatch):
    events = []
    real_run, real_truth = run.subprocess.run, check.read_truth

    def logged_run(cmd, **kwargs):
        assert not any(str(a).endswith(".truth") for a in cmd)
        events.append("worker start")
        try:
            return real_run(cmd, **kwargs)
        finally:
            events.append("worker end")

    def logged_truth(path):
        events.append("truth")
        return real_truth(path)

    monkeypatch.setattr(run.subprocess, "run", logged_run)
    monkeypatch.setattr(check, "read_truth", logged_truth)
    result, _ = run.run_benchmark(small("accept-coft"), seed=1, seconds=0, trace=True,
                                  work_dir=str(tmp_path))
    assert result["correct"]
    assert events[:3] == ["worker start", "worker end", "truth"]
    assert events.count("truth") == 1


def _run_worker(manifest, out, tmp_path):
    """One untraced worker run of the small accept-plus shape; returns its result."""
    result_path = tmp_path / "worker.json"
    argv = ["run", "--dataset", manifest, "--seed", "2", "--out", str(out), *small(
        "accept-plus").run_args]
    subprocess.run([sys.executable, run.WORKER, str(result_path), "0", "--", *argv],
                   check=True, timeout=120)
    with open(result_path, "r", encoding="utf-8") as f:
        result = json.load(f)
    assert result["exit_code"] == 0
    return result


def test_program_outputs_do_not_depend_on_ground_truth(tmp_path):
    manifest, _, _ = run.setup(small("accept-plus"), 2, str(tmp_path / "data"), 1)
    _run_worker(manifest, tmp_path / "with", tmp_path)
    with_truth = check.output_digests(str(tmp_path / "with"))
    _, payload = check._payload_path(manifest)
    os.remove(payload + ".truth")
    _run_worker(manifest, tmp_path / "without", tmp_path)
    without_truth = check.output_digests(str(tmp_path / "without"))
    assert with_truth == without_truth


def test_peak_rss_is_the_workers_own(tmp_path):
    manifest, _, _ = run.setup(small("accept-plus"), 2, str(tmp_path / "data"), 1)
    ballast_mb = 160
    ballast = np.ones(ballast_mb * 2**20 // 8)  # resident in this, the parent, process
    result = _run_worker(manifest, tmp_path / "out", tmp_path)
    assert ballast.sum() > 0
    assert 0 < result["peak_rss_mb"] < ballast_mb


def _coft_bindings():
    import coft.cli  # noqa: F401

    out = {}
    for mod in tracer._coft_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("coft"):
                for a, v in vars(value).items():
                    out[(mod.__name__, attr, a)] = v
    return out


def test_tracer_wraps_imported_names_and_restores_everything():
    import coft.encoders
    import coft.train

    before = _coft_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert coft.train.compose_texts is coft.encoders.compose_texts
        assert hasattr(coft.train.compose_texts, "__perfbench_span__")
        assert hasattr(coft.train.PseudoLabelSet.mark, "__perfbench_span__")
    finally:
        assert t.restore()
    after = _coft_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_partition_run_time_into_stages():
    t = tracer.Tracer()
    spans = [  # name, start, end, parent, tag
        ("train.run_pipeline", 0.0, 10.0, -1, None),
        ("data.load_dataset", 0.0, 1.0, 0, None),
        ("train.iterate_peft", 1.0, 5.0, 0, None),
        ("pseudo.class_probabilities", 1.0, 1.5, 2, None),
        ("train.train_phase1", 2.0, 4.0, 2, "r1.model1"),
        ("encoders.compose_texts", 2.0, 2.5, 4, None),
        ("grad.step", 3.0, 3.5, 4, None),
        ("train.collaborative_filter_both", 5.0, 7.0, 0, None),
        ("train.generate_labels", 5.0, 6.0, 7, None),
        ("train.train_phase2_plus", 7.0, 9.0, 0, "student2"),
        ("pseudo.PseudoLabelSet.save", 9.0, 9.5, 0, None),
    ]
    for name, start, end, parent, tag in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.tags.append(tag)
    m, table = tracer.layer_metrics(t, run_s=10.5)
    assert m["train.load_s"] == 1.0
    assert m["train.zeroshot_s"] == 0.5
    assert m["train.phase1_s"] == 3.5
    assert m["train.phase1.r1.model1_s"] == 2.0
    assert m["train.generate_s"] == 1.0
    assert m["train.filter_s"] == 1.0
    assert m["train.student.student2_s"] == 2.0
    assert m["train.export_s"] == 0.5
    assert m["train.unattributed_s"] == pytest.approx(1.0)  # 0.5 in run_pipeline + 0.5 outside
    assert m["encoders.compose_texts.per_phase1_step"] == 1.0
    assert table["train.train_phase1"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert set(m) == set(tracer.metric_units())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accept-coft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
