"""Benchmark of `coft run`, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the program is imported from
`src/`). One invocation:

1. generates the workload's synthetic dataset from the seed, in rounds of
   repetitions: one before the first run and one before each later run;
2. runs `coft run` on it, one run at a time in a fresh worker process each
   (a closed loop with one client), until S seconds have passed;
3. checks every run: exit code 0, SHA-256 of every checkpoint and label file
   equal to the first run's, the same number of metrics records, and an
   ensemble accuracy recomputed from the student checkpoints and the truth
   sidecar equal to the run's own `final` record. A run that fails any of
   these counts in `failed`;
4. with `--trace 1`, adds two traced runs that must reproduce the same output
   digests and identical counts, and reports the per-layer metrics of the
   faster one instead of the end-to-end metrics; `trace.run_s` is the median
   of the traced runs and `trace.overhead_s` that minus the untraced median.

Times at the reference speed: `run_s` and `setup_s` are medians of wall
times scaled by `calibration.REFERENCE_S / calibration time`, where the
calibration kernel is timed in the worker just before each run and in the
parent just after the worker has exited (see calibration.py for why). They
read as seconds on this machine when nothing else loads it. The raw
wall-clock medians and the calibration time are reported, ungated, under
`wall.*` with `--trace 1`, and every raw value is kept in the result record.
`peak_rss_mb` is the worker's own peak resident memory, so the benchmark's
memory does not show in it.

BLAS runs single-threaded (below `nproc` on any machine), set before numpy
loads here and inherited by the workers. Ground truth is read only after a
run has returned. Scratch files live under `.perfbench_work/` in the
checkout; the dataset and run directories are removed at exit, and the full
record of each invocation (environment, inputs, every run) stays in
`.perfbench_work/results/`. The last line of stdout is the result:
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ensemble_acc": "fraction",
    "clean_precision": "fraction",
}
QUALITY_LAYERS = ("pseudo.topk_precision", "train.phase1.gen_acc", "train.filter.keep_ratio",
                  "train.filter.clean_recall", "train.student.student1_acc",
                  "train.student.student2_acc")
TRACE_LAYERS = ("trace.run_s", "trace.overhead_s", "wall.run_s", "wall.setup_s",
                "wall.calibration_s")

SETUP_FIRST_REPS = 5  # repetitions in the first setup round; later rounds need one
SETUP_ROUND_S = 0.3  # each setup round repeats until this much time has passed
SETUP_MAX_REPS = 200  # per round
TRACED_REPS = 2
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def per_layer_units() -> dict:
    units = tracer.metric_units()
    units.update({name: "fraction" for name in QUALITY_LAYERS})
    units.update({name: "s" for name in TRACE_LAYERS})
    return units


def is_count(name) -> bool:
    """Per-layer metrics that must repeat exactly across runs of one seed."""
    return name.endswith((".calls", ".elements", ".bytes", ".per_phase1_step"))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit(root):
    """HEAD of the checkout's own repository, or None outside git."""
    git_dir = os.path.join(root, ".git")
    if not os.path.exists(git_dir):
        return None  # without a --git-dir, git would search above the checkout
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src) -> str:
    """SHA-256 over the program's Python sources, so results identify the code
    even where there is no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ[var] for var in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
    }


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

def setup(workload, seed, data_dir, min_reps):
    """One setup round: generate and write the dataset until `min_reps`
    repetitions and SETUP_ROUND_S seconds are both reached; returns (manifest
    path, per-repetition seconds, the set of payload checksums written)."""
    from coft.data import SyntheticSpec, generate_synthetic, save_dataset

    spec = SyntheticSpec(classes=workload.classes, per_class=workload.per_class,
                         dim=workload.dim, separation=workload.separation,
                         noise_sigma=workload.noise_sigma,
                         anchor_alignment=workload.anchor_alignment, seed=seed)
    times, checksums = [], set()
    while len(times) < SETUP_MAX_REPS and (len(times) < min_reps
                                           or sum(times) < SETUP_ROUND_S):
        shutil.rmtree(data_dir, ignore_errors=True)
        t0 = perf_counter()
        ds, truth = generate_synthetic(spec)
        manifest = save_dataset(ds, data_dir, truth=truth, name="bench")
        times.append(perf_counter() - t0)
        with open(manifest, "r", encoding="utf-8") as f:
            checksums.add(json.load(f)["checksum"])
    return manifest, times, checksums


class Invocation:
    """The runs of one workload and seed, and the checks between them."""

    def __init__(self, workload, seed, work_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.manifest = None
        self.truth = None
        self.reference = None  # first successful untraced run

    def run(self, trace: bool) -> dict:
        """One `coft run` in a worker process, checked; returns its record."""
        out_dir = os.path.join(self.work_dir, "run")
        result_path = os.path.join(self.work_dir, "worker.json")
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)
        argv = ["run", "--dataset", self.manifest, "--seed", str(self.seed),
                "--out", out_dir, *self.workload.run_args]
        rec = {"trace": trace, "ok": False}
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, result_path, "1" if trace else "0", "--", *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            rec["reason"] = "worker timed out"
            return rec
        if proc.returncode != 0 or not os.path.exists(result_path):
            rec["reason"] = f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return rec
        calibration_after = calibration.measure()
        try:
            with open(result_path, "r", encoding="utf-8") as f:
                rec.update(json.load(f))
            rec["calibration_s"] = [rec["calibration_s"], calibration_after]
            rec["run_ref_s"] = (rec["run_s"] * calibration.REFERENCE_S
                                / statistics.mean(rec["calibration_s"]))
            rec["reason"] = self._check(rec, out_dir)
        except (OSError, ValueError, KeyError) as e:  # missing or malformed outputs
            rec["reason"] = f"output check failed: {e!r}"
        rec["ok"] = rec["reason"] is None
        return rec

    def _check(self, rec, out_dir):
        """Why the run's outputs are wrong, or None."""
        if rec["exit_code"] != 0:
            return f"coft run exited {rec['exit_code']}"
        if not rec["restored"]:
            return "a traced function was not restored"
        rec["digests"] = check.output_digests(out_dir)
        records = check.metrics_records(out_dir)
        rec["metrics_records"] = len(records)
        final = [r for r in records if r.get("event") == "final"]
        if self.truth is None:
            self.truth = check.read_truth(self.manifest)
        rec["quality"] = check.quality(out_dir, self.manifest, self.truth,
                                       labels=self.reference is None)
        if len(final) != 1 or final[0]["ensemble_accuracy"] != rec["quality"]["ensemble_acc"]:
            return "recomputed ensemble accuracy differs from the run's final record"
        if "layers" in rec and rec["layers"]["data.MetricsWriter.write.calls"] != len(records):
            return "traced MetricsWriter.write calls differ from the records written"
        if self.reference is None:
            self.reference = rec
            return None
        if rec["digests"] != self.reference["digests"]:
            return "output digests differ from the first run"
        if rec["metrics_records"] != self.reference["metrics_records"]:
            return "number of metrics records differs from the first run"
        return None


def run_benchmark(workload, seed, seconds, trace, work_dir):
    """Set up, measure and check one workload; returns (result, details)."""
    t_begin = perf_counter()
    inv = Invocation(workload, seed, work_dir, t_begin + DEADLINE_S)
    data_dir = os.path.join(work_dir, "data")
    inv.manifest, first_round, checksums = setup(workload, seed, data_dir, SETUP_FIRST_REPS)
    setup_rounds = [first_round]  # round k ran just before untraced run k

    runs = []
    t0 = perf_counter()
    while not runs or perf_counter() - t0 < seconds:
        if runs:
            _, times, sums = setup(workload, seed, data_dir, 1)
            setup_rounds.append(times)
            checksums |= sums
        runs.append(inv.run(trace=False))
        if not runs[0]["ok"]:
            break  # no reference to check later runs against
    problems = [] if len(checksums) == 1 else ["dataset generation is not deterministic"]
    traced = []
    if trace and inv.reference is not None:
        traced = [inv.run(trace=True) for _ in range(TRACED_REPS)]
    good = [r for r in runs if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    counts = [{k: v for k, v in r["layers"].items() if is_count(k)} for r in good_traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced runs")
    # each setup round is scaled by the calibration taken right after it, at
    # the start of the next run
    setup_wall = [t for times in setup_rounds for t in times]
    setup_ref = [t * calibration.REFERENCE_S / r["calibration_s"][0]
                 for times, r in zip(setup_rounds, runs) if "calibration_s" in r
                 for t in times]

    spans = None
    if not trace and good and setup_ref:
        q = inv.reference["quality"]
        values = {
            "run_s": statistics.median(r["run_ref_s"] for r in good),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "ensemble_acc": q["ensemble_acc"],
            "clean_precision": q["clean_precision"],
        }
        units = END_TO_END
    elif trace and good and good_traced:
        fastest = min(good_traced, key=lambda r: r["run_ref_s"])
        values = dict(fastest["layers"])
        values.update({k: inv.reference["quality"][k] for k in QUALITY_LAYERS})
        values["trace.run_s"] = statistics.median(r["run_ref_s"] for r in good_traced)
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - statistics.median(r["run_ref_s"] for r in good))
        values["wall.run_s"] = statistics.median(r["run_s"] for r in good)
        values["wall.setup_s"] = statistics.median(setup_wall)
        values["wall.calibration_s"] = statistics.median(
            c for r in good for c in r["calibration_s"])
        units = per_layer_units()
        spans = fastest["spans"]
    else:
        values, units = {}, {}

    attempted = runs + traced
    failed = sum(not r["ok"] for r in attempted)
    result = {
        "correct": failed == 0 and not problems and bool(values),
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": workload.inputs(),
        "setup_wall_s": {"reps": len(setup_wall), "median": statistics.median(setup_wall),
                         "min": min(setup_wall), "max": max(setup_wall)},
        "problems": problems,
        "runs": [_summary(r) for r in attempted],
        "digests": inv.reference["digests"] if inv.reference else None,
        "quality": inv.reference["quality"] if inv.reference else None,
        "spans": spans,
        "elapsed_s": perf_counter() - t_begin,
    }
    return result, details


def _summary(rec) -> dict:
    keys = ("trace", "ok", "reason", "exit_code", "run_s", "run_ref_s", "calibration_s",
            "peak_rss_mb", "metrics_records")
    return {k: rec[k] for k in keys if k in rec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coft", "__init__.py")):
        print(f"error: no coft sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(scratch, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        result, details = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                        bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    results_dir = os.path.join(scratch, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump({**details, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in details.items() if k != "spans"}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
