"""Accuracy envelope of two source checkouts on the acceptance dataset.

    python3 tools/envelope.py CHECKOUT_A CHECKOUT_B [--seeds FIRST-LAST]

For each seed (default 1-15) it builds acceptance criterion 4's dataset
(`ACCEPTANCE_SPEC` in tests/test_acceptance.py of the checkout this script
sits in) and runs the pipeline on it in both modes with `TrainConfig()`
defaults, as the criterion does. Each checkout runs in its own worker
process, importing `coft` from that checkout's `src/`, with BLAS at 1
thread; the two workers run side by side.

It prints a markdown table with, per seed and for both checkouts next to each
other, the zero-shot accuracy (%), the `coft` gain over zero-shot and
`coft-plus` minus `coft` (points), then the medians over criterion 4's seeds
(1-5) and over all seeds (one row when these are the same seeds), and how
many of the per-seed figures agree to 0.1 point. A change that is not
bit-identical reports this table to show that accuracy stays inside its
envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import checkout_worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIGURES = (("zero-shot %", "zero_shot_pct"), ("coft gain", "coft_gain"),
           ("plus - coft", "plus_delta"))


def run_seed(spec: dict, seed: int, root: str) -> dict:
    """Criterion 4's two runs on one seed; accuracies as fractions."""
    from coft.data import SyntheticSpec, generate_synthetic, save_dataset
    from coft.train import TrainConfig, run_pipeline

    ds, truth = generate_synthetic(SyntheticSpec(seed=seed, **spec))
    data_dir = os.path.join(root, f"seed{seed}")
    manifest = save_dataset(ds, data_dir, truth=truth)
    coft = run_pipeline(manifest, TrainConfig(), "coft", seed, os.path.join(data_dir, "coft"))
    plus = run_pipeline(manifest, TrainConfig(), "coft-plus", seed,
                        os.path.join(data_dir, "plus"))
    return {"seed": seed, "zero_shot": coft["zero_shot_accuracy"],
            "coft": coft["ensemble_accuracy"], "plus": plus["ensemble_accuracy"]}


def worker(checkout: str, spec: dict, seeds: list) -> None:
    """One JSON line per seed on stdout; a progress line per seed on stderr."""
    checkout_worker.check_import(checkout)
    with tempfile.TemporaryDirectory(prefix="coft-envelope-") as root:
        for seed in seeds:
            print(json.dumps(run_seed(spec, seed, root)), flush=True)
            print(f"envelope: {checkout} seed {seed} done", file=sys.stderr, flush=True)


def start_worker(checkout: str, spec: dict, seeds: list) -> subprocess.Popen:
    return checkout_worker.start(__file__, checkout, "--spec", json.dumps(spec),
                                 "--seeds", f"{seeds[0]}-{seeds[-1]}",
                                 stdout=subprocess.PIPE)


def figures(record: dict) -> dict:
    return {"zero_shot_pct": 100.0 * record["zero_shot"],
            "coft_gain": 100.0 * (record["coft"] - record["zero_shot"]),
            "plus_delta": 100.0 * (record["plus"] - record["coft"])}


def table(sides: list, seeds: list, criterion_seeds: tuple) -> str:
    """``sides`` holds one {seed: figures} dict per checkout."""
    head = ["seed"] + [f"{title} {side}" for title, _ in FIGURES for side in "AB"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]

    def row(label, values):
        lines.append("| " + " | ".join([label] + [f"{v:+.1f}" if key != "zero_shot_pct"
                                                  else f"{v:.1f}" for key, v in values]) + " |")

    for seed in seeds:
        row(str(seed), [(key, side[seed][key]) for _, key in FIGURES for side in sides])
    # criterion 4's seeds present, then all seeds: one row when they are the same
    for group in dict.fromkeys((tuple(s for s in seeds if s in criterion_seeds), tuple(seeds))):
        if group:
            row(f"median {group[0]}-{group[-1]}",
                [(key, statistics.median(side[s][key] for s in group))
                 for _, key in FIGURES for side in sides])
    same = sum(round(sides[0][s][key], 1) == round(sides[1][s][key], 1)
               for s in seeds for _, key in FIGURES)
    lines.append("")
    lines.append(f"per-seed figures equal to 0.1 point: {same} of {len(seeds) * len(FIGURES)}")
    return "\n".join(lines)


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", help="two source checkouts, A then B")
    parser.add_argument("--seeds", default="1-15", help="FIRST-LAST, or one seed")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spec", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.worker:
        worker(args.worker, json.loads(args.spec), seeds)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give exactly two checkouts")

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_acceptance import ACCEPTANCE_SPEC, SEEDS

    checkouts = checkout_worker.require_sources(parser, args.checkouts)
    procs = [start_worker(c, ACCEPTANCE_SPEC, seeds) for c in checkouts]
    outs = [proc.communicate()[0] for proc in procs]
    for checkout, proc in zip(checkouts, procs):
        if proc.returncode != 0:
            print(f"envelope: worker for {checkout} exited {proc.returncode}", file=sys.stderr)
            return 1
    sides = [{r["seed"]: figures(r) for r in map(json.loads, out.splitlines())}
             for out in outs]
    print(f"A = {checkouts[0]}\nB = {checkouts[1]}\n")
    print(table(sides, seeds, SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
