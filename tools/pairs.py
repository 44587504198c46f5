"""Alternating pairs of benchmark invocations on two source checkouts.

    python3 tools/pairs.py CHECKOUT_A CHECKOUT_B [--pairs N] [--seconds S]
                           [--workloads W ...]

For each workload and each seed i in 1..N, it runs
``perfbench/run.py --workload W --seed i --seconds S`` from each checkout in
turn, A first on odd seeds and B first on even ones: pair i is the two
invocations of seed i, back to back. It takes each invocation's result from
the last line of its stdout.

When a workload's pairs are done it prints a markdown table with one row per
end-to-end metric of ``BENCHMARK.json`` (the one beside this tool): each
side's median and IQR, B's median against A's, the pairs each side won (a tie
counts for neither, and the metric's ``better`` sets the direction), an exact
two-sided sign test, and whether the change is resolved (one side won at
least nine tenths of the pairs and the medians are further apart than A's
IQR; see ``pairstats.py``). Two more rows follow in the same columns,
``wall.run_s`` and ``wall.setup_s``: each invocation's raw wall-clock medians
from the details line the benchmark prints before its result. They are no
metrics of ``BENCHMARK.json`` and bound nothing. Being unscaled, they show
whether a difference in the scaled ``run_s`` comes from the calibration, which
the benchmark partly takes in its own process right after its setup code, so
that it reads differently when setup gets lighter.

At the end it reports byte identity: per workload, the seeds whose
checkpoint and label files have the same SHA-256 on both sides (the
``"digests"`` of each details line), then, for every other seed, the files
that differ. Last it lists every invocation that did not finish, reported
``failed > 0`` or was not ``correct``, and exits 1 if there was one.
Progress goes to stderr.

Run the two checkouts from paths of equal length: ``peak_rss_mb`` follows
glibc's heap layout, which the path alone moves (by about 0.4 MB on
``scale-coft``). When the lengths differ, a warning naming both goes to
stderr and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checkout_worker
import pairstats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("perfbench", "run.py")
# the raw wall-clock rows, which bound nothing
RAW_METRICS = [{"name": "wall.run_s", "better": "lower"},
               {"name": "wall.setup_s", "better": "lower"}]


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def raw_wall(details_line: str) -> dict:
    """The raw wall-clock medians of one invocation's details line, as result
    metrics: ``wall.run_s`` over the ``runs[].run_s`` of its runs that passed
    their checks, and ``wall.setup_s`` from ``setup_wall_s.median``. A figure
    the line does not hold, or a line that is not JSON, is left out."""
    try:
        details = json.loads(details_line)
    except ValueError:
        return {}
    out = {}
    runs = [r["run_s"] for r in details.get("runs", []) if r.get("ok") and "run_s" in r]
    if runs:
        out["wall.run_s"] = {"value": statistics.median(runs), "unit": "s"}
    setup = details.get("setup_wall_s", {}).get("median")
    if setup is not None:
        out["wall.setup_s"] = {"value": setup, "unit": "s"}
    return out


def digests(details_line: str):
    """The output digests of one invocation's details line (file under the
    run directory -> SHA-256), or None when the line holds none."""
    try:
        return json.loads(details_line).get("digests")
    except (ValueError, AttributeError):
        return None


def invoke(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation from ``checkout``: its result record, with
    the ``raw_wall`` figures of its details line added to a result that
    reports metrics and the line's ``digests`` under ``"digests"``, or
    ``{"error": ...}`` when it exits nonzero or prints no result."""
    proc = subprocess.run([sys.executable, BENCH, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable result line: {lines[-1][:80]}"}
    if len(lines) > 1:
        if result.get("metrics"):
            result["metrics"].update(raw_wall(lines[-2]))
        result["digests"] = digests(lines[-2])
    return result


def problem(result: dict):
    """Why an invocation's result is not a clean measurement, or None."""
    if "error" in result:
        return result["error"]
    if result.get("failed") or not result.get("correct"):
        return (f"correct={result.get('correct')}, failed {result.get('failed')} "
                f"of {result.get('attempted')}")
    return None


def fmt(x: float) -> str:
    return f"{x:#.4g}"


def table(workload: str, pairs: list, metrics: list) -> list:
    """Markdown rows for ``workload``: ``pairs`` holds one (A result, B
    result) per seed, ``metrics`` the end-to-end entries of BENCHMARK.json. A
    pair counts for a metric when both results report it."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        kept = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"])
                for ra, rb in pairs
                if name in ra.get("metrics", {}) and name in rb.get("metrics", {})]
        if not kept:
            rows.append(f"| {workload} | {name} | no pair reported it |" + " |" * 7)
            continue
        c = pairstats.compare(*zip(*kept), metric["better"])
        change = "n/a" if c["change"] is None else f"{c['change'] * 100:+.1f} %"
        rows.append(f"| {workload} | {name} | {fmt(c['a'][0])} [{fmt(c['a'][1])}] "
                    f"| {fmt(c['b'][0])} [{fmt(c['b'][1])}] | {change} "
                    f"| {c['b_won']}/{len(kept)} | {c['a_won']}/{len(kept)} | {c['ties']} "
                    f"| {c['p']:.3g} | {'yes' if c['resolved'] else 'no'} |")
    return rows


def identity(workload: str, pairs: list) -> list:
    """Byte-identity lines for ``workload``, ``pairs`` holding one (A result,
    B result) per seed from 1 on: the seeds whose digests are equal on both
    sides, then one line per other seed naming the files that differ, or the
    side that reported no digests."""
    same, lines = [], []
    for seed, (ra, rb) in enumerate(pairs, start=1):
        da, db = ra.get("digests"), rb.get("digests")
        if not (da and db):
            lines.append(f"- {workload} seed {seed}: no digests from {'A' if not da else 'B'}")
        elif da == db:
            same.append(seed)
        else:
            differ = sorted(f for f in da.keys() | db.keys() if da.get(f) != db.get(f))
            lines.append(f"- {workload} seed {seed} differs in {', '.join(differ)}")
    seeds = f": seeds {' '.join(map(str, same))}" if same else ""
    return [f"- {workload}: equal on {len(same)} of {len(pairs)} seeds{seeds}"] + lines


HEADER = ["| workload | metric | A median [IQR] | B median [IQR] | B vs A | B better "
          "| A better | ties | sign test p | resolved |",
          "|---|---|---|---|---|---|---|---|---|---|"]


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, help="two source checkouts, A then B")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured seconds per invocation")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = checkout_worker.require_sources(parser, args.checkouts)
    for checkout in checkouts:
        if not os.path.isfile(os.path.join(checkout, BENCH)):
            parser.error(f"no {BENCH} under {checkout}")

    lengths = [len(checkout) for checkout in checkouts]
    if lengths[0] != lengths[1]:
        print(f"warning: the checkout paths are {lengths[0]} and {lengths[1]} characters "
              "long; the path's length alone moves peak_rss_mb through the heap layout, "
              "so its rows compare the paths as well as the code", file=sys.stderr)
    print(f"A = {checkouts[0]}\nB = {checkouts[1]}\n")
    print(f"{args.pairs} pairs per workload, seeds 1-{args.pairs}, {args.seconds:g} s "
          "per invocation, A first on odd seeds\n", flush=True)
    print("\n".join(HEADER), flush=True)
    bad, identical = [], []
    for workload in args.workloads:
        pairs = []
        for seed in range(1, args.pairs + 1):
            results = {}
            for side in ((0, 1) if seed % 2 else (1, 0)):
                result = invoke(checkouts[side], workload, seed, args.seconds)
                why = problem(result)
                print(f"{workload} seed {seed} {'AB'[side]}: {why or 'ok'}", file=sys.stderr,
                      flush=True)
                if why:
                    bad.append(f"{workload} seed {seed} {'AB'[side]}: {why}")
                results[side] = result
            pairs.append((results[0], results[1]))
        print("\n".join(table(workload, pairs, bench["end_to_end"] + RAW_METRICS)),
              flush=True)
        identical += identity(workload, pairs)
    print("\nbyte identity of the checkpoint and label files (SHA-256, A vs B):")
    print("\n".join(identical))
    print(f"\ninvocations with a problem: {len(bad)}")
    for line in bad:
        print(f"- {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
