"""Per-step timings of two source checkouts, layer by layer.

    python3 tools/stepbench.py CHECKOUT_A CHECKOUT_B [--rounds N] [--reps N]

It times four training steps at two shapes, batch 32:

* ``phase1``: ``loss_phase1`` then an optimizer ``step`` of one prompt+adapter
  model, writing into one ``TextScratch`` as ``train_phase1`` does (a
  checkout from before the scratch allocates its tables per step, as its
  ``train_phase1`` does);
* ``student``: ``loss_fft`` then ``step`` of one student;
* ``coft-plus``: a coft-plus student step: ``loss_fft``, ``augment_two_views``,
  ``loss_contrastive``, ``step`` and ``momentum_update``;
* ``adam``: ``step`` alone, over a student's tensors;

at ``accept`` (10 classes x 64-d, the acceptance set) and ``scale``
(100 classes x 256-d). Each checkout runs in its own worker process,
importing `coft` from that checkout's `src/`, with BLAS at 1 thread. Both
workers build the same fixtures from the same seeds and warm every step
first (the optimizers bind, the adapter leaves its identity start). Then, in
each round and for each step and shape, the two workers take turns, one at a
time, each running ``WARM`` untimed steps and then timing ``reps``
consecutive ones; the side that goes first alternates from round to round.

It prints a markdown table: per step and shape, each side's Python-level
calls per step (counted once, warm, with ``sys.setprofile``), its peak of
traced allocations in one warm step (KiB, ``tracemalloc``), the median and
IQR over rounds of each side's time per step (microseconds), the ratio
B / A, the rounds each side was faster in, an exact two-sided sign test over
the rounds and whether the change is resolved (``pairstats.compare``: one
side faster in at least nine tenths of the rounds, and the medians further
apart than A's IQR). The call counts and peaks are deterministic, so they
show a change to a step's code path or its temporaries that the times are
too noisy to resolve.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tracemalloc
from time import perf_counter

import checkout_worker
import pairstats

SHAPES = {"accept": (10, 64), "scale": (100, 256)}
STEPS = ("phase1", "student", "coft-plus", "adam")
BATCH = 32
SAMPLES = 512
WARM = 5  # untimed steps per turn, after the other worker's turn has run


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


def traced_peak(fn) -> int:
    """Peak bytes of the allocations ``fn()`` makes, held at once, as
    ``tracemalloc`` traces them (numpy reports its array data to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_steps(classes: int, dim: int) -> dict:
    """One zero-argument function per entry of ``STEPS``, at this shape, each
    already run 10 times. `tests/test_step_calls.py` counts the calls of the
    same steps and bounds the phase-1 step's traced peak."""
    import numpy as np

    from coft.core import SeededRng, normalize_rows
    from coft.encoders import FrozenProvider, init_fft_encoder
    from coft.grad import Adam, step
    from coft.train import (MomentumState, TrainConfig, augment_two_views,
                            draw_complements, init_adapted_model, loss_contrastive,
                            loss_fft, loss_phase1, momentum_update)

    rng = np.random.default_rng(0)
    provider = FrozenProvider(normalize_rows(rng.normal(size=(SAMPLES, dim))),
                              normalize_rows(rng.normal(size=(classes, dim))))
    cfg = TrainConfig()
    emb = provider.image_embeddings[:BATCH]
    labels = rng.integers(0, classes, size=BATCH)
    comps = draw_complements(labels, classes, SeededRng(1))

    def student():
        enc = init_fft_encoder(dim, classes, cfg.hidden_mult * dim, SeededRng(2))
        return enc, enc.params(), Adam(cfg.lr_fft)

    model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
    model_params, model_opt = model.params(), Adam(cfg.lr_peft)
    try:
        from coft.encoders import TextScratch
        scratch = (TextScratch(provider, BATCH),)
    except ImportError:  # a checkout whose steps allocate their own tables
        scratch = ()

    def phase1():
        loss_phase1(model, emb, labels, comps, cfg.lam, *scratch)
        step(model_opt, model_params)

    enc, enc_params, enc_opt = student()

    def student_step():
        loss_fft(enc, emb, labels)
        step(enc_opt, enc_params)

    plus, plus_params, plus_opt = student()
    state = MomentumState(plus, cfg.mu, cfg.tau_prime, cfg.queue_capacity)
    aug_rng = SeededRng(4)

    def plus_step():
        loss_fft(plus, emb, labels)
        views_q, views_k = augment_two_views(emb, aug_rng, cfg.aug_noise, cfg.aug_dropout)
        loss_contrastive(plus, state, views_q, views_k, weight=cfg.gamma)
        step(plus_opt, plus_params)
        momentum_update(state, plus)

    _, adam_params, adam_opt = student()

    def adam():
        step(adam_opt, adam_params)

    fns = dict(zip(STEPS, (phase1, student_step, plus_step, adam)))
    for fn in fns.values():
        for _ in range(10):  # the queue fills past a batch, the optimizers bind
            fn()
    return fns


def worker(checkout: str) -> None:
    """Build every step and print one line, the calls and traced peak bytes
    per step as [[step, shape, calls, peak], ...]; then answer each request
    line {"step",
    "shape", "reps"} with the seconds per step of ``reps`` consecutive calls,
    made after ``WARM`` untimed ones."""
    checkout_worker.check_import(checkout)
    fns = {shape: build_steps(*dims) for shape, dims in SHAPES.items()}
    print(json.dumps([[step, shape, len(python_calls(fn)), traced_peak(fn)]
                      for shape, steps in fns.items() for step, fn in steps.items()]),
          flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        fn, reps = fns[req["shape"]][req["step"]], req["reps"]
        for _ in range(WARM):
            fn()
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        print(json.dumps((perf_counter() - t0) / reps), flush=True)


def start_worker(checkout: str):
    """The worker process and its {(step, shape): (calls, peak bytes) per step}."""
    proc = checkout_worker.start(__file__, checkout, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE)
    try:
        counts = {(step, shape): (n, peak)
                  for step, shape, n, peak in json.loads(proc.stdout.readline())}
    except ValueError:
        raise SystemExit(f"stepbench: worker for {checkout} failed to start") from None
    return proc, counts


def timed(proc: subprocess.Popen, step: str, shape: str, reps: int) -> float:
    proc.stdin.write(json.dumps({"step": step, "shape": shape, "reps": reps}) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def table(times: list, counts: list) -> str:
    """``times`` holds one {(step, shape): [seconds per step, one per round]}
    dict per checkout, ``counts`` one {(step, shape): (calls, traced peak
    bytes) per step}. Round i of A and of B are one pair
    (``pairstats.compare``)."""
    lines = ["| step | shape | A calls | B calls | A peak (KiB) | B peak (KiB) "
             "| A median [IQR] (us) | B median [IQR] (us) "
             "| B / A | rounds B faster | rounds A faster | sign test p | resolved |",
             "|---|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for key in times[0]:
        c = pairstats.compare(times[0][key], times[1][key], "lower")
        rounds = len(times[0][key])
        (a, a_iqr), (b, b_iqr) = c["a"], c["b"]
        (a_calls, a_peak), (b_calls, b_peak) = counts[0][key], counts[1][key]
        lines.append(f"| {key[0]} | {key[1]} | {a_calls} | {b_calls} "
                     f"| {a_peak / 1024:.1f} | {b_peak / 1024:.1f} "
                     f"| {a * 1e6:.1f} [{a_iqr * 1e6:.1f}] | {b * 1e6:.1f} [{b_iqr * 1e6:.1f}] "
                     f"| {b / a:.3f} | {c['b_won']}/{rounds} | {c['a_won']}/{rounds} "
                     f"| {c['p']:.3g} | {'yes' if c['resolved'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", help="two source checkouts, A then B")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--reps", type=int, default=100, help="steps timed per turn")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give exactly two checkouts")
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    checkouts = checkout_worker.require_sources(parser, args.checkouts)
    procs, counts = zip(*(start_worker(c) for c in checkouts))
    keys = [(step, shape) for shape in SHAPES for step in STEPS]
    times = [{key: [] for key in keys} for _ in procs]
    try:
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for key in keys:
                for side in order:
                    times[side][key].append(timed(procs[side], *key, args.reps))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    print(f"A = {checkouts[0]}\nB = {checkouts[1]}\n")
    print(f"{args.rounds} rounds of {args.reps} steps per side, batch {BATCH}\n")
    print(table(times, counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
