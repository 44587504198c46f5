"""Outside-in tracing of one `coft run`.

`Tracer.install` replaces every public function of `coft.train`,
`coft.encoders`, `coft.grad`, `coft.pseudo` and `coft.data` with a wrapper
that records a span (name, start, end, parent, tag). It rebinds each function
under every name a coft module holds for it, so `from .encoders import
compose_texts` inside `coft.train` is traced too. A few methods are wrapped by
name (`METHODS`); `PseudoLabelSet.mark` runs once per sample, so it is only
counted. `cli` and `core` get no spans: `cli.main` is the boundary of the run
and `core` kernels fall into their callers' self time. `Tracer.restore` puts
every original back and reports whether it did.

Spans stay in memory; `layer_metrics` turns them into the per-layer metrics
once the run has returned.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = ("train", "encoders", "grad", "pseudo", "data")

# (module, class, method, record a span?)
METHODS = (
    ("pseudo", "PseudoLabelSet", "save", True),
    ("pseudo", "PseudoLabelSet", "subset", True),
    ("pseudo", "PseudoLabelSet", "accuracy", True),
    ("pseudo", "PseudoLabelSet", "mark", False),
    ("data", "MetricsWriter", "write", True),
)

_MARKER = "__perfbench_span__"

# Stages partition a run's time: each span's self time goes to the stage of its
# nearest ancestor (or itself) that a rule in `_stage` names.
STAGES = ("load", "zeroshot", "phase1", "generate", "filter", "student.student1",
          "student.student2", "export", "evaluate")
PHASE1_RUNS = ("r1.model1", "r1.model2", "r2.model1", "r2.model2")
LOSSES = ("loss_positive", "loss_negative", "loss_fft", "loss_contrastive")
ENCODER_FNS = ("compose_texts", "adapt_batch", "encode_batch", "logits_batch")
TIMED = ("train.augment_two_views", "train.momentum_update", "grad.step",
         "grad.save_checkpoint", "pseudo.assign_pseudo_labels", "pseudo.select_top_k",
         "pseudo.PseudoLabelSet.save", "pseudo.PseudoLabelSet.subset",
         "data.load_dataset", "data.MetricsWriter.write")
CALLED = ("grad.step", "data.MetricsWriter.write")
COUNTERS = ("grad.step.elements", "grad.save_checkpoint.bytes",
            "pseudo.PseudoLabelSet.save.bytes", "data.load_dataset.bytes",
            "pseudo.PseudoLabelSet.mark.calls")


def metric_units() -> dict:
    """Every metric `layer_metrics` returns, with its unit."""
    units = {f"train.{s}_s": "s" for s in STAGES}
    units.update({f"train.phase1.{r}_s": "s" for r in PHASE1_RUNS})
    units["train.unattributed_s"] = "s"
    for loss in LOSSES:
        units[f"train.{loss}.self_s"] = "s"
        units[f"train.{loss}.calls"] = "count"
    for fn in ENCODER_FNS:
        for name in (fn, fn + "_backward"):
            units[f"encoders.{name}_s"] = "s"
            units[f"encoders.{name}.calls"] = "count"
    units["encoders.compose_texts.per_phase1_step"] = "calls/step"
    units.update({f"{name}_s": "s" for name in TIMED})
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({name: ("bytes" if name.endswith(".bytes") else "count")
                  for name in COUNTERS})
    return units


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _phase1_tag(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return f"r{a['round_idx']}.{a['model'].model_id}"


def _student_tag(fn, args, kwargs):
    return _bound(fn, args, kwargs)["stream_label"].rsplit("/", 1)[-1]


def _init_student_tag(fn, args, kwargs):
    return _bound(fn, args, kwargs)["name_prefix"].rstrip("/")


def _encoder_tag(fn, args, kwargs):
    # parameter names carry the owner's prefix, e.g. "student1/fft_w1"
    return args[0].w1.name.split("/", 1)[0]


TAGS = {
    "train.train_phase1": _phase1_tag,
    "train.train_phase2_plus": _student_tag,
    "train.train_fft": _student_tag,
    "encoders.init_fft_encoder": _init_student_tag,
    "encoders.logits_batch": _encoder_tag,
}


def _count_step(counters, args, kwargs):
    params = kwargs["params"] if "params" in kwargs else args[1]
    counters["grad.step.elements"] += sum(p.value.size for p in params)


def _count_checkpoint(counters, args, kwargs):
    stem = kwargs["stem"] if "stem" in kwargs else args[0]
    counters["grad.save_checkpoint.bytes"] += (
        os.path.getsize(stem + ".json") + os.path.getsize(stem + ".f64le"))


def _count_label_save(counters, args, kwargs):
    path = kwargs["path"] if "path" in kwargs else args[1]
    counters["pseudo.PseudoLabelSet.save.bytes"] += os.path.getsize(path)


def _count_load(counters, args, kwargs):
    manifest = kwargs["manifest_path"] if "manifest_path" in kwargs else args[0]
    with open(manifest, "r", encoding="utf-8") as f:
        payload = json.load(f)["payload_path"]
    counters["data.load_dataset.bytes"] += (
        os.path.getsize(manifest)
        + os.path.getsize(os.path.join(os.path.dirname(os.path.abspath(manifest)), payload)))


COUNTS = {
    "grad.step": _count_step,
    "grad.save_checkpoint": _count_checkpoint,
    "pseudo.PseudoLabelSet.save": _count_label_save,
    "data.load_dataset": _count_load,
}


class Tracer:
    """Records spans of the wrapped coft functions between install and restore."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.tags: list = []
        self.starts: list = []
        self.ends: list = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    def _span_wrapper(self, name, fn):
        names, parents, tags = self.names, self.parents, self.tags
        starts, ends, stack, counters = self.starts, self.ends, self._stack, self.counters
        tag, count = TAGS.get(name), COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            tags.append(tag(fn, args, kwargs) if tag else None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if count:
                count(counters, args, kwargs)
            return result

        setattr(traced, _MARKER, name)
        return traced

    def _count_wrapper(self, name, fn):
        counters, key = self.counters, name + ".calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARKER, name)
        return counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import coft.cli  # noqa: F401  (loads every coft module whose names get rebound)

        wrappers = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules[f"coft.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._span_wrapper(f"{short}.{attr}", obj))
        for mod in _coft_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])
        for short, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"coft.{short}"], cls_name)
            fn = vars(cls)[meth]
            name = f"{short}.{cls_name}.{meth}"
            self._patch(cls, meth, (self._span_wrapper if span else self._count_wrapper)(name, fn))

    def restore(self) -> bool:
        """Undo every patch; True when no wrapper is left anywhere in coft."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return not any(_leftover_wrappers())


def _coft_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "coft" or n.startswith("coft."))]


def _leftover_wrappers():
    for mod in _coft_modules():
        for value in vars(mod).values():
            if hasattr(value, _MARKER):
                yield value
            if inspect.isclass(value) and value.__module__.startswith("coft"):
                yield from (v for v in vars(value).values() if hasattr(v, _MARKER))


def _stage(name, parent_name, tag):
    """The stage a span starts, or None when it inherits its parent's."""
    if name in ("data.load_dataset", "data.load_ground_truth"):
        return "load"
    if name == "train.iterate_peft":
        return "phase1"
    if parent_name == "train.iterate_peft" and name in (
            "pseudo.class_probabilities", "pseudo.assign_pseudo_labels"):
        return "zeroshot"
    if name == "train.generate_labels":
        return "generate"
    if name == "train.collaborative_filter_both" or (
            name == "pseudo.PseudoLabelSet.subset" and parent_name == "train.run_pipeline"):
        return "filter"
    if name in ("train.train_phase2_plus", "train.train_fft", "encoders.init_fft_encoder") or (
            name == "encoders.logits_batch" and parent_name == "train.run_pipeline"):
        return f"student.{tag}"
    if name in ("pseudo.PseudoLabelSet.save", "train.save_model_checkpoint",
                "train.save_student_checkpoint") or (
            name == "data.MetricsWriter.write" and parent_name == "train.run_pipeline"):
        return "export"
    if name == "pseudo.PseudoLabelSet.accuracy":
        return "evaluate"
    return None


def layer_metrics(tracer: Tracer, run_s: float):
    """(per-layer metrics, per-span-name table) of one traced run of `run_s` seconds.

    Self time is a span's duration minus the durations of its direct
    children. `train.unattributed_s` is the part of `run_s` that no stage
    claims: argument parsing, config writing, provider construction and
    `run_pipeline`'s own statements.
    """
    names, parents, tags = tracer.names, tracer.parents, tracer.tags
    n = len(names)
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    stage = [None] * n
    in_phase1 = [False] * n
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    stage_s = defaultdict(float)
    phase1_runs = defaultdict(float)
    compose_in_phase1 = steps_in_phase1 = 0
    for i in range(n):
        name, p = names[i], parents[i]
        parent_name = names[p] if p >= 0 else None
        stage[i] = _stage(name, parent_name, tags[i]) or (stage[p] if p >= 0 else None)
        in_phase1[i] = name == "train.train_phase1" or (p >= 0 and in_phase1[p])
        self_s = dur[i] - child[i]
        total[name] += dur[i]
        own[name] += self_s
        calls[name] += 1
        if stage[i] is not None:
            stage_s[stage[i]] += self_s
        if name == "train.train_phase1":
            phase1_runs[tags[i]] += dur[i]
        elif in_phase1[i] and name == "encoders.compose_texts":
            compose_in_phase1 += 1
        elif in_phase1[i] and name == "grad.step":
            steps_in_phase1 += 1

    unknown = set(stage_s) - set(STAGES)
    if unknown:
        raise ValueError(f"spans attributed to unknown stages {sorted(unknown)}")
    out = {f"train.{s}_s": stage_s[s] for s in STAGES}
    out.update({f"train.phase1.{r}_s": phase1_runs[r] for r in PHASE1_RUNS})
    out["train.unattributed_s"] = run_s - sum(stage_s.values())
    for loss in LOSSES:
        out[f"train.{loss}.self_s"] = own[f"train.{loss}"]
        out[f"train.{loss}.calls"] = calls[f"train.{loss}"]
    for fn in ENCODER_FNS:
        for name in (fn, fn + "_backward"):
            out[f"encoders.{name}_s"] = total[f"encoders.{name}"]
            out[f"encoders.{name}.calls"] = calls[f"encoders.{name}"]
    out["encoders.compose_texts.per_phase1_step"] = (
        compose_in_phase1 / steps_in_phase1 if steps_in_phase1 else 0.0)
    out.update({f"{name}_s": total[name] for name in TIMED})
    out.update({f"{name}.calls": calls[name] for name in CALLED})
    out.update({name: tracer.counters[name] for name in COUNTERS})
    table = {name: {"calls": calls[name], "total_s": total[name], "self_s": own[name]}
             for name in sorted(calls)}
    return out, table
