"""Command-line front end.

Subcommands:
  synth        generate a synthetic benchmark dataset
  run          execute the full pipeline (mode coft or coft-plus)
  eval         score a finished run against ground truth
  check-grads  verify every loss gradient against finite differences

Exit codes: 0 success, 2 configuration or input-file error, 3 training or
gradient-verification failure, 4 empty filtered clean set.

Configuration files are flat UTF-8 ``key = value`` lines with dotted keys
(``train.gamma = 0.5``); ``#`` starts a comment anywhere on a line, and a key
may appear once per file. Command-line flags override
file values, and the resolved configuration is written into the output
directory before anything trains. ``COFT_SEED`` provides the seed when
neither flag nor file does.
"""

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from .core import atomic_write, read_manifest
from .data import (
    SyntheticSpec,
    generate_synthetic,
    ingest_templates,
    load_dataset,
    load_ground_truth,
    save_dataset,
)
from .errors import (
    CoftError,
    ConfigError,
    ContractError,
    FormatError,
    IntegrityError,
    PipelineError,
    TrainingError,
)
from .pseudo import PseudoLabelSet, assign_pseudo_labels
from .train import (
    TrainConfig,
    ensemble_predictions,
    generate_labels,
    gradient_check_suite,
    load_model_checkpoint,
    load_student_checkpoint,
    run_pipeline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_EMPTY_CLEAN = 4

RESOLVED_CONFIG_NAME = "config.resolved.cfg"


@dataclasses.dataclass
class RunConfig:
    """Everything a run reads, with working defaults for every field."""

    mode: str = "coft"
    seed: int = 0
    dataset: str = ""
    templates: str = ""
    out: str = "coft-run"
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    synth: SyntheticSpec = dataclasses.field(
        default_factory=lambda: SyntheticSpec(classes=10, per_class=100, dim=64)
    )


_TOP_FIELDS = {"mode": str, "seed": int, "dataset": str, "templates": str, "out": str}


def _coerce(key: str, raw: str, typ):
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {typ.__name__} from {raw!r}") from None


def parse_config_file(path) -> dict:
    """Flat dotted-key config text -> {key: raw string}. FormatError naming
    the file for text that is not UTF-8, and naming the line too for a line
    without ``=`` or a repeated key."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FormatError(f"{path}: expected 'key = value' (line {lineno})", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise FormatError(f"{path}: key {key!r} repeated (line {lineno})", line=lineno)
        values[key] = raw.strip()
    return values


def apply_config_values(rc: RunConfig, values: dict) -> RunConfig:
    # resolve annotations to actual classes (they are stored as strings)
    train_fields = typing.get_type_hints(TrainConfig)
    synth_fields = typing.get_type_hints(SyntheticSpec)
    for key, raw in values.items():
        if key in _TOP_FIELDS:
            setattr(rc, key, _coerce(key, raw, _TOP_FIELDS[key]))
        elif key.startswith("train."):
            name = key[len("train."):]
            if name not in train_fields:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(rc.train, name, _coerce(key, raw, train_fields[name]))
        elif key.startswith("synth."):
            name = key[len("synth."):]
            if name not in synth_fields:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(rc.synth, name, _coerce(key, raw, synth_fields[name]))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return rc


def resolved_config_text(rc: RunConfig) -> str:
    """One ``key = value`` line per field; ConfigError for a value holding
    ``#``, which would read back as the start of a comment."""
    lines = [f"{k} = {getattr(rc, k)}" for k in ("mode", "seed", "dataset",
                                                 "templates", "out")]
    for section, obj in (("train", rc.train), ("synth", rc.synth)):
        for f in sorted(dataclasses.fields(obj), key=lambda f: f.name):
            lines.append(f"{section}.{f.name} = {getattr(obj, f.name)}")
    for line in lines:
        if "#" in line:
            raise ConfigError(f"a config value cannot hold '#': {line!r}")
    return "\n".join(lines) + "\n"


def _check_mode(mode: str) -> None:
    if mode not in ("coft", "coft-plus"):
        raise ConfigError(f"mode must be coft or coft-plus, got {mode!r}")


def load_run_config(run_dir) -> RunConfig:
    """The run's resolved configuration; ConfigError naming the file for a
    value that no run could have used."""
    path = os.path.join(run_dir, RESOLVED_CONFIG_NAME)
    values = parse_config_file(path)
    try:
        rc = apply_config_values(RunConfig(), values)
        _check_mode(rc.mode)
        rc.train.validate()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    return rc


def _build_run_config(args) -> RunConfig:
    rc = RunConfig()
    file_values = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        try:
            apply_config_values(rc, file_values)
        except ConfigError as e:
            raise ConfigError(f"{args.config}: {e}") from None
    if args.seed is not None:
        rc.seed = args.seed
    elif "seed" not in file_values:
        env_seed = os.environ.get("COFT_SEED")
        if env_seed is not None:
            rc.seed = _coerce("COFT_SEED", env_seed, int)
    for flag in ("mode", "dataset", "templates", "out"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(rc, flag, value)
    for flag, field in (
        ("rounds", "rounds"), ("gamma", "gamma"), ("lam", "lam"),
        ("k", "k_per_class"), ("tau", "tau"),
        ("phase1_epochs", "phase1_epochs"), ("phase2_epochs", "phase2_epochs"),
        ("batch_size", "batch_size"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(rc.train, field, value)
    return rc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        classes=args.classes, per_class=args.per_class, dim=args.dim,
        separation=args.separation, noise_sigma=args.sigma,
        anchor_alignment=args.alignment, seed=args.seed if args.seed is not None else 0,
    )
    ds, truth = generate_synthetic(spec)
    manifest = save_dataset(ds, args.out, truth=truth, name=args.name)
    print(manifest)
    print(f"checksum {read_manifest(manifest)['checksum']}")
    return EXIT_OK


def cmd_run(args) -> int:
    rc = _build_run_config(args)
    # every check that can refuse the run comes before its first write
    _check_mode(rc.mode)
    rc.train.validate()
    resolved_config_text(rc)  # refuses a value holding '#'
    if rc.dataset and not os.path.exists(rc.dataset):
        raise ConfigError(f"dataset manifest not found: {rc.dataset}")
    if rc.templates and not os.path.exists(rc.templates):
        raise ConfigError(f"template file not found: {rc.templates}")
    if not rc.dataset:
        # empty config is a valid run: synthesize the default benchmark
        ds, truth = generate_synthetic(dataclasses.replace(rc.synth, seed=rc.seed))
        rc.dataset = save_dataset(ds, os.path.join(rc.out, "data"), truth=truth)
    os.makedirs(rc.out, exist_ok=True)

    with atomic_write(os.path.join(rc.out, RESOLVED_CONFIG_NAME)) as f:
        f.write(resolved_config_text(rc))

    summary = run_pipeline(rc.dataset, rc.train, rc.mode, rc.seed, rc.out,
                           templates_path=rc.templates or None)
    printable = {k: v for k, v in summary.items() if not isinstance(v, np.ndarray)}
    print(json.dumps({"event": "run_complete", **printable}, sort_keys=True))
    return EXIT_OK


def _emit(record) -> None:
    print(json.dumps(record, sort_keys=True))


def _load_labels(path, provider) -> PseudoLabelSet:
    """A run's label file; FormatError naming it when a sample id or label is
    outside the dataset's range."""
    labelset = PseudoLabelSet.load(path)
    for name, values, bound in (("sample_id", labelset.sample_ids(), provider.num_samples),
                                ("label", labelset.labels(), provider.num_classes)):
        bad = (values < 0) | (values >= bound)
        if np.any(bad):
            raise FormatError(f"{path}: {name} {values[np.argmax(bad)]} "
                              f"outside [0, {bound})")
    return labelset


def _load_filter(path, provider) -> PseudoLabelSet:
    """A run's filter file; FormatError naming it unless its rows are the
    samples in id order, each marked clean or noise."""
    labelset = _load_labels(path, provider)
    if not np.array_equal(labelset.sample_ids(), np.arange(provider.num_samples)):
        raise FormatError(f"{path}: sample ids are not 0..{provider.num_samples - 1} in order")
    if len(labelset.with_status("clean")) + len(labelset.with_status("noise")) != len(labelset):
        raise FormatError(f"{path}: a status is neither 'clean' nor 'noise'")
    return labelset


def cmd_eval(args) -> int:
    rc = load_run_config(args.run)
    manifest = args.dataset or rc.dataset
    if not manifest or not os.path.exists(manifest):
        raise ConfigError(f"dataset manifest not found: {manifest!r}")
    provider = load_dataset(manifest)
    try:
        truth = load_ground_truth(manifest)
    except (FileNotFoundError, FormatError) as e:
        print(f"error: evaluation needs the ground-truth sidecar ({e})",
              file=sys.stderr)
        return EXIT_CONFIG

    zero_texts = provider.class_anchors
    if rc.templates:
        if not os.path.exists(rc.templates):
            raise ConfigError(f"template file not found: {rc.templates}")
        zero_texts = ingest_templates(rc.templates, provider).anchors

    # every run file is read before the first record is printed, so a run
    # that cannot be read prints nothing
    ckpt_dir = os.path.join(args.run, "checkpoints")
    labels_dir = os.path.join(args.run, "labels")
    model_ids, student_ids = ("model1", "model2"), ("student1", "student2")
    models = [load_model_checkpoint(os.path.join(ckpt_dir, f"phase1_{mid}"),
                                    provider, rc.train, mid) for mid in model_ids]
    filtered = [_load_filter(os.path.join(labels_dir, f"filter_{mid}.jsonl"), provider)
                for mid in model_ids]
    students = [load_student_checkpoint(os.path.join(ckpt_dir, f"phase2_{sid}"))
                for sid in student_ids]
    exports = {}
    if args.with_truth:
        exports = {fname: _load_labels(os.path.join(labels_dir, fname), provider)
                   for fname in sorted(os.listdir(labels_dir)) if fname.endswith(".jsonl")}

    zero_shot = assign_pseudo_labels(provider.image_embeddings, zero_texts, rc.train.tau)
    _emit({"metric": "zero_shot_accuracy", "value": zero_shot.accuracy(truth)})

    for mid, model in zip(model_ids, models):
        acc = generate_labels(model).accuracy(truth)
        _emit({"metric": "phase1_model_accuracy", "model": mid, "value": acc})

    for mid, labelset in zip(model_ids, filtered):
        size, precision, recall = labelset.clean_quality(truth)
        _emit({"metric": "clean_size", "direction": mid, "value": size})
        _emit({"metric": "clean_precision", "direction": mid, "value": precision})
        _emit({"metric": "clean_recall", "direction": mid, "value": recall})

    ens, hits = ensemble_predictions(students, provider.image_embeddings, truth)
    for sid, count in zip(student_ids, hits):
        _emit({"metric": "student_accuracy", "student": sid,
               "value": count / provider.num_samples})
    _emit({"metric": "ensemble_accuracy", "value": float(np.mean(ens == truth))})

    if args.with_truth:
        export_dir = os.path.join(args.run, "labels_with_truth")
        os.makedirs(export_dir, exist_ok=True)
        for fname, labelset in exports.items():
            labelset.save(os.path.join(export_dir, fname), truth=truth)
        _emit({"metric": "labels_with_truth_dir", "value": export_dir})
    return EXIT_OK


def cmd_check_grads(args) -> int:
    results = gradient_check_suite(instances=args.instances, seed=args.seed or 0,
                                   eps=args.eps, tol=args.tol)
    worst = {}
    ok = True
    for name, _, report in results:
        worst[name] = max(worst.get(name, 0.0), report.max_rel_error)
        ok = ok and report.ok
    for name in sorted(worst):
        status = "OK" if worst[name] <= args.tol else "FAIL"
        print(f"{name}: max_rel_error={worst[name]:.3e} tol={args.tol:.1e} [{status}]")
    if not ok:
        for name, idx, report in results:
            for pname, i, a, fd, rel in report.failures[:5]:
                print(f"  {name}[{idx}] {pname}[{i}]: analytic={a:.6e} "
                      f"fd={fd:.6e} rel={rel:.2e}")
        return EXIT_TRAINING
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coft",
        description="Collaborative fine-tuning over frozen embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", dest="per_class", type=int, default=100)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.4)
    p.add_argument("--alignment", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="data")
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", default=None, help="flat dotted-key config file")
    p.add_argument("--dataset", default=None, help="dataset manifest path")
    p.add_argument("--templates", default=None, help="prompt template file")
    p.add_argument("--mode", choices=("coft", "coft-plus"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--phase1-epochs", dest="phase1_epochs", type=int, default=None)
    p.add_argument("--phase2-epochs", dest="phase2_epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a finished run against ground truth")
    p.add_argument("--run", required=True, help="run output directory")
    p.add_argument("--dataset", default=None,
                   help="dataset manifest (default: from the run's config)")
    p.add_argument("--with-truth", dest="with_truth", action="store_true",
                   help="re-export the run's label files with ground truth attached")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-grads", help="finite-difference check of all losses")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_check_grads)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, IntegrityError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EMPTY_CLEAN
    except (TrainingError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except CoftError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
