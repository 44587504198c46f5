"""Command-line front end.

Subcommands:
  synth        generate a synthetic benchmark dataset
  run          execute the full pipeline (mode coft or coft-plus)
  eval         score a finished run against ground truth
  check-grads  verify every loss gradient against finite differences

Exit codes: 0 success, 2 configuration or input-file error, 3 training or
gradient-verification failure, 4 empty filtered clean set, 5 a file or
memory the system refused (a full disk or a permission, say).

Configuration files are flat UTF-8 ``key = value`` lines with dotted keys
(``train.gamma = 0.5``); ``#`` starts a comment anywhere on a line, and a key
may appear once per file. ``CONFIG_KEYS`` holds every key with its type;
a ``run`` flag's dest is the key it sets, a ``synth`` flag's a
``SyntheticSpec`` field. Flags override file values. The settings the mode
trains with (``mode_config``) are written into the output directory before
anything trains. ``run`` reads the dataset that ``--dataset`` or the config
file's ``dataset`` key names, and writes only into a new or empty output
directory.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
import typing

import numpy as np

from .core import atomic_write, read_manifest
from .data import (
    SyntheticSpec,
    generate_synthetic,
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
    label_records,
    load_model_checkpoint,
    load_student_checkpoint,
    mode_config,
    run_pipeline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_EMPTY_CLEAN = 4
EXIT_RESOURCE = 5

RESOLVED_CONFIG_NAME = "config.resolved.cfg"


@dataclasses.dataclass
class RunConfig:
    """Everything a run reads, with working defaults for every field."""

    mode: str = "coft"
    seed: int = 0
    dataset: str = ""
    out: str = "coft-run"
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)


def _config_keys() -> dict:
    """{dotted key: type} of every field in ``RunConfig``'s order, a section's
    fields by name: the order of ``config.resolved.cfg``."""
    keys = {}
    for name, typ in typing.get_type_hints(RunConfig).items():
        if dataclasses.is_dataclass(typ):
            keys.update((f"{name}.{f}", t) for f, t in sorted(typing.get_type_hints(typ).items()))
        else:
            keys[name] = typ
    return keys


# every config key, and so every `coft run` flag's dest, with its type
CONFIG_KEYS = _config_keys()


def _owner(rc: RunConfig, key: str):
    """The object that holds ``key``'s field, and the field's name."""
    section, _, name = key.rpartition(".")
    return (getattr(rc, section) if section else rc), name


def _coerce(key: str, raw, typ):
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
    """Set each ``{key: value}`` on ``rc``, a value given as text parsed as
    the key's type; ConfigError for an unknown key or an unparsable value."""
    for key, raw in values.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(*_owner(rc, key), _coerce(key, raw, CONFIG_KEYS[key]))
    return rc


def resolved_config_text(rc: RunConfig) -> str:
    """One ``key = value`` line per config key; ConfigError for a value
    holding ``#``, which would read back as the start of a comment, a line
    break, which would split its line, or leading or trailing whitespace,
    which ``parse_config_file`` would strip."""
    lines = []
    for key in CONFIG_KEYS:
        value = str(getattr(*_owner(rc, key)))
        line = f"{key} = {value}"
        for char in "#\n\r":
            if char in value:
                raise ConfigError(f"a config value cannot hold {char!r}: {line!r}")
        if value != value.strip():
            raise ConfigError(f"a config value cannot start or end with whitespace: {line!r}")
        lines.append(line)
    return "\n".join(lines) + "\n"


def _check_run_config(rc: RunConfig) -> None:
    """ConfigError for a mode, seed or training value that no run can use."""
    mode_config(rc.train, rc.mode)  # refuses an unknown mode
    if not 0 <= rc.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {rc.seed}")
    rc.train.validate()


def load_run_config(run_dir) -> RunConfig:
    """The run's resolved configuration; ConfigError naming the file for a
    value that no run could have used."""
    path = os.path.join(run_dir, RESOLVED_CONFIG_NAME)
    values = parse_config_file(path)
    try:
        rc = apply_config_values(RunConfig(), values)
        _check_run_config(rc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    return rc


def _build_run_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags."""
    rc = RunConfig()
    if args.config:
        _check_file("--config", args.config)
        try:
            apply_config_values(rc, parse_config_file(args.config))
        except ConfigError as e:
            raise ConfigError(f"{args.config}: {e}") from None
    return apply_config_values(rc, {key: value for key, value in vars(args).items()
                                    if key in CONFIG_KEYS and value is not None})


def _check_directory(flag: str, path: str) -> None:
    """ConfigError naming ``flag`` and ``path`` unless ``path`` is nonempty
    and nothing at it or above it is an existing non-directory, so it names a
    directory or a place to make one."""
    if not path:
        raise ConfigError(f"{flag} is empty: it must name a directory")
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"{flag} {path!r}: {existing!r} is not a directory")


def _check_file(flag: str, path: str) -> None:
    """ConfigError naming ``flag`` and ``path`` unless ``path`` is an existing
    file (a directory there would fail the read with IsADirectoryError)."""
    if not os.path.isfile(path):
        raise ConfigError(f"{flag} {path!r}: "
                          + ("is a directory" if os.path.isdir(path) else "not found"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _check_directory("--out", args.out)
    # each flag's dest is a SyntheticSpec field; a flag not given keeps the field's default
    fields = {f.name for f in dataclasses.fields(SyntheticSpec)}
    ds, truth = generate_synthetic(SyntheticSpec(**{
        name: value for name, value in vars(args).items()
        if name in fields and value is not None}))
    manifest = save_dataset(ds, args.out, truth=truth, name=args.name)
    print(manifest)
    print(f"checksum {read_manifest(manifest)['checksum']}")
    return EXIT_OK


def cmd_run(args) -> int:
    rc = _build_run_config(args)
    # every check that can refuse the run comes before its first write
    _check_run_config(rc)
    _check_directory("--out", rc.out)
    if os.path.isdir(rc.out) and os.listdir(rc.out):
        # a second run would mix its files with the first's
        raise ConfigError(f"--out {rc.out!r} is not empty")
    rc.train = mode_config(rc.train, rc.mode)
    resolved_config_text(rc)  # refuses a value that would not read back as it is
    if not rc.dataset:
        raise ConfigError("no dataset: name its manifest with --dataset or the config "
                          "file's dataset key (coft synth makes one)")
    _check_file("--dataset", rc.dataset)
    os.makedirs(rc.out, exist_ok=True)

    with atomic_write(os.path.join(rc.out, RESOLVED_CONFIG_NAME)) as f:
        f.write(resolved_config_text(rc))

    summary = run_pipeline(rc.dataset, rc.train, rc.mode, rc.seed, rc.out)
    printable = {k: v for k, v in summary.items() if not isinstance(v, np.ndarray)}
    print(json.dumps({"event": "run_complete", **printable}, sort_keys=True))
    return EXIT_OK


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
    _check_directory("--run", args.run)
    rc = load_run_config(args.run)
    manifest = args.dataset or rc.dataset
    _check_file("--dataset" if args.dataset else f"{RESOLVED_CONFIG_NAME} dataset", manifest)
    provider = load_dataset(manifest)
    try:
        truth = load_ground_truth(manifest)
    except (FileNotFoundError, FormatError) as e:
        raise FormatError(f"evaluation needs the ground-truth sidecar ({e})") from None

    # every run file is read and checked before the first record is printed,
    # so a run that cannot be read prints nothing
    ckpt_dir = os.path.join(args.run, "checkpoints")
    labels_dir = os.path.join(args.run, "labels")
    model_ids, student_ids = ("model1", "model2"), ("student1", "student2")
    models = [load_model_checkpoint(os.path.join(ckpt_dir, f"phase1_{mid}"),
                                    provider, rc.train, mid) for mid in model_ids]
    students = [load_student_checkpoint(os.path.join(ckpt_dir, f"phase2_{sid}"),
                                        provider, rc.train, sid) for sid in student_ids]
    # every label table by file name; the ones eval can rebuild must be there,
    # holding the labels it rebuilds
    rebuilt = {"zeroshot.jsonl": assign_pseudo_labels(provider.image_embeddings,
                                                      provider.class_anchors, rc.train.tau)}
    rebuilt.update((f"filter_{m.model_id}.jsonl", generate_labels(m)) for m in models)
    names = set(rebuilt).union(n for n in os.listdir(labels_dir) if n.endswith(".jsonl"))
    tables = {name: (_load_filter if name.startswith("filter_") else _load_labels)(
                  os.path.join(labels_dir, name), provider) for name in sorted(names)}
    for name, table in rebuilt.items():
        if not (np.array_equal(tables[name].sample_ids(), table.sample_ids())
                and np.array_equal(tables[name].labels(), table.labels())):
            raise IntegrityError(f"{os.path.join(labels_dir, name)}: its labels differ from "
                                 "those the run's dataset, config and checkpoints give")

    ens, hits = ensemble_predictions(students, provider.image_embeddings, truth)
    for record in label_records(tables, truth, ens, hits):
        print(json.dumps(record, sort_keys=True))

    if args.with_truth:
        export_dir = os.path.join(args.run, "labels_with_truth")
        os.makedirs(export_dir, exist_ok=True)
        for name, labelset in tables.items():
            labelset.save(os.path.join(export_dir, name), truth=truth)
        print(json.dumps({"dir": export_dir, "event": "labels_with_truth"}))
    return EXIT_OK


def cmd_check_grads(args) -> int:
    # no instance, or a tolerance that is not a positive finite number, would
    # verify nothing
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be a positive finite number, got {args.tol}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    results = gradient_check_suite(instances=args.instances, seed=args.seed,
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
    p.add_argument("--separation", type=float)
    p.add_argument("--sigma", dest="noise_sigma", type=float)
    p.add_argument("--alignment", dest="anchor_alignment", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="data")
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", help="flat dotted-key config file")
    p.add_argument("--dataset", help="dataset manifest path")
    p.add_argument("--mode", choices=("coft", "coft-plus"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--rounds", dest="train.rounds", type=int)
    p.add_argument("--gamma", dest="train.gamma", type=float)
    p.add_argument("--lam", dest="train.lam", type=float)
    p.add_argument("--k", dest="train.k_per_class", type=int)
    p.add_argument("--tau", dest="train.tau", type=float)
    p.add_argument("--phase1-epochs", dest="train.phase1_epochs", type=int)
    p.add_argument("--phase2-epochs", dest="train.phase2_epochs", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
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


# the exit code of each failure the commands report: the first entry that matches
EXIT_CODES = ((PipelineError, EXIT_EMPTY_CLEAN),
              ((TrainingError, ContractError), EXIT_TRAINING),
              ((CoftError, FileNotFoundError), EXIT_CONFIG),  # a missing file is an input error
              ((OSError, MemoryError), EXIT_RESOURCE))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoftError, OSError, MemoryError) as e:
        message = str(e)
        if isinstance(e, MemoryError):  # named by the innermost coft function it passed through
            where = [frame.name for frame in traceback.extract_tb(e.__traceback__)
                     if f"{os.sep}coft{os.sep}" in frame.filename] or ["coft"]
            message = f"out of memory in {where[-1]}: {e}"
        print(f"error: {message}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(e, kinds))


if __name__ == "__main__":
    sys.exit(main())
