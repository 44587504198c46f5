import dataclasses
import filecmp
import hashlib
import json
import os
import re
import shutil
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft import core
from coft.cli import (
    CONFIG_KEYS,
    RESOLVED_CONFIG_NAME,
    RunConfig,
    apply_config_values,
    build_parser,
    load_run_config,
    main,
    parse_config_file,
    resolved_config_text,
)
from coft.data import SyntheticSpec, load_dataset, load_ground_truth
from coft.errors import ConfigError, FormatError, IntegrityError
from coft.encoders import logits_batch
from coft.grad import param, save_checkpoint
from coft.pseudo import PseudoLabelSet
from coft.train import load_student_checkpoint

from test_grad import read_checkpoint


def run_cli(*argv):
    """``coft`` on ``argv``: its exit code, an argparse usage error's included."""
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


def read_records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.strip().splitlines() if line.strip()]


FAST_TRAIN = [
    "--k", "8", "--phase1-epochs", "6", "--phase2-epochs", "8", "--batch-size", "16",
]


def make_dataset(tmp_path, name="ds", **kw):
    args = ["synth", "--classes", "4", "--per-class", "25", "--dim", "16",
            "--seed", "3", "--out", str(tmp_path / "data"), "--name", name]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    assert run_cli(*args) == 0
    return str(tmp_path / "data" / f"{name}.json")


class TestSynth:
    def test_writes_manifest_and_payload(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path)
        out = capsys.readouterr().out
        assert manifest in out
        assert os.path.exists(manifest)
        ds = load_dataset(manifest)
        assert (ds.num_samples, ds.num_classes, ds.dim) == (100, 4, 16)

    def test_repeat_identical_checksum(self, tmp_path, capsys):
        make_dataset(tmp_path, name="a")
        first = capsys.readouterr().out.splitlines()[-1]
        make_dataset(tmp_path, name="b")
        second = capsys.readouterr().out.splitlines()[-1]
        assert first == second  # "checksum <hex>" lines match

    def test_non_finite_sigma_exits_2(self, tmp_path, capsys):
        assert run_cli("synth", "--sigma", "nan", "--out", str(tmp_path)) == 2
        assert "noise_sigma must be finite" in capsys.readouterr().err

    def test_infeasible_geometry_exits_2(self, tmp_path):
        code = run_cli("synth", "--classes", "10", "--dim", "2",
                       "--out", str(tmp_path))
        assert code == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert run_cli("synth", "--out", str(taken)) == 2
        assert f"--out {str(taken)!r}: {str(taken)!r} is not a directory" in (
            capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["taken"] and taken.read_text() == "x"


class TestRun:
    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        manifest = make_dataset(tmp_path)
        for out in ("r1", "r2"):
            assert run_cli("run", "--dataset", manifest, "--mode", "coft",
                           "--seed", "7", "--out", str(tmp_path / out),
                           *FAST_TRAIN) == 0
        for stem in ("phase1_model1", "phase1_model2", "phase2_student1",
                     "phase2_student2"):
            for name in (stem + ".json", stem + ".f64le"):
                assert filecmp.cmp(tmp_path / "r1" / "checkpoints" / name,
                                   tmp_path / "r2" / "checkpoints" / name,
                                   shallow=False), name

    def test_coft_plus_degenerate_equals_coft(self, tmp_path):
        manifest = make_dataset(tmp_path)
        assert run_cli("run", "--dataset", manifest, "--mode", "coft",
                       "--seed", "5", "--out", str(tmp_path / "plain"),
                       *FAST_TRAIN) == 0
        assert run_cli("run", "--dataset", manifest, "--mode", "coft-plus",
                       "--rounds", "1", "--gamma", "0", "--seed", "5",
                       "--out", str(tmp_path / "degenerate"), *FAST_TRAIN) == 0
        for stem in ("phase1_model1", "phase1_model2", "phase2_student1",
                     "phase2_student2"):
            for name in (stem + ".json", stem + ".f64le"):
                assert filecmp.cmp(tmp_path / "plain" / "checkpoints" / name,
                                   tmp_path / "degenerate" / "checkpoints" / name,
                                   shallow=False), name

    def test_coft_run_records_the_settings_it_trains_with(self, tmp_path, capsys):
        # a coft run is one round without the contrastive term: the rounds and
        # gamma it is given change nothing, so its record holds 1 and 0.0
        manifest = make_dataset(tmp_path)
        runs = {}
        for name, flags in (("default", ()), ("given", ("--rounds", "3", "--gamma", "0.9"))):
            runs[name] = tmp_path / name
            assert run_cli("run", "--dataset", manifest, "--mode", "coft", "--seed", "5",
                           "--out", str(runs[name]), *flags, *FAST_TRAIN) == 0
        config = {name: (out / RESOLVED_CONFIG_NAME).read_text().splitlines()
                  for name, out in runs.items()}
        assert "train.rounds = 1" in config["given"]
        assert "train.gamma = 0.0" in config["given"]
        assert [line for line in config["given"] if not line.startswith("out = ")] == [
            line for line in config["default"] if not line.startswith("out = ")]
        files = sorted(os.path.relpath(os.path.join(d, f), runs["default"])
                       for sub in ("checkpoints", "labels")
                       for d, _, fs in os.walk(runs["default"] / sub) for f in fs)
        assert len(files) == 13  # 8 checkpoint files, 5 label files
        for name in files + ["metrics.jsonl"]:
            assert filecmp.cmp(runs["default"] / name, runs["given"] / name,
                               shallow=False), name
        capsys.readouterr()
        assert run_cli("eval", "--run", str(runs["given"])) == 0
        assert any(r.get("metric") == "ensemble_accuracy" for r in read_records(capsys))

    def test_zero_shot_table_exported_once(self, tmp_path):
        # round 1 generates from the zero-shot table for both models, so only
        # zeroshot.jsonl holds it; later rounds export their own generations
        manifest = make_dataset(tmp_path)
        out = tmp_path / "plus"
        assert run_cli("run", "--dataset", manifest, "--mode", "coft-plus", "--rounds", "2",
                       "--seed", "5", "--out", str(out), *FAST_TRAIN) == 0
        assert sorted(os.listdir(out / "labels")) == [
            "filter_model1.jsonl", "filter_model2.jsonl",
            "round1_model1_selected.jsonl", "round1_model2_selected.jsonl",
            "round2_model1.jsonl", "round2_model1_selected.jsonl",
            "round2_model2.jsonl", "round2_model2_selected.jsonl",
            "zeroshot.jsonl",
        ]

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run_cli("run", "--dataset", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "r")) == 2

    @staticmethod
    def empty_clean_run(tmp_path):
        """A run whose filter marks no sample clean: (exit code, run directory)."""
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "degenerate.cfg"
        cfgfile.write_text(
            "train.init_sigma = 0\ntrain.phase1_epochs = 0\n"
            "train.k_per_class = 8\ntrain.phase2_epochs = 2\n"
        )
        out = tmp_path / "r"
        return run_cli("run", "--dataset", manifest, "--config", str(cfgfile),
                       "--out", str(out)), out

    def test_empty_clean_set_exits_4(self, tmp_path):
        assert self.empty_clean_run(tmp_path)[0] == 4

    def test_empty_clean_set_keeps_metrics_strict_json(self, tmp_path):
        # the filter record once held a bare NaN precision, which strict
        # JSON parsers reject; clean_quality gives None for it
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        _, out = self.empty_clean_run(tmp_path)
        with open(out / "metrics.jsonl", encoding="utf-8") as f:
            records = [json.loads(line, parse_constant=refuse) for line in f]
        first = next(r for r in records if r.get("event") == "filter")
        assert (first["clean_size"], first["clean_precision"]) == (0, None)

    @pytest.mark.parametrize("config", [None, "", "seed = 3\n"],
                             ids=["no-config", "empty-config", "config-without-dataset"])
    def test_run_without_a_dataset_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                               config):
        # coft synth makes a dataset; run once synthesized one into the run
        # directory when given none
        flags = ()
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            flags = ("--config", str(tmp_path / "c.cfg"))
        capsys.readouterr()
        assert run_cli("run", "--out", str(tmp_path / "r"), *flags, *FAST_TRAIN) == 2
        assert "--dataset" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_resolved_config_written_before_training(self, tmp_path):
        manifest = make_dataset(tmp_path)
        out = tmp_path / "r"
        assert run_cli("run", "--dataset", manifest, "--seed", "9",
                       "--out", str(out), *FAST_TRAIN) == 0
        text = (out / "config.resolved.cfg").read_text()
        assert "seed = 9" in text
        assert "train.k_per_class = 8" in text
        assert "mode = coft" in text

    def test_flag_overrides_config_file(self, tmp_path):
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("seed = 4\ntrain.k_per_class = 6\n")
        out = tmp_path / "r"
        assert run_cli("run", "--dataset", manifest, "--config", str(cfgfile),
                       "--seed", "11", "--out", str(out), *FAST_TRAIN) == 0
        text = (out / "config.resolved.cfg").read_text()
        assert "seed = 11" in text
        assert "train.k_per_class = 8" in text  # flag beat the file

    def test_unknown_config_key_exits_2(self, tmp_path):
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("train.nonsense = 5\n")
        assert run_cli("run", "--dataset", manifest, "--config", str(cfgfile),
                       "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize("name, flags, expected", [
        ("x#y", lambda tmp: ("--dataset", make_dataset(tmp)),
         "a config value cannot hold '#'"),
        # once written, then refused by eval as a line without '='
        ("nl/a\nb", lambda tmp: ("--dataset", make_dataset(tmp)),
         "a config value cannot hold '\\n'"),
        ("cr\rb", lambda tmp: ("--dataset", make_dataset(tmp)),
         "a config value cannot hold '\\r'"),
        ("r", ("--k", "0"), "k_per_class must be >= 1"),
        ("r", lambda tmp: ("--dataset", make_dataset(tmp), "--seed", "-1"),
         "seed must be a 64-bit unsigned integer, got -1"),
        ("r", lambda tmp: ("--dataset", make_dataset(tmp), "--seed", str(2**64)),
         "seed must be a 64-bit unsigned integer"),
        ("r", ("--templates", "t.txt"), "unrecognized arguments: --templates t.txt"),
    ], ids=["hash-in-out", "newline-in-out", "return-in-out", "k-zero",
            "dataset-seed-negative", "dataset-seed-2**64", "templates-flag"])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, name, flags, expected):
        # each is refused before anything is written beside the named
        # dataset, so no run directory without a run is left behind
        out = tmp_path / name
        if callable(flags):
            flags = flags(tmp_path)
        capsys.readouterr()
        assert run_cli("run", "--out", str(out), *flags) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out, expected", [
        ("taken", "--out 'taken': 'taken' is not a directory"),
        ("taken/run", "--out 'taken/run': 'taken' is not a directory"),
        ("", "--out is empty: it must name a directory"),
    ], ids=["file", "below-a-file", "empty"])
    def test_out_that_cannot_be_a_directory_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch, out, expected):
        monkeypatch.chdir(tmp_path)
        manifest = make_dataset(tmp_path)
        (tmp_path / "taken").write_text("x")
        capsys.readouterr()
        assert run_cli("run", "--dataset", manifest, "--out", out, *FAST_TRAIN) == 2
        assert expected in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["data", "taken"]

    @pytest.mark.parametrize("flags, out", [
        (("--dataset", " data/ds.json"), "r"),
        (("--dataset", "data/ds.json"), "r "),
    ], ids=["leading-space-in-dataset", "trailing-space-in-out"])
    def test_value_with_surrounding_whitespace_writes_nothing(self, tmp_path, capsys,
                                                              monkeypatch, flags, out):
        # the record would name " data/ds.json" and read back "data/ds.json":
        # the run would succeed, and eval on it would not find its dataset
        monkeypatch.chdir(tmp_path)
        make_dataset(tmp_path)
        shutil.copytree(tmp_path / "data", tmp_path / " data")
        capsys.readouterr()
        assert run_cli("run", "--out", out, *flags, *FAST_TRAIN) == 2
        assert "cannot start or end with whitespace" in capsys.readouterr().err
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("flag, value", [("--lam", "nan"), ("--tau", "inf"),
                                             ("--gamma", "nan")])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flag, value):
        manifest = make_dataset(tmp_path)
        capsys.readouterr()
        assert run_cli("run", "--dataset", manifest, flag, value,
                       "--out", str(tmp_path / "r"), *FAST_TRAIN) == 2
        assert f"{flag[2:]} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "r" / "checkpoints").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_metrics_file_closed_when_the_run_fails(self, tmp_path, monkeypatch):
        from coft.data import MetricsWriter

        closed = []
        real_close = MetricsWriter.close
        monkeypatch.setattr(MetricsWriter, "close",
                            lambda self: closed.append(self.path) or real_close(self))
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "hot.cfg"
        cfgfile.write_text("train.lr_peft = 1e308\ntrain.phase1_epochs = 3\n")
        assert run_cli("run", "--dataset", manifest, "--config", str(cfgfile),
                       "--out", str(tmp_path / "r"), "--k", "8") == 3
        assert closed == [os.path.join(str(tmp_path / "r"), "metrics.jsonl")]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_blowup_exits_3(self, tmp_path):
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "hot.cfg"
        cfgfile.write_text("train.lr_peft = 1e308\ntrain.phase1_epochs = 3\n")
        assert run_cli("run", "--dataset", manifest, "--config", str(cfgfile),
                       "--out", str(tmp_path / "r"), "--k", "8") == 3

    @pytest.mark.parametrize("flag", ["--dataset", "--config"])
    def test_directory_for_a_file_flag_writes_nothing(self, tmp_path, capsys, flag):
        # each once ended in an IsADirectoryError traceback with exit 1, and
        # --dataset had created --out by then
        (tmp_path / "d").mkdir()
        capsys.readouterr()
        assert run_cli("run", flag, str(tmp_path / "d"), "--out", str(tmp_path / "r"),
                       *FAST_TRAIN) == 2
        assert f"{flag} {str(tmp_path / 'd')!r}: is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["d"]

    def test_run_into_a_finished_run_exits_2_and_leaves_it_whole(self, tmp_path, capsys):
        # a coft run here once exited 0 and left the first run's four round-2
        # label files beside its own, for eval to score as this run's
        manifest = make_dataset(tmp_path)
        out = tmp_path / "r"
        assert run_cli("run", "--dataset", manifest, "--mode", "coft-plus", "--seed", "5",
                       "--out", str(out), "--phase1-epochs", "3",
                       "--phase2-epochs", "2") == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert any(p.name.startswith("round2_") for p in before)
        capsys.readouterr()
        assert run_cli("run", "--dataset", manifest, "--mode", "coft", "--seed", "5",
                       "--out", str(out), "--phase1-epochs", "3",
                       "--phase2-epochs", "2") == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"--out {str(out)!r} is not empty" in printed.err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_run_into_an_empty_directory(self, tmp_path):
        manifest = make_dataset(tmp_path)
        (tmp_path / "r").mkdir()
        assert run_cli("run", "--dataset", manifest, "--out", str(tmp_path / "r"),
                       *FAST_TRAIN) == 0


def malform(manifest, case):
    """Damage the dataset at ``manifest`` as ``case`` names; returns the path
    of the damaged file."""
    with open(manifest, encoding="utf-8") as f:
        fields = json.load(f)
    damaged = manifest
    if case == "not-json":
        with open(manifest, "w", encoding="utf-8") as f:
            f.write("{num_samples: 12")
        return damaged
    if case == "num-samples-word":
        fields["num_samples"] = "twelve"
    elif case == "class-names-int":
        fields["class_names"] = 7
    elif case == "zero-classes":
        fields["num_classes"], fields["class_names"] = 0, []
    elif case == "zero-dim":
        fields["dim"] = 0
    elif case == "payload-path-int":
        fields["payload_path"] = 5
    elif case in ("payload-truncated", "payload-plus8", "payload-byte-flipped"):
        damaged = os.path.join(os.path.dirname(manifest), fields["payload_path"])
        with open(damaged, "rb") as f:
            raw = bytearray(f.read())
        if case == "payload-truncated":
            raw = raw[:-8]
        elif case == "payload-plus8":
            raw += bytes(8)
        else:
            raw[100] ^= 0x01
        with open(damaged, "wb") as f:
            f.write(raw)
        return damaged
    else:  # under a matching checksum: a NaN in the first embedding row, or a
        # payload length not a multiple of 8
        damaged = os.path.join(os.path.dirname(manifest), fields["payload_path"])
        with open(damaged, "rb") as f:
            raw = f.read()
        if case == "payload-nan":
            raw = np.array([np.nan], dtype="<f8").tobytes() + raw[8:]
        else:
            raw += b"\x00\x00\x00"
        with open(damaged, "wb") as f:
            f.write(raw)
        fields["checksum"] = hashlib.sha256(raw).hexdigest()
    with open(manifest, "w", encoding="utf-8") as f:
        json.dump(fields, f)
    return damaged


class TestMalformedDataset:
    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("case", ["not-json", "num-samples-word", "class-names-int",
                                      "zero-classes", "zero-dim", "payload-path-int",
                                      "payload-odd-length", "payload-truncated",
                                      "payload-plus8", "payload-byte-flipped",
                                      "payload-nan"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, case, command):
        manifest = make_dataset(tmp_path)
        damaged = malform(manifest, case)
        assert self.exit_code(tmp_path, capsys, manifest, command) == 2
        assert damaged in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("field, value", [
        ("num_samples", "100"), ("num_samples", 100.5), ("num_samples", 100.0),
        ("num_classes", True), ("dim", "16"), ("has_ground_truth", "no"),
        ("has_ground_truth", 1), ("class_names", "abcd"), ("class_names", [0, 1, 2, 3]),
        ("name", 5), ("checksum", None), ("checksum", "9f86d081884c7d65")])
    def test_wrong_json_type_exits_2_naming_the_field(self, tmp_path, capsys, field, value,
                                                      command):
        # int, bool and tuple once read "100" and 100.5 as 100, "no" as True
        # and "abcd" as four class names; the last case is the 16-digit
        # blake2b checksum a dataset carried before SHA-256
        manifest = make_dataset(tmp_path)
        with open(manifest, encoding="utf-8") as f:
            fields = json.load(f)
        with open(manifest, "w", encoding="utf-8") as f:
            json.dump(dict(fields, **{field: value}), f)
        assert self.exit_code(tmp_path, capsys, manifest, command) == 2
        err = capsys.readouterr().err
        assert manifest in err and repr(field) in err

    @staticmethod
    def exit_code(tmp_path, capsys, manifest, command):
        out = tmp_path / "r"
        if command == "run":
            argv = ("run", "--dataset", manifest, "--out", str(out))
        else:  # eval reads only the run's resolved config before the dataset
            out.mkdir()
            (out / RESOLVED_CONFIG_NAME).write_text(resolved_config_text(RunConfig()))
            argv = ("eval", "--run", str(out), "--dataset", manifest)
        capsys.readouterr()
        return run_cli(*argv)


# a config value fills the rest of one line and is stripped when read back
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r")).filter(
    lambda text: text == text.strip())
_FIELD_VALUES = {int: st.integers(), float: st.floats(), str: _LINE_TEXT}


def _configs(cls):
    """Every field of the config dataclass ``cls`` drawn, sections recursively;
    a field of any other type is a TypeError."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: _FIELD_VALUES[hints[f.name]] if hints[f.name] in _FIELD_VALUES
        else _configs(hints[f.name])
        for f in dataclasses.fields(cls)
    })


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rc=_configs(RunConfig))
    def test_resolved_text_round_trips(self, rc):
        """Every field survives resolved_config_text, parse_config_file,
        apply_config_values and resolved_config_text again (load_run_config
        then checks the values, which are drawn freely here). Strings are
        drawn without line breaks and without surrounding whitespace: one
        ``key = value`` line, stripped on reading, cannot carry them. A ``#``
        would start a comment, so a value holding one is refused."""
        if any("#" in v for v in (rc.mode, rc.dataset, rc.out)):
            with pytest.raises(ConfigError, match="cannot hold '#'"):
                resolved_config_text(rc)
            return
        text = resolved_config_text(rc)
        with tempfile.TemporaryDirectory() as run_dir:
            path = os.path.join(run_dir, RESOLVED_CONFIG_NAME)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            back = apply_config_values(RunConfig(), parse_config_file(path))
            assert resolved_config_text(back) == text


class TestConfigKeys:
    @staticmethod
    def subparser(name):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return sub.choices[name]

    @pytest.mark.parametrize("command, fields, skip", [
        ("run", CONFIG_KEYS, ("help", "config")),
        ("synth", typing.get_type_hints(SyntheticSpec), ("help", "out", "name")),
    ], ids=["run", "synth"])
    def test_every_flag_sets_a_config_key_of_its_type(self, command, fields, skip):
        # a run flag's dest is the config key it sets, a synth flag's the
        # SyntheticSpec field, so neither can drift from its field
        flags = [a for a in self.subparser(command)._actions if a.dest not in skip]
        assert len(flags) == {"run": 12, "synth": 7}[command]
        for action in flags:
            assert action.dest in fields, action.option_strings
            assert action.type in (None, fields[action.dest]), action.option_strings
            assert action.type is not None or fields[action.dest] is str, action.option_strings


class TestConfigFiles:
    def test_readme_example_parses(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as f:
            section = f.read().split("\n## Configuration\n", 1)[1]
        block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        rc = apply_config_values(RunConfig(), parse_config_file(path))
        assert (rc.mode, rc.seed, rc.dataset) == ("coft-plus", 7, "data/bench.json")
        assert (rc.train.k_per_class, rc.train.lam, rc.train.adapter_scale) == (48, 0.05, 0.5)
        rc.train.validate()

    def test_inline_comment_in_a_run_config(self, tmp_path):
        manifest = make_dataset(tmp_path)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("train.k_per_class = 6     # top-K per class\n# seed = 1\n")
        out = tmp_path / "r"
        assert run_cli("run", "--dataset", manifest, "--config", str(cfgfile), "--seed", "2",
                       "--out", str(out), "--phase1-epochs", "2", "--phase2-epochs", "2") == 0
        assert "train.k_per_class = 6\n" in (out / RESOLVED_CONFIG_NAME).read_text()

    @pytest.mark.parametrize("text, expected", [
        (b"seed = 4\ntrain.tau = 0.0\xff7\n", "not UTF-8"),
        (b"seed = 4\ntrain.lam = 0.1\nseed = 5\n", "key 'seed' repeated (line 3)"),
        (b"train.k_per_class = x\n", "train.k_per_class: cannot parse int from 'x'"),
        (b"train.nonsense = 1\n", "unknown config key 'train.nonsense'"),
        (b"templates = t.txt\n", "unknown config key 'templates'"),
    ], ids=["not-utf8", "repeated-key", "unparsable-value", "unknown-key", "templates-key"])
    def test_bad_run_config_exits_2_naming_it(self, tmp_path, capsys, text, expected):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_bytes(text)
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfgfile), "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert f"{cfgfile}: " in err and expected in err
        assert not (tmp_path / "r").exists()


@pytest.fixture(scope="module")
def finished_run_dir(tmp_path_factory):
    """One finished run to copy: (dataset manifest, run directory)."""
    root = tmp_path_factory.mktemp("finished")
    manifest = make_dataset(root)
    out = root / "run"
    assert run_cli("run", "--dataset", manifest, "--seed", "7", "--out", str(out),
                   *FAST_TRAIN) == 0
    return manifest, out


def _resized(**shapes):
    """A checkpoint edit that makes each named tensor a zero table of its given shape."""
    def edit(params):
        return [param(p.name, np.zeros(shapes[p.name.split("/", 1)[1]]))
                if p.name.split("/", 1)[1] in shapes else p for p in params]
    return edit


def _set_config_line(path, key, value):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                            for line in lines))


class TestEvalRefusesBadRunFiles:
    """Each mutation below once let ``coft eval`` exit 0, most of them with
    changed numbers; each must exit 2, name the file and print no record."""

    def mutate_and_eval(self, tmp_path, capsys, finished_run_dir, name, mutate):
        out = tmp_path / "run"
        shutil.copytree(finished_run_dir[1], out)
        mutate(out / name)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"{out / name}: " in printed.err
        return printed.err

    @pytest.mark.parametrize("mutate, expected", [
        (lambda p: p.write_bytes(p.read_bytes() + b"train.tau = 0.5\n"),
         "key 'train.tau' repeated (line"),
        (lambda p: p.write_bytes(p.read_bytes().replace(b"seed = 7", b"seed = \xe97")),
         "not UTF-8"),
        (lambda p: _set_config_line(p, "mode", "bogus"), "mode must be coft or coft-plus"),
        (lambda p: _set_config_line(p, "train.adapter_rank", "0"), "adapter_rank"),
        (lambda p: _set_config_line(p, "train.adapter_scale", "nan"), "must be finite"),
        (lambda p: _set_config_line(p, "seed", "-1"), "seed must be a 64-bit unsigned integer"),
        # the resolved configs of runs that predate the removal of templates
        # and of run's own synthetic dataset
        (lambda p: p.write_text(p.read_text() + "templates = \n"),
         "unknown config key 'templates'"),
        (lambda p: p.write_text(p.read_text() + "synth.classes = 10\n"),
         "unknown config key 'synth.classes'"),
    ], ids=["repeated-key", "not-utf8", "mode", "adapter-rank", "nan-scale", "seed",
            "templates-key", "synth-key"])
    def test_resolved_config(self, tmp_path, capsys, finished_run_dir, mutate, expected):
        err = self.mutate_and_eval(tmp_path, capsys, finished_run_dir,
                                   RESOLVED_CONFIG_NAME, mutate)
        assert expected in err

    @pytest.mark.parametrize("checksum", [None, 5, "0123456789abcdef", "missing"])
    def test_checkpoint_checksum_field(self, tmp_path, capsys, finished_run_dir, checksum):
        # a missing checksum once read as a checksum mismatch of the payload
        def set_checksum(path):
            manifest = json.loads(path.read_text())
            if checksum == "missing":
                del manifest["checksum"]
            else:
                manifest["checksum"] = checksum
            path.write_text(json.dumps(manifest))

        err = self.mutate_and_eval(tmp_path, capsys, finished_run_dir,
                                   "checkpoints/phase2_student1.json", set_checksum)
        assert "field 'checksum'" in err

    def test_non_finite_checkpoint_value(self, tmp_path, capsys, finished_run_dir):
        def one_nan(path):  # save_checkpoint recomputes the checksum
            stem = str(path)[:-len(".f64le")]
            params = read_checkpoint(stem)
            params[0].value.flat[3] = np.nan
            save_checkpoint(stem, params)

        err = self.mutate_and_eval(tmp_path, capsys, finished_run_dir,
                                   "checkpoints/phase2_student1.f64le", one_nan)
        assert "non-finite" in err

    # 4 classes, 16-d, adapter rank 16, student hidden width 2 * 16
    @pytest.mark.parametrize("stem, edit, tensor", [
        ("phase2_student1", _resized(fft_b_fc=(1,)), "fft_b_fc"),
        ("phase1_model1", _resized(adapter_up=(16, 3)), "adapter_up"),
        ("phase1_model2", _resized(adapter_down=(16, 9)), "adapter_down"),
        ("phase2_student2", lambda ps: ps + [param(ps[0].name, ps[0].value + 1.0)], "fft_w1"),
        ("phase2_student1", lambda ps: ps + [param("student1/extra", np.zeros(3))], "extra"),
        ("phase2_student1", _resized(fft_w1=(8, 16), fft_b1=(8,), fft_w2=(16, 8)), "fft_w1"),
        ("phase2_student2", _resized(fft_w_fc=(5, 16), fft_b_fc=(5,)), "fft_w_fc"),
        ("phase2_student1", _resized(fft_b1=(7,)), "fft_b1"),
        ("phase2_student1", _resized(fft_w2=(16, 8)), "fft_w2"),
    ], ids=["head-bias-broadcasts", "adapter-up", "adapter-down", "repeated-tensor",
            "extra-tensor", "hidden-width-8", "five-class-head", "hidden-bias-7",
            "second-layer-16x8"])
    def test_checkpoint_tensors_must_be_the_models(self, tmp_path, capsys, finished_run_dir,
                                                   stem, edit, tensor):
        # the first six once exited 0, the repeated tensor's second copy
        # winning; the last three printed nine records, then a numpy traceback
        def rewrite(path):  # save_checkpoint recomputes the checksum
            stem_path = str(path)[:-len(".json")]
            save_checkpoint(stem_path, edit(read_checkpoint(stem_path)))

        err = self.mutate_and_eval(tmp_path, capsys, finished_run_dir,
                                   f"checkpoints/{stem}.json", rewrite)
        assert repr(tensor) in err

    @pytest.mark.parametrize("mutate, expected", [
        (lambda p: p.write_text("".join(p.read_text().splitlines(keepends=True)[1:])),
         "sample ids are not 0..99 in order"),
        (lambda p: p.write_text(re.sub('"status": "(clean|noise)"', '"status": "candidate"',
                                       p.read_text(), count=1)),
         "neither 'clean' nor 'noise'"),
        (lambda p: p.write_text(re.sub('"status": "(clean|noise)"', '"status": "unassigned"',
                                       p.read_text(), count=1)),
         "unknown status 'unassigned'"),
        (lambda p: p.write_text(""), "sample ids are not 0..99 in order"),
    ], ids=["first-row-deleted", "candidate", "unassigned", "empty"])
    def test_filter_file_must_cover_the_dataset(self, tmp_path, capsys, finished_run_dir,
                                                mutate, expected):
        err = self.mutate_and_eval(tmp_path, capsys, finished_run_dir,
                                   "labels/filter_model1.jsonl", mutate)
        assert expected in err


class TestTruthSidecar:
    @pytest.mark.parametrize("case,expected", [
        ("not-an-integer", "line 101 is not a label in [0, 4)"),
        ("label-4", "line 1 is not a label in [0, 4)"),
        ("one-short", "holds 99 labels, the manifest lists 100 samples"),
    ], ids=["not-an-integer", "label-4", "one-short"])
    def test_run_ignores_it_and_eval_exits_2_naming_it(self, tmp_path, capsys, case,
                                                        expected):
        # truth is evaluation-only: a run without usable truth still completes
        manifest = make_dataset(tmp_path)
        sidecar = os.path.join(os.path.dirname(manifest),
                               json.load(open(manifest))["payload_path"] + ".truth")
        with open(sidecar, encoding="utf-8") as f:
            lines = f.readlines()
        if case == "not-an-integer":
            lines.append("x\n")
        elif case == "label-4":
            lines[0] = "4\n"
        else:
            lines.pop()
        with open(sidecar, "w", encoding="utf-8") as f:
            f.writelines(lines)
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("run", "--dataset", manifest, "--seed", "7", "--out", str(out),
                       *FAST_TRAIN) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["event"] == "run_complete" and "ensemble_accuracy" not in summary
        assert run_cli("eval", "--run", str(out)) == 2
        err = capsys.readouterr().err
        assert sidecar in err and expected in err


class TestEval:
    def finished_run(self, tmp_path, train_args=FAST_TRAIN, **synth_kw):
        manifest = make_dataset(tmp_path, **synth_kw)
        out = tmp_path / "run"
        assert run_cli("run", "--dataset", manifest, "--seed", "7",
                       "--out", str(out), *train_args) == 0
        return manifest, out

    def test_run_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert run_cli("eval", "--run", str(taken)) == 2
        assert f"--run {str(taken)!r}: {str(taken)!r} is not a directory" in (
            capsys.readouterr().err)

    def test_dataset_naming_a_directory_exits_2(self, tmp_path, capsys):
        # once an IsADirectoryError traceback with exit 1
        _, out = self.finished_run(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out), "--dataset", str(tmp_path / "data")) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert f"--dataset {str(tmp_path / 'data')!r}: is a directory" in printed.err

    def test_missing_sidecar_exits_2(self, tmp_path, capsys):
        manifest, out = self.finished_run(tmp_path)
        payload = os.path.join(os.path.dirname(manifest),
                               json.load(open(manifest))["payload_path"])
        os.remove(payload + ".truth")
        assert run_cli("eval", "--run", str(out)) == 2

    def test_zero_shot_matches_independent_compute(self, tmp_path, capsys):
        manifest, out = self.finished_run(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        records = read_records(capsys)
        zs = next(r["value"] for r in records if r["metric"] == "zero_shot_accuracy")
        ds = load_dataset(manifest)
        truth = load_ground_truth(manifest)
        pred = np.argmax(ds.image_embeddings @ ds.class_anchors.T, axis=1)
        assert zs == float(np.mean(pred == truth))

    def test_zero_shot_accuracy_equals_run_final_record_and_label_file(
            self, tmp_path, capsys, monkeypatch):
        # 500 rows in two blocks of 250, for the run's zero-shot pass and eval's
        monkeypatch.setattr(core, "BLOCK_ROWS", 200)
        manifest, out = self.finished_run(tmp_path, **{"per-class": 125})
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        zs = next(r["value"] for r in read_records(capsys)
                  if r["metric"] == "zero_shot_accuracy")
        with open(out / "metrics.jsonl", encoding="utf-8") as f:
            final = next(r for r in map(json.loads, f) if r.get("event") == "final")
        truth = load_ground_truth(manifest)
        with open(out / "labels" / "zeroshot.jsonl", encoding="utf-8") as f:
            zeroshot = [json.loads(line) for line in f]
        assert sorted(r["sample_id"] for r in zeroshot) == list(range(truth.size))
        hits = sum(r["label"] == truth[r["sample_id"]] for r in zeroshot)
        assert zs == final["zero_shot_accuracy"] == hits / truth.size

    def test_noiseless_run_has_perfect_clean_precision(self, tmp_path, capsys):
        # enough phase-1 epochs for the dual loss to separate the prompt pair
        slower = ["--k", "8", "--phase1-epochs", "40", "--phase2-epochs", "8",
                  "--batch-size", "16"]
        manifest, out = self.finished_run(tmp_path, train_args=slower,
                                          alignment=1.0, sigma=1e-9)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        records = read_records(capsys)
        precisions = [r["value"] for r in records if r["metric"] == "clean_precision"]
        assert precisions and all(p == 1.0 for p in precisions)

    def test_report_matches_label_file_recount(self, tmp_path, capsys):
        manifest, out = self.finished_run(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        records = read_records(capsys)
        truth = load_ground_truth(manifest)
        for mid in ("model1", "model2"):
            with open(out / "labels" / f"filter_{mid}.jsonl", encoding="utf-8") as f:
                full = [json.loads(line) for line in f]
            clean = [r for r in full if r["status"] == "clean"]
            hits_clean = sum(1 for r in clean if r["label"] == truth[r["sample_id"]])
            hits_all = sum(1 for r in full if r["label"] == truth[r["sample_id"]])
            got = {r["metric"]: r["value"] for r in records
                   if r.get("direction") == mid}
            assert got["clean_size"] == len(clean)
            assert got["clean_precision"] == pytest.approx(hits_clean / len(clean))
            assert got["clean_recall"] == pytest.approx(hits_all and hits_clean / hits_all)

    def test_reports_student_and_ensemble(self, tmp_path, capsys):
        _, out = self.finished_run(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        records = read_records(capsys)
        metrics = {r["metric"] for r in records}
        assert {"zero_shot_accuracy", "phase1_model_accuracy", "student_accuracy",
                "ensemble_accuracy"} <= metrics

    def test_ensemble_accuracy_equals_run_final_record(self, tmp_path, capsys, monkeypatch):
        # 500 rows in two blocks of 250, for the run's passes and eval's alike;
        # the reference sums the students' whole-table logits, then argmaxes
        monkeypatch.setattr(core, "BLOCK_ROWS", 200)
        manifest, out = self.finished_run(tmp_path, **{"per-class": 125})
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 0
        records = read_records(capsys)
        ens = next(r["value"] for r in records if r["metric"] == "ensemble_accuracy")
        with open(out / "metrics.jsonl", encoding="utf-8") as f:
            final = next(r for r in map(json.loads, f) if r.get("event") == "final")
        assert ens == final["ensemble_accuracy"]
        provider, cfg = load_dataset(manifest), load_run_config(out).train
        truth = load_ground_truth(manifest)
        logits = {sid: logits_batch(load_student_checkpoint(
                      str(out / "checkpoints" / f"phase2_{sid}"), provider, cfg, sid),
                      provider.image_embeddings)[0]
                  for sid in ("student1", "student2")}
        assert {r["student"]: r["value"] for r in records
                if r["metric"] == "student_accuracy"} == {
            sid: float(np.mean(np.argmax(l, axis=1) == truth)) for sid, l in logits.items()}
        whole = (logits["student1"] + logits["student2"]) / 2.0
        assert ens == float(np.mean(np.argmax(whole, axis=1) == truth))

    @pytest.mark.parametrize("case", ["truncated-line", "label-99", "export-truncated-line"])
    def test_bad_label_file_exits_2_naming_it(self, tmp_path, capsys, case):
        _, out = self.finished_run(tmp_path)
        export = case.startswith("export-")  # a file only --with-truth reads
        path = out / "labels" / ("zeroshot.jsonl" if export else "filter_model1.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        if case.endswith("truncated-line"):
            lines[3] = lines[3][:len(lines[3]) // 2] + "\n"
            expected = "line 4 is not JSON"
        else:
            lines[3] = lines[3].replace(f'"label": {json.loads(lines[3])["label"]}',
                                        '"label": 99')
            expected = "label 99 outside [0, 4)"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out), *["--with-truth"] * export) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert str(path) in printed.err and expected in printed.err

    @pytest.mark.parametrize("resize", ["half", "plus8", "flip"])
    def test_corrupt_student_payload_exits_2(self, tmp_path, capsys, resize):
        manifest, out = self.finished_run(tmp_path)
        payload = out / "checkpoints" / "phase2_student1.f64le"
        raw = bytearray(payload.read_bytes())
        if resize == "flip":  # same size: only the checksum catches it
            raw[len(raw) // 2] ^= 0x01
        payload.write_bytes({"half": raw[:len(raw) // 2], "plus8": raw + bytes(8),
                             "flip": raw}[resize])
        with pytest.raises(IntegrityError if resize == "flip" else FormatError,
                           match="phase2_student1.f64le"):
            load_student_checkpoint(str(out / "checkpoints" / "phase2_student1"),
                                    load_dataset(manifest), load_run_config(out).train,
                                    "student1")
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        err = capsys.readouterr().err
        assert "phase2_student1.f64le" in err and "payload" in err

    @pytest.mark.parametrize("stem,tensor", [("phase1_model1", "pos_context"),
                                             ("phase2_student2", "fft_w1")])
    def test_missing_tensor_exits_2(self, tmp_path, capsys, stem, tensor):
        _, out = self.finished_run(tmp_path)
        path = out / "checkpoints" / f"{stem}.json"
        manifest = json.loads(path.read_text())
        for e in manifest["params"]:
            if e["name"].endswith("/" + tensor):
                e["name"] += "_renamed"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{stem}.json" in err and repr(tensor) in err

    def test_wrong_context_shape_exits_2(self, tmp_path, capsys):
        _, out = self.finished_run(tmp_path)
        stem = str(out / "checkpoints" / "phase1_model2")
        params = [param(p.name, p.value[:2]) if p.name.endswith("/neg_context") else p
                  for p in read_checkpoint(stem)]
        save_checkpoint(stem, params)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        err = capsys.readouterr().err
        assert "phase1_model2.json" in err and "neg_context" in err and "(2, 16)" in err

    def test_checkpoint_from_before_v4_exits_2(self, tmp_path, capsys):
        # v3 manifests carry a blake2b checksum, v2 ones none; v1 contexts
        # went through a mixer
        _, out = self.finished_run(tmp_path)
        path = out / "checkpoints" / "phase1_model1.json"
        manifest = json.loads(path.read_text())
        assert manifest["format"] == "coft-checkpoint-v4"
        for old in ("coft-checkpoint-v3", "coft-checkpoint-v2", "coft-checkpoint-v1"):
            path.write_text(json.dumps(dict(manifest, format=old)))
            capsys.readouterr()
            assert run_cli("eval", "--run", str(out)) == 2
            err = capsys.readouterr().err
            assert "phase1_model1.json" in err and "unrecognized checkpoint format" in err
            assert repr(old) in err

    @pytest.mark.parametrize("field, change", [
        ("shape", lambda shape: [str(n) for n in shape]),
        ("shape", lambda shape: [float(n) for n in shape]),
        ("shape", lambda shape: "x".join(map(str, shape))),
        ("offset", float), ("offset", str), ("name", lambda name: [name])])
    def test_tensor_field_of_wrong_json_type_exits_2(self, tmp_path, capsys, field, change):
        _, out = self.finished_run(tmp_path)
        path = out / "checkpoints" / "phase1_model1.json"
        manifest = json.loads(path.read_text())
        manifest["params"][1][field] = change(manifest["params"][1][field])
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"'params[1].{field}'" in err

    @pytest.mark.parametrize("name", ["checkpoints/phase1_model2.json",
                                      "checkpoints/phase2_student2.json",
                                      "checkpoints/phase2_student1.f64le",
                                      "labels/filter_model2.jsonl"])
    def test_missing_run_file_exits_2_naming_it(self, tmp_path, capsys, name):
        # with phase2_student2 gone, eval once scored student1 alone as the
        # ensemble, and later printed nine records before it failed
        _, out = self.finished_run(tmp_path)
        os.remove(out / name)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out)) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert str(out / name) in printed.err

    def test_with_truth_export(self, tmp_path, capsys):
        manifest, out = self.finished_run(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(out), "--with-truth") == 0
        export = out / "labels_with_truth"
        assert export.exists()
        truth = load_ground_truth(manifest)
        for name in ("zeroshot.jsonl", "filter_model1.jsonl"):
            with open(export / name, encoding="utf-8") as f:
                rows = [json.loads(line) for line in f]
            assert rows and all(r["ground_truth"] == truth[r["sample_id"]] for r in rows)
        # the default exports stay truth-free
        assert '"ground_truth"' not in (out / "labels" / "zeroshot.jsonl").read_text()

    def test_with_truth_reads_each_label_file_once(self, tmp_path, capsys, monkeypatch,
                                                   finished_run_dir):
        # the two filter files were once parsed twice
        out = tmp_path / "run"
        shutil.copytree(finished_run_dir[1], out)
        loaded, load = [], PseudoLabelSet.load

        def counted(path):
            loaded.append(os.path.basename(path))
            return load(path)

        monkeypatch.setattr(PseudoLabelSet, "load", staticmethod(counted))
        assert run_cli("eval", "--run", str(out), "--with-truth") == 0
        assert sorted(loaded) == sorted(name for name in os.listdir(out / "labels")
                                        if name.endswith(".jsonl"))


class TestCheckGrads:
    def test_small_suite_passes(self, capsys):
        assert run_cli("check-grads", "--instances", "2") == 0
        out = capsys.readouterr().out
        assert "loss_positive" in out and "[OK]" in out

    @pytest.mark.parametrize("flags, expected", [
        (("--instances", "0"), "--instances must be at least 1, got 0"),
        (("--instances", "-3"), "--instances must be at least 1, got -3"),
        (("--tol", "nan"), "--tol must be a positive finite number, got nan"),
        (("--tol", "-1"), "--tol must be a positive finite number, got -1.0"),
        (("--tol", "inf"), "--tol must be a positive finite number, got inf"),
        (("--seed", "-1"), "--seed must be nonnegative, got -1"),
    ], ids=["instances-0", "instances-negative", "tol-nan", "tol-negative", "tol-inf",
            "seed-negative"])
    def test_argument_that_verifies_nothing_exits_2(self, capsys, flags, expected):
        capsys.readouterr()
        assert run_cli("check-grads", *flags) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and expected in printed.err
