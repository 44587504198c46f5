import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from coft import core
from coft.core import SeededRng, normalize_rows
from coft.data import (
    MetricsWriter,
    SyntheticSpec,
    _orthonormal_centers,
    generate_synthetic,
    load_dataset,
    load_ground_truth,
    save_dataset,
)
from coft.errors import ConfigError, FormatError, IntegrityError


def zero_shot_accuracy(ds, truth):
    pred = np.argmax(ds.image_embeddings @ ds.class_anchors.T, axis=1)
    return float(np.mean(pred == truth))


def spec(**kw):
    base = dict(classes=5, per_class=40, dim=32, separation=1.0,
                noise_sigma=0.4, anchor_alignment=0.6, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        a, ta = generate_synthetic(spec(seed=7))
        b, tb = generate_synthetic(spec(seed=7))
        assert a.image_embeddings.tobytes() == b.image_embeddings.tobytes()
        assert a.class_anchors.tobytes() == b.class_anchors.tobytes()
        assert ta.tobytes() == tb.tobytes()
        c, _ = generate_synthetic(spec(seed=8))
        assert a.image_embeddings.tobytes() != c.image_embeddings.tobytes()

    def test_perfect_alignment_no_noise_is_separable(self):
        ds, truth = generate_synthetic(spec(anchor_alignment=1.0, noise_sigma=1e-9))
        assert zero_shot_accuracy(ds, truth) == 1.0

    def test_zero_alignment_is_chance_level(self):
        accs = []
        for seed in range(5):
            ds, truth = generate_synthetic(spec(anchor_alignment=0.0, seed=seed))
            accs.append(zero_shot_accuracy(ds, truth))
        assert abs(float(np.mean(accs)) - 0.2) <= 0.05

    def test_accuracy_monotone_in_alignment(self):
        meds = []
        for alignment in (0.0, 0.3, 0.6, 1.0):
            accs = [
                zero_shot_accuracy(*generate_synthetic(spec(anchor_alignment=alignment, seed=s)))
                for s in range(5)
            ]
            meds.append(float(np.median(accs)))
        assert all(b >= a for a, b in zip(meds, meds[1:]))

    def test_accuracy_monotone_in_separation(self):
        meds = []
        for sep in (0.2, 0.5, 0.8, 1.0):
            accs = [
                zero_shot_accuracy(
                    *generate_synthetic(
                        spec(classes=4, dim=6, separation=sep, anchor_alignment=1.0,
                             noise_sigma=0.5, seed=s)
                    )
                )
                for s in range(5)
            ]
            meds.append(float(np.median(accs)))
        assert all(b >= a - 1e-12 for a, b in zip(meds, meds[1:]))

    def test_orthogonal_centers_unit_and_orthogonal(self):
        ds, _ = generate_synthetic(spec(anchor_alignment=1.0, noise_sigma=1e-9))
        gram = ds.class_anchors @ ds.class_anchors.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)

    def test_separated_centers_hit_target_cosine(self):
        s = spec(separation=0.3, classes=4, dim=16, anchor_alignment=1.0, noise_sigma=1e-9)
        ds, _ = generate_synthetic(s)
        centers = ds.class_anchors
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(centers[i] @ centers[j]) == pytest.approx(0.7, abs=1e-9)

    def test_partial_separation_needs_extra_dim(self):
        with pytest.raises(ConfigError):
            generate_synthetic(spec(separation=0.5, classes=5, dim=5))

    def test_dim_too_small_for_orthogonal(self):
        with pytest.raises(ConfigError):
            generate_synthetic(spec(classes=10, dim=2))

    @pytest.mark.parametrize("name", ["separation", "noise_sigma", "anchor_alignment"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            generate_synthetic(spec(**{name: value}))

    def test_rows_normalized(self):
        ds, _ = generate_synthetic(spec())
        np.testing.assert_allclose(np.linalg.norm(ds.image_embeddings, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(ds.class_anchors, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.4, 0.0])
    def test_table_equals_per_class_stack(self, sigma):
        # reference: each class's rows drawn and normalized on their own,
        # then stacked, as the generator did before it filled one table
        s = spec(per_class=30, noise_sigma=sigma)
        rng = SeededRng(s.seed)
        centers = _orthonormal_centers(s.classes, s.dim, rng.stream("synth/centers"))
        noise = rng.stream("synth/noise")
        reference = np.vstack([
            normalize_rows(centers[c][None, :] + s.noise_sigma * noise.normal((s.per_class, s.dim)))
            for c in range(s.classes)])
        ds, truth = generate_synthetic(s)
        assert ds.image_embeddings.tobytes() == reference.tobytes()
        assert truth.dtype == np.int64
        assert truth.tolist() == [c for c in range(s.classes) for _ in range(s.per_class)]

    def test_peak_memory_at_most_one_and_three_tenths_tables(self):
        """Generating 20,000 x 64 (20 classes, as in the label-heavy shape)
        peaks at no more than 1.3 embedding tables under tracemalloc: the
        table and a few arrays of one class's size. Stacking per-class arrays
        and copying them into the provider peaked at 3.19 tables."""
        s = SyntheticSpec(classes=20, per_class=1000, dim=64, seed=1)
        tracemalloc.start()
        try:
            ds, _ = generate_synthetic(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ds.image_embeddings.nbytes <= 1.3


def write_dataset(directory, embeddings, anchors, name="t"):
    """Manifest and payload written by hand, as the file format specifies, so
    the rows may be off unit norm; returns the manifest path."""
    raw = np.vstack([embeddings, anchors]).astype("<f8").tobytes()
    (directory / f"{name}.f64le").write_bytes(raw)
    manifest = directory / f"{name}.json"
    manifest.write_text(json.dumps({
        "name": name, "num_samples": len(embeddings), "num_classes": len(anchors),
        "dim": anchors.shape[1], "class_names": [f"c{k}" for k in range(len(anchors))],
        "payload_path": f"{name}.f64le",
        "checksum": hashlib.sha256(raw).hexdigest(),
        "has_ground_truth": False,
    }))
    return str(manifest)


class TestDatasetFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        # the payload holds the generated bits; load normalizes each row once
        ds, truth = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path, truth=truth)
        back = load_dataset(manifest)
        assert back.image_embeddings.tobytes() == normalize_rows(ds.image_embeddings).tobytes()
        assert back.class_anchors.tobytes() == normalize_rows(ds.class_anchors).tobytes()
        assert (back.name, back.class_names) == (ds.name, ds.class_names)
        np.testing.assert_array_equal(load_ground_truth(manifest), truth)

    def test_payload_is_headerless_little_endian(self, tmp_path):
        ds, _ = generate_synthetic(spec(classes=2, per_class=3, dim=4, anchor_alignment=1.0))
        manifest = save_dataset(ds, tmp_path)
        payload = os.path.join(tmp_path, json.load(open(manifest))["payload_path"])
        raw = open(payload, "rb").read()
        expected = np.vstack([ds.image_embeddings, ds.class_anchors]).astype("<f8").tobytes()
        assert raw == expected

    def test_corrupted_payload_byte(self, tmp_path):
        ds, _ = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path)
        payload = os.path.join(tmp_path, json.load(open(manifest))["payload_path"])
        raw = bytearray(open(payload, "rb").read())
        raw[100] ^= 0xFF
        with open(payload, "wb") as f:
            f.write(raw)
        with pytest.raises(IntegrityError):
            load_dataset(manifest)

    def test_zero_sample_manifest_rejected(self, tmp_path):
        ds, _ = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path)
        d = json.load(open(manifest))
        d["num_samples"] = 0
        with open(manifest, "w") as f:
            json.dump(d, f)
        with pytest.raises(FormatError):
            load_dataset(manifest)

    def test_dim_mismatch_rejected(self, tmp_path):
        ds, _ = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path)
        d = json.load(open(manifest))
        d["dim"] = d["dim"] + 1
        with open(manifest, "w") as f:
            json.dump(d, f)
        with pytest.raises(FormatError):
            load_dataset(manifest)

    def test_loader_never_needs_sidecar(self, tmp_path):
        ds, truth = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path, truth=truth)
        payload = os.path.join(tmp_path, json.load(open(manifest))["payload_path"])
        os.remove(payload + ".truth")
        load_dataset(manifest)  # training-facing load is unaffected
        with pytest.raises(FileNotFoundError):
            load_ground_truth(manifest)

    def test_truthless_dataset_refuses_truth_read(self, tmp_path):
        ds, _ = generate_synthetic(spec())
        manifest = save_dataset(ds, tmp_path)
        with pytest.raises(FormatError):
            load_ground_truth(manifest)

    def test_off_norm_rows_renormalized_with_warning(self, tmp_path):
        emb = normalize_rows(np.random.default_rng(0).normal(size=(4, 6)))
        emb[1] *= 1.001
        anchors = normalize_rows(np.random.default_rng(1).normal(size=(2, 6)))
        manifest = write_dataset(tmp_path, emb, anchors)
        with pytest.warns(UserWarning, match="embedding rows off unit norm"):
            back = load_dataset(manifest)
        assert back.image_embeddings.tobytes() == normalize_rows(emb).tobytes()
        assert back.class_names == ("c0", "c1")

    def test_zero_norm_row_rejected_naming_the_payload(self, tmp_path):
        emb = normalize_rows(np.random.default_rng(0).normal(size=(4, 6)))
        emb[2] = 0.0
        manifest = write_dataset(tmp_path, emb, np.eye(6)[:2])
        with pytest.raises(FormatError, match="t.f64le: zero-norm embedding row"):
            load_dataset(manifest)

    @pytest.mark.parametrize("table, row", [("embedding", 3), ("anchor", 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_naming_the_payload(self, tmp_path, table, row, value):
        # a NaN norm once passed the zero check and reached the provider's
        # unit-norm check, whose error names no file
        emb = normalize_rows(np.random.default_rng(0).normal(size=(4, 6)))
        anchors = np.eye(6)[:2]
        (emb if table == "embedding" else anchors)[row, 1] = value
        manifest = write_dataset(tmp_path, emb, anchors)
        with pytest.raises(FormatError, match=f"t.f64le: non-finite {table} row {row} "):
            load_dataset(manifest)

    def test_blocked_load_equals_whole_table(self, tmp_path, monkeypatch):
        # rows far off unit norm, so every row's normalization is exercised;
        # 1,000 rows make five blocks of 200
        emb = np.random.default_rng(2).normal(size=(1000, 16))
        anchors = np.random.default_rng(3).normal(size=(3, 16))
        manifest = write_dataset(tmp_path, emb, anchors)
        monkeypatch.setattr(core, "BLOCK_ROWS", 200)
        assert len(core.row_blocks(1000)) == 5
        with pytest.warns(UserWarning):
            back = load_dataset(manifest)
        assert back.image_embeddings.tobytes() == normalize_rows(emb).tobytes()
        assert back.class_anchors.tobytes() == normalize_rows(anchors).tobytes()

    def test_load_peak_memory_below_two_and_a_half_tables(self, tmp_path):
        """Loading a 20,000 x 64 payload peaks below 2.5 embedding tables under
        tracemalloc: the raw bytes and the normalized table, then the normalized
        table and the provider's copy, with only row-block temporaries beside
        them. Before load built the provider itself it peaked at 3.03 tables."""
        emb = normalize_rows(np.random.default_rng(4).normal(size=(20_000, 64)))
        manifest = write_dataset(tmp_path, emb, np.eye(64)[:10])
        tracemalloc.start()
        try:
            load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / emb.nbytes < 2.5

    def test_load_peak_memory_at_most_one_and_three_tenths_tables(self, tmp_path):
        """Loading reads the payload block by block into the one table the
        provider adopts, so the peak is that table plus row blocks."""
        emb = normalize_rows(np.random.default_rng(4).normal(size=(20_000, 64)))
        manifest = write_dataset(tmp_path, emb, np.eye(64)[:10])
        tracemalloc.start()
        try:
            back = load_dataset(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.image_embeddings.tobytes() == normalize_rows(emb).tobytes()
        assert peak / emb.nbytes <= 1.3

    @pytest.mark.parametrize("damage, expected", [
        (lambda t: t[:5], "ground truth length"),
        (lambda t: np.where(np.arange(t.size) == 7, -1, t), r"labels must lie in \[0, 5\)"),
        (lambda t: np.where(np.arange(t.size) == 7, 5, t), r"labels must lie in \[0, 5\)"),
    ], ids=["short", "negative", "num-classes"])
    def test_bad_truth_writes_nothing(self, tmp_path, damage, expected):
        # an out-of-range label once went into a sidecar that load_ground_truth refuses
        ds, truth = generate_synthetic(spec())
        with pytest.raises(FormatError, match=expected):
            save_dataset(ds, tmp_path / "d", truth=damage(truth))
        assert not (tmp_path / "d").exists() or not os.listdir(tmp_path / "d")


class TestMetricsWriter:
    def test_append_and_read(self, tmp_path):
        p = tmp_path / "metrics.jsonl"
        w = MetricsWriter(p)
        w.write(phase=1, epoch=0, loss=1.5)
        w.write(phase=1, epoch=1, loss=1.2, extra="x")
        rows = MetricsWriter.read(p)
        assert rows == [
            {"epoch": 0, "loss": 1.5, "phase": 1},
            {"epoch": 1, "extra": "x", "loss": 1.2, "phase": 1},
        ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_file(self):
        # /dev/full refuses every write with ENOSPC, an error that names no file
        w = MetricsWriter("/dev/full")
        for call in (lambda: w.write(step=0), w.close):  # close retries the buffered line
            with pytest.raises(OSError, match=r"^\[Errno 28\] .*: '/dev/full'$"):
                call()

    def test_truncates_on_open_and_closes_in_with(self, tmp_path):
        p = tmp_path / "metrics.jsonl"
        p.write_text('{"stale": 1}\n')
        with MetricsWriter(p) as w:
            w.write(step=0)
        assert MetricsWriter.read(p) == [{"step": 0}]
        with pytest.raises(ValueError):
            w.write(step=1)
