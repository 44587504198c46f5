import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft import core
from coft.core import (
    BLOCK_ROWS,
    SeededRng,
    map_row_blocks,
    normalize_rows,
    row_blocks,
    softmax_rows,
    write_container,
)
from coft.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from coft.errors import DomainError, FormatError
from coft.grad import flat_params, load_checkpoint, param, save_checkpoint

from oracles import softmax_temp


class TestSoftmaxTemp:
    def test_equal_scores_uniform(self):
        for tau in (0.07, 1.0, 5.0):
            p = softmax_rows([[3.3, 3.3, 3.3]], tau)[0]
            np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-15)

    def test_closed_form_two_way(self):
        p = softmax_rows([[1.0, 0.0]], 1.0)[0]
        e = math.e
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], atol=1e-15)

    def test_low_temperature_limit(self):
        p = softmax_rows([[1.0, 0.0]], 0.01)[0]
        assert p[0] > 1 - 1e-10

    def test_sums_to_one_random_dims(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 17, 128, 1024):
            for _ in range(5):
                s = rng.normal(size=d) * 10
                p = softmax_rows([s], float(rng.uniform(0.05, 3.0)))[0]
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 100))
            s = rng.normal(size=d)
            c = float(rng.uniform(-50, 50))
            p1 = softmax_rows([s], 0.5)
            p2 = softmax_rows([s + c], 0.5)
            assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_bad_tau(self):
        with pytest.raises(DomainError):
            softmax_rows([[1.0, 2.0]], 0.0)
        with pytest.raises(DomainError):
            softmax_rows([[1.0, 2.0]], -1.0)

    def test_non_finite_scores(self):
        with pytest.raises(ValueError):
            softmax_rows([[1.0, float("nan")]], 1.0)
        with pytest.raises(ValueError):
            softmax_rows([[1.0, float("inf")]], 1.0)

    def test_rows_matches_vector_version(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 9))
        rows = softmax_rows(m, 0.3)
        for i in range(6):
            np.testing.assert_allclose(rows[i], softmax_temp(m[i], 0.3), atol=1e-15)


class TestL2Normalize:
    def test_axis_vector(self):
        np.testing.assert_allclose(normalize_rows([[2.0, 0.0]]), [[1.0, 0.0]], atol=0)

    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(DomainError):
            normalize_rows([[0.0, 0.0]])

    def test_norm_and_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v = rng.normal(size=(1, int(rng.integers(2, 50))))
            u = normalize_rows(v)[0]
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-9
            np.testing.assert_allclose(u * np.linalg.norm(v), v[0], rtol=1e-12, atol=1e-15)

    def test_rows(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 8))
        r = normalize_rows(m)
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), np.ones(5), atol=1e-12)
        with pytest.raises(DomainError):
            normalize_rows(np.vstack([m, np.zeros(8)]))


class TestSeededRng:
    def test_same_seed_byte_identical(self):
        a = SeededRng(42).stream("x")
        b = SeededRng(42).stream("x")
        da = a.normal((100,))
        db = b.normal((100,))
        assert da.tobytes() == db.tobytes()
        assert a.integers(0, 1000, 50).tobytes() == b.integers(0, 1000, 50).tobytes()
        assert a.permutation(64).tobytes() == b.permutation(64).tobytes()

    def test_fill_normal_draws_what_normal_draws(self):
        out = np.empty((40, 7))
        table = np.zeros((60, 7))
        filled = SeededRng(42).stream("x").fill_normal(out)
        SeededRng(42).stream("x").fill_normal(table[10:50])  # a row block, in place
        expected = SeededRng(42).stream("x").normal((40, 7))
        assert filled is out and out.tobytes() == expected.tobytes()
        assert table[10:50].tobytes() == expected.tobytes() and not table[:10].any()

    def test_different_labels_differ(self):
        root = SeededRng(42)
        x = root.stream("x").normal((16,))
        y = root.stream("y").normal((16,))
        assert not np.array_equal(x, y)

    def test_stream_isolation(self):
        # Draws on one stream must not shift a sibling stream.
        r1 = SeededRng(9)
        r1.stream("a").normal((1000,))
        after = r1.stream("b").normal((8,))
        r2 = SeededRng(9)
        fresh = r2.stream("b").normal((8,))
        assert after.tobytes() == fresh.tobytes()

    def test_nested_labels(self):
        r = SeededRng(1)
        assert (
            r.stream("a").stream("b").normal((4,)).tobytes()
            == SeededRng(1).stream("a/b").normal((4,)).tobytes()
        )

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            SeededRng(-1)
        with pytest.raises(DomainError):
            SeededRng(2**64)


class TestRowBlocks:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(0, 3 * BLOCK_ROWS), st.integers(0, 200 * BLOCK_ROWS)))
    def test_partition_of_long_blocks(self, n):
        blocks = row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        for prev, nxt in zip(blocks, blocks[1:]):
            assert prev.stop == nxt.start
        sizes = [b.stop - b.start for b in blocks]
        assert all(b.step is None for b in blocks)
        assert max(sizes) - min(sizes) <= 1
        if n >= BLOCK_ROWS:
            assert min(sizes) >= BLOCK_ROWS
        if n < 2 * BLOCK_ROWS:
            assert blocks == [slice(0, n)]

    def test_map_row_blocks_stacks_in_row_order(self, monkeypatch):
        monkeypatch.setattr(core, "BLOCK_ROWS", 3)
        table = np.arange(20.0).reshape(10, 2)
        assert len(row_blocks(10)) == 3
        assert np.array_equal(map_row_blocks(lambda x: x * 2.0, table), table * 2.0)
        sums = map_row_blocks(lambda x: x.sum(axis=1).astype(np.int64), table)
        assert sums.dtype == np.int64 and sums.tolist() == table.sum(axis=1).tolist()


def _dataset_files(directory):
    ds, _ = generate_synthetic(SyntheticSpec(classes=2, per_class=3, dim=4, seed=1))
    manifest = save_dataset(ds, directory, name="ds")

    def load():
        back = load_dataset(manifest)
        return [back.image_embeddings, back.class_anchors]
    return manifest, str(directory / "ds.f64le"), load, [
        normalize_rows(ds.image_embeddings), normalize_rows(ds.class_anchors)]


def _checkpoint_files(directory):
    stem = str(directory / "ck")
    params = [param("scalar", 2.5), param("empty", np.zeros(0)),
              param("w", np.arange(6.0).reshape(2, 3))]
    manifest = save_checkpoint(stem, params)

    def load():  # into zeroed tensors of the saved names and shapes
        back = flat_params({p.name: p.shape for p in params})
        load_checkpoint(stem, back)
        return [p.value for p in back]
    return manifest, stem + ".f64le", load, [p.value for p in params]


class TestContainer:
    """Both callers of the payload container: dataset and checkpoint files."""

    @pytest.mark.parametrize("damage", ["none", "payload-minus-8", "manifest-list"])
    @pytest.mark.parametrize("files", [_dataset_files, _checkpoint_files],
                             ids=["dataset", "checkpoint"])
    def test_round_trip(self, tmp_path, files, damage):
        manifest, payload, load, expected = files(tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path) for path in (manifest, payload))  # no *.tmp left
        if damage == "none":
            back = load()
            assert [a.shape for a in back] == [a.shape for a in expected]
            assert [a.tobytes() for a in back] == [a.tobytes() for a in expected]
            return
        damaged = payload if damage == "payload-minus-8" else manifest
        if damage == "payload-minus-8":
            with open(payload, "rb") as f:
                raw = f.read()
            with open(payload, "wb") as f:
                f.write(raw[:-8])
        else:
            with open(manifest, "w", encoding="utf-8") as f:
                json.dump([1, 2], f)
        with pytest.raises(FormatError, match=re.escape(damaged)):
            load()

    @pytest.mark.parametrize("files", [_dataset_files, _checkpoint_files],
                             ids=["dataset", "checkpoint"])
    def test_checksum_is_the_payloads_sha256(self, tmp_path, files):
        manifest, payload, _, _ = files(tmp_path)
        with open(payload, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        with open(manifest, encoding="utf-8") as f:
            assert json.load(f)["checksum"] == digest

    @pytest.mark.parametrize("change", [
        lambda fields, raw: fields.pop("checksum"),
        lambda fields, raw: fields.update(checksum=None),
        lambda fields, raw: fields.update(checksum=hashlib.blake2b(raw, digest_size=8)
                                          .hexdigest()),
        lambda fields, raw: fields.update(checksum=hashlib.sha256(raw).hexdigest().upper()),
        lambda fields, raw: fields.update(checksum=hashlib.sha256(raw).hexdigest() + "\n"),
    ], ids=["missing", "null", "blake2b", "upper-case", "newline"])
    @pytest.mark.parametrize("files", [_dataset_files, _checkpoint_files],
                             ids=["dataset", "checkpoint"])
    def test_checksum_other_than_64_hex_digits_is_refused(self, tmp_path, files, change):
        manifest, payload, load, _ = files(tmp_path)
        with open(payload, "rb") as f:
            raw = f.read()
        with open(manifest, encoding="utf-8") as f:
            fields = json.load(f)
        change(fields, raw)
        with open(manifest, "w", encoding="utf-8") as f:
            json.dump(fields, f)
        with pytest.raises(FormatError, match=re.escape(f"{manifest}: ") + ".*'checksum'"):
            load()

    def test_failed_write_keeps_the_previous_files(self, tmp_path):
        manifest, payload = str(tmp_path / "c.json"), str(tmp_path / "c.f64le")
        write_container(manifest, payload, [np.ones(3)], {"n": 1})
        before = [open(path, "rb").read() for path in (manifest, payload)]
        with pytest.raises(ValueError):
            write_container(manifest, payload, [np.zeros(3), np.array(["x"])], {"n": 2})
        assert [open(path, "rb").read() for path in (manifest, payload)] == before
        assert sorted(os.listdir(tmp_path)) == ["c.f64le", "c.json"]  # no *.tmp left
