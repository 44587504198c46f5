"""Every pass over the sample table runs in row blocks (``core.row_blocks``)
and gives exactly what one whole-table pass gives.

The acceptance shape has 1,000 rows: one block at the default ``BLOCK_ROWS``,
five blocks of 200 when ``BLOCK_ROWS`` is patched to 200. Blocks are never
patched below about 128 rows, where a matrix product may take BLAS's
small-matrix path and round differently from the whole-table product.
"""

import tracemalloc

import numpy as np
import pytest

from coft import core
from coft.core import SeededRng, map_row_blocks, row_blocks
from coft.data import SyntheticSpec, generate_synthetic
from coft.encoders import init_fft_encoder, logits_batch
from coft.pseudo import PseudoLabelSet, centroid_confidences
from coft.train import (
    TrainConfig,
    collaborative_filter,
    collaborative_filter_both,
    ensemble_predictions,
    generate_labels,
    init_adapted_model,
    iterate_peft,
)

from test_acceptance import ACCEPTANCE_SPEC
from test_pseudo import rows_of


def acceptance_provider(seed=1, per_class=100):
    spec = dict(ACCEPTANCE_SPEC, per_class=per_class)
    return generate_synthetic(SyntheticSpec(seed=seed, **spec))


def perturbed_models(provider, seed=3):
    """Two models off their identity init, so the adapter path carries signal."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(adapter_rank=16)
    models = []
    for mid in ("model1", "model2"):
        model = init_adapted_model(provider, mid, 1, cfg, SeededRng(seed))
        for p in model.params():
            p.value[:] = rng.normal(size=p.shape) * 0.3
        model.trained = True
        models.append(model)
    return models


def whole_and_blocked(monkeypatch, fn):
    """``fn()`` at the default block size (one block of the 1,000 rows), then
    with five blocks of 200 rows."""
    assert len(row_blocks(1000)) == 1
    whole = fn()
    monkeypatch.setattr(core, "BLOCK_ROWS", 200)
    assert len(row_blocks(1000)) == 5
    return whole, fn()


@pytest.fixture(scope="module")
def provider():
    return acceptance_provider()[0]


class TestBlockedEqualsWholeTable:
    def test_zero_shot_table_and_centroid_ranking(self, monkeypatch, provider):
        cfg = TrainConfig(phase1_epochs=0, rounds=1)

        def round_one():
            return iterate_peft(provider, cfg, SeededRng(1))[2]

        whole, blocked = whole_and_blocked(monkeypatch, round_one)
        assert list(whole) == ["zeroshot.jsonl", "round1_model1_selected.jsonl",
                               "round1_model2_selected.jsonl"]
        for name in whole:
            assert rows_of(blocked[name]) == rows_of(whole[name])

    def test_generate_labels(self, monkeypatch, provider):
        model, _ = perturbed_models(provider)
        whole, blocked = whole_and_blocked(monkeypatch, lambda: generate_labels(model))
        assert rows_of(blocked) == rows_of(whole)
        assert whole.sample_ids().tolist() == list(range(provider.num_samples))

    def test_centroid_confidences(self, monkeypatch, provider):
        model, _ = perturbed_models(provider)
        labels = generate_labels(model)
        whole, blocked = whole_and_blocked(
            monkeypatch, lambda: centroid_confidences(labels, provider.image_embeddings, 0.07))
        assert rows_of(blocked) == rows_of(whole)

    def test_collaborative_filter_split(self, monkeypatch, provider):
        model1, model2 = perturbed_models(provider)
        whole, blocked = whole_and_blocked(monkeypatch,
                                           lambda: collaborative_filter(model1, model2))
        assert 0 < len(whole.with_status("clean")) < provider.num_samples
        assert rows_of(blocked) == rows_of(whole)

    def test_student_logits(self, monkeypatch, provider):
        student = init_fft_encoder(provider.dim, provider.num_classes, 2 * provider.dim,
                                   SeededRng(4))
        rng = np.random.default_rng(4)
        for p in student.params():
            p.value[:] = rng.normal(size=p.shape) * 0.4
        emb = provider.image_embeddings
        whole, blocked = whole_and_blocked(
            monkeypatch, lambda: map_row_blocks(lambda x: logits_batch(student, x)[0], emb))
        assert np.array_equal(whole, logits_batch(student, emb)[0])
        assert np.array_equal(blocked, whole)

    def test_ensemble_and_student_hits(self, monkeypatch, provider):
        # reference: whole-table logits, summed, halved, then argmaxed
        rng = np.random.default_rng(5)
        students = []
        for sid in ("student1", "student2"):
            student = init_fft_encoder(provider.dim, provider.num_classes,
                                       2 * provider.dim, SeededRng(5), name_prefix=f"{sid}/")
            for p in student.params():
                p.value[:] = rng.normal(size=p.shape) * 0.4
            students.append(student)
        emb = provider.image_embeddings
        truth = rng.integers(0, provider.num_classes, size=provider.num_samples)
        logits = [logits_batch(s, emb)[0] for s in students]
        expected = np.argmax((logits[0] + logits[1]) / 2.0, axis=1)
        hits = [int(np.count_nonzero(np.argmax(l, axis=1) == truth)) for l in logits]
        whole, blocked = whole_and_blocked(
            monkeypatch, lambda: ensemble_predictions(students, emb, truth))
        for predictions, counts in (whole, blocked):
            assert np.array_equal(predictions, expected)
            assert counts == hits
        assert ensemble_predictions(students, emb)[1] is None

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_save_bytes(self, monkeypatch, provider, tmp_path, with_truth):
        model, _ = perturbed_models(provider)
        ids, labels, conf = generate_labels(model).training_view()
        conf[450] = float("nan")  # in one block only
        table = PseudoLabelSet(ids, labels, conf, "model1")
        truth = ids % provider.num_classes if with_truth else None

        def save():
            path = tmp_path / f"labels{len(row_blocks(1000))}.jsonl"
            table.save(path, truth=truth)
            return path.read_bytes()

        whole, blocked = whole_and_blocked(monkeypatch, save)
        assert b"NaN" in whole
        assert blocked == whole


class TestRowIsSampleId:
    """The filter marks its tables by row, which is right only because every
    generated table covers every sample in id order."""

    def test_generated_and_filtered_tables_cover_every_sample_in_order(self, monkeypatch):
        provider, _ = acceptance_provider(per_class=50)
        n = provider.num_samples
        monkeypatch.setattr(core, "BLOCK_ROWS", 200)
        assert len(row_blocks(n)) == 2
        model1, model2 = perturbed_models(provider)
        assert generate_labels(model1).sample_ids().tolist() == list(range(n))
        for result in collaborative_filter_both(model1, model2).values():
            assert result.sample_ids().tolist() == list(range(n))
            status = np.array([r["status"] for r in rows_of(result)])
            assert 0 < np.count_nonzero(status == "clean") < n
            assert np.all((status == "clean") | (status == "noise"))
            assert result.with_status("clean").sample_ids().tolist() == np.flatnonzero(
                status == "clean").tolist()


@pytest.fixture(scope="module")
def traced_filter():
    """``collaborative_filter`` on a 20,000-row provider (10 classes, 64-d: a
    10.2 MB embedding table) under tracemalloc: (result, peak bytes, bytes
    still held when it returns)."""
    provider, _ = acceptance_provider(per_class=2000)
    model1, model2 = perturbed_models(provider)
    tracemalloc.start()
    try:
        result = collaborative_filter(model1, model2)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 20000
    return result, peak, retained


class TestMemory:
    def test_filter_peak_is_a_fraction_of_the_whole_table_pass(self, traced_filter):
        """tracemalloc saw the whole-table filter that row blocks replaced
        peak at 34.9 MB. Blocked, the pass holds the label columns and one
        block; it must stay below a quarter of that."""
        _, peak, _ = traced_filter
        assert peak < 34.9e6 / 4

    def test_filter_keeps_no_id_index(self, traced_filter):
        """The filter marks each of its 20,000 generated rows; the table it
        returns holds its columns (about 0.7 MB) and nothing per sample beside
        them. With an id-to-row dict per table it held 2.7 MB."""
        _, _, retained = traced_filter
        assert retained < 1.2e6

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_ensemble_peak_follows_the_block_size(self, with_truth):
        """Two hidden-512 students over a 5,000 x 256 table (10.2 MB, not
        traced). The ensemble's temporaries are about 8.8 kB a row of a block,
        mostly hidden-wide: at the default block size (nine blocks of 555
        rows) tracemalloc sees a 4.9 MB peak, while 1,024-row blocks (four of
        1,250 rows) peaked at 10.8 MB."""
        n, dim, classes = 5000, 256, 100
        rng = np.random.default_rng(6)
        emb = core.normalize_rows(rng.normal(size=(n, dim)))
        students = []
        for sid in ("student1", "student2"):
            student = init_fft_encoder(dim, classes, 512, SeededRng(6), name_prefix=f"{sid}/")
            for p in student.params():
                p.value[:] = rng.normal(size=p.shape) * 0.1
            students.append(student)
        truth = rng.integers(0, classes, size=n) if with_truth else None
        tracemalloc.start()
        try:
            predictions, _ = ensemble_predictions(students, emb, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert predictions.shape == (n,)
        assert peak < 7e6
        assert len(row_blocks(n)) == 9

    def test_marking_consecutive_ids_allocates_nothing_per_row(self):
        n = 50_000
        table = PseudoLabelSet(np.arange(n), np.zeros(n), np.zeros(n), "model1")
        moves = [(sid, "clean" if sid % 3 else "noise") for sid in range(n)]
        tracemalloc.start()
        try:
            for sid, status in moves:
                table.mark(sid, status)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 0.5e6
        assert len(table.with_status("noise")) == (n + 2) // 3
