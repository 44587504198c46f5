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
    ensemble_predictions,
    generate_labels,
    init_adapted_model,
    iterate_peft,
)

ACCEPTANCE_SPEC = dict(classes=10, per_class=100, dim=64,
                       noise_sigma=0.4, anchor_alignment=0.6)


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


def records(table):
    return list(table)


@pytest.fixture(scope="module")
def provider():
    return acceptance_provider()[0]


class TestBlockedEqualsWholeTable:
    def test_zero_shot_table_and_centroid_ranking(self, monkeypatch, provider):
        cfg = TrainConfig(phase1_epochs=0, rounds=1)

        def round_one():
            _, _, log = iterate_peft(provider, cfg, SeededRng(1), provider.class_anchors)
            return log[0]

        whole, blocked = whole_and_blocked(monkeypatch, round_one)
        assert records(blocked["generated"]["model1"]) == records(whole["generated"]["model1"])
        for mid in ("model1", "model2"):
            assert records(blocked["selected"][mid]) == records(whole["selected"][mid])

    def test_generate_labels(self, monkeypatch, provider):
        model, _ = perturbed_models(provider)
        ids = np.random.default_rng(0).permutation(provider.num_samples)
        whole, blocked = whole_and_blocked(monkeypatch, lambda: generate_labels(model, ids))
        assert records(blocked) == records(whole)
        assert whole.sample_ids().tolist() == ids.tolist()

    def test_centroid_confidences(self, monkeypatch, provider):
        model, _ = perturbed_models(provider)
        labels = generate_labels(model)
        whole, blocked = whole_and_blocked(
            monkeypatch, lambda: centroid_confidences(labels, provider.image_embeddings, 0.07))
        assert records(blocked) == records(whole)

    def test_collaborative_filter_split(self, monkeypatch, provider):
        model1, model2 = perturbed_models(provider)
        whole, blocked = whole_and_blocked(monkeypatch,
                                           lambda: collaborative_filter(model1, model2))
        assert 0 < whole.clean_ids.size < provider.num_samples
        assert blocked.clean_ids.tolist() == whole.clean_ids.tolist()
        assert blocked.noise_ids.tolist() == whole.noise_ids.tolist()
        assert records(blocked.labels) == records(whole.labels)

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
        rows = records(generate_labels(model))
        for r in rows:
            r.ground_truth = r.sample_id % provider.num_classes
        rows[450].confidence = float("nan")  # in one block only
        table = PseudoLabelSet(rows)

        def save():
            path = tmp_path / f"labels{len(row_blocks(1000))}.jsonl"
            table.save(path, with_truth=with_truth)
            return path.read_bytes()

        whole, blocked = whole_and_blocked(monkeypatch, save)
        assert b"NaN" in whole
        assert blocked == whole


class TestMemory:
    def test_filter_peak_is_a_fraction_of_the_whole_table_pass(self):
        """On a 20,000-row provider (10 classes, 64-d: a 10.2 MB embedding
        table), tracemalloc saw the whole-table filter that row blocks
        replaced peak at 34.9 MB. Blocked, the pass holds the label columns
        and one block; it must stay below a quarter of that."""
        provider, _ = acceptance_provider(per_class=2000)
        model1, model2 = perturbed_models(provider)
        tracemalloc.start()
        try:
            result = collaborative_filter(model1, model2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.labels) == 20000
        assert peak < 34.9e6 / 4
