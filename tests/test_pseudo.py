import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft.core import normalize_rows
from coft.encoders import FrozenProvider
from coft.errors import ContractError, DomainError, FormatError
from coft.pseudo import (
    GENERATORS,
    STATUSES,
    PseudoLabelRecord,
    PseudoLabelSet,
    assign_pseudo_labels,
    centroid_confidences,
    class_probabilities,
    select_top_k,
)


def zero_shot_oracle(image_emb, texts, tau):
    """Straight-line zero-shot distribution: cosine, exp, normalize."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def norm(a):
        return math.sqrt(dot(a, a))

    sims = [dot(image_emb, t) / (norm(image_emb) * norm(t)) for t in texts]
    exps = [math.exp(s / tau) for s in sims]
    z = sum(exps)
    return [e / z for e in exps]


def make_provider(n=8, c=4, d=6, seed=0):
    rng = np.random.default_rng(seed)
    emb = normalize_rows(rng.normal(size=(n, d)))
    anchors = normalize_rows(rng.normal(size=(c, d)))
    return FrozenProvider(emb, anchors)


class TestZeroShotProbs:
    """Zero-shot distributions: ``class_probabilities`` against class texts."""

    def test_anchor_aligned_sample(self):
        d = 5
        anchors = np.eye(d)[:3]
        emb = np.eye(d)[2][None, :]  # equals anchor of class 2
        p = class_probabilities(emb, anchors, 0.07)[0]
        assert np.argmax(p) == 2
        assert p[2] > 0.99

    def test_identical_anchors_uniform(self):
        provider = make_provider()
        t = provider.class_anchors[0]
        texts = np.tile(t, (3, 1))
        p = class_probabilities(provider.image_embeddings[:1], texts, 0.07)[0]
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-12)

    def test_temperature_monotonicity(self):
        provider = make_provider(seed=1)
        p1 = class_probabilities(provider.image_embeddings, provider.class_anchors, 0.07)
        p2 = class_probabilities(provider.image_embeddings, provider.class_anchors, 0.14)
        assert np.array_equal(np.argmax(p1, axis=1), np.argmax(p2, axis=1))
        assert np.all(p2.max(axis=1) < p1.max(axis=1))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 10))
            emb = normalize_rows(rng.normal(size=(1, d)))
            texts = normalize_rows(rng.normal(size=(c, d)))
            tau = float(rng.uniform(0.05, 2.0))
            got = class_probabilities(emb, texts, tau)[0]
            want = zero_shot_oracle(emb[0], texts, tau)
            assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_unnormalized_texts_rejected(self):
        provider = make_provider()
        with pytest.raises(DomainError):
            class_probabilities(provider.image_embeddings, 2.0 * provider.class_anchors, 0.07)


class TestAssignPseudoLabels:
    def test_basic(self):
        ps = assign_pseudo_labels(np.array([[0.1, 0.7, 0.2]]))
        r = ps.get(0)
        assert (r.label, r.confidence, r.status) == (1, 0.7, "candidate")

    def test_tie_breaks_low(self):
        ps = assign_pseudo_labels(np.array([[0.5, 0.5]]))
        assert ps.get(0).label == 0

    def test_batch_matches_argmax_oracle(self):
        rng = np.random.default_rng(3)
        raw = rng.random((100, 7))
        probs = raw / raw.sum(axis=1, keepdims=True)
        ps = assign_pseudo_labels(probs)
        for i in range(100):
            row = list(probs[i])
            best = max(range(7), key=lambda k: (row[k], -k))
            r = ps.get(i)
            assert r.label == best
            assert r.confidence == row[best]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        raw = rng.random((20, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        ids = np.arange(20)
        perm = rng.permutation(20)
        a = assign_pseudo_labels(probs, sample_ids=ids)
        b = assign_pseudo_labels(probs[perm], sample_ids=ids[perm])
        for sid in ids:
            ra, rb = a.get(sid), b.get(sid)
            assert (ra.label, ra.confidence) == (rb.label, rb.confidence)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            assign_pseudo_labels(np.zeros((0, 3)))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ContractError):
            assign_pseudo_labels(np.array([[0.5, 0.2]]))


def _records(spec):
    # spec: list of (sample_id, label, confidence)
    return PseudoLabelSet(
        [PseudoLabelRecord(s, l, c, "zeroshot") for s, l, c in spec]
    )


class TestSelectTopK:
    def test_simple(self):
        ps = _records([(1, 0, 0.9), (2, 0, 0.8), (3, 1, 0.7)])
        out = select_top_k(ps, 1, num_classes=2)
        assert sorted(r.sample_id for r in out) == [1, 3]

    def test_k_exceeds_population(self):
        ps = _records([(1, 0, 0.9), (2, 0, 0.8)])
        with pytest.warns(UserWarning):
            out = select_top_k(ps, 10, num_classes=2)
        assert sorted(r.sample_id for r in out) == [1, 2]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        c, k = 5, 3
        spec = [(i, int(rng.integers(0, c)), float(rng.random())) for i in range(200)]
        ps = _records(spec)
        got = {r.sample_id for r in select_top_k(ps, k, num_classes=c)}
        want = set()
        for cls in range(c):
            members = sorted(
                [(conf, sid) for sid, lab, conf in spec if lab == cls],
                key=lambda t: (-t[0], t[1]),
            )
            want.update(sid for _, sid in members[:k])
        assert got == want

    def test_per_class_budget(self):
        rng = np.random.default_rng(6)
        spec = [(i, int(rng.integers(0, 4)), float(rng.random())) for i in range(120)]
        out = select_top_k(_records(spec), 7, num_classes=4)
        counts = {}
        for r in out:
            counts[r.label] = counts.get(r.label, 0) + 1
        assert all(n <= 7 for n in counts.values())

    def test_deterministic_tie_order(self):
        ps = _records([(5, 0, 0.5), (2, 0, 0.5), (9, 0, 0.5)])
        out = select_top_k(ps, 2, num_classes=1)
        assert [r.sample_id for r in out] == [2, 5]

    def test_k_domain(self):
        with pytest.raises(DomainError):
            select_top_k(_records([(0, 0, 0.5)]), 0, num_classes=1)


class TestCentroidConfidences:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(3, 20))
            d = int(rng.integers(3, 8))
            emb = normalize_rows(rng.normal(size=(n, d)))
            tau = float(rng.uniform(0.05, 2.0))
            ids = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            labels = PseudoLabelSet([
                PseudoLabelRecord(int(sid), int(rng.integers(0, c)), float(rng.random()),
                                  "zeroshot") for sid in ids])
            got = centroid_confidences(labels, emb, tau)
            present = sorted({r.label for r in labels})
            centroids = []
            for k in present:
                rows = [emb[r.sample_id].tolist() for r in labels if r.label == k]
                centroids.append([sum(col) / len(rows) for col in zip(*rows)])
            assert [r.sample_id for r in got] == [r.sample_id for r in labels]
            for r in got:
                assert r.label == labels.get(r.sample_id).label
                assert r.status == "candidate"
                want = zero_shot_oracle(emb[r.sample_id].tolist(), centroids, tau)
                assert abs(r.confidence - want[present.index(r.label)]) <= 1e-12

    def test_confidence_ranks_by_closeness_to_the_centroid(self):
        # class 0 holds e0 and a sample leaning toward e1, class 1 holds e1 alone
        emb = normalize_rows(np.array([[1.0, 0.0], [1.0, 0.8], [0.0, 1.0]]))
        labels = PseudoLabelSet([PseudoLabelRecord(0, 0, 0.1, "zeroshot"),
                                 PseudoLabelRecord(1, 0, 0.9, "zeroshot"),
                                 PseudoLabelRecord(2, 1, 0.5, "zeroshot")])
        got = centroid_confidences(labels, emb, 0.07)
        assert got.get(0).confidence > got.get(1).confidence
        assert [r.sample_id for r in select_top_k(got, 1, 2)] == [0, 2]

    def test_empty(self):
        assert len(centroid_confidences(PseudoLabelSet([]), np.eye(2), 0.07)) == 0


class TestPseudoLabelSet:
    def test_status_transitions(self):
        ps = _records([(0, 1, 0.6)])
        ps.mark(0, "clean")
        assert ps.get(0).status == "clean"
        with pytest.raises(ContractError):
            ps.mark(0, "noise")

    def test_illegal_jump(self):
        ps = PseudoLabelSet([PseudoLabelRecord(0, 1, 0.6, "zeroshot", status="unassigned")])
        with pytest.raises(ContractError):
            ps.mark(0, "clean")
        ps.mark(0, "candidate")
        ps.mark(0, "noise")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            _records([(0, 1, 0.5), (0, 2, 0.6)])

    def test_training_view_has_no_truth(self):
        ps = _records([(0, 1, 0.5), (4, 0, 0.9)])
        ps.attach_ground_truth(np.array([1, 0, 0, 0, 1]))
        view = ps.training_view()
        assert len(view) == 3  # ids, labels, confidences only
        ids, labels, conf = view
        np.testing.assert_array_equal(ids, [0, 4])
        np.testing.assert_array_equal(labels, [1, 0])
        np.testing.assert_allclose(conf, [0.5, 0.9])

    def test_save_withholds_truth_by_default(self, tmp_path):
        ps = _records([(0, 1, 0.5)])
        ps.attach_ground_truth(np.array([1]))
        p = tmp_path / "labels.jsonl"
        ps.save(p)
        assert "ground_truth" not in p.read_text()
        ps.save(p, with_truth=True)
        assert '"ground_truth": 1' in p.read_text()

    def test_round_trip(self, tmp_path):
        ps = _records([(3, 2, 0.125), (1, 0, 0.75)])
        ps.mark(3, "noise")
        p = tmp_path / "labels.jsonl"
        ps.save(p)
        back = PseudoLabelSet.load(p)
        assert len(back) == 2
        for r in ps:
            b = back.get(r.sample_id)
            assert (b.label, b.confidence, b.generator, b.status) == (
                r.label, r.confidence, r.generator, r.status,
            )

    @pytest.mark.parametrize("line, message", [
        ('{"confidence": 0.5, "generator": "zero', "line 2 is not JSON"),
        (b'{"confidence": 0.5, "generator": "\xff"}', "line 2 is not JSON"),
        ('[1, 2]', "line 2 is not a JSON object"),
        ('{"confidence": 0.5, "generator": "model1", "sample_id": 7, "status": "clean"}',
         "line 2: field 'label' is missing"),
        ('{"confidence": 0.5, "generator": "model1", "label": "2", "sample_id": 7, '
         '"status": "clean"}', "line 2: field 'label' is missing or of the wrong type"),
        ('{"confidence": true, "generator": "model1", "label": 2, "sample_id": 7, '
         '"status": "clean"}', "line 2: field 'confidence'"),
        ('{"confidence": 0.5, "generator": "model9", "label": 2, "sample_id": 7, '
         '"status": "clean"}', "unknown generator 'model9'"),
        ('{"confidence": 0.5, "generator": "model1", "label": 2, "sample_id": 3, '
         '"status": "clean"}', "duplicate sample_id 3"),
        ('{"confidence": 0.5, "generator": "model1", "label": 2, "sample_id": 1' + '0' * 30
         + ', "status": "clean"}', "too large"),
    ])
    def test_malformed_file_names_the_file(self, tmp_path, line, message):
        p = tmp_path / "labels.jsonl"
        _records([(3, 2, 0.125)]).save(p)
        with open(p, "ab") as f:
            f.write((line.encode("utf-8") if isinstance(line, str) else line) + b"\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(p))}: .*{re.escape(message)}"):
            PseudoLabelSet.load(p)

    def test_accuracy(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6), (2, 1, 0.7)])
        assert ps.accuracy(np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_class_probabilities_batch_consistency(self):
        provider = make_provider(seed=7)
        all_p = class_probabilities(provider.image_embeddings, provider.class_anchors, 0.2)
        for sid in range(provider.num_samples):
            one = provider.image_embeddings[sid:sid + 1]
            np.testing.assert_allclose(
                all_p[sid], class_probabilities(one, provider.class_anchors, 0.2)[0],
                atol=1e-15,
            )


class TestSelectionBeatsCandidates:
    def test_top_k_accuracy_at_least_candidate_accuracy(self):
        # confidence correlates with correctness on the synthetic clusters,
        # so the high-confidence subset must label at least as well as the pool
        from coft.data import SyntheticSpec, generate_synthetic

        for seed in range(5):
            spec = SyntheticSpec(classes=5, per_class=40, dim=32, noise_sigma=0.4,
                                 anchor_alignment=0.6, seed=seed)
            provider, truth = generate_synthetic(spec)
            probs = class_probabilities(provider.image_embeddings,
                                        provider.class_anchors, 0.07)
            candidates = assign_pseudo_labels(probs)
            selected = select_top_k(candidates, 12, provider.num_classes)
            assert selected.accuracy(truth) >= candidates.accuracy(truth)


# ---------------------------------------------------------------------------
# Properties of the label table against per-record oracles
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SPECIAL_FLOATS = st.sampled_from([0.1, 1.0, 5e-324, 1e-300, 0.0, -0.0, 1 / 3, 0.5])
FINITE = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def record_lists(draw, confidences=FINITE, labels=st.integers(-3, 10**12),
                 statuses=st.sampled_from(STATUSES), max_size=25):
    n = draw(st.integers(0, max_size))
    ids = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n, unique=True))
    return [
        PseudoLabelRecord(sid, draw(labels), draw(confidences),
                          draw(st.sampled_from(GENERATORS)), draw(statuses),
                          draw(st.one_of(st.none(), st.integers(0, 10**6))))
        for sid in ids
    ]


def json_oracle(records, with_truth):
    """The export format: one json.dumps(record, sort_keys=True) per line."""
    lines = []
    for r in records:
        rec = {"sample_id": r.sample_id, "label": r.label, "confidence": r.confidence,
               "generator": r.generator, "status": r.status}
        if with_truth:
            rec["ground_truth"] = r.ground_truth
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


LEGAL_MOVES = {("unassigned", "candidate"), ("candidate", "clean"), ("candidate", "noise")}


class TestLabelTableProperties:
    @PROPERTY
    @given(record_lists(confidences=ANY_FLOAT), st.booleans())
    def test_save_bytes_equal_json_oracle(self, tmp_path_factory, records, with_truth):
        path = tmp_path_factory.mktemp("save") / "labels.jsonl"
        PseudoLabelSet(records).save(path, with_truth=with_truth)
        assert path.read_bytes() == json_oracle(records, with_truth).encode("utf-8")

    def test_save_of_a_table_without_truth(self, tmp_path):
        ps = assign_pseudo_labels(np.array([[0.1, 0.9], [0.6, 0.4]]), generator="model2")
        path = tmp_path / "labels.jsonl"
        ps.save(path, with_truth=True)
        assert path.read_text() == json_oracle(list(ps), True)
        assert path.read_text().count('"ground_truth": null') == 2

    @PROPERTY
    @given(record_lists(confidences=ANY_FLOAT), st.booleans())
    def test_load_of_save_round_trips(self, tmp_path_factory, records, with_truth):
        path = tmp_path_factory.mktemp("load") / "labels.jsonl"
        table = PseudoLabelSet(records)
        table.save(path, with_truth=with_truth)
        back = PseudoLabelSet.load(path)
        assert len(back) == len(records)
        for r, b in zip(records, back):
            assert (b.sample_id, b.label, b.generator, b.status) == (
                r.sample_id, r.label, r.generator, r.status)
            assert b.ground_truth == (r.ground_truth if with_truth else None)
            assert b.confidence == r.confidence or (math.isnan(b.confidence)
                                                    and math.isnan(r.confidence))
            assert math.copysign(1.0, b.confidence) == math.copysign(1.0, r.confidence)

    @PROPERTY
    @given(record_lists(confidences=st.one_of(SPECIAL_FLOATS, st.sampled_from([0.25, 0.75])),
                        labels=st.integers(0, 5), max_size=40),
           st.integers(1, 6), st.integers(1, 8))
    def test_select_top_k_equals_sort_oracle(self, records, k, num_classes):
        records = [r for r in records if r.label < num_classes]
        want, empty = [], []
        for c in range(num_classes):
            group = sorted((r for r in records if r.status == "candidate" and r.label == c),
                           key=lambda r: (-r.confidence, r.sample_id))
            if not group:
                empty.append(f"class {c} has no pseudo-label candidates; top-K skips it")
            want.extend(group[:k])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = select_top_k(PseudoLabelSet(records), k, num_classes)
        assert list(got) == want
        assert [str(w.message) for w in caught] == empty

    def test_select_top_k_names_the_first_out_of_range_label(self):
        ps = _records([(0, 1, 0.5), (1, 7, 0.5), (2, 9, 0.5)])
        with pytest.raises(ContractError, match="label 7 out of range"):
            select_top_k(ps, 2, num_classes=3)

    @PROPERTY
    @given(record_lists(), st.data())
    def test_marking_follows_the_legal_moves(self, records, data):
        table = PseudoLabelSet(records)
        want = [dataclasses.replace(r) for r in records]
        by_id = {r.sample_id: r for r in want}
        moves = data.draw(st.lists(st.tuples(st.sampled_from(sorted(by_id)),
                                             st.sampled_from(STATUSES)),
                                   max_size=30)) if by_id else []
        for sid, status in moves:
            r = by_id[sid]
            if (r.status, status) in LEGAL_MOVES:
                table.mark(sid, status)
                r.status = status
            else:
                with pytest.raises(ContractError) as e:
                    table.mark(sid, status)
                assert str(e.value) == (f"illegal status transition {r.status!r} -> "
                                        f"{status!r} for sample {sid}")
        assert list(table) == want

    def test_marking_rejects_unknown_ids_and_statuses(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        with pytest.raises(KeyError, match="unknown sample_id 5"):
            ps.mark(5, "clean")
        with pytest.raises(ContractError, match="'candidate' -> 'kept'"):
            ps.mark(0, "kept")
        assert [r.status for r in ps] == ["candidate", "candidate"]
        ps.mark(np.int64(1), "noise")
        assert [r.status for r in ps] == ["candidate", "noise"]

    @PROPERTY
    @given(record_lists(), st.data())
    def test_subset_and_with_status_keep_row_order(self, records, data):
        table = PseudoLabelSet(records)
        ids = data.draw(st.permutations([r.sample_id for r in records]))
        ids = ids[:data.draw(st.integers(0, len(ids)))]
        by_id = {r.sample_id: r for r in records}
        assert list(table.subset(ids)) == [by_id[i] for i in ids]
        for status in STATUSES:
            assert list(table.with_status(status)) == [r for r in records
                                                       if r.status == status]

    def test_subset_rejects_unknown_and_repeated_ids(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        with pytest.raises(KeyError, match="unknown sample_id 2"):
            ps.subset([0, 2])
        with pytest.raises(ContractError, match="duplicate sample_id 0"):
            ps.subset([0, 1, 0])

    def test_copies_do_not_share_status(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        part = ps.subset([1, 0])
        part.mark(0, "clean")
        ps.get(0).status = "noise"  # a record is a copy of its row
        assert [r.status for r in ps] == ["candidate", "candidate"]
        assert part.get(0).status == "clean"

    @PROPERTY
    @given(record_lists(labels=st.integers(0, 3)), st.data())
    def test_clean_quality_equals_record_count(self, records, data):
        truth = np.array(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)))
        records = [PseudoLabelRecord(i, r.label, r.confidence, r.generator, r.status)
                   for i, r in enumerate(records[:truth.size])]
        clean = [r for r in records if r.status == "clean"]
        hits_clean = sum(1 for r in clean if r.label == truth[r.sample_id])
        hits_all = sum(1 for r in records if r.label == truth[r.sample_id])
        assert PseudoLabelSet(records).clean_quality(truth) == (
            len(clean), hits_clean / len(clean) if clean else None,
            hits_clean / hits_all if hits_all else None)
