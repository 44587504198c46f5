import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft import pseudo
from coft.core import normalize_rows
from coft.encoders import FrozenProvider
from coft.errors import ContractError, DomainError, FormatError
from coft.pseudo import (
    GENERATORS,
    STATUSES,
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


FIELDS = ("sample_id", "label", "confidence", "generator", "status")


def table_of(rows):
    """A table of the given row dicts, each holding the keys of ``FIELDS``."""
    return PseudoLabelSet(**{k: [r[k] for r in rows] for k in FIELDS})


def rows_of(table):
    """The rows of ``table`` as ``save`` writes them, one dict per row."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "labels.jsonl")
        table.save(path)
        with open(path, encoding="utf-8") as f:
            return [json.loads(line) for line in f]


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


def labels_of_scores(scores, tau=1.0, **kw):
    """``assign_pseudo_labels`` against one-hot class texts, so the class
    scores of each row are exactly its entries of ``scores``."""
    scores = np.asarray(scores, dtype=np.float64)
    return assign_pseudo_labels(scores, np.eye(scores.shape[1]), tau, **kw)


def argmax_low(row):
    """Index of the largest entry of ``row``, the lowest on a tie."""
    return max(range(len(row)), key=lambda k: (row[k], -k))


class TestAssignPseudoLabels:
    def test_basic(self):
        ps = labels_of_scores(np.log([[0.1, 0.7, 0.2]]))
        assert rows_of(ps) == [{"sample_id": 0, "label": 1, "status": "candidate",
                                "generator": "zeroshot",
                                "confidence": pytest.approx(0.7, rel=1e-12)}]

    def test_tie_breaks_low(self):
        ps = labels_of_scores([[0.5, 0.5], [0.1, 0.9], [0.9, 0.9]])
        assert ps.labels().tolist() == [0, 1, 0]
        assert labels_of_scores([[0.2, 0.7, 0.1, 0.7]]).labels().tolist() == [1]

    def test_batch_matches_argmax_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(100, 7))
        _, labels, conf = labels_of_scores(scores, tau=0.3).training_view()
        for i in range(100):
            row = list(class_probabilities(scores[i:i + 1], np.eye(7), 0.3)[0])
            best = argmax_low(row)
            assert labels[i] == best
            assert conf[i] == row[best]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(20, 4))
        perm = rng.permutation(20)
        a = labels_of_scores(scores)
        b = labels_of_scores(scores[perm])
        assert b.sample_ids().tolist() == list(range(20))
        _, a_labels, a_conf = a.training_view()
        _, b_labels, b_conf = b.training_view()
        assert b_labels.tolist() == a_labels[perm].tolist()
        assert b_conf.tolist() == a_conf[perm].tolist()

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            labels_of_scores(np.zeros((0, 3)))

    def test_blocks_equal_a_per_row_reference(self, monkeypatch):
        # two row blocks; classes 1 and 3 share a one-hot text and scores
        # come from three values, so ties are everywhere
        from coft.core import BLOCK_ROWS

        n = 2 * BLOCK_ROWS + 1
        rng = np.random.default_rng(8)
        emb = rng.integers(0, 3, size=(n, 4)) * 0.5
        texts = np.eye(4)[[0, 1, 2, 1, 3]]
        checks = []
        check = pseudo._check_distinct
        monkeypatch.setattr(pseudo, "_check_distinct",
                            lambda col: checks.append(col.size) or check(col))
        ps = assign_pseudo_labels(emb, texts, 0.2, generator="model1")
        assert checks == []  # the ids are arange(n): nothing to sort
        labels, conf = [], []
        for sid in range(n):
            row = class_probabilities(emb[sid:sid + 1], texts, 0.2)[0].tolist()
            labels.append(argmax_low(row))
            conf.append(row[labels[-1]])
        got_ids, got_labels, got_conf = ps.training_view()
        assert got_ids.tolist() == list(range(n))
        assert got_labels.tolist() == labels
        assert got_conf.tobytes() == np.array(conf).tobytes()
        assert {r["generator"] for r in rows_of(ps)} == {"model1"}
        assert 1 in labels and 3 not in labels  # class 3 ties class 1 on every row


def _records(spec):
    # spec: list of (sample_id, label, confidence)
    return PseudoLabelSet(*zip(*spec), "zeroshot")


class TestSelectTopK:
    def test_simple(self):
        ps = _records([(1, 0, 0.9), (2, 0, 0.8), (3, 1, 0.7)])
        out = select_top_k(ps, 1, num_classes=2)
        assert sorted(out.sample_ids().tolist()) == [1, 3]

    def test_k_exceeds_population(self):
        ps = _records([(1, 0, 0.9), (2, 0, 0.8)])
        with pytest.warns(UserWarning):
            out = select_top_k(ps, 10, num_classes=2)
        assert sorted(out.sample_ids().tolist()) == [1, 2]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        c, k = 5, 3
        spec = [(i, int(rng.integers(0, c)), float(rng.random())) for i in range(200)]
        ps = _records(spec)
        got = set(select_top_k(ps, k, num_classes=c).sample_ids().tolist())
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
        assert np.all(np.bincount(out.labels()) <= 7)

    def test_deterministic_tie_order(self):
        ps = _records([(5, 0, 0.5), (2, 0, 0.5), (9, 0, 0.5)])
        out = select_top_k(ps, 2, num_classes=1)
        assert out.sample_ids().tolist() == [2, 5]

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
            ids = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
            drawn = [(int(rng.integers(0, c)), float(rng.random())) for _ in ids]
            lab = [label for label, _ in drawn]
            labels = PseudoLabelSet(ids, lab, [conf for _, conf in drawn], "zeroshot")
            got = centroid_confidences(labels, emb, tau)
            present = sorted(set(lab))
            centroids = []
            for k in present:
                rows = [emb[sid].tolist() for sid, label in zip(ids, lab) if label == k]
                centroids.append([sum(col) / len(rows) for col in zip(*rows)])
            got_ids, got_lab, got_conf = got.training_view()
            assert got_ids.tolist() == ids
            assert got_lab.tolist() == lab
            assert len(got.with_status("candidate")) == len(ids)
            for sid, label, conf in zip(ids, lab, got_conf.tolist()):
                want = zero_shot_oracle(emb[sid].tolist(), centroids, tau)
                assert abs(conf - want[present.index(label)]) <= 1e-12

    def test_confidence_ranks_by_closeness_to_the_centroid(self):
        # class 0 holds e0 and a sample leaning toward e1, class 1 holds e1 alone
        emb = normalize_rows(np.array([[1.0, 0.0], [1.0, 0.8], [0.0, 1.0]]))
        labels = _records([(0, 0, 0.1), (1, 0, 0.9), (2, 1, 0.5)])
        got = centroid_confidences(labels, emb, 0.07)
        conf = got.training_view()[2]
        assert conf[0] > conf[1]
        assert select_top_k(got, 1, 2).sample_ids().tolist() == [0, 2]

    def test_empty(self):
        empty = PseudoLabelSet([], [], [], "zeroshot")
        assert len(centroid_confidences(empty, np.eye(2), 0.07)) == 0


class TestPseudoLabelSet:
    def test_status_transitions(self):
        ps = _records([(0, 1, 0.6)])
        ps.mark(0, "clean")
        assert ps.with_status("clean").sample_ids().tolist() == [0]
        with pytest.raises(ContractError):
            ps.mark(0, "noise")

    def test_unassigned_status_is_refused(self, tmp_path):
        # no row is ever unassigned: rows start as candidates
        with pytest.raises(ContractError, match="unknown status 'unassigned'"):
            PseudoLabelSet([0], [1], [0.6], "zeroshot", status="unassigned")
        ps = _records([(0, 1, 0.6)])
        with pytest.raises(ContractError, match="'candidate' -> 'unassigned'"):
            ps.mark(0, "unassigned")
        path = tmp_path / "labels.jsonl"
        ps.save(path)
        path.write_text(path.read_text().replace('"candidate"', '"unassigned"'))
        with pytest.raises(FormatError, match="unknown status 'unassigned'"):
            PseudoLabelSet.load(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            _records([(0, 1, 0.5), (0, 2, 0.6)])

    def test_training_view_has_no_truth(self):
        ps = _records([(0, 1, 0.5), (4, 0, 0.9)])
        view = ps.training_view()
        assert len(view) == 3  # ids, labels, confidences only
        ids, labels, conf = view
        np.testing.assert_array_equal(ids, [0, 4])
        np.testing.assert_array_equal(labels, [1, 0])
        np.testing.assert_allclose(conf, [0.5, 0.9])

    def test_save_withholds_truth_by_default(self, tmp_path):
        ps = _records([(0, 1, 0.5)])
        p = tmp_path / "labels.jsonl"
        ps.save(p)
        assert "ground_truth" not in p.read_text()
        ps.save(p, truth=np.array([1]))
        assert '"ground_truth": 1' in p.read_text()

    def test_round_trip(self, tmp_path):
        ps = _records([(3, 2, 0.125), (1, 0, 0.75)])
        ps.mark(0, "noise")  # the row of sample 3
        p = tmp_path / "labels.jsonl"
        ps.save(p)
        back = PseudoLabelSet.load(p)
        assert len(back) == 2
        assert back.with_status("noise").sample_ids().tolist() == [3]
        assert rows_of(back) == rows_of(ps)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "labels.jsonl"
        _records([(3, 2, 0.125)]).save(p)
        before = p.read_bytes()

        def blocks_then_disk_full(n):
            yield slice(0, 1)
            raise OSError("disk full")

        monkeypatch.setattr(pseudo, "row_blocks", blocks_then_disk_full)
        with pytest.raises(OSError, match="disk full"):
            _records([(0, 1, 0.5), (1, 0, 0.6)]).save(p)
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["labels.jsonl"]  # no *.tmp left

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
            candidates = assign_pseudo_labels(provider.image_embeddings,
                                              provider.class_anchors, 0.07)
            selected = select_top_k(candidates, 12, provider.num_classes)
            assert selected.accuracy(truth) >= candidates.accuracy(truth)


# ---------------------------------------------------------------------------
# Properties of the label table against per-row oracles
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SPECIAL_FLOATS = st.sampled_from([0.1, 1.0, 5e-324, 1e-300, 0.0, -0.0, 1 / 3, 0.5])
FINITE = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def record_lists(draw, confidences=FINITE, labels=st.integers(-3, 10**12),
                 statuses=st.sampled_from(STATUSES), ids=st.integers(0, 2**62), max_size=25):
    """Row dicts with distinct sample ids."""
    n = draw(st.integers(0, max_size))
    return [
        {"sample_id": sid, "label": draw(labels), "confidence": draw(confidences),
         "generator": draw(st.sampled_from(GENERATORS)), "status": draw(statuses)}
        for sid in draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    ]


def json_oracle(records):
    """The export format: one json.dumps(record, sort_keys=True) per line."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


LEGAL_MOVES = {("candidate", "clean"), ("candidate", "noise")}


class TestLabelTableProperties:
    @PROPERTY
    @given(record_lists(confidences=ANY_FLOAT))
    def test_save_bytes_equal_json_oracle(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("save") / "labels.jsonl"
        table_of(records).save(path)
        assert path.read_bytes() == json_oracle(records).encode("utf-8")

    @PROPERTY
    @given(record_lists(confidences=ANY_FLOAT, ids=st.integers(0, 63)),
           st.lists(st.integers(0, 10**6), min_size=64, max_size=64))
    def test_save_with_truth_bytes_equal_json_oracle(self, tmp_path_factory, records, truth):
        path = tmp_path_factory.mktemp("save") / "labels.jsonl"
        table_of(records).save(path, truth=np.array(truth))
        want = [dict(r, ground_truth=truth[r["sample_id"]]) for r in records]
        assert path.read_bytes() == json_oracle(want).encode("utf-8")

    @PROPERTY
    @given(record_lists(confidences=ANY_FLOAT), st.booleans(), st.data())
    def test_load_of_save_round_trips(self, tmp_path_factory, records, with_truth, data):
        # a ground_truth field (a class index or null) is read and dropped
        path = tmp_path_factory.mktemp("load") / "labels.jsonl"
        if with_truth:
            truth = st.one_of(st.none(), st.integers(0, 10**6))
            path.write_text(json_oracle([dict(r, ground_truth=data.draw(truth))
                                         for r in records]), encoding="utf-8")
        else:
            table_of(records).save(path)
        back = PseudoLabelSet.load(path)
        assert len(back) == len(records)
        again = path.with_name("again.jsonl")
        back.save(again)
        assert again.read_bytes() == json_oracle(records).encode("utf-8")

    @PROPERTY
    @given(record_lists(confidences=st.one_of(SPECIAL_FLOATS, st.sampled_from([0.25, 0.75])),
                        labels=st.integers(0, 5), max_size=40),
           st.integers(1, 6), st.integers(1, 8))
    def test_select_top_k_equals_sort_oracle(self, records, k, num_classes):
        records = [r for r in records if r["label"] < num_classes]
        want, empty = [], []
        for c in range(num_classes):
            group = sorted((r for r in records if r["status"] == "candidate" and r["label"] == c),
                           key=lambda r: (-r["confidence"], r["sample_id"]))
            if not group:
                empty.append(f"class {c} has no pseudo-label candidates; top-K skips it")
            want.extend(group[:k])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = select_top_k(table_of(records), k, num_classes)
        assert rows_of(got) == want
        assert [str(w.message) for w in caught] == empty

    def test_select_top_k_names_the_first_out_of_range_label(self):
        ps = _records([(0, 1, 0.5), (1, 7, 0.5), (2, 9, 0.5)])
        with pytest.raises(ContractError, match="label 7 out of range"):
            select_top_k(ps, 2, num_classes=3)

    @PROPERTY
    @given(record_lists(), st.data())
    def test_marking_follows_the_legal_moves(self, records, data):
        table = table_of(records)
        want = [dict(r) for r in records]
        moves = data.draw(st.lists(st.tuples(st.integers(0, len(want) - 1),
                                             st.sampled_from(STATUSES)),
                                   max_size=30)) if want else []
        for row, status in moves:
            r = want[row]
            if (r["status"], status) in LEGAL_MOVES:
                table.mark(row, status)
                r["status"] = status
            else:
                with pytest.raises(ContractError) as e:
                    table.mark(row, status)
                assert str(e.value) == (f"illegal status transition {r['status']!r} -> "
                                        f"{status!r} for sample {r['sample_id']}")
        assert rows_of(table) == want

    def test_marking_rejects_unknown_ids_and_statuses(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        with pytest.raises(IndexError, match="row 5 out of range for 2 rows"):
            ps.mark(5, "clean")
        with pytest.raises(ContractError, match="'candidate' -> 'kept'"):
            ps.mark(0, "kept")
        assert [r["status"] for r in rows_of(ps)] == ["candidate", "candidate"]
        ps.mark(np.int64(1), "noise")
        assert [r["status"] for r in rows_of(ps)] == ["candidate", "noise"]

    @PROPERTY
    @given(record_lists(), st.data())
    def test_subset_and_with_status_keep_row_order(self, records, data):
        table = table_of(records)
        rows = data.draw(st.permutations(range(len(records))))
        rows = rows[:data.draw(st.integers(0, len(rows)))]
        assert rows_of(table.subset(rows)) == [records[i] for i in rows]
        for status in STATUSES:
            assert rows_of(table.with_status(status)) == [r for r in records
                                                          if r["status"] == status]

    def test_subset_rejects_unknown_and_repeated_ids(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        with pytest.raises(IndexError, match="row 2 out of range for 2 rows"):
            ps.subset([0, 2])
        with pytest.raises(ContractError, match="duplicate sample_id 0"):
            ps.subset([0, 1, 0])

    @pytest.mark.parametrize("row, error", [(-1, IndexError), (3, IndexError),
                                            (np.int64(3), IndexError), (1.5, TypeError)])
    def test_rows_outside_the_table_are_rejected(self, row, error):
        # -1 must not wrap to the last row; the table is left as it was
        ps = _records([(5, 1, 0.5), (6, 0, 0.6), (7, 2, 0.7)])
        before = rows_of(ps)
        for call in (lambda: ps.mark(row, "clean"),
                     lambda: ps.subset([row]), lambda: ps.subset([0, row])):
            with pytest.raises(error):
                call()
        assert rows_of(ps) == before
        ps.mark(np.int64(2), "noise")
        assert [r["status"] for r in rows_of(ps)] == ["candidate", "candidate", "noise"]

    def test_copies_do_not_share_status(self):
        ps = _records([(0, 1, 0.5), (1, 0, 0.6)])
        part = ps.subset([1, 0])
        part.mark(0, "clean")
        assert [r["status"] for r in rows_of(ps)] == ["candidate", "candidate"]
        assert [r["status"] for r in rows_of(part)] == ["clean", "candidate"]

    @PROPERTY
    @given(record_lists(labels=st.integers(0, 3)), st.data())
    def test_clean_quality_equals_record_count(self, records, data):
        truth = np.array(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)))
        records = [dict(r, sample_id=i) for i, r in enumerate(records[:truth.size])]
        clean = [r for r in records if r["status"] == "clean"]
        hits_clean = sum(1 for r in clean if r["label"] == truth[r["sample_id"]])
        hits_all = sum(1 for r in records if r["label"] == truth[r["sample_id"]])
        assert table_of(records).clean_quality(truth) == (
            len(clean), hits_clean / len(clean) if clean else None,
            hits_clean / hits_all if hits_all else None)
