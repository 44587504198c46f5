import numpy as np
import pytest

from coft.core import SeededRng, l2_normalize, normalize_rows
from coft.encoders import (
    FrozenProvider,
    adapt_batch,
    adapt_batch_backward,
    compose_texts,
    compose_texts_backward,
    encode_batch,
    init_fft_encoder,
    init_prompt_bank,
    init_visual_adapter,
    logits_batch,
    logits_batch_backward,
)
from coft.errors import DomainError, ShapeError
from coft.grad import check_gradients, param


def make_provider(n=6, c=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    emb = normalize_rows(rng.normal(size=(n, d)))
    anchors = normalize_rows(rng.normal(size=(c, d)))
    return FrozenProvider(emb, anchors)


class TestFrozenProvider:
    def test_rejects_unnormalized_rows(self):
        emb = np.array([[1.0, 0.0], [2.0, 0.0]])
        anchors = np.eye(2)
        with pytest.raises(DomainError):
            FrozenProvider(emb, anchors)

    @pytest.mark.parametrize("table, row, value", [
        ("emb", 3, 1.0 + 1e-8), ("anchors", 1, 0.5), ("emb", 2, float("nan")),
    ])
    def test_off_norm_row_named(self, table, row, value):
        tables = {"emb": normalize_rows(np.random.default_rng(0).normal(size=(5, 4))),
                  "anchors": np.eye(4)[:3].copy()}
        tables[table][row] *= value
        label = "image embedding" if table == "emb" else "class anchor"
        with pytest.raises(DomainError, match=f"{label} row {row} is not unit-norm"):
            FrozenProvider(tables["emb"], tables["anchors"])

    def test_holds_tables_as_given(self):
        # rows within the 1e-9 tolerance keep their bits: nothing normalizes.
        # A table that owns its data is adopted and frozen; a view is copied.
        emb = normalize_rows(np.random.default_rng(2).normal(size=(4, 3))) * (1.0 + 1e-12)
        emb0 = emb.tobytes()
        anchors = np.eye(3)[:2]
        p = FrozenProvider(emb, anchors, class_names=("cat", "dog"), name="pets")
        assert p.image_embeddings is emb and not emb.flags.writeable
        assert p.image_embeddings.tobytes() == emb0
        assert p.class_anchors is not anchors and anchors.flags.writeable
        assert p.class_anchors.tobytes() == anchors.tobytes()
        assert not p.class_anchors.flags.writeable
        assert (p.name, p.class_names) == ("pets", ("cat", "dog"))
        assert FrozenProvider(emb, anchors).class_names == ("class_00", "class_01")

    def test_immutable(self):
        p = make_provider()
        with pytest.raises(ValueError):
            p.image_embeddings[0, 0] = 5.0
        with pytest.raises(ValueError):
            p.class_anchors[0, 0] = 5.0

    def test_caller_writes_cannot_reach_the_tables(self):
        # the provider is the two tables and nothing else: a write to an
        # adopted table raises, and a write through the base of a view that
        # was passed in reaches only the caller's array
        emb = normalize_rows(np.random.default_rng(1).normal(size=(3, 4)))
        base = np.eye(4)
        p = FrozenProvider(emb, base[:2])
        emb0, anchors0 = p.image_embeddings.tobytes(), p.class_anchors.tobytes()
        with pytest.raises(ValueError):
            emb[:] = 0.0
        base[:] = 0.0
        assert p.image_embeddings.tobytes() == emb0
        assert p.class_anchors.tobytes() == anchors0
        assert (p.num_samples, p.num_classes, p.dim) == (3, 2, 4)

    def test_rejected_table_stays_writable(self):
        # the norm check runs before the provider adopts anything
        emb = normalize_rows(np.random.default_rng(1).normal(size=(3, 4)))
        anchors = 2.0 * np.eye(4)[:2]
        with pytest.raises(DomainError):
            FrozenProvider(emb, anchors)
        assert emb.flags.writeable


class TestComposeText:
    def test_zero_context_returns_anchor(self):
        p = make_provider()
        bank = init_prompt_bank(p, SeededRng(1).stream("m1"))
        bank.pos_context.value[:] = 0.0
        texts, _ = compose_texts(bank, p, "positive")
        np.testing.assert_allclose(texts, p.class_anchors, atol=1e-12)

    def test_identical_contexts_identical_embeddings(self):
        p = make_provider()
        bank = init_prompt_bank(p, SeededRng(2).stream("m1"))
        bank.neg_context.value[:] = bank.pos_context.value
        tp, _ = compose_texts(bank, p, "positive")
        tn, _ = compose_texts(bank, p, "negative")
        np.testing.assert_array_equal(tp, tn)

    def test_one_token_hand_case(self):
        d = 4
        emb = np.eye(d)[:2]
        anchors = np.eye(d)[:2]  # anchor of class 1 = e2
        p = FrozenProvider(emb, anchors)
        bank = init_prompt_bank(p, SeededRng(3))
        bank.pos_context.value[:] = 0.0
        bank.pos_context.value[1, 0] = 1.0  # class 1's context token e1
        out = compose_texts(bank, p, "positive")[0][1]
        expected = np.zeros(d)
        expected[0] = expected[1] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_class_specific_rows(self):
        # row k of a context table moves class k's text and no other
        p = make_provider(c=4, seed=5)
        bank = init_prompt_bank(p, SeededRng(12).stream("m1"), sigma=0.3)
        assert bank.pos_context.shape == (p.num_classes, p.dim)
        before, _ = compose_texts(bank, p, "positive")
        bank.pos_context.value[2] += 0.5
        after, _ = compose_texts(bank, p, "positive")
        changed = np.any(before != after, axis=1)
        assert changed.tolist() == [False, False, True, False]
        want = p.class_anchors[2] + bank.pos_context.value[2]
        np.testing.assert_allclose(after[2], want / np.linalg.norm(want), atol=1e-12)

    def test_overflowed_context_names_the_parameter(self):
        from coft.errors import TrainingError

        p = make_provider()
        bank = init_prompt_bank(p, SeededRng(13), name_prefix="m/")
        bank.neg_context.value[1] = 1e308
        with pytest.raises(TrainingError) as exc:
            compose_texts(bank, p, "negative")
        assert exc.value.param_name == "m/neg_context"

    def test_output_normalized_random_contexts(self):
        p = make_provider(seed=4)
        for i in range(20):
            bank = init_prompt_bank(p, SeededRng(10 + i).stream("m1"), sigma=0.5)
            for pol in ("positive", "negative"):
                t, _ = compose_texts(bank, p, pol)
                np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-9)

    def test_distinct_pos_neg_at_init(self):
        p = make_provider()
        bank = init_prompt_bank(p, SeededRng(6).stream("m1"))
        assert not np.array_equal(bank.pos_context.value, bank.neg_context.value)

    def test_gradient_matches_fd(self):
        p = make_provider(c=4, d=6, seed=8)
        bank = init_prompt_bank(p, SeededRng(9).stream("m1"), sigma=0.3)
        w = np.random.default_rng(0).normal(size=(4, 6))  # fixed projection of texts

        def loss():
            texts, cache = compose_texts(bank, p, "positive")
            compose_texts_backward(cache, w * 2.0 * (texts - 0.1))
            return float(np.sum((texts - 0.1) ** 2 * w))

        report = check_gradients(loss, [bank.pos_context], tol=1e-4)
        assert report.ok, report.summary()


class TestVisualAdapter:
    def test_zero_up_exact_identity(self):
        p = make_provider()
        adapter = init_visual_adapter(p.dim, rank=2, scale=0.1, rng=SeededRng(1))
        out, _ = adapt_batch(adapter, p.image_embeddings[:1])
        assert out.tobytes() == p.image_embeddings[:1].tobytes()

    def test_zero_scale_exact_identity(self):
        p = make_provider()
        adapter = init_visual_adapter(p.dim, rank=2, scale=0.0, rng=SeededRng(2))
        adapter.up.value[:] = np.random.default_rng(0).normal(size=adapter.up.shape)
        out, _ = adapt_batch(adapter, p.image_embeddings)
        assert out.tobytes() == p.image_embeddings.tobytes()

    def test_nonzero_up_not_identity_and_normalized(self):
        p = make_provider()
        adapter = init_visual_adapter(p.dim, rank=2, scale=0.1, rng=SeededRng(3))
        adapter.up.value[:] = 0.5
        out, _ = adapt_batch(adapter, p.image_embeddings)
        assert not np.array_equal(out, p.image_embeddings)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_rank_one_hand_fixture_matches_direct_arithmetic(self):
        # independent oracle: straight matrix arithmetic on hand-set weights
        d = 3
        base = l2_normalize(np.array([1.0, 2.0, 2.0]))
        down = np.array([[0.5, -0.25, 0.1]])
        up = np.array([[0.2], [-0.3], [0.4]])
        scale = 0.7
        adapter = init_visual_adapter(d, rank=1, scale=scale, rng=SeededRng(4))
        adapter.down.value[:] = down
        adapter.up.value[:] = up

        h = np.tanh(down @ base)
        z = base + scale * (up @ h)
        expected = z / np.linalg.norm(z)
        np.testing.assert_allclose(adapt_batch(adapter, base[None, :])[0][0], expected,
                                   atol=1e-14)

    def test_dim_mismatch(self):
        adapter = init_visual_adapter(5, rank=2, scale=0.1, rng=SeededRng(5))
        with pytest.raises(ShapeError):
            adapt_batch(adapter, np.ones((1, 4)))

    def test_gradient_matches_fd(self):
        p = make_provider(n=5, d=6, seed=11)
        adapter = init_visual_adapter(6, rank=2, scale=0.3, rng=SeededRng(12))
        adapter.up.value[:] = np.random.default_rng(1).normal(size=adapter.up.shape) * 0.3
        target = normalize_rows(np.random.default_rng(2).normal(size=(5, 6)))

        def loss():
            out, cache = adapt_batch(adapter, p.image_embeddings[:5])
            adapt_batch_backward(cache, 2.0 * (out - target))
            return float(np.sum((out - target) ** 2))

        report = check_gradients(loss, adapter.params(), tol=1e-4)
        assert report.ok, report.summary()

    def test_gradient_at_zero_up_reaches_up(self):
        # signal must reach the zero-initialized up projection
        p = make_provider(n=4, d=6, seed=13)
        adapter = init_visual_adapter(6, rank=2, scale=0.5, rng=SeededRng(14))
        out, cache = adapt_batch(adapter, p.image_embeddings[:4])
        d_down, d_up = adapt_batch_backward(cache, np.ones_like(out))
        assert np.any(d_up != 0.0)
        assert np.all(d_down == 0.0)  # blocked until up moves


class TestFFTEncoder:
    def test_identity_at_init(self):
        rng = np.random.default_rng(3)
        enc = init_fft_encoder(8, num_classes=4, hidden=16, rng=SeededRng(1))
        x = normalize_rows(rng.normal(size=(10, 8)))
        y, _ = encode_batch(enc, x)
        assert float(np.max(np.linalg.norm(y - x, axis=1))) < 1e-6

    def test_constant_head(self):
        enc = init_fft_encoder(5, num_classes=3, hidden=10, rng=SeededRng(2))
        enc.b_fc.value[:] = [0.3, -0.2, 0.9]
        logits, _ = logits_batch(enc, np.random.default_rng(4).normal(size=(3, 5)))
        np.testing.assert_allclose(logits, np.tile([0.3, -0.2, 0.9], (3, 1)), atol=1e-12)

    def test_anchor_head_gives_cosine_scores(self):
        d, c = 6, 4
        anchors = normalize_rows(np.random.default_rng(5).normal(size=(c, d)))
        enc = init_fft_encoder(d, num_classes=c, hidden=12, rng=SeededRng(3))
        enc.w_fc.value[:] = anchors
        v = l2_normalize(np.random.default_rng(6).normal(size=d))
        sims = anchors @ v
        np.testing.assert_allclose(logits_batch(enc, v[None, :])[0][0], sims, atol=1e-5)

    def test_random_fixture_matches_matrix_oracle(self):
        d, c, h = 4, 3, 5
        rng = np.random.default_rng(7)
        enc = init_fft_encoder(d, num_classes=c, hidden=h, rng=SeededRng(4))
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape)
        x = rng.normal(size=(6, d))
        # straight-line oracle
        hid = np.tanh(x @ enc.w1.value.T + enc.b1.value)
        encd = x + hid @ enc.w2.value.T + enc.b2.value
        expected = encd @ enc.w_fc.value.T + enc.b_fc.value
        got, _ = logits_batch(enc, x)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gradient_matches_fd(self):
        d, c, h = 5, 3, 8
        rng = np.random.default_rng(8)
        enc = init_fft_encoder(d, num_classes=c, hidden=h, rng=SeededRng(5))
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape) * 0.5
        x = normalize_rows(rng.normal(size=(4, d)))
        w = rng.normal(size=(4, c))

        def loss():
            logits, cache = logits_batch(enc, x)
            logits_batch_backward(cache, w)
            return float(np.sum(logits * w))

        report = check_gradients(loss, enc.params(), tol=1e-4)
        assert report.ok, report.summary()
