import numpy as np
import pytest

from coft.core import SeededRng, normalize_rows
from coft.encoders import (
    FrozenProvider,
    adapt_batch,
    adapt_batch_backward,
    compose_texts,
    compose_texts_backward,
    encode_batch,
    init_fft_encoder,
    logits_batch,
    logits_batch_backward,
)
from coft.errors import DomainError, ShapeError
from coft.grad import check_gradients
from coft.train import TrainConfig, init_adapted_model


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


def halves(texts, p):
    """The positive and negative (C, d) halves of a stacked text table."""
    assert texts.shape == (2 * p.num_classes, p.dim)
    return texts[:p.num_classes], texts[p.num_classes:]


def make_model(p, seed, model_id="model1", **cfg):
    """A phase-1 model over ``p`` as the pipeline builds it (adapter rank 2
    unless ``cfg`` says otherwise)."""
    return init_adapted_model(p, model_id, 1, TrainConfig(**{"adapter_rank": 2, **cfg}),
                              SeededRng(seed))


class TestComposeText:
    def test_zero_context_returns_anchor(self):
        p = make_provider()
        model = make_model(p, 1)
        model.pos_context.value[:] = 0.0
        model.neg_context.value[:] = 0.0
        texts, _ = compose_texts(model)
        for half in halves(texts, p):
            np.testing.assert_allclose(half, p.class_anchors, atol=1e-12)

    def test_identical_contexts_identical_embeddings(self):
        p = make_provider()
        model = make_model(p, 2)
        model.neg_context.value[:] = model.pos_context.value
        tp, tn = halves(compose_texts(model)[0], p)
        np.testing.assert_array_equal(tp, tn)

    def test_one_token_hand_case(self):
        d = 4
        emb = np.eye(d)[:2]
        anchors = np.eye(d)[:2]  # anchor of class 1 = e2
        p = FrozenProvider(emb, anchors)
        model = make_model(p, 3)
        model.pos_context.value[:] = 0.0
        model.pos_context.value[1, 0] = 1.0  # class 1's positive context token e1
        model.neg_context.value[:] = 0.0
        model.neg_context.value[0, 2] = 1.0  # class 0's negative context token e3
        tp, tn = halves(compose_texts(model)[0], p)
        expected = np.zeros(d)
        expected[0] = expected[1] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(tp[1], expected, atol=1e-12)
        expected = np.zeros(d)
        expected[0] = expected[2] = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(tn[0], expected, atol=1e-12)
        np.testing.assert_allclose(tp[0], anchors[0], atol=1e-12)
        np.testing.assert_allclose(tn[1], anchors[1], atol=1e-12)

    def test_class_specific_rows(self):
        # row k of a context table moves its polarity's class-k text and no other
        p = make_provider(c=4, seed=5)
        model = make_model(p, 12, init_sigma=0.3)
        for i, ctx in enumerate((model.pos_context, model.neg_context)):
            assert ctx.shape == (p.num_classes, p.dim)
            before, _ = compose_texts(model)
            ctx.value[2] += 0.5
            after, _ = compose_texts(model)
            changed = np.any(before != after, axis=1)
            assert np.flatnonzero(changed).tolist() == [i * p.num_classes + 2]
            want = p.class_anchors[2] + ctx.value[2]
            np.testing.assert_allclose(after[i * p.num_classes + 2],
                                       want / np.linalg.norm(want), atol=1e-12)

    def test_overflowed_context_names_the_parameter(self):
        from coft.errors import TrainingError

        p = make_provider()
        for tensor in ("pos_context", "neg_context"):
            model = make_model(p, 13, model_id="m")
            getattr(model, tensor).value[1] = 1e308
            with pytest.raises(TrainingError) as exc:
                compose_texts(model)
            assert exc.value.param_name == f"m/{tensor}"
            assert f"'m/{tensor}'" in str(exc.value)

    def test_output_normalized_random_contexts(self):
        # each half is normalize(anchor + ctx) of its polarity, bit for bit
        p = make_provider(seed=4)
        for i in range(20):
            model = make_model(p, 10 + i, init_sigma=0.5)
            texts, _ = compose_texts(model)
            np.testing.assert_allclose(np.linalg.norm(texts, axis=1), 1.0, atol=1e-9)
            for half, ctx in zip(halves(texts, p), (model.pos_context, model.neg_context)):
                pre = p.class_anchors + ctx.value
                want = pre / np.linalg.norm(pre, axis=1, keepdims=True)
                assert half.tobytes() == want.tobytes()

    def test_distinct_pos_neg_at_init(self):
        model = make_model(make_provider(), 6)
        assert not np.array_equal(model.pos_context.value, model.neg_context.value)

    def test_gradient_matches_fd(self):
        p = make_provider(c=4, d=6, seed=8)
        model = make_model(p, 9, init_sigma=0.3)
        w = np.random.default_rng(0).normal(size=(8, 6))  # fixed projection of all 2C rows

        def loss():
            texts, cache = compose_texts(model)
            compose_texts_backward(cache, w * 2.0 * (texts - 0.1))
            return float(np.sum((texts - 0.1) ** 2 * w))

        report = check_gradients(loss, [model.pos_context, model.neg_context], tol=1e-4)
        assert report.ok, report.failures[:5]


class TestVisualAdapter:
    def test_zero_up_exact_identity(self):
        p = make_provider()
        model = make_model(p, 1, adapter_scale=0.1)
        out, _ = adapt_batch(model, p.image_embeddings[:1])
        assert out.tobytes() == p.image_embeddings[:1].tobytes()

    def test_zero_scale_exact_identity(self):
        p = make_provider()
        model = make_model(p, 2, adapter_scale=0.0)
        up = model.adapter_up
        up.value[:] = np.random.default_rng(0).normal(size=up.shape)
        out, _ = adapt_batch(model, p.image_embeddings)
        assert out.tobytes() == p.image_embeddings.tobytes()

    def test_nonzero_up_not_identity_and_normalized(self):
        p = make_provider()
        model = make_model(p, 3, adapter_scale=0.1)
        model.adapter_up.value[:] = 0.5
        out, _ = adapt_batch(model, p.image_embeddings)
        assert not np.array_equal(out, p.image_embeddings)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_rank_one_hand_fixture_matches_direct_arithmetic(self):
        # independent oracle: straight matrix arithmetic on hand-set weights
        base = normalize_rows(np.array([[1.0, 2.0, 2.0]]))[0]
        down = np.array([[0.5, -0.25, 0.1]])
        up = np.array([[0.2], [-0.3], [0.4]])
        scale = 0.7
        model = make_model(make_provider(d=3), 4, adapter_rank=1, adapter_scale=scale)
        model.adapter_down.value[:] = down
        model.adapter_up.value[:] = up

        h = np.tanh(down @ base)
        z = base + scale * (up @ h)
        expected = z / np.linalg.norm(z)
        np.testing.assert_allclose(adapt_batch(model, base[None, :])[0][0], expected,
                                   atol=1e-14)

    def test_dim_mismatch(self):
        model = make_model(make_provider(d=5), 5, adapter_scale=0.1)
        with pytest.raises(ShapeError):
            adapt_batch(model, np.ones((1, 4)))

    def test_gradient_matches_fd(self):
        p = make_provider(n=5, d=6, seed=11)
        model = make_model(p, 12, adapter_scale=0.3)
        up = model.adapter_up
        up.value[:] = np.random.default_rng(1).normal(size=up.shape) * 0.3
        target = normalize_rows(np.random.default_rng(2).normal(size=(5, 6)))

        def loss():
            out, cache = adapt_batch(model, p.image_embeddings[:5])
            adapt_batch_backward(cache, 2.0 * (out - target))
            return float(np.sum((out - target) ** 2))

        report = check_gradients(loss, [model.adapter_down, up], tol=1e-4)
        assert report.ok, report.failures[:5]

    def test_gradient_at_zero_up_reaches_up(self):
        # signal must reach the zero-initialized up projection
        p = make_provider(n=4, d=6, seed=13)
        model = make_model(p, 14, adapter_scale=0.5)
        out, cache = adapt_batch(model, p.image_embeddings[:4])
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
        v = normalize_rows(np.random.default_rng(6).normal(size=(1, d)))[0]
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
        assert report.ok, report.failures[:5]
