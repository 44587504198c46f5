"""Closed-form examples, straight-line brute-force oracles, and finite
difference checks for every loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft.core import SeededRng, normalize_rows
from coft.encoders import FrozenProvider, TextScratch, compose_texts, init_fft_encoder
from coft.errors import ConfigError, ContractError, DomainError
from coft.grad import check_gradients
from coft.train import (
    MomentumState,
    TrainConfig,
    clean_probability,
    draw_complements,
    init_adapted_model,
    loss_contrastive,
    loss_fft,
    loss_negative,
    loss_phase1,
    loss_positive,
    gradient_check_suite,
)
from coft.train import _negative_terms  # formula-level fixture for limits


# ---------------------------------------------------------------------------
# straight-line oracles (plain python loops, no shared code with the package)
# ---------------------------------------------------------------------------

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def oracle_compose(context_rows, anchors):
    texts = []
    for a, ctx in zip(anchors, context_rows):
        pre = [a[i] + ctx[i] for i in range(len(a))]
        n = _norm(pre)
        texts.append([x / n for x in pre])
    return texts


def oracle_adapt(down, up, scale, e):
    h = [math.tanh(_dot(row, e)) for row in down]
    z = [e[i] + scale * _dot(up[i], h) for i in range(len(e))]
    n = _norm(z)
    return [x / n for x in z]


def oracle_model_pieces(model):
    p = model.provider
    return {
        "anchors": p.class_anchors.tolist(),
        "pos": model.pos_context.value.tolist(),
        "neg": model.neg_context.value.tolist(),
        "down": model.adapter_down.value.tolist(),
        "up": model.adapter_up.value.tolist(),
        "scale": model.adapter_scale,
        "tau": model.tau,
        "tau_pos": model.tau_pos,
    }


def oracle_l1(model, emb, labels):
    mp = oracle_model_pieces(model)
    texts = oracle_compose(mp["pos"], mp["anchors"])
    total = 0.0
    for e, y in zip(emb.tolist(), labels):
        exps = [math.exp(_dot(e, t) / mp["tau_pos"]) for t in texts]
        total += -math.log(exps[y] / sum(exps))
    return total / len(labels)


def oracle_p_clean(model, e, label):
    mp = oracle_model_pieces(model)
    tp = oracle_compose(mp["pos"], mp["anchors"])[label]
    tn = oracle_compose(mp["neg"], mp["anchors"])[label]
    v = oracle_adapt(mp["down"], mp["up"], mp["scale"], list(e))
    ep = math.exp(_dot(v, tp) / mp["tau"])
    en = math.exp(_dot(v, tn) / mp["tau"])
    return ep / (ep + en)


def oracle_l2(model, emb, labels, comps):
    total = 0.0
    for e, y, h in zip(emb.tolist(), labels, comps):
        py = oracle_p_clean(model, e, int(y))
        ph = oracle_p_clean(model, e, int(h))
        total += -(math.log(py) + math.log(1.0 - ph))
    return total / len(labels)


def oracle_encode(enc, x):
    w1, b1 = enc.w1.value.tolist(), enc.b1.value.tolist()
    w2, b2 = enc.w2.value.tolist(), enc.b2.value.tolist()
    h = [math.tanh(_dot(row, x) + b) for row, b in zip(w1, b1)]
    return [x[i] + _dot(w2[i], h) + b2[i] for i in range(len(x))]


def oracle_fft(enc, emb, labels):
    w_fc, b_fc = enc.w_fc.value.tolist(), enc.b_fc.value.tolist()
    total = 0.0
    for x, y in zip(emb.tolist(), labels):
        encoded = oracle_encode(enc, x)
        logits = [_dot(row, encoded) + b for row, b in zip(w_fc, b_fc)]
        exps = [math.exp(l) for l in logits]
        total += -math.log(exps[y] / sum(exps))
    return total / len(labels)


def oracle_contrastive(primary, momentum, queue_rows, views_q, views_k, tau_prime):
    total = 0.0
    for xq, xk in zip(views_q.tolist(), views_k.tolist()):
        q = oracle_encode(primary, xq)
        k = oracle_encode(momentum, xk)
        pos = _dot(q, k) / (_norm(q) * _norm(k))
        sims = [pos]
        for row in queue_rows:
            sims.append(_dot(q, row) / (_norm(q) * _norm(row)))
        exps = [math.exp(s / tau_prime) for s in sims]
        total += -math.log(exps[0] / sum(exps))
    return total / views_q.shape[0]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def random_model(seed, c=None, d=None, tau=None, identity_adapter=False):
    rng = np.random.default_rng(seed)
    c = c or int(rng.integers(2, 6))
    d = d or int(rng.integers(4, 12))
    n = 20
    emb = normalize_rows(rng.normal(size=(n, d)))
    anchors = normalize_rows(rng.normal(size=(c, d)))
    provider = FrozenProvider(emb, anchors)
    cfg = TrainConfig(adapter_rank=2, tau=tau or float(rng.uniform(0.07, 0.5)))
    tau_pos = float(rng.uniform(0.07, 3.0))
    model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(seed + 1))
    model.tau_pos = tau_pos
    if not identity_adapter:
        for p in model.params():
            p.value[:] = rng.normal(size=p.shape) * 0.3
    return provider, model, rng


def margin_fixture(sp_y, sn_y, sp_h, sn_h):
    """Arguments of ``_negative_terms`` for one sample whose four similarities
    are the given numbers: a one-dimensional stacked text table (C = 2,
    positive rows first) seen by the visual embedding [1.0], label 0 and
    complement 1. Row k of the text gradient is then d(loss)/d(similarity)."""
    texts = np.array([[sp_y], [sp_h], [sn_y], [sn_h]])
    return np.ones((1, 1)), texts, np.array([0]), np.array([1])


def aligned_fixture(c=3, d=4):
    anchors = np.eye(d)[:c]
    emb = anchors.copy()
    provider = FrozenProvider(emb, anchors)
    cfg = TrainConfig(adapter_rank=2, tau=0.07)
    model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
    model.tau_pos = 0.07
    model.pos_context.value[:] = 0.0
    model.neg_context.value[:] = 0.0
    model.adapter_up.value[:] = 0.0
    return provider, model


def collision_batch(seed, one_label, batch=12):
    """A batch that reuses text rows heavily: on 2 classes (each complement is
    the other class), or on 4 classes with every row on label 0."""
    provider, model, rng = random_model(seed, c=4 if one_label else 2)
    take = rng.integers(0, provider.num_samples, size=batch)
    labels = (np.zeros(batch, dtype=np.int64) if one_label
              else rng.integers(0, provider.num_classes, size=batch))
    comps = draw_complements(labels, provider.num_classes, SeededRng(seed).stream("c"))
    return model, provider.image_embeddings[take], labels, comps


class TestLossPositive:
    def test_perfect_alignment_tiny_loss(self):
        provider, model = aligned_fixture()
        labels = np.arange(3)
        loss = loss_positive(model, provider.image_embeddings, labels)
        assert loss < 1e-5

    def test_uniform_similarities_ln_c(self):
        d, c = 5, 3
        anchors = np.eye(d)[:c]
        emb = np.eye(d)[c][None, :]  # orthogonal to every anchor
        provider = FrozenProvider(emb, anchors)
        cfg = TrainConfig(adapter_rank=2, tau=0.07)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(4))
        model.pos_context.value[:] = 0.0
        model.adapter_up.value[:] = 0.0
        loss = loss_positive(model, emb, np.array([1]))
        assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_matches_oracle_random_fixtures(self):
        for seed in range(30):
            provider, model, rng = random_model(100 + seed)
            b = int(rng.integers(1, 8))
            take = rng.integers(0, provider.num_samples, size=b)
            labels = rng.integers(0, provider.num_classes, size=b)
            emb = provider.image_embeddings[take]
            got = loss_positive(model, emb, labels)
            want = oracle_l1(model, emb, labels)
            assert abs(got - want) <= 1e-12

    def test_empty_batch(self):
        provider, model, _ = random_model(1)
        with pytest.raises(ContractError):
            loss_positive(model, np.zeros((0, provider.dim)), np.array([], dtype=int))

    def test_gradients(self):
        provider, model, rng = random_model(7, tau=0.2)
        take = rng.integers(0, provider.num_samples, size=5)
        labels = rng.integers(0, provider.num_classes, size=5)
        emb = provider.image_embeddings[take]
        report = check_gradients(
            lambda: loss_positive(model, emb, labels), model.params(), tol=1e-4
        )
        assert report.ok, report.failures[:5]


class TestCleanProbability:
    def test_symmetric_half(self):
        provider, model = aligned_fixture()
        # identical pos/neg contexts give identical texts, so p is exactly 0.5
        for label in range(provider.num_classes):
            p = clean_probability(model, provider.image_embeddings[0], label)
            assert p == 0.5

    def test_closed_form_unit_margin(self):
        # pos text == visual, neg text orthogonal: p = 1 / (1 + e^{-1/tau})
        d = 4
        anchors = np.eye(d)[:2]
        emb = np.eye(d)[:1]
        provider = FrozenProvider(emb, anchors)
        cfg = TrainConfig(adapter_rank=2, tau=0.07)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(5))
        model.pos_context.value[:] = 0.0
        model.adapter_up.value[:] = 0.0
        # steer the negative text of class 0 onto e2: ctx = c*e2 - e0
        c = 4.0
        model.neg_context.value[:] = 0.0
        model.neg_context.value[0, 0] = -1.0
        model.neg_context.value[0, 1] = c
        p = clean_probability(model, emb[0], 0)
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.0 / 0.07)), rel=1e-12)

    def test_matches_oracle(self):
        for seed in range(30):
            provider, model, rng = random_model(200 + seed)
            sid = int(rng.integers(0, provider.num_samples))
            label = int(rng.integers(0, provider.num_classes))
            got = clean_probability(model, provider.image_embeddings[sid], label)
            want = oracle_p_clean(model, provider.image_embeddings[sid].tolist(), label)
            assert abs(got - want) <= 1e-12
            assert 0.0 < got < 1.0

    def test_label_range(self):
        # -1 would read the last row of the stacked table, a negative text
        provider, model, _ = random_model(9)
        for label in (provider.num_classes, -1):
            with pytest.raises(ContractError, match=f"label {label} at row 0"):
                clean_probability(model, provider.image_embeddings[0], label)


class TestLossNegative:
    def test_symmetric_contexts_two_ln_two(self):
        provider, model = aligned_fixture()
        labels = np.array([0, 1])
        comps = np.array([1, 2])
        loss = loss_negative(model, provider.image_embeddings[:2], labels, comps)
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_perfect_separation_limit(self):
        # formula-level limit: margins +inf on the label, -inf on the complement
        loss, *_ = _negative_terms(*margin_fixture(40.0, -40.0, -40.0, 40.0),
                                   tau=1.0, weight=1.0, rows=None, out=None)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_perfect_separation_limit_on_operation(self):
        # positive texts lean on e2, negative on e3; the diagonal sample then
        # carries margin +0.24 for class 1 and -0.24 for class 0, which at a
        # sharp temperature drives p_clean(1) -> 1 and p_clean(0) -> 0
        d = 4
        anchors = np.eye(d)[2:4]  # class 0 anchor e2, class 1 anchor e3
        v = np.zeros(d)
        v[2] = v[3] = 1 / np.sqrt(2)
        provider = FrozenProvider(v[None, :], anchors)
        cfg = TrainConfig(adapter_rank=2, tau=0.01)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(8))
        model.adapter_up.value[:] = 0.0
        model.pos_context.value[:] = 0.0
        model.pos_context.value[:, 2] = 2.0
        model.neg_context.value[:] = 0.0
        model.neg_context.value[:, 3] = 2.0
        assert clean_probability(model, v, 1) > 1 - 1e-9
        assert clean_probability(model, v, 0) < 1e-9
        loss = loss_negative(model, v[None, :], np.array([1]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gradient_signs(self):
        # raising the negative similarity of the complement must lower the loss,
        # raising it for the assigned label must raise the loss
        rng = np.random.default_rng(11)
        s = rng.uniform(-1, 1, size=(4, 50))
        for sp_y, sn_y, sp_h, sn_h in s.T:
            _, _, d_sims = _negative_terms(*margin_fixture(sp_y, sn_y, sp_h, sn_h),
                                           tau=0.2, weight=1.0, rows=None, out=None)
            assert d_sims[2, 0] > 0  # negative similarity of the assigned label
            assert d_sims[3, 0] < 0  # negative similarity of the complement

    def test_matches_oracle_random_fixtures(self):
        for seed in range(30):
            provider, model, rng = random_model(300 + seed)
            b = int(rng.integers(1, 8))
            take = rng.integers(0, provider.num_samples, size=b)
            labels = rng.integers(0, provider.num_classes, size=b)
            comps = draw_complements(labels, provider.num_classes,
                                     SeededRng(seed).stream("c"))
            emb = provider.image_embeddings[take]
            got = loss_negative(model, emb, labels, comps)
            want = oracle_l2(model, emb, labels, comps)
            assert abs(got - want) <= 1e-12

    def test_complement_equal_label_rejected(self):
        provider, model, _ = random_model(13)
        with pytest.raises(ContractError):
            loss_negative(model, provider.image_embeddings[:1], np.array([0]),
                          np.array([0]))

    def test_collisions_match_oracle(self):
        # every text row is hit by many samples, as label and as complement
        for one_label in (False, True):
            for seed in range(10):
                model, emb, labels, comps = collision_batch(500 + seed, one_label)
                got = loss_negative(model, emb, labels, comps)
                assert abs(got - oracle_l2(model, emb, labels, comps)) <= 1e-12

    @pytest.mark.parametrize("one_label", [False, True], ids=["two-classes", "one-label"])
    def test_collisions_gradients(self, one_label):
        model, emb, labels, comps = collision_batch(17, one_label)
        report = check_gradients(
            lambda: loss_negative(model, emb, labels, comps), model.params(), tol=1e-4
        )
        assert report.ok, report.failures[:5]

    def test_gradients(self):
        provider, model, rng = random_model(15, tau=0.25)
        take = rng.integers(0, provider.num_samples, size=6)
        labels = rng.integers(0, provider.num_classes, size=6)
        comps = draw_complements(labels, provider.num_classes, SeededRng(16).stream("c"))
        emb = provider.image_embeddings[take]
        report = check_gradients(
            lambda: loss_negative(model, emb, labels, comps), model.params(), tol=1e-4
        )
        assert report.ok, report.failures[:5]


class TestLossPhase1:
    def test_equals_separate_losses(self):
        # one compose per text table gives the value and gradients of the
        # two losses accumulated separately
        for seed in range(20):
            provider, model, rng = random_model(400 + seed)
            b = int(rng.integers(1, 8))
            take = rng.integers(0, provider.num_samples, size=b)
            labels = rng.integers(0, provider.num_classes, size=b)
            comps = draw_complements(labels, provider.num_classes,
                                     SeededRng(seed).stream("comp"))
            emb = provider.image_embeddings[take]
            lam = float(rng.uniform(0.01, 3.0))
            pos = loss_positive(model, emb, labels)
            pos_grads = [p.grad.copy() for p in model.params()]
            for p in model.params():
                p.zero_grad()
            want = pos + lam * loss_negative(model, emb, labels, comps)
            want_grads = [g + lam * p.grad for p, g in zip(model.params(), pos_grads)]
            for p in model.params():
                p.zero_grad()
            got = loss_phase1(model, emb, labels, comps, lam)
            assert abs(got - want) <= 1e-12
            for p, g in zip(model.params(), want_grads):
                np.testing.assert_allclose(p.grad, g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("one_label", [False, True], ids=["two-classes", "one-label"])
    def test_sum_on_collisions(self, one_label):
        # value within 1e-12; each gradient within 1e-12 of its largest entry
        for seed in range(5):
            model, emb, labels, comps = collision_batch(600 + seed, one_label)
            lam = 0.05 + seed
            pos = loss_positive(model, emb, labels)
            pos_grads = [p.grad.copy() for p in model.params()]
            for p in model.params():
                p.zero_grad()
            neg = loss_negative(model, emb, labels, comps)
            want_grads = [g + lam * p.grad for p, g in zip(model.params(), pos_grads)]
            for p in model.params():
                p.zero_grad()
            assert abs(loss_phase1(model, emb, labels, comps, lam) - (pos + lam * neg)) <= 1e-12
            for p, g in zip(model.params(), want_grads):
                np.testing.assert_allclose(p.grad, g, rtol=0,
                                           atol=1e-12 * np.max(np.abs(g)), err_msg=p.name)
                p.zero_grad()

    def test_lambda_zero_is_loss_positive(self):
        provider, model, rng = random_model(17)
        labels = rng.integers(0, provider.num_classes, size=4)
        emb = provider.image_embeddings[:4]
        want = loss_positive(model, emb, labels)
        want_grads = [p.grad.tobytes() for p in model.params()]
        for p in model.params():
            p.zero_grad()
        assert loss_phase1(model, emb, labels, None, 0.0) == want
        assert [p.grad.tobytes() for p in model.params()] == want_grads

    def test_negative_needs_complements(self):
        provider, model, rng = random_model(18)
        labels = rng.integers(0, provider.num_classes, size=4)
        with pytest.raises(ContractError):
            loss_negative(model, provider.image_embeddings[:4], labels, None)
        assert not any(np.any(p.grad) for p in model.params())


class TestTextScratch:
    """Training writes every step's text tables and gather into one
    TextScratch; the values must be bit for bit those of fresh tables."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), c=st.integers(2, 5), d=st.integers(2, 8),
           batch=st.integers(2, 8), data=st.data())
    def test_steps_match_fresh_tables(self, seed, c, d, batch, data):
        last = data.draw(st.integers(1, batch - 1), label="ragged last batch")
        negative = data.draw(st.booleans(), label="negative term")
        runs = []
        for reuse in (False, True):
            provider, model, rng = random_model(seed, c=c, d=d)
            scratch = TextScratch(provider, batch) if reuse else None
            take = rng.integers(0, provider.num_samples, size=batch + last)
            labels = rng.integers(0, c, size=batch + last)
            comps = (draw_complements(labels, c, SeededRng(seed).stream("comp"))
                     if negative else None)
            losses = [loss_phase1(model, provider.image_embeddings[take[rows]], labels[rows],
                                  None if comps is None else comps[rows], 0.7, scratch)
                      for rows in (slice(0, batch), slice(batch, None))]
            texts, _ = compose_texts(model, scratch)
            runs.append((losses, texts.tobytes(), [p.grad.tobytes() for p in model.params()]))
        assert runs[0] == runs[1]

    def test_calls_without_scratch_alias_nothing(self):
        provider, model, _ = random_model(5)
        first, second = compose_texts(model)[0], compose_texts(model)[0]
        assert not np.shares_memory(first, second)
        scratch = TextScratch(provider, 4)
        assert compose_texts(model, scratch)[0] is scratch.texts


class TestClassRange:
    """Labels and complements outside [0, C) are refused before any work: a
    negative one would otherwise wrap to another class."""

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("loss", ["loss_positive", "loss_negative", "loss_phase1"])
    def test_phase1_label_out_of_range(self, loss, bad):
        provider, model, _ = random_model(21, c=3)
        labels = np.array([1, bad, 0])
        comps = np.array([0, 1, 2])
        call = {
            "loss_positive": lambda: loss_positive(model, provider.image_embeddings[:3], labels),
            "loss_negative": lambda: loss_negative(model, provider.image_embeddings[:3],
                                                   labels, comps),
            "loss_phase1": lambda: loss_phase1(model, provider.image_embeddings[:3],
                                               labels, comps, 0.5),
        }[loss]
        with pytest.raises(ContractError, match=f"label {bad} at row 1 is outside the 3 classes"):
            call()
        assert not any(np.any(p.grad) for p in model.params())

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("loss", ["loss_negative", "loss_phase1"])
    def test_complement_out_of_range(self, loss, bad):
        provider, model, _ = random_model(22, c=3)
        labels = np.array([1, 2, 0])
        comps = np.array([0, 1, bad])
        fn = loss_negative if loss == "loss_negative" else (
            lambda m, e, y, h: loss_phase1(m, e, y, h, 0.5))
        with pytest.raises(ContractError,
                           match=f"complement {bad} at row 2 is outside the 3 classes"):
            fn(model, provider.image_embeddings[:3], labels, comps)
        assert not any(np.any(p.grad) for p in model.params())

    @pytest.mark.parametrize("loss", ["loss_negative", "loss_phase1"])
    def test_one_class_names_the_loss_called(self, loss):
        # loss_phase1 once said "loss_negative needs at least 2 classes"
        provider, model, _ = random_model(24, c=1)
        fn = loss_negative if loss == "loss_negative" else (
            lambda m, e, y, h: loss_phase1(m, e, y, h, 0.5))
        with pytest.raises(ConfigError, match=f"^{loss} needs at least 2 classes$"):
            fn(model, provider.image_embeddings[:3], np.zeros(3, dtype=int),
               np.ones(3, dtype=int))

    def test_wrapped_label_no_longer_aliases(self):
        provider, model, _ = random_model(23, c=3)
        emb = provider.image_embeddings[:2]
        with pytest.raises(ContractError):
            loss_positive(model, emb, [-1, 0])
        loss_positive(model, emb, [2, 0])  # the class -1 used to wrap to

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_fft_label_out_of_range(self, bad):
        enc = init_fft_encoder(5, 4, 8, SeededRng(1))
        emb = normalize_rows(np.random.default_rng(0).normal(size=(3, 5)))
        with pytest.raises(ContractError, match=f"label {bad} at row 0 is outside the 4 classes"):
            loss_fft(enc, emb, np.array([bad, 1, 2]))
        assert not any(np.any(p.grad) for p in enc.params())


class TestDrawComplements:
    def test_never_equals_label_and_uniform(self):
        labels = np.tile(np.arange(5), 400)
        comps = draw_complements(labels, 5, SeededRng(1).stream("c"))
        assert np.all(comps != labels)
        assert set(np.unique(comps)) == set(range(5))

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            draw_complements(np.array([0]), 1, SeededRng(1))


class TestLossFFT:
    def test_uniform_init_ln_c(self):
        enc = init_fft_encoder(6, num_classes=4, hidden=12, rng=SeededRng(1))
        emb = normalize_rows(np.random.default_rng(0).normal(size=(5, 6)))
        labels = np.random.default_rng(1).integers(0, 4, size=5)
        assert loss_fft(enc, emb, labels) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            d, c, h = int(rng.integers(3, 8)), int(rng.integers(2, 5)), 6
            enc = init_fft_encoder(d, c, h, SeededRng(seed))
            for p in enc.params():
                p.value[:] = rng.normal(size=p.shape) * 0.5
            b = int(rng.integers(1, 7))
            emb = normalize_rows(rng.normal(size=(b, d)))
            labels = rng.integers(0, c, size=b)
            got = loss_fft(enc, emb, labels)
            want = oracle_fft(enc, emb, labels)
            assert abs(got - want) <= 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(3)
        enc = init_fft_encoder(5, 3, 8, SeededRng(4))
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape) * 0.4
        emb = normalize_rows(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 3, size=4)
        report = check_gradients(
            lambda: loss_fft(enc, emb, labels), enc.params(), tol=1e-4
        )
        assert report.ok, report.failures[:5]


class TestLossContrastive:
    def _fixture(self, seed, d=6, queue_len=8, batch=4):
        rng = np.random.default_rng(seed)
        primary = init_fft_encoder(d, 3, 10, SeededRng(seed))
        for p in primary.params():
            p.value[:] = rng.normal(size=p.shape) * 0.4
        state = MomentumState(primary, mu=0.9, tau_prime=0.3, capacity=16)
        for p in state.momentum.params():
            p.value[:] = rng.normal(size=p.shape) * 0.4
        for _ in range(queue_len):
            state.enqueue(normalize_rows(rng.normal(size=(1, d))))
        vq = normalize_rows(rng.normal(size=(batch, d)))
        vk = normalize_rows(rng.normal(size=(batch, d)))
        return primary, state, vq, vk

    def test_empty_queue_zero_loss(self):
        primary, state, vq, vk = self._fixture(1, queue_len=0)
        loss = loss_contrastive(primary, state, vq, vk, update_queue=False)
        assert loss == 0.0

    def test_two_way_symmetric_ln_two(self):
        d = 4
        primary = init_fft_encoder(d, 2, 6, SeededRng(2))  # exact identity encoder
        state = MomentumState(primary, mu=0.9, tau_prime=0.2, capacity=4)
        e0 = np.eye(d)[0]
        state.enqueue(e0[None, :])  # negative identical to the positive key
        loss = loss_contrastive(primary, state, e0[None, :], e0[None, :],
                                update_queue=False)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_oracle(self):
        for seed in range(25):
            primary, state, vq, vk = self._fixture(100 + seed)
            got = loss_contrastive(primary, state, vq, vk, update_queue=False)
            want = oracle_contrastive(primary, state.momentum,
                                      state.queue_array().tolist(),
                                      vq, vk, state.tau_prime)
            assert abs(got - want) <= 1e-12

    def test_queue_update_order(self):
        primary, state, vq, vk = self._fixture(5, queue_len=14, batch=4)
        before = state.queue_array()
        loss_contrastive(primary, state, vq, vk)
        after = state.queue_array()
        assert after.shape[0] == 16  # capacity cap
        # last 4 rows are the new keys; the 2 oldest were evicted
        from coft.encoders import encode_batch

        k_raw, _ = encode_batch(state.momentum, vk)
        np.testing.assert_allclose(after[-4:], normalize_rows(k_raw), atol=1e-15)
        np.testing.assert_array_equal(after[:12], before[2:])

    def test_bad_temperature(self):
        primary, state, vq, vk = self._fixture(6)
        state.tau_prime = 0.0
        with pytest.raises(DomainError):
            MomentumState(primary, mu=0.5, tau_prime=0.0, capacity=4)

    def test_gradients_query_path(self):
        primary, state, vq, vk = self._fixture(7)
        report = check_gradients(
            lambda: loss_contrastive(primary, state, vq, vk, update_queue=False),
            primary.params(), tol=1e-4,
        )
        assert report.ok, report.failures[:5]
        # keys and queue take no gradient: the twin holds no grads at all, so
        # any accumulation into it would raise
        loss_contrastive(primary, state, vq, vk, update_queue=False)
        for p in state.momentum.params():
            assert p.grad is None


class TestGradientSuite:
    def test_small_run_all_ok(self):
        results = gradient_check_suite(instances=3, seed=0)
        names = {name for name, _, _ in results}
        assert names == {
            "loss_positive", "loss_negative", "loss_phase1",
            "loss_fft", "loss_contrastive", "loss_phase2",
        }
        for name, idx, report in results:
            assert report.ok, f"{name}[{idx}]: {report.failures[:5]}"
