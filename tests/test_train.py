import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft.core import SeededRng, normalize_rows
from coft.data import SyntheticSpec, generate_synthetic
from coft.encoders import FrozenProvider, TextScratch, encode_batch, init_fft_encoder
from coft.errors import (
    ConfigError,
    ContractError,
    FormatError,
    PipelineError,
    ShapeError,
    TrainingError,
)
from coft.grad import Adam, flat_buffer, step
from coft.pseudo import (
    assign_pseudo_labels,
    centroid_confidences,
    select_top_k,
)
from coft.train import (
    MomentumState,
    TrainConfig,
    augment_two_views,
    clean_probability,
    collaborative_filter,
    collaborative_filter_both,
    generate_labels,
    init_adapted_model,
    iterate_peft,
    loss_contrastive,
    loss_fft,
    loss_positive,
    momentum_update,
    train_fft,
    train_phase1,
)

from test_losses import oracle_adapt, oracle_compose, oracle_model_pieces
from test_pseudo import rows_of


def synthetic_provider(seed=0, classes=3, per_class=20, dim=8, sigma=0.05,
                       alignment=1.0):
    spec = SyntheticSpec(classes=classes, per_class=per_class, dim=dim,
                         noise_sigma=sigma, anchor_alignment=alignment, seed=seed)
    return generate_synthetic(spec)


def zero_shot_selection(provider, cfg):
    candidates = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                      cfg.tau)
    return select_top_k(candidates, cfg.k_per_class, provider.num_classes)


def small_cfg(**kw):
    base = dict(k_per_class=8, phase1_epochs=20, phase2_epochs=30, batch_size=16,
                adapter_rank=2, rounds=1, queue_capacity=32)
    base.update(kw)
    return TrainConfig(**base)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)
                if isinstance(getattr(TrainConfig(), f.name), float)]


class TestTrainConfig:
    def test_float_field_list_covers_every_float_knob(self):
        assert {"lr_peft", "lr_fft", "init_sigma", "aug_noise", "adapter_scale",
                "lam", "gamma", "tau"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name, value", [("lr_peft", 0.0), ("lr_fft", -1e-3),
                                             ("init_sigma", -0.1), ("aug_noise", -0.1)])
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name}={value}"):
            TrainConfig(**{name: value}).validate()


class TestTrainPhase1:
    def test_separable_set_reaches_full_selection_accuracy(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg()
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(5))
        train_phase1(model, selected, cfg, SeededRng(5))
        ids, labels, _ = selected.training_view()
        relabeled = generate_labels(model).subset(ids)  # row == sample id
        assert np.array_equal(relabeled.labels(), labels)

    def test_fixed_seed_bit_identical(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=8)
        selected = zero_shot_selection(provider, cfg)
        snapshots = []
        for _ in range(2):
            model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(7))
            train_phase1(model, selected, cfg, SeededRng(7))
            snapshots.append([p.value.tobytes() for p in model.params()])
        assert snapshots[0] == snapshots[1]

    def test_lambda_zero_equals_pure_positive_run(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(lam=0.0, phase1_epochs=10)
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
        train_phase1(model, selected, cfg, SeededRng(3))

        # independent loop: positive loss only, same streams
        twin = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
        ids, labels, _ = selected.training_view()
        emb_all = provider.image_embeddings[ids]
        opt = Adam(cfg.lr_peft)
        root = SeededRng(3)
        n = ids.shape[0]
        for epoch in range(cfg.phase1_epochs):
            order = root.stream(f"round1/model1/epoch{epoch}/shuffle").permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss_positive(twin, emb_all[batch], labels[batch])
                step(opt, twin.params())
        assert model.pos_context.value.tobytes() == twin.pos_context.value.tobytes()
        assert model.adapter_up.value.tobytes() == twin.adapter_up.value.tobytes()
        # negative contexts went untrained in both runs
        assert model.neg_context.value.tobytes() == twin.neg_context.value.tobytes()

    def test_loss_non_increasing_after_smoothing(self, tmp_path):
        from coft.data import MetricsWriter

        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=30)
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(11))
        metrics = MetricsWriter(tmp_path / "m.jsonl")
        train_phase1(model, selected, cfg, SeededRng(11), metrics=metrics)
        losses = [r["loss"] for r in MetricsWriter.read(tmp_path / "m.jsonl")
                  if r.get("phase") == 1 and "loss" in r]
        window = 5
        smoothed = [float(np.mean(losses[i:i + window]))
                    for i in range(len(losses) - window + 1)]
        slack = 1e-3 * max(1.0, smoothed[0])
        assert all(b <= a + slack for a, b in zip(smoothed, smoothed[1:]))

    def test_empty_selection_rejected(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg()
        from coft.pseudo import PseudoLabelSet

        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(1))
        with pytest.raises(ContractError):
            train_phase1(model, PseudoLabelSet([], [], [], "zeroshot"), cfg, SeededRng(1))

    def test_overflow_raises_training_error_with_param(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(lr_peft=1e308, phase1_epochs=3)
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(2))
        with pytest.raises(TrainingError) as exc:
            train_phase1(model, selected, cfg, SeededRng(2))
        assert exc.value.param_name is not None

    def test_only_attached_parameters_change(self):
        provider, _ = synthetic_provider()
        before_emb = provider.image_embeddings.tobytes()
        before_anchor = provider.class_anchors.tobytes()
        cfg = small_cfg(phase1_epochs=5)
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(4))
        train_phase1(model, selected, cfg, SeededRng(4))
        assert provider.image_embeddings.tobytes() == before_emb
        assert provider.class_anchors.tobytes() == before_anchor


class TestCollaborativeFilter:
    def trained_pair(self, seed=0, **cfg_kw):
        provider, truth = synthetic_provider(seed=seed, sigma=0.35, alignment=0.7)
        cfg = small_cfg(**cfg_kw)
        selected = zero_shot_selection(provider, cfg)
        models = []
        for mid in ("model1", "model2"):
            m = init_adapted_model(provider, mid, 1, cfg, SeededRng(50 + seed))
            train_phase1(m, selected, cfg, SeededRng(50 + seed))
            models.append(m)
        return provider, truth, models[0], models[1]

    def test_identical_prompts_route_everything_to_noise(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg()
        gen = init_adapted_model(provider, "model1", 1, cfg, SeededRng(1))
        val = init_adapted_model(provider, "model2", 1, cfg, SeededRng(2))
        val.neg_context.value[:] = val.pos_context.value
        gen.trained = val.trained = True
        result = collaborative_filter(gen, val)
        assert len(result.with_status("clean")) == 0
        assert len(result.with_status("noise")) == provider.num_samples

    def test_hand_built_similarities(self):
        d = 4
        anchors = np.eye(d)[:2]
        emb = np.vstack([np.eye(d)[0], np.eye(d)[2]])  # a aligns with class 0, b with nothing
        provider = FrozenProvider(emb, anchors)
        cfg = small_cfg()
        gen = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
        val = init_adapted_model(provider, "model2", 1, cfg, SeededRng(4))
        for m in (gen, val):
            m.pos_context.value[:] = 0.0
            m.adapter_up.value[:] = 0.0
            m.trained = True
        # validator's negative texts lean onto e2: sim-(a)=0.707 < sim+(a)=1,
        # sim-(b)=0.707 > sim+(b)=0
        val.neg_context.value[:] = 0.0
        val.neg_context.value[0, 2] = 1.0
        result = collaborative_filter(gen, val)
        assert result.with_status("clean").sample_ids().tolist() == [0]
        assert result.with_status("noise").sample_ids().tolist() == [1]

    def test_partition_and_oracle_sixty_samples(self):
        provider, _, m1, m2 = self.trained_pair(seed=1)
        result = collaborative_filter(m1, m2)
        ids = np.arange(provider.num_samples)
        got_clean = set(result.with_status("clean").sample_ids().tolist())
        got_noise = set(result.with_status("noise").sample_ids().tolist())
        assert got_clean | got_noise == set(ids.tolist())
        assert got_clean & got_noise == set()
        assert result.sample_ids().tolist() == ids.tolist()
        labels = result.labels()

        # brute-force straight-line recomputation per sample
        gp = oracle_model_pieces(m1)
        vp = oracle_model_pieces(m2)
        texts_g = oracle_compose(gp["pos"], gp["anchors"])
        texts_vp = oracle_compose(vp["pos"], vp["anchors"])
        texts_vn = oracle_compose(vp["neg"], vp["anchors"])
        for sid in ids:
            e = provider.image_embeddings[sid].tolist()
            sims = [sum(a * b for a, b in zip(e, t)) for t in texts_g]
            y = max(range(len(sims)), key=lambda k: (sims[k], -k))
            vv = oracle_adapt(vp["down"], vp["up"], vp["scale"], e)
            sp = sum(a * b for a, b in zip(vv, texts_vp[y]))
            sn = sum(a * b for a, b in zip(vv, texts_vn[y]))
            assert labels[sid] == y
            assert (sid in got_clean) == (sp > sn)

    def test_clean_iff_clean_probability_above_half(self):
        provider, _, m1, m2 = self.trained_pair(seed=2)
        result = collaborative_filter(m1, m2)
        clean = set(result.with_status("clean").sample_ids().tolist())
        for sid, label in zip(result.sample_ids(), result.labels()):
            p = clean_probability(m2, provider.image_embeddings[sid], label)
            if sid in clean:
                assert p > 0.5
            else:
                assert p <= 0.5

    def test_both_directions(self):
        provider, truth, m1, m2 = self.trained_pair(seed=3)
        both = collaborative_filter_both(m1, m2)
        assert list(both) == ["model1", "model2"]
        for mid, r in both.items():
            assert {row["generator"] for row in rows_of(r)} == {mid}
            assert (len(r.with_status("clean")) + len(r.with_status("noise"))
                    == provider.num_samples)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 5), d=st.integers(3, 8),
           n=st.integers(1, 12), data=st.data())
    def test_partition_property(self, seed, c, d, n, data):
        # random small models on a random subset of rows; the validator's
        # negative context equals its positive one on the "tied" classes, so
        # every sample labelled with such a class has sim_pos == sim_neg exactly
        rng = np.random.default_rng(seed)
        emb = normalize_rows(rng.normal(size=(n, d)))
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        provider = FrozenProvider(emb[subset], normalize_rows(rng.normal(size=(c, d))))
        gen, val = (init_adapted_model(provider, mid, 1, small_cfg(), SeededRng(seed))
                    for mid in ("model1", "model2"))
        for m in (gen, val):
            for p in m.params():
                p.value[:] = rng.normal(size=p.shape) * 0.3
            m.trained = True
        tied = np.array(data.draw(st.lists(st.booleans(), min_size=c, max_size=c)))
        val.neg_context.value[tied] = val.pos_context.value[tied]

        result = collaborative_filter(gen, val)
        clean = set(result.with_status("clean").sample_ids().tolist())
        noise = set(result.with_status("noise").sample_ids().tolist())
        assert clean.isdisjoint(noise)
        assert clean | noise == set(range(len(subset)))
        assert len(result) == len(subset)
        for sid, label in zip(result.sample_ids(), result.labels()):
            if tied[label]:
                assert sid in noise

    def test_untrained_models_warn(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg()
        gen = init_adapted_model(provider, "model1", 1, cfg, SeededRng(1))
        val = init_adapted_model(provider, "model2", 1, cfg, SeededRng(2))
        with pytest.warns(UserWarning):
            collaborative_filter(gen, val)


class TestTrainFFT:
    def test_single_sample_memorization(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase2_epochs=60, gamma=0.0)
        single = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                      cfg.tau).subset([0])
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(1))
        train_fft(student, single, provider, cfg, SeededRng(1), "phase2/student1")
        from coft.encoders import logits_batch

        logits, _ = logits_batch(student, provider.image_embeddings[:1])
        assert int(np.argmax(logits[0])) == single.labels()[0]

    def test_separable_clusters_reach_full_accuracy(self):
        provider, truth = synthetic_provider(per_class=25)
        cfg = small_cfg(phase2_epochs=60, gamma=0.0)
        # perfectly filtered labels: the truth itself on every sample, scored
        # against one-hot class texts
        classes = np.eye(provider.num_classes)
        labelset = assign_pseudo_labels(classes[truth], classes, cfg.tau)
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(2))
        train_fft(student, labelset, provider, cfg, SeededRng(2), "phase2/student1")
        from coft.encoders import logits_batch

        logits, _ = logits_batch(student, provider.image_embeddings)
        assert float(np.mean(np.argmax(logits, axis=1) == truth)) == 1.0

    def test_empty_clean_set(self):
        from coft.pseudo import PseudoLabelSet

        provider, _ = synthetic_provider()
        cfg = small_cfg(gamma=0.0)
        student = init_fft_encoder(provider.dim, provider.num_classes, 16, SeededRng(3))
        with pytest.raises(PipelineError):
            train_fft(student, PseudoLabelSet([], [], [], "zeroshot"), provider, cfg, SeededRng(3), "s")


class TestMomentum:
    def test_mu_zero_copies_primary(self):
        enc = init_fft_encoder(5, 3, 8, SeededRng(1))
        rng = np.random.default_rng(0)
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape)
        state = MomentumState(enc, mu=0.0, tau_prime=0.2, capacity=4)
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape)
        momentum_update(state, enc)
        for mp, pp in zip(state.momentum.params(), enc.params()):
            np.testing.assert_array_equal(mp.value, pp.value)

    def test_geometric_decay(self):
        enc = init_fft_encoder(4, 2, 6, SeededRng(2))
        rng = np.random.default_rng(1)
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape)
        state = MomentumState(enc, mu=0.999, tau_prime=0.2, capacity=4)
        for mp in state.momentum.params():
            mp.value[:] = mp.value + rng.normal(size=mp.shape)
        diff0 = np.concatenate(
            [mp.value.ravel() - pp.value.ravel()
             for mp, pp in zip(state.momentum.params(), enc.params())]
        )
        for _ in range(100):
            momentum_update(state, enc)
        diff_n = np.concatenate(
            [mp.value.ravel() - pp.value.ravel()
             for mp, pp in zip(state.momentum.params(), enc.params())]
        )
        expected = (0.999 ** 100) * diff0
        rel = np.max(np.abs(diff_n - expected) / np.maximum(np.abs(expected), 1e-300))
        assert rel <= 1e-9

    def test_flat_twin_matches_per_tensor_loop_bitwise(self):
        # the EMA of the student's value buffer against the per-tensor loop it
        # replaced, over 60 steps: the first 5 after in-place writes to the
        # student's tensors, then after steps of one optimizer, and from step
        # 30 of a second one; no array of either encoder is ever replaced
        from coft.grad import accumulate_grad

        enc = init_fft_encoder(6, 3, 12, SeededRng(10))
        rng = np.random.default_rng(3)
        for p in enc.params():
            p.value[:] = rng.normal(size=p.shape)
        state = MomentumState(enc, mu=0.9, tau_prime=0.2, capacity=4)
        arrays = [p.value for p in enc.params() + state.momentum.params()]
        reference = [mp.value.copy() for mp in state.momentum.params()]
        opt = Adam(0.01)
        for i in range(60):
            if i == 30:
                opt = Adam(0.01)
            if i >= 5:
                for p in enc.params():
                    accumulate_grad(p, rng.normal(size=p.shape))
                step(opt, enc.params())
            else:  # unbound: in-place writes must reach the next update
                for p in enc.params():
                    p.value += rng.normal(size=p.shape)
            momentum_update(state, enc)
            for ref, pp in zip(reference, enc.params()):
                ref *= 0.9
                ref += (1.0 - 0.9) * pp.value
        for mp, ref in zip(state.momentum.params(), reference):
            assert mp.value.tobytes() == ref.tobytes()
        assert all(p.value is a for p, a in zip(enc.params() + state.momentum.params(), arrays))

    def test_mu_one_excluded(self):
        enc = init_fft_encoder(4, 2, 6, SeededRng(3))
        from coft.errors import DomainError

        with pytest.raises(DomainError):
            MomentumState(enc, mu=1.0, tau_prime=0.2, capacity=4)

    def test_shape_mismatch_rejected(self):
        enc = init_fft_encoder(4, 2, 6, SeededRng(4))
        state = MomentumState(enc, mu=0.5, tau_prime=0.2, capacity=4)
        before = [mp.value.copy() for mp in state.momentum.params()]
        # another encoder, of other shapes or of the same ones, is not the
        # one the twin follows
        for other in (init_fft_encoder(5, 2, 6, SeededRng(5)),
                      init_fft_encoder(4, 2, 6, SeededRng(4))):
            with pytest.raises(ContractError, match="not a tensor of the encoder"):
                momentum_update(state, other)
        for mp, b in zip(state.momentum.params(), before):
            np.testing.assert_array_equal(mp.value, b)

    def test_fifo_queue_oracle_fifty_steps(self):
        d, batch, capacity = 6, 5, 12
        enc = init_fft_encoder(d, 2, 8, SeededRng(6))
        state = MomentumState(enc, mu=0.9, tau_prime=0.3, capacity=capacity)
        rng = np.random.default_rng(2)
        expected_keys = []
        for _ in range(50):
            vq = normalize_rows(rng.normal(size=(batch, d)))
            vk = normalize_rows(rng.normal(size=(batch, d)))
            k_raw, _ = encode_batch(state.momentum, vk)
            expected_keys.extend(normalize_rows(k_raw))
            loss_contrastive(enc, state, vq, vk)
        got = state.queue_array()
        want = np.array(expected_keys[-capacity:])
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.lists(st.integers(0, 14), max_size=12))
    def test_queue_keeps_the_last_capacity_rows(self, capacity, batch_sizes):
        d = 3
        state = MomentumState(init_fft_encoder(d, 2, 4, SeededRng(7)), mu=0.5,
                              tau_prime=0.2, capacity=capacity)
        pushed = np.zeros((0, d))
        for n in batch_sizes:  # batches up to more than twice the capacity
            keys = (pushed.size + np.arange(n * d, dtype=np.float64)).reshape(n, d)
            state.enqueue(keys)
            pushed = np.concatenate([pushed, keys])
            got = state.queue_array()
            assert got.shape == (min(pushed.shape[0], capacity), d)
            assert got.tobytes() == pushed[pushed.shape[0] - got.shape[0]:].tobytes()

    def test_queue_array_is_a_copy(self):
        state = MomentumState(init_fft_encoder(2, 2, 4, SeededRng(8)), mu=0.5,
                              tau_prime=0.2, capacity=3)
        state.enqueue([[1.0, 2.0], [3.0, 4.0]])
        snapshot = state.queue_array()
        state.enqueue([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(snapshot, [[1.0, 2.0], [3.0, 4.0]])
        snapshot[0] = -1.0
        np.testing.assert_array_equal(state.queue_array(),
                                      [[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])

    def test_enqueue_rejects_wrong_key_width(self):
        state = MomentumState(init_fft_encoder(2, 2, 4, SeededRng(9)), mu=0.5,
                              tau_prime=0.2, capacity=3)
        with pytest.raises(ShapeError):
            state.enqueue(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            state.enqueue(np.zeros(2))
        assert state.queue_array().shape == (0, 2)


class TestPhase2Plus:
    def clean_fixture(self, seed=0):
        provider, truth = synthetic_provider(seed=seed, per_class=15)
        cfg = small_cfg(phase2_epochs=12)
        labelset = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                        cfg.tau)
        return provider, cfg, labelset

    def test_gamma_zero_matches_reference_loop(self):
        # gamma == 0 is plain supervised fine-tuning: the shuffle stream,
        # batches in order, then loss_fft and a step of one Adam per batch
        provider, cfg, labelset = self.clean_fixture()
        cfg = dataclasses.replace(cfg, gamma=0.0)
        student, twin, pristine = (
            init_fft_encoder(provider.dim, provider.num_classes,
                             cfg.hidden_mult * provider.dim, SeededRng(9))
            for _ in range(3))
        train_fft(student, labelset, provider, cfg, SeededRng(9), "phase2/s1")

        ids, labels, _ = labelset.training_view()
        emb = provider.image_embeddings[ids]
        opt = Adam(cfg.lr_fft)
        root = SeededRng(9)
        for epoch in range(cfg.phase2_epochs):
            order = root.stream(f"phase2/s1/epoch{epoch}/shuffle").permutation(ids.size)
            for start in range(0, ids.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss_fft(twin, emb[batch], labels[batch])
                step(opt, twin.params())
        for got, want, init in zip(student.params(), twin.params(), pristine.params()):
            assert got.value.tobytes() == want.value.tobytes()
        assert any(w.value.tobytes() != i.value.tobytes()
                   for w, i in zip(twin.params(), pristine.params()))

    def test_gamma_positive_matches_reference_loop(self):
        # coft-plus: per batch the supervised loss, then the contrastive loss
        # on two views of the batch's slice of the epoch's contrastive order,
        # a step of one Adam, then the momentum EMA
        provider, cfg, labelset = self.clean_fixture()
        assert cfg.gamma > 0
        student, twin = (init_fft_encoder(provider.dim, provider.num_classes,
                                          cfg.hidden_mult * provider.dim, SeededRng(12))
                         for _ in range(2))
        train_fft(student, labelset, provider, cfg, SeededRng(12), "phase2/s1")

        ids, labels, _ = labelset.training_view()
        emb = provider.image_embeddings[ids]
        n_all = provider.num_samples
        state = MomentumState(twin, cfg.mu, cfg.tau_prime, cfg.queue_capacity)
        opt = Adam(cfg.lr_fft)
        root = SeededRng(12)
        for epoch in range(cfg.phase2_epochs):
            prefix = f"phase2/s1/epoch{epoch}"
            order = root.stream(f"{prefix}/shuffle").permutation(ids.size)
            cont_order = root.stream(f"{prefix}/contrastive").permutation(n_all)
            aug = root.stream(f"{prefix}/augment")
            for start in range(0, ids.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss_fft(twin, emb[batch], labels[batch])
                take = cont_order[(start + np.arange(batch.size)) % n_all]
                views = augment_two_views(provider.image_embeddings[take], aug,
                                          cfg.aug_noise, cfg.aug_dropout)
                loss_contrastive(twin, state, *views, weight=cfg.gamma)
                step(opt, twin.params())
                momentum_update(state, twin)
        for got, want in zip(student.params(), twin.params()):
            assert got.value.tobytes() == want.value.tobytes()

    def test_gamma_positive_changes_trajectory_but_trains(self):
        provider, cfg, labelset = self.clean_fixture()
        outs = []
        for gamma in (0.0, 0.5):
            cfgx = dataclasses.replace(cfg, gamma=gamma)
            student = init_fft_encoder(provider.dim, provider.num_classes,
                                       cfg.hidden_mult * provider.dim, SeededRng(10))
            train_fft(student, labelset, provider, cfgx, SeededRng(10), "phase2/s1")
            outs.append([p.value.tobytes() for p in student.params()])
        assert outs[0] != outs[1]

    def test_empty_clean_with_gamma(self):
        from coft.pseudo import PseudoLabelSet

        provider, cfg, _ = self.clean_fixture()
        student = init_fft_encoder(provider.dim, provider.num_classes, 16, SeededRng(11))
        with pytest.raises(PipelineError):
            train_fft(student, PseudoLabelSet([], [], [], "zeroshot"), provider, cfg, SeededRng(11),
                      "phase2/s1")


class TestLoopFailureRules:
    """The epoch loop's failure rules (divergence, the forward-pass guard)
    and its per-epoch phase-2 records, for both trainers."""

    @staticmethod
    def scripted_loss(batches_per_epoch, after_first_epoch):
        # 1.0 for every batch of epoch 0, then ``after_first_epoch()``
        calls = []

        def loss(*args, **kwargs):
            calls.append(None)
            return 1.0 if len(calls) <= batches_per_epoch else after_first_epoch()

        return loss

    @staticmethod
    def blowup():
        raise ValueError("overflow in the forward pass")

    def phase1_fixture(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=6)
        selected = zero_shot_selection(provider, cfg)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(31))
        return model, selected, cfg, -(-len(selected) // cfg.batch_size)

    def train_student(self, gamma, metrics=None, epochs=6):
        provider, _ = synthetic_provider(per_class=15)
        cfg = small_cfg(phase2_epochs=epochs, gamma=gamma)
        labelset = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                        cfg.tau)
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(32))
        return train_fft(student, labelset, provider, cfg, SeededRng(32), "phase2/s1",
                         metrics=metrics)

    def test_phase1_divergence(self, monkeypatch):
        import coft.train

        model, selected, cfg, per_epoch = self.phase1_fixture()
        monkeypatch.setattr(coft.train, "loss_phase1",
                            self.scripted_loss(per_epoch, lambda: 20.0))
        with pytest.raises(TrainingError, match="training diverged at epoch 3"):
            train_phase1(model, selected, cfg, SeededRng(31))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_student_divergence(self, monkeypatch, gamma):
        import coft.train

        # 45 clean samples in batches of 16
        monkeypatch.setattr(coft.train, "loss_fft", self.scripted_loss(3, lambda: 20.0))
        with pytest.raises(TrainingError, match="training diverged at epoch 3"):
            self.train_student(gamma)

    def test_phase1_forward_pass_guard(self, monkeypatch):
        import coft.train

        model, selected, cfg, _ = self.phase1_fixture()
        monkeypatch.setattr(coft.train, "loss_phase1", self.scripted_loss(0, self.blowup))
        with pytest.raises(TrainingError,
                           match="non-finite forward pass in phase-1 epoch 0: overflow"):
            train_phase1(model, selected, cfg, SeededRng(31))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_student_forward_pass_guard(self, monkeypatch, gamma):
        import coft.train

        monkeypatch.setattr(coft.train, "loss_fft", self.scripted_loss(0, self.blowup))
        with pytest.raises(TrainingError,
                           match="non-finite forward pass in phase-2 epoch 0: overflow"):
            self.train_student(gamma)

    @pytest.mark.parametrize("gamma, fields", [
        (0.0, {"loss_supervised"}),
        (0.5, {"loss_supervised", "loss_contrastive"}),
    ])
    def test_student_records_one_per_epoch(self, tmp_path, gamma, fields):
        from coft.data import MetricsWriter

        with MetricsWriter(tmp_path / "m.jsonl") as metrics:
            self.train_student(gamma, metrics=metrics, epochs=5)
        records = MetricsWriter.read(tmp_path / "m.jsonl")
        assert [r["epoch"] for r in records] == list(range(5))
        for r in records:
            assert set(r) == {"phase", "stream", "epoch"} | fields
            assert (r["phase"], r["stream"]) == (2, "phase2/s1")
            assert all(np.isfinite(r[f]) for f in fields)


class TestGradRelease:
    """Training ends by releasing every trained tensor's grad, so a trained
    model holds values only and the optimizer's flat grad buffer is freed."""

    @staticmethod
    def untrained(gamma):
        """A fresh student and a function that trains it."""
        provider, _ = synthetic_provider(per_class=15)
        cfg = small_cfg(phase2_epochs=3, gamma=gamma)
        labelset = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                        cfg.tau)
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(33))
        return student, lambda: train_fft(student, labelset, provider, cfg, SeededRng(33),
                                          "phase2/s1")

    def student(self, gamma):
        return self.untrained(gamma)[1]()

    def test_phase1_model_holds_values_only(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=3)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(33))
        train_phase1(model, zero_shot_selection(provider, cfg), cfg, SeededRng(33))
        assert all(p.grad is None for p in model.params())
        # forward passes still work; a backward pass names the released tensor
        generate_labels(model)
        with pytest.raises(ContractError, match="'model1/pos_context' holds values only"):
            loss_positive(model, provider.image_embeddings[:4], np.zeros(4, dtype=np.int64))

    def test_phase1_scratch_dies_with_training(self, monkeypatch):
        import weakref

        import coft.train

        made = []

        class Recorded(TextScratch):
            def __init__(self, *args):
                super().__init__(*args)
                made.extend(weakref.ref(obj) for obj in (self, *vars(self).values()))

        monkeypatch.setattr(coft.train, "TextScratch", Recorded)
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=3)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(33))
        train_phase1(model, zero_shot_selection(provider, cfg), cfg, SeededRng(33))
        assert len(made) == 6  # one scratch, of five tables, for the whole run
        assert [ref() for ref in made] == [None] * 6

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_student_holds_values_only(self, gamma):
        student = self.student(gamma)
        assert all(p.grad is None for p in student.params())

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_optimizer_grad_buffer_is_freed(self, gamma):
        import weakref

        student, train = self.untrained(gamma)
        grads = weakref.ref(flat_buffer(student.params(), "grad"))
        values = flat_buffer(student.params(), "value")
        train()  # the student is held: only its values may outlive training
        assert grads() is None
        assert flat_buffer(student.params(), "value") is values

    def test_pipeline_outputs_match_a_run_that_keeps_its_grads(self, tmp_path, monkeypatch):
        """coft-plus (two rounds, momentum contrast) on the acceptance
        dataset, seed 1, with shortened training: releasing the grads changes
        no file of the run."""
        import coft.train
        from coft.data import save_dataset
        from coft.train import run_pipeline

        from test_acceptance import ACCEPTANCE_SPEC

        ds, truth = generate_synthetic(SyntheticSpec(seed=1, **ACCEPTANCE_SPEC))
        manifest = save_dataset(ds, tmp_path / "data", truth=truth)
        cfg = TrainConfig(phase1_epochs=20, phase2_epochs=15)
        run_pipeline(manifest, cfg, "coft-plus", 1, str(tmp_path / "released"))

        train_epochs = coft.train._train_epochs

        def keeping(params, *args, **kwargs):
            train_epochs(params, *args, **kwargs)
            for p in params:
                p.grad = np.zeros_like(p.value)  # as a finished step leaves them

        monkeypatch.setattr(coft.train, "_train_epochs", keeping)
        run_pipeline(manifest, cfg, "coft-plus", 1, str(tmp_path / "kept"))

        def files(run):
            root = tmp_path / run
            return {path.relative_to(root): path.read_bytes()
                    for path in root.rglob("*") if path.is_file()}

        released = files("released")
        assert len([name for name in released if name.suffix == ".f64le"]) == 4
        assert released == files("kept")


class TestFlatLayout:
    """Each model's tensors are views of one flat value buffer and one flat
    grad buffer from construction; the momentum twin's values are one flat
    buffer too. Training steps and blends those buffers in place, so no
    tensor's array is ever replaced."""

    @staticmethod
    def arrays(params, grads=True):
        """Each tensor's value (and grad) array, after checking that they tile
        one flat value buffer (and one flat grad buffer)."""
        flat_buffer(params, "value")
        if grads:
            flat_buffer(params, "grad")
            return [p.value for p in params] + [p.grad for p in params]
        return [p.value for p in params]

    def test_phase1_model_keeps_its_arrays(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=3)
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(33))
        assert [p.name.split("/")[1] for p in model.params()] == [
            "pos_context", "neg_context", "adapter_down", "adapter_up"]
        values = self.arrays(model.params())[:4]
        train_phase1(model, zero_shot_selection(provider, cfg), cfg, SeededRng(33))
        assert all(p.value is v for p, v in zip(model.params(), values))
        assert flat_buffer(model.params(), "value") is values[0].base

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_student_and_twin_keep_their_arrays(self, monkeypatch, gamma):
        import coft.train

        twins = []

        class Recording(MomentumState):
            def __init__(self, *args):
                super().__init__(*args)
                twins.append((self.momentum, TestFlatLayout.arrays(self.momentum.params(),
                                                                   grads=False)))

        monkeypatch.setattr(coft.train, "MomentumState", Recording)
        student, train = TestGradRelease.untrained(gamma)
        values = self.arrays(student.params())[:6]
        train()
        assert all(p.value is v for p, v in zip(student.params(), values))
        assert len(twins) == (gamma > 0)
        for twin, arrays in twins:
            assert all(p.value is v for p, v in zip(twin.params(), arrays))
            assert all(p.grad is None for p in twin.params())


class TestIteratePeft:
    def test_single_round_matches_manual_phase1(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=6, rounds=1)
        m1, m2, log = iterate_peft(provider, cfg, SeededRng(21))
        assert len(log) == 1

        # model1 ranks the zero-shot labels by their own confidence, model2 by
        # their image-side confidence
        candidates = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                          cfg.tau)
        selections = {
            "model1": select_top_k(candidates, cfg.k_per_class, provider.num_classes),
            "model2": select_top_k(
                centroid_confidences(candidates, provider.image_embeddings, cfg.tau),
                cfg.k_per_class, provider.num_classes),
        }
        assert set(selections["model1"].sample_ids()) != set(selections["model2"].sample_ids())
        for mid, got in (("model1", m1), ("model2", m2)):
            manual = init_adapted_model(provider, mid, 1, cfg, SeededRng(21))
            train_phase1(manual, selections[mid], cfg, SeededRng(21))
            for a, b in zip(got.params(), manual.params()):
                assert a.value.tobytes() == b.value.tobytes()

    def test_round_two_uses_model_generations(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=6, rounds=2)
        m1, m2, log = iterate_peft(provider, cfg, SeededRng(22))
        assert [entry["round"] for entry in log] == [1, 2]
        for entry, mid, generator in ((0, "model1", "zeroshot"), (1, "model1", "model1"),
                                      (1, "model2", "model2")):
            assert {r["generator"] for r in rows_of(log[entry]["generated"][mid])} == {generator}

    def test_training_moved_params_and_tables_frozen(self):
        provider, _ = synthetic_provider()
        emb_before = provider.image_embeddings.tobytes()
        anchors_before = provider.class_anchors.tobytes()
        cfg = small_cfg(phase1_epochs=6, rounds=2)
        m1, _, _ = iterate_peft(provider, cfg, SeededRng(23))
        pristine = init_adapted_model(provider, "model1", 2, cfg, SeededRng(23))
        assert any(
            a.value.tobytes() != b.value.tobytes()
            for a, b in zip(m1.params(), pristine.params())
        )
        assert provider.image_embeddings.tobytes() == emb_before
        assert provider.class_anchors.tobytes() == anchors_before


class TestIteratedSelectionQuality:
    def test_selection_accuracy_non_decreasing_over_rounds(self):
        # moderately hard clusters: selection quality has room to move
        per_round = {1: [], 2: [], 3: []}
        for seed in range(1, 6):
            spec = SyntheticSpec(classes=5, per_class=40, dim=32, noise_sigma=0.45,
                                 anchor_alignment=0.5, seed=seed)
            provider, truth = generate_synthetic(spec)
            root = SeededRng(seed)
            cfg = TrainConfig(rounds=3, k_per_class=12, phase1_epochs=40,
                              adapter_rank=8)
            _, _, log = iterate_peft(provider, cfg, root)
            for entry in log:
                accs = [entry["selected"][mid].accuracy(truth)
                        for mid in ("model1", "model2")]
                per_round[entry["round"]].append(float(np.mean(accs)))
        medians = [float(np.median(per_round[r])) for r in (1, 2, 3)]
        assert all(b >= a for a, b in zip(medians, medians[1:])), medians


class TestModelCheckpoint:
    def test_round_trip_and_shared_stack_rejected(self, tmp_path):
        from coft.grad import param, save_checkpoint
        from coft.train import load_model_checkpoint, save_model_checkpoint

        provider, _ = synthetic_provider()
        cfg = small_cfg()
        model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(6))
        save_model_checkpoint(str(tmp_path / "m"), model)
        back = load_model_checkpoint(str(tmp_path / "m"), provider, cfg, "model1")
        for a, b in zip(model.params(), back.params()):
            assert a.value.tobytes() == b.value.tobytes()
        assert np.array_equal(generate_labels(back).labels(), generate_labels(model).labels())

        # a checkpoint holding one shared (context_len, d) stack per polarity
        stale = [param(p.name, np.zeros((4, provider.dim))) if "context" in p.name else p
                 for p in model.params()]
        save_checkpoint(str(tmp_path / "old"), stale)
        c, d = provider.num_classes, provider.dim
        with pytest.raises(FormatError, match=re.escape(
                f"old.json: tensor 0 is 'pos_context' of shape (4, {d}), "
                f"expected 'pos_context' of shape ({c}, {d})")):
            load_model_checkpoint(str(tmp_path / "old"), provider, cfg, "model1")

    def test_student_round_trip_and_other_width_rejected(self, tmp_path):
        from coft.train import load_student_checkpoint, save_model_checkpoint

        provider, _ = synthetic_provider()
        cfg = small_cfg()
        d = provider.dim
        student = init_fft_encoder(d, provider.num_classes, cfg.hidden_mult * d,
                                   SeededRng(8), name_prefix="student2/")
        rng = np.random.default_rng(8)
        for p in student.params():
            p.value[...] = rng.normal(size=p.shape)
        stem = str(tmp_path / "s")
        save_model_checkpoint(stem, student)
        back = load_student_checkpoint(stem, provider, cfg, "student2")
        assert [p.name for p in back.params()] == [p.name for p in student.params()]
        for a, b in zip(student.params(), back.params()):
            assert a.value.tobytes() == b.value.tobytes()

        # the run's hidden_mult sets the width the checkpoint must have
        wider = dataclasses.replace(cfg, hidden_mult=cfg.hidden_mult + 1)
        with pytest.raises(FormatError, match=re.escape(
                f"s.json: tensor 0 is 'fft_w1' of shape ({cfg.hidden_mult * d}, {d}), "
                f"expected 'fft_w1' of shape ({wider.hidden_mult * d}, {d})")):
            load_student_checkpoint(stem, provider, wider, "student2")
