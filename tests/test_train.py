import dataclasses

import numpy as np
import pytest

from coft.core import SeededRng, normalize_rows
from coft.data import SyntheticSpec, generate_synthetic
from coft.encoders import FrozenProvider, encode_batch, init_fft_encoder
from coft.errors import ConfigError, ContractError, PipelineError, TrainingError
from coft.grad import Adam, step
from coft.pseudo import (
    assign_pseudo_labels,
    centroid_confidences,
    class_probabilities,
    select_top_k,
)
from coft.train import (
    AdaptedModel,
    MomentumState,
    TrainConfig,
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
    train_phase2_plus,
)

from test_losses import oracle_adapt, oracle_compose, oracle_model_pieces


def synthetic_provider(seed=0, classes=3, per_class=20, dim=8, sigma=0.05,
                       alignment=1.0, run_seed=99):
    spec = SyntheticSpec(classes=classes, per_class=per_class, dim=dim,
                         noise_sigma=sigma, anchor_alignment=alignment, seed=seed)
    ds, truth = generate_synthetic(spec)
    provider = FrozenProvider.build(ds.embeddings, ds.class_anchors, SeededRng(run_seed))
    return provider, truth


def zero_shot_selection(provider, cfg):
    probs = class_probabilities(provider.image_embeddings, provider.class_anchors, cfg.tau)
    candidates = assign_pseudo_labels(probs)
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
        relabeled = generate_labels(model, ids)
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
        assert model.bank.pos_context.value.tobytes() == twin.bank.pos_context.value.tobytes()
        assert model.adapter.up.value.tobytes() == twin.adapter.up.value.tobytes()
        # negative contexts went untrained in both runs
        assert model.bank.neg_context.value.tobytes() == twin.bank.neg_context.value.tobytes()

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
            train_phase1(model, PseudoLabelSet([]), cfg, SeededRng(1))

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
        val.bank.neg_context.value[:] = val.bank.pos_context.value
        gen.trained = val.trained = True
        result = collaborative_filter(gen, val)
        assert result.clean_ids.size == 0
        assert result.noise_ids.size == provider.num_samples

    def test_hand_built_similarities(self):
        d = 4
        anchors = np.eye(d)[:2]
        emb = np.vstack([np.eye(d)[0], np.eye(d)[2]])  # a aligns with class 0, b with nothing
        provider = FrozenProvider(emb, anchors, np.eye(d))
        cfg = small_cfg()
        gen = init_adapted_model(provider, "model1", 1, cfg, SeededRng(3))
        val = init_adapted_model(provider, "model2", 1, cfg, SeededRng(4))
        for m in (gen, val):
            m.bank.pos_context.value[:] = 0.0
            m.adapter.up.value[:] = 0.0
            m.trained = True
        # validator's negative texts lean onto e2: sim-(a)=0.707 < sim+(a)=1,
        # sim-(b)=0.707 > sim+(b)=0
        val.bank.neg_context.value[:] = 0.0
        val.bank.neg_context.value[0, 2] = 1.0
        result = collaborative_filter(gen, val)
        assert list(result.clean_ids) == [0]
        assert list(result.noise_ids) == [1]

    def test_partition_and_oracle_sixty_samples(self):
        provider, _, m1, m2 = self.trained_pair(seed=1)
        result = collaborative_filter(m1, m2)
        ids = np.arange(provider.num_samples)
        got_clean = set(result.clean_ids)
        got_noise = set(result.noise_ids)
        assert got_clean | got_noise == set(ids)
        assert got_clean & got_noise == set()

        # brute-force straight-line recomputation per sample
        gp = oracle_model_pieces(m1)
        vp = oracle_model_pieces(m2)
        texts_g = oracle_compose(gp["pos"], gp["mixer"], gp["anchors"])
        texts_vp = oracle_compose(vp["pos"], vp["mixer"], vp["anchors"])
        texts_vn = oracle_compose(vp["neg"], vp["mixer"], vp["anchors"])
        for sid in ids:
            e = provider.image_embeddings[sid].tolist()
            sims = [sum(a * b for a, b in zip(e, t)) for t in texts_g]
            y = max(range(len(sims)), key=lambda k: (sims[k], -k))
            vv = oracle_adapt(vp["down"], vp["up"], vp["scale"], e)
            sp = sum(a * b for a, b in zip(vv, texts_vp[y]))
            sn = sum(a * b for a, b in zip(vv, texts_vn[y]))
            rec = result.labels.get(int(sid))
            assert rec.label == y
            assert rec.status == ("clean" if sp > sn else "noise")

    def test_clean_iff_clean_probability_above_half(self):
        provider, _, m1, m2 = self.trained_pair(seed=2)
        result = collaborative_filter(m1, m2)
        for rec in result.labels:
            p = clean_probability(m2, provider.image_embeddings[rec.sample_id], rec.label)
            if rec.status == "clean":
                assert p > 0.5
            else:
                assert p <= 0.5

    def test_both_directions(self):
        provider, truth, m1, m2 = self.trained_pair(seed=3)
        both = collaborative_filter_both(m1, m2)
        assert both["model1"].generator_id == "model1"
        assert both["model1"].validator_id == "model2"
        assert both["model2"].generator_id == "model2"
        for r in both.values():
            assert r.clean_ids.size + r.noise_ids.size == provider.num_samples

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
        cfg = small_cfg(phase2_epochs=60)
        probs = class_probabilities(provider.image_embeddings[:1],
                                    provider.class_anchors, cfg.tau)
        single = assign_pseudo_labels(probs, sample_ids=np.array([0]))
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(1))
        train_fft(student, single, provider, cfg, SeededRng(1), "phase2/student1")
        from coft.encoders import fft_logits

        label = single.get(0).label
        assert int(np.argmax(fft_logits(student, provider.image_embeddings[0]))) == label

    def test_separable_clusters_reach_full_accuracy(self):
        provider, truth = synthetic_provider(per_class=25)
        cfg = small_cfg(phase2_epochs=60)
        # perfectly filtered labels: the truth itself on every sample
        probs = np.eye(provider.num_classes)[truth]
        eps = 1e-9  # softmax rows must sum to one; one-hot rows already do
        labelset = assign_pseudo_labels(probs)
        student = init_fft_encoder(provider.dim, provider.num_classes,
                                   cfg.hidden_mult * provider.dim, SeededRng(2))
        train_fft(student, labelset, provider, cfg, SeededRng(2), "phase2/student1")
        from coft.encoders import logits_batch

        logits, _ = logits_batch(student, provider.image_embeddings)
        assert float(np.mean(np.argmax(logits, axis=1) == truth)) == 1.0

    def test_empty_clean_set(self):
        from coft.pseudo import PseudoLabelSet

        provider, _ = synthetic_provider()
        cfg = small_cfg()
        student = init_fft_encoder(provider.dim, provider.num_classes, 16, SeededRng(3))
        with pytest.raises(PipelineError):
            train_fft(student, PseudoLabelSet([]), provider, cfg, SeededRng(3), "s")


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

    def test_mu_one_excluded(self):
        enc = init_fft_encoder(4, 2, 6, SeededRng(3))
        from coft.errors import DomainError

        with pytest.raises(DomainError):
            MomentumState(enc, mu=1.0, tau_prime=0.2, capacity=4)

    def test_shape_mismatch_rejected(self):
        enc = init_fft_encoder(4, 2, 6, SeededRng(4))
        other = init_fft_encoder(5, 2, 6, SeededRng(5))
        state = MomentumState(enc, mu=0.5, tau_prime=0.2, capacity=4)
        with pytest.raises(ContractError):
            momentum_update(state, other)

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


class TestPhase2Plus:
    def clean_fixture(self, seed=0):
        provider, truth = synthetic_provider(seed=seed, per_class=15)
        cfg = small_cfg(phase2_epochs=12)
        probs = class_probabilities(provider.image_embeddings,
                                    provider.class_anchors, cfg.tau)
        labelset = assign_pseudo_labels(probs)
        return provider, cfg, labelset

    def test_gamma_zero_bit_identical_to_fft(self):
        provider, cfg, labelset = self.clean_fixture()
        results = []
        for train_fn, gamma in ((train_phase2_plus, 0.0), (train_fft, None)):
            student = init_fft_encoder(provider.dim, provider.num_classes,
                                       cfg.hidden_mult * provider.dim, SeededRng(9))
            if gamma is None:
                train_fft(student, labelset, provider, cfg, SeededRng(9), "phase2/s1")
            else:
                import dataclasses

                cfg0 = dataclasses.replace(cfg, gamma=0.0)
                train_phase2_plus(student, labelset, provider, cfg0, SeededRng(9),
                                  "phase2/s1")
            results.append([p.value.tobytes() for p in student.params()])
        assert results[0] == results[1]

    def test_gamma_positive_changes_trajectory_but_trains(self):
        provider, cfg, labelset = self.clean_fixture()
        import dataclasses

        outs = []
        for gamma in (0.0, 0.5):
            cfgx = dataclasses.replace(cfg, gamma=gamma)
            student = init_fft_encoder(provider.dim, provider.num_classes,
                                       cfg.hidden_mult * provider.dim, SeededRng(10))
            train_phase2_plus(student, labelset, provider, cfgx, SeededRng(10),
                              "phase2/s1")
            outs.append([p.value.tobytes() for p in student.params()])
        assert outs[0] != outs[1]

    def test_empty_clean_with_gamma(self):
        from coft.pseudo import PseudoLabelSet

        provider, cfg, _ = self.clean_fixture()
        student = init_fft_encoder(provider.dim, provider.num_classes, 16, SeededRng(11))
        with pytest.raises(PipelineError):
            train_phase2_plus(student, PseudoLabelSet([]), provider, cfg,
                              SeededRng(11), "phase2/s1")


class TestIteratePeft:
    def test_single_round_matches_manual_phase1(self):
        provider, _ = synthetic_provider()
        cfg = small_cfg(phase1_epochs=6, rounds=1)
        m1, m2, log = iterate_peft(provider, cfg, SeededRng(21),
                                   provider.class_anchors)
        assert len(log) == 1

        # model1 ranks the zero-shot labels by their own confidence, model2 by
        # their image-side confidence
        probs = class_probabilities(provider.image_embeddings, provider.class_anchors, cfg.tau)
        candidates = assign_pseudo_labels(probs)
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
        m1, m2, log = iterate_peft(provider, cfg, SeededRng(22),
                                   provider.class_anchors)
        assert [entry["round"] for entry in log] == [1, 2]
        assert log[0]["generated"]["model1"].get(0).generator == "zeroshot"
        assert log[1]["generated"]["model1"].get(0).generator == "model1"
        assert log[1]["generated"]["model2"].get(0).generator == "model2"

    def test_training_moved_params_and_tables_frozen(self):
        provider, _ = synthetic_provider()
        emb_before = provider.image_embeddings.tobytes()
        anchors_before = provider.class_anchors.tobytes()
        cfg = small_cfg(phase1_epochs=6, rounds=2)
        m1, _, _ = iterate_peft(provider, cfg, SeededRng(23), provider.class_anchors)
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
            ds, truth = generate_synthetic(spec)
            root = SeededRng(seed)
            provider = FrozenProvider.build(ds.embeddings, ds.class_anchors, root)
            cfg = TrainConfig(rounds=3, k_per_class=12, phase1_epochs=40,
                              adapter_rank=8)
            _, _, log = iterate_peft(provider, cfg, root, provider.class_anchors)
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
        stale = [param(p.name, np.zeros((4, provider.ctx_dim))) if "context" in p.name else p
                 for p in model.params()]
        save_checkpoint(str(tmp_path / "old"), stale)
        with pytest.raises(ContractError, match="class-specific"):
            load_model_checkpoint(str(tmp_path / "old"), provider, cfg, "model1")
