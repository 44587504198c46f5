import contextlib
import filecmp
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coft.errors import ContractError, DomainError, FormatError, ShapeError, TrainingError
from coft.grad import (
    STEP_CHUNK,
    Adam,
    accumulate_grad,
    check_gradients,
    load_checkpoint,
    param,
    save_checkpoint,
    step,
)


class TestAccumulate:
    def test_basic(self):
        p = param("w", [0.0, 0.0])
        accumulate_grad(p, [1.0, 2.0])
        np.testing.assert_array_equal(p.grad, [1.0, 2.0])

    def test_additivity(self):
        p = param("w", [0.0, 0.0])
        accumulate_grad(p, [1.0, 0.0])
        accumulate_grad(p, [0.0, 1.0])
        np.testing.assert_array_equal(p.grad, [1.0, 1.0])

    def test_shape_mismatch(self):
        p = param("w", [0.0, 0.0])
        with pytest.raises(ShapeError):
            accumulate_grad(p, [1.0, 2.0, 3.0])


class AdamReference:
    """Out-of-place Adam on one tensor. ``rescaled=False`` is the textbook
    operation order; ``rescaled=True`` is ``grad.Adam``'s (moments rescaled by
    1 / (1 - beta), bias corrections folded into the step size and the eps
    guard), for bitwise comparison."""

    def __init__(self, opt, value, steps=(), rescaled=True):
        self.opt = opt
        self.rescaled = rescaled
        self.value = np.array(value, dtype=np.float64)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.t = 0
        for g in steps:
            self.step(g)

    def step(self, g):
        g = np.asarray(g, dtype=np.float64)
        b1, b2, eps = 0.9, 0.999, 1e-8  # the textbook constants
        lr = self.opt.learning_rate
        self.t += 1
        if self.rescaled:
            self.m = self.m * b1 + g
            self.v = self.v * b2 + g * g
            s = math.sqrt((1.0 - b2) / (1.0 - b2**self.t))
            alpha = lr * (1.0 - b1) / ((1.0 - b1**self.t) * s)
            self.value = self.value - self.m / (np.sqrt(self.v) + eps / s) * alpha
        else:
            self.m = self.m * b1 + (1.0 - b1) * g
            self.v = self.v * b2 + (1.0 - b2) * g**2
            self.value = self.value - lr * (self.m / (1.0 - b1**self.t)) / (
                np.sqrt(self.v / (1.0 - b2**self.t)) + eps)


# several chunks of a step's passes, the last one uneven, with tensor
# boundaries inside chunks
CHUNKED_SHAPES = [(3, 5), (50_000,), (7, 7_001), (13,)]


def chunked_params(rng):
    sizes = [int(np.prod(s)) for s in CHUNKED_SHAPES]
    assert sum(sizes) >= 3 * STEP_CHUNK and sum(sizes) % STEP_CHUNK
    return [param(f"w{i}", rng.normal(size=s)) for i, s in enumerate(CHUNKED_SHAPES)]


class TestStep:
    def test_adam_zero_grad_no_motion(self):
        p = param("w", [1.5, -2.5])
        opt = Adam(1e-2)
        before = p.value.copy()
        for _ in range(10):
            step(opt, [p])
        np.testing.assert_array_equal(p.value, before)
        assert opt.step_count == 10

    def test_adam_first_step_closed_form(self):
        # constant grad 1: m_hat = v_hat = 1, so the step is lr / (1 + eps)
        p = param("w", [0.0])
        p.grad[:] = 1.0
        step(Adam(1e-3), [p])
        assert -p.value[0] == pytest.approx(1e-3, rel=1e-7)

    def test_adam_matches_rescaled_reference_bitwise(self):
        # the chunked in-place update keeps the operation order of the
        # out-of-place rescaled form, so every tensor agrees bit for bit
        rng = np.random.default_rng(1)
        params = chunked_params(rng)
        opt = Adam(1e-2)
        refs = [AdamReference(opt, p.value) for p in params]
        for _ in range(5):
            grads = [rng.normal(size=s) for s in CHUNKED_SHAPES]
            for p, g in zip(params, grads):
                p.grad[...] = g
            step(opt, params)
            for p, ref, g, shape in zip(params, refs, grads, CHUNKED_SHAPES):
                ref.step(g)
                assert p.value.shape == shape
                assert p.value.tobytes() == ref.value.tobytes()
                assert np.all(p.grad == 0.0)

    def test_adam_agrees_with_textbook_order(self):
        # the same mathematics as the textbook order: after 200 steps on grads
        # whose scales span 1e-6 to 1e2, the values agree to 1e-12 of the
        # largest displacement (an elementwise relative error is unbounded
        # where a moment or a displacement cancels to near zero)
        rng = np.random.default_rng(2)
        n = 153_615
        p = param("w", rng.normal(size=n))
        start = p.value.copy()
        scale = 10.0 ** rng.uniform(-6.0, 2.0, size=n)
        opt = Adam(1e-2)
        ref = AdamReference(opt, p.value, rescaled=False)
        for _ in range(200):
            g = rng.normal(size=n) * scale
            p.grad[...] = g
            step(opt, [p])
            ref.step(g)
        assert np.abs(p.value - ref.value).max() <= 1e-12 * np.abs(ref.value - start).max()

    def test_lr_zero_bit_identical(self):
        rng = np.random.default_rng(0)
        p = param("w", rng.normal(size=7))
        before = p.value.tobytes()
        p.grad[:] = rng.normal(size=7)
        step(Adam(0.0), [p])
        assert p.value.tobytes() == before

    def test_in_place_writes_reach_the_optimizer(self):
        a, b = param("a", [1.0, 2.0]), param("b", [[3.0], [4.0]])
        opt = Adam(1e-2)
        step(opt, [a, b])  # zero grads: binds the tensors without moving them
        a.value[1] = 20.0
        b.value[...] = -1.0
        a.grad[0] = 5.0
        b.grad[1, 0] = -7.0
        ref_a = AdamReference(opt, [1.0, 20.0], steps=[np.zeros(2)])
        ref_b = AdamReference(opt, [[-1.0], [-1.0]], steps=[np.zeros((2, 1))])
        step(opt, [a, b])
        ref_a.step([5.0, 0.0])
        ref_b.step([[0.0], [-7.0]])
        assert a.value.tobytes() == ref_a.value.tobytes()
        assert b.value.tobytes() == ref_b.value.tobytes()
        b.grad[0, 0] = np.nan
        with pytest.raises(TrainingError) as exc:
            step(opt, [a, b])
        assert exc.value.param_name == "b"

    def test_different_tensor_list_rejected(self):
        a, b = param("a", [1.0]), param("b", [2.0])
        opt = Adam(1e-3)
        step(opt, [a, b])
        step(opt, [a, b])  # a fresh list of the same tensors is fine
        for other in ([b, a], [a], [a, b, param("c", [0.0])], [a, param("b", [2.0])]):
            with pytest.raises(ContractError):
                step(opt, other)

    def test_non_finite_grad_names_param(self):
        p = param("bad_param", [1.0])
        p.grad[:] = np.nan
        with pytest.raises(TrainingError) as exc:
            step(Adam(1e-3), [p])
        assert exc.value.param_name == "bad_param"

    def test_non_finite_grad_names_the_second_of_three(self):
        params = [param("first", [1.0, 2.0]), param("second", np.zeros((2, 2))),
                  param("third", [3.0])]
        params[1].grad[1, 0] = np.nan
        params[2].grad[0] = np.inf
        opt = Adam(1e-3)
        with pytest.raises(TrainingError, match="non-finite gradient in 'second'") as exc:
            step(opt, params)
        assert exc.value.param_name == "second"
        assert opt.step_count == 0

    def test_non_finite_value_names_param(self):
        params = [param("ok", [1.0]), param("huge", [1.0, np.inf])]
        with pytest.raises(TrainingError, match="non-finite value in 'huge' after step") as exc:
            step(Adam(1e-3), params)
        assert exc.value.param_name == "huge"

    def test_non_finite_grad_in_the_last_chunk_moves_nothing(self):
        rng = np.random.default_rng(3)
        params = chunked_params(rng)
        opt = Adam(1e-2)
        refs = [AdamReference(opt, p.value) for p in params]
        for _ in range(3):
            for p, ref in zip(params, refs):
                p.grad[...] = rng.normal(size=p.shape)
                ref.step(p.grad.copy())
            step(opt, params)
        values = [p.value.tobytes() for p in params]
        for p in params:
            p.grad[...] = rng.normal(size=p.shape)
        params[-1].grad[-1] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient in 'w3'") as exc:
            step(opt, params)
        assert exc.value.param_name == "w3"
        assert opt.step_count == 3
        assert [p.value.tobytes() for p in params] == values
        # the moments are unchanged too: the next step matches a reference
        # that never saw the refused one
        params[-1].grad[-1] = 0.5
        for p, ref in zip(params, refs):
            ref.step(p.grad.copy())
        step(opt, params)
        assert all(p.value.tobytes() == ref.value.tobytes() for p, ref in zip(params, refs))

    def test_non_finite_value_in_a_later_chunk_names_param(self):
        rng = np.random.default_rng(4)
        params = chunked_params(rng)
        params[2].value[-1, -1] = np.inf
        with pytest.raises(TrainingError, match="non-finite value in 'w2' after step") as exc:
            step(Adam(1e-3), params)
        assert exc.value.param_name == "w2"


class TestCheckGradients:
    def test_quadratic(self):
        p = param("p", [1.0, 2.0])

        def loss():
            accumulate_grad(p, 2.0 * p.value)
            return float(p.value @ p.value)

        report = check_gradients(loss, [p], eps=1e-5, tol=1e-6)
        assert report.ok
        assert report.max_rel_error <= 1e-6

    def test_constant_loss(self):
        p = param("p", [3.0, -1.0])
        report = check_gradients(lambda: 7.5, [p])
        assert report.ok
        assert report.max_rel_error == 0.0

    def test_detects_wrong_gradient(self):
        p = param("p", [1.0, 2.0])

        def loss():
            accumulate_grad(p, 3.0 * p.value)  # wrong: true grad is 2p
            return float(p.value @ p.value)

        report = check_gradients(loss, [p])
        assert not report.ok
        assert any(name == "p" for name, *_ in report.failures)

    def test_nondeterministic_loss_rejected(self):
        p = param("p", [1.0])
        state = {"n": 0}

        def loss():
            state["n"] += 1
            return float(state["n"])

        with pytest.raises(ContractError):
            check_gradients(loss, [p])

    def test_eps_domain(self):
        p = param("p", [1.0])
        with pytest.raises(DomainError):
            check_gradients(lambda: 0.0, [p], eps=1e-2)


class TestCheckpoint:
    def test_param_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        params = [param("a", rng.normal(size=(3, 4))), param("b", rng.normal(size=5))]
        stem = str(tmp_path / "ck")
        save_checkpoint(stem, params)
        loaded = load_checkpoint(stem)
        for orig, back in zip(params, loaded):
            assert back.name == orig.name
            assert back.value.tobytes() == orig.value.tobytes()
            assert np.all(back.grad == 0.0)

    def test_same_params_write_identical_files(self, tmp_path):
        params = [param("x", [1.0, 2.0])]
        s1, s2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_checkpoint(s1, params)
        save_checkpoint(s2, params)
        for suffix in (".json", ".f64le"):
            assert filecmp.cmp(s1 + suffix, s2 + suffix, shallow=False)
        params[0].value[0] = 9.0
        save_checkpoint(s2, params)
        for suffix in (".json", ".f64le"):  # the manifest carries the checksum
            assert not filecmp.cmp(s1 + suffix, s2 + suffix, shallow=False)

    def test_payload_is_little_endian_f64(self, tmp_path):
        p = param("x", [1.0, -2.0, 0.5])
        stem = str(tmp_path / "ck")
        save_checkpoint(stem, [p])
        with open(stem + ".f64le", "rb") as f:
            raw = f.read()
        assert raw == np.array([1.0, -2.0, 0.5], dtype="<f8").tobytes()

    def test_unrecognized_format_and_optimizer_state_rejected(self, tmp_path):
        stem = str(tmp_path / "ck")
        save_checkpoint(stem, [param("x", [1.0])])
        manifest = json.loads(open(stem + ".json").read())
        for field, value in (("format", "coft-checkpoint-v0"),
                             ("optimizer", {"kind": "adam"})):
            bad = dict(manifest, **{field: value})
            with open(stem + ".json", "w") as f:
                json.dump(bad, f)
            with pytest.raises(FormatError, match="ck.json"):
                load_checkpoint(stem)

    def test_malformed_manifest_rejected(self, tmp_path):
        stem = str(tmp_path / "ck")
        save_checkpoint(stem, [param("x", [1.0]), param("y", [2.0])])
        manifest = json.loads(open(stem + ".json").read())
        manifest["params"][1]["offset"] = 0  # overlaps x
        for text in (json.dumps(manifest), "{not json", json.dumps([1, 2])):
            with open(stem + ".json", "w") as f:
                f.write(text)
            with pytest.raises(FormatError, match="ck.json"):
                load_checkpoint(stem)

    @pytest.mark.parametrize("delta", [-8, -1, 1, 8])
    def test_payload_size_must_match_manifest(self, tmp_path, delta):
        stem = str(tmp_path / "ck")
        save_checkpoint(stem, [param("x", [1.0, 2.0]), param("y", 3.0)])
        raw = open(stem + ".f64le", "rb").read()
        with open(stem + ".f64le", "wb") as f:
            f.write(raw[:delta] if delta < 0 else raw + bytes(delta))
        with pytest.raises(FormatError, match="ck.f64le"):
            load_checkpoint(stem)


SPECIAL_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.5, -1e300])


@st.composite
def tensor_lists(draw):
    shapes = draw(st.lists(st.lists(st.integers(0, 3), max_size=3).map(tuple),
                           min_size=1, max_size=5))
    return [
        param(f"t{i}/w", np.array(draw(st.lists(
            st.one_of(SPECIAL_VALUES, st.floats(allow_nan=False)),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
            dtype=np.float64).reshape(shape))
        for i, shape in enumerate(shapes)
    ]


class TestCheckpointProperties:
    PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

    @PROPERTY
    @given(tensor_lists())
    def test_round_trip_keeps_names_shapes_and_bytes(self, tmp_path_factory, params):
        stem = str(tmp_path_factory.mktemp("ck") / "ck")
        save_checkpoint(stem, params)
        loaded = load_checkpoint(stem)
        assert [p.name for p in loaded] == [p.name for p in params]
        for orig, back in zip(params, loaded):
            assert back.shape == orig.shape
            assert back.value.tobytes() == orig.value.tobytes()
            assert back.grad.shape == orig.shape and not np.any(back.grad)

    @PROPERTY
    @given(tensor_lists())
    def test_tensors_bound_to_adam_save_the_same_bytes(self, tmp_path_factory, params):
        root = tmp_path_factory.mktemp("ck")
        copies = [param(p.name, p.value) for p in params]
        # a step binds the tensors (their values become views of one flat
        # buffer) even when an infinite value makes it raise afterwards
        with contextlib.suppress(TrainingError):
            step(Adam(0.0), params)
        assert all(p.value.base is not None for p in params)
        save_checkpoint(str(root / "bound"), params)
        save_checkpoint(str(root / "copies"), copies)
        for suffix in (".json", ".f64le"):
            assert filecmp.cmp(str(root / "bound") + suffix, str(root / "copies") + suffix,
                               shallow=False)
