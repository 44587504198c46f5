"""Parameter registry, the Adam optimizer, a finite-difference gradient
verifier, and the checkpoint file format.

Gradients in this package are hand-derived per loss; the verifier here is the
independent check that keeps them honest. Losses accumulate into
``ParamTensor.grad`` and an optimizer ``step`` consumes and zeroes the grads.
A model's tensors are built by ``flat_params`` as views of one flat value
buffer and one flat grad buffer, in ``params()`` order, and ``Adam`` steps
those buffers in place: no tensor's ``value`` or ``grad`` is ever copied or
replaced by the optimizer.
A model's grads exist only while it trains: when its last epoch ends,
``train._train_epochs`` releases them (``grad = None``), so a trained model
and a momentum twin hold values only, and accumulating into, zeroing or
stepping a released tensor raises ContractError naming it. A checkpoint is
read back into a model's own tensors: ``load_checkpoint`` checks the manifest
against them, then reads the payload straight into their flat value buffer.

``Adam`` keeps its moments rescaled and folds the bias corrections into two
per-step scalars (Kingma & Ba 2015, arXiv 1412.6980, section 2, last
paragraph), so a step is ten elementwise passes with one division, run one
cache-sized chunk at a time. This is Adam's mathematics in a different
operation order: values differ from the textbook order in their last bits
only, and stay byte-identical run to run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (as_f64, checksum_field, json_field, read_manifest, read_payload,
                   row_blocks, write_container)
from .errors import ContractError, DomainError, FormatError, ShapeError, TrainingError

__all__ = [
    "ParamTensor",
    "flat_views",
    "flat_params",
    "flat_buffer",
    "param",
    "accumulate_grad",
    "zero_grads",
    "Adam",
    "step",
    "GradCheckReport",
    "check_gradients",
    "save_checkpoint",
    "load_checkpoint",
]

# Adam's moment decays and denominator guard; every optimizer uses these
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per chunk of a step's passes. One chunk of the four flat buffers
# (values, grads, both moments) is 1 MiB, half of a 2 MiB L2 cache, so the
# ten passes over a chunk after its first read from memory hit the cache.
# Chunks are never shorter: a buffer of fewer than 2 * STEP_CHUNK elements is
# one pass, since per-chunk call overhead outweighs the cache gain below that.
STEP_CHUNK = 32_768


@dataclass(eq=False)
class ParamTensor:
    """A named trainable array with an accumulated gradient of the same shape,
    or ``None`` once the gradient is released. Two tensors are equal only when
    they are the same object."""

    name: str
    value: np.ndarray
    grad: np.ndarray | None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        if self.grad is None:
            raise _released(self)
        self.grad[...] = 0.0


def _released(p: ParamTensor) -> ContractError:
    """The error for writing, zeroing or stepping the grad of ``p`` after its
    release. Callers check ``p.grad is None`` inline: a step's time at small
    shapes is its count of Python calls."""
    return ContractError(f"{p.name!r} holds values only: its gradient was released "
                         "when its training ended")


def flat_views(flat: np.ndarray, shapes) -> list:
    """Views of the 1-D ``flat``, one per shape, laid end to end in order."""
    views, offset = [], 0
    for shape in shapes:
        end = offset + math.prod(shape)
        views.append(flat[offset:end].reshape(shape))
        offset = end
    return views


def flat_params(shapes: dict) -> list:
    """One zeroed ParamTensor per entry of ``shapes`` (name -> shape), in
    order: the values are views of one new flat buffer and the grads views of
    one zeroed flat grad buffer of the same layout. Every model is built this
    way, so ``Adam`` steps the buffers in place."""
    total = sum(math.prod(shape) for shape in shapes.values())
    values, grads = (flat_views(np.zeros(total), shapes.values()) for _ in range(2))
    return [ParamTensor(name, v, g) for name, v, g in zip(shapes, values, grads)]


def flat_buffer(params, attr: str) -> np.ndarray:
    """The one flat buffer whose views the ``attr`` arrays ("value" or
    "grad") of ``params`` are. ContractError unless they tile it exactly, as
    ``flat_params`` lays them out."""
    arrays = [getattr(p, attr) for p in params]
    flat = arrays[0].base if arrays else None
    if (flat is None or flat.ndim != 1 or any(a.base is not flat for a in arrays)
            or sum(a.size for a in arrays) != flat.size):
        raise ContractError(f"the {attr}s of {[p.name for p in params]} are not "
                            "views of one flat buffer they tile")
    return flat


def param(name: str, value) -> ParamTensor:
    """A one-tensor ``flat_params`` holding a copy of ``value``."""
    v = np.asarray(value, dtype=np.float64)
    p, = flat_params({name: v.shape})
    p.value[...] = v
    return p


def accumulate_grad(p: ParamTensor, contribution) -> ParamTensor:
    """grad += contribution, elementwise. Shapes must match exactly."""
    if p.grad is None:
        raise _released(p)
    c = as_f64(contribution)
    if c.shape != p.grad.shape:
        raise ShapeError(
            f"gradient contribution for {p.name!r} has shape {c.shape}, expected {p.grad.shape}"
        )
    p.grad += c
    return p


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


class Adam:
    """Adam with bias correction; one shared step counter for all params.

    The first ``step`` binds the optimizer to its param list, whose values
    and grads must tile one flat value buffer and one flat grad buffer, as
    ``flat_params`` lays out every model; the optimizer steps those buffers
    in place. In-place writes to a tensor reach the optimizer; assigning a
    new array to its ``value`` or ``grad`` does not. A model's grads exist
    only while it trains: its trainer releases each ``grad`` and drops the
    optimizer when training ends, which frees the flat grad buffer. Binding
    or stepping a released tensor raises ContractError naming it.

    The moments are kept rescaled, m~ = m / (1 - b1) and v~ = v / (1 - b2),
    so they update as m~ <- b1 m~ + g and v~ <- b2 v~ + g^2. Step t applies
    value -= a_t m~ / (sqrt(v~) + e_t) with s_t = sqrt((1 - b2) / (1 - b2^t)),
    a_t = lr (1 - b1) / ((1 - b1^t) s_t) and e_t = eps / s_t: the textbook
    update lr m_hat / (sqrt(v_hat) + eps) with its bias corrections folded
    into two scalars, and one division per element instead of three. The
    spent grad buffer is the scratch space, so a step holds no temporary.
    The passes run over consecutive ``STEP_CHUNK``-element slices of the
    buffers, built once at bind.
    """

    def __init__(self, learning_rate: float):
        if learning_rate < 0:
            raise DomainError("learning rate must be nonnegative")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._params: tuple | None = None

    def _bind(self, params) -> None:
        for p in params:
            if p.grad is None:
                raise _released(p)
        if self._params is not None:
            if tuple(params) != self._params:
                raise ContractError(
                    "optimizer is bound to the tensors of its first step; "
                    "pass the same tensors in the same order")
            return
        params = tuple(params)
        self._value, self._grad = flat_buffer(params, "value"), flat_buffer(params, "grad")
        total = self._value.size
        m, v = np.zeros(total), np.zeros(total)
        self._chunks = [(self._value[s], self._grad[s], m[s], v[s])
                        for s in row_blocks(total, STEP_CHUNK)]
        self._params = params

    def _update(self) -> bool:
        """One step over every chunk, leaving the grads zero; returns whether
        every value is finite afterwards."""
        t = self.step_count  # incremented by step() before the update
        s = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**t))
        alpha = self.learning_rate * (1.0 - ADAM_BETA1) / ((1.0 - ADAM_BETA1**t) * s)
        eps = ADAM_EPS / s
        finite = True
        for value, g, m, v in self._chunks:
            m *= ADAM_BETA1
            m += g
            np.multiply(g, g, out=g)  # the grads are spent: g is scratch from here
            v *= ADAM_BETA2
            v += g
            np.sqrt(v, out=g)
            g += eps
            np.divide(m, g, out=g)
            g *= alpha
            value -= g
            g.fill(0.0)
            finite = finite and np.logical_and.reduce(np.isfinite(value))
        return finite


def step(opt: Adam, params) -> None:
    """Apply one optimizer step to every param, then zero all grads.

    ``params`` must hold the same tensors, in the same order, on every call
    with one optimizer (ContractError otherwise). Raises TrainingError
    (naming the first offending parameter) on any non-finite gradient, before
    anything moves, or on a non-finite value after the update.
    """
    opt._bind(params)
    if not np.logical_and.reduce(np.isfinite(opt._grad)):
        bad = next(p for p in params if not np.isfinite(p.grad).all())
        raise TrainingError(f"non-finite gradient in {bad.name!r}", param_name=bad.name)
    opt.step_count += 1
    with np.errstate(over="ignore", invalid="ignore"):
        finite = opt._update()
    if not finite:
        bad = next(p for p in params if not np.isfinite(p.value).all())
        raise TrainingError(f"non-finite value in {bad.name!r} after step",
                            param_name=bad.name)


@dataclass
class GradCheckReport:
    max_rel_error: float = 0.0
    failures: list = field(default_factory=list)  # (name, flat_index, analytic, fd, rel)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_gradients(loss_fn, params, eps: float = 1e-5, tol: float = 1e-4,
                    rel_floor: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` must return the scalar loss and, as a side effect, accumulate
    gradients into ``params``. It must be deterministic; two baseline
    evaluations that disagree raise ContractError. Components whose analytic
    and numeric magnitudes both fall below ``rel_floor`` are compared
    absolutely against ``rel_floor * tol``.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    params = list(params)
    zero_grads(params)
    loss0 = float(loss_fn())
    analytic = {p.name: p.grad.copy() for p in params}
    zero_grads(params)
    loss1 = float(loss_fn())
    if loss0 != loss1:
        raise ContractError(
            f"loss_fn is not deterministic: {loss0!r} vs {loss1!r}; "
            "fix all stochastic inputs before checking gradients"
        )
    zero_grads(params)

    report = GradCheckReport()
    for p in params:
        flat = p.value.reshape(-1)
        a_flat = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(loss_fn())
            flat[i] = orig - eps
            lm = float(loss_fn())
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            a = float(a_flat[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), rel_floor)
            report.max_rel_error = max(report.max_rel_error, rel)
            if rel > tol:
                report.failures.append((p.name, i, a, fd, rel))
    zero_grads(params)
    return report


# ---------------------------------------------------------------------------
# Checkpoints: a payload container (see core.write_container) whose manifest
# lists (name, shape, byte offset) per tensor. The manifest's "optimizer"
# field is always null: no optimizer state is saved.
# ---------------------------------------------------------------------------

# v4 manifests carry the payload's SHA-256, v3 ones a blake2b, v2 ones no
# checksum, and v1 contexts meant something else (they went through a random
# mixer). All three are rejected.
_CKPT_FORMAT = "coft-checkpoint-v4"


def _paths(stem: str):
    return stem + ".json", stem + ".f64le"


def save_checkpoint(stem: str, params) -> str:
    """Write ``<stem>.json`` + ``<stem>.f64le``; returns the manifest path."""
    manifest_path, payload_path = _paths(stem)
    entries = []
    offset = 0
    for p in params:
        entries.append({"name": p.name, "offset": offset, "shape": list(p.value.shape)})
        offset += 8 * p.value.size
    write_container(manifest_path, payload_path, [p.value for p in params],
                    {"format": _CKPT_FORMAT, "optimizer": None, "params": entries})
    return manifest_path


def _tensor_entries(manifest_path: str, manifest: dict) -> list:
    """(name, shape) per listed tensor. FormatError naming the file and the
    field for a field missing or of the wrong JSON type, or offsets that are
    not consecutive."""
    if manifest.get("format") != _CKPT_FORMAT:
        raise FormatError(f"{manifest_path}: unrecognized checkpoint format "
                          f"{manifest.get('format')!r}")
    if manifest.get("optimizer") is not None:
        raise FormatError(f"{manifest_path}: the 'optimizer' field must be null")
    out = []
    offset = 0
    for i, e in enumerate(json_field(manifest_path, manifest, "params", list)):
        where = f"params[{i}]."
        if not isinstance(e, dict):
            raise FormatError(f"{manifest_path}: {where[:-1]} is not a JSON object")
        name = json_field(manifest_path, e, "name", str, where=where)
        shape = tuple(json_field(manifest_path, e, "shape", list, int, where=where))
        if json_field(manifest_path, e, "offset", int, where=where) != offset:
            raise FormatError(f"{manifest_path}: field '{where}offset' must be {offset}")
        if min(shape, default=0) < 0:
            raise FormatError(f"{manifest_path}: field '{where}shape' has a negative dimension")
        out.append((name, shape))
        offset += 8 * math.prod(shape)
    return out


def load_checkpoint(stem: str, params) -> None:
    """Read the checkpoint pair at ``stem`` straight into the flat value
    buffer of ``params`` (tensors laid out by ``flat_params``). Raises
    FormatError, naming the manifest, when it is malformed or does not list
    exactly ``params`` (their names past the owner prefix, shapes and order;
    the message names the first tensor that differs); then, naming the
    payload, when its size differs from the tensors' or it holds a value that
    is not finite, which ``step`` never lets a run save. IntegrityError on a
    checksum mismatch. On any error the values of ``params`` are undefined."""
    manifest_path, payload_path = _paths(stem)
    manifest = read_manifest(manifest_path)
    entries = _tensor_entries(manifest_path, manifest)
    checksum = checksum_field(manifest_path, manifest)

    def described(name, shape):
        return f"{name.split('/', 1)[-1]!r} of shape {shape}"

    listed = [described(name, shape) for name, shape in entries]
    wanted = [described(p.name, p.shape) for p in params]
    for i, (got, want) in enumerate(itertools.zip_longest(listed, wanted,
                                                          fillvalue="no tensor")):
        if got != want:
            raise FormatError(f"{manifest_path}: tensor {i} is {got}, expected {want}")
    flat = flat_buffer(params, "value")
    read_payload(payload_path, [flat], checksum)
    if not np.logical_and.reduce(np.isfinite(flat)):
        bad = next(p for p in params if not np.isfinite(p.value).all())
        raise FormatError(f"{payload_path}: tensor {bad.name!r} holds a non-finite value")
