"""Parameter registry, the Adam optimizer, a finite-difference gradient
verifier, and the checkpoint file format.

Gradients in this package are hand-derived per loss; the verifier here is the
independent check that keeps them honest. Losses accumulate into
``ParamTensor.grad`` and an optimizer ``step`` consumes and zeroes the grads.

``Adam`` keeps its moments rescaled and folds the bias corrections into two
per-step scalars (Kingma & Ba 2015, arXiv 1412.6980, section 2, last
paragraph), so a step is ten elementwise passes with one division, run one
cache-sized chunk at a time. This is Adam's mathematics in a different
operation order: values differ from the textbook order in their last bits
only, and stay byte-identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (as_f64, json_field, read_manifest, read_payload, row_blocks,
                   write_container)
from .errors import ContractError, DomainError, FormatError, ShapeError, TrainingError

__all__ = [
    "ParamTensor",
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


@dataclass
class ParamTensor:
    """A named trainable array with an accumulated gradient of the same shape."""

    name: str
    value: np.ndarray
    grad: np.ndarray

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0


def param(name: str, value) -> ParamTensor:
    v = np.array(value, dtype=np.float64)
    return ParamTensor(name=name, value=v, grad=np.zeros_like(v))


def accumulate_grad(p: ParamTensor, contribution) -> ParamTensor:
    """grad += contribution, elementwise. Shapes must match exactly."""
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

    The first ``step`` binds the optimizer to its param list: it copies the
    values and grads into one flat value buffer and one flat grad buffer, in
    param order, and rebinds each tensor's ``value`` and ``grad`` to a view of
    them. In-place writes to a bound tensor reach the optimizer; assigning a
    new array to ``value`` or ``grad`` does not.

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
        if self._params is not None:
            if len(params) != len(self._params) or any(
                    p is not q for p, q in zip(params, self._params)):
                raise ContractError(
                    "optimizer is bound to the tensors of its first step; "
                    "pass the same tensors in the same order")
            return
        params = tuple(params)
        total = sum(p.value.size for p in params)
        self._value, self._grad = np.empty(total), np.empty(total)
        offset = 0
        for p in params:
            end = offset + p.value.size
            self._value[offset:end] = p.value.reshape(-1)
            self._grad[offset:end] = p.grad.reshape(-1)
            p.value = self._value[offset:end].reshape(p.value.shape)
            p.grad = self._grad[offset:end].reshape(p.grad.shape)
            offset = end
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
            finite = finite and np.isfinite(value).all()
        return finite


def step(opt: Adam, params) -> None:
    """Apply one optimizer step to every param, then zero all grads.

    ``params`` must hold the same tensors, in the same order, on every call
    with one optimizer (ContractError otherwise). Raises TrainingError
    (naming the first offending parameter) on any non-finite gradient, before
    anything moves, or on a non-finite value after the update.
    """
    opt._bind(params)
    if not np.isfinite(opt._grad).all():
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
    tol: float
    eps: float
    max_rel_error: float = 0.0
    per_param: dict = field(default_factory=dict)  # name -> max rel error
    failures: list = field(default_factory=list)  # (name, flat_index, analytic, fd, rel)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAIL ({len(self.failures)} components)"
        lines = [f"gradient check {status}: max rel error {self.max_rel_error:.3e} (tol {self.tol:.1e})"]
        for name, err in self.per_param.items():
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


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

    report = GradCheckReport(tol=tol, eps=eps)
    for p in params:
        flat = p.value.reshape(-1)
        a_flat = analytic[p.name].reshape(-1)
        worst = 0.0
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
            if rel > worst:
                worst = rel
            if rel > tol:
                report.failures.append((p.name, i, a, fd, rel))
        report.per_param[p.name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    zero_grads(params)
    return report


# ---------------------------------------------------------------------------
# Checkpoints: a payload container (see core.write_container) whose manifest
# lists (name, shape, byte offset) per tensor. The manifest's "optimizer"
# field is always null: no optimizer state is saved.
# ---------------------------------------------------------------------------

# v3 manifests carry the payload's checksum; v2 ones lack it, and v1 contexts
# meant something else (they went through a random mixer). Both are rejected.
_CKPT_FORMAT = "coft-checkpoint-v3"


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


def load_checkpoint(stem: str) -> list:
    """Read a checkpoint pair; returns its params in manifest order. Raises
    FormatError, naming the file, when the manifest is malformed or the payload
    size differs from the listed tensors', IntegrityError on a checksum mismatch."""
    manifest_path, payload_path = _paths(stem)
    manifest = read_manifest(manifest_path)
    entries = _tensor_entries(manifest_path, manifest)
    values = read_payload(payload_path, [shape for _, shape in entries],
                          manifest.get("checksum"))
    return [ParamTensor(name, value, np.zeros_like(value))
            for (name, _), value in zip(entries, values)]
