"""Frozen embedding provider plus every learnable adaptation piece.

The frozen backbone is the run's dataset, held by one FrozenProvider: named
unit-norm image embeddings and one unit-norm anchor per class.
``data.load_dataset`` builds it from a payload, L2-normalizing every row once;
``data.generate_synthetic`` builds it from the tables it draws. On top of it
live the two trainable model types:

  * AdaptedModel - one phase-1 model: class-specific positive/negative
                   contexts composed into one stacked (2C, d) text table,
                   positive rows first (anchor k + context row k ->
                   renormalize), plus a low-rank residual adapter over a
                   frozen image embedding, renormalized; exact identity while
                   its up-projection is 0; a TextScratch holds the tables
                   its training steps write into
  * FFTEncoder   - residual two-layer MLP over raw embeddings plus a linear
                   class head; exact identity perturbation at init

Each forward returns a cache; the matching ``*_backward`` consumes the
upstream gradient and accumulates into the owning ParamTensors, so losses can
be assembled by chaining. Gradients are hand-derived; tests verify them
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, as_f64, map_row_blocks, row_norms
from .errors import DomainError, ShapeError, TrainingError
from .grad import ParamTensor, accumulate_grad, flat_buffer, flat_params, flat_views

__all__ = [
    "FrozenProvider",
    "build_params",
    "AdaptedModel",
    "TextScratch",
    "compose_texts",
    "compose_texts_backward",
    "adapt_batch",
    "adapt_batch_backward",
    "FFTEncoder",
    "init_fft_encoder",
    "clone_encoder_values",
    "encode_batch",
    "encode_batch_backward",
    "logits_batch",
    "logits_batch_backward",
]

_NORM_TOL = 1e-9


def build_params(spec: dict) -> list:
    """The tensors of ``spec`` (name -> (shape, stream, scale)) laid out by
    ``grad.flat_params``, in order: ``scale`` times the stream's Gaussian
    draws, drawn in place, or zeros where the stream is None."""
    tensors = flat_params({name: shape for name, (shape, _, _) in spec.items()})
    for p, (_, stream, scale) in zip(tensors, spec.values()):
        if stream is not None:
            stream.fill_normal(p.value)
            p.value *= scale
    return tensors


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table`` marked read-only; a copy first when it does not own its data."""
    if not table.flags.owndata:
        table = table.copy()
    table.setflags(write=False)
    return table


class FrozenProvider:
    """Immutable frozen backbone shared by every model in a run: the image
    embeddings and one anchor per class, with the dataset's name and class
    names (``class_00``, ``class_01``, ... when none are given).

    The tables are held as given; nothing here normalizes. A row further than
    1e-9 from unit norm (or not finite) is rejected as corrupt, naming the
    row. A float64 table that owns its data is adopted without a copy and
    marked read-only, so a caller's later write to it raises (a view of it
    taken before stays writable); any other input (a view, whose base could
    still be written, or another dtype) is copied first.
    """

    def __init__(self, image_embeddings, class_anchors, class_names=None, name="dataset"):
        emb = as_f64(image_embeddings)
        anchors = as_f64(class_anchors)
        if emb.ndim != 2 or anchors.ndim != 2:
            raise ShapeError("embeddings and anchors must be 2-D tables")
        if emb.shape[1] != anchors.shape[1]:
            raise ShapeError(
                f"embedding dim {emb.shape[1]} != anchor dim {anchors.shape[1]}"
            )
        for label, table in (("image embedding", emb), ("class anchor", anchors)):
            norms = map_row_blocks(row_norms, table)
            bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _NORM_TOL))
            if bad.size:
                raise DomainError(
                    f"{label} row {bad[0]} is not unit-norm (|v|={float(norms[bad[0]])!r})")
        if class_names is None:
            class_names = (f"class_{c:02d}" for c in range(anchors.shape[0]))
        self.name = name
        self.class_names = tuple(class_names)
        self._embeddings = _frozen(emb)
        self._anchors = _frozen(anchors)

    @property
    def image_embeddings(self) -> np.ndarray:
        return self._embeddings

    @property
    def class_anchors(self) -> np.ndarray:
        return self._anchors

    @property
    def num_samples(self) -> int:
        return self._embeddings.shape[0]

    @property
    def num_classes(self) -> int:
        return self._anchors.shape[0]

    @property
    def dim(self) -> int:
        return self._embeddings.shape[1]



# ---------------------------------------------------------------------------
# Phase-1 model: class prompts plus a visual adapter
# ---------------------------------------------------------------------------

@dataclass
class AdaptedModel:
    """One collaborative phase-1 model over the shared frozen provider; the
    two models of a run share the provider and no trainable tensor.

    ``pos_context`` and ``neg_context`` (C, d) are class-specific contexts:
    row k shifts class k's anchor (CoOp's class-specific context variant), so
    each class's text can move on its own; ``compose_texts`` turns both into
    one stacked (2C, d) text table, positive rows first. ``adapter_down``
    (rank, d) and ``adapter_up`` (d, rank) are a low-rank residual over a
    frozen embedding, renormalized by ``adapt_batch``.

    The positive texts classify the frozen image embedding at ``tau_pos``
    (``train.TAU_POS`` for every model the pipeline builds); the adapter
    serves the positive-vs-negative cleanliness comparison at ``tau``, so it
    is trained by the negative-prompt loss alone. ``train.init_adapted_model``
    builds every model.
    """

    model_id: str  # "model1" | "model2"
    provider: FrozenProvider
    pos_context: ParamTensor
    neg_context: ParamTensor
    adapter_down: ParamTensor
    adapter_up: ParamTensor
    adapter_scale: float
    tau: float
    tau_pos: float
    trained: bool = False

    def params(self):
        return [self.pos_context, self.neg_context, self.adapter_down, self.adapter_up]


class TextScratch:
    """The tables one model's phase-1 steps write into, so a warm step
    allocates none of them: the (2C, d) pre-normalization table ``pre``, the
    normalized ``texts``, the text gradient ``grad`` and a ``work`` table,
    plus ``rows``, the (batch, 4, d) gather of each sample's four text rows
    (a shorter batch uses its leading rows). ``train.train_phase1`` makes one
    per training run and drops it when the run ends, so a trained model holds
    none; ``compose_texts`` and the losses called without one allocate a
    fresh one per call, so their results alias nothing."""

    def __init__(self, provider: FrozenProvider, batch: int):
        shape = (2 * provider.num_classes, provider.dim)
        self.pre, self.texts, self.grad, self.work = (np.empty(shape) for _ in range(4))
        self.rows = np.empty((batch, 4, provider.dim))


@dataclass
class _ComposeCache:
    model: AdaptedModel
    texts: np.ndarray   # (2C, d) normalized
    norms: np.ndarray   # (2C,) pre-normalization row norms
    work: np.ndarray    # (2C, d) the backward pass's table


def compose_texts(model: AdaptedModel, scratch: TextScratch | None = None):
    """Both polarities' text embeddings as one (2C, d) table: row k is
    normalize(anchor_k + pos_k), row C + k is normalize(anchor_k + neg_k).
    Returns (texts, cache for the backward pass); the texts and the backward
    pass's table are ``scratch``'s when it is given."""
    if scratch is None:
        scratch = TextScratch(model.provider, 0)
    anchors = model.provider.class_anchors
    c = anchors.shape[0]
    pre = scratch.pre
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(anchors, model.pos_context.value, out=pre[:c])
        np.add(anchors, model.neg_context.value, out=pre[c:])
        norms = row_norms(pre, work=scratch.work)
    if not np.logical_and.reduce(np.isfinite(norms)):
        row = int(np.flatnonzero(~np.isfinite(norms))[0])
        ctx = (model.pos_context, model.neg_context)[row // c]
        raise TrainingError(f"composed text embedding is non-finite: "
                            f"{ctx.name!r} overflowed", param_name=ctx.name)
    if np.logical_or.reduce(norms == 0.0):
        raise DomainError("composed text embedding collapsed to zero norm")
    texts = np.divide(pre, norms[:, None], out=scratch.texts)
    return texts, _ComposeCache(model=model, texts=texts, norms=norms, work=scratch.work)


def compose_texts_backward(cache: _ComposeCache, d_texts) -> None:
    """Accumulate d(loss)/d(contexts) given d(loss)/d(texts), both (2C, d)."""
    d_texts = as_f64(d_texts)
    t, d_pre = cache.texts, cache.work
    # back through row-wise normalize: (g - (g.t) t) / |pre|, in the work table
    proj = np.add.reduce(np.multiply(d_texts, t, out=d_pre), axis=1, keepdims=True)
    np.multiply(proj, t, out=d_pre)
    np.subtract(d_texts, d_pre, out=d_pre)
    np.divide(d_pre, cache.norms[:, None], out=d_pre)
    c = t.shape[0] // 2
    accumulate_grad(cache.model.pos_context, d_pre[:c])
    accumulate_grad(cache.model.neg_context, d_pre[c:])


@dataclass
class _AdaptCache:
    model: AdaptedModel
    base: np.ndarray     # (n, d)
    hidden: np.ndarray   # (n, rank) post-tanh
    adapted: np.ndarray  # (n, d) normalized
    norms: np.ndarray    # (n,)


def adapt_batch(model: AdaptedModel, base):
    """The model's adapted view of a batch of frozen embeddings,
    normalize(e + scale * up @ tanh(down @ e)); exactly the identity while
    ``adapter_up`` is all zero or ``adapter_scale`` is 0. Returns (adapted,
    cache)."""
    e = as_f64(base)
    down, up, scale = model.adapter_down.value, model.adapter_up.value, model.adapter_scale
    if e.ndim != 2:
        raise ShapeError(f"expected a batch (n, d), got shape {e.shape}")
    if e.shape[1] != down.shape[1]:
        raise ShapeError(f"embedding dim {e.shape[1]} != adapter dim {down.shape[1]}")
    hidden = np.tanh(e @ down.T)
    if scale == 0.0 or not np.logical_or.reduce(up, axis=None):
        # exact identity contract: no renormalization of already-unit rows
        adapted = e.copy()
        norms = row_norms(e)
    else:
        z = e + scale * (hidden @ up.T)
        norms = row_norms(z)
        if np.logical_or.reduce(norms == 0.0):
            raise DomainError("adapted embedding collapsed to zero norm")
        adapted = z / norms[:, None]
    return adapted, _AdaptCache(model=model, base=e, hidden=hidden,
                                adapted=adapted, norms=norms)


def adapt_batch_backward(cache: _AdaptCache, d_adapted):
    """Accumulate gradients into the adapter; returns (d_down, d_up) contributions."""
    g = as_f64(d_adapted)
    v = cache.adapted
    proj = np.add.reduce(g * v, axis=1, keepdims=True)
    dz = (g - proj * v) / cache.norms[:, None]
    model = cache.model
    s = model.adapter_scale
    d_up = s * (dz.T @ cache.hidden)
    d_hidden = s * (dz @ model.adapter_up.value)
    d_pre = d_hidden * (1.0 - cache.hidden**2)
    d_down = d_pre.T @ cache.base
    accumulate_grad(model.adapter_down, d_down)
    accumulate_grad(model.adapter_up, d_up)
    return d_down, d_up


# ---------------------------------------------------------------------------
# Trainable encoder + classifier head for the full fine-tuning phase
# ---------------------------------------------------------------------------

@dataclass
class FFTEncoder:
    """Residual MLP over raw frozen embeddings plus a linear class head.

    encode(x)  = x + w2 @ tanh(w1 @ x + b1) + b2
    logits(x)  = w_fc @ encode(x) + b_fc

    Zero-initializing w2/b2 and the head makes the encoder an exact identity
    and the initial class distribution uniform.
    """

    w1: ParamTensor    # (hidden, d)
    b1: ParamTensor    # (hidden,)
    w2: ParamTensor    # (d, hidden)
    b2: ParamTensor    # (d,)
    w_fc: ParamTensor  # (C, d)
    b_fc: ParamTensor  # (C,)

    @property
    def dim(self) -> int:
        return self.w1.value.shape[1]

    @property
    def num_classes(self) -> int:
        return self.w_fc.value.shape[0]

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w_fc, self.b_fc]


def init_fft_encoder(dim: int, num_classes: int, hidden: int, rng: SeededRng,
                     name_prefix: str = "") -> FFTEncoder:
    """Fresh encoder, its six tensors one flat buffer."""
    return FFTEncoder(*build_params({
        name_prefix + "fft_w1": ((hidden, dim), rng.stream("fft_w1"), 1.0),
        name_prefix + "fft_b1": ((hidden,), None, 0.0),
        name_prefix + "fft_w2": ((dim, hidden), None, 0.0),
        name_prefix + "fft_b2": ((dim,), None, 0.0),
        name_prefix + "fft_w_fc": ((num_classes, dim), None, 0.0),
        name_prefix + "fft_b_fc": ((num_classes,), None, 0.0),
    }))


def clone_encoder_values(enc: FFTEncoder, name_prefix: str) -> FFTEncoder:
    """A copy of the encoder's flat value buffer, viewed as its tensors and
    holding no grads; used for the momentum twin, which is only read and
    EMA-updated, never trained."""
    params = enc.params()
    values = flat_views(flat_buffer(params, "value").copy(), [p.shape for p in params])
    return FFTEncoder(*[ParamTensor(name_prefix + p.name, v, None)
                        for p, v in zip(params, values)])


@dataclass
class _EncodeCache:
    enc: FFTEncoder
    x: np.ndarray
    hidden: np.ndarray
    encoded: np.ndarray


def encode_batch(enc: FFTEncoder, x):
    """Residual MLP forward; returns (encoded (n, d), cache)."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"expected a batch (n, d), got shape {x.shape}")
    if x.shape[1] != enc.dim:
        raise ShapeError(f"input dim {x.shape[1]} != encoder dim {enc.dim}")
    # in place, so a row block holds one (n, hidden) temporary; the sums are
    # the same IEEE additions as x + hidden @ w2.T + b2
    hidden = x @ enc.w1.value.T
    hidden += enc.b1.value
    np.tanh(hidden, out=hidden)
    encoded = hidden @ enc.w2.value.T
    encoded += x
    encoded += enc.b2.value
    return encoded, _EncodeCache(enc=enc, x=x, hidden=hidden, encoded=encoded)


def encode_batch_backward(cache: _EncodeCache, d_encoded) -> None:
    """Accumulate encoder grads."""
    g = as_f64(d_encoded)
    enc = cache.enc
    accumulate_grad(enc.w2, g.T @ cache.hidden)
    accumulate_grad(enc.b2, np.add.reduce(g, axis=0))
    d_hidden = g @ enc.w2.value
    d_pre = d_hidden * (1.0 - cache.hidden**2)
    accumulate_grad(enc.w1, d_pre.T @ cache.x)
    accumulate_grad(enc.b1, np.add.reduce(d_pre, axis=0))


def logits_batch(enc: FFTEncoder, x):
    """Class logits w_fc @ encode(x) + b_fc; returns (logits (n, C), the
    encode cache, which holds all the backward pass reads)."""
    encoded, cache = encode_batch(enc, x)
    logits = encoded @ enc.w_fc.value.T + enc.b_fc.value
    return logits, cache


def logits_batch_backward(cache: _EncodeCache, d_logits) -> None:
    g = as_f64(d_logits)
    enc = cache.enc
    accumulate_grad(enc.w_fc, g.T @ cache.encoded)
    accumulate_grad(enc.b_fc, np.add.reduce(g, axis=0))
    d_encoded = g @ enc.w_fc.value
    encode_batch_backward(cache, d_encoded)

