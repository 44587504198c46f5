"""Frozen embedding provider plus every learnable adaptation piece.

The frozen backbone is the run's dataset, held by one FrozenProvider: named
unit-norm image embeddings and one unit-norm anchor per class.
``data.load_dataset`` builds it from a payload, L2-normalizing every row once;
``data.generate_synthetic`` builds it from the tables it draws. On top of it
live:

  * PromptBank    - class-specific positive/negative contexts composed into
                    per-class text embeddings (anchor k + context row k ->
                    renormalize)
  * VisualAdapter - low-rank residual over a frozen image embedding,
                    renormalized; exact identity while its up-projection is 0
  * FFTEncoder    - residual two-layer MLP over raw embeddings plus a linear
                    class head; exact identity perturbation at init

Each forward returns a cache; the matching ``*_backward`` consumes the
upstream gradient and accumulates into the owning ParamTensors, so losses can
be assembled by chaining. Gradients are hand-derived; tests verify them
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng, as_f64, map_row_blocks
from .errors import DomainError, ShapeError, TrainingError
from .grad import ParamTensor, accumulate_grad, param

__all__ = [
    "FrozenProvider",
    "PromptBank",
    "init_prompt_bank",
    "compose_texts",
    "compose_texts_backward",
    "VisualAdapter",
    "init_visual_adapter",
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
            norms = map_row_blocks(lambda rows: np.linalg.norm(rows, axis=1), table)
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
# Prompt bank
# ---------------------------------------------------------------------------

@dataclass
class PromptBank:
    """Learnable class-specific positive and negative contexts, shape
    (C, d) each: row k shifts class k's anchor (CoOp's class-specific
    context variant), so each class's text can move on its own.

    The per-class anchors are read from the shared provider; only the two
    context tables train.
    """

    pos_context: ParamTensor
    neg_context: ParamTensor

    def params(self):
        return [self.pos_context, self.neg_context]

    def _context(self, polarity: str) -> ParamTensor:
        if polarity == "positive":
            return self.pos_context
        if polarity == "negative":
            return self.neg_context
        raise DomainError(f"polarity must be 'positive' or 'negative', got {polarity!r}")


def init_prompt_bank(provider: FrozenProvider, rng: SeededRng, sigma: float = 0.02,
                     name_prefix: str = "") -> PromptBank:
    """Fresh bank with Gaussian contexts from distinct pos/neg streams."""
    shape = (provider.num_classes, provider.dim)
    pos = rng.stream("pos_context").normal(shape, scale=sigma)
    neg = rng.stream("neg_context").normal(shape, scale=sigma)
    return PromptBank(
        pos_context=param(name_prefix + "pos_context", pos),
        neg_context=param(name_prefix + "neg_context", neg),
    )


@dataclass
class _ComposeCache:
    context: ParamTensor
    texts: np.ndarray   # (C, d) normalized
    norms: np.ndarray   # (C,) pre-normalization row norms


def compose_texts(bank: PromptBank, provider: FrozenProvider, polarity: str):
    """Text embeddings for every class: normalize(anchor_k + ctx_k).

    Returns (texts (C, d), cache for the backward pass).
    """
    ctx = bank._context(polarity)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = provider.class_anchors + ctx.value
        norms = np.linalg.norm(pre, axis=1)
    if not np.all(np.isfinite(norms)):
        raise TrainingError(f"composed {polarity} text embedding is non-finite: "
                            f"{ctx.name!r} overflowed", param_name=ctx.name)
    if np.any(norms == 0.0):
        raise DomainError("composed text embedding collapsed to zero norm")
    texts = pre / norms[:, None]
    return texts, _ComposeCache(context=ctx, texts=texts, norms=norms)


def compose_texts_backward(cache: _ComposeCache, d_texts) -> None:
    """Accumulate d(loss)/d(context) given d(loss)/d(texts)."""
    d_texts = as_f64(d_texts)
    t = cache.texts
    # back through row-wise normalize: (g - (g.t) t) / |pre|
    proj = np.sum(d_texts * t, axis=1, keepdims=True)
    d_pre = (d_texts - proj * t) / cache.norms[:, None]
    accumulate_grad(cache.context, d_pre)


# ---------------------------------------------------------------------------
# Visual adapter
# ---------------------------------------------------------------------------

@dataclass
class VisualAdapter:
    """Low-rank residual over a frozen embedding, renormalized.

    adapted(e) = normalize(e + scale * up @ tanh(down @ e)); exactly the
    identity while ``up`` is all zero or ``scale`` is 0.
    """

    down: ParamTensor  # (rank, d)
    up: ParamTensor    # (d, rank)
    scale: float

    def params(self):
        return [self.down, self.up]

    def is_identity(self) -> bool:
        return self.scale == 0.0 or not np.any(self.up.value)


def init_visual_adapter(dim: int, rank: int, scale: float, rng: SeededRng,
                        sigma: float = 0.02, name_prefix: str = "") -> VisualAdapter:
    """Zero up-projection at init so adaptation starts from the exact identity."""
    down = rng.stream("adapter_down").normal((rank, dim), scale=sigma)
    return VisualAdapter(
        down=param(name_prefix + "adapter_down", down),
        up=param(name_prefix + "adapter_up", np.zeros((dim, rank))),
        scale=float(scale),
    )


@dataclass
class _AdaptCache:
    adapter: VisualAdapter
    base: np.ndarray     # (n, d)
    hidden: np.ndarray   # (n, rank) post-tanh
    adapted: np.ndarray  # (n, d) normalized
    norms: np.ndarray    # (n,)


def adapt_batch(adapter: VisualAdapter, base):
    """Adapt a batch of frozen embeddings; returns (adapted, cache)."""
    e = as_f64(base)
    if e.ndim != 2:
        raise ShapeError(f"expected a batch (n, d), got shape {e.shape}")
    if e.shape[1] != adapter.down.value.shape[1]:
        raise ShapeError(
            f"embedding dim {e.shape[1]} != adapter dim {adapter.down.value.shape[1]}"
        )
    hidden = np.tanh(e @ adapter.down.value.T)
    if adapter.is_identity():
        # exact identity contract: no renormalization of already-unit rows
        adapted = e.copy()
        norms = np.linalg.norm(e, axis=1)
    else:
        z = e + adapter.scale * (hidden @ adapter.up.value.T)
        norms = np.linalg.norm(z, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("adapted embedding collapsed to zero norm")
        adapted = z / norms[:, None]
    return adapted, _AdaptCache(adapter=adapter, base=e, hidden=hidden,
                                adapted=adapted, norms=norms)


def adapt_batch_backward(cache: _AdaptCache, d_adapted):
    """Accumulate gradients into the adapter; returns (d_down, d_up) contributions."""
    g = as_f64(d_adapted)
    v = cache.adapted
    proj = np.sum(g * v, axis=1, keepdims=True)
    dz = (g - proj * v) / cache.norms[:, None]
    s = cache.adapter.scale
    d_up = s * (dz.T @ cache.hidden)
    d_hidden = s * (dz @ cache.adapter.up.value)
    d_pre = d_hidden * (1.0 - cache.hidden**2)
    d_down = d_pre.T @ cache.base
    accumulate_grad(cache.adapter.down, d_down)
    accumulate_grad(cache.adapter.up, d_up)
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
    w1 = rng.stream("fft_w1").normal((hidden, dim), scale=1.0)
    return FFTEncoder(
        w1=param(name_prefix + "fft_w1", w1),
        b1=param(name_prefix + "fft_b1", np.zeros(hidden)),
        w2=param(name_prefix + "fft_w2", np.zeros((dim, hidden))),
        b2=param(name_prefix + "fft_b2", np.zeros(dim)),
        w_fc=param(name_prefix + "fft_w_fc", np.zeros((num_classes, dim))),
        b_fc=param(name_prefix + "fft_b_fc", np.zeros(num_classes)),
    )


def clone_encoder_values(enc: FFTEncoder, name_prefix: str) -> FFTEncoder:
    """Deep copy of parameter values (fresh grads); used for the momentum twin."""
    return FFTEncoder(*[param(name_prefix + p.name, p.value.copy()) for p in enc.params()])


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
    accumulate_grad(enc.b2, g.sum(axis=0))
    d_hidden = g @ enc.w2.value
    d_pre = d_hidden * (1.0 - cache.hidden**2)
    accumulate_grad(enc.w1, d_pre.T @ cache.x)
    accumulate_grad(enc.b1, d_pre.sum(axis=0))


@dataclass
class _LogitsCache:
    enc: FFTEncoder
    encode_cache: _EncodeCache


def logits_batch(enc: FFTEncoder, x):
    """Class logits w_fc @ encode(x) + b_fc; returns (logits (n, C), cache)."""
    encoded, ecache = encode_batch(enc, x)
    logits = encoded @ enc.w_fc.value.T + enc.b_fc.value
    return logits, _LogitsCache(enc=enc, encode_cache=ecache)


def logits_batch_backward(cache: _LogitsCache, d_logits) -> None:
    g = as_f64(d_logits)
    enc = cache.enc
    accumulate_grad(enc.w_fc, g.T @ cache.encode_cache.encoded)
    accumulate_grad(enc.b_fc, g.sum(axis=0))
    d_encoded = g @ enc.w_fc.value
    encode_batch_backward(cache.encode_cache, d_encoded)

