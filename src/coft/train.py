"""Two-phase collaborative training over frozen embeddings.

Phase 1 fits two lightweight models (``encoders.AdaptedModel``: class-specific
prompt contexts + a low-rank visual adapter each, built by
``init_adapted_model``) on per-class top-K high-confidence
pseudo-labels, with a dual objective: cross-entropy of the positive texts
against the frozen image embedding, plus a positive-vs-negative prompt margin
on the adapted embedding that learns a per-sample cleanliness criterion. The
two models select their top-K differently: model1 by the text-side
confidence of the labels it starts from, model2 by their image-side
confidence (similarity to the class centroids of the same labels), so they
train on different samples and make different mistakes. Phase 2 has each
model label the full unlabeled set and the other model validate via its own
positive/negative similarity comparison: ``collaborative_filter`` returns
the generator's label table with every row marked clean or noise. A
trainable encoder + classifier head (a student) fits each direction's clean
rows. coft-plus trains its students with the same trainer, ``train_fft``,
adding a weighted momentum-contrastive term over all samples, and repeats
phase 1 with re-initialized models on each round's fresh top-K selection;
``mode_config`` holds the rule that a coft run is one round with no
contrastive term.

A model's texts are one stacked (2C, d) table, positive rows over negative
ones, composed and back-propagated once per phase-1 step. The positive term
reads the top C rows; the negative-prompt term takes each sample's four rows
(both polarities of its label and of its complement) in one gather, and one
(n, 2C)-transposed product scatters their gradients. Each ``train_phase1``
call gives its steps one ``encoders.TextScratch`` to write those tables and
the gather into, dropped when training ends; a warm step then allocates
nothing table-sized, whose release at the heap's top would hand the pages
back to the kernel, to be faulted in again the next step. The losses and
``clean_probability`` (the paper's p_clean, above 1/2 exactly where the filter
keeps a label) refuse labels and complements outside [0, C): a wrong index
would read another class or the other polarity.

Both phases train through one epoch loop, ``_train_epochs``: it owns the
optimizer, the batch walk, the failure rules (a non-finite forward pass, or
an epoch loss above 10x the first epoch's for 3 consecutive epochs, raises
TrainingError), the per-epoch metrics record, and the release of the trained
tensors' grads when the last epoch ends.

Losses return their scalar value and accumulate hand-derived gradients into
the owning parameters (scaled by their composite weight where applicable);
``gradient_check_suite`` verifies every loss against central finite
differences.

``load_model_checkpoint`` and ``load_student_checkpoint`` build a model as a
run builds it and read its checkpoint into its own tensors
(``grad.load_checkpoint``).
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    SeededRng,
    as_f64,
    normalize_rows,
    row_blocks,
    row_norms,
    softmax_rows,
)
from .data import MetricsWriter, load_dataset, load_ground_truth, require_finite_floats
from .encoders import (
    AdaptedModel,
    FFTEncoder,
    FrozenProvider,
    TextScratch,
    adapt_batch,
    adapt_batch_backward,
    build_params,
    clone_encoder_values,
    compose_texts,
    compose_texts_backward,
    encode_batch,
    encode_batch_backward,
    init_fft_encoder,
    logits_batch,
    logits_batch_backward,
)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    FormatError,
    PipelineError,
    ShapeError,
    TrainingError,
)
from .grad import Adam, flat_buffer, load_checkpoint, save_checkpoint, step
from .pseudo import (
    PseudoLabelSet,
    assign_pseudo_labels,
    centroid_confidences,
    select_top_k,
)

__all__ = [
    "TrainConfig",
    "mode_config",
    "init_adapted_model",
    "loss_positive",
    "loss_negative",
    "loss_phase1",
    "clean_probability",
    "draw_complements",
    "train_phase1",
    "generate_labels",
    "collaborative_filter",
    "collaborative_filter_both",
    "loss_fft",
    "train_fft",
    "MomentumState",
    "momentum_update",
    "augment_two_views",
    "loss_contrastive",
    "iterate_peft",
    "gradient_check_suite",
    "run_pipeline",
    "save_model_checkpoint",
    "load_model_checkpoint",
    "load_student_checkpoint",
]

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_PATIENCE = 3

# Temperature of the positive-prompt classifier over the frozen embeddings.
# Soft on purpose: as it grows, the cross-entropy optimum moves from the
# extremes of the top-K selection toward its class means.
TAU_POS = 3.0


@dataclass
class TrainConfig:
    """Every knob the two phases read. The defaults are artifact choices for
    the desk-scale regime, not reported values."""

    tau: float = 0.07            # zero-shot and cleanliness temperature
    tau_prime: float = 0.2       # contrastive temperature
    k_per_class: int = 48        # top-K selection size
    lam: float = 0.05            # weight of the negative-prompt loss
    gamma: float = 0.5           # weight of the contrastive loss
    mu: float = 0.99             # momentum coefficient
    rounds: int = 2              # iterated phase-1 rounds
    queue_capacity: int = 256
    phase1_epochs: int = 120
    phase2_epochs: int = 100
    batch_size: int = 32
    lr_peft: float = 1e-3
    lr_fft: float = 1e-3
    adapter_rank: int = 16
    adapter_scale: float = 0.5
    hidden_mult: int = 2         # FFT hidden width = mult * dim
    init_sigma: float = 0.02
    aug_noise: float = 0.05
    aug_dropout: float = 0.1

    def validate(self):
        require_finite_floats(self)
        if self.tau <= 0 or self.tau_prime <= 0:
            raise ConfigError("temperatures must be positive")
        if self.k_per_class < 1:
            raise ConfigError("k_per_class must be >= 1")
        if self.lam < 0 or self.gamma < 0:
            raise ConfigError("loss weights must be nonnegative")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigError("mu must lie in [0, 1)")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if min(self.phase1_epochs, self.phase2_epochs) < 0:
            raise ConfigError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.adapter_rank < 1 or self.hidden_mult < 1:
            raise ConfigError("adapter_rank, hidden_mult must be >= 1")
        if not 0.0 <= self.aug_dropout < 1.0:
            raise ConfigError("aug_dropout must lie in [0, 1)")
        if self.lr_peft <= 0 or self.lr_fft <= 0:
            raise ConfigError(f"learning rates must be positive, got lr_peft={self.lr_peft}, "
                              f"lr_fft={self.lr_fft}")
        if self.init_sigma < 0 or self.aug_noise < 0:
            raise ConfigError(f"init_sigma and aug_noise must be nonnegative, got "
                              f"init_sigma={self.init_sigma}, aug_noise={self.aug_noise}")


def init_adapted_model(provider: FrozenProvider, model_id: str, round_idx: int,
                       cfg: TrainConfig, root_rng: SeededRng) -> AdaptedModel:
    """A fresh phase-1 model from round- and model-specific streams, its four
    tensors one flat buffer in ``params()`` order: Gaussian contexts from
    distinct pos/neg streams, a Gaussian down-projection and a zero
    up-projection, so adaptation starts from the exact identity."""
    rng = root_rng.stream(f"round{round_idx}/{model_id}")
    shape, rank, sigma = (provider.num_classes, provider.dim), cfg.adapter_rank, cfg.init_sigma
    return AdaptedModel(model_id, provider, *build_params({
        f"{model_id}/pos_context": (shape, rng.stream("pos_context"), sigma),
        f"{model_id}/neg_context": (shape, rng.stream("neg_context"), sigma),
        f"{model_id}/adapter_down": ((rank, provider.dim), rng.stream("adapter_down"), sigma),
        f"{model_id}/adapter_up": ((provider.dim, rank), None, 0.0),
    }), adapter_scale=float(cfg.adapter_scale), tau=cfg.tau, tau_pos=TAU_POS)


# ---------------------------------------------------------------------------
# Phase-1 losses
# ---------------------------------------------------------------------------

def _check_batch(name, emb, n_labels):
    if emb.ndim != 2 or emb.shape[0] == 0:
        raise ContractError(f"{name} needs a nonempty batch")
    if n_labels != emb.shape[0]:
        raise ShapeError(f"{name}: {n_labels} labels for {emb.shape[0]} samples")


def _positive_terms(emb, texts, labels, tau_pos, weight, out):
    """Cross-entropy value and its weighted gradient w.r.t. the text table,
    written into ``out``."""
    n = emb.shape[0]
    probs = softmax_rows(emb @ texts.T, tau_pos)
    loss = -float(np.add.reduce(np.log(probs[np.arange(n), labels]))) / n
    d_sims = probs
    d_sims[np.arange(n), labels] -= 1.0
    d_sims *= weight / (tau_pos * n)
    return loss, np.matmul(d_sims.T, emb, out=out)


def loss_positive(model: AdaptedModel, embeddings, labels) -> float:
    """Mean cross-entropy of softmax(cos(frozen image, positive texts) / tau_pos)
    against the pseudo-labels. Its gradients reach the positive context only.
    """
    return _phase1_terms(model, embeddings, labels, None, 1.0, None, "loss_positive", None)[0]


def clean_probability(model: AdaptedModel, embedding, label: int) -> float:
    """Two-way softmax at the model's temperature between the positive- and
    negative-prompt similarities of ``label``; > 0.5 means the positive wins."""
    num_classes = model.provider.num_classes
    _check_classes("clean_probability", "label", np.array([label]), num_classes)
    emb = as_f64(embedding)
    texts, _ = compose_texts(model)
    visual, _ = adapt_batch(model, emb[None, :])
    sp = float(visual[0] @ texts[label])
    sn = float(visual[0] @ texts[num_classes + label])
    return float(1.0 / (1.0 + np.exp(-(sp - sn) / model.tau)))


def draw_complements(labels, num_classes: int, rng: SeededRng) -> np.ndarray:
    """One uniform non-label class per sample."""
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes < 2:
        raise ConfigError("complement labels need at least 2 classes")
    draw = rng.integers(0, num_classes - 1, shape=labels.shape[0])
    return np.where(draw >= labels, draw + 1, draw).astype(np.int64)


# Sign of each margin in the softplus of the negative-prompt objective: the
# assigned label's positive-minus-negative margin enters negated, the
# complement's as it is.
_MARGIN_SIGNS = np.array([-1.0, 1.0])


def _negative_terms(visual, texts, labels, comp, tau, weight, rows, out):
    """Negative-prompt value and its weighted gradients w.r.t. the adapted
    embeddings and the stacked (2C, d) text table, positive rows first; the
    gather goes into ``rows`` (n, 4, d) and the text gradient into ``out``,
    fresh arrays where they are None.

    One gather takes each sample's four text rows (positive and negative of
    its label y, then of its complement h); the per-sample objective
    -[log sigmoid(x_y) + log sigmoid(-x_h)], with x = (s_pos - s_neg) / tau,
    is softplus(-x_y) + softplus(x_h), one softplus over an (n, 2) table.
    """
    n, c = visual.shape[0], texts.shape[0] // 2
    cols = np.array((labels, labels + c, comp, comp + c)).T  # (n, 4)
    # the columns are in range, so "clip" only spares take() a buffered copy
    rows = texts.take(cols, axis=0, out=rows, mode="clip")  # (n, 4, d)
    sims = np.matmul(rows, visual[:, :, None])[:, :, 0]
    u = (sims[:, 0::2] - sims[:, 1::2]) / tau  # (n, 2): x_y, x_h
    u *= _MARGIN_SIGNS
    loss = float(np.add.reduce(np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))),
                               axis=None)) / n
    # d softplus(u) / du = sigmoid(u); d u / d s_pos = -d u / d s_neg = sign / tau
    d_margin = _MARGIN_SIGNS * (weight / (n * tau)) / (1.0 + np.exp(-u))
    d_sims = np.empty((n, 4))
    d_sims[:, 0::2] = d_margin
    np.negative(d_margin, out=d_sims[:, 1::2])
    d_visual = np.matmul(d_sims[:, None, :], rows)[:, 0, :]
    # the four columns of a row are distinct (h != y), so one assignment
    # scatters every sample's four gradients into its text rows
    scatter = np.zeros((n, 2 * c))
    scatter[np.arange(n)[:, None], cols] = d_sims
    return loss, d_visual, np.matmul(scatter.T, visual, out=out)


def _check_classes(name, what, column, num_classes):
    """ContractError naming the first entry of ``column`` outside
    [0, num_classes): a negative index would wrap to another class."""
    if np.minimum.reduce(column) < 0 or np.maximum.reduce(column) >= num_classes:
        row = int(np.flatnonzero((column < 0) | (column >= num_classes))[0])
        raise ContractError(f"{name}: {what} {int(column[row])} at row {row} is outside "
                            f"the {num_classes} classes")


def _check_complements(name, num_classes, labels, comp):
    if num_classes < 2:
        raise ConfigError("loss_negative needs at least 2 classes")
    if comp.shape != labels.shape:
        raise ShapeError(f"{comp.shape[0]} complements for {labels.shape[0]} labels")
    _check_classes(name, "complement", comp, num_classes)
    if np.logical_or.reduce(comp == labels):
        raise ContractError("complement labels must differ from assigned labels")


def loss_negative(model: AdaptedModel, embeddings, labels, complements) -> float:
    """Mean of -[log p_clean(y) + log(1 - p_clean(y_hat))] over the batch.

    Pushes the positive prompt above the negative one for assigned labels and
    below it for sampled complement labels; its gradients reach both context
    tables and the adapter.
    """
    if complements is None:
        raise ContractError("loss_negative needs complement labels")
    return _phase1_terms(model, embeddings, labels, complements, None, 1.0,
                         "loss_negative", None)[1]


def loss_phase1(model: AdaptedModel, embeddings, labels, complements, lam: float,
                scratch: TextScratch | None = None) -> float:
    """loss_positive + lam * loss_negative, composing and back-propagating
    each text table once, in ``scratch``'s tables when it is given. With
    ``complements`` None the negative term is not evaluated and this is
    exactly loss_positive."""
    pos, neg = _phase1_terms(model, embeddings, labels, complements, 1.0, lam, "loss_phase1",
                             scratch)
    return pos if neg is None else pos + lam * neg


def _phase1_terms(model, embeddings, labels, complements, w_pos, w_neg, name, scratch):
    """Shared body of the phase-1 losses: the positive cross-entropy unless
    ``w_pos`` is None, the negative-prompt objective unless ``complements`` is
    None, with their gradients scaled by ``w_pos`` and ``w_neg``. Returns the
    unweighted (positive, negative) values, None for a term not evaluated.
    Labels and complements must lie in [0, C) (ContractError otherwise).
    The text tables and the gather are ``scratch``'s (fresh ones if None)."""
    emb = as_f64(embeddings)
    labels = np.asarray(labels, dtype=np.int64)
    _check_batch(name, emb, labels.shape[0])
    num_classes = model.provider.num_classes
    _check_classes(name, "label", labels, num_classes)
    if complements is not None:
        comp = np.asarray(complements, dtype=np.int64)
        _check_complements(name, num_classes, labels, comp)
    if scratch is None:
        scratch = TextScratch(model.provider, emb.shape[0])
    texts, tcache = compose_texts(model, scratch)
    pos = neg = None
    if complements is None:
        d_texts = scratch.grad
        d_texts.fill(0.0)
    else:
        visual, acache = adapt_batch(model, emb)
        neg, d_visual, d_texts = _negative_terms(visual, texts, labels, comp, model.tau, w_neg,
                                                 scratch.rows[:emb.shape[0]], scratch.grad)
        adapt_batch_backward(acache, d_visual)
    if w_pos is not None:
        # the work table is free until the backward pass
        pos, d_pos = _positive_terms(emb, texts[:num_classes], labels, model.tau_pos, w_pos,
                                     scratch.work[:num_classes])
        d_texts[:num_classes] += d_pos
    compose_texts_backward(tcache, d_texts)
    return pos, neg


# ---------------------------------------------------------------------------
# The epoch loop and phase-1 training
# ---------------------------------------------------------------------------

def _check_divergence(history, initial, epoch):
    if initial <= 0:
        return
    if len(history) >= _DIVERGENCE_PATIENCE and all(
        h > _DIVERGENCE_FACTOR * initial for h in history[-_DIVERGENCE_PATIENCE:]
    ):
        raise TrainingError(
            f"training diverged at epoch {epoch}: loss {history[-1]:.4g} exceeds "
            f"{_DIVERGENCE_FACTOR:g}x initial {initial:.4g} for "
            f"{_DIVERGENCE_PATIENCE} consecutive epochs"
        )


def _train_epochs(params, lr, epochs, batch_size, plan, terms, metrics, tags,
                  after_step=None):
    """The epoch loop of every trainer: one Adam over ``params``.

    ``plan(epoch)`` returns the epoch's shuffle order and a batch function
    ``losses(start, batch)`` that runs the forward and backward passes of the
    batch at offset ``start`` of the order and returns one loss value per
    entry of ``terms`` (record field -> weight). One optimizer step and then
    ``after_step`` follow every batch. Each epoch records the batch-size
    weighted means under ``tags``; their ``terms``-weighted sum is the loss
    the divergence rule watches. A ValueError in a forward pass (other than a
    ShapeError) becomes a TrainingError naming the phase and epoch.

    When the last epoch ends, every tensor of ``params`` releases its grad,
    and the optimizer's flat grad buffer goes with the optimizer: a trained
    model holds values only.
    """
    opt = Adam(lr)
    initial = None
    history = []
    for epoch in range(epochs):
        order, losses = plan(epoch)
        n = order.shape[0]
        totals = [0.0] * len(terms)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            try:
                values = losses(start, batch)
            except ShapeError:
                raise
            except ValueError as exc:
                raise TrainingError(f"non-finite forward pass in phase-{tags['phase']} "
                                    f"epoch {epoch}: {exc}") from exc
            step(opt, params)
            if after_step is not None:
                after_step()
            for i, value in enumerate(values):
                totals[i] += value * batch.shape[0]
        means = dict(zip(terms, (total / n for total in totals)))
        epoch_loss = sum(weight * means[name] for name, weight in terms.items())
        if initial is None:
            initial = epoch_loss
        history.append(epoch_loss)
        _check_divergence(history, initial, epoch)
        if metrics is not None:
            metrics.write(**tags, epoch=epoch, **means)
    for p in params:
        p.grad = None


def train_phase1(model: AdaptedModel, selected: PseudoLabelSet, cfg: TrainConfig,
                 root_rng: SeededRng, metrics: MetricsWriter | None = None,
                 round_idx: int = 1) -> AdaptedModel:
    """Fit prompt contexts and adapter on the high-confidence subset by
    minimizing loss_positive + lam * loss_negative. Only the model's attached
    parameters move; complement labels are redrawn every epoch."""
    if len(selected) == 0:
        raise ContractError("phase-1 training needs a nonempty selection")
    cfg.validate()
    ids, labels, _ = selected.training_view()
    emb = model.provider.image_embeddings
    num_classes = model.provider.num_classes
    # every step writes into these tables; they go when training ends
    scratch = TextScratch(model.provider, min(cfg.batch_size, ids.shape[0]))

    def plan(epoch):
        prefix = f"round{round_idx}/{model.model_id}/epoch{epoch}"
        order = root_rng.stream(f"{prefix}/shuffle").permutation(ids.shape[0])
        comp = None
        if cfg.lam > 0:
            comp = draw_complements(labels, num_classes, root_rng.stream(f"{prefix}/complement"))

        def losses(start, batch):
            return (loss_phase1(model, emb[ids[batch]], labels[batch],
                                None if comp is None else comp[batch], cfg.lam, scratch),)

        return order, losses

    _train_epochs(model.params(), cfg.lr_peft, cfg.phase1_epochs, cfg.batch_size, plan,
                  {"loss": 1.0}, metrics, dict(phase=1, round=round_idx, model=model.model_id))
    model.trained = True
    return model


# ---------------------------------------------------------------------------
# Collaborative generation and validation
# ---------------------------------------------------------------------------

def generate_labels(model: AdaptedModel) -> PseudoLabelSet:
    """The model's own pseudo-labels over every sample: its positive texts
    against the frozen embeddings, with softmax-at-tau_pos confidences."""
    texts, _ = compose_texts(model)
    positive = texts[:model.provider.num_classes]
    return assign_pseudo_labels(model.provider.image_embeddings, positive, model.tau_pos,
                                generator=model.model_id)


def collaborative_filter(generator: AdaptedModel, validator: AdaptedModel) -> PseudoLabelSet:
    """One direction of the cross-model filter: the generator's label table
    over every sample in id order (each row's ``generator`` names it), each
    row marked clean iff, on the validator's own adapted embedding, its
    positive-prompt similarity for that label strictly beats its
    negative-prompt similarity. Equality lands in the noise set."""
    if generator.provider is not validator.provider:
        raise ContractError("filter requires models sharing one provider")
    if not (generator.trained and validator.trained):
        warnings.warn(
            "collaborative_filter called with untrained model(s); "
            "validation will be near-random", UserWarning,
        )
    provider = generator.provider
    labelset = generate_labels(generator)  # row == sample id
    labels = labelset.labels()

    texts, _ = compose_texts(validator)
    for rows in row_blocks(labels.size):
        visual, _ = adapt_batch(validator, provider.image_embeddings[rows])
        sim_pos = np.sum(visual * texts[labels[rows]], axis=1)
        sim_neg = np.sum(visual * texts[labels[rows] + provider.num_classes], axis=1)
        for row, clean in zip(range(rows.start, rows.stop), (sim_pos > sim_neg).tolist()):
            labelset.mark(row, "clean" if clean else "noise")
    return labelset


def collaborative_filter_both(model1: AdaptedModel, model2: AdaptedModel) -> dict:
    """Both directions, keyed by generator: labels by model1 validated by
    model2, and vice versa."""
    return {
        "model1": collaborative_filter(model1, model2),
        "model2": collaborative_filter(model2, model1),
    }


# ---------------------------------------------------------------------------
# Phase-2 supervised loss
# ---------------------------------------------------------------------------

def loss_fft(student: FFTEncoder, embeddings, labels) -> float:
    """Softmax cross-entropy of the student's logits on raw frozen embeddings.
    Labels must lie in [0, C) (ContractError otherwise)."""
    emb = as_f64(embeddings)
    labels = np.asarray(labels, dtype=np.int64)
    _check_batch("loss_fft", emb, labels.shape[0])
    _check_classes("loss_fft", "label", labels, student.num_classes)
    n = emb.shape[0]
    logits, cache = logits_batch(student, emb)
    probs = softmax_rows(logits, 1.0)
    loss = -float(np.add.reduce(np.log(probs[np.arange(n), labels]))) / n
    d_logits = probs
    d_logits[np.arange(n), labels] -= 1.0
    d_logits *= 1.0 / n  # not /= n: that rounds differently and would change checkpoints
    logits_batch_backward(cache, d_logits)
    return loss


# ---------------------------------------------------------------------------
# Momentum contrast and the student trainer
# ---------------------------------------------------------------------------

class MomentumState:
    """EMA twin of the student encoder plus a FIFO queue of key embeddings.

    The twin's values are views of one flat buffer laid out like the
    student's (``encoders.clone_encoder_values``), so ``momentum_update`` is
    one scale and one scaled add of the student's value buffer into it.
    In-place writes to a twin tensor reach the buffer; assigning a new array
    to its ``value`` does not.

    The queue is a preallocated ``(2 * capacity, dim)`` buffer in which every
    key is written twice, ``capacity`` rows apart, so the held keys, oldest
    first, are always one contiguous slice of it.
    """

    def __init__(self, encoder: FFTEncoder, mu: float, tau_prime: float,
                 capacity: int):
        if not 0.0 <= mu < 1.0:
            raise DomainError(f"mu must lie in [0, 1), got {mu}")
        if tau_prime <= 0:
            raise DomainError("tau_prime must be positive")
        if capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        self.momentum = clone_encoder_values(encoder, "momentum/")
        self._flat = flat_buffer(self.momentum.params(), "value")
        self._source = flat_buffer(encoder.params(), "value")
        self.mu = float(mu)
        self.tau_prime = float(tau_prime)
        self.capacity = int(capacity)
        self._ring = np.zeros((2 * self.capacity, self.momentum.dim))
        self._next = 0  # ring row the next key goes to, in [0, capacity)
        self._size = 0

    def enqueue(self, keys) -> None:
        """Append the rows of ``keys`` (n, dim), evicting the oldest past capacity."""
        keys = as_f64(keys)
        if keys.ndim != 2 or keys.shape[1] != self._ring.shape[1]:
            raise ShapeError(f"keys must have shape (n, {self._ring.shape[1]}), "
                             f"got {keys.shape}")
        keys = keys[-self.capacity:]
        cap, start = self.capacity, self._next
        end = start + keys.shape[0]
        self._ring[start:end] = keys
        if end <= cap:
            self._ring[start + cap:end + cap] = keys
        else:
            self._ring[start + cap:] = keys[:cap - start]
            self._ring[:end - cap] = keys[cap - start:]
        self._next = end % cap
        self._size = min(self._size + keys.shape[0], cap)

    def _held(self) -> np.ndarray:
        """The held keys, oldest first, as a view of the ring buffer."""
        start = (self._next - self._size) % self.capacity
        return self._ring[start:start + self._size]

    def queue_array(self) -> np.ndarray:
        return self._held().copy()


def momentum_update(state: MomentumState, primary: FFTEncoder) -> MomentumState:
    """theta_m <- mu * theta_m + (1 - mu) * theta over every parameter at once:
    one scale of the twin's flat buffer and one scaled add of the value
    buffer of ``primary``, which must be the encoder ``state`` was built from
    (ContractError otherwise)."""
    if primary.w1.value.base is not state._source:
        raise ContractError(f"{primary.w1.name!r} is not a tensor of the encoder "
                            "the momentum state was built from")
    state._flat *= state.mu
    state._flat += (1.0 - state.mu) * state._source
    return state


def augment_two_views(embeddings, rng: SeededRng, noise_sigma: float,
                      dropout_p: float):
    """Two stochastic views per row: additive Gaussian noise, coordinate
    dropout, then renormalize."""
    emb = as_f64(embeddings)

    def one_view():
        x = emb + noise_sigma * rng.normal(emb.shape)
        if dropout_p > 0:
            keep = rng.random(emb.shape) >= dropout_p
            x = x * keep
        return normalize_rows(x)

    return one_view(), one_view()


def loss_contrastive(primary: FFTEncoder, state: MomentumState, views_q, views_k,
                     weight: float = 1.0, update_queue: bool = True) -> float:
    """Per-query InfoNCE at tau_prime: positive key from the momentum encoder,
    negatives from the queue; afterwards the new keys are enqueued (oldest
    evicted past capacity). Gradients flow only through the query path.

    ``update_queue=False`` leaves the state untouched, which makes the loss a
    pure function for gradient verification.
    """
    vq = as_f64(views_q)
    vk = as_f64(views_k)
    if vq.shape != vk.shape:
        raise ShapeError(f"view shapes differ: {vq.shape} vs {vk.shape}")
    n = vq.shape[0]
    q_raw, qcache = encode_batch(primary, vq)
    k_raw, _ = encode_batch(state.momentum, vk)
    keys = normalize_rows(k_raw)

    q_norms = row_norms(q_raw, keepdims=True)
    if np.logical_or.reduce(q_norms == 0.0, axis=None):
        raise DomainError("query embedding collapsed to zero norm")
    q_hat = q_raw / q_norms

    negatives = state._held()
    pos = np.add.reduce(q_hat * keys, axis=1)
    logits = np.concatenate([pos[:, None], q_hat @ negatives.T], axis=1)
    logits = logits / state.tau_prime
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = np.add.reduce(exp, axis=1, keepdims=True)
    loss = -float(np.add.reduce(shifted[:, 0] - np.log(total[:, 0]))) / n

    d_logits = exp / total  # the softmax, written over by its gradient
    d_logits[:, 0] -= 1.0
    d_logits *= weight / (n * state.tau_prime)
    d_q_hat = d_logits[:, :1] * keys + d_logits[:, 1:] @ negatives
    proj = np.add.reduce(d_q_hat * q_hat, axis=1, keepdims=True)
    d_q_raw = (d_q_hat - proj * q_hat) / q_norms
    encode_batch_backward(qcache, d_q_raw)

    if update_queue:
        state.enqueue(keys)
    return loss


def train_fft(student: FFTEncoder, clean: PseudoLabelSet, provider: FrozenProvider,
              cfg: TrainConfig, root_rng: SeededRng, stream_label: str,
              metrics: MetricsWriter | None = None) -> FFTEncoder:
    """Fine-tune the encoder + head on the filtered labels.

    The loss is the supervised cross-entropy, plus, when gamma > 0 (coft-plus),
    gamma times a momentum-contrastive term over augmented views of the full
    sample table, with the momentum twin EMA-updated after every step. With
    gamma == 0 no momentum state is built and no contrastive or augment stream
    is drawn.
    """
    if len(clean) == 0:
        raise PipelineError(
            "empty clean set: raise k_per_class or train phase 1 longer"
        )
    cfg.validate()
    ids, labels, _ = clean.training_view()
    emb = provider.image_embeddings
    n_all = provider.num_samples
    terms = {"loss_supervised": 1.0}
    state = after_step = None
    if cfg.gamma > 0:
        state = MomentumState(student, cfg.mu, cfg.tau_prime, cfg.queue_capacity)
        terms["loss_contrastive"] = cfg.gamma
        after_step = functools.partial(momentum_update, state, student)

    def plan(epoch):
        prefix = f"{stream_label}/epoch{epoch}"
        order = root_rng.stream(f"{prefix}/shuffle").permutation(ids.shape[0])
        if state is None:
            return order, lambda start, batch: (
                loss_fft(student, emb[ids[batch]], labels[batch]),)
        cont_perm = root_rng.stream(f"{prefix}/contrastive").permutation(n_all)
        aug_rng = root_rng.stream(f"{prefix}/augment")

        def losses(start, batch):
            sup = loss_fft(student, emb[ids[batch]], labels[batch])
            take = cont_perm[(start + np.arange(batch.shape[0])) % n_all]
            views_q, views_k = augment_two_views(
                emb[take], aug_rng, cfg.aug_noise, cfg.aug_dropout)
            return sup, loss_contrastive(student, state, views_q, views_k, weight=cfg.gamma)

        return order, losses

    _train_epochs(student.params(), cfg.lr_fft, cfg.phase2_epochs, cfg.batch_size, plan,
                  terms, metrics, dict(phase=2, stream=stream_label), after_step)
    return student


# ---------------------------------------------------------------------------
# Iterated phase 1
# ---------------------------------------------------------------------------

def iterate_peft(provider: FrozenProvider, cfg: TrainConfig, root_rng: SeededRng,
                 metrics: MetricsWriter | None = None, truth=None):
    """R rounds of (generate -> per-model top-K -> re-init -> phase-1 train).

    Round 1 generates from zero-shot inference against the provider's class
    anchors (so both models select from the same candidates); later rounds
    generate from each model's own previous incarnation. model1 ranks its
    candidates by their text-side confidence, model2 by their image-side
    confidence (``centroid_confidences`` at tau). Models are re-initialized
    from pristine frozen state with fresh round-labeled streams every round.
    With rounds == 1 this is plain single-shot phase 1.

    Returns (model1, model2, per-round records); ``truth`` is evaluation-only
    and feeds the metrics log.
    """
    cfg.validate()
    num_classes = provider.num_classes
    models = {"model1": None, "model2": None}
    rounds_log = []
    for r in range(1, cfg.rounds + 1):
        generations = {}
        if r == 1:
            # round 0 state is the pristine frozen model: zero-shot inference,
            # shared by both models
            shared = assign_pseudo_labels(provider.image_embeddings, provider.class_anchors,
                                          cfg.tau)
            generations["model1"] = shared
            generations["model2"] = shared
        else:
            for mid in ("model1", "model2"):
                generations[mid] = generate_labels(models[mid])
        round_entry = {"round": r, "selected": {}, "generated": {}}
        for mid in ("model1", "model2"):
            gen = generations[mid]
            ranked = gen if mid == "model1" else centroid_confidences(
                gen, provider.image_embeddings, cfg.tau)
            selected = select_top_k(ranked, cfg.k_per_class, num_classes)
            model = init_adapted_model(provider, mid, r, cfg, root_rng)
            train_phase1(model, selected, cfg, root_rng, metrics=metrics, round_idx=r)
            models[mid] = model
            round_entry["generated"][mid] = gen
            round_entry["selected"][mid] = selected
            if metrics is not None and truth is not None:
                metrics.write(
                    phase=1, round=r, model=mid, event="selection",
                    selected_size=len(selected),
                    selected_accuracy=selected.accuracy(truth),
                    generated_accuracy=gen.accuracy(truth),
                )
        rounds_log.append(round_entry)
    return models["model1"], models["model2"], rounds_log

# ---------------------------------------------------------------------------
# Gradient verification harness
# ---------------------------------------------------------------------------

def _random_small_model(rng: np.random.Generator, seed_base: int):
    c = int(rng.integers(2, 6))
    d = int(rng.integers(4, 17))
    n = int(rng.integers(6, 17))
    emb = normalize_rows(rng.normal(size=(n, d)))
    anchors = normalize_rows(rng.normal(size=(c, d)))
    provider = FrozenProvider(emb, anchors)
    cfg = TrainConfig(adapter_rank=2, tau=float(rng.uniform(0.07, 0.5)))
    model = init_adapted_model(provider, "model1", 1, cfg, SeededRng(seed_base + 1))
    model.tau_pos = float(rng.uniform(0.07, 3.0))
    # move off the exact-identity init so every path carries signal
    for p in model.params():
        p.value[:] = rng.normal(size=p.shape) * 0.3
    return provider, model, cfg


def _random_small_student(rng: np.random.Generator, provider: FrozenProvider):
    hidden = 2 * provider.dim
    enc = init_fft_encoder(provider.dim, provider.num_classes, hidden, SeededRng(7))
    for p in enc.params():
        p.value[:] = rng.normal(size=p.shape) * 0.4
    return enc


def gradient_check_suite(instances: int = 20, seed: int = 0, eps: float = 1e-5,
                         tol: float = 1e-4):
    """Finite-difference verification of every loss on random small fixtures.

    Returns a list of (loss name, instance index, GradCheckReport); every
    report should be ok.
    """
    from .grad import check_gradients

    results = []
    master = np.random.default_rng(seed)
    for idx in range(instances):
        rng = np.random.default_rng(master.integers(0, 2**63))
        provider, model, cfg = _random_small_model(rng, seed_base=1000 + idx)
        batch = int(rng.integers(2, 9))
        take = rng.integers(0, provider.num_samples, size=batch)
        emb = provider.image_embeddings[take]
        labels = rng.integers(0, provider.num_classes, size=batch)
        comp = draw_complements(labels, provider.num_classes,
                                SeededRng(2000 + idx).stream("comp"))
        lam = float(rng.uniform(0.2, 2.0))
        gamma = float(rng.uniform(0.2, 2.0))

        results.append((
            "loss_positive", idx,
            check_gradients(lambda: loss_positive(model, emb, labels),
                            model.params(), eps=eps, tol=tol),
        ))
        results.append((
            "loss_negative", idx,
            check_gradients(lambda: loss_negative(model, emb, labels, comp),
                            model.params(), eps=eps, tol=tol),
        ))
        results.append((
            "loss_phase1", idx,
            check_gradients(lambda: loss_phase1(model, emb, labels, comp, lam),
                            model.params(), eps=eps, tol=tol),
        ))

        student = _random_small_student(rng, provider)
        results.append((
            "loss_fft", idx,
            check_gradients(lambda: loss_fft(student, emb, labels),
                            student.params(), eps=eps, tol=tol),
        ))

        state = MomentumState(student, mu=0.9, tau_prime=float(rng.uniform(0.1, 0.5)),
                              capacity=16)
        for p in state.momentum.params():
            p.value[:] = rng.normal(size=p.shape) * 0.4
        for _ in range(int(rng.integers(0, 9))):
            state.enqueue(normalize_rows(rng.normal(size=(1, provider.dim))))
        views_q = normalize_rows(rng.normal(size=(batch, provider.dim)))
        views_k = normalize_rows(rng.normal(size=(batch, provider.dim)))
        results.append((
            "loss_contrastive", idx,
            check_gradients(
                lambda: loss_contrastive(student, state, views_q, views_k,
                                         update_queue=False),
                student.params(), eps=eps, tol=tol),
        ))
        results.append((
            "loss_phase2", idx,
            check_gradients(
                lambda: loss_fft(student, emb, labels)
                + gamma * loss_contrastive(student, state, views_q, views_k,
                                           weight=gamma, update_queue=False),
                student.params(), eps=eps, tol=tol),
        ))
    return results


# ---------------------------------------------------------------------------
# Checkpoint helpers
# ---------------------------------------------------------------------------

def save_model_checkpoint(stem: str, model: AdaptedModel | FFTEncoder) -> str:
    """Save a phase-1 model's or a student's tensors under ``stem``."""
    return save_checkpoint(stem, model.params())


def load_model_checkpoint(stem: str, provider: FrozenProvider, cfg: TrainConfig,
                          model_id: str) -> AdaptedModel:
    """The trained phase-1 model saved under ``stem``, built by
    ``init_adapted_model`` and filled by ``grad.load_checkpoint``."""
    model = init_adapted_model(provider, model_id, 1, cfg, SeededRng(0))
    load_checkpoint(stem, model.params())
    model.trained = True
    return model


def _init_student(provider: FrozenProvider, cfg: TrainConfig, student_id: str,
                  rng: SeededRng) -> FFTEncoder:
    """A fresh student of hidden width ``hidden_mult * dim``, named for ``student_id``."""
    return init_fft_encoder(provider.dim, provider.num_classes, cfg.hidden_mult * provider.dim,
                            rng, name_prefix=f"{student_id}/")


def load_student_checkpoint(stem: str, provider: FrozenProvider, cfg: TrainConfig,
                            student_id: str) -> FFTEncoder:
    """The student saved under ``stem``, built as ``run_pipeline`` builds it."""
    student = _init_student(provider, cfg, student_id, SeededRng(0))
    load_checkpoint(stem, student.params())
    return student

# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

def ensemble_predictions(students, embeddings, truth=None):
    """The students' ensemble over ``embeddings``, one row block at a time:
    per block, their logits are summed in order, divided by their count and
    argmaxed, so no N x C table is held and the bits are those of the
    whole-table mean. With ``truth`` (evaluation only), each student's
    correct argmax predictions are counted too.

    Returns (predictions, per-student hit counts or None when no truth).
    Kept out of ``__all__``, so that the benchmark's tracer does not wrap it
    and charges each ``logits_batch`` call here to its student's stage.
    """
    n = embeddings.shape[0]
    predictions = np.empty(n, dtype=np.int64)
    hits = [0] * len(students)
    for rows in row_blocks(n):
        x = embeddings[rows]
        total = None
        for i, student in enumerate(students):
            logits = logits_batch(student, x)[0]
            if truth is not None:
                hits[i] += int(np.count_nonzero(np.argmax(logits, axis=1) == truth[rows]))
            if total is None:
                total = logits
            else:
                total += logits
        total /= len(students)
        predictions[rows] = np.argmax(total, axis=1)
    return predictions, (hits if truth is not None else None)


def mode_config(cfg: TrainConfig, mode: str) -> TrainConfig:
    """The settings a ``mode`` run trains with: coft is one phase-1 round without
    the contrastive term, whatever ``cfg`` says; coft-plus uses ``cfg`` as given."""
    if mode not in ("coft", "coft-plus"):
        raise ConfigError(f"mode must be coft or coft-plus, got {mode!r}")
    return cfg if mode == "coft-plus" else replace(cfg, rounds=1, gamma=0.0)


def run_pipeline(manifest_path: str, cfg: TrainConfig, mode: str, seed: int,
                 out_dir: str) -> dict:
    """Zero-shot -> (iterated) phase 1 -> cross-model filter -> phase 2.

    ``mode`` is "coft" or "coft-plus"; the run trains with ``mode_config``.
    Writes config-derived artifacts under ``out_dir``: metrics.jsonl, label
    exports, and checkpoints; returns a summary dict. Ground truth, when the
    dataset ships it, feeds only the metrics log and the returned summary.
    """
    eff = mode_config(cfg, mode)
    cfg.validate()
    provider = load_dataset(manifest_path)
    try:
        truth = load_ground_truth(manifest_path)
    except (FileNotFoundError, FormatError):
        truth = None  # evaluation extras only; the run itself never needs truth

    root = SeededRng(seed)

    labels_dir = os.path.join(out_dir, "labels")
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(labels_dir, exist_ok=True)
    os.makedirs(ckpt_dir, exist_ok=True)
    with MetricsWriter(os.path.join(out_dir, "metrics.jsonl")) as metrics:
        model1, model2, rounds_log = iterate_peft(provider, eff, root, metrics=metrics,
                                                  truth=truth)
        rounds_log[0]["generated"]["model1"].save(os.path.join(labels_dir, "zeroshot.jsonl"))
        for entry in rounds_log:
            r = entry["round"]
            for mid in ("model1", "model2"):
                if r > 1:  # round 1 generated the zero-shot table saved above
                    entry["generated"][mid].save(
                        os.path.join(labels_dir, f"round{r}_{mid}.jsonl"))
                entry["selected"][mid].save(
                    os.path.join(labels_dir, f"round{r}_{mid}_selected.jsonl"))
        summary = {"mode": mode, "seed": seed, "num_samples": provider.num_samples,
                   "num_classes": provider.num_classes, "clean_sizes": {}, "checkpoints": {}}
        for mid, model in (("model1", model1), ("model2", model2)):
            summary["checkpoints"][mid] = os.path.join(ckpt_dir, f"phase1_{mid}")
            save_model_checkpoint(summary["checkpoints"][mid], model)

        both = collaborative_filter_both(model1, model2)
        students = []
        for mid, student_id in (("model1", "student1"), ("model2", "student2")):
            filtered = both[mid]
            filtered.save(os.path.join(labels_dir, f"filter_{mid}.jsonl"))
            clean = filtered.with_status("clean")
            summary["clean_sizes"][mid] = len(clean)
            record = dict(phase=2, event="filter", direction=mid,
                          clean_size=len(clean),
                          noise_size=len(filtered) - len(clean))
            if truth is not None:
                record["generated_accuracy"] = filtered.accuracy(truth)
                # None, not NaN, for an empty clean set: metrics.jsonl stays strict JSON
                record["clean_precision"] = filtered.clean_quality(truth)[1]
            metrics.write(**record)

            student = _init_student(provider, eff, student_id,
                                    root.stream(f"phase2/{student_id}"))
            train_fft(student, clean, provider, eff, root, f"phase2/{student_id}",
                      metrics=metrics)
            summary["checkpoints"][student_id] = os.path.join(ckpt_dir, f"phase2_{student_id}")
            save_model_checkpoint(summary["checkpoints"][student_id], student)
            students.append(student)

        ensemble, _ = ensemble_predictions(students, provider.image_embeddings)
        summary["ensemble_predictions"] = ensemble
        if truth is not None:
            summary["ensemble_accuracy"] = float(np.mean(ensemble == truth))
            summary["zero_shot_accuracy"] = rounds_log[0]["generated"]["model1"].accuracy(truth)
            metrics.write(phase=2, event="final",
                          ensemble_accuracy=summary["ensemble_accuracy"],
                          zero_shot_accuracy=summary["zero_shot_accuracy"])
        return summary
