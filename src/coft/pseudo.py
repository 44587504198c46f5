"""Pseudo-label bookkeeping: zero-shot inference, argmax assignment,
per-class top-K selection, and the label table shared by both training phases.

A ``PseudoLabelSet`` is one table of parallel numpy arrays, one row per
sample: ``sample_id`` and ``label`` (int64), ``confidence`` (float64), the
generator and status as int8 codes into ``GENERATORS`` and ``STATUSES``, and
an evaluation-only ground truth (int64, ``-1`` where none is attached). Every
operation on the table (selection, subsetting, accuracy counts, export)
works on whole columns; export builds its text one row block at a time.
``mark`` changes one row's status. It, ``subset`` and ``get`` address rows by
position, never by sample id, so a table keeps no index: the generated label
tables cover every sample in id order, so there the row is the sample id.
``get`` and iteration hand out ``PseudoLabelRecord`` copies for callers that
want one row at a time.

Ground-truth labels may be attached for evaluation, but every training-facing
accessor (``training_view``) excludes them by construction; no training or
filtering decision can read them.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import as_f64, atomic_write, normalize_rows, row_blocks, softmax_rows
from .errors import ContractError, DomainError, FormatError, ShapeError

__all__ = [
    "GENERATORS",
    "STATUSES",
    "PseudoLabelRecord",
    "PseudoLabelSet",
    "class_probabilities",
    "assign_pseudo_labels",
    "centroid_confidences",
    "select_top_k",
]

GENERATORS = ("zeroshot", "model1", "model2")
STATUSES = ("unassigned", "candidate", "clean", "noise")

_STATUS_CODE = {name: code for code, name in enumerate(STATUSES)}
# (old, new) status codes of every legal move
_LEGAL_MOVES = frozenset((_STATUS_CODE[old], _STATUS_CODE[new]) for old, new in (
    ("unassigned", "candidate"), ("candidate", "clean"), ("candidate", "noise")))
_CANDIDATE = _STATUS_CODE["candidate"]
_CLEAN = _STATUS_CODE["clean"]
_NO_TRUTH = -1

# json.dumps of each name, for the export
_GENERATOR_JSON = np.array([json.dumps(g) for g in GENERATORS], dtype=object)
_STATUS_JSON = np.array([json.dumps(s) for s in STATUSES], dtype=object)

_NORM_TOL = 1e-9

# the fields of one saved row and the JSON types each may take
_FIELD_TYPES = {"sample_id": int, "label": int, "confidence": (int, float),
                "generator": str, "status": str, "ground_truth": (int, type(None))}


@dataclass
class PseudoLabelRecord:
    sample_id: int
    label: int
    confidence: float
    generator: str
    status: str = "candidate"
    ground_truth: int | None = None  # evaluation only


def _codes(names, vocabulary, kind: str) -> np.ndarray:
    """int8 codes of a name or a sequence of names from ``vocabulary``."""
    names = np.asarray(names)
    codes = np.full(names.shape, -1, dtype=np.int8)
    for code, name in enumerate(vocabulary):
        codes[names == name] = code
    unknown = codes < 0
    if np.any(unknown):
        raise ContractError(f"unknown {kind} {names[unknown].tolist()[0]!r}")
    return codes


def _truth_column(truth, n: int) -> np.ndarray:
    """Evaluation-only ground truth as int64; ``_NO_TRUTH`` where it is None
    (the whole column or an entry)."""
    if truth is None:
        return np.full(n, _NO_TRUTH, dtype=np.int64)
    given = truth if isinstance(truth, np.ndarray) else [t for t in truth if t is not None]
    if np.any(np.asarray(given) < 0):
        raise ContractError("ground truth must be a class index >= 0")
    if isinstance(truth, np.ndarray):
        return truth.astype(np.int64)
    return np.array([_NO_TRUTH if t is None else t for t in truth], dtype=np.int64)


def _check_distinct(ids: np.ndarray) -> None:
    """ContractError naming the first entry of ``ids`` equal to an earlier one."""
    first = np.unique(ids, return_index=True)[1]
    if first.size != ids.size:
        repeated = np.ones(ids.size, dtype=bool)
        repeated[first] = False
        raise ContractError(f"duplicate sample_id {ids[np.argmax(repeated)]}")


class PseudoLabelSet:
    """Ordered table of pseudo-labels, one row per sample (see the module
    docstring for the columns). Sample ids are unique; rows keep the order
    they were built in."""

    def __init__(self, records=()):
        cols = [(r.sample_id, r.label, r.confidence, r.generator, r.status, r.ground_truth)
                for r in records]
        ids, labels, conf, gen, status, truth = zip(*cols) if cols else ((),) * 6
        self._fill(ids, labels, conf, gen, status, truth)

    @classmethod
    def _from_columns(cls, sample_id, label, confidence, generator,
                     status="candidate", ground_truth=None) -> "PseudoLabelSet":
        """A validated table of copies of whole columns; ``generator`` and
        ``status`` are one name for every row or one name per row,
        ``ground_truth`` is None or one class index (or None) per row."""
        table = cls.__new__(cls)
        table._fill(sample_id, label, confidence, generator, status, ground_truth)
        return table

    def _fill(self, sample_id, label, confidence, generator, status, ground_truth):
        ids = np.array(sample_id, dtype=np.int64)
        if ids.ndim != 1:
            raise ContractError(f"sample_id must be one-dimensional, got shape {ids.shape}")
        _check_distinct(ids)
        n = ids.size
        cols = {"label": np.array(label, dtype=np.int64),
                "confidence": np.array(confidence, dtype=np.float64),
                "ground_truth": _truth_column(ground_truth, n)}
        for name, col in cols.items():
            if col.shape != (n,):
                raise ContractError(f"{name} has shape {col.shape}, expected ({n},)")
        gen = np.broadcast_to(_codes(generator, GENERATORS, "generator"), (n,)).copy()
        stat = np.broadcast_to(_codes(status, STATUSES, "status"), (n,)).copy()
        self._set(ids, cols["label"], cols["confidence"], gen, stat, cols["ground_truth"])

    def _set(self, ids, labels, conf, gen, status, truth):
        self._ids, self._labels, self._conf = ids, labels, conf
        self._gen, self._status, self._truth = gen, status, truth

    def _take(self, rows, confidence=None) -> "PseudoLabelSet":
        """A new table of the given rows (fancy indexing copies every column)."""
        rows = np.asarray(rows, dtype=np.int64)
        table = PseudoLabelSet.__new__(PseudoLabelSet)
        conf = self._conf[rows] if confidence is None else confidence
        table._set(self._ids[rows], self._labels[rows], conf, self._gen[rows],
                   self._status[rows], self._truth[rows])
        return table

    def _index(self, row) -> int:
        """``row`` as an int; TypeError if it is not an integer, IndexError
        outside ``[0, len)`` (a negative row does not wrap)."""
        if type(row) is not int:
            row = operator.index(row)
        if not 0 <= row < self._ids.size:
            raise IndexError(f"row {row} out of range for {self._ids.size} rows")
        return row

    def __len__(self):
        return self._ids.size

    def __iter__(self):
        truth = [None if t == _NO_TRUTH else t for t in self._truth.tolist()]
        for sid, lab, conf, gen, status, t in zip(
                self._ids.tolist(), self._labels.tolist(), self._conf.tolist(),
                self._gen.tolist(), self._status.tolist(), truth):
            yield PseudoLabelRecord(sid, lab, conf, GENERATORS[gen], STATUSES[status], t)

    def get(self, row: int) -> PseudoLabelRecord:
        """A copy of one row; changing it does not change the table."""
        return next(iter(self._take([self._index(row)])))

    def sample_ids(self) -> np.ndarray:
        return self._ids.copy()

    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def training_view(self):
        """(sample_ids, labels, confidences) — ground truth is not reachable here."""
        return self._ids.copy(), self._labels.copy(), self._conf.copy()

    def mark(self, row: int, new_status: str) -> None:
        """Move one row's status: unassigned -> candidate -> clean or noise."""
        row = self._index(row)
        old = self._status.item(row)
        new = _STATUS_CODE.get(new_status)
        if (old, new) not in _LEGAL_MOVES:
            raise ContractError(
                f"illegal status transition {STATUSES[old]!r} -> {new_status!r} "
                f"for sample {self._ids.item(row)}"
            )
        self._status[row] = new

    def subset(self, rows) -> "PseudoLabelSet":
        """Copies of the given rows (distinct), in that order; TypeError for
        rows that are not integers, IndexError for one outside ``[0, len)``."""
        rows = np.asarray(rows).reshape(-1)
        if rows.size and rows.dtype.kind not in "iu":
            raise TypeError(f"rows must be integers, got {rows.dtype}")
        outside = (rows < 0) | (rows >= self._ids.size)
        if np.any(outside):
            raise IndexError(f"row {rows[np.argmax(outside)]} out of range "
                             f"for {self._ids.size} rows")
        table = self._take(rows)
        _check_distinct(table._ids)
        return table

    def with_status(self, status: str) -> "PseudoLabelSet":
        return self._take(np.flatnonzero(self._status == _codes(status, STATUSES, "status")))

    def attach_ground_truth(self, truth) -> None:
        """Evaluation only: record the true label of every known sample."""
        self._truth = _truth_column(np.asarray(truth)[self._ids], len(self))

    def _correct(self, truth) -> np.ndarray:
        """Per row: does the label equal the ground truth (given, else attached)?"""
        if truth is not None:
            return self._labels == np.asarray(truth)[self._ids]
        if np.any(self._truth == _NO_TRUTH):
            raise ContractError("ground truth not attached")
        return self._labels == self._truth

    def accuracy(self, truth=None) -> float:
        """Fraction of records whose label matches ground truth (NaN if empty)."""
        if len(self) == 0:
            return float("nan")
        return np.count_nonzero(self._correct(truth)) / len(self)

    def clean_quality(self, truth=None) -> tuple:
        """(clean size, clean precision, clean recall) against ground truth.

        Precision is the share of correct labels among the rows marked clean,
        recall the share of correct labels that were marked clean; each is
        None when its denominator is 0.
        """
        correct = self._correct(truth)
        clean = self._status == _CLEAN
        size = int(np.count_nonzero(clean))
        hits_clean = np.count_nonzero(correct & clean)
        hits_all = np.count_nonzero(correct)
        return (size, hits_clean / size if size else None,
                hits_clean / hits_all if hits_all else None)

    def save(self, path, with_truth: bool = False) -> None:
        """Line-delimited records; ground truth withheld unless ``with_truth``.

        Each line is byte for byte ``json.dumps(record, sort_keys=True)`` of
        the row's record, non-finite confidences in json's spelling included.
        The text is built and written one row block at a time, through
        ``atomic_write``.
        """
        with atomic_write(path) as f:
            for rows in row_blocks(len(self)):
                conf = self._conf[rows]
                conf = (conf.tolist() if np.all(np.isfinite(conf))
                        else [json.dumps(c) for c in conf.tolist()])
                truth = repeat("")
                if with_truth:
                    truth = ['"ground_truth": null, ' if t == _NO_TRUTH
                             else f'"ground_truth": {t}, ' for t in self._truth[rows].tolist()]
                f.write("".join(
                    f'{{"confidence": {c}, "generator": {g}, {t}"label": {lab}, '
                    f'"sample_id": {sid}, "status": {s}}}\n'
                    for c, g, t, lab, sid, s in zip(
                        conf, _GENERATOR_JSON[self._gen[rows]].tolist(), truth,
                        self._labels[rows].tolist(), self._ids[rows].tolist(),
                        _STATUS_JSON[self._status[rows]].tolist())))

    @classmethod
    def load(cls, path) -> "PseudoLabelSet":
        """Read a file written by ``save``. FormatError naming the file (and
        the line, where there is one) for a line that is not a JSON object,
        a missing or wrong-typed field, an unknown generator or status, a
        repeated sample id, or an integer beyond int64."""
        cols = {k: [] for k in _FIELD_TYPES}
        with open(path, "rb") as f:  # json decodes each line, so bad UTF-8 is a bad line
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except ValueError as e:
                    raise FormatError(f"{path}: line {lineno} is not JSON ({e})",
                                      line=lineno) from None
                if not isinstance(d, dict):
                    raise FormatError(f"{path}: line {lineno} is not a JSON object",
                                      line=lineno)
                for k, types in _FIELD_TYPES.items():
                    v = d.get(k)  # an absent field reads as None, which only ground truth may be
                    if isinstance(v, bool) or not isinstance(v, types):
                        raise FormatError(f"{path}: line {lineno}: field {k!r} is missing "
                                          f"or of the wrong type ({v!r})", line=lineno)
                    cols[k].append(v)
        try:
            return cls._from_columns(**cols)
        except (ContractError, OverflowError) as e:  # an unknown name, a repeated or huge id
            raise FormatError(f"{path}: {e}") from None


def class_probabilities(embeddings, text_embeddings, tau: float) -> np.ndarray:
    """Row-wise class distribution: softmax of cosine similarities over tau.

    Both tables must hold unit-norm rows, so the cosine reduces to a dot
    product.
    """
    emb = as_f64(embeddings)
    texts = as_f64(text_embeddings)
    if emb.ndim != 2 or texts.ndim != 2 or emb.shape[1] != texts.shape[1]:
        raise ShapeError(
            f"incompatible shapes {emb.shape} vs {texts.shape} for class probabilities"
        )
    if np.any(np.abs(np.linalg.norm(texts, axis=1) - 1.0) > _NORM_TOL):
        raise DomainError("text embeddings must be unit-norm")
    return softmax_rows(emb @ texts.T, tau)


def assign_pseudo_labels(embeddings, texts, tau: float,
                         generator: str = "zeroshot") -> PseudoLabelSet:
    """The pseudo-labels of every row of ``embeddings``, each row's sample id
    its row index: the argmax of its ``class_probabilities`` against ``texts``
    at ``tau``, ties to the lowest class, with its probability as the
    confidence. Rows are scored one row block at a time into one table,
    validated once; its records start in status ``candidate``.
    """
    emb = as_f64(embeddings)
    n = len(emb)
    if n == 0:
        raise ContractError("expected at least one embedding row to label")
    labels = np.empty(n, dtype=np.int64)
    conf = np.empty(n)
    for rows in row_blocks(n):
        probs = class_probabilities(emb[rows], texts, tau)
        labels[rows] = np.argmax(probs, axis=1)  # np.argmax already breaks ties low
        conf[rows] = probs[np.arange(probs.shape[0]), labels[rows]]
    return PseudoLabelSet._from_columns(np.arange(n), labels, conf, generator)


def centroid_confidences(labels: PseudoLabelSet, embeddings, tau: float) -> PseudoLabelSet:
    """The same records with image-side confidences.

    Each labelled class gets a centroid, the normalized mean of the
    embeddings (rows of ``embeddings`` by sample_id) carrying its label. A
    record's confidence becomes its label's entry of the softmax of cosine
    similarities to those centroids at ``tau``; classes without records take
    no part.
    """
    if len(labels) == 0:
        return PseudoLabelSet([])
    ids, lab, _ = labels.training_view()
    emb = as_f64(embeddings)
    present, col = np.unique(lab, return_inverse=True)
    blocks = row_blocks(ids.size)
    sums = np.zeros((present.size, emb.shape[1]))
    for rows in blocks:  # in row order, so the sums add up as over the whole table
        np.add.at(sums, col[rows], emb[ids[rows]])
    centroids = normalize_rows(sums)
    conf = np.empty(ids.size)
    for rows in blocks:
        probs = class_probabilities(emb[ids[rows]], centroids, tau)
        conf[rows] = probs[np.arange(probs.shape[0]), col[rows]]
    return labels._take(np.arange(ids.size), confidence=conf)


def select_top_k(labels: PseudoLabelSet, k: int, num_classes: int) -> PseudoLabelSet:
    """Per class, the K highest-confidence candidates (all of them if fewer).

    Deterministic order: class ascending, then confidence descending, then
    sample_id ascending. Classes with no candidates contribute nothing and a
    warning is recorded.
    """
    if k < 1:
        raise DomainError(f"K must be >= 1, got {k}")
    rows = np.flatnonzero(labels._status == _CANDIDATE)
    lab = labels._labels[rows]
    out_of_range = (lab < 0) | (lab >= num_classes)
    if np.any(out_of_range):
        raise ContractError(
            f"label {lab[np.argmax(out_of_range)]} out of range for {num_classes} classes")
    order = np.lexsort((labels._ids[rows], -labels._conf[rows], lab))
    rows, lab = rows[order], lab[order]
    counts = np.bincount(lab, minlength=num_classes)
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[lab]
    for c in np.flatnonzero(counts == 0):
        warnings.warn(f"class {c} has no pseudo-label candidates; top-K skips it")
    return labels._take(rows[rank < k])
