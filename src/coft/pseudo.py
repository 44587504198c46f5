"""Pseudo-label bookkeeping: zero-shot inference, argmax assignment,
per-class top-K selection, and the label table shared by both training phases.

A ``PseudoLabelSet`` is one table of parallel numpy arrays, one row per
sample: ``sample_id`` and ``label`` (int64), ``confidence`` (float64), and
the generator and status as int8 codes into ``GENERATORS`` and ``STATUSES``.
It is built from whole columns, and every operation on it (selection,
subsetting, accuracy counts, export) works on whole columns; export builds
its text one row block at a time. ``mark`` changes one row's status. It and
``subset`` address rows by position, never by sample id, so a table keeps no
index: the generated label tables cover every sample in id order, so there
the row is the sample id.

A table holds no ground truth. Evaluation passes it at call time
(``accuracy``, ``clean_quality``, ``save``), indexed by sample id, so no
training or filtering decision can read it.
"""

from __future__ import annotations

import json
import operator
import warnings
from itertools import repeat

import numpy as np

from .core import as_f64, atomic_write, normalize_rows, row_blocks, softmax_rows
from .errors import ContractError, DomainError, FormatError, ShapeError

__all__ = [
    "GENERATORS",
    "STATUSES",
    "PseudoLabelSet",
    "class_probabilities",
    "assign_pseudo_labels",
    "centroid_confidences",
    "select_top_k",
]

GENERATORS = ("zeroshot", "model1", "model2")
STATUSES = ("candidate", "clean", "noise")

_CANDIDATE, _CLEAN = STATUSES.index("candidate"), STATUSES.index("clean")

# json.dumps of each name, for the export
_GENERATOR_JSON = np.array([json.dumps(g) for g in GENERATORS], dtype=object)
_STATUS_JSON = np.array([json.dumps(s) for s in STATUSES], dtype=object)

_NORM_TOL = 1e-9

# the fields of one saved row and the JSON types each may take
_FIELD_TYPES = {"sample_id": int, "label": int, "confidence": (int, float),
                "generator": str, "status": str, "ground_truth": (int, type(None))}


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

    def __init__(self, sample_id, label, confidence, generator, status="candidate"):
        """A validated table of copies of whole columns; ``generator`` and
        ``status`` are one name for every row or one name per row."""
        ids = np.array(sample_id, dtype=np.int64)
        if ids.ndim != 1:
            raise ContractError(f"sample_id must be one-dimensional, got shape {ids.shape}")
        _check_distinct(ids)
        n = ids.size
        labels = np.array(label, dtype=np.int64)
        conf = np.array(confidence, dtype=np.float64)
        for name, col in (("label", labels), ("confidence", conf)):
            if col.shape != (n,):
                raise ContractError(f"{name} has shape {col.shape}, expected ({n},)")
        gen = np.broadcast_to(_codes(generator, GENERATORS, "generator"), (n,)).copy()
        stat = np.broadcast_to(_codes(status, STATUSES, "status"), (n,)).copy()
        self._set(ids, labels, conf, gen, stat)

    def _set(self, ids, labels, conf, gen, status) -> "PseudoLabelSet":
        """Adopt the given columns as they are: no copy, no check."""
        self._ids, self._labels, self._conf, self._gen, self._status = (
            ids, labels, conf, gen, status)
        return self

    def _take(self, rows, confidence=None) -> "PseudoLabelSet":
        """A new table of the given rows (fancy indexing copies every column)."""
        rows = np.asarray(rows, dtype=np.int64)
        conf = self._conf[rows] if confidence is None else confidence
        return PseudoLabelSet.__new__(PseudoLabelSet)._set(
            self._ids[rows], self._labels[rows], conf, self._gen[rows], self._status[rows])

    def __len__(self):
        return self._ids.size

    def sample_ids(self) -> np.ndarray:
        return self._ids.copy()

    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def training_view(self):
        """(sample_ids, labels, confidences) — ground truth is not reachable here."""
        return self._ids.copy(), self._labels.copy(), self._conf.copy()

    def mark(self, row: int, new_status: str) -> None:
        """Move one row's status from candidate to clean or noise.
        TypeError if ``row`` is not an integer, IndexError outside
        ``[0, len)`` (a negative row does not wrap)."""
        if type(row) is not int:
            row = operator.index(row)
        if not 0 <= row < self._ids.size:
            raise IndexError(f"row {row} out of range for {self._ids.size} rows")
        old = self._status.item(row)
        if old != _CANDIDATE or new_status not in ("clean", "noise"):
            raise ContractError(
                f"illegal status transition {STATUSES[old]!r} -> {new_status!r} "
                f"for sample {self._ids.item(row)}"
            )
        self._status[row] = STATUSES.index(new_status)

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

    def accuracy(self, truth) -> float:
        """Fraction of rows whose label equals ``truth[sample_id]`` (NaN if empty)."""
        if len(self) == 0:
            return float("nan")
        return np.count_nonzero(self._labels == np.asarray(truth)[self._ids]) / len(self)

    def clean_quality(self, truth) -> tuple:
        """(clean size, clean precision, clean recall) against ``truth``,
        indexed by sample id.

        Precision is the share of correct labels among the rows marked clean,
        recall the share of correct labels that were marked clean; each is
        None when its denominator is 0.
        """
        correct = self._labels == np.asarray(truth)[self._ids]
        clean = self._status == _CLEAN
        size = int(np.count_nonzero(clean))
        hits_clean = np.count_nonzero(correct & clean)
        hits_all = np.count_nonzero(correct)
        return (size, hits_clean / size if size else None,
                hits_clean / hits_all if hits_all else None)

    def save(self, path, truth=None) -> None:
        """Line-delimited records, each row's ``ground_truth`` taken from
        ``truth[sample_id]`` when ``truth`` (class indices) is given.

        Each line is byte for byte ``json.dumps(record, sort_keys=True)`` of
        the row's fields, non-finite confidences in json's spelling included.
        The text is built and written one row block at a time, through
        ``atomic_write``.
        """
        with atomic_write(path) as f:
            for rows in row_blocks(len(self)):
                conf = self._conf[rows]
                conf = (conf.tolist() if np.all(np.isfinite(conf))
                        else [json.dumps(c) for c in conf.tolist()])
                known = repeat("") if truth is None else [
                    f'"ground_truth": {t}, ' for t in np.asarray(truth)[self._ids[rows]].tolist()]
                f.write("".join(
                    f'{{"confidence": {c}, "generator": {g}, {t}"label": {lab}, '
                    f'"sample_id": {sid}, "status": {s}}}\n'
                    for c, g, t, lab, sid, s in zip(
                        conf, _GENERATOR_JSON[self._gen[rows]].tolist(), known,
                        self._labels[rows].tolist(), self._ids[rows].tolist(),
                        _STATUS_JSON[self._status[rows]].tolist())))

    @classmethod
    def load(cls, path) -> "PseudoLabelSet":
        """Read a file written by ``save``. FormatError naming the file (and
        the line, where there is one) for a line that is not a JSON object,
        a missing or wrong-typed field, an unknown generator or status, a
        repeated sample id, or an integer beyond int64. A ``ground_truth``
        field is type-checked, then dropped: a table holds no truth."""
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
        del cols["ground_truth"]
        try:
            return cls(**cols)
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
    confidence. Rows are scored one row block at a time into the columns of
    one table, whose rows start in status ``candidate``.
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
    # the ids are arange(n), distinct by construction: no check, no sort
    gen = np.full(n, _codes(generator, GENERATORS, "generator"), dtype=np.int8)
    return PseudoLabelSet.__new__(PseudoLabelSet)._set(
        np.arange(n), labels, conf, gen, np.full(n, _CANDIDATE, dtype=np.int8))


def centroid_confidences(labels: PseudoLabelSet, embeddings, tau: float) -> PseudoLabelSet:
    """The same records with image-side confidences.

    Each labelled class gets a centroid, the normalized mean of the
    embeddings (rows of ``embeddings`` by sample_id) carrying its label. A
    record's confidence becomes its label's entry of the softmax of cosine
    similarities to those centroids at ``tau``; classes without records take
    no part.
    """
    if len(labels) == 0:
        return labels._take([])
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
