"""Dataset files, the synthetic cluster benchmark, and metrics persistence.

On-disk layout for a dataset named ``foo``, written and read as one payload
container (``core.write_container``: checksummed, each file moved into place
whole):

  foo.json        manifest (human-readable JSON; see DatasetManifest fields)
  foo.f64le       payload: little-endian float64, row-major, no header.
                  First num_samples rows are image embeddings, the final
                  num_classes rows are the class anchors.
  foo.f64le.truth sidecar of ground-truth labels, one integer in
                  [0, num_classes) per line. ``load_dataset`` never opens it;
                  only the evaluation-side ``load_ground_truth`` reader does.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (SeededRng, atomic_write, checksum_field, json_field, normalize_rows,
                   read_manifest, read_payload, row_blocks, write_container)
from .encoders import FrozenProvider
from .errors import ConfigError, DomainError, FormatError

__all__ = [
    "DatasetManifest",
    "SyntheticSpec",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
    "load_ground_truth",
    "MetricsWriter",
]

_PAYLOAD_SUFFIX = ".f64le"
_TRUTH_SUFFIX = ".truth"


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    num_samples: int
    num_classes: int
    dim: int
    class_names: tuple
    payload_path: str  # relative to the manifest's directory
    checksum: str
    has_ground_truth: bool

    def __post_init__(self):
        if len(self.class_names) != self.num_classes:
            raise FormatError("class_names length must equal num_classes")
        if len(set(self.class_names)) != self.num_classes:
            raise FormatError("class_names must be unique")
        if self.num_samples <= 0:
            raise FormatError("num_samples must be positive")
        if self.num_classes <= 0:
            raise FormatError("num_classes must be positive")
        if self.dim <= 0:
            raise FormatError("dim must be positive")


def require_finite_floats(config) -> None:
    """ConfigError naming the first float field of a config dataclass that is
    NaN or infinite (every comparison with NaN is False, so range checks
    alone let it through)."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass
class SyntheticSpec:
    """Knobs of the synthetic cluster benchmark.

    ``separation`` >= 1 requests orthogonal cluster centers and needs
    dim >= classes; below 1 the pairwise center cosine is pinned at exactly
    1 - separation (needs dim >= classes + 1 for the shared blend direction),
    so label correctness is monotone in separation by construction.
    ``anchor_alignment`` interpolates each class anchor between its cluster
    center (1.0) and a random direction (0.0), which sets the zero-shot
    difficulty.
    """

    classes: int
    per_class: int
    dim: int
    separation: float = 1.0
    noise_sigma: float = 0.4
    anchor_alignment: float = 0.6
    seed: int = 0

    def validate(self):
        require_finite_floats(self)
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.per_class < 1:
            raise ConfigError("per_class must be >= 1")
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if not self.separation > 0:
            raise ConfigError("separation must be positive")
        if not 0.0 <= self.anchor_alignment <= 1.0:
            raise ConfigError("anchor_alignment must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")
        if self.separation >= 1.0 and self.dim < self.classes:
            raise ConfigError(
                f"orthogonal centers requested (separation={self.separation}) "
                f"but dim {self.dim} < classes {self.classes}"
            )
        if self.separation < 1.0 and self.dim < self.classes + 1:
            raise ConfigError(
                f"partially separated centers need dim >= classes + 1, "
                f"got dim {self.dim} for {self.classes} classes"
            )


def _orthonormal_centers(c: int, d: int, rng: SeededRng) -> np.ndarray:
    """Modified Gram-Schmidt on random Gaussians, with one re-pass."""
    raw = rng.normal((c, d))
    basis = np.zeros((c, d))
    for i in range(c):
        v = raw[i]
        for _ in range(2):
            for j in range(i):
                v = v - (v @ basis[j]) * basis[j]
        n = np.linalg.norm(v)
        if n < 1e-10:
            raise ConfigError("degenerate draw while orthogonalizing centers")
        basis[i] = v / n
    return basis


def _blended_centers(c: int, d: int, target_cos: float, rng: SeededRng) -> np.ndarray:
    """Unit centers with pairwise cosine exactly ``target_cos`` in [0, 1)."""
    frame = _orthonormal_centers(c + 1, d, rng)
    beta = np.sqrt(target_cos)
    alpha = np.sqrt(1.0 - target_cos)
    return alpha * frame[:c] + beta * frame[c]


def generate_synthetic(spec: SyntheticSpec):
    """Build a synthetic dataset; returns (FrozenProvider, ground_truth).

    Per class: unit-norm center, ``per_class`` samples at
    normalize(center + sigma * gauss), and an anchor at
    normalize(alignment * center + (1 - alignment) * random_unit).
    Deterministic per seed. The samples are drawn, shifted and normalized
    class by class in place in one (N, d) table, which the provider adopts.
    """
    spec.validate()
    rng = SeededRng(spec.seed)
    if spec.separation >= 1.0:
        centers = _orthonormal_centers(spec.classes, spec.dim, rng.stream("synth/centers"))
    else:
        centers = _blended_centers(
            spec.classes, spec.dim, 1.0 - spec.separation, rng.stream("synth/centers")
        )

    noise_rng = rng.stream("synth/noise")
    emb = np.empty((spec.classes * spec.per_class, spec.dim))
    for c in range(spec.classes):
        # the sign of a drawn zero cannot reach the table: sigma * z + center
        # is the same for z = 0.0 and z = -0.0 wherever the center is not -0.0
        pts = noise_rng.fill_normal(emb[c * spec.per_class:(c + 1) * spec.per_class])
        pts *= spec.noise_sigma
        pts += centers[c]
        normalize_rows(pts, out=pts)

    anchor_rng = rng.stream("synth/anchors")
    anchors = np.zeros((spec.classes, spec.dim))
    a = spec.anchor_alignment
    for c in range(spec.classes):
        r = anchor_rng.normal((spec.dim,))
        r = r / np.linalg.norm(r)
        raw = a * centers[c] + (1.0 - a) * r
        n = np.linalg.norm(raw)
        if n < 1e-10:
            raise DomainError("anchor collapsed to zero norm; re-seed")
        anchors[c] = raw / n

    ds = FrozenProvider(
        emb, anchors,
        name=f"synth-c{spec.classes}-n{spec.per_class}-d{spec.dim}-s{spec.seed}",
    )
    return ds, np.repeat(np.arange(spec.classes, dtype=np.int64), spec.per_class)


def save_dataset(ds: FrozenProvider, directory, truth=None, name=None) -> str:
    """Write manifest + payload (+ truth sidecar); returns the manifest path.
    A ``truth`` of the wrong length, or holding a label outside
    [0, num_classes), raises FormatError before anything is written."""
    if truth is not None:
        truth = np.asarray(truth, dtype=np.int64)
        if truth.shape != (ds.num_samples,):
            raise FormatError("ground truth length must equal num_samples")
        if truth.min() < 0 or truth.max() >= ds.num_classes:
            raise FormatError(f"ground truth labels must lie in [0, {ds.num_classes})")
    os.makedirs(directory, exist_ok=True)
    name = name or ds.name
    payload_path = os.path.join(directory, name + _PAYLOAD_SUFFIX)
    manifest = DatasetManifest(
        name=name,
        num_samples=ds.num_samples,
        num_classes=ds.num_classes,
        dim=ds.dim,
        class_names=ds.class_names,
        payload_path=name + _PAYLOAD_SUFFIX,
        checksum="",  # filled in by write_container
        has_ground_truth=truth is not None,
    )
    manifest_path = os.path.join(directory, name + ".json")
    write_container(manifest_path, payload_path, (ds.image_embeddings, ds.class_anchors),
                    dataclasses.asdict(manifest))  # fields in declared order
    if truth is not None:
        # each label's line looked up, not formatted: a quarter of the time
        lines = [f"{k}\n" for k in range(ds.num_classes)]
        with atomic_write(payload_path + _TRUTH_SUFFIX) as f:
            f.write("".join(map(lines.__getitem__, truth.tolist())))
    return manifest_path


# the JSON type of each dataset manifest field but the checksum, which
# core.checksum_field checks; class_names is a list of strings
_MANIFEST_TYPES = {"name": str, "num_samples": int, "num_classes": int, "dim": int,
                   "class_names": list, "payload_path": str, "has_ground_truth": bool}


def _read_manifest(manifest_path) -> DatasetManifest:
    """Parse a dataset manifest. FormatError, naming the file (and the field),
    when it is not a JSON object or a field is missing, of the wrong JSON type
    or inconsistent."""
    d = read_manifest(manifest_path)
    fields = {f: json_field(manifest_path, d, f, kind, str if kind is list else None)
              for f, kind in _MANIFEST_TYPES.items()}
    fields["class_names"] = tuple(fields["class_names"])
    fields["checksum"] = checksum_field(manifest_path, d)
    try:
        return DatasetManifest(**fields)
    except FormatError as e:  # a field check
        raise FormatError(f"{manifest_path}: malformed manifest ({e})") from None


def _normalize_in_place(table, label, payload_path) -> None:
    """L2-normalize every row of ``table`` in place, block by block; the bits
    are those of ``normalize_rows``. A zero row, or one whose norm is not
    finite (a NaN or infinite value), raises FormatError naming the payload,
    the table and the row; rows further than 1e-6 from unit norm draw one
    warning."""
    worst = 0.0
    for rows in row_blocks(table.shape[0]):
        block = table[rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
        if bad.size:
            kind = "zero-norm" if norms[bad[0], 0] == 0.0 else "non-finite"
            raise FormatError(f"{payload_path}: {kind} {label} row {rows.start + bad[0]} "
                              "in payload")
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        block /= norms
    if worst > 1e-6:
        warnings.warn(f"{label} rows off unit norm by up to {worst:.2e}; re-normalizing")


def load_dataset(manifest_path) -> FrozenProvider:
    """Load and verify a dataset as the frozen provider a run reads.

    ``core.read_payload`` reads the payload in place into one (N, d) image
    table and one (C, d) anchor table, which the provider adopts: a load holds
    one copy of the data. A payload of the wrong size raises FormatError, one
    that fails its checksum IntegrityError. Then every row
    is L2-normalized in place, once, and that is the table the run uses; rows
    further than 1e-6 from unit norm draw a warning. Never reads the
    ground-truth sidecar. A malformed manifest raises FormatError naming it.
    """
    manifest = _read_manifest(manifest_path)
    payload_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                                manifest.payload_path)
    n, c, d = manifest.num_samples, manifest.num_classes, manifest.dim
    emb, anchors = read_payload(payload_path, ((n, d), (c, d)), manifest.checksum)
    _normalize_in_place(emb, "embedding", payload_path)
    _normalize_in_place(anchors, "anchor", payload_path)
    return FrozenProvider(emb, anchors, manifest.class_names, manifest.name)


def load_ground_truth(manifest_path) -> np.ndarray:
    """Evaluation-only reader for the truth sidecar. FormatError, naming the
    sidecar, for a line (blank included) that is not an integer in
    [0, num_classes) (naming the line) or a label count other than num_samples."""
    manifest = _read_manifest(manifest_path)
    if not manifest.has_ground_truth:
        raise FormatError(f"dataset {manifest.name!r} carries no ground truth")
    truth_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                              manifest.payload_path + _TRUTH_SUFFIX)
    with open(truth_path, "rb") as f:
        labels = [int(text) if text.isdigit() else -1 for text in f.read().splitlines()]
    bad = next((i for i, label in enumerate(labels)
                if not 0 <= label < manifest.num_classes), None)
    if bad is not None:
        raise FormatError(f"{truth_path}: line {bad + 1} is not a label in "
                          f"[0, {manifest.num_classes})", line=bad + 1)
    if len(labels) != manifest.num_samples:
        raise FormatError(f"{truth_path}: holds {len(labels)} labels, "
                          f"the manifest lists {manifest.num_samples} samples")
    return np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class MetricsWriter:
    """Append-only line-delimited metric records.

    The file is opened once, truncated so a rerun starts clean, and
    line-buffered, so every record is on disk as soon as ``write`` returns.
    ``close`` (or leaving a ``with`` block) releases it.
    """

    def __init__(self, path):
        self.path = path
        d = os.path.dirname(str(path))
        if d:
            os.makedirs(d, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8", buffering=1)

    def write(self, **record) -> None:
        self._named(self._file.write, json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._named(self._file.close)  # retries the line of a failed write

    def _named(self, io, *args) -> None:
        """``io(*args)``; an OSError from the system that names no file, as a
        failed write's does, is given the file's path (as in atomic_write)."""
        try:
            io(*args)
        except OSError as e:
            if e.errno is not None and e.filename is None:
                e.filename = self.path
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @staticmethod
    def read(path):
        out = []
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out
