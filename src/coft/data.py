"""Dataset files, the synthetic cluster benchmark, template ingestion, and
metrics persistence.

On-disk layout for a dataset named ``foo``:

  foo.json        manifest (human-readable JSON; see DatasetManifest fields)
  foo.f64le       payload: little-endian float64, row-major, no header.
                  First num_samples rows are image embeddings, the final
                  num_classes rows are the class anchors.
  foo.f64le.truth sidecar of ground-truth labels, one integer per line.
                  ``load_dataset`` never opens it; only the evaluation-side
                  ``load_ground_truth`` reader does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SeededRng, as_f64, normalize_rows, row_blocks, stable_hash64
from .encoders import FrozenProvider
from .errors import ConfigError, DomainError, FormatError, IntegrityError

__all__ = [
    "DatasetManifest",
    "SyntheticSpec",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
    "load_ground_truth",
    "TemplateSet",
    "ingest_templates",
    "rotate_rows",
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
        if not isinstance(self.payload_path, str):
            raise FormatError("payload_path must be a string")


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
    Deterministic per seed. The samples are drawn class by class into one
    (N, d) table, which the provider adopts.
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
        pts = noise_rng.normal((spec.per_class, spec.dim))
        pts *= spec.noise_sigma
        pts += centers[c]
        emb[c * spec.per_class:(c + 1) * spec.per_class] = normalize_rows(pts)

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
    A ``truth`` of the wrong length raises FormatError before anything is
    written."""
    if truth is not None:
        truth = np.asarray(truth, dtype=np.int64)
        if truth.shape != (ds.num_samples,):
            raise FormatError("ground truth length must equal num_samples")
    os.makedirs(directory, exist_ok=True)
    name = name or ds.name
    payload_rel = name + _PAYLOAD_SUFFIX
    payload_path = os.path.join(directory, payload_rel)
    digest = hashlib.blake2b(digest_size=8)
    with open(payload_path, "wb") as f:
        for table in (ds.image_embeddings, ds.class_anchors):
            raw = np.ascontiguousarray(table, dtype="<f8")
            digest.update(raw)
            f.write(raw)
    manifest = DatasetManifest(
        name=name,
        num_samples=ds.num_samples,
        num_classes=ds.num_classes,
        dim=ds.dim,
        class_names=ds.class_names,
        payload_path=payload_rel,
        checksum=digest.hexdigest(),
        has_ground_truth=truth is not None,
    )
    manifest_path = os.path.join(directory, name + ".json")
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(manifest), f, indent=1)  # fields in declared order
        f.write("\n")
    if truth is not None:
        with open(payload_path + _TRUTH_SUFFIX, "w", encoding="utf-8") as f:
            f.writelines(f"{int(t)}\n" for t in truth)
    return manifest_path


def _read_manifest(manifest_path) -> DatasetManifest:
    """Parse a dataset manifest. FormatError, naming the file, when it is not
    JSON or a field is missing, of the wrong type or inconsistent."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            d = json.load(f)
        return DatasetManifest(
            name=d["name"],
            num_samples=int(d["num_samples"]),
            num_classes=int(d["num_classes"]),
            dim=int(d["dim"]),
            class_names=tuple(d["class_names"]),
            payload_path=d["payload_path"],
            checksum=d["checksum"],
            has_ground_truth=bool(d["has_ground_truth"]),
        )
    except KeyError as e:
        raise FormatError(f"{manifest_path}: manifest missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:  # not JSON, a wrong type, or a field check
        raise FormatError(f"{manifest_path}: malformed manifest ({e})") from None


def _normalize_in_place(table, label, payload_path) -> None:
    """L2-normalize every row of ``table`` in place, block by block; the bits
    are those of ``normalize_rows``. A zero row raises FormatError naming the
    payload; rows further than 1e-6 from unit norm draw one warning."""
    worst = 0.0
    for rows in row_blocks(table.shape[0]):
        block = table[rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise FormatError(f"{payload_path}: zero-norm {label} row in payload")
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        block /= norms
    if worst > 1e-6:
        warnings.warn(f"{label} rows off unit norm by up to {worst:.2e}; re-normalizing")


def load_dataset(manifest_path) -> FrozenProvider:
    """Load and verify a dataset as the frozen provider a run reads.

    The payload is read block by block into one (N, d) image table and one
    (C, d) anchor table, which the provider adopts: a load holds one copy of
    the data. Its byte length is checked before anything is allocated (a
    mismatch raises FormatError naming the payload) and its checksum before
    anything is normalized (a mismatch raises IntegrityError). Then every row
    is L2-normalized in place, once, and that is the table the run uses; rows
    further than 1e-6 from unit norm draw a warning. Never reads the
    ground-truth sidecar. A malformed manifest raises FormatError naming it.
    """
    manifest = _read_manifest(manifest_path)
    payload_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                                manifest.payload_path)
    n, c, d = manifest.num_samples, manifest.num_classes, manifest.dim
    expected = 8 * (n + c) * d
    digest = hashlib.blake2b(digest_size=8)
    with open(payload_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise FormatError(f"{payload_path}: payload holds {size} bytes, "
                              f"the manifest implies {expected}")
        emb = np.empty((n, d), dtype="<f8")
        anchors = np.empty((c, d), dtype="<f8")
        for table in (emb, anchors):
            for rows in row_blocks(table.shape[0]):
                block = memoryview(table[rows]).cast("B")
                if f.readinto(block) != block.nbytes:
                    raise FormatError(f"{payload_path}: payload ended early")
                digest.update(block)
    if digest.hexdigest() != manifest.checksum:
        raise IntegrityError(f"payload checksum mismatch for {payload_path}")
    _normalize_in_place(emb, "embedding", payload_path)
    _normalize_in_place(anchors, "anchor", payload_path)
    return FrozenProvider(emb, anchors, manifest.class_names, manifest.name)


def load_ground_truth(manifest_path) -> np.ndarray:
    """Evaluation-only reader for the truth sidecar."""
    manifest = _read_manifest(manifest_path)
    if not manifest.has_ground_truth:
        raise FormatError(f"dataset {manifest.name!r} carries no ground truth")
    truth_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                              manifest.payload_path + _TRUTH_SUFFIX)
    with open(truth_path, "r", encoding="utf-8") as f:
        truth = np.array([int(line) for line in f if line.strip()], dtype=np.int64)
    if truth.shape != (manifest.num_samples,):
        raise FormatError("ground truth sidecar length mismatch")
    return truth


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateSet:
    """Deduplicated templates plus the per-class mean anchors they induce."""

    templates: tuple
    anchors: np.ndarray  # (C, d), unit rows


def rotate_rows(rows, seed: int, sweeps: int = 2, max_angle: float = 0.25) -> np.ndarray:
    """Apply a seeded sequence of Givens rotations to every row.

    The same orthogonal map hits all rows, so norms and pairwise inner
    products are preserved exactly (up to float roundoff).
    """
    out = as_f64(rows).copy()
    d = out.shape[1]
    rng = SeededRng(seed, label="template-rotation")
    for _ in range(sweeps * d):
        i = int(rng.integers(0, d))
        j = int(rng.integers(0, d - 1))
        if j >= i:
            j += 1
        theta = float(rng.uniform(-max_angle, max_angle))
        c, s = np.cos(theta), np.sin(theta)
        xi = out[:, i].copy()
        xj = out[:, j].copy()
        out[:, i] = c * xi + s * xj
        out[:, j] = -s * xi + c * xj
    return out


def ingest_templates(path, provider) -> TemplateSet:
    """Read one template per line and build per-class mean anchors.

    Each template must contain the ``{class}`` placeholder exactly once.
    Templates are deduplicated in order; the first one maps classes through
    the identity (so a single-template file reproduces the base anchors) and
    every later template applies a rotation seeded by its own text hash, a
    deterministic stand-in for encoding genuinely distinct prompt wording.
    """
    templates = []
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            if text.count("{class}") != 1:
                raise FormatError(
                    f"template must contain '{{class}}' exactly once (line {lineno})",
                    line=lineno,
                )
            if text not in seen:
                seen.add(text)
                templates.append(text)
    if not templates:
        raise FormatError("template file holds no templates")
    base = provider.class_anchors
    acc = np.zeros_like(base)
    for idx, text in enumerate(templates):
        if idx == 0:
            acc += base
        else:
            acc += rotate_rows(base, seed=stable_hash64(f"template:{text}"))
    return TemplateSet(templates=tuple(templates), anchors=normalize_rows(acc / len(templates)))


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
        self._file.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._file.close()

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
