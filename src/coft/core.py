"""Deterministic float64 vector kernels, seeded, stream-labeled randomness, and
the payload container: the only code that opens a dataset or checkpoint payload.

The kernels are pure functions over immutable inputs. All arithmetic is
64-bit; callers that need reproducibility draw from :class:`SeededRng`
streams identified by explicit string labels.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, FormatError, IntegrityError, ShapeError

__all__ = [
    "as_f64",
    "softmax_temp",
    "softmax_rows",
    "normalize_rows",
    "stable_hash64",
    "SeededRng",
    "BLOCK_ROWS",
    "row_blocks",
    "map_row_blocks",
    "atomic_write",
    "write_container",
    "read_manifest",
    "json_field",
    "read_payload",
]

# Rows per block of a pass over a whole sample table. Never fewer: a matrix
# product over a few dozen rows may take BLAS's small-matrix path and round
# differently from the same rows inside the whole-table product, while from
# 128 rows up a block's rows come out bit for bit as in the whole table.
BLOCK_ROWS = 1024


def as_f64(x) -> np.ndarray:
    """Return ``x`` as a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def _check_vector(v: np.ndarray, name: str) -> None:
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {v.shape}")


def softmax_temp(scores, tau: float) -> np.ndarray:
    """Temperature softmax with max-subtraction for stability at small tau."""
    scores = as_f64(scores)
    _check_vector(scores, "scores")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax scores must be finite")
    z = scores / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows(scores, tau: float) -> np.ndarray:
    """Row-wise temperature softmax over a 2-D score matrix."""
    scores = as_f64(scores)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got shape {scores.shape}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax scores must be finite")
    z = scores / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def normalize_rows(m) -> np.ndarray:
    """L2-normalize every row of a 2-D array. Any zero row raises DomainError."""
    m = as_f64(m)
    if m.ndim != 2:
        raise ShapeError(f"expected 2-D array, got shape {m.shape}")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DomainError("cannot normalize a zero row")
    return m / norms


def row_blocks(n: int, block: int | None = None) -> list:
    """Consecutive, nearly equal slices partitioning ``range(n)``, each of at
    least ``block`` rows (default ``BLOCK_ROWS``); fewer than ``2 * block``
    rows (0 included) give one slice."""
    count = max(1, n // (block or BLOCK_ROWS))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def map_row_blocks(fn, table) -> np.ndarray:
    """``fn`` applied to the row blocks of ``table`` (see ``row_blocks``), its
    results written in row order into one array allocated at the first block."""
    n = table.shape[0]
    out = None
    for rows in row_blocks(n):
        part = fn(table[rows])
        if out is None:
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
        out[rows] = part
    return out


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file opened for writing at ``<path>.tmp`` (text mode is UTF-8). When
    the block ends normally it is moved onto ``path`` with ``os.replace``;
    when it raises, the temp file is deleted. Either way no partial file is
    left under the final name (no fsync)."""
    tmp = os.fspath(path) + ".tmp"
    f = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


# Payload container: a JSON manifest whose "checksum" is the blake2b-64 digest of
# a headerless little-endian float64 payload holding its tables back to back.
def write_container(manifest_path, payload_path, tables, manifest: dict) -> None:
    """Write ``tables`` as the payload, then ``manifest`` as JSON with its
    "checksum" filled in (in place when the key is present, else appended),
    each through ``atomic_write``."""
    digest = hashlib.blake2b(digest_size=8)
    with atomic_write(payload_path, "wb") as f:
        for table in tables:
            raw = np.ascontiguousarray(table, dtype="<f8")
            digest.update(raw)
            f.write(raw)
    with atomic_write(manifest_path) as f:
        json.dump({**manifest, "checksum": digest.hexdigest()}, f, indent=1)
        f.write("\n")


def read_manifest(path) -> dict:
    """A manifest's JSON object; FormatError naming the file otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except ValueError as e:  # not UTF-8 or not JSON
        raise FormatError(f"{path}: not a JSON manifest ({e})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    return manifest


_JSON_NAMES = {int: "integer", str: "string", bool: "boolean", list: "list"}


def _is_json(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def json_field(path, obj: dict, field: str, kind: type, items: type | None = None,
               where: str = ""):
    """``obj[field]`` when it is a JSON ``kind`` (for a list, of ``items``);
    FormatError naming ``path`` and ``where + field`` when it is missing or of
    another type. ``true`` and ``60.0`` are not integers."""
    name = where + field
    if field not in obj:
        raise FormatError(f"{path}: missing field {name!r}")
    value = obj[field]
    if not _is_json(value, kind) or (items and not all(_is_json(v, items) for v in value)):
        want = _JSON_NAMES[kind] + (f" of {_JSON_NAMES[items]}s" if items else "")
        raise FormatError(f"{path}: field {name!r} must be a JSON {want}, got {value!r}")
    return value


def read_payload(path, shapes, checksum) -> list:
    """One new float64 array per shape, read in place from the payload. The
    byte length is checked before anything is allocated (FormatError naming
    the payload), the checksum after the read (IntegrityError)."""
    expected = sum(8 * math.prod(shape) for shape in shapes)
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise FormatError(f"{path}: payload holds {size} bytes, "
                              f"the manifest implies {expected}")
        tables = [np.empty(shape, dtype="<f8") for shape in shapes]
        for table in tables:
            raw = memoryview(table.reshape(-1)).cast("B")
            for start in range(0, raw.nbytes, 1 << 20):  # 1 MiB per read
                chunk = raw[start:start + (1 << 20)]
                if f.readinto(chunk) != chunk.nbytes:
                    raise FormatError(f"{path}: payload ended early")
                digest.update(chunk)
    if digest.hexdigest() != checksum:
        raise IntegrityError(f"payload checksum mismatch for {path}")
    return tables


def stable_hash64(text: str) -> int:
    """Platform- and process-stable 64-bit hash of a string."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def _derive_key(seed: int, label: str) -> int:
    # 128-bit Philox key derived from (seed, label); independent of PYTHONHASHSEED.
    digest = hashlib.blake2b(
        label.encode("utf-8"), digest_size=16, key=int(seed).to_bytes(8, "little", signed=False)
    ).digest()
    return int.from_bytes(digest, "little")


class SeededRng:
    """Counter-based generator with named, independently derived streams.

    One root generator per run; every stochastic operation draws from its own
    ``stream(label)`` child so the draw sequence of one operation never shifts
    another's. Identical (seed, label) pairs reproduce identical draws across
    runs and platforms. Instances are single-owner: share streams by splitting,
    never by passing one instance to concurrent tasks.
    """

    def __init__(self, seed: int, label: str = "root"):
        if not 0 <= int(seed) < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.label = label
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, label)))

    def stream(self, label: str) -> "SeededRng":
        """Split off an independent child stream."""
        return SeededRng(self.seed, f"{self.label}/{label}")

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape=None):
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, label={self.label!r})"
