"""Deterministic float64 vector kernels, seeded, stream-labeled randomness, and
the payload container: the only code that opens a dataset or checkpoint payload.

The kernels are pure functions over immutable inputs. All arithmetic is
64-bit; callers that need reproducibility draw from :class:`SeededRng`
streams identified by explicit string labels.

Code that runs on every training step calls numpy's ufunc reductions
(``np.add.reduce``, ``np.maximum.reduce``, ``np.logical_or.reduce``,
``np.logical_and.reduce``) rather than ``np.sum``, ``np.any``, ``np.all``,
``np.mean``, ``np.linalg.norm`` or the ndarray methods of the same names.
Those are Python functions around the same reductions, so the results are
bit for bit the same, and at the training shapes their calls cost more than
the arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, FormatError, IntegrityError, ShapeError

__all__ = [
    "as_f64",
    "softmax_rows",
    "row_norms",
    "normalize_rows",
    "SeededRng",
    "BLOCK_ROWS",
    "row_blocks",
    "map_row_blocks",
    "atomic_write",
    "write_container",
    "read_manifest",
    "json_field",
    "checksum_field",
    "read_payload",
]

# Rows per block of a pass over a whole sample table, so a table of fewer than
# 1,024 rows is one block. Never fewer: a matrix product over a few dozen rows
# may take BLAS's small-matrix path and round differently from the same rows
# inside the whole-table product, while from 128 rows up a block's rows come
# out bit for bit as in the whole table. The ensemble's temporaries are
# hidden-wide, so the block size sets their share of a wide run's peak memory.
BLOCK_ROWS = 512


def as_f64(x) -> np.ndarray:
    """Return ``x`` as a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def softmax_rows(scores, tau: float) -> np.ndarray:
    """Row-wise temperature softmax over a 2-D score matrix."""
    scores = as_f64(scores)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got shape {scores.shape}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        raise ValueError("softmax scores must be finite")
    z = scores / tau
    z = z - np.maximum.reduce(z, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def row_norms(m: np.ndarray, keepdims: bool = False, work=None) -> np.ndarray:
    """L2 norm of every row of a 2-D float64 array: the sum that
    ``np.linalg.norm(m, axis=1)`` computes, bit for bit, without its wrapper.
    The squares go into ``work`` (shaped like ``m``) when it is given."""
    return np.sqrt(np.add.reduce(np.multiply(m, m, out=work), axis=1, keepdims=keepdims))


def normalize_rows(m, out=None) -> np.ndarray:
    """L2-normalize every row of a 2-D array, into ``out`` when given (``m``
    itself normalizes in place). Any zero row raises DomainError."""
    m = as_f64(m)
    if m.ndim != 2:
        raise ShapeError(f"expected 2-D array, got shape {m.shape}")
    norms = row_norms(m, keepdims=True)
    if np.logical_or.reduce(norms == 0.0, axis=None):
        raise DomainError("cannot normalize a zero row")
    return np.divide(m, norms, out=out)


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


# Payload container: a JSON manifest whose "checksum" is the SHA-256 digest of a
# headerless little-endian float64 payload holding its tables back to back.
# SHA-256 rather than blake2b: hashlib's runs on OpenSSL with the CPU's SHA
# instructions, about twice blake2b's rate, and every byte of every dataset
# and checkpoint passes through it on each write and read.
def write_container(manifest_path, payload_path, tables, manifest: dict) -> None:
    """Write ``tables`` as the payload, then ``manifest`` as JSON with its
    "checksum" filled in (in place when the key is present, else appended),
    each through ``atomic_write``."""
    digest = hashlib.sha256()
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


_CHECKSUM = re.compile("[0-9a-f]{64}")


def checksum_field(path, manifest: dict) -> str:
    """A container manifest's "checksum": the payload's SHA-256 as 64
    lowercase hex digits. Anything else, a missing field or an older
    manifest's 16-digit blake2b value included, is a FormatError naming
    ``path`` and the field."""
    value = json_field(path, manifest, "checksum", str)
    if not _CHECKSUM.fullmatch(value):
        raise FormatError(f"{path}: field 'checksum' must be a SHA-256 as 64 lowercase hex "
                          f"digits, got {value!r}")
    return value


def read_payload(path, tables, checksum) -> list:
    """``tables`` filled in place from the payload, in order, and returned.
    Each entry is a C-contiguous float64 array to fill, or a shape, for which
    a new array is made only once the byte length has been checked
    (FormatError naming the payload), so a manifest that lists too much
    allocates nothing. The checksum is checked after the read
    (IntegrityError); by then the given arrays have been written."""
    shapes = [t if isinstance(t, tuple) else t.shape for t in tables]
    expected = sum(8 * math.prod(shape) for shape in shapes)
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise FormatError(f"{path}: payload holds {size} bytes, "
                              f"the manifest implies {expected}")
        tables = [np.empty(t, dtype="<f8") if isinstance(t, tuple) else t for t in tables]
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

    def fill_normal(self, out: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous float64 ``out`` in place with the draws
        ``normal(out.shape)`` would return, bit for bit but for the sign of a
        drawn zero (``normal`` adds 0.0, which turns -0.0 into 0.0)."""
        return self._gen.standard_normal(out=out)

    def random(self, shape=None):
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, label={self.label!r})"
