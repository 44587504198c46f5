"""Straight-line reference implementations that the tests hold the program's
vectorized kernels against. Nothing in ``src/`` calls them."""

import numpy as np

from coft.errors import DomainError, ShapeError


def softmax_temp(scores, tau: float) -> np.ndarray:
    """Temperature softmax of one score vector, with max-subtraction for
    stability at small tau: the reference for each row of
    ``core.softmax_rows``, raising the same errors."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ShapeError(f"scores must be 1-D, got shape {scores.shape}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("softmax scores must be finite")
    z = scores / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()
