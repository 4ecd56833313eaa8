"""Dense float64 numeric kernel: validation, the L2 norm, cosine similarity,
the logistic function, and exact float text.

All public operations are pure functions over numpy float64 arrays.
Vectors are 1-D arrays, matrices 2-D row-major arrays; helpers below
enforce dtype, shape and finiteness at the boundaries so the layers
built on top can assume clean inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteFunctionError,
    ZeroNormError,
)

NORM_EPS = 1e-12


def float_text(v: float) -> str:
    """The shortest positional text that reads back as exactly v."""
    return np.format_float_positional(v, trim="-")


def as_vector(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return x as a finite float64 1-D array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimMismatchError(f"expected 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteFunctionError("vector contains non-finite entries")
    return v


def l2_norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(v, v)))


def cosine_similarity(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1]."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"dims {a.shape[0]} vs {b.shape[0]}")
    na, nb = l2_norm(a), l2_norm(b)
    if na <= NORM_EPS or nb <= NORM_EPS:
        raise ZeroNormError("cosine undefined for (near-)zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def sigmoid(x):
    """Numerically stable logistic function (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)
