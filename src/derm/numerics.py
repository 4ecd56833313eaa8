"""Dense float64 numeric kernel: validation, normalization, similarity,
the logistic function, and a central-difference gradient checker.

All public operations are pure functions over numpy float64 arrays.
Vectors are 1-D arrays, matrices 2-D row-major arrays; helpers below
enforce dtype, shape and finiteness at the boundaries so the layers
built on top can assume clean inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteFunctionError,
    ZeroNormError,
)

NORM_EPS = 1e-12
GRAD_CHECK_STEP = 1e-5


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


def l2_normalize(v: Sequence[float] | np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction.

    Raises ZeroNormError when ||v|| <= eps; a degenerate all-zero input
    is rejected rather than silently emitted.
    """
    v = as_vector(v)
    n = l2_norm(v)
    if n <= eps:
        raise ZeroNormError(f"norm {n:.3e} <= {eps:.1e}")
    return v / n


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


@dataclass
class GradReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_err: float
    worst_index: int
    rel_errs: np.ndarray
    numeric_grad: np.ndarray
    analytic_grad: np.ndarray

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol


def relative_error(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Symmetric relative error |a - n| / max(1e-8, |a| + |n|), elementwise."""
    denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
    return np.abs(a - n) / denom

def check_gradient(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    analytic_grad: Sequence[float] | np.ndarray,
    step: float = GRAD_CHECK_STEP,
) -> GradReport:
    """Compare analytic_grad against central differences of f at x.

    f must be a scalar function of a 1-D array, finite in a neighborhood
    of x at the probe step. Returns the elementwise symmetric relative
    errors and their maximum.
    """
    x = as_vector(x).copy()
    g = as_vector(analytic_grad)
    if x.shape != g.shape:
        raise DimMismatchError("gradient shape does not match input")
    numeric = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        fp = float(f(x))
        x[i] = orig - step
        fm = float(f(x))
        x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteFunctionError(f"f non-finite near x at index {i}")
        numeric[i] = (fp - fm) / (2.0 * step)
    rel = relative_error(g, numeric)
    worst = int(np.argmax(rel)) if rel.size else 0
    return GradReport(
        max_rel_err=float(rel[worst]) if rel.size else 0.0,
        worst_index=worst,
        rel_errs=rel,
        numeric_grad=numeric,
        analytic_grad=np.array(g),
    )
