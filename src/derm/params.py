"""Flat name->array parameter dictionaries and deterministic flattening.

Parameters for every model are kept in one dict keyed by slash-separated
paths ("user/layer0/a/Wg", "head/click/w", ...). Flattening iterates keys
in sorted order so serialization, SGD updates and finite-difference
checks all see the same deterministic layout.
"""

from __future__ import annotations

import numpy as np

ParamDict = dict[str, np.ndarray]


def zeros_like_params(params: ParamDict) -> ParamDict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def clone_params(params: ParamDict) -> ParamDict:
    return {k: v.copy() for k, v in params.items()}


def flatten_params(params: ParamDict) -> tuple[np.ndarray, list[tuple[str, tuple[int, ...]]]]:
    """Concatenate all arrays (sorted by key) into one 1-D vector."""
    layout = [(k, params[k].shape) for k in sorted(params)]
    if not layout:
        return np.zeros(0), layout
    vec = np.concatenate([params[k].ravel() for k, _ in layout])
    return vec, layout


def flat_views(params: ParamDict) -> tuple[np.ndarray, ParamDict]:
    """One flat copy of params (the flatten_params layout) and name->array
    views into it, so writes through either side show in the other."""
    vec, layout = flatten_params(params)
    return vec, _views(vec, layout)


def unflatten_params(vec: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> ParamDict:
    return {k: np.array(v, dtype=np.float64) for k, v in _views(vec, layout).items()}


def _views(vec: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> ParamDict:
    out: ParamDict = {}
    off = 0
    for name, shape in layout:
        n = int(np.prod(shape)) if shape else 1
        out[name] = vec[off : off + n].reshape(shape)
        off += n
    return out


def params_equal_exact(a: ParamDict, b: ParamDict) -> bool:
    """Bit-exact comparison (shapes and every byte)."""
    if a.keys() != b.keys():
        return False
    return all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )
