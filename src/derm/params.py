"""Flat name->array parameter dictionaries and deterministic flattening.

Parameters for every model are kept in one dict keyed by slash-separated
paths ("user/layer0/a/Wg", "head/click/w", ...). Flattening iterates keys
in sorted order so snapshot files and SGD updates see the same
deterministic layout, and unflatten_params reads that layout back.
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
    return flat_views(params)[0], _layout(params)


def flat_views(params: ParamDict, lead: int = 0) -> tuple[np.ndarray, ParamDict]:
    """One flat copy of params (the flatten_params layout) and name->array
    views into it, so writes through either side show in the other.

    With lead > 0 every array shares that many leading axes (a stack of
    models); the copy keeps them, with one flatten_params layout along its
    last axis.
    """
    if not params:
        return np.zeros(0), {}
    layout = _layout(params, lead)
    shared = params[layout[0][0]].shape[:lead]
    vec = np.concatenate([params[k].reshape(*shared, -1) for k, _ in layout],
                         axis=-1)
    return vec, _views(vec, layout)


def unflatten_params(vec: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> ParamDict:
    return {k: np.array(v, dtype=np.float64) for k, v in _views(vec, layout).items()}


def _layout(params: ParamDict, lead: int = 0) -> list[tuple[str, tuple[int, ...]]]:
    """Each array's name and shape after its first lead axes, sorted by name."""
    return [(k, params[k].shape[lead:]) for k in sorted(params)]


def _views(vec: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> ParamDict:
    out: ParamDict = {}
    off = 0
    for name, shape in layout:
        n = int(np.prod(shape)) if shape else 1
        out[name] = vec[..., off : off + n].reshape(vec.shape[:-1] + shape)
        off += n
    return out
