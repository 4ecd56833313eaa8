"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the derm modules from the outside: each
wrapped call records one span (name, start, end, parent) plus optional byte
and outcome counts. Spans live in flat arrays while the run goes on and are
written once at the end. A layer's self time is the duration of its spans
minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) pairs the traced run wraps; methods are "Class.method".
# A span is named "<module short name>.<function or method name>".
TRACED = (
    ("derm.synth", "generate_world"),
    ("derm.synth", "write_world_files"),
    ("derm.synth", "parse_day_file"),
    ("derm.ioutil", "crc64"),
    ("derm.towers", "embed_entity"),
    ("derm.towers", "embed_entity_backward"),
    ("derm.towers", "interaction_forward"),
    ("derm.towers", "interaction_backward"),
    ("derm.objectives", "sampled_softmax_loss"),
    ("derm.objectives", "bce_loss"),
    ("derm.trainer", "batch_step"),
    ("derm.trainer", "sgd_step"),
    ("derm.trainer", "save_snapshot"),
    ("derm.trainer", "load_snapshot"),
    ("derm.lifecycle", "infer_daily"),
    ("derm.lifecycle", "dedup_day"),
    ("derm.lifecycle", "aggregate_day"),
    ("derm.lifecycle", "apply_retention"),
    ("derm.store", "generation_bytes"),
    ("derm.store", "parse_generation"),
    ("derm.store", "publish"),
    ("derm.store", "save_state"),
    ("derm.store", "load_state"),
    ("derm.store", "StoreGeneration.lookup"),
    ("derm.downstream", "build_features"),
    ("derm.downstream", "DownstreamModel.forward"),
    ("derm.downstream", "DownstreamModel.backward"),
    ("derm.downstream", "train_downstream"),
    ("derm.downstream", "evaluate"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


# Extra counters taken from a call: name -> (counter, function of
# (args, kwargs, result) giving the amount to add).
COUNTERS = {
    "ioutil.crc64": ("bytes", lambda a, k, r: len(a[0])),
    "store.parse_generation": ("bytes", lambda a, k, r: len(a[0])),
    "lifecycle.infer_daily": ("records", lambda a, k, r: len(r)),
    "lifecycle.dedup_day": ("kept", lambda a, k, r: len(r.records)),
    "store.lookup": ("hits", lambda a, k, r: r is not None),
}


class Tracer:
    """Records spans from the thread that created it; other threads pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs,
                                                                  result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and total seconds."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_ns = np.bincount(a["name_id"], weights=own, minlength=n)
        total_ns = np.bincount(a["name_id"], weights=a["end"] - a["start"],
                               minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": self_ns[i] / 1e9,
                       "total_s": total_ns[i] / 1e9}
                for i, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        a = self.arrays()
        roots = a["parent"] < 0
        return float((a["end"][roots] - a["start"][roots]).sum()) / 1e9

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself, in the units of start and end."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    s_, e_, p_ = start.tolist(), end.tolist(), parent.tolist()
    cur, lo, hi = -1, 0, 0
    for i in order.tolist():
        p = p_[i]
        s, e = max(s_[i], s_[p]), min(e_[i], e_[p])
        if e <= s:
            continue
        if p != cur or s > hi:
            if cur >= 0:
                own[cur] -= hi - lo
            cur, lo, hi = p, s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        own[cur] -= hi - lo
    return own


class Patcher:
    """Replace traced functions in every derm module that bound them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        importlib.import_module("derm.cli")  # binds every public name
        modules = [m for name, m in list(sys.modules.items())
                   if name == "derm" or name.startswith("derm.")]
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.tracer.wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self.tracer.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        return self

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
