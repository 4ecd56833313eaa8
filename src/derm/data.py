"""Shared domain records: sample batches, feature bundles, embedding rows.

A SampleBatch holds n events as columns, from the day file through the
towers, the lifecycle and the downstream features: (n,) int64 user, pin and
event-sequence ids, one (n,) label column per task, and a FeatureBundle each
for the user, the pin and the event context. A bundle keys its columns by
slot name: dense (n, d) rows, categorical (n,) ids, and sequences as (n, L)
int64 ids padded with 0 plus (n,) lengths, L = max(1, longest).

batch[idx] indexes every column: a slice or index array gives a sub-batch
with the L of its own rows, an int one event, so iterating yields events.
A day's entity embeddings are one record table (embedding_rows) from
inference to aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

USER = "user"
PIN = "pin"

KIND_CODES = {USER: 0, PIN: 1}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


def pad_flat(flat, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sequence column of rows laid end to end in flat, row i holding
    lengths[i] ids: (n, L) int64 ids padded with 0, and the lengths."""
    ids = np.zeros((len(lengths), max(1, lengths.max(initial=0))), np.int64)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = flat
    return ids, lengths


def _take_sequence(col, idx):
    ids, lengths = col
    lengths = lengths[idx]
    longest = lengths.max(initial=0) if lengths.ndim else lengths  # an int idx: one row
    return ids[idx][..., :max(1, longest)], lengths


def _concat(cols):
    """Rows of each column in turn, through dicts and dataclasses of columns;
    (ids, lengths) sequences pad to the widest."""
    first = cols[0]
    if isinstance(first, dict):
        return {k: _concat([c[k] for c in cols]) for k in first}
    if is_dataclass(first):
        return type(first)(*(_concat([getattr(c, f.name) for c in cols])
                             for f in fields(first)))
    if not isinstance(first, tuple):
        return np.concatenate(cols)
    width = max(ids.shape[1] for ids, _ in cols)
    return (np.concatenate([np.pad(ids, ((0, 0), (0, width - ids.shape[1])))
                            for ids, _ in cols]),
            np.concatenate([lengths for _, lengths in cols]))


@dataclass
class FeatureBundle:
    dense: dict[str, np.ndarray] = field(default_factory=dict)
    categorical: dict[str, np.ndarray] = field(default_factory=dict)
    sequence: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __getitem__(self, idx) -> FeatureBundle:
        return FeatureBundle({k: v[idx] for k, v in self.dense.items()},
                             {k: v[idx] for k, v in self.categorical.items()},
                             {k: _take_sequence(v, idx)
                              for k, v in self.sequence.items()})


@dataclass
class SampleBatch:
    user_id: np.ndarray
    pin_id: np.ndarray
    event_seq: np.ndarray  # ingestion order within the day
    labels: dict[str, np.ndarray]  # task name -> (n,) 0/1
    user: FeatureBundle
    pin: FeatureBundle
    context: FeatureBundle

    def __len__(self) -> int:
        return len(self.user_id)

    def __getitem__(self, idx) -> SampleBatch:
        return SampleBatch(self.user_id[idx], self.pin_id[idx], self.event_seq[idx],
                           {t: v[idx] for t, v in self.labels.items()},
                           self.user[idx], self.pin[idx], self.context[idx])

    concat = staticmethod(_concat)  # the events of each batch in turn


def embedding_rows(kind=(), entity_id=(), seq=(), vec=np.empty((0, 0))) -> np.ndarray:
    """Entity-embedding rows {kind u1, id u8, seq i8, vec f8[dim]} from (n,)
    columns, or scalars broadcast to every row, and an (n, dim) vec matrix;
    no arguments give zero rows of dim 0."""
    vec = np.asarray(vec, dtype=np.float64)
    rows = np.empty(len(vec), [("kind", "u1"), ("id", "<u8"), ("seq", "<i8"),
                               ("vec", "<f8", vec.shape[1:])])
    rows["kind"], rows["id"], rows["seq"], rows["vec"] = kind, entity_id, seq, vec
    return rows


def entity_keys(rows: np.ndarray) -> list[tuple[str, int]]:
    """(kind name, entity id) of each row of a table keyed by kind and id."""
    return [(KIND_NAMES[k], i)
            for k, i in zip(rows["kind"].tolist(), rows["id"].tolist())]
