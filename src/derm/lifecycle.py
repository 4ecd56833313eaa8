"""Daily embedding production: inference, dedup, aggregation, retention.

A day's pipeline is infer -> dedup -> aggregate -> retain, treated as one
transaction over the aggregated store state. The day's embeddings are one
record table, a row per entity occurrence until dedup keeps one per entity.
State transitions are pure: each step returns a new state object, and entries
untouched by the day are shared with the previous state, which is what makes
carry-over bit-exact.

Aggregation heuristics:
  acc   keep the latest daily embedding
  ma    E_agg(t) = w * E_agg(t-1) + (1 - w) * E_daily(t)
  ap    average of the entity's two most recent daily embeddings

Aggregated vectors are not re-normalized after the weighted sum; consumers
needing unit norm normalize at read time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .data import KIND_CODES, PIN, USER, SampleBatch, embedding_rows, entity_keys
from .errors import (
    DayGapError,
    DimInconsistentError,
    EmptyIntersectionError,
    EmptyUniverseError,
    WatermarkBehindDayError,
    WeightOutOfRangeError,
    WindowExceedsWatermarkError,
)
from .numerics import cosine_similarity, float_text
from .towers import UpstreamModel, embed_entity
from .trainer import ModelSnapshot, apply_snapshot

ACC = "acc"
MA = "ma"
AP = "ap"

RETENTION_DAYS = 90

EntityKey = tuple[str, int]  # (kind, entity id)


@dataclass(frozen=True)
class AggregationHeuristic:
    kind: str
    w: float = 0.8

    def validate(self) -> None:
        if self.kind not in (ACC, MA, AP):
            raise WeightOutOfRangeError(f"unknown heuristic kind {self.kind!r}")
        if self.kind == MA and not (0.0 <= self.w <= 1.0):
            raise WeightOutOfRangeError(
                f"moving-average weight must lie in [0, 1], got {self.w}"
            )

    @property
    def label(self) -> str:
        return f"ma{float_text(self.w)}" if self.kind == MA else self.kind

    @staticmethod
    def parse(text: str) -> "AggregationHeuristic":
        text = text.strip().lower()
        if text in (ACC, AP):
            h = AggregationHeuristic(text)
        else:
            m = re.fullmatch(r"ma\s*([0-9.]+)", text)
            if not m:
                raise WeightOutOfRangeError(
                    f"cannot parse heuristic {text!r}; expected acc, ap, or ma<w>"
                )
            h = AggregationHeuristic(MA, float(m.group(1)))
        h.validate()
        return h


@dataclass
class DailyEmbeddingSet:
    day: int
    records: np.ndarray  # embedding rows, one per entity, sorted by (kind, id)


@dataclass
class StoreEntry:
    vector: np.ndarray
    last_active_day: int


@dataclass
class AggregatedStoreState:
    day: int
    heuristic: AggregationHeuristic
    entries: dict[EntityKey, StoreEntry] = field(default_factory=dict)
    prev_daily: dict[EntityKey, np.ndarray] = field(default_factory=dict)


def initial_state(heuristic: AggregationHeuristic) -> AggregatedStoreState:
    heuristic.validate()
    return AggregatedStoreState(day=0, heuristic=heuristic)


# ---------------------------------------------------------------------------
# inference


def infer_daily(snapshot: ModelSnapshot, model: UpstreamModel, day: int,
                events: SampleBatch) -> np.ndarray:
    """Raw per-occurrence embedding rows for one day, pre-dedup.

    Emits one user and one pin row per event, in event order, so an entity
    occurring k times yields k rows with the seq numbers of its events.
    """
    if snapshot.watermark_day < day:
        raise WatermarkBehindDayError(
            f"snapshot watermark {snapshot.watermark_day} is behind day {day}"
        )
    apply_snapshot(model, snapshot)
    if not len(events):
        return embedding_rows()
    U, _ = embed_entity(model.user_cfg, model.params, "user", events.user)
    P, _ = embed_entity(model.pin_cfg, model.params, "pin", events.pin)
    # event order, an event's user row before its pin row
    return embedding_rows(np.tile([KIND_CODES[USER], KIND_CODES[PIN]], len(U)),
                          np.stack([events.user_id, events.pin_id], 1).ravel(),
                          np.repeat(events.event_seq, 2),
                          np.stack([U, P], 1).reshape(-1, U.shape[1]))


def dedup_day(rows: np.ndarray, day: int) -> DailyEmbeddingSet:
    """Keep the last embedding of the day per entity: the greatest seq wins,
    the first row of equal seqs."""
    order = np.lexsort((-rows["seq"], rows["id"], rows["kind"]))  # stable
    kind, ids = rows["kind"][order], rows["id"][order]
    first = np.ones(len(order), bool)
    first[1:] = (kind[1:] != kind[:-1]) | (ids[1:] != ids[:-1])
    return DailyEmbeddingSet(day, rows[order[first]])


def back_infer(snapshot: ModelSnapshot, model: UpstreamModel,
               window_days: list[int],
               data_by_day: dict[int, SampleBatch]) -> list[DailyEmbeddingSet]:
    """Infer each day with one snapshot (the latest, when re-inferring a
    window); returns the deduped sets in day order, an empty one for a day
    missing from data_by_day."""
    days = sorted(window_days)
    for d in days:
        if not (1 <= d <= snapshot.watermark_day):
            raise WindowExceedsWatermarkError(
                f"back-inference day {d} outside [1, {snapshot.watermark_day}]"
            )
    return [dedup_day(infer_daily(snapshot, model, d, data_by_day[d])
                      if d in data_by_day else embedding_rows(), day=d)
            for d in days]


# ---------------------------------------------------------------------------
# aggregation


def aggregate_day(state: AggregatedStoreState,
                  daily: DailyEmbeddingSet) -> AggregatedStoreState:
    """One day's aggregation transition; absent entities carry over untouched."""
    h = state.heuristic
    h.validate()
    if daily.day != state.day + 1:
        raise DayGapError(
            f"daily set for day {daily.day} cannot follow state day {state.day}"
        )
    dim = daily.records["vec"].shape[1]  # 0 for a day without rows
    if dim and state.entries:
        state_dim = len(next(iter(state.entries.values())).vector)
        if dim != state_dim:
            raise DimInconsistentError(
                f"daily set for day {daily.day} has dim {dim}, "
                f"but the state has dim {state_dim}")
    entries = dict(state.entries)
    prev_daily = dict(state.prev_daily) if h.kind == AP else state.prev_daily
    for key, d in zip(entity_keys(daily.records), daily.records["vec"]):
        prior = entries.get(key)
        if prior is None:
            agg = d.copy()
        elif h.kind == ACC:
            agg = d.copy()
        elif h.kind == MA:
            agg = h.w * prior.vector + (1.0 - h.w) * d
        else:  # AP
            buffered = prev_daily.get(key)
            agg = d.copy() if buffered is None else 0.5 * (buffered + d)
        entries[key] = StoreEntry(agg, daily.day)
        if h.kind == AP:
            prev_daily[key] = d.copy()
    return AggregatedStoreState(daily.day, h, entries, prev_daily)


def apply_retention(state: AggregatedStoreState, current_day: int,
                    window_days: int = RETENTION_DAYS) -> AggregatedStoreState:
    """Evict entities inactive beyond the window; the boundary day survives."""
    if window_days < 1:
        raise WeightOutOfRangeError(f"retention window must be >= 1, got {window_days}")
    cutoff = current_day - window_days
    entries = {k: e for k, e in state.entries.items()
               if e.last_active_day >= cutoff}
    prev_daily = {k: v for k, v in state.prev_daily.items() if k in entries}
    return AggregatedStoreState(state.day, state.heuristic, entries, prev_daily)


def fold_days(state: AggregatedStoreState, dailies: list[DailyEmbeddingSet],
              window_days: int = RETENTION_DAYS) -> AggregatedStoreState:
    """Aggregate each daily set in order, applying retention after each day."""
    for daily in dailies:
        state = apply_retention(aggregate_day(state, daily), daily.day,
                                window_days)
    return state


# ---------------------------------------------------------------------------
# reporting


def stability_mean(before: AggregatedStoreState,
                   after: AggregatedStoreState) -> float:
    """Mean day-to-day cosine similarity over entities present in both
    states, summed in (kind, id) order."""
    shared = sorted(set(before.entries) & set(after.entries))
    if not shared:
        raise EmptyIntersectionError(
            "states share no entities; stability is undefined"
        )
    return float(np.mean([cosine_similarity(before.entries[k].vector,
                                            after.entries[k].vector)
                          for k in shared]))


def coverage_report(state: AggregatedStoreState,
                    universe: dict[str, set[int]]) -> dict[str, float]:
    """Fraction of each kind's universe that has an aggregated embedding."""
    if not any(universe.values()):
        raise EmptyUniverseError("empty entity universe")
    covered: dict[str, float] = {}
    for kind, ids in universe.items():
        if not ids:
            continue
        have = sum(1 for i in ids if (kind, i) in state.entries)
        covered[kind] = have / len(ids)
    return covered
