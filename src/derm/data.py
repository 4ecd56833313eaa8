"""Shared domain records: feature bundles, embedding records, training samples.

A FeatureBundle is one entity's raw features for one day, or one event's
context: dense vectors, categorical ids and id sequences keyed by slot
name. The towers stack a batch of bundles into per-slot columns and
resolve the slots against their input spec; a missing slot falls back to
its default (reserved id 0, zero vector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

USER = "user"
PIN = "pin"

KIND_CODES = {USER: 0, PIN: 1}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


@dataclass
class FeatureBundle:
    dense: dict[str, np.ndarray] = field(default_factory=dict)
    categorical: dict[str, int] = field(default_factory=dict)
    sequence: dict[str, list[int]] = field(default_factory=dict)


@dataclass
class EmbeddingRecord:
    """One inferred entity embedding; seq orders records within a day."""

    entity_id: int
    kind: str  # USER or PIN
    day: int
    vector: np.ndarray
    source: str  # producing model tag, e.g. "ctr-upstream"
    seq: int = 0


@dataclass
class TrainingSample:
    user_id: int
    pin_id: int
    day: int
    event_seq: int  # ingestion order within the day
    user: FeatureBundle
    pin: FeatureBundle
    context: FeatureBundle
    labels: dict[str, int]  # task name -> 0/1
