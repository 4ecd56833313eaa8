"""Deterministic synthetic world: latent entities, daily events, two tasks.

Users and pins carry hidden latent vectors. Click labels depend on the dot
product over one latent subspace, conversion labels on a partially distinct
one (the subspaces share half their dimensions), so the two tasks overlap
without coinciding and embeddings learned on one transfer to the other.

Observable features are noisy linear projections of the latents, redrawn per
day with a small extra per-event jitter. Entities skip days at random, which
is what carry-over aggregation and back inference later have to deal with.

Every draw comes from a generator seeded by (seed, stream tag, ...indices),
so any day can be regenerated independently and bit-identically.

A day file is sealed (see ioutil), little-endian:

  header   {magic "DDAY", format_version u32 (2), day u32, count u32,
            profile_dim u32, attrs_dim u32, hist_total u64}
  events   count * {user u32, pin u32, event_seq u32, click u8, conversion u8,
           hour f64, profile f64[profile_dim], attrs f64[attrs_dim], hist_len u16}
  history  hist_total u32 pin ids, each event's hist_len ids in event order
  trailer  CRC-64 of everything above
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import KIND_CODES, PIN, USER, FeatureBundle, TrainingSample
from .errors import EmptyInputError, InvalidRatesError, IoFailureError
from .ioutil import SealedFormat, read_file, write_atomic

DAY_FILE = SealedFormat(b"DDAY", 2, "<4sIIIIIQ")

CLICK = "click"
CONVERSION = "conversion"

# stream tags, one per independent random quantity
_LATENT, _PROJ, _ACTIVITY, _EVENTS, _OBSDAY = range(5)

GAIN = 6.0
HISTORY_LEN = 8
EVENT_JITTER = 0.2


@dataclass(frozen=True)
class WorldConfig:
    num_users: int = 96
    num_pins: int = 96
    latent_dim: int = 6
    days: int = 18
    activity_rate: float = 0.75
    click_rate: float = 0.35
    conversion_rate: float = 0.12
    noise_level: float = 0.5
    events_per_user: float = 6.0
    seed: int = 0
    threshold_labels: bool = False

    def validate(self) -> None:
        """Each error's message starts with the key it is about."""
        for name in ("activity_rate", "click_rate", "conversion_rate"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidRatesError(f"{name} must lie in (0, 1), got {v}")
        if self.conversion_rate >= self.click_rate:
            raise InvalidRatesError(
                f"conversion_rate {self.conversion_rate} must be below "
                f"click_rate {self.click_rate}"
            )
        for name in ("num_users", "num_pins"):
            if getattr(self, name) < 2:
                raise InvalidRatesError(f"{name} must be >= 2")
        if self.latent_dim < 2 or self.latent_dim % 2:
            raise InvalidRatesError("latent_dim must be even and >= 2")
        if self.days < 1:
            raise InvalidRatesError("days must be >= 1")
        # written so that NaN fails too
        if not (0 <= self.noise_level < np.inf):
            raise InvalidRatesError("noise_level must be finite and >= 0")
        if not (0 < self.events_per_user < np.inf):
            raise InvalidRatesError("events_per_user must be finite and > 0")
        if not (0 <= self.seed < 2**64):
            raise InvalidRatesError(f"seed must lie in [0, 2**64), got {self.seed}")

    def task_subspace(self, task: str) -> slice:
        """Overlapping latent subspaces: each task sees 2/3 of the dimensions."""
        sub = (2 * self.latent_dim) // 3
        if task == CLICK:
            return slice(0, sub)
        if task == CONVERSION:
            return slice(self.latent_dim - sub, self.latent_dim)
        raise EmptyInputError(f"unknown task {task!r}")

    def intercept(self, task: str) -> float:
        rate = self.click_rate if task == CLICK else self.conversion_rate
        return float(np.log(rate / (1.0 - rate)))


class World:
    """Generator-side state; latents never leave this object."""

    def __init__(self, cfg: WorldConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed, _LATENT])
        self.user_latents = _unit_rows(rng.normal(size=(cfg.num_users, cfg.latent_dim)))
        self.pin_latents = _unit_rows(rng.normal(size=(cfg.num_pins, cfg.latent_dim)))
        prng = np.random.default_rng([cfg.seed, _PROJ])
        d = cfg.latent_dim
        self.user_proj = prng.normal(size=(d, d)) / np.sqrt(d)
        self.pin_proj = prng.normal(size=(d, d)) / np.sqrt(d)

    def active_ids(self, kind: str, day: int) -> list[int]:
        cfg = self.cfg
        total = cfg.num_users if kind == USER else cfg.num_pins
        rng = np.random.default_rng([cfg.seed, _ACTIVITY, KIND_CODES[kind], day])
        mask = rng.uniform(size=total) < cfg.activity_rate
        ids = [int(i) for i in np.flatnonzero(mask)]
        # degenerate days would starve in-batch negatives; force a floor
        if kind == PIN and len(ids) < 2:
            ids = [0, 1]
        if kind == USER and not ids:
            ids = [0]
        return ids

    def day_noise(self, kind: str, entity_id: int, day: int) -> np.ndarray:
        cfg = self.cfg
        rng = np.random.default_rng(
            [cfg.seed, _OBSDAY, KIND_CODES[kind], entity_id, day]
        )
        return rng.normal(size=cfg.latent_dim)

    def observe(self, kind: str, entity_id: int, day: int,
                jitter: np.ndarray | None = None) -> np.ndarray:
        cfg = self.cfg
        if kind == USER:
            base = self.user_proj @ self.user_latents[entity_id]
        else:
            base = self.pin_proj @ self.pin_latents[entity_id]
        out = base + cfg.noise_level * self.day_noise(kind, entity_id, day)
        if jitter is not None:
            out = out + cfg.noise_level * EVENT_JITTER * jitter
        return out

    def true_logit(self, task: str, user_id: int, pin_id: int) -> float:
        sub = self.cfg.task_subspace(task)
        zu = self.user_latents[user_id, sub]
        zp = self.pin_latents[pin_id, sub]
        return GAIN * float(zu @ zp) + self.cfg.intercept(task)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _label(world: World, task: str, user_id: int, pin_id: int,
           rng: np.random.Generator) -> int:
    cfg = world.cfg
    logit = world.true_logit(task, user_id, pin_id)
    logit += cfg.noise_level * float(rng.normal())
    if cfg.threshold_labels:
        return int(logit > 0.0)
    p = 1.0 / (1.0 + np.exp(-logit))
    return int(rng.uniform() < p)


def _sample(day: int, user: int, pin: int, seq: int, click: int, conversion: int,
            hour: np.ndarray, profile: np.ndarray, attrs: np.ndarray, hist: list[int]):
    return TrainingSample(
        user_id=user, pin_id=pin, day=day, event_seq=seq,
        user=FeatureBundle(dense={"profile": profile}, categorical={"uid": user},
                           sequence={"hist": hist}),
        pin=FeatureBundle(dense={"attrs": attrs}, categorical={"pid": pin}),
        context=FeatureBundle(dense={"hour": hour}),
        labels={CLICK: click, CONVERSION: conversion})


def generate_day(world: World, day: int,
                 history: dict[int, list[int]] | None = None) -> list[TrainingSample]:
    """All events for one day, with both task labels on every sample.

    history maps user id to pins clicked on PRIOR days; pass None to use
    empty histories (day files always embed the history actually seen).
    """
    cfg = world.cfg
    history = history if history is not None else {}
    rng = np.random.default_rng([cfg.seed, _EVENTS, day])
    users = world.active_ids(USER, day)
    pins = world.active_ids(PIN, day)
    samples = []
    seq = 0
    for u in users:
        count = 1 + rng.poisson(cfg.events_per_user - 1.0)
        for _ in range(count):
            p = int(pins[rng.integers(len(pins))])
            click = _label(world, CLICK, u, p, rng)
            conv = _label(world, CONVERSION, u, p, rng)
            hour = float(rng.uniform(-1.0, 1.0))
            jit_u = rng.normal(size=cfg.latent_dim)
            jit_p = rng.normal(size=cfg.latent_dim)
            samples.append(_sample(
                day, u, p, seq, click, conv, np.array([hour]),
                world.observe(USER, u, day, jit_u),
                world.observe(PIN, p, day, jit_p),
                list(history.get(u, [])[-HISTORY_LEN:])))
            seq += 1
    return samples


def generate_world(cfg: WorldConfig) -> dict[int, list[TrainingSample]]:
    """Day-keyed samples for days 1..cfg.days, histories threaded through."""
    world = World(cfg)
    history: dict[int, list[int]] = {}
    out = {}
    for day in range(1, cfg.days + 1):
        samples = generate_day(world, day, history)
        out[day] = samples
        for s in samples:
            if s.labels[CLICK]:
                history.setdefault(s.user_id, []).append(s.pin_id)
    return out


def positive_rates(data: dict[int, list[TrainingSample]]) -> dict[str, float]:
    counts = {CLICK: 0, CONVERSION: 0}
    total = 0
    for samples in data.values():
        for s in samples:
            total += 1
            counts[CLICK] += s.labels[CLICK]
            counts[CONVERSION] += s.labels[CONVERSION]
    if total == 0:
        raise EmptyInputError("world generated no events")
    return {k: v / total for k, v in counts.items()}


def _pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact ROC-AUC by pair counting; generator-side reference scorer."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise EmptyInputError("need both positive and negative labels")
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (len(pos) * len(neg)))


def oracle_auc_bound(cfg: WorldConfig, task: str,
                     days: list[int] | None = None) -> float:
    """ROC-AUC of scoring with the true noise-free logits over the given days.

    This is the ceiling any learned model can reach on the same split, up to
    label-noise luck.
    """
    world = World(cfg)
    data = generate_world(cfg)
    use = days if days is not None else sorted(data)
    scores, labels = [], []
    for day in use:
        for s in data[day]:
            scores.append(world.true_logit(task, s.user_id, s.pin_id))
            labels.append(s.labels[task])
    return _pair_count_auc(np.array(scores), np.array(labels))


# ---------------------------------------------------------------------------
# day-partitioned dataset files


def _event_type(profile_dim: int, attrs_dim: int) -> np.dtype:
    return np.dtype([("user", "<u4"), ("pin", "<u4"), ("event_seq", "<u4"),
                     ("click", "u1"), ("conversion", "u1"), ("hour", "<f8"),
                     ("profile", "<f8", (profile_dim,)), ("attrs", "<f8", (attrs_dim,)),
                     ("hist_len", "<u2")])


def day_file_bytes(day: int, samples: list[TrainingSample]) -> bytes:
    hists = [s.user.sequence.get("hist", []) for s in samples]
    dims = (len(samples[0].user.dense["profile"]),
            len(samples[0].pin.dense["attrs"])) if samples else (0, 0)
    events = np.array([(s.user_id, s.pin_id, s.event_seq, s.labels[CLICK],
                        s.labels[CONVERSION], s.context.dense["hour"][0],
                        s.user.dense["profile"], s.pin.dense["attrs"], len(h))
                       for s, h in zip(samples, hists)], _event_type(*dims))
    history = np.array([pin for h in hists for pin in h], "<u4")
    return DAY_FILE.pack((day, len(events), *dims, len(history)), events, history)


def parse_day_file(blob: bytes,
                   what="day file") -> tuple[int, list[TrainingSample]]:
    """The day and its samples, whose dense vectors view one copy of each column."""
    (day, *_, hist_total), (events, history) = DAY_FILE.unpack(
        blob, what, lambda day, count, profile_dim, attrs_dim, hist_total: [
            (_event_type(profile_dim, attrs_dim), count), ("<u4", hist_total)])
    lens = events["hist_len"].tolist()
    if sum(lens) != hist_total:
        raise IoFailureError(
            f"{what} declares {hist_total} history ids but its events hold {sum(lens)}")
    history = history.tolist()
    columns = [events[name].tolist()
               for name in ("user", "pin", "event_seq", "click", "conversion")]
    dense = [np.array(events[name]) for name in ("profile", "attrs")]
    return day, [
        _sample(day, *row, history[end - n:end]) for *row, n, end in zip(
            *columns, np.array(events["hour"])[:, None], *dense, lens,
            itertools.accumulate(lens))]


def day_file_name(day: int) -> str:
    return f"day{day:03d}.events"


def write_world_files(out_dir, cfg: WorldConfig) -> dict:
    """Generate and write world.json plus one sealed file per day.

    Returns the manifest written to world.json.
    """
    data = generate_world(cfg)
    for day, samples in sorted(data.items()):
        write_atomic(out_dir / day_file_name(day), day_file_bytes(day, samples))
    manifest = {
        "format_version": DAY_FILE.version,
        "config": asdict(cfg),
        "event_counts": {str(d): len(data[d]) for d in sorted(data)},
        "positive_rates": positive_rates(data),
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    write_atomic(out_dir / "world.json", text.encode("utf-8"))
    return manifest


def load_day_samples(path) -> tuple[int, list[TrainingSample]]:
    what = f"day file {path}"
    return parse_day_file(read_file(path, what), what)


def load_world_files(world_dir, days=None
                     ) -> tuple[WorldConfig, dict[int, list[TrainingSample]]]:
    """The world's config and its day-keyed samples.

    days limits the day files read (days outside 1..cfg.days are skipped);
    None reads every day.
    """
    manifest_path = world_dir / "world.json"
    try:
        cfg = WorldConfig(**json.loads(manifest_path.read_text())["config"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise IoFailureError(f"cannot read {manifest_path}: {e!r}") from e
    wanted = range(1, cfg.days + 1)
    if days is not None:
        wanted = sorted(set(days).intersection(wanted))
    data = {}
    for day in wanted:
        path = world_dir / day_file_name(day)
        found, data[day] = load_day_samples(path)
        if found != day:
            raise IoFailureError(f"day file {path} holds day {found}, not day {day}")
    return cfg, data
