"""Deterministic synthetic world: latent entities, daily events, two tasks.

Users and pins carry hidden latent vectors. Click labels depend on the dot
product over one latent subspace, conversion labels on a partially distinct
one (the subspaces share half their dimensions), so the two tasks overlap
without coinciding and embeddings learned on one transfer to the other.

Observable features are noisy linear projections of the latents, redrawn per
day with a small extra per-event jitter. Entities skip days at random, which
is what carry-over aggregation and back inference later have to deal with.

Every draw comes from a generator seeded by (seed, stream tag, ...indices),
so any day can be regenerated independently and bit-identically. A day's
event stream draws, in order:

  per active user  poisson(events_per_user - 1), its events beyond the first
  per event        integers(len(pins)); for click, then conversion: normal(),
                   then uniform() for its Bernoulli label; uniform(-1, 1) for
                   the hour; normal(size=latent_dim) for the user's jitter,
                   then again for the pin's

Only these draws run per event. Pin ids, labels, observations, histories and
the event table are per-day numpy, each value made by the same float
operations in the same order as one event at a time.

A day is one SampleBatch (see data), made from the event table a day file
holds, whether generate_day draws that table or parse_day_file reads it.

A day file is sealed (see ioutil), little-endian:

  header   {magic "DDAY", format_version u32 (2), day u32, count u32,
            profile_dim u32, attrs_dim u32, hist_total u64}
  events   count * {user u32, pin u32, event_seq u32, click u8, conversion u8,
           hour f64, profile f64[profile_dim], attrs f64[attrs_dim], hist_len u16}
  history  hist_total u32 pin ids, each event's hist_len ids in event order
  trailer  CRC-64 of everything above
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import KIND_CODES, PIN, USER, FeatureBundle, SampleBatch, pad_flat
from .errors import EmptyInputError, InvalidRatesError, IoFailureError
from .ioutil import SealedFormat, read_file, remove_file, write_atomic

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
        if not (1 <= self.events_per_user < np.inf):
            raise InvalidRatesError("events_per_user must be finite and >= 1")
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

    def observe(self, kind: str, entity_id: int, day: int) -> np.ndarray:
        cfg = self.cfg
        if kind == USER:
            base = self.user_proj @ self.user_latents[entity_id]
        else:
            base = self.pin_proj @ self.pin_latents[entity_id]
        return base + cfg.noise_level * self.day_noise(kind, entity_id, day)

    def true_logits(self, task: str, user: np.ndarray, pin: np.ndarray) -> np.ndarray:
        """The noise-free logit of each (user, pin) pair. The stacked matmul
        sums each pair's products as a 1-d dot does; (U * P).sum(1) does not."""
        sub = self.cfg.task_subspace(task)
        dots = (self.user_latents[user, sub][:, None, :]
                @ self.pin_latents[pin, sub][:, :, None])[:, 0, 0]
        return GAIN * dots + self.cfg.intercept(task)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def generate_day(world: World, day: int,
                 history: dict[int, list[int]] | None = None) -> SampleBatch:
    """All events for one day, with both task labels on every event.

    history maps user id to pins clicked on PRIOR days; pass None to use
    empty histories (day files always embed the history actually seen).
    """
    cfg = world.cfg
    history = history if history is not None else {}
    rng = np.random.default_rng([cfg.seed, _EVENTS, day])
    users = world.active_ids(USER, day)
    pins = world.active_ids(PIN, day)
    counts, picks, z, v, hour, jit = [], [], [], [], [], []
    for _ in users:
        counts.append(1 + rng.poisson(cfg.events_per_user - 1.0))
        for _ in range(counts[-1]):
            picks.append(rng.integers(len(pins)))
            for _ in (CLICK, CONVERSION):
                z.append(rng.normal())
                v.append(rng.uniform())
            hour.append(rng.uniform(-1.0, 1.0))
            jit.append(rng.normal(size=cfg.latent_dim))
            jit.append(rng.normal(size=cfg.latent_dim))
    z, v = np.array(z), np.array(v)
    jit = cfg.noise_level * EVENT_JITTER * np.reshape(jit, (-1, 2, cfg.latent_dim))

    user = np.repeat(users, counts)
    pin = np.take(pins, picks)
    distinct_pins, pin_row = np.unique(pin, return_inverse=True)

    labels = {}
    for i, task in enumerate((CLICK, CONVERSION)):
        logit = world.true_logits(task, user, pin)
        logit += cfg.noise_level * z[i::2]
        labels[task] = v[i::2] < 1.0 / (1.0 + np.exp(-logit))

    obs_user = np.array([world.observe(USER, u, day) for u in users])
    obs_pin = np.array([world.observe(PIN, p, day) for p in distinct_pins.tolist()])
    # history holds prior days only, so one slice serves all of a user's events
    hists = [history.get(u, [])[-HISTORY_LEN:] for u in users]
    flat = [p for h, count in zip(hists, counts) for p in h * count]
    hist_len = np.repeat([len(h) for h in hists], counts)
    return _batch(_event_table(
        user, pin, np.arange(len(hour)), labels[CLICK], labels[CONVERSION], hour,
        np.repeat(obs_user, counts, 0) + jit[:, 0], obs_pin[pin_row] + jit[:, 1],
        hist_len), flat)


def generate_world(cfg: WorldConfig) -> dict[int, SampleBatch]:
    """Day-keyed events for days 1..cfg.days, histories threaded through."""
    world = World(cfg)
    history: dict[int, list[int]] = {}
    out = {}
    for day in range(1, cfg.days + 1):
        batch = out[day] = generate_day(world, day, history)
        clicked = batch.labels[CLICK] == 1
        for u, p in zip(batch.user_id[clicked].tolist(),
                        batch.pin_id[clicked].tolist()):
            history.setdefault(u, []).append(p)
    return out


def positive_rates(data: dict[int, SampleBatch]) -> dict[str, float]:
    total = sum(map(len, data.values()))
    if total == 0:
        raise EmptyInputError("world generated no events")
    return {t: sum(int(b.labels[t].sum()) for b in data.values()) / total
            for t in (CLICK, CONVERSION)}


# ---------------------------------------------------------------------------
# day-partitioned dataset files


def _event_type(profile_dim: int, attrs_dim: int) -> np.dtype:
    return np.dtype([("user", "<u4"), ("pin", "<u4"), ("event_seq", "<u4"),
                     ("click", "u1"), ("conversion", "u1"), ("hour", "<f8"),
                     ("profile", "<f8", (profile_dim,)), ("attrs", "<f8", (attrs_dim,)),
                     ("hist_len", "<u2")])


def _event_table(*cols) -> np.ndarray:
    """One day's event table from its columns, in _event_type's field order."""
    events = np.zeros(len(cols[0]), _event_type(cols[6].shape[1], cols[7].shape[1]))
    for name, col in zip(events.dtype.names, cols):
        events[name] = col
    return events


def _batch(events: np.ndarray, history) -> SampleBatch:
    """The columns of one day's event table and its flat history."""
    user_id, pin_id = (events[k].astype(np.int64) for k in ("user", "pin"))
    return SampleBatch(
        user_id, pin_id, events["event_seq"].astype(np.int64),
        {t: events[t].astype(np.int64) for t in (CLICK, CONVERSION)},
        FeatureBundle({"profile": np.array(events["profile"])}, {"uid": user_id},
                      {"hist": pad_flat(history, events["hist_len"].astype(np.int64))}),
        FeatureBundle({"attrs": np.array(events["attrs"])}, {"pid": pin_id}),
        FeatureBundle({"hour": np.array(events["hour"])[:, None]}))


def day_file_bytes(day: int, batch: SampleBatch) -> bytes:
    hist, lengths = batch.user.sequence["hist"]
    profile, attrs = batch.user.dense["profile"], batch.pin.dense["attrs"]
    events = _event_table(
        batch.user_id, batch.pin_id, batch.event_seq, batch.labels[CLICK],
        batch.labels[CONVERSION], batch.context.dense["hour"][:, 0], profile,
        attrs, lengths)
    history = hist[np.arange(hist.shape[1]) < lengths[:, None]].astype("<u4")
    return DAY_FILE.pack((day, len(events), profile.shape[1], attrs.shape[1],
                          len(history)), events, history)


def parse_day_file(blob: bytes, what="day file") -> tuple[int, SampleBatch]:
    """The day and its events."""
    (day, *_, hist_total), (events, history) = DAY_FILE.unpack(
        blob, what, lambda day, count, profile_dim, attrs_dim, hist_total: [
            (_event_type(profile_dim, attrs_dim), count), ("<u4", hist_total)])
    if (total := int(events["hist_len"].sum())) != hist_total:
        raise IoFailureError(
            f"{what} declares {hist_total} history ids but its events hold {total}")
    return day, _batch(events, history)


def day_file_name(day: int) -> str:
    return f"day{day:03d}.events"


def write_world_files(out_dir, cfg: WorldConfig) -> dict:
    """Generate and write one sealed file per day, then world.json.

    The old world.json goes first, so a crash part way leaves no manifest
    and the world fails to load. Returns the manifest.
    """
    out_dir = Path(out_dir)
    data = generate_world(cfg)
    remove_file(out_dir / "world.json")
    for day, batch in sorted(data.items()):
        write_atomic(out_dir / day_file_name(day), day_file_bytes(day, batch))
    manifest = {
        "format_version": DAY_FILE.version,
        "config": asdict(cfg),
        "event_counts": {str(d): len(data[d]) for d in sorted(data)},
        "positive_rates": positive_rates(data),
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    write_atomic(out_dir / "world.json", text.encode("utf-8"))
    return manifest


def load_world_files(world_dir, days=None
                     ) -> tuple[WorldConfig, dict[int, SampleBatch]]:
    """The world's config and its day-keyed events.

    days limits the day files read (days outside 1..cfg.days are skipped);
    None reads every day.
    """
    world_dir = Path(world_dir)
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
        what = f"day file {path}"
        found, data[day] = parse_day_file(read_file(path, what), what)
        if found != day:
            raise IoFailureError(f"day file {path} holds day {found}, not day {day}")
    return cfg, data
