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
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import KIND_CODES, PIN, USER, FeatureBundle, TrainingSample
from .errors import EmptyInputError, InvalidRatesError, IoFailureError
from .ioutil import SealedFormat, read_file, write_atomic

DAY_VERSION = 1
DAY_FILE = SealedFormat(b"DDAY", DAY_VERSION, "<4sIII")

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
            samples.append(TrainingSample(
                user_id=u,
                pin_id=p,
                day=day,
                event_seq=seq,
                user=FeatureBundle(
                    dense={"profile": world.observe(USER, u, day, jit_u)},
                    categorical={"uid": u},
                    sequence={"hist": list(history.get(u, [])[-HISTORY_LEN:])},
                ),
                pin=FeatureBundle(
                    dense={"attrs": world.observe(PIN, p, day, jit_p)},
                    categorical={"pid": p},
                ),
                context=FeatureBundle(dense={"hour": np.array([hour])}),
                labels={CLICK: click, CONVERSION: conv},
            ))
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


def day_file_bytes(day: int, samples: list[TrainingSample]) -> bytes:
    parts = []
    for s in samples:
        parts.append(struct.pack("<IIIBB", s.user_id, s.pin_id, s.event_seq,
                                 s.labels[CLICK], s.labels[CONVERSION]))
        parts.append(struct.pack("<d", float(s.context.dense["hour"][0])))
        for vec in (s.user.dense["profile"], s.pin.dense["attrs"]):
            parts.append(struct.pack("<H", len(vec)))
            parts.append(np.ascontiguousarray(vec, dtype="<f8").tobytes())
        hist = s.user.sequence.get("hist", [])
        parts.append(struct.pack("<H", len(hist)))
        parts.append(struct.pack(f"<{len(hist)}I", *hist))
    return DAY_FILE.pack((day, len(samples)), *parts)


def parse_day_file(blob: bytes,
                   what="day file") -> tuple[int, list[TrainingSample]]:
    (day, count), body, off = DAY_FILE.unpack(blob, what)
    samples = []
    for _ in range(count):
        u, p, seq, click, conv = struct.unpack_from("<IIIBB", body, off)
        off += struct.calcsize("<IIIBB")
        (hour,) = struct.unpack_from("<d", body, off)
        off += 8
        vecs = []
        for _ in range(2):
            (dim,) = struct.unpack_from("<H", body, off)
            off += 2
            vecs.append(np.frombuffer(body, dtype="<f8", count=dim,
                                      offset=off).astype(np.float64))
            off += 8 * dim
        (hlen,) = struct.unpack_from("<H", body, off)
        off += 2
        hist = list(struct.unpack_from(f"<{hlen}I", body, off))
        off += 4 * hlen
        samples.append(TrainingSample(
            user_id=u, pin_id=p, day=day, event_seq=seq,
            user=FeatureBundle(dense={"profile": vecs[0]},
                               categorical={"uid": u},
                               sequence={"hist": hist}),
            pin=FeatureBundle(dense={"attrs": vecs[1]},
                              categorical={"pid": p}),
            context=FeatureBundle(dense={"hour": np.array([hour])}),
            labels={CLICK: click, CONVERSION: conv},
        ))
    return day, samples


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
        "format_version": DAY_VERSION,
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
        d, samples = load_day_samples(world_dir / day_file_name(day))
        data[d] = samples
    return cfg, data
