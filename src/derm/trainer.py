"""Optimization loop: batch window training, then daily incremental resumes.

The regime has two phases. Batch training runs a configured number of epochs
over an extended day window and ends in a snapshot whose watermark is the last
window day. Incremental training consumes exactly one new day per call, resumed
from a snapshot, and advances the watermark by one.

Determinism contract: every batch order and every negative draw comes from a
generator seeded by (rng_seed, day, epoch), so a run resumed from a snapshot
replays the same streams as an uninterrupted run, bit for bit.

A snapshot file is sealed (see ioutil), little-endian:

  header    {magic "DSNP", format_version u32 (2), watermark_day u32,
             rng_seed u64, arrays u32, name_width u32, dims u32, size u64}
  layout    arrays * {name utf-8 NUL-padded to name_width, ndim u8}, by name
  dims      dims u32, each array's shape in layout order
  params    size f64, the arrays flattened in layout order
  velocity  size f64, the momentum buffer in the same layout
  trailer   CRC-64 of everything above
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import SampleBatch
from .errors import (
    DivergedLossError,
    EmptyWindowError,
    IoFailureError,
    WatermarkGapError,
)
# crc64 stays importable from here: perfbench's patcher test wraps it here
from .ioutil import SealedFormat, crc64, read_file, write_atomic  # noqa: F401
from .objectives import bce_loss, estimate_batch_frequencies, sampled_softmax_loss
from .params import (ParamDict, clone_params, flat_views, flatten_params,
                     unflatten_params, zeros_like_params)
from .towers import (
    UpstreamModel,
    embed_entity,
    embed_entity_backward,
    interaction_backward,
    interaction_forward,
)

SNAPSHOT = SealedFormat(b"DSNP", 2, "<4sIIQIIIQ")

# stream tags keep evaluation draws disjoint from any (day, epoch) pair
EVAL_STREAM = 0x7FFFFFFF


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.0
    batch_size: int = 8
    epochs: int = 2
    negatives_per_pair: int = 15
    seed: int = 0
    contrastive_weight: float = 1.0
    supervised_weight: float = 1.0

    def validate(self) -> None:
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 for in-batch negatives, got {self.batch_size}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.negatives_per_pair < 0:
            raise ValueError("negatives_per_pair must be >= 0")
        if not (0 <= self.seed < 2**64):  # a snapshot stores it as a u64
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not (self.contrastive_weight >= 0.0):
            raise ValueError(
                f"contrastive_weight must be >= 0, got {self.contrastive_weight}")
        if not (self.supervised_weight >= 0.0):
            raise ValueError(
                f"supervised_weight must be >= 0, got {self.supervised_weight}")


@dataclass
class ModelSnapshot:
    watermark_day: int
    rng_seed: int
    params: ParamDict
    velocity: ParamDict


def make_snapshot(model: UpstreamModel, watermark_day: int, rng_seed: int,
                  velocity: ParamDict | None = None) -> ModelSnapshot:
    vel = clone_params(velocity) if velocity is not None else zeros_like_params(model.params)
    return ModelSnapshot(watermark_day, rng_seed, clone_params(model.params), vel)


def apply_snapshot(model: UpstreamModel, snapshot: ModelSnapshot) -> None:
    """Load a copy of the snapshot weights into the model."""
    model.params = clone_params(snapshot.params)


def sgd_step(flat: np.ndarray, grad: np.ndarray, lr: float,
             momentum: float = 0.0, velocity: np.ndarray | None = None) -> None:
    """In-place SGD on one flat parameter buffer and its flat gradient.

    With momentum: v <- momentum * v + g; p <- p - lr * v. At momentum 0 the
    velocity is not touched, so it stays as it was (zero from a fresh start).
    """
    if momentum > 0.0:
        velocity *= momentum
        velocity += grad
        flat -= lr * velocity
    else:
        flat -= lr * grad


def batch_step(model: UpstreamModel, batch: SampleBatch,
               cfg: TrainConfig, rng: np.random.Generator,
               grads: ParamDict) -> float:
    """One combined forward/backward pass over a minibatch.

    Adds the gradients into grads, which the caller zeroes, and returns the
    combined loss: contrastive_weight times the sampled softmax plus
    supervised_weight times the mean BCE of the interaction logits. The
    contrastive positives are the events whose label for the model's task is 1.
    """
    B = len(batch)
    U, user_cache = embed_entity(model.user_cfg, model.params, "user", batch.user)
    P, pin_cache = embed_entity(model.pin_cfg, model.params, "pin", batch.pin)

    labels = batch.labels[model.task]
    pin_ids = batch.pin_id.tolist()
    q = estimate_batch_frequencies(pin_ids)
    con = sampled_softmax_loss(U, P, pin_ids, labels == 1, q, tau=model.temperature,
                               negatives_per_pair=cfg.negatives_per_pair, rng_seed=rng)

    w_con, w_sup = cfg.contrastive_weight, cfg.supervised_weight
    grads["log_tau"][0] += w_con * con.dlog_tau

    logits, inter_cache = interaction_forward(model, U, P, batch.context)
    losses, dl = bce_loss(logits, labels)
    total = w_con * con.loss + w_sup * (float(losses.sum()) / B)

    dU, dP = interaction_backward(model, inter_cache, w_sup * dl / B, grads)
    embed_entity_backward(model.user_cfg, model.params, "user", user_cache,
                          w_con * con.du + dU, grads)
    embed_entity_backward(model.pin_cfg, model.params, "pin", pin_cache,
                          w_con * con.dp + dP, grads)
    return total


def _train(model: UpstreamModel, runs, cfg: TrainConfig, rng_seed: int,
           velocity: ParamDict, loss_log: list | None) -> ParamDict:
    """Step the model through (day, epoch, events) runs; returns the velocity.

    The parameters, the gradients and the velocity (copied, so the caller's
    stays as it was) each become name->array views of one flat buffer, so
    every step is a few whole-buffer operations.
    """
    flat, model.params = flat_views(model.params)
    gflat, grads = flat_views(zeros_like_params(model.params))
    vflat, velocity = flat_views(velocity)
    for day, epoch, events in runs:
        rng = np.random.default_rng([rng_seed, day, epoch])
        order = rng.permutation(len(events))
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            gflat[:] = 0.0
            loss = batch_step(model, events[order[start:start + cfg.batch_size]],
                              cfg, rng, grads)
            if not np.isfinite(loss):
                raise DivergedLossError(
                    f"non-finite loss {loss} at day {day} epoch {epoch} batch {bi}; "
                    f"lower the learning rate"
                )
            sgd_step(flat, gflat, cfg.learning_rate, cfg.momentum, vflat)
            if loss_log is not None:
                loss_log.append((day, epoch, bi, loss))
    return velocity


def train_batch_window(model: UpstreamModel,
                       data_by_day: dict[int, SampleBatch],
                       cfg: TrainConfig,
                       loss_log: list | None = None) -> ModelSnapshot:
    """Epochs over an extended day window; snapshot watermark = last window day."""
    cfg.validate()
    days = sorted(data_by_day)
    if not days or all(len(data_by_day[d]) == 0 for d in days):
        raise EmptyWindowError("batch window contains no training samples")
    runs = [(day, epoch, data_by_day[day]) for epoch in range(cfg.epochs)
            for day in days if data_by_day[day]]
    velocity = _train(model, runs, cfg, cfg.seed,
                      zeros_like_params(model.params), loss_log)
    return make_snapshot(model, days[-1], cfg.seed, velocity)


def train_incremental(snapshot: ModelSnapshot, new_day: int,
                      events: SampleBatch, cfg: TrainConfig,
                      model: UpstreamModel,
                      loss_log: list | None = None) -> ModelSnapshot:
    """Single pass over one new day, resumed from the snapshot state."""
    cfg.validate()
    if new_day != snapshot.watermark_day + 1:
        raise WatermarkGapError(
            f"incremental day {new_day} does not follow watermark "
            f"{snapshot.watermark_day}"
        )
    apply_snapshot(model, snapshot)
    velocity = _train(model, [(new_day, 0, events)], cfg, snapshot.rng_seed,
                      snapshot.velocity, loss_log)
    return make_snapshot(model, new_day, snapshot.rng_seed, velocity)


def evaluate_loss(model: UpstreamModel, events: SampleBatch,
                  cfg: TrainConfig) -> float:
    """Mean combined loss over a batch of events, no updates, fixed eval stream."""
    if not len(events):
        raise EmptyWindowError("no samples to evaluate")
    rng = np.random.default_rng([cfg.seed, EVAL_STREAM])
    total = 0.0
    grads = zeros_like_params(model.params)  # a sink; never read
    for start in range(0, len(events), cfg.batch_size):
        batch = events[start:start + cfg.batch_size]
        total += batch_step(model, batch, cfg, rng, grads) * len(batch)
    return total / len(events)


# ---------------------------------------------------------------------------
# snapshot serialization


def _layout_type(name_width: int) -> np.dtype:
    return np.dtype([("name", f"S{name_width}"), ("ndim", "u1")])


def snapshot_bytes(snapshot: ModelSnapshot) -> bytes:
    params, layout = flatten_params(snapshot.params)
    names = [name.encode("utf-8") for name, _ in layout]
    width = max(map(len, names), default=0)
    table = np.array([(name, len(shape)) for name, (_, shape) in zip(names, layout)],
                     _layout_type(width))
    dims = np.array([d for _, shape in layout for d in shape], "<u4")
    velocity = flatten_params(snapshot.velocity)[0]
    return SNAPSHOT.pack((snapshot.watermark_day, snapshot.rng_seed, len(table), width,
                          len(dims), len(params)), table, dims, params.astype("<f8"),
                         velocity.astype("<f8"))


def save_snapshot(snapshot: ModelSnapshot, path) -> None:
    write_atomic(path, snapshot_bytes(snapshot))


def load_snapshot(path) -> ModelSnapshot:
    what = f"snapshot {path}"
    (watermark, rng_seed, *_), (table, dims, params, velocity) = SNAPSHOT.unpack(
        read_file(path, what), what, lambda day, seed, arrays, width, dims, size: [
            (_layout_type(width), arrays), ("<u4", dims), ("<f8", size), ("<f8", size)])
    ndims, dims = table["ndim"].tolist(), dims.tolist()
    shapes = [tuple(dims[e - n:e]) for n, e in zip(ndims, itertools.accumulate(ndims))]
    if sum(ndims) != len(dims) or sum(map(math.prod, shapes)) != len(params):
        raise IoFailureError(f"{what} has array shapes that disagree with its sizes")
    try:
        layout = [(n.decode("utf-8"), s) for n, s in zip(table["name"].tolist(), shapes)]
    except UnicodeDecodeError as e:
        raise IoFailureError(f"{what} has a name that is not UTF-8: {e}") from e
    return ModelSnapshot(watermark, rng_seed,
                         unflatten_params(params, layout),
                         unflatten_params(velocity, layout))
