"""Downstream CTR/CVR consumers, evaluation metrics, sensitivity experiments.

The consumer model runs on whole minibatches of B rows (`FeatureBatch`):
  derm    (B, derm_dim) pretrained embeddings: one row number per input
          into that input's table of store vectors, gathered and
          concatenated, always projected to (B, projection_dim) and
          crossed by a small DCN stack (the quadratic cost lives in these
          feature interactions, which is why the projection feeds them)
  hist    (B, L) engagement-sequence ids padded with 0, and (B,) lengths;
          the (B, L, seq_dim) table rows are always pooled to (B, seq_dim)
          by one masked attention softmax; a row of length 0 pools to 0
  X       (B, concat_dim): base features, the crossed block, the presence
          flags and the pooled sequence, concatenated
  MoE     softmax gate (B, E) over E experts whose weights are stacked as
          (E, h, concat_dim) and (E, o, h): one matmul per layer gives the
          (E, B, h) hidden and (E, B, o) outputs, mixed by the gate to (B, o)
  head    scalar affine head, (B,) logits
Base features carry no entity ids; whatever id-level signal the consumer
gets arrives through the served embeddings.

A stack of M same-shape models (DownstreamModel.stack) puts a leading model
axis on every parameter and activation: features (M, B, d), weights
(M, h, d), experts (M, E, h, d), and one (M, P) row per model in the flat
training buffers. One forward/backward then steps all M models, and each
model's numbers are bit-for-bit those of its lone run. An experiment groups
its same-shape (arm, seed) models and cuts the groups into one batch of
stacks per CPU (at least MIN_STACK models to a cut stack); the calling
process trains the largest batch and forked worker processes, which
inherit their inputs, the others, and the reports, gathered by (arm,
seed), are the same bytes on any number of CPUs.

A missing store lookup is row 0 of its input's table, the zero vector, and
reads as presence flag 0, so serving gaps degrade smoothly instead of
erroring.
"""
from __future__ import annotations

import copy
import csv
import io
import math
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SampleBatch
from .errors import (
    DegenerateLabelsError,
    DermError,
    DivergedLossError,
    EmptyInputError,
    MissingBaselineError,
    ShapeMismatchError,
    UnknownTaskError,
    WorkerFailedError,
)
from .lifecycle import AggregationHeuristic
from .params import ParamDict, flat_views, zeros_like_params
from .store import StoreGeneration, StoreKey
from .trainer import sgd_step

CTR_TASK = "ctr"
CVR_TASK = "cvr"
TASK_LABELS = {CTR_TASK: "click", CVR_TASK: "conversion"}

# derm input name -> (source model tag, entity kind)
DERM_INPUTS = {
    "ctr-user": ("ctr-upstream", "user"),
    "ctr-pin": ("ctr-upstream", "pin"),
    "cvr-user": ("cvr-upstream", "user"),
    "cvr-pin": ("cvr-upstream", "pin"),
}


# ---------------------------------------------------------------------------
# metrics


def _check_binary(labels: np.ndarray) -> None:
    if labels.size == 0:
        raise DegenerateLabelsError("no labels")
    if not np.isin(labels, (0, 1)).all():
        raise DegenerateLabelsError("labels must be 0/1")


def _tie_blocks(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in a sorted array."""
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    return starts, np.diff(np.r_[starts, len(sorted_scores)])


def roc_auc(scores, labels) -> float:
    """Exact ROC-AUC via sorting; ties get half credit.

    Equals the pair-counting probability P(s+ > s-) + 0.5 P(s+ == s-).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_binary(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    starts, lengths = _tie_blocks(scores[order])
    # every member of a tie block gets the block's average 1-based rank
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * starts + lengths + 1), lengths)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: step-wise sum of precision over recall increments.

    Thresholds sweep distinct scores from high to low; a tie block enters
    as a whole before precision is read off.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_binary(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise DegenerateLabelsError("need at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    starts, lengths = _tie_blocks(scores[order])
    block_pos = np.add.reduceat(labels[order].astype(np.int64), starts)
    hit = block_pos > 0
    precision = np.cumsum(block_pos)[hit] / (starts + lengths)[hit]
    # cumsum adds the steps in threshold order, as a running sum would
    return float(np.cumsum(precision * (block_pos[hit] / n_pos))[-1])


@dataclass
class EvalReport:
    roc_auc: float
    pr_auc: float
    samples: int
    positives: int


# ---------------------------------------------------------------------------
# configuration and feature assembly


@dataclass(frozen=True)
class DownstreamConfig:
    task: str = CTR_TASK
    derm_inputs: tuple[str, ...] = ()
    projection_dim: int = 16
    num_experts: int = 4
    cross_layers: int = 2
    expert_hidden: int = 16
    expert_out: int = 16
    seq_dim: int = 6

    def validate(self, derm_dim_total: int | None = None) -> None:
        """Each error's message starts with the key it is about."""
        if self.task not in TASK_LABELS:
            raise UnknownTaskError(f"task {self.task!r} is not in {sorted(TASK_LABELS)}")
        for name in self.derm_inputs:
            if name not in DERM_INPUTS:
                raise UnknownTaskError(f"derm_inputs has unknown input {name!r}")
        if len(set(self.derm_inputs)) != len(self.derm_inputs):
            raise UnknownTaskError("derm_inputs must be distinct")
        if self.num_experts < 1:
            raise ShapeMismatchError("num_experts must be >= 1")
        if self.cross_layers < 0:
            raise ShapeMismatchError("cross_layers must be >= 0")
        if self.projection_dim < 1:
            raise ShapeMismatchError("projection_dim must be >= 1")
        if derm_dim_total is not None and self.projection_dim > derm_dim_total:
            raise ShapeMismatchError(
                f"projection_dim {self.projection_dim} exceeds the "
                f"concatenated embedding dim {derm_dim_total}"
            )

    @property
    def label(self) -> str:
        return TASK_LABELS[self.task]


@dataclass
class FeatureBatch:
    """A batch's model inputs. The embeddings are row numbers into small
    per-input tables, so a vector that many events share is held once; the
    dense derm and flags blocks are gathered from them when read."""

    base: np.ndarray  # (B, base_dim)
    rows: np.ndarray  # (B, n_inputs) int32 row of each input's table, 0: miss
    # one (R_k, d_k) table of L2-normalised vectors per input; row 0 is zero
    tables: tuple[np.ndarray, ...]
    hist: np.ndarray  # (B, L) int64 history ids, padded with 0
    hist_len: np.ndarray  # (B,) history lengths
    labels: np.ndarray  # (B,)
    # with one block of rows per arm, (A, B, n_inputs), the block each
    # stacked model reads
    arm: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def derm_dim(self) -> int:
        """The width of derm, read without gathering it."""
        return sum(t.shape[1] for t in self.tables)

    @property
    def derm(self) -> np.ndarray:
        """(..., B, derm_dim): each input's vectors, gathered and joined in
        input order; zeros where the store missed."""
        return np.concatenate(
            [np.zeros((*self.rows.shape[:-1], 0)),
             *(np.take(t, self.rows[..., k], axis=0)
               for k, t in enumerate(self.tables))], axis=-1)

    @property
    def flags(self) -> np.ndarray:
        """(..., B, n_inputs) presence flags: 1.0 where the store had the
        key, even for a stored zero vector."""
        return (self.rows > 0).astype(np.float64)

    def slice(self, idx) -> "FeatureBatch":
        """Rows idx. A (M, b) idx gives a stacked batch whose model m holds
        rows idx[m], of its own arm's block when arm is set. Only the row
        numbers are picked; the tables are shared."""
        pick = idx if self.arm is None else (self.arm[:, None], idx)
        return FeatureBatch(self.base[idx], self.rows[pick], self.tables,
                            self.hist[idx], self.hist_len[idx], self.labels[idx])


def build_features(samples: SampleBatch, cfg: DownstreamConfig,
                   generations: dict[str, StoreGeneration]) -> FeatureBatch:
    """Assemble the downstream input matrices for a batch of events.

    generations maps source tags to loaded store generations. Each input
    looks up each distinct id once; its table holds the zero vector in row
    0, for the ids the store misses (presence flag 0), then one row per id
    it has (flag 1, even for a stored zero vector).  Present vectors are
    L2-normalized so the consumer sees directions only: aggregation heuristics
    differ wildly in vector magnitude (lifetime sums grow without bound) and
    magnitude would otherwise dominate the projection layer's input scale.
    """
    B = len(samples)
    if not B:
        raise EmptyInputError("no samples to featurize")
    base = np.concatenate([samples.user.dense["profile"], samples.pin.dense["attrs"],
                           samples.context.dense["hour"]], axis=1)
    rows = np.zeros((B, len(cfg.derm_inputs)), dtype=np.int32)
    tables = []
    for k, name in enumerate(cfg.derm_inputs):
        source, kind = DERM_INPUTS[name]
        gen = generations[source]
        ids, inverse = np.unique(samples.user_id if kind == "user"
                                 else samples.pin_id, return_inverse=True)
        vecs = [gen.lookup(StoreKey(kind, i, source)) for i in ids.tolist()]
        hit = np.array([v is not None for v in vecs], dtype=bool)
        table = np.zeros((1 + int(hit.sum()), gen.dim))
        for r, vec in enumerate((v for v in vecs if v is not None), start=1):
            table[r] = vec
        # each row's own dot product, summed as np.linalg.norm sums one vector
        norms = np.sqrt((table[:, None, :] @ table[:, :, None])[:, 0, 0])
        np.divide(table, norms[:, None], out=table, where=norms[:, None] > 0.0)
        tables.append(table)
        rows[:, k] = np.where(hit, np.cumsum(hit), 0)[inverse]
    hist, hist_len = samples.user.sequence["hist"]
    return FeatureBatch(base, rows, tuple(tables), hist, hist_len,
                        samples.labels[cfg.label].astype(np.float64))


# ---------------------------------------------------------------------------
# model


def _t(x: np.ndarray) -> np.ndarray:
    """Swap the last two axes: the per-model transpose of a stacked matrix."""
    return x.swapaxes(-1, -2)


def _table_rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of ids in table.reshape(-1, seq_dim): in a stacked
    (M, V, seq_dim) table, model m's ids are offset by m * V."""
    if table.ndim == 2:
        return ids
    offsets = np.arange(0, table.shape[0] * table.shape[1], table.shape[1])
    return ids + offsets.reshape(-1, *(1,) * (ids.ndim - 1))


class DownstreamModel:
    """Hand-differentiated consumer model over assembled feature batches.

    Built from one seed, its parameters and batches have no model axis.
    DownstreamModel.stack puts same-shape models on a leading model axis M;
    forward and backward then step all M models at once, and model m of
    the stack computes exactly what it would alone.
    """

    def __init__(self, cfg: DownstreamConfig, base_dim: int, derm_dim: int,
                 seq_vocab: int, seed: int):
        cfg.validate(derm_dim if cfg.derm_inputs else None)
        self.cfg = cfg
        self.base_dim = base_dim
        self.derm_dim = derm_dim
        self.seq_vocab = seq_vocab
        self.seeds = (seed,)
        self.has_derm = bool(cfg.derm_inputs)
        self.proj_dim = cfg.projection_dim if self.has_derm else 0
        self.concat_dim = base_dim + self.proj_dim + cfg.seq_dim
        if self.has_derm:
            self.concat_dim += len(cfg.derm_inputs)  # presence flags
        self.params = self._init_params(seed)

    @property
    def stacked(self) -> bool:
        """Whether the parameters carry a leading model axis."""
        return self.params["head/b"].ndim == 2

    @property
    def shapes(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Each parameter's name and shape: models stack when these match."""
        return tuple((k, v.shape) for k, v in sorted(self.params.items()))

    @classmethod
    def stack(cls, models: list["DownstreamModel"]) -> "DownstreamModel":
        """One model whose parameters are the given models' stacked on a
        leading model axis, in order, and which keeps their seeds. It runs
        with the first one's config: equal shapes make the others'
        equivalent, as forward and backward read no input names."""
        first = models[0]
        if any(m.shapes != first.shapes for m in models):
            raise ShapeMismatchError("only models with equal parameter "
                                     "shapes can be stacked")
        out = copy.copy(first)
        out.seeds = tuple(m.seeds[0] for m in models)
        out.params = {k: np.stack([m.params[k] for m in models])
                      for k in first.params}
        return out

    def member(self, m: int) -> "DownstreamModel":
        """Model m of a stack, as a model without the model axis whose
        parameters view the stack's."""
        out = copy.copy(self)
        out.seeds = (self.seeds[m],)
        out.params = {k: v[m] for k, v in self.params.items()}
        return out

    def _init_params(self, seed: int) -> ParamDict:
        cfg = self.cfg
        rng = np.random.default_rng([seed, 0xD0DE])
        p: ParamDict = {}
        if self.has_derm:
            p["proj/W"] = rng.normal(size=(self.proj_dim, self.derm_dim)) \
                / np.sqrt(self.derm_dim)
            p["proj/b"] = np.zeros(self.proj_dim)
            for l in range(cfg.cross_layers):
                p[f"cross/{l}/W"] = rng.normal(
                    size=(self.proj_dim, self.proj_dim)) / np.sqrt(self.proj_dim)
                p[f"cross/{l}/b"] = np.zeros(self.proj_dim)
        p["seq/table"] = rng.normal(size=(self.seq_vocab, cfg.seq_dim)) \
            / np.sqrt(cfg.seq_dim)
        p["seq/query"] = rng.normal(size=cfg.seq_dim)
        d, E = self.concat_dim, cfg.num_experts
        p["moe/gate/W"] = rng.normal(size=(E, d)) / np.sqrt(d)
        p["moe/gate/b"] = np.zeros(E)
        # drawn expert by expert (W1 then W2), then stacked on a leading axis
        experts = [(rng.normal(size=(cfg.expert_hidden, d)) / np.sqrt(d),
                    rng.normal(size=(cfg.expert_out, cfg.expert_hidden))
                    / np.sqrt(cfg.expert_hidden)) for _ in range(E)]
        p["moe/experts/W1"] = np.stack([w1 for w1, _ in experts])
        p["moe/experts/b1"] = np.zeros((E, cfg.expert_hidden))
        p["moe/experts/W2"] = np.stack([w2 for _, w2 in experts])
        p["moe/experts/b2"] = np.zeros((E, cfg.expert_out))
        p["head/w"] = rng.normal(size=cfg.expert_out) / np.sqrt(cfg.expert_out)
        p["head/b"] = np.zeros(1)
        return p

    # forward ---------------------------------------------------------------
    # Every operation below reads leading axes as "...", so one code path
    # serves a single model and a stack. Matrix products are batched matmul
    # and reductions keep their axis's place in memory, so each model's
    # slice is summed in the order it would be alone (einsum is avoided: it
    # may reorder the sums).

    def forward(self, batch: FeatureBatch):
        cfg = self.cfg
        p = self.params
        pieces = [batch.base]
        cache: dict = {}
        if self.has_derm:
            if batch.derm_dim != self.derm_dim:
                raise ShapeMismatchError(
                    f"derm block is {batch.derm_dim}-dim, model expects "
                    f"{self.derm_dim}"
                )
            cache["derm"] = derm = batch.derm  # gathered once, for backward
            Z = derm @ _t(p["proj/W"]) + p["proj/b"][..., None, :]
            cache["Z0"] = Z
            zs, acts = [Z], []
            for l in range(cfg.cross_layers):
                A = zs[-1] @ _t(p[f"cross/{l}/W"]) \
                    + p[f"cross/{l}/b"][..., None, :]
                acts.append(A)
                zs.append(cache["Z0"] * A + zs[-1])
            cache["zs"], cache["acts"] = zs, acts
            pieces.append(zs[-1])
            pieces.append(batch.flags)
        table = p["seq/table"]
        mask = np.arange(batch.hist.shape[-1]) < batch.hist_len[..., None]
        rows = _table_rows(table, batch.hist)
        T = np.take(table.reshape(-1, cfg.seq_dim), rows, axis=0)
        scores = (T @ p["seq/query"][..., None, :, None])[..., 0] \
            * (1.0 / np.sqrt(cfg.seq_dim))
        top = np.max(scores, axis=-1, where=mask, initial=-np.inf,
                     keepdims=True)
        # masked positions, and every position of an empty row, get 0
        e = np.exp(np.where(mask, scores - top, -np.inf))
        total = e.sum(axis=-1, keepdims=True)
        a = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
        cache["seq"] = (mask, rows, T, a)  # T is (..., B, L, seq_dim)
        pieces.append((a[..., None, :] @ T)[..., 0, :])
        X = np.concatenate(pieces, axis=-1)
        cache["X"] = X
        G = X @ _t(p["moe/gate/W"]) + p["moe/gate/b"][..., None, :]
        G = G - G.max(axis=-1, keepdims=True)
        Pg = np.exp(G)
        Pg /= Pg.sum(axis=-1, keepdims=True)
        cache["Pg"] = Pg
        H = X[..., None, :, :] @ _t(p["moe/experts/W1"])  # (..., E, B, h)
        H += p["moe/experts/b1"][..., None, :]
        np.maximum(0.0, H, out=H)
        O = H @ _t(p["moe/experts/W2"])  # (..., E, B, o)
        O += p["moe/experts/b2"][..., None, :]
        out = (_t(Pg)[..., None] * O).sum(axis=-3)
        cache["H"], cache["O"], cache["moe_out"] = H, O, out
        logits = (out @ p["head/w"][..., None])[..., 0] + p["head/b"][..., :1]
        return logits, cache

    # backward --------------------------------------------------------------

    def backward(self, cache, dlogits: np.ndarray, grads: ParamDict) -> None:
        cfg = self.cfg
        p = self.params
        out = cache["moe_out"]
        grads["head/w"] += (_t(out) @ dlogits[..., None])[..., 0]
        grads["head/b"][..., 0] += dlogits.sum(axis=-1)
        dout = dlogits[..., None] * p["head/w"][..., None, :]

        X, Pg, H, O = cache["X"], cache["Pg"], cache["H"], cache["O"]
        dO = _t(Pg)[..., None] * dout[..., None, :, :]  # (..., E, B, o)
        dPg = _t((dout[..., None, :, :] * O).sum(axis=-1))
        grads["moe/experts/W2"] += _t(dO) @ H
        grads["moe/experts/b2"] += dO.sum(axis=-2)
        dH = dO @ p["moe/experts/W2"]  # (..., E, B, h)
        dH *= H > 0
        grads["moe/experts/W1"] += _t(dH) @ X[..., None, :, :]
        grads["moe/experts/b1"] += dH.sum(axis=-2)
        dX = (dH @ p["moe/experts/W1"]).sum(axis=-3)
        dG = Pg * (dPg - (dPg * Pg).sum(axis=-1, keepdims=True))
        grads["moe/gate/W"] += _t(dG) @ X
        grads["moe/gate/b"] += dG.sum(axis=-2)
        dX += dG @ p["moe/gate/W"]

        # split the concatenation layer gradient
        off = self.base_dim  # base features are inputs, not params
        if self.has_derm:
            dZL = dX[..., off:off + self.proj_dim]
            off += self.proj_dim + len(cfg.derm_inputs)  # flags are inputs
            zs, acts = cache["zs"], cache["acts"]
            Z0 = cache["Z0"]
            dZ = dZL.copy()
            dZ0 = np.zeros_like(Z0)
            for l in range(cfg.cross_layers - 1, -1, -1):
                dA = dZ * Z0
                dZ0 += dZ * acts[l]
                grads[f"cross/{l}/W"] += _t(dA) @ zs[l]
                grads[f"cross/{l}/b"] += dA.sum(axis=-2)
                dZ = dZ + dA @ p[f"cross/{l}/W"]
            dZ0 += dZ
            grads["proj/W"] += _t(dZ0) @ cache["derm"]
            grads["proj/b"] += dZ0.sum(axis=-2)
        mask, rows, T, a = cache["seq"]
        q = p["seq/query"]
        dpooled = dX[..., off:off + cfg.seq_dim]
        scale = 1.0 / np.sqrt(cfg.seq_dim)
        da = (T @ dpooled[..., None])[..., 0]  # (..., B, L)
        ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
        # (B * L, seq_dim) rows of each model against its (B * L) weights
        Tf = T.reshape(*T.shape[:-3], -1, cfg.seq_dim)
        grads["seq/query"] += (_t(Tf) @ ds.reshape(*Tf.shape[:-1], 1)
                               )[..., 0] * scale
        dT = ds[..., None] * q[..., None, None, :]
        dT *= scale
        dT += a[..., None] * dpooled[..., None, :]
        # one bincount adds up each table row's terms over the unmasked
        # (row, position) pairs in row-major order, as np.add.at would
        # into the zeroed gradient, for every model at once
        table = grads["seq/table"]
        cells = (rows[mask] * cfg.seq_dim)[:, None] + np.arange(cfg.seq_dim)
        table += np.bincount(cells.ravel(), weights=dT[mask].ravel(),
                             minlength=table.size).reshape(table.shape)

    def loss_and_grads(self, batch: FeatureBatch):
        logits, cache = self.forward(batch)
        loss, dlogits = _bce(logits, batch.labels)
        grads = zeros_like_params(self.params)
        self.backward(cache, dlogits, grads)
        return loss, grads


def _bce(logits: np.ndarray, y: np.ndarray):
    """Mean binary cross entropy over each model's batch (the last axis) and
    the logit gradient."""
    losses = np.maximum(logits, 0.0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
    # sigmoid via tanh stays finite for any logit magnitude
    sig = 0.5 * (1.0 + np.tanh(0.5 * logits))
    n = y.shape[-1]
    # a sum over n, as mean() takes it
    return losses.sum(axis=-1) / n, (sig - y) / n


# the optimizer settings every downstream run shares
MOMENTUM = 0.9
MAX_GRAD_NORM = 5.0
WEIGHT_DECAY = 1e-3


@dataclass(frozen=True)
class DownstreamTrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 4

    def validate(self) -> None:
        """Each error's message starts with the key it is about."""
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for key in ("batch_size", "epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")


def train_downstream(model: DownstreamModel, features: FeatureBatch,
                     cfg: DownstreamTrainConfig,
                     loss_log: list | None = None) -> None:
    """Minibatch momentum SGD on BCE; deterministic given (features, seeds).

    The learning rate decays linearly to a tenth of its starting value over
    the run so late epochs refine rather than overshoot.  Gradients are
    clipped by global norm and weights decay toward zero: the cross layers
    are multiplicative, so unchecked weight growth compounds through the
    forward pass until it overflows.

    A stacked model trains all its models in one loop, and each ends exactly
    as it would alone. Every model m, stacked or not, shuffles the rows with
    its own seed, model.seeds[m]; it reads its own arm's block of row
    numbers when features.arm is set, and clips by its own global norm. An
    unstacked model trains as a stack of one.

    The parameters become views of one flat (M, P) f64 buffer, one row per
    model, and the gradients views of another, so each step's clipping,
    weight decay and momentum update (trainer.sgd_step) are a few
    whole-buffer operations. loss_log gets each step's loss: a float for an
    unstacked model, else the (M,) losses. A DivergedLossError carries the
    epoch, the step and the stack index (model) of the model it names.
    """
    cfg.validate()
    n = len(features)
    if n == 0:
        raise EmptyInputError("no training features")
    stack = model if model.stacked else DownstreamModel.stack([model])
    flat, stack.params = flat_views(stack.params, lead=1)
    gflat, grads = flat_views(zeros_like_params(stack.params), lead=1)
    velocity = np.zeros_like(flat)
    total = cfg.epochs * ((n + cfg.batch_size - 1) // cfg.batch_size)
    step = 0
    for epoch in range(cfg.epochs):
        orders = np.stack([np.random.default_rng([seed, 0xD5, epoch])
                           .permutation(n) for seed in stack.seeds])
        for start in range(0, n, cfg.batch_size):
            batch = features.slice(orders[:, start:start + cfg.batch_size])
            logits, cache = stack.forward(batch)
            loss, dlogits = _bce(logits, batch.labels)
            diverged = np.flatnonzero(~np.isfinite(loss))
            if len(diverged):
                m = int(diverged[0])
                err = DivergedLossError(
                    f"non-finite downstream loss at epoch {epoch} in model "
                    f"{m} (seed {stack.seeds[m]})"
                )
                err.epoch, err.step, err.model = epoch, step, m
                raise err
            gflat[:] = 0.0
            stack.backward(cache, dlogits, grads)
            # each row's own dot product, summed as gflat[m] @ gflat[m] is
            gnorm = np.sqrt((gflat[:, None, :] @ gflat[:, :, None])[:, 0, 0])
            for m in np.flatnonzero(gnorm > MAX_GRAD_NORM):
                gflat[m] *= MAX_GRAD_NORM / gnorm[m]
            frac = step / total if total > 1 else 0.0
            lr = cfg.learning_rate * (1.0 - 0.9 * frac)
            gflat += WEIGHT_DECAY * flat
            sgd_step(flat, gflat, lr, MOMENTUM, velocity)
            step += 1
            if loss_log is not None:
                loss_log.append(loss if model.stacked else float(loss[0]))
    if stack is not model:
        model.params = stack.member(0).params


# the most rows one forward in evaluate scores: a forward's cache costs about
# 3.2 KB a row, so scoring a whole training set at once would set the peak
EVAL_ROWS = 512


def evaluate(model: DownstreamModel, features: FeatureBatch) -> EvalReport:
    """Metrics of one unstacked model (a stack's member(m)) on features.

    The model scores consecutive basic slices of at most EVAL_ROWS rows,
    each a view of the row numbers plus one small gather of their vectors,
    and only each slice's logits are kept, so memory does not grow with the
    rows scored. Up to EVAL_ROWS rows that is one forward over the
    whole batch, and the report is byte-identical to it; above, a logit may
    differ from a whole-batch forward's in the last bit, as matmul may round
    a row differently at another row count.
    """
    logits = np.empty(len(features))
    for start in range(0, len(features), EVAL_ROWS):
        rows = slice(start, start + EVAL_ROWS)
        logits[rows], _ = model.forward(features.slice(rows))
    y = features.labels.astype(int)
    return EvalReport(
        roc_auc=roc_auc(logits, y),
        pr_auc=pr_auc(logits, y),
        samples=len(features),
        positives=int(y.sum()),
    )


# ---------------------------------------------------------------------------
# sensitivity experiments


@dataclass(frozen=True)
class ArmSpec:
    """One experiment arm: which embeddings the consumer sees, from which
    aggregation heuristic's store."""

    name: str
    derm_inputs: tuple[str, ...] = ()
    heuristic_label: str = ""

    @property
    def is_baseline(self) -> bool:
        return not self.derm_inputs


@dataclass
class ArmResult:
    arm: str
    seed: int
    roc_auc: float
    pr_auc: float
    lift: float = 0.0


@dataclass
class ExperimentResult:
    task: str
    rows: list[ArmResult]
    summary: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["arm", "seed", "roc_auc", "pr_auc", "lift"])
        for r in self.rows:
            writer.writerow([r.arm, r.seed, f"{r.roc_auc:.6f}",
                             f"{r.pr_auc:.6f}", f"{r.lift:.6f}"])
        return buf.getvalue()

    def summary_text(self) -> str:
        lines = [f"task: {self.task}"]
        for arm, stats in self.summary.items():
            lines.append(
                f"  {arm:>16}: roc_auc {stats['roc_auc_mean']:.4f} "
                f"± {stats['roc_auc_std']:.4f}  pr_auc {stats['pr_auc_mean']:.4f} "
                f"± {stats['pr_auc_std']:.4f}  lift {stats['lift_mean']:+.4f}"
            )
        return "\n".join(lines) + "\n"


def run_sensitivity_experiment(
        task: str,
        arms: list[ArmSpec],
        seeds: list[int],
        train_samples: SampleBatch,
        test_samples: SampleBatch,
        generations_by_heuristic: dict[str, dict[str, StoreGeneration]],
        seq_vocab: int,
        model_cfg_base: DownstreamConfig = DownstreamConfig(),
        train_cfg: DownstreamTrainConfig = DownstreamTrainConfig()) -> ExperimentResult:
    """Train and evaluate every (arm, seed) pair against a shared baseline.

    Each arm reads store generations for its heuristic label; the baseline
    arm sees no embeddings at all. Lift is per-seed against the baseline.

    Arms whose models have equal shapes form a group, (arm, seed) models in
    arm-major order. _batches cuts the groups into one batch of stacks per
    worker, on W = min(CPUs, batches) workers: this process trains the
    largest batch and W - 1 forked children, which inherit their inputs,
    the others. Each model's reports are those of its lone run, whatever
    shares its stack, and are gathered by (arm, seed), so the result does
    not depend on W. A failed batch still lets the others end; the
    DermError raised is the one training the groups in turn in one process
    would raise first (_train_stacks). Every child is stopped and joined
    on the way out.
    """
    if not any(a.is_baseline for a in arms):
        raise MissingBaselineError("experiment grid lacks the no-embedding arm")
    if len({a.name for a in arms}) != len(arms):
        raise MissingBaselineError("arm names must be unique")
    inputs = {a.name: (replace(model_cfg_base, task=task,
                               derm_inputs=a.derm_inputs),
                       generations_by_heuristic.get(a.heuristic_label, {}))
              for a in arms}

    def stack_key(arm: ArmSpec) -> tuple:
        """The arm's parameter shapes and input widths, from one featurized
        row: a stack joins its arms' tables input by input."""
        cfg, gens = inputs[arm.name]
        row = build_features(train_samples[:1], cfg, gens)
        model = DownstreamModel(cfg, row.base.shape[1], row.derm_dim,
                                seq_vocab, seed=seeds[0])
        return model.shapes, tuple(t.shape[1] for t in row.tables)

    groups: dict[tuple, list[tuple[str, int]]] = {}
    for arm in arms:
        groups.setdefault(stack_key(arm), []).extend(
            (arm.name, seed) for seed in seeds)
    members = list(groups.values())
    batches = sorted(_batches([len(m) for m in members],
                              len(os.sched_getaffinity(0))),
                     key=lambda b: -sum(stop - start for _, start, stop in b))
    stacks = [[(g, start, members[g][start:stop]) for g, start, stop in batch]
              for batch in batches]
    common = (train_samples, test_samples, inputs, seq_vocab, train_cfg)
    import multiprocessing  # here, so that other commands do not load it
    # a forked child inherits its inputs, so nothing is pickled; derm runs
    # no thread here, and OpenBLAS stops its own pool across a fork
    ctx = multiprocessing.get_context("fork")
    children = []
    # a signal waits until every child is started and listed for the finally
    mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                  {signal.SIGINT, signal.SIGTERM})
    try:
        for batch in stacks[1:]:
            conn, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(child_end, batch, *common))
            proc.start()
            children.append((proc, conn))
            child_end.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = [_train_stacks(stacks[0], *common)]
        for proc, conn in children:
            try:
                outcomes.append(conn.recv())
            except EOFError:
                proc.join()
                raise WorkerFailedError(
                    f"experiment worker {proc.pid} exited with code "
                    f"{proc.exitcode}") from None
    finally:
        for proc, conn in children:
            proc.terminate()
            proc.join()
            conn.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    failures = [f for _, f in outcomes if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = {(name, seed): ArmResult(name, seed, *aucs)
               for reports, _ in outcomes
               for (name, seed), aucs in reports.items()}

    baseline_name = next(a.name for a in arms if a.is_baseline)
    for (name, seed), r in results.items():
        r.lift = r.roc_auc - results[(baseline_name, seed)].roc_auc

    rows = [results[(a.name, s)] for a in arms for s in seeds]
    summary = {}
    for arm in arms:
        rs = [results[(arm.name, s)] for s in seeds]
        summary[arm.name] = {
            "roc_auc_mean": float(np.mean([r.roc_auc for r in rs])),
            "roc_auc_std": float(np.std([r.roc_auc for r in rs])),
            "pr_auc_mean": float(np.mean([r.pr_auc for r in rs])),
            "pr_auc_std": float(np.std([r.pr_auc for r in rs])),
            "lift_mean": float(np.mean([r.lift for r in rs])),
        }
    return ExperimentResult(task, rows, summary)


# A cut stack holds at least this many models. At the grid benchmark's
# shapes (8 epochs, 4,263 events; best of 5 in-process runs on 2 vCPUs)
# stacks of 1 to 6 derm models trained in 0.43, 0.60, 0.72, 0.88, 1.05 and
# 1.18 s: each cut adds about 0.28 s of CPU. At 3 that grid's 6 + 2 models
# ran as 3 + 2 | 3 and took longer (medians 2.11 and 2.31 s over 6 and 10
# runs) than uncut as 6 | 2 at 4 (1.87 and 2.18 s).
MIN_STACK = 4


def _batches(sizes: list[int], workers: int) -> list[list[tuple[int, int, int]]]:
    """At most `workers` batches of stacks (group, start, stop) that cover
    groups of the given model counts, balanced by model count. Largest
    group first, each goes whole into the least loaded batch; a group that
    would fill it past its share of the models is cut there, if both parts
    keep MIN_STACK models, and its rest goes on to the next batch. A batch
    lists its stacks by group."""
    share = -(-sum(sizes) // workers)
    loads, batches = [0] * workers, [[] for _ in range(workers)]
    for g in sorted(range(len(sizes)), key=lambda g: -sizes[g]):
        start = 0
        while start < sizes[g]:
            b = loads.index(min(loads))
            take = sizes[g] - start
            if take > share - loads[b] and take >= 2 * MIN_STACK:
                take = min(max(share - loads[b], MIN_STACK), take - MIN_STACK)
            batches[b].append((g, start, start + take))
            loads[b] += take
            start += take
    return [sorted(b) for b in batches if b]


def _train_stacks(stacks, train_samples: SampleBatch,
                  test_samples: SampleBatch, inputs: dict, seq_vocab: int,
                  train_cfg: DownstreamTrainConfig):
    """Train and evaluate stacks (g, start, members) in turn, each holding
    members[start:] of group g as (arm name, seed) pairs; inputs maps arm
    names to (config, generations). Returns each model's (roc_auc, pr_auc)
    by (arm, seed), and None or, for the first stack that raised a
    DermError, (key, error). The key orders failures as one process that
    trains whole groups in turn meets them: by group, then step, then the
    model's place in its group (a DivergedLossError); any other error sorts
    after its group's steps."""
    reports = {}
    for g, start, members in stacks:
        arms = list(dict.fromkeys(name for name, _ in members))
        try:
            feats = _stacked_features(train_samples,
                                      [inputs[name] for name in arms],
                                      [arms.index(name) for name, _ in members])
            stack = DownstreamModel.stack([
                DownstreamModel(inputs[name][0], feats.base.shape[1],
                                feats.derm_dim, seq_vocab, seed=seed)
                for name, seed in members])
            train_downstream(stack, feats, train_cfg)
            del feats  # before the test features are built
            for name in arms:
                test_feats = build_features(test_samples, *inputs[name])
                for m, member in enumerate(members):
                    if member[0] == name:
                        report = evaluate(stack.member(m), test_feats)
                        reports[member] = (report.roc_auc, report.pr_auc)
            del stack, test_feats  # before the next stack is built
        except DivergedLossError as e:
            name, seed = members[e.model]
            return reports, ((g, e.step, start + e.model), DivergedLossError(
                f"non-finite downstream loss at epoch {e.epoch} in arm "
                f"{name} (seed {seed})"))
        except DermError as e:
            return reports, ((g, math.inf, start), e)
    return reports, None


def _work(conn, *job) -> None:
    """A worker's entry point, in a forked child that holds its batch and
    inputs as the parent did: send back what _train_stacks(*job) returns."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
    # with terminate(): a SIGTERM held across the fork ends it here
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    conn.send(_train_stacks(*job))


def _stacked_features(samples: SampleBatch,
                      arm_inputs: list[tuple[DownstreamConfig, dict]],
                      arm: list[int]) -> FeatureBatch:
    """The features of each (config, generations) arm in one FeatureBatch:
    one copy of the columns every arm shares, one (A, n, n_inputs) block of
    row numbers, one table per input that joins the arms' tables under a
    shared zero row (each arm's hits shifted past the earlier arms'), and
    the block each stacked model reads, arm[m]. The arms' inputs must have
    equal widths, input by input."""
    first, rows, arm_tables = None, [], []
    for cfg, gens in arm_inputs:
        feats = build_features(samples, cfg, gens)
        if first is None:
            first = feats
        rows.append(feats.rows)
        arm_tables.append(feats.tables)
        del feats  # its base block, before the next arm's is built
    rows = np.stack(rows)
    tables = []
    for k in range(rows.shape[-1]):
        hits = [t[k][1:] for t in arm_tables]
        shift = np.cumsum([0, *map(len, hits[:-1])], dtype=np.int32)
        rows[..., k] += np.where(rows[..., k] > 0, shift[:, None], 0)
        tables.append(np.concatenate([arm_tables[0][k][:1], *hits]))
    return FeatureBatch(first.base, rows, tuple(tables), first.hist,
                        first.hist_len, first.labels, arm=np.asarray(arm))


def heuristic_arms(derm_inputs: tuple[str, ...],
                   heuristics: list[AggregationHeuristic]) -> list[ArmSpec]:
    arms = [ArmSpec("baseline")]
    for h in heuristics:
        arms.append(ArmSpec(h.label, derm_inputs, h.label))
    return arms


def input_count_arms(heuristic: AggregationHeuristic) -> list[ArmSpec]:
    arms = [ArmSpec("baseline")]
    for name in DERM_INPUTS:
        arms.append(ArmSpec(name, (name,), heuristic.label))
    arms.append(ArmSpec("all-four", tuple(DERM_INPUTS), heuristic.label))
    return arms
