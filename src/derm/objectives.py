"""Training objectives for the upstream model.

The contrastive term is an in-batch sampled softmax between user and pin
embeddings with a popularity-bias correction: each candidate logit is
u.p/tau - log Q(p), where Q(p) is the pin's estimated in-batch frequency.
Only pairs carrying a positive label contribute; negatives are drawn from
the other pins of the same batch, without replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatchError, NonPositiveTauError
from .numerics import sigmoid

DEFAULT_NEGATIVES_PER_PAIR = 15


@dataclass
class ContrastiveResult:
    loss: float
    du: np.ndarray  # (B, D) grads w.r.t. user embeddings
    dp: np.ndarray  # (B, D) grads w.r.t. pin embeddings
    dlog_tau: float


def estimate_batch_frequencies(pin_ids: list[int]) -> dict[int, float]:
    """Q(p) = count of p in batch / batch size."""
    if not pin_ids:
        raise EmptyBatchError("cannot estimate frequencies of an empty batch")
    n = len(pin_ids)
    counts: dict[int, int] = {}
    for pid in pin_ids:
        counts[pid] = counts.get(pid, 0) + 1
    return {pid: c / n for pid, c in counts.items()}


def sampled_softmax_loss(
    U: np.ndarray,
    P: np.ndarray,
    pin_ids: list[int],
    positives: np.ndarray,
    q: dict[int, float],
    tau: float,
    negatives_per_pair: int = DEFAULT_NEGATIVES_PER_PAIR,
    rng_seed: int | np.random.Generator = 0,
) -> ContrastiveResult:
    """Bias-corrected in-batch sampled-softmax loss, averaged over positives.

    U and P are the batch's (B, D) unit-norm user and pin embeddings, pin_ids
    its B pin ids and positives its (B,) bool mask of labelled pairs.
    Returns the loss together with gradients w.r.t. every user embedding,
    every pin embedding involved as positive or sampled negative, and
    log(tau). A batch with no positive pairs yields loss 0 and zero grads
    instead of an error.
    """
    if tau <= 0:
        raise NonPositiveTauError(f"tau must be positive, got {tau}")
    rng = np.random.default_rng(rng_seed)  # a Generator passes through as is
    ids = np.asarray(pin_ids)
    du = np.zeros_like(U)
    dp = np.zeros_like(P)
    pos_idx = np.flatnonzero(positives)
    if not pos_idx.size:
        return ContrastiveResult(0.0, du, dp, 0.0)

    # member rows: the positive, then its negatives drawn from the other
    # batch positions holding a different pin, one draw per positive in
    # batch order; short rows are padded and masked out
    rows = []
    for i in pos_idx:
        cand = np.flatnonzero(ids != ids[i])
        k = min(negatives_per_pair, len(cand))
        negs = np.sort(rng.choice(len(cand), size=k, replace=False)) if k else []
        rows.append(np.concatenate(([i], cand[negs])))
    width = max(len(r) for r in rows)
    members = np.zeros((len(rows), width), dtype=np.int64)
    valid = np.arange(width) < np.array([len(r) for r in rows])[:, None]
    members[valid] = np.concatenate(rows)

    Ui = U[pos_idx]
    Pm = P[members]  # (positives, width, D)
    sims = (Pm @ Ui[:, :, None])[..., 0]
    log_q = np.log([q[pid] for pid in pin_ids])
    logits = np.where(valid, sims / tau - log_q[members], -np.inf)
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = e.sum(axis=1, keepdims=True)
    inv_n = 1.0 / len(pos_idx)
    loss = float((np.log(z) + m - logits[:, :1]).sum()) * inv_n
    # dL/dlogit_j = softmax_j - [j == positive]
    dlogit = e / z
    dlogit[:, 0] -= 1.0
    dlogit *= inv_n
    du[pos_idx] = (dlogit[:, None, :] @ Pm)[:, 0] / tau
    np.add.at(dp, members[valid], (dlogit[..., None] * Ui[:, None, :])[valid] / tau)
    dlog_tau = float((dlogit * (-sims / tau)).sum())
    return ContrastiveResult(loss, du, dp, dlog_tau)


def bce_loss(logit, label) -> tuple[np.ndarray, np.ndarray]:
    """Stable elementwise binary cross-entropy from logits; returns
    (loss, dloss/dlogit) shaped like the logits."""
    x = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    return loss, sigmoid(x) - y
