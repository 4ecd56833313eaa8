"""Multi-tower upstream model with hand-derived backprop, run on whole batches.

A tower reads one batch's FeatureBundle (see data), one column per slot
of its spec: dense (B, dim) rows, categorical (B,) ids, and sequences as
(B, L) ids padded with the reserved id 0 plus (B,) lengths; an empty
history reads id 0. A missing column, a dense width other than the slot's
or an id outside the slot's range is an error.
The slot tokens are mixed into (B, n, d) tokens and refined through
stacked layers, one per block pair, every layer summing its two
feature-interaction blocks plus a shortcut. Entity towers L2-normalize each
flattened row into the served (B, D) embeddings. build_upstream_model makes
the interaction tower itself: its slots are both entity embeddings, their
dot product and the given context slots, and it feeds one affine head with
(B,) logits for the model's task, so context never touches the entity
embeddings themselves.

Block kinds, each taking inputs with any leading axes (..., n, d):
  masknet   - sigmoid gate from the (flattened) block input applied to a
              linear projection of the same input
  attention - single-head scaled dot-product self-attention over tokens
  mlp       - two-layer ReLU on the flattened tokens

Every forward returns a cache consumed by the matching backward; backward
adds parameter gradients summed over all rows (rows(dY).T @ rows(X), one
np.add.at per embedding table) into a flat ParamDict and returns the
gradient w.r.t. the block input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeMismatchError, UnknownCategoricalIdError, ZeroNormError
from .numerics import NORM_EPS, sigmoid
from .params import ParamDict

DENSE = "dense"
CATEGORICAL = "categorical"
SEQUENCE = "sequence"

BLOCK_KINDS = ("masknet", "attention", "mlp")

# interaction-tower slot names for the entity-tower outputs
USER_EMB_SLOT = "user_emb"
PIN_EMB_SLOT = "pin_emb"
UDOTP_SLOT = "u_dot_p"

TAU_INIT = 0.07  # the contrastive temperature a new model starts from


@dataclass(frozen=True)
class SlotSpec:
    name: str
    kind: str  # dense | categorical | sequence
    dim: int = 0  # dense input width
    cardinality: int = 0  # id space for categorical/sequence; 0 is reserved

    def validate(self) -> None:
        if self.kind not in (DENSE, CATEGORICAL, SEQUENCE):
            raise ShapeMismatchError(f"slot {self.name}: unknown kind {self.kind!r}")
        if self.kind == DENSE and self.dim < 1:
            raise ShapeMismatchError(f"dense slot {self.name} needs dim >= 1")
        if self.kind in (CATEGORICAL, SEQUENCE) and self.cardinality < 1:
            raise ShapeMismatchError(f"slot {self.name} needs cardinality >= 1")


@dataclass(frozen=True)
class TowerConfig:
    slots: tuple[SlotSpec, ...]
    blocks: tuple[tuple[str, str], ...] = (("mlp", "masknet"),)
    token_dim: int = 8
    num_tokens: int = 4

    @property
    def output_dim(self) -> int:
        return self.token_dim * self.num_tokens

    def validate(self) -> None:
        if not self.slots:
            raise ShapeMismatchError("tower needs at least one input slot")
        for s in self.slots:
            s.validate()
        if not self.blocks:
            raise ShapeMismatchError("tower needs at least one layer of blocks")
        for pair in self.blocks:
            if len(pair) != 2 or any(k not in BLOCK_KINDS for k in pair):
                raise ShapeMismatchError(f"bad block pair {pair!r}")
        if self.token_dim < 1 or self.num_tokens < 1:
            raise ShapeMismatchError("token_dim and num_tokens must be >= 1")


# ---------------------------------------------------------------------------
# parameter initialization


def init_tower_params(
    cfg: TowerConfig, rng: np.random.Generator, prefix: str, params: ParamDict
) -> None:
    """Create this tower's parameters under `prefix/` in params.

    Creation order is fixed (slots in spec order, then mixer, then layers)
    so a given seed always produces the same values.
    """
    cfg.validate()
    d, n = cfg.token_dim, cfg.num_tokens
    flat = d * n
    for s in cfg.slots:
        if s.kind == DENSE:
            params[f"{prefix}/slot/{s.name}/W"] = rng.normal(
                0.0, 1.0 / np.sqrt(s.dim), (d, s.dim)
            )
            params[f"{prefix}/slot/{s.name}/b"] = np.zeros(d)
        else:
            params[f"{prefix}/slot/{s.name}/table"] = rng.normal(
                0.0, 1.0 / np.sqrt(d), (s.cardinality, d)
            )
    nslots = len(cfg.slots)
    params[f"{prefix}/mix/M"] = rng.normal(0.0, 1.0 / np.sqrt(nslots), (n, nslots))
    for li, (ka, kb) in enumerate(cfg.blocks):
        for tag, kind in (("a", ka), ("b", kb)):
            bp = f"{prefix}/layer{li}/{tag}"
            if kind == "masknet":
                params[f"{bp}/Wg"] = rng.normal(0.0, 1.0 / np.sqrt(flat), (flat, flat))
                params[f"{bp}/bg"] = np.zeros(flat)
                params[f"{bp}/Wp"] = rng.normal(0.0, 1.0 / np.sqrt(flat), (flat, flat))
                params[f"{bp}/bp"] = np.zeros(flat)
            elif kind == "attention":
                for w in ("Wq", "Wk", "Wv", "Wo"):
                    params[f"{bp}/{w}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
            else:  # mlp
                params[f"{bp}/W1"] = rng.normal(0.0, 1.0 / np.sqrt(flat), (flat, flat))
                params[f"{bp}/b1"] = np.zeros(flat)
                params[f"{bp}/W2"] = rng.normal(0.0, 1.0 / np.sqrt(flat), (flat, flat))
                params[f"{bp}/b2"] = np.zeros(flat)


# ---------------------------------------------------------------------------
# featurization: bundle columns -> slot token tensor


def _column(s: SlotSpec, bundle):
    """Slot s's column of a bundle, after its shape or id-range check."""
    col = getattr(bundle, s.kind).get(s.name)
    if col is None:
        raise ShapeMismatchError(f"slot {s.name}: no {s.kind} column in the bundle")
    if s.kind == DENSE and (col.ndim != 2 or col.shape[1] != s.dim):
        raise ShapeMismatchError(
            f"slot {s.name}: expected dense dim {s.dim}, got shape {col.shape}")
    if s.kind != DENSE:
        ids = col[0] if s.kind == SEQUENCE else col
        bad = ids[(ids < 0) | (ids >= s.cardinality)]
        if bad.size:
            raise UnknownCategoricalIdError(
                f"slot {s.name}: id {bad[0]} outside [0, {s.cardinality})")
    return col


def _history(col):
    """A sequence column's ids, the mask of the ids read and their count;
    an empty history reads the padding id 0."""
    ids, lengths = col
    n = np.maximum(lengths, 1)[:, None]
    return ids, np.arange(ids.shape[1]) < n, n


def _featurize(cfg, params, prefix, bundle):
    """Slot tokens (B, slots, d) and the slot columns read: affine dense
    rows, table rows for ids, and the mean of the table rows over a history."""
    cols = [_column(s, bundle) for s in cfg.slots]
    tokens = []
    for s, col in zip(cfg.slots, cols):
        key = f"{prefix}/slot/{s.name}"
        if s.kind == DENSE:
            tokens.append(col @ params[f"{key}/W"].T + params[f"{key}/b"])
        elif s.kind == CATEGORICAL:
            tokens.append(params[f"{key}/table"][col])
        else:
            ids, mask, n = _history(col)
            tokens.append((params[f"{key}/table"][ids] * mask[..., None]).sum(axis=1) / n)
    return np.stack(tokens, axis=1), cols


def _featurize_backward(cfg, prefix, params, cols, dtokens, grads, want_input_grads):
    input_grads: dict[str, np.ndarray] = {}
    for i, (s, col) in enumerate(zip(cfg.slots, cols)):
        key = f"{prefix}/slot/{s.name}"
        dt = dtokens[:, i]
        if s.kind == DENSE:
            grads[f"{key}/W"] += dt.T @ col
            grads[f"{key}/b"] += dt.sum(axis=0)
            if want_input_grads:
                input_grads[s.name] = dt @ params[f"{key}/W"]
        elif s.kind == CATEGORICAL:
            np.add.at(grads[f"{key}/table"], col, dt)
        else:
            ids, mask, n = _history(col)
            share = np.broadcast_to((dt / n)[:, None], mask.shape + dt.shape[1:])
            np.add.at(grads[f"{key}/table"], ids[mask], share[mask])
    return input_grads


# ---------------------------------------------------------------------------
# blocks: inputs carry any leading axes; weight gradients sum over all rows


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _masknet_forward(x_flat, P, bp):
    h = x_flat @ P[f"{bp}/Wg"].T + P[f"{bp}/bg"]
    g = sigmoid(h)
    q = x_flat @ P[f"{bp}/Wp"].T + P[f"{bp}/bp"]
    return g * q, (x_flat, g, q)


def _masknet_backward(dy, cache, P, bp, grads):
    x, g, q = cache
    dg = dy * q
    dq = dy * g
    dh = dg * g * (1.0 - g)
    grads[f"{bp}/Wg"] += _rows(dh).T @ _rows(x)
    grads[f"{bp}/bg"] += _rows(dh).sum(axis=0)
    grads[f"{bp}/Wp"] += _rows(dq).T @ _rows(x)
    grads[f"{bp}/bp"] += _rows(dq).sum(axis=0)
    return dh @ P[f"{bp}/Wg"] + dq @ P[f"{bp}/Wp"]


def _attention_forward(X, P, bp):
    scale = 1.0 / np.sqrt(X.shape[-1])
    Q = X @ P[f"{bp}/Wq"]
    K = X @ P[f"{bp}/Wk"]
    V = X @ P[f"{bp}/Wv"]
    S = scale * (Q @ np.swapaxes(K, -1, -2))
    S = S - S.max(axis=-1, keepdims=True)
    E = np.exp(S)
    A = E / E.sum(axis=-1, keepdims=True)
    H = A @ V
    Y = H @ P[f"{bp}/Wo"]
    return Y, (X, Q, K, V, A, H, scale)


def _attention_backward(dY, cache, P, bp, grads):
    X, Q, K, V, A, H, scale = cache
    dH = dY @ P[f"{bp}/Wo"].T
    grads[f"{bp}/Wo"] += _rows(H).T @ _rows(dY)
    dA = dH @ np.swapaxes(V, -1, -2)
    dV = np.swapaxes(A, -1, -2) @ dH
    # row-wise softmax jacobian
    dS = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
    dQ = scale * (dS @ K)
    dK = scale * (np.swapaxes(dS, -1, -2) @ Q)
    grads[f"{bp}/Wq"] += _rows(X).T @ _rows(dQ)
    grads[f"{bp}/Wk"] += _rows(X).T @ _rows(dK)
    grads[f"{bp}/Wv"] += _rows(X).T @ _rows(dV)
    return dQ @ P[f"{bp}/Wq"].T + dK @ P[f"{bp}/Wk"].T + dV @ P[f"{bp}/Wv"].T


def _mlp_forward(x_flat, P, bp):
    z = x_flat @ P[f"{bp}/W1"].T + P[f"{bp}/b1"]
    h = np.maximum(z, 0.0)
    y = h @ P[f"{bp}/W2"].T + P[f"{bp}/b2"]
    return y, (x_flat, z, h)


def _mlp_backward(dy, cache, P, bp, grads):
    x, z, h = cache
    dh = dy @ P[f"{bp}/W2"]
    dz = dh * (z > 0)
    grads[f"{bp}/W2"] += _rows(dy).T @ _rows(h)
    grads[f"{bp}/b2"] += _rows(dy).sum(axis=0)
    grads[f"{bp}/W1"] += _rows(dz).T @ _rows(x)
    grads[f"{bp}/b1"] += _rows(dz).sum(axis=0)
    return dz @ P[f"{bp}/W1"]


def _block_forward(kind, X, P, bp):
    """Block output for X of shape (..., n, d); masknet and mlp see each
    (n, d) token matrix flattened."""
    if kind == "attention":
        return _attention_forward(X, P, bp)
    fwd = _masknet_forward if kind == "masknet" else _mlp_forward
    y, cache = fwd(X.reshape(X.shape[:-2] + (-1,)), P, bp)
    return y.reshape(X.shape), cache


def _block_backward(kind, dY, cache, P, bp, grads):
    if kind == "attention":
        return _attention_backward(dY, cache, P, bp, grads)
    bwd = _masknet_backward if kind == "masknet" else _mlp_backward
    return bwd(dY.reshape(dY.shape[:-2] + (-1,)), cache, P, bp, grads).reshape(dY.shape)


# ---------------------------------------------------------------------------
# whole tower


def tower_forward(cfg: TowerConfig, params: ParamDict, prefix: str, bundle):
    """Run the tower on the slot columns of one batch's bundle.

    Returns the flattened outputs (B, output_dim) and a backward cache.
    """
    T0, cols = _featurize(cfg, params, prefix, bundle)
    X = params[f"{prefix}/mix/M"] @ T0
    layer_caches = []
    for li, (ka, kb) in enumerate(cfg.blocks):
        ya, ca = _block_forward(ka, X, params, f"{prefix}/layer{li}/a")
        yb, cb = _block_forward(kb, X, params, f"{prefix}/layer{li}/b")
        layer_caches.append((ca, cb))
        X = ya + yb + X
    return X.reshape(len(X), -1), (cols, T0, layer_caches)


def tower_backward(cfg: TowerConfig, params: ParamDict, prefix: str, cache,
                   dflat: np.ndarray, grads: ParamDict, want_input_grads: bool = False):
    """Backprop dflat (B, output_dim) through the tower; accumulate into grads.

    Returns (B, dim) gradients w.r.t. the dense input slots when requested
    (used by the interaction tower to push gradients into the entity
    embeddings).
    """
    cols, T0, layer_caches = cache
    dX = dflat.reshape(len(dflat), cfg.num_tokens, cfg.token_dim)
    for li in reversed(range(len(cfg.blocks))):
        ka, kb = cfg.blocks[li]
        ca, cb = layer_caches[li]
        da = _block_backward(ka, dX, ca, params, f"{prefix}/layer{li}/a", grads)
        db = _block_backward(kb, dX, cb, params, f"{prefix}/layer{li}/b", grads)
        dX = da + db + dX
    grads[f"{prefix}/mix/M"] += np.tensordot(dX, T0, axes=([0, 2], [0, 2]))
    dT0 = params[f"{prefix}/mix/M"].T @ dX
    return _featurize_backward(cfg, prefix, params, cols, dT0, grads, want_input_grads)


def embed_entity(cfg: TowerConfig, params: ParamDict, prefix: str, bundle):
    """Entity embeddings of one batch's bundle: (B, output_dim) unit rows."""
    flat, cache = tower_forward(cfg, params, prefix, bundle)
    r = np.sqrt((flat * flat).sum(axis=1, keepdims=True))
    if np.any(r <= NORM_EPS):
        raise ZeroNormError(f"degenerate zero-norm embedding from tower {prefix!r}")
    y = flat / r
    return y, (cache, y, r)


def embed_entity_backward(cfg, params, prefix, emb_cache, dY, grads):
    """Backprop dY (B, output_dim) through the row normalization, then the tower."""
    cache, y, r = emb_cache
    dflat = (dY - y * (y * dY).sum(axis=1, keepdims=True)) / r
    tower_backward(cfg, params, prefix, cache, dflat, grads)


# ---------------------------------------------------------------------------
# upstream model: user tower + pin tower + interaction tower + head


@dataclass
class UpstreamModel:
    user_cfg: TowerConfig
    pin_cfg: TowerConfig
    inter_cfg: TowerConfig
    task: str
    params: ParamDict = field(default_factory=dict)

    @property
    def temperature(self) -> float:
        return float(np.exp(self.params["log_tau"][0]))


def build_upstream_model(
    user_cfg: TowerConfig,
    pin_cfg: TowerConfig,
    context: tuple[SlotSpec, ...],
    task: str,
    seed: int,
) -> UpstreamModel:
    """The three towers and the task's head; the interaction tower takes
    one mlp + masknet layer at the user tower's token sizes."""
    if user_cfg.output_dim != pin_cfg.output_dim:
        raise ShapeMismatchError("user and pin towers must share output_dim")
    emb = user_cfg.output_dim
    inter_cfg = TowerConfig(
        slots=(SlotSpec(USER_EMB_SLOT, DENSE, dim=emb),
               SlotSpec(PIN_EMB_SLOT, DENSE, dim=emb),
               SlotSpec(UDOTP_SLOT, DENSE, dim=1), *context),
        blocks=(("mlp", "masknet"),),
        token_dim=user_cfg.token_dim,
        num_tokens=user_cfg.num_tokens,
    )
    rng = np.random.default_rng([seed, 0x44455]) # derived stream for init
    params: ParamDict = {}
    init_tower_params(user_cfg, rng, "user", params)
    init_tower_params(pin_cfg, rng, "pin", params)
    init_tower_params(inter_cfg, rng, "inter", params)
    zdim = inter_cfg.output_dim
    params[f"head/{task}/w"] = rng.normal(0.0, 1.0 / np.sqrt(zdim), (zdim,))
    params[f"head/{task}/b"] = np.zeros(1)
    params["log_tau"] = np.array([np.log(TAU_INIT)])
    return UpstreamModel(user_cfg, pin_cfg, inter_cfg, task, params)


def interaction_forward(model: UpstreamModel, U, P, context):
    """Cross the entity embeddings U, P (B, D) with the batch's context
    bundle; returns the task's (B,) logits and a backward cache."""
    bundle = replace(context, dense={**context.dense, USER_EMB_SLOT: U, PIN_EMB_SLOT: P,
                                     UDOTP_SLOT: (U * P).sum(axis=1, keepdims=True)})
    z, cache = tower_forward(model.inter_cfg, model.params, "inter", bundle)
    head = f"head/{model.task}"
    logits = z @ model.params[f"{head}/w"] + model.params[f"{head}/b"][0]
    return logits, (cache, z, U, P)


def interaction_backward(model: UpstreamModel, fwd_cache, dlogits, grads: ParamDict):
    """Backprop (B,) logit grads; returns (dU, dP) for the entity towers."""
    cache, z, U, P = fwd_cache
    head = f"head/{model.task}"
    grads[f"{head}/w"] += dlogits @ z
    grads[f"{head}/b"][0] += dlogits.sum()
    dz = np.zeros_like(z)  # adding into zeros turns a -0.0 product into +0.0
    dz += dlogits[:, None] * model.params[f"{head}/w"]
    input_grads = tower_backward(
        model.inter_cfg, model.params, "inter", cache, dz, grads, want_input_grads=True
    )
    ddot = input_grads[UDOTP_SLOT]
    return input_grads[USER_EMB_SLOT] + ddot * P, input_grads[PIN_EMB_SLOT] + ddot * U
