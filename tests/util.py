"""Shared helpers: gradient checks, exact parameter comparison, sequence
padding, the noisy-day stability probe, a tiny upstream model, separable
batches, daily embedding sets, downstream feature batches from dense blocks,
the synthetic world's oracle AUC, re-sealing an edited sealed file, and a
loader for the scripts beside the package."""

import importlib.util
import math
import struct
import sys
from pathlib import Path

import numpy as np

from derm.config import UpstreamSpec, build_model
from derm.data import (KIND_CODES, USER, FeatureBundle, SampleBatch, embedding_rows,
                       entity_keys, pad_flat)
from derm.downstream import FeatureBatch
from derm.errors import (DimMismatchError, EmptyInputError, NonFiniteFunctionError,
                         ZeroNormError)
from derm.ioutil import crc64
from derm.lifecycle import (AggregationHeuristic, DailyEmbeddingSet, aggregate_day,
                            initial_state, stability_mean)
from derm.numerics import NORM_EPS, as_vector, l2_norm
from derm.params import ParamDict, flatten_params, unflatten_params
from derm.synth import World, WorldConfig, generate_world
from derm.trainer import TrainConfig


ROOT = Path(__file__).resolve().parents[1]


def module_at(folder: str, name: str):
    """The module folder/name.py under the repo root, loaded from its file
    under its own name, the name its siblings import it by."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / folder / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def reseal(blob: bytes) -> bytes:
    """A sealed file whose body was edited, with its trailer set to the
    body's checksum again, as SealedFormat.pack seals it."""
    body = blob[:-8]
    return body + struct.pack("<Q", crc64(body))


def l2_normalize(v, eps: float = NORM_EPS) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction.

    Raises ZeroNormError when ||v|| <= eps; a degenerate all-zero input
    is rejected rather than silently emitted.
    """
    v = as_vector(v)
    n = l2_norm(v)
    if n <= eps:
        raise ZeroNormError(f"norm {n:.3e} <= {eps:.1e}")
    return v / n


def check_gradient(f, x, analytic_grad, step: float = 1e-5) -> float:
    """Largest symmetric relative error |a - n| / max(1e-8, |a| + |n|) of
    analytic_grad against central differences of f at x.

    f must be a scalar function of a 1-D array, finite in a neighborhood
    of x at the probe step.
    """
    x = as_vector(x).copy()
    g = as_vector(analytic_grad)
    if x.shape != g.shape:
        raise DimMismatchError("gradient shape does not match input")
    numeric = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        fp = float(f(x))
        x[i] = orig - step
        fm = float(f(x))
        x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteFunctionError(f"f non-finite near x at index {i}")
        numeric[i] = (fp - fm) / (2.0 * step)
    rel = np.abs(g - numeric) / np.maximum(1e-8, np.abs(g) + np.abs(numeric))
    return float(rel.max(initial=0.0))


def fd_check_params(make_loss, params, step=1e-5):
    """Finite-difference check of d(loss)/d(params).

    make_loss(params) must return (loss, grads) where grads is a ParamDict
    covering every key of params. Returns check_gradient's largest relative
    error over the flattened parameter vector.
    """
    vec, layout = flatten_params(params)
    _, grads = make_loss(params)
    gvec, _ = flatten_params({k: grads[k] for k in params})

    def f(v):
        return make_loss(unflatten_params(v, layout))[0]

    return check_gradient(f, vec, gvec, step=step)


def params_equal_exact(a: ParamDict, b: ParamDict) -> bool:
    """Bit-exact comparison (shapes and every byte)."""
    if a.keys() != b.keys():
        return False
    return all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


def pad_sequences(seqs) -> tuple[np.ndarray, np.ndarray]:
    """(B, L) int64 ids padded with 0, L = max(1, longest), and (B,) lengths."""
    return pad_flat([i for q in seqs for i in q],
                    np.array([len(q) for q in seqs], dtype=np.int64))


def cross_layer_multiplies(dim: int, layers: int) -> int:
    """Matrix-product multiply count of the cross stack: d*d per layer.

    The elementwise gate adds a further d multiplies per layer but that
    term is linear and not what the d**2 * l scaling is about, so it is
    excluded from the reported figure.
    """
    return layers * dim * dim


def random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


NUM_TEST_USERS = 24
NUM_TEST_PINS = 32
LATENT = 4


def tiny_model(seed=0):
    """Small ctr model sized for fast unit tests (embedding dim 6)."""
    world = WorldConfig(num_users=NUM_TEST_USERS, num_pins=NUM_TEST_PINS,
                        latent_dim=LATENT)
    spec = UpstreamSpec(train=TrainConfig(seed=seed), token_dim=3, num_tokens=2,
                        num_layers=2)
    return build_model(world, "ctr", spec)


def separable_samples(seed, days, per_day, task="click"):
    """Day-keyed batches whose labels are linearly separable in latent space.

    Users and pins carry fixed latent vectors, exposed through the dense
    slots, and the label is the sign of the latent dot product. The user
    history sequence lists previously engaged pin ids; day 1 has none.
    """
    rng = np.random.default_rng([seed, 0x5A11])
    zu = random_unit_rows(rng, NUM_TEST_USERS, LATENT)
    zp = random_unit_rows(rng, NUM_TEST_PINS, LATENT)
    hist = {u: [] for u in range(NUM_TEST_USERS)}
    out = {}
    for day in days:
        day_rng = np.random.default_rng([seed, 0xDA7A, day])
        users, pins, labels, hours, hists = [], [], [], [], []
        for _ in range(per_day):
            u = int(day_rng.integers(NUM_TEST_USERS))
            p = int(day_rng.integers(NUM_TEST_PINS))
            label = int(float(zu[u] @ zp[p]) > 0.0)
            users.append(u)
            pins.append(p)
            labels.append(label)
            hours.append(float(day_rng.uniform(-1, 1)))
            hists.append(hist[u][-6:])
            if label:
                hist[u].append(p)
        users, pins = np.array(users, dtype=np.int64), np.array(pins, dtype=np.int64)
        out[day] = SampleBatch(
            user_id=users, pin_id=pins, event_seq=np.arange(per_day),
            labels={task: np.array(labels, dtype=np.int64)},
            user=FeatureBundle(dense={"profile": zu[users]}, categorical={"uid": users},
                               sequence={"hist": pad_sequences(hists)}),
            pin=FeatureBundle(dense={"attrs": zp[pins]}, categorical={"pid": pins}),
            context=FeatureBundle(dense={"hour": np.array(hours)[:, None]}))
    return out


def dense_feature_batch(base, derm, flags, hist, hist_len, labels,
                        arm=None) -> FeatureBatch:
    """The FeatureBatch whose derm and flags read back as the given dense
    (..., B, D) and (..., B, k) blocks: derm's columns split into k inputs
    (np.array_split), each input's table a zero row then every event's
    slice, and each event's row its own (arange + 1) where its flag is up,
    else 0. A slice under a lowered flag must be zero."""
    derm, flags = np.asarray(derm, dtype=np.float64), np.asarray(flags)
    k = flags.shape[-1]
    own = np.arange(1, 1 + math.prod(flags.shape[:-1])).reshape(flags.shape[:-1])
    rows = np.where(flags > 0, own[..., None], 0).astype(np.int32)
    tables = tuple(np.concatenate([np.zeros((1, part.shape[-1])),
                                   part.reshape(-1, part.shape[-1])])
                   for part in (np.array_split(derm, k, axis=-1) if k else ()))
    batch = FeatureBatch(base, rows, tables, hist, hist_len, labels, arm)
    assert np.array_equal(batch.derm, derm), "a missed input must be zero"
    assert np.array_equal(batch.flags, flags)
    return batch


def daily_set(day, vectors, kind="user"):
    """A DailyEmbeddingSet of one kind from {entity id: vector}."""
    ids = sorted(vectors)
    if not ids:
        return DailyEmbeddingSet(day, embedding_rows())
    return DailyEmbeddingSet(day, embedding_rows(KIND_CODES[kind], ids, 0,
                                                 [vectors[i] for i in ids]))


def noisy_daily_stability(heuristic: AggregationHeuristic,
                          num_entities: int = 100, days: int = 30,
                          noise: float = 0.5, seed: int = 0) -> float:
    """Mean day-to-day cosine under i.i.d. noisy daily embeddings.

    Each entity has a fixed base direction; its daily embedding is the base
    plus fresh gaussian noise, normalized. Smoother heuristics score higher.
    """
    rng = np.random.default_rng([seed, 0x57AB])
    base = rng.normal(size=(num_entities, 8))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    state = initial_state(heuristic)
    means = []
    for day in range(1, days + 1):
        noisy = base + noise * rng.normal(size=base.shape)
        rows = embedding_rows(KIND_CODES[USER], np.arange(num_entities), 0,
                              [l2_normalize(v) for v in noisy])
        new_state = aggregate_day(state, DailyEmbeddingSet(day, rows))
        if day > 1:
            means.append(stability_mean(state, new_state))
        state = new_state
    return float(np.mean(means))


def generation_vectors(gen):
    """{(kind code, id, source code): vector} of a StoreGeneration's rows: the
    dict store.generation_bytes encodes."""
    return {key: vec for t in gen.tables for key, vec in zip(
        zip(t["kind"].tolist(), t["id"].tolist(), t["source"].tolist()), t["vec"])}


def daily_vectors(daily):
    """{(kind, entity id): vector} of a DailyEmbeddingSet, in row order."""
    return dict(zip(entity_keys(daily.records), daily.records["vec"]))


def pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact ROC-AUC by pair counting; the reference scorer."""
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
    batch = SampleBatch.concat([data[d] for d in (days if days is not None
                                                  else sorted(data))])
    return pair_count_auc(world.true_logits(task, batch.user_id, batch.pin_id),
                          batch.labels[task])
