"""Shared helpers: gradient checks, a tiny upstream model, separable batches,
daily embedding sets, the synthetic world's oracle AUC."""

import numpy as np

from derm.data import KIND_CODES, FeatureBundle, SampleBatch, embedding_rows, entity_keys
from derm.errors import EmptyInputError
from derm.lifecycle import DailyEmbeddingSet
from derm.numerics import check_gradient
from derm.params import flatten_params, unflatten_params
from derm.synth import World, WorldConfig, generate_world
from derm.towers import SlotSpec, TowerConfig, build_upstream_model, pad_sequences


def fd_check_params(make_loss, params, step=1e-5):
    """Finite-difference check of d(loss)/d(params).

    make_loss(params) must return (loss, grads) where grads is a ParamDict
    covering every key of params. Returns the GradReport over the flattened
    parameter vector.
    """
    vec, layout = flatten_params(params)
    _, grads = make_loss(params)
    gvec, _ = flatten_params({k: grads[k] for k in params})

    def f(v):
        return make_loss(unflatten_params(v, layout))[0]

    return check_gradient(f, vec, gvec, step=step)


def random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


NUM_TEST_USERS = 24
NUM_TEST_PINS = 32
LATENT = 4


def tiny_model(seed=0, task="click"):
    """Small three-tower model sized for fast unit tests (embedding dim 6)."""
    user_cfg = TowerConfig(
        slots=(
            SlotSpec("profile", "dense", dim=LATENT),
            SlotSpec("uid", "categorical", cardinality=NUM_TEST_USERS),
            SlotSpec("hist", "sequence", cardinality=NUM_TEST_PINS),
        ),
        num_layers=2,
        blocks=(("mlp", "masknet"), ("attention", "mlp")),
        token_dim=3,
        num_tokens=2,
    )
    pin_cfg = TowerConfig(
        slots=(
            SlotSpec("attrs", "dense", dim=LATENT),
            SlotSpec("pid", "categorical", cardinality=NUM_TEST_PINS),
        ),
        num_layers=2,
        blocks=(("masknet", "mlp"), ("mlp", "attention")),
        token_dim=3,
        num_tokens=2,
    )
    emb_dim = user_cfg.output_dim
    inter_cfg = TowerConfig(
        slots=(
            SlotSpec("user_emb", "dense", dim=emb_dim),
            SlotSpec("pin_emb", "dense", dim=emb_dim),
            SlotSpec("u_dot_p", "dense", dim=1),
            SlotSpec("hour", "dense", dim=1),
        ),
        num_layers=1,
        blocks=(("mlp", "masknet"),),
        token_dim=3,
        num_tokens=2,
    )
    return build_upstream_model(user_cfg, pin_cfg, inter_cfg, task, seed=seed)


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


def daily_set(day, vectors, kind="user"):
    """A DailyEmbeddingSet of one kind from {entity id: vector}."""
    ids = sorted(vectors)
    if not ids:
        return DailyEmbeddingSet(day, embedding_rows())
    return DailyEmbeddingSet(day, embedding_rows(KIND_CODES[kind], ids, 0,
                                                 [vectors[i] for i in ids]))


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
