"""Metrics, the consumer model, and the sensitivity-experiment harness."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from derm.data import FeatureBundle, KIND_CODES, SampleBatch
from derm.downstream import (
    DERM_INPUTS,
    EVAL_ROWS,
    MIN_STACK,
    ArmSpec,
    DownstreamConfig,
    DownstreamModel,
    DownstreamTrainConfig,
    build_features,
    evaluate,
    heuristic_arms,
    input_count_arms,
    pr_auc,
    roc_auc,
    run_sensitivity_experiment,
    train_downstream,
)
from derm.errors import (
    DegenerateLabelsError,
    DivergedLossError,
    EmptyInputError,
    MissingBaselineError,
    ShapeMismatchError,
    UnknownTaskError,
    WorkerFailedError,
)
from derm import downstream
from derm.downstream import _batches, _stacked_features, _train_stacks
from derm.lifecycle import AggregationHeuristic, MA
from derm.store import (StoreGeneration, StoreKey, generation_bytes,
                        parse_generation, source_code)
from derm.synth import WorldConfig, generate_world
from util import (
    cross_layer_multiplies,
    dense_feature_batch,
    fd_check_params,
    pad_sequences,
    pair_count_auc,
    random_unit_rows,
)


# ---------------------------------------------------------------------------
# ROC AUC


class TestRocAuc:
    def test_hand_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        scores = [-2.0, -1.0, 1.0, 2.0]
        assert roc_auc(scores, [0, 0, 1, 1]) == 1.0
        assert roc_auc(scores, [1, 1, 0, 0]) == 0.0

    def test_all_tied_scores_is_half(self):
        assert roc_auc([0.3] * 10, [0, 1] * 5) == pytest.approx(0.5)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(-1.5, 1.5, size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(2.0 * scores + 1.0, labels) == base
        assert roc_auc(np.tanh(scores), labels) == base

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            scores = rng.normal(size=n)
            if rng.random() < 0.5:
                # force ties
                scores = np.round(scores, 1)
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[-1] = 0, 1
            assert roc_auc(scores, labels) == pytest.approx(
                pair_count_auc(scores, labels), abs=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [0, 0])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([], [])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [0, 2])


# ---------------------------------------------------------------------------
# PR AUC


class TestPrAuc:
    def test_perfect_separation(self):
        assert pr_auc([-1.0, -0.5, 0.5, 1.0], [0, 0, 1, 1]) == 1.0

    def test_single_positive_ranked_last(self):
        for n in (2, 5, 10):
            scores = np.arange(n, dtype=float)
            labels = np.zeros(n, dtype=int)
            labels[0] = 1  # lowest score
            assert pr_auc(scores, labels) == pytest.approx(1.0 / n)

    def test_all_positive(self):
        assert pr_auc([0.2, 0.9, 0.5], [1, 1, 1]) == 1.0

    def test_tie_block_enters_whole(self):
        # one block of four tied scores, two positive: single step at P=0.5
        assert pr_auc([0.5] * 4, [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_interleaved_hand_value(self):
        # thresholds high to low: P=1 at R=1/2, then P=2/3 at R=1
        got = pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-1.5, 1.5, size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0] = 1
        assert pr_auc(2.0 * scores + 1.0, labels) == pr_auc(scores, labels)
        assert pr_auc(np.tanh(scores), labels) == pr_auc(scores, labels)

    def test_no_positives_raises(self):
        with pytest.raises(DegenerateLabelsError):
            pr_auc([0.1, 0.2], [0, 0])


def reference_roc_auc(scores, labels) -> float:
    """roc_auc as it was with a Python loop over tie groups; kept as the
    bit-exact reference for the vectorized tie blocks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_pr_auc(scores, labels) -> float:
    """pr_auc as it was with a Python loop over tie blocks (the reference)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    area = 0.0
    tp = 0
    seen = 0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        block_pos = int(y[i:j + 1].sum())
        tp += block_pos
        seen += j - i + 1
        if block_pos:
            area += (tp / seen) * (block_pos / n_pos)
        i = j + 1
    return area


@pytest.mark.parametrize("metric, reference", [(roc_auc, reference_roc_auc),
                                               (pr_auc, reference_pr_auc)],
                         ids=["roc", "pr"])
def test_auc_matches_loop_reference_bit_for_bit(metric, reference):
    rng = np.random.default_rng(23)
    for case in range(1500):
        n = int(rng.integers(2, 200))
        scores = rng.normal(size=n)
        if case % 3 == 0:
            scores = np.round(scores, 1)  # some ties
        elif case % 3 == 1:
            scores = rng.integers(0, 1 + case % 7, size=n) * 0.1  # mostly ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        got, want = metric(scores, labels), reference(scores, labels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), case


# ---------------------------------------------------------------------------
# configuration and flop accounting


class TestConfig:
    def test_bad_task(self):
        with pytest.raises(UnknownTaskError):
            DownstreamConfig(task="installs").validate()

    def test_bad_input_name(self):
        with pytest.raises(UnknownTaskError):
            DownstreamConfig(derm_inputs=("ctr-board",)).validate()

    def test_duplicate_inputs(self):
        with pytest.raises(UnknownTaskError):
            DownstreamConfig(derm_inputs=("ctr-user", "ctr-user")).validate()

    def test_bad_counts(self):
        with pytest.raises(ShapeMismatchError):
            DownstreamConfig(num_experts=0).validate()
        with pytest.raises(ShapeMismatchError):
            DownstreamConfig(cross_layers=-1).validate()
        with pytest.raises(ShapeMismatchError):
            DownstreamConfig(projection_dim=0).validate()

    def test_projection_wider_than_input(self):
        cfg = DownstreamConfig(derm_inputs=("ctr-user",), projection_dim=40)
        with pytest.raises(ShapeMismatchError):
            cfg.validate(derm_dim_total=32)

    def test_cross_multiply_count(self):
        assert cross_layer_multiplies(32, 2) == 2 * 32 * 32
        assert cross_layer_multiplies(16, 3) == 3 * 16 * 16
        assert cross_layer_multiplies(5, 0) == 0

    def test_halving_dim_quarters_multiplies(self):
        for d in (16, 32, 64, 128):
            ratio = cross_layer_multiplies(d, 2) / cross_layer_multiplies(d // 2, 2)
            assert ratio == 4.0
        # odd dims round the halved width down
        assert cross_layer_multiplies(9, 2) / cross_layer_multiplies(9 // 2, 2) \
            == pytest.approx(81 / 16)


class TestProjection:
    """The model's projection layer: Z0 = derm @ W.T + b."""

    @staticmethod
    def _z0(W, b, derm):
        cfg = DownstreamConfig(derm_inputs=("ctr-user",), projection_dim=len(b),
                               cross_layers=0)
        model = DownstreamModel(cfg, base_dim=1, derm_dim=W.shape[1],
                                seq_vocab=1, seed=0)
        model.params["proj/W"], model.params["proj/b"] = W, b
        n = len(derm)
        batch = dense_feature_batch(np.zeros((n, 1)), np.asarray(derm),
                                    np.ones((n, 1)),
                                    np.zeros((n, 1), dtype=np.int64),
                                    np.zeros(n, dtype=np.int64), np.zeros(n))
        return model.forward(batch)[1]["Z0"]

    def test_identity_projection_preserves_input(self):
        vec = np.arange(5.0)[None, :]
        assert np.array_equal(self._z0(np.eye(5), np.zeros(5), vec), vec)

    def test_affine_example(self):
        out = self._z0(np.array([[1.0, 1.0]]), np.array([0.5]), [[1.0, 2.0]])
        assert out[0] == pytest.approx([3.5])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            self._z0(np.eye(2), np.zeros(2), [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# feature assembly helpers


LATENT = 4


def fake_generation(source, vecs, day=17):
    """vecs: {(kind, entity_id): vector}; dtype matches the on-disk f32."""
    src = source_code(source)
    packed = {(KIND_CODES[kind], eid, src): np.asarray(v, dtype=np.float32)
              for (kind, eid), v in vecs.items()}
    dim = len(next(iter(vecs.values()))) if vecs else 0
    return parse_generation(generation_bytes(day, dim, packed))


def noise_samples(seed, days, per_day, zu, zp, task="click"):
    """Labels come from hidden latents; dense slots are pure event noise.

    Only the store vectors can explain the label, which makes lift
    attribution unambiguous.
    """
    num_users, num_pins = len(zu), len(zp)
    out = {}
    for day in days:
        rng = np.random.default_rng([seed, 0xBA5E, day])
        rows = []
        for _ in range(per_day):
            u = int(rng.integers(num_users))
            p = int(rng.integers(num_pins))
            rows.append((u, p, int(float(zu[u] @ zp[p]) > 0.0),
                         rng.normal(size=LATENT), rng.normal(size=LATENT),
                         rng.uniform(-1, 1)))
        users, pins, labels, profiles, attrs, hours = map(np.array, zip(*rows))
        out[day] = SampleBatch(
            user_id=users, pin_id=pins, event_seq=np.arange(per_day),
            labels={task: labels},
            user=FeatureBundle(
                dense={"profile": profiles}, categorical={"uid": users},
                sequence={"hist": pad_sequences([[]] * per_day)}),
            pin=FeatureBundle(dense={"attrs": attrs}, categorical={"pid": pins}),
            context=FeatureBundle(dense={"hour": hours[:, None]}))
    return out


class TestBuildFeatures:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.zu = random_unit_rows(rng, 6, LATENT)
        self.zp = random_unit_rows(rng, 8, LATENT)
        self.samples = noise_samples(0, [1], 30, self.zu, self.zp)[1]
        self.gens = {
            "ctr-upstream": fake_generation("ctr-upstream", {
                **{("user", u): self.zu[u] for u in range(6)},
                **{("pin", p): self.zp[p] for p in range(8)},
            }),
        }

    def test_shapes_and_flags(self):
        cfg = DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin"))
        fb = build_features(self.samples, cfg, self.gens)
        assert fb.base.shape == (30, 2 * LATENT + 1)
        assert fb.derm.shape == (30, 2 * LATENT)
        assert fb.flags.shape == (30, 2)
        assert np.all(fb.flags == 1.0)
        assert set(fb.labels) <= {0.0, 1.0}

    def test_vectors_land_in_declared_order(self):
        cfg = DownstreamConfig(derm_inputs=("ctr-pin", "ctr-user"))
        fb = build_features(self.samples, cfg, self.gens)
        s = self.samples[0]
        np.testing.assert_allclose(fb.derm[0, :LATENT],
                                   self.zp[s.pin_id], rtol=1e-6)
        np.testing.assert_allclose(fb.derm[0, LATENT:],
                                   self.zu[s.user_id], rtol=1e-6)

    def test_missing_lookup_is_zero_with_flag_down(self):
        gens = {"ctr-upstream": fake_generation("ctr-upstream", {
            ("user", u): self.zu[u] for u in range(3)  # users 3..5 absent
        })}
        cfg = DownstreamConfig(derm_inputs=("ctr-user",))
        fb = build_features(self.samples, cfg, gens)
        present = self.samples.user_id < 3
        assert np.array_equal(fb.flags[:, 0], present)
        assert np.all(fb.derm[~present] == 0.0)

    def test_present_blocks_are_unit_norm(self):
        scaled = fake_generation("ctr-upstream", {
            **{("user", u): 10.0 * self.zu[u] for u in range(6)},
            **{("pin", p): 0.25 * self.zp[p] for p in range(8)},
        })
        cfg = DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin"))
        fb = build_features(self.samples, cfg, {"ctr-upstream": scaled})
        s = self.samples[0]
        np.testing.assert_allclose(fb.derm[0, :LATENT],
                                   self.zu[s.user_id], rtol=1e-6)
        np.testing.assert_allclose(fb.derm[0, LATENT:],
                                   self.zp[s.pin_id], rtol=1e-6)
        norms = np.linalg.norm(fb.derm[:, :LATENT], axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-6)

    def test_zero_vector_stays_zero_with_flag_up(self):
        gens = {"ctr-upstream": fake_generation("ctr-upstream", {
            ("user", u): np.zeros(LATENT) for u in range(6)
        })}
        cfg = DownstreamConfig(derm_inputs=("ctr-user",))
        fb = build_features(self.samples, cfg, gens)
        assert np.all(fb.derm == 0.0)
        assert np.all(fb.flags == 1.0)

    def test_no_derm_inputs_gives_empty_block(self):
        fb = build_features(self.samples, DownstreamConfig(), {})
        assert fb.derm.shape == (30, 0)
        assert fb.flags.shape == (30, 0)

    def test_empty_sample_list(self):
        with pytest.raises(EmptyInputError):
            build_features(self.samples[:0], DownstreamConfig(), {})

    @pytest.mark.parametrize("task", ["ctr", "cvr"])
    def test_columns_match_per_sample_reference(self, task):
        data = generate_world(WorldConfig(num_users=12, num_pins=12, days=4,
                                          seed=3))
        samples = SampleBatch.concat([data[day] for day in sorted(data)])
        rng = np.random.default_rng(8)
        gens = {}
        for source, dim in (("ctr-upstream", 32), ("cvr-upstream", 7)):
            vecs = {(kind, e): rng.normal(size=dim) * rng.uniform(0.01, 50.0)
                    for kind in ("user", "pin") for e in range(12)
                    if rng.random() < 0.8}  # about a fifth miss
            vecs[("user", 0)] = np.zeros(dim)
            gens[source] = fake_generation(source, vecs)
        cfg = DownstreamConfig(task=task, derm_inputs=("cvr-pin", "ctr-user",
                                                       "ctr-pin", "cvr-user"))
        got = build_features(samples, cfg, gens)
        want = reference_build_features(samples, cfg, gens)
        assert set(got.flags.ravel()) == {0.0, 1.0}
        for name in ("base", "derm", "flags", "labels"):
            a, b = getattr(got, name), want[name]
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        # each day's rows, read back from that day's own padding
        hist = [row[:n].tolist() for day in sorted(data)
                for row, n in zip(*data[day].user.sequence["hist"])]
        assert any(hist) and not all(hist)
        assert got.hist.shape == pad_sequences(hist)[0].shape
        assert got.hist_len.tolist() == [len(h) for h in hist]
        for i, h in enumerate(hist):
            assert got.hist[i, :len(h)].tolist() == h
            assert not got.hist[i, len(h):].any()


def reference_build_features(samples, cfg, generations):
    """build_features in loop form, one event and one input at a time;
    returns the base, derm, flags and labels arrays."""
    dims = [generations[DERM_INPUTS[name][0]].dim for name in cfg.derm_inputs]
    B = len(samples)
    first = samples[0]
    base = np.zeros((B, len(first.user.dense["profile"])
                     + len(first.pin.dense["attrs"]) + 1))
    derm = np.zeros((B, sum(dims)))
    flags = np.zeros((B, len(cfg.derm_inputs)))
    labels = np.zeros(B)
    for i, s in enumerate(samples):
        base[i] = np.concatenate([s.user.dense["profile"], s.pin.dense["attrs"],
                                  s.context.dense["hour"]])
        off = 0
        for k, name in enumerate(cfg.derm_inputs):
            source, kind = DERM_INPUTS[name]
            entity_id = s.user_id if kind == "user" else s.pin_id
            vec = generations[source].lookup(StoreKey(kind, entity_id, source))
            if vec is not None:
                v = vec.astype(np.float64)
                norm = np.linalg.norm(v)
                if norm > 0.0:
                    v = v / norm
                derm[i, off:off + dims[k]] = v
                flags[i, k] = 1.0
            off += dims[k]
        labels[i] = s.labels[cfg.label]
    return {"base": base, "derm": derm, "flags": flags, "labels": labels}


# ---------------------------------------------------------------------------
# the model


def small_model(seed=0, derm=True, cross=2):
    cfg = DownstreamConfig(
        derm_inputs=("ctr-user", "ctr-pin") if derm else (),
        projection_dim=4, cross_layers=cross,
        num_experts=2, expert_hidden=5, expert_out=4, seq_dim=3,
    )
    return DownstreamModel(cfg, base_dim=3, derm_dim=6 if derm else 0,
                           seq_vocab=10, seed=seed)


def small_batch(rng, n=7, derm_dim=6, with_missing=True, inputs=2):
    hist = []
    for i in range(n):
        k = int(rng.integers(0, 4))
        hist.append(list(rng.integers(0, 10, size=k)))
    hist[0] = []  # keep one guaranteed-empty sequence
    hist, hist_len = pad_sequences(hist)
    derm = rng.normal(size=(n, derm_dim))
    flags = np.ones((n, inputs))
    if with_missing:
        derm[1] = 0.0
        flags[1] = 0.0
    return dense_feature_batch(
        base=rng.normal(size=(n, 3)),
        derm=derm,
        flags=flags,
        hist=hist,
        hist_len=hist_len,
        labels=rng.integers(0, 2, size=n).astype(float),
    )


class TestModelGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_model_matches_finite_differences(self, seed):
        model = small_model(seed)
        batch = small_batch(np.random.default_rng(seed + 40))

        def make_loss(params):
            model.params = params
            return model.loss_and_grads(batch)

        assert fd_check_params(make_loss, model.params) < 1e-4

    def test_no_derm_variant(self):
        model = small_model(derm=False)
        batch = small_batch(np.random.default_rng(50), derm_dim=0, inputs=0)

        def make_loss(params):
            model.params = params
            return model.loss_and_grads(batch)

        assert fd_check_params(make_loss, model.params) < 1e-4

    def test_zero_cross_layers(self):
        model = small_model(cross=0)
        batch = small_batch(np.random.default_rng(52))

        def make_loss(params):
            model.params = params
            return model.loss_and_grads(batch)

        assert fd_check_params(make_loss, model.params) < 1e-4


class TestModelBehavior:
    def test_missing_equals_explicit_zero_features(self):
        # a row the store missed must score exactly like a hand-zeroed row
        model = small_model()
        rng = np.random.default_rng(60)
        batch = small_batch(rng, with_missing=False)
        derm, flags = batch.derm, batch.flags  # gathered, so copies
        derm[2] = 0.0
        flags[2] = 0.0
        zeroed = dense_feature_batch(batch.base.copy(), derm, flags,
                                     batch.hist.copy(), batch.hist_len.copy(),
                                     batch.labels.copy())
        logits_a, _ = model.forward(zeroed)
        manual = dense_feature_batch(batch.base, zeroed.derm, zeroed.flags,
                                     batch.hist, batch.hist_len, batch.labels)
        logits_b, _ = model.forward(manual)
        assert np.array_equal(logits_a, logits_b)

    def test_derm_width_mismatch(self):
        model = small_model()
        batch = small_batch(np.random.default_rng(61), derm_dim=5)
        with pytest.raises(ShapeMismatchError):
            model.forward(batch)

    def test_same_seed_same_init(self):
        a, b = small_model(3), small_model(3)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        c = small_model(4)
        assert any(not np.array_equal(a.params[k], c.params[k])
                   for k in a.params)


def reference_loss_and_grads(model, batch, hist):
    """The model's loss and gradients in loop form: the attention pooled
    one sample at a time and the experts run one by one.

    hist is the batch's histories as lists; expert gradients come back
    stacked like the model's parameters.
    """
    cfg, p = model.cfg, model.params
    B, E = len(batch), cfg.num_experts
    W1, b1 = p["moe/experts/W1"], p["moe/experts/b1"]
    W2, b2 = p["moe/experts/W2"], p["moe/experts/b2"]
    scale = 1.0 / np.sqrt(cfg.seq_dim)
    # forward
    pieces = [batch.base]
    if model.has_derm:
        Z0 = batch.derm @ p["proj/W"].T + p["proj/b"]
        zs, acts = [Z0], []
        for l in range(cfg.cross_layers):
            A = zs[-1] @ p[f"cross/{l}/W"].T + p[f"cross/{l}/b"]
            acts.append(A)
            zs.append(Z0 * A + zs[-1])
        pieces += [zs[-1], batch.flags]
    pooled = np.zeros((B, cfg.seq_dim))
    seq = []
    for i, ids in enumerate(hist):
        if not ids:
            seq.append(None)
            continue
        T = p["seq/table"][ids]
        scores = (T @ p["seq/query"]) * scale
        a = np.exp(scores - scores.max())
        a /= a.sum()
        pooled[i] = a @ T
        seq.append((ids, T, a))
    pieces.append(pooled)
    X = np.concatenate(pieces, axis=1)
    G = X @ p["moe/gate/W"].T + p["moe/gate/b"]
    G = G - G.max(axis=1, keepdims=True)
    Pg = np.exp(G)
    Pg /= Pg.sum(axis=1, keepdims=True)
    out = np.zeros((B, cfg.expert_out))
    hs, os_ = [], []
    for e in range(E):
        H = np.maximum(0.0, X @ W1[e].T + b1[e])
        O = H @ W2[e].T + b2[e]
        hs.append(H)
        os_.append(O)
        out += Pg[:, e:e + 1] * O
    logits = out @ p["head/w"] + p["head/b"][0]
    y = batch.labels
    losses = (np.maximum(logits, 0.0) - logits * y
              + np.log1p(np.exp(-np.abs(logits))))
    dlogits = (0.5 * (1.0 + np.tanh(0.5 * logits)) - y) / B
    # backward
    g = {k: np.zeros_like(v) for k, v in p.items()}
    g["head/w"] += out.T @ dlogits
    g["head/b"][0] += dlogits.sum()
    dout = np.outer(dlogits, p["head/w"])
    dX = np.zeros_like(X)
    dPg = np.zeros_like(Pg)
    for e in range(E):
        H, O = hs[e], os_[e]
        dO = Pg[:, e:e + 1] * dout
        dPg[:, e] = (dout * O).sum(axis=1)
        g["moe/experts/W2"][e] += dO.T @ H
        g["moe/experts/b2"][e] += dO.sum(axis=0)
        dH = (dO @ W2[e]) * (H > 0)
        g["moe/experts/W1"][e] += dH.T @ X
        g["moe/experts/b1"][e] += dH.sum(axis=0)
        dX += dH @ W1[e]
    dG = Pg * (dPg - (dPg * Pg).sum(axis=1, keepdims=True))
    g["moe/gate/W"] += dG.T @ X
    g["moe/gate/b"] += dG.sum(axis=0)
    dX += dG @ p["moe/gate/W"]
    off = model.base_dim
    if model.has_derm:
        dZ = dX[:, off:off + model.proj_dim].copy()
        off += model.proj_dim + len(cfg.derm_inputs)
        dZ0 = np.zeros_like(Z0)
        for l in range(cfg.cross_layers - 1, -1, -1):
            dA = dZ * Z0
            dZ0 += dZ * acts[l]
            g[f"cross/{l}/W"] += dA.T @ zs[l]
            g[f"cross/{l}/b"] += dA.sum(axis=0)
            dZ = dZ + dA @ p[f"cross/{l}/W"]
        dZ0 += dZ
        g["proj/W"] += dZ0.T @ batch.derm
        g["proj/b"] += dZ0.sum(axis=0)
    dpooled = dX[:, off:off + cfg.seq_dim]
    for i, entry in enumerate(seq):
        if entry is None:
            continue
        ids, T, a = entry
        dp = dpooled[i]
        da = T @ dp
        dT = np.outer(a, dp)
        ds = a * (da - float(da @ a))
        g["seq/query"] += (T.T @ ds) * scale
        dT += np.outer(ds, p["seq/query"]) * scale
        np.add.at(g["seq/table"], ids, dT)
    return float(losses.mean()), logits, g


class TestBatchedModel:
    """The batched model against the per-sample reference above."""

    # lengths 0, 1 and the maximum; ids repeat within and across rows
    HIST = [[], [3], [2, 7, 7, 1, 2], [7], [], [2, 2], [5, 0, 3, 3, 9], [1, 7]]

    def _model(self, num_experts, seed, derm=True):
        cfg = DownstreamConfig(
            derm_inputs=("ctr-user", "ctr-pin") if derm else (),
            projection_dim=4, num_experts=num_experts, expert_hidden=5,
            expert_out=4, seq_dim=3)
        return DownstreamModel(cfg, base_dim=3, derm_dim=6 if derm else 0,
                               seq_vocab=10, seed=seed)

    def _batch(self, rng, hist, derm_dim=6):
        n = len(hist)
        ids, lengths = pad_sequences(hist)
        return dense_feature_batch(rng.normal(size=(n, 3)),
                                   rng.normal(size=(n, derm_dim)),
                                   np.ones((n, 2 if derm_dim else 0)), ids,
                                   lengths,
                                   rng.integers(0, 2, size=n).astype(float))

    @pytest.mark.parametrize("num_experts", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_sample_reference(self, num_experts, seed):
        model = self._model(num_experts, seed)
        # large enough weights that the attention is far from uniform
        model.params["seq/table"] *= 4.0
        model.params["seq/query"] *= 4.0
        batch = self._batch(np.random.default_rng(70 + seed), self.HIST)
        loss, grads = model.loss_and_grads(batch)
        logits, _ = model.forward(batch)
        ref_loss, ref_logits, ref_grads = reference_loss_and_grads(
            model, batch, self.HIST)
        assert np.abs(logits - ref_logits).max() <= 1e-12
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for k in grads:
            assert grads[k].shape == ref_grads[k].shape, k
            assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12, k
        assert np.abs(grads["seq/table"]).max() > 1e-3

    @pytest.mark.parametrize("num_experts", [1, 4])
    def test_all_histories_empty(self, num_experts):
        model = self._model(num_experts, 3)
        hist = [[] for _ in range(5)]
        batch = self._batch(np.random.default_rng(80), hist)
        with np.errstate(all="raise"):
            logits, cache = model.forward(batch)
            loss, grads = model.loss_and_grads(batch)
        pooled = cache["X"][:, -model.cfg.seq_dim:]
        assert np.all(pooled == 0.0)
        assert np.isfinite(loss) and np.all(np.isfinite(logits))
        assert np.all(grads["seq/table"] == 0.0)
        assert np.all(grads["seq/query"] == 0.0)
        for k in grads:
            assert np.all(np.isfinite(grads[k])), k
        _, ref_logits, ref_grads = reference_loss_and_grads(model, batch, hist)
        assert np.abs(logits - ref_logits).max() <= 1e-12
        for k in grads:
            assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12, k

    def test_no_derm_inputs(self):
        model = self._model(4, 5, derm=False)
        batch = self._batch(np.random.default_rng(90), self.HIST, derm_dim=0)
        loss, grads = model.loss_and_grads(batch)
        ref_loss, _, ref_grads = reference_loss_and_grads(model, batch,
                                                          self.HIST)
        assert abs(loss - ref_loss) <= 1e-12
        for k in grads:
            assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12, k


class TestTraining:
    def _features(self, seed, days, per_day):
        rng = np.random.default_rng(9)
        zu = random_unit_rows(rng, 12, LATENT)
        zp = random_unit_rows(rng, 16, LATENT)
        by_day = noise_samples(seed, days, per_day, zu, zp)
        gens = {"ctr-upstream": fake_generation("ctr-upstream", {
            **{("user", u): zu[u] for u in range(12)},
            **{("pin", p): zp[p] for p in range(16)},
        })}
        cfg = DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin"),
                               projection_dim=4)
        samples = SampleBatch.concat([by_day[d] for d in days])
        return cfg, build_features(samples, cfg, gens)

    def test_loss_decreases_on_informative_embeddings(self):
        cfg, feats = self._features(0, [1, 2, 3], 80)
        model = DownstreamModel(cfg, feats.base.shape[1], feats.derm.shape[1],
                                seq_vocab=16, seed=0)
        log = []
        train_downstream(model, feats,
                         DownstreamTrainConfig(learning_rate=0.3, epochs=6),
                         loss_log=log)
        first = np.mean(log[:3])
        last = np.mean(log[-3:])
        assert last < 0.7 * first

    def test_training_is_deterministic(self):
        cfg, feats = self._features(1, [1, 2], 40)
        runs = []
        for _ in range(2):
            model = DownstreamModel(cfg, feats.base.shape[1],
                                    feats.derm.shape[1], seq_vocab=16, seed=5)
            train_downstream(model, feats,
                             DownstreamTrainConfig(epochs=2))
            runs.append({k: v.tobytes() for k, v in model.params.items()})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 0),  # was a ZeroDivisionError
        ("epochs", 0),  # was an untrained model, returned silently
        ("learning_rate", -1.0),  # was training uphill
    ])
    def test_bad_train_config_rejected_before_any_step(self, key, value):
        cfg, feats = self._features(1, [1], 20)
        model = DownstreamModel(cfg, feats.base.shape[1], feats.derm.shape[1],
                                seq_vocab=16, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(ValueError, match=rf"^{key} must be "):
            train_downstream(model, feats, DownstreamTrainConfig(**{key: value}))
        assert all(np.array_equal(v, before[k]) for k, v in model.params.items())

    def test_empty_features_raise(self):
        model = small_model(derm=False)
        empty = dense_feature_batch(np.zeros((0, 3)), np.zeros((0, 0)),
                                    np.zeros((0, 0)),
                                    np.zeros((0, 1), dtype=np.int64),
                                    np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(EmptyInputError):
            train_downstream(model, empty, DownstreamTrainConfig())

    def test_evaluate_report(self):
        cfg, feats = self._features(2, [1, 2, 3], 60)
        model = DownstreamModel(cfg, feats.base.shape[1], feats.derm.shape[1],
                                seq_vocab=16, seed=0)
        train_downstream(model, feats,
                         DownstreamTrainConfig(learning_rate=0.3, epochs=6))
        rep = evaluate(model, feats)
        assert rep.samples == len(feats)
        assert rep.positives == int(feats.labels.sum())
        assert rep.roc_auc > 0.8
        assert 0.0 <= rep.pr_auc <= 1.0


class TestEvaluateChunks:
    """evaluate scores at most EVAL_ROWS rows per forward."""

    @staticmethod
    def _spy(monkeypatch):
        """Each forward's batch and logits, recorded as evaluate runs."""
        calls = []
        forward = DownstreamModel.forward

        def spy(self, batch):
            logits, cache = forward(self, batch)
            calls.append((batch, logits))
            return logits, cache
        monkeypatch.setattr(DownstreamModel, "forward", spy)
        return calls

    def test_large_batch_is_scored_in_bounded_views(self, monkeypatch):
        n = EVAL_ROWS * 5 // 2
        feats = small_batch(np.random.default_rng(3), n=n)
        calls = self._spy(monkeypatch)
        rep = evaluate(small_model(1), feats)
        assert [len(b) for b, _ in calls] == [EVAL_ROWS, EVAL_ROWS,
                                              n - 2 * EVAL_ROWS]
        assert all(np.shares_memory(b.base, feats.base)
                   and np.shares_memory(b.rows, feats.rows) for b, _ in calls)
        logits = np.concatenate([lg for _, lg in calls])
        y = feats.labels.astype(int)
        assert (rep.roc_auc, rep.pr_auc) == (roc_auc(logits, y),
                                             pr_auc(logits, y))
        assert (rep.samples, rep.positives) == (n, int(y.sum()))

    @pytest.mark.parametrize("n", [7, EVAL_ROWS])
    def test_up_to_eval_rows_equals_one_whole_forward(self, n):
        feats = small_batch(np.random.default_rng(4), n=n)
        model = small_model(2)
        logits, _ = model.forward(feats)
        y = feats.labels.astype(int)
        rep = evaluate(model, feats)
        assert np.float64(rep.roc_auc).tobytes() == \
            np.float64(roc_auc(logits, y)).tobytes()
        assert np.float64(rep.pr_auc).tobytes() == \
            np.float64(pr_auc(logits, y)).tobytes()


class TestStackedTraining:
    """A stack of same-shape models trains each one exactly as a lone run."""

    SEEDS = (3, 8)
    MODEL = DownstreamConfig(projection_dim=4, num_experts=2, expert_hidden=5,
                             expert_out=4, seq_dim=3)

    def setup_method(self):
        rng = np.random.default_rng(31)
        zu = random_unit_rows(rng, 12, LATENT)
        zp = random_unit_rows(rng, 16, LATENT)
        by_day = noise_samples(2, range(1, 6), 13, zu, zp)
        samples = SampleBatch.concat(list(by_day.values()))
        # histories of 0 to 5 ids; the first row's is empty
        samples.user.sequence["hist"] = pad_sequences(
            [rng.integers(0, 16, size=i % 6) for i in range(len(samples))])
        # 53 rows in minibatches of 13 leave a last minibatch of one row
        self.train, self.test = samples[:53], samples[53:]
        both = {("user", u): zu[u] for u in range(12)}
        both.update({("pin", p): zp[p] for p in range(16)})
        # the second arm's store misses two users and holds other vectors
        other = {k: -2.0 * v[::-1] for k, v in both.items()
                 if k not in {("user", 0), ("user", 5)}}
        inputs = ("ctr-user", "ctr-pin")
        self.arms = [
            (replace(self.MODEL, derm_inputs=inputs),
             {"ctr-upstream": fake_generation("ctr-upstream", both)}),
            (replace(self.MODEL, derm_inputs=inputs),
             {"ctr-upstream": fake_generation("ctr-upstream", other)}),
        ]
        self.tcfg = DownstreamTrainConfig(learning_rate=0.3, batch_size=13,
                                          epochs=3)

    def _stack(self, arms):
        """The arms' stacked models, seeds innermost, and their features."""
        feats = [build_features(self.train, cfg, gens) for cfg, gens in arms]
        stacked = dense_feature_batch(
            feats[0].base, np.stack([f.derm for f in feats]),
            np.stack([f.flags for f in feats]), feats[0].hist,
            feats[0].hist_len, feats[0].labels,
            arm=np.repeat(np.arange(len(arms)), len(self.SEEDS)))
        stack = DownstreamModel.stack([
            self._lone(cfg, feats[0], seed) for cfg, _ in arms
            for seed in self.SEEDS])
        return stack, stacked

    def _lone(self, cfg, feats, seed):
        return DownstreamModel(cfg, feats.base.shape[1], feats.derm.shape[-1],
                               seq_vocab=16, seed=seed)

    @pytest.mark.parametrize("derm", [True, False])
    def test_each_model_matches_its_lone_run(self, derm):
        arms = self.arms if derm else [(self.MODEL, {})]
        stack, stacked = self._stack(arms)
        assert stacked.hist_len.min() == 0
        train_downstream(stack, stacked, self.tcfg)
        m = 0
        for cfg, gens in arms:
            feats = build_features(self.train, cfg, gens)
            test_feats = build_features(self.test, cfg, gens)
            for seed in self.SEEDS:
                lone = self._lone(cfg, feats, seed)
                train_downstream(lone, feats, self.tcfg)
                member = stack.member(m)
                assert member.params.keys() == lone.params.keys()
                for k in lone.params:
                    assert np.array_equal(member.params[k], lone.params[k]), k
                assert evaluate(member, test_feats) == evaluate(lone, test_feats)
                m += 1

    def test_experiment_rows_match_lone_runs(self):
        gens = self.arms[0][1]
        arms = [ArmSpec("baseline"), ArmSpec("user", ("ctr-user",), "h"),
                ArmSpec("pin", ("ctr-pin",), "h"),
                ArmSpec("both", ("ctr-user", "ctr-pin"), "h")]
        tcfg = replace(self.tcfg, epochs=1)
        result = run_sensitivity_experiment(
            "ctr", arms, list(self.SEEDS), self.train, self.test, {"h": gens},
            seq_vocab=16, model_cfg_base=self.MODEL, train_cfg=tcfg)
        rows = iter(result.rows)
        for arm in arms:
            cfg = replace(self.MODEL, derm_inputs=arm.derm_inputs)
            arm_gens = gens if arm.derm_inputs else {}
            feats = build_features(self.train, cfg, arm_gens)
            for seed in self.SEEDS:
                lone = self._lone(cfg, feats, seed)
                train_downstream(lone, feats, tcfg)
                report = evaluate(lone, build_features(self.test, cfg, arm_gens))
                row = next(rows)
                assert (row.arm, row.seed) == (arm.name, seed)
                assert (row.roc_auc, row.pr_auc) == (report.roc_auc,
                                                     report.pr_auc)

    @np.errstate(over="ignore", invalid="ignore")
    def test_divergence_names_the_model(self):
        tcfg = replace(self.tcfg, learning_rate=1e40)
        arms = self.arms[:1]
        feats = build_features(self.train, *arms[0])
        steps = []
        for seed in self.SEEDS:
            log = []
            with pytest.raises(DivergedLossError):
                train_downstream(self._lone(arms[0][0], feats, seed), feats,
                                 tcfg, loss_log=log)
            steps.append(len(log))
        # the stack stops where its first model to diverge alone does: here
        # the second one, a step before the first
        assert steps == [2, 1]
        stack, stacked = self._stack(arms)
        with pytest.raises(DivergedLossError) as exc:
            train_downstream(stack, stacked, tcfg)
        assert str(exc.value) == ("non-finite downstream loss at epoch 0 in "
                                  "model 1 (seed 8)")

    def test_member_keeps_its_seed(self):
        gens = self.arms[0][1]
        cfgs = [replace(self.MODEL, derm_inputs=(name,))
                for name in ("ctr-user", "ctr-pin")]
        feats = build_features(self.train, cfgs[0], gens)
        stack = DownstreamModel.stack([self._lone(cfg, feats, seed)
                                       for cfg, seed in zip(cfgs, self.SEEDS)])
        assert stack.stacked and stack.seeds == self.SEEDS
        for m in range(len(cfgs)):
            member = stack.member(m)
            assert not member.stacked and member.seeds == (self.SEEDS[m],)
            member.params["head/b"][0] = 1.5 + m
        assert stack.params["head/b"].tolist() == [[1.5], [2.5]]

    def test_unequal_shapes_do_not_stack(self):
        feats = build_features(self.train, *self.arms[0])
        with pytest.raises(ShapeMismatchError):
            DownstreamModel.stack([self._lone(self.arms[0][0], feats, 0),
                                   self._lone(self.MODEL, feats, 0)])


class TestRowForm:
    """Features are row numbers into per-input tables of distinct vectors."""

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.zu = random_unit_rows(rng, 12, LATENT)
        self.zp = random_unit_rows(rng, 16, LATENT)
        self.samples = SampleBatch.concat(list(
            noise_samples(4, range(1, 4), 30, self.zu, self.zp).values()))
        vecs = {("user", u): self.zu[u] for u in range(12)}
        vecs.update({("pin", p): self.zp[p] for p in range(16)})
        vecs[("user", 3)] = np.zeros(LATENT)  # a stored zero vector is a hit
        # one store misses users 0 and 5, which the others hold
        self.arms = [
            (DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin")),
             {"ctr-upstream": fake_generation("ctr-upstream", vecs)}),
            (DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin")),
             {"ctr-upstream": fake_generation("ctr-upstream", {
                 k: -2.0 * v[::-1] for k, v in vecs.items()
                 if k not in {("user", 0), ("user", 5)}})}),
            (DownstreamConfig(derm_inputs=("ctr-pin", "ctr-user")),
             {"ctr-upstream": fake_generation("ctr-upstream", {
                 k: v + 1.0 for k, v in vecs.items()})}),
        ]

    def test_one_lookup_per_distinct_id_of_each_input(self, monkeypatch):
        keys = []
        lookup = StoreGeneration.lookup

        def counted(self, key):
            keys.append(key)
            return lookup(self, key)
        monkeypatch.setattr(StoreGeneration, "lookup", counted)
        cfg, gens = self.arms[1]
        feats = build_features(self.samples, cfg, gens)
        users = set(self.samples.user_id.tolist())
        pins = set(self.samples.pin_id.tolist())
        assert len(keys) == len(set(keys)) == len(users) + len(pins)
        assert {(k.kind, k.entity_id) for k in keys} == \
            {("user", u) for u in users} | {("pin", p) for p in pins}
        assert feats.rows.dtype == np.int32
        assert [len(t) for t in feats.tables] == [
            1 + len(users - {0, 5}), 1 + len(pins)]
        # the stored zero vector keeps a row of its own, with its flag up
        cfg, gens = self.arms[0]
        feats = build_features(self.samples, cfg, gens)
        zero = self.samples.user_id == 3
        assert zero.any() and (feats.rows[zero, 0] > 0).all()
        assert not feats.derm[zero, :LATENT].any()

    def test_stacked_arms_read_their_lone_features(self):
        stacked = _stacked_features(self.samples, self.arms, [0, 0, 1, 1, 2, 2])
        A, n, k = len(self.arms), len(self.samples), 2
        assert stacked.rows.dtype == np.int32
        assert stacked.rows.shape == (A, n, k)
        assert stacked.arm.tolist() == [0, 0, 1, 1, 2, 2]
        distinct = {"user": len(set(self.samples.user_id.tolist())),
                    "pin": len(set(self.samples.pin_id.tolist()))}
        for j in range(k):
            kinds = [DERM_INPUTS[cfg.derm_inputs[j]][1] for cfg, _ in self.arms]
            assert len(stacked.tables[j]) <= 1 + sum(distinct[i] for i in kinds)
        for a, (cfg, gens) in enumerate(self.arms):
            lone = build_features(self.samples, cfg, gens)
            mine = replace(stacked, rows=stacked.rows[a], arm=None)
            for name in ("derm", "flags"):
                got, want = getattr(mine, name), getattr(lone, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (a, name)
        # the second arm misses users the others hold
        assert not stacked.flags[1, :, 0].all() and stacked.flags[0].all()
        # a stacked slice gathers each model's rows of its own arm
        idx = np.arange(6 * 5).reshape(6, 5) % n
        sliced = stacked.slice(idx)
        for m in range(6):
            lone = build_features(self.samples[idx[m]], *self.arms[m // 2])
            assert sliced.derm[m].tobytes() == lone.derm.tobytes()

    def test_inputs_of_other_widths_train_as_their_lone_runs(self):
        # both arms' blocks are 7 wide, but their inputs are 4 + 3 and 3 + 4
        gens = {"ctr-upstream": self.arms[0][1]["ctr-upstream"],
                "cvr-upstream": fake_generation("cvr-upstream", {
                    **{("user", u): self.zu[u, :3] for u in range(12)},
                    **{("pin", p): self.zp[p, 1:] for p in range(16)}})}
        base = DownstreamConfig(projection_dim=4, num_experts=2,
                                expert_hidden=5, expert_out=4)
        arms = [ArmSpec("baseline"), ArmSpec("a", ("ctr-user", "cvr-pin"), "h"),
                ArmSpec("b", ("cvr-user", "ctr-pin"), "h")]
        train, test = self.samples[:70], self.samples[70:]
        tcfg = DownstreamTrainConfig(batch_size=16, epochs=1)
        result = run_sensitivity_experiment(
            "ctr", arms, [1], train, test, {"h": gens}, seq_vocab=16,
            model_cfg_base=base, train_cfg=tcfg)
        for arm, row in zip(arms, result.rows):
            cfg = replace(base, derm_inputs=arm.derm_inputs)
            arm_gens = gens if arm.derm_inputs else {}
            feats = build_features(train, cfg, arm_gens)
            lone = DownstreamModel(cfg, feats.base.shape[1], feats.derm_dim,
                                   seq_vocab=16, seed=1)
            train_downstream(lone, feats, tcfg)
            report = evaluate(lone, build_features(test, cfg, arm_gens))
            assert (row.roc_auc, row.pr_auc) == (report.roc_auc,
                                                 report.pr_auc)


# ---------------------------------------------------------------------------
# experiment harness


class TestExperiment:
    def _world(self):
        rng = np.random.default_rng(21)
        zu = random_unit_rows(rng, 12, LATENT)
        zp = random_unit_rows(rng, 16, LATENT)
        by_day = noise_samples(0, range(1, 7), 60, zu, zp)
        train = SampleBatch.concat([by_day[d] for d in range(1, 6)])
        test = by_day[6]
        gens = {"ma0.8": {"ctr-upstream": fake_generation("ctr-upstream", {
            **{("user", u): zu[u] for u in range(12)},
            **{("pin", p): zp[p] for p in range(16)},
        })}}
        return train, test, gens

    def test_lift_attributes_to_embeddings(self):
        train, test, gens = self._world()
        arms = [ArmSpec("baseline"),
                ArmSpec("embedded", ("ctr-user", "ctr-pin"), "ma0.8")]
        result = run_sensitivity_experiment(
            "ctr", arms, [0, 1], train, test, gens, seq_vocab=16,
            model_cfg_base=DownstreamConfig(projection_dim=4),
            train_cfg=DownstreamTrainConfig(learning_rate=0.3, epochs=12))
        s = result.summary
        assert 0.35 < s["baseline"]["roc_auc_mean"] < 0.65
        assert s["embedded"]["roc_auc_mean"] > 0.8
        assert s["embedded"]["lift_mean"] > 0.15

    def test_csv_layout(self):
        train, test, gens = self._world()
        arms = [ArmSpec("baseline"),
                ArmSpec("embedded", ("ctr-user",), "ma0.8")]
        result = run_sensitivity_experiment(
            "ctr", arms, [0, 1, 2], train, test, gens, seq_vocab=16,
            model_cfg_base=DownstreamConfig(projection_dim=4),
            train_cfg=DownstreamTrainConfig(epochs=1))
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "arm,seed,roc_auc,pr_auc,lift"
        assert len(lines) == 1 + 2 * 3
        for row in result.rows:
            if row.arm == "baseline":
                assert row.lift == 0.0
        assert "baseline" in result.summary_text()

    def test_baseline_required(self):
        train, test, gens = self._world()
        arms = [ArmSpec("embedded", ("ctr-user",), "ma0.8")]
        with pytest.raises(MissingBaselineError):
            run_sensitivity_experiment("ctr", arms, [0], train, test, gens,
                                       seq_vocab=16)

    def test_duplicate_arm_names_rejected(self):
        train, test, gens = self._world()
        arms = [ArmSpec("baseline"), ArmSpec("baseline", (), "ma0.8")]
        with pytest.raises(MissingBaselineError):
            run_sensitivity_experiment("ctr", arms, [0], train, test, gens,
                                       seq_vocab=16)

    def test_arm_builders(self):
        hs = [AggregationHeuristic(MA, 0.8), AggregationHeuristic(MA, 0.2)]
        arms = heuristic_arms(("ctr-user", "ctr-pin"), hs)
        assert [a.name for a in arms] == ["baseline", "ma0.8", "ma0.2"]
        assert arms[0].is_baseline and not arms[1].is_baseline

        arms = input_count_arms(AggregationHeuristic(MA, 0.8))
        names = [a.name for a in arms]
        assert names[0] == "baseline" and names[-1] == "all-four"
        assert len(names) == 6
        assert arms[-1].derm_inputs == ("ctr-user", "ctr-pin",
                                        "cvr-user", "cvr-pin")


class TestGridWorkers:
    """A grid's groups are cut into one batch of stacks per worker; no
    report depends on the cut or on the worker count."""

    @pytest.mark.parametrize("sizes, workers, want", [
        # the default heuristics and inputs grids on two CPUs
        ([5, 25], 2, [[(1, 0, 15)], [(0, 0, 5), (1, 15, 25)]]),
        ([5, 20, 5], 2, [[(1, 0, 15)], [(0, 0, 5), (1, 15, 20), (2, 0, 5)]]),
        # the grid benchmark's: six models are too few to cut
        ([2, 6], 2, [[(1, 0, 6)], [(0, 0, 2)]]),
        ([5, 25], 1, [[(0, 0, 5), (1, 0, 25)]]),
        ([3], 4, [[(0, 0, 3)]]),
    ])
    def test_batches(self, sizes, workers, want):
        assert _batches(sizes, workers) == want

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("sizes", [[1], [2, 9], [30], [5, 20, 5],
                                       [8, 8, 1, 7], [4, 12, 3, 3]])
    def test_batches_cover_each_group_once(self, sizes, workers):
        batches = _batches(sizes, workers)
        assert 1 <= len(batches) <= workers
        pieces = sorted(s for b in batches for s in b)
        for g, n in enumerate(sizes):
            mine = [(start, stop) for h, start, stop in pieces if h == g]
            assert [start for start, _ in mine] == [0] + [
                stop for _, stop in mine[:-1]]
            assert mine[-1][1] == n
            if len(mine) > 1:
                assert min(stop - start for start, stop in mine) >= MIN_STACK

    def test_cut_stacks_give_the_uncut_reports(self):
        train, test, gens = TestExperiment()._world()
        cfg = DownstreamConfig(projection_dim=4)
        inputs = {name: (replace(cfg, derm_inputs=(name,)), gens["ma0.8"])
                  for name in ("ctr-user", "ctr-pin")}
        tcfg = DownstreamTrainConfig(learning_rate=0.3, epochs=1)
        # 12 models in stacks of MIN_STACK; one stack holds both arms
        members = [(name, seed) for name in inputs for seed in range(6)]
        whole, failure = _train_stacks([(0, 0, members)], train, test,
                                       inputs, 16, tcfg)
        assert failure is None and len(whole) == len(members)
        cut = {}
        for start in range(0, len(members), MIN_STACK):
            reports, failure = _train_stacks(
                [(0, start, members[start:start + MIN_STACK])], train, test,
                inputs, 16, tcfg)
            assert failure is None
            cut.update(reports)
        assert cut == whole

    def test_one_cpu_and_two_give_the_same_bytes(self, monkeypatch):
        """The worker inherits its inputs: no SampleBatch is pickled."""
        train, test, gens = TestExperiment()._world()
        arms = [ArmSpec("baseline"), ArmSpec("embedded", ("ctr-user",), "ma0.8")]

        def unpicklable(batch, protocol):
            raise AssertionError("a SampleBatch was pickled")
        monkeypatch.setattr(SampleBatch, "__reduce_ex__", unpicklable)
        started, start = [], multiprocessing.context.ForkProcess.start
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            lambda proc: started.append(start(proc)))
        out = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            result = run_sensitivity_experiment(
                "ctr", arms, [0, 1, 2], train, test, gens, seq_vocab=16,
                model_cfg_base=DownstreamConfig(projection_dim=4),
                train_cfg=DownstreamTrainConfig(epochs=1))
            out.append((result.to_csv(), result.summary_text(), len(started)))
            assert multiprocessing.active_children() == []
        assert out[0][:2] == out[1][:2]
        assert [n for *_, n in out] == [0, 1]

    def test_a_worker_that_dies_is_a_derm_error(self, monkeypatch):
        train, test, gens = TestExperiment()._world()
        arms = [ArmSpec("baseline"), ArmSpec("embedded", ("ctr-user",), "ma0.8")]
        parent, train_stacks = os.getpid(), downstream._train_stacks

        def dies_in_a_child(*job):
            if os.getpid() != parent:
                os._exit(1)
            return train_stacks(*job)
        # the forked worker inherits the patch
        monkeypatch.setattr(downstream, "_train_stacks", dies_in_a_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(WorkerFailedError, match="exited with code 1"):
            run_sensitivity_experiment(
                "ctr", arms, [0, 1, 2], train, test, gens, seq_vocab=16,
                model_cfg_base=DownstreamConfig(projection_dim=4),
                train_cfg=DownstreamTrainConfig(epochs=1))
        assert multiprocessing.active_children() == []
