import copy
from dataclasses import replace

import numpy as np
import pytest

from derm.data import FeatureBundle
from derm.errors import ShapeMismatchError, UnknownCategoricalIdError, ZeroNormError
from derm.params import zeros_like_params
from derm.towers import (
    CATEGORICAL,
    DENSE,
    SEQUENCE,
    SlotSpec,
    TowerConfig,
    _block_backward,
    _block_forward,
    build_upstream_model,
    embed_entity,
    embed_entity_backward,
    init_tower_params,
    interaction_backward,
    interaction_forward,
    tower_backward,
    tower_forward,
)

from util import fd_check_params, pad_sequences


def micro_tower_cfg():
    return TowerConfig(
        slots=(
            SlotSpec("uid", CATEGORICAL, cardinality=5),
            SlotSpec("obs", DENSE, dim=3),
            SlotSpec("seq", SEQUENCE, cardinality=7),
        ),
        blocks=(("mlp", "masknet"), ("attention", "mlp")),
        token_dim=3,
        num_tokens=2,
    )


def micro_bundle(rng):
    """A one-row batch of the micro tower's slot columns."""
    return FeatureBundle(
        dense={"obs": rng.normal(size=(1, 3))},
        categorical={"uid": rng.integers(1, 5, size=1)},
        sequence={"seq": pad_sequences([rng.integers(1, 7, size=3)])},
    )


def make_params(cfg, seed, prefix="t"):
    params = {}
    init_tower_params(cfg, np.random.default_rng(seed), prefix, params)
    return params


class TestConfigValidation:
    def test_bad_block_kind(self):
        cfg = TowerConfig(
            slots=(SlotSpec("x", DENSE, dim=2),), blocks=(("mlp", "conv"),)
        )
        with pytest.raises(ShapeMismatchError):
            cfg.validate()

    def test_empty_blocks_rejected(self):
        cfg = TowerConfig(slots=(SlotSpec("x", DENSE, dim=2),), blocks=())
        with pytest.raises(ShapeMismatchError):
            cfg.validate()

    def test_output_dim(self):
        assert micro_tower_cfg().output_dim == 6


class TestEmbedEntity:
    def test_unit_norm_and_determinism(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 0)
        rng = np.random.default_rng(1)
        b = micro_bundle(rng)
        y1, _ = embed_entity(cfg, params, "t", b)
        y2, _ = embed_entity(cfg, params, "t", b)
        assert abs(np.linalg.norm(y1) - 1.0) < 1e-9
        assert np.array_equal(y1, y2)

    def test_zero_params_zero_features_rejected(self):
        cfg = TowerConfig(
            slots=(SlotSpec("obs", DENSE, dim=3),),
            blocks=(("mlp", "mlp"),),
            token_dim=2,
            num_tokens=2,
        )
        params = make_params(cfg, 0)
        for k in params:
            params[k][:] = 0.0
        with pytest.raises(ZeroNormError):
            embed_entity(cfg, params, "t", FeatureBundle(dense={"obs": np.zeros((1, 3))}))

    def test_unknown_categorical_id(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 0)
        b = micro_bundle(np.random.default_rng(2))
        b.categorical["uid"] = np.array([99])
        with pytest.raises(UnknownCategoricalIdError):
            embed_entity(cfg, params, "t", b)

    def test_categorical_id_changes_embedding(self):
        # oracle: direct forward evaluation with seeded params
        cfg = micro_tower_cfg()
        params = make_params(cfg, 3)
        rng = np.random.default_rng(4)
        b1 = micro_bundle(rng)
        b2 = copy.deepcopy(b1)
        b2.categorical["uid"] = (b1.categorical["uid"] % 4) + 1
        y1, _ = embed_entity(cfg, params, "t", b1)
        y2, _ = embed_entity(cfg, params, "t", b2)
        assert float(y1[0] @ y2[0]) < 1.0 - 1e-9

    def test_missing_slot_rejected(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 5)
        for kind, slot in ((DENSE, "obs"), (CATEGORICAL, "uid"), (SEQUENCE, "seq")):
            b = micro_bundle(np.random.default_rng(6))
            del getattr(b, kind)[slot]
            with pytest.raises(ShapeMismatchError, match=rf"slot {slot}: no {kind} column"):
                embed_entity(cfg, params, "t", b)

    def test_wrong_dense_width_rejected(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 5)
        b = micro_bundle(np.random.default_rng(6))
        b.dense["obs"] = np.zeros((1, 4))
        with pytest.raises(ShapeMismatchError, match=r"slot obs: expected dense dim 3"):
            embed_entity(cfg, params, "t", b)


class TestBlockGradients:
    """Each block kind in isolation against central differences."""

    @pytest.mark.parametrize("kind", ["mlp", "masknet", "attention"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_param_grads(self, kind, seed):
        cfg = TowerConfig(
            slots=(SlotSpec("obs", DENSE, dim=3),),
            blocks=((kind, kind),),
            token_dim=3,
            num_tokens=2,
        )
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2, 3))
        w = rng.normal(size=(2, 3))
        full = make_params(cfg, seed)
        block = {k: v for k, v in full.items() if "/layer0/a/" in k}

        def make_loss(p):
            y, cache = _block_forward(kind, X, p, "t/layer0/a")
            grads = zeros_like_params(p)
            _block_backward(kind, w, cache, p, "t/layer0/a", grads)
            return float((w * y).sum()), grads

        assert fd_check_params(make_loss, block) < 1e-6

    def test_zero_upstream_grad_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2, 3))
        cfg = TowerConfig(
            slots=(SlotSpec("obs", DENSE, dim=3),),
            blocks=(("masknet", "mlp"),),
            token_dim=3,
            num_tokens=2,
        )
        params = make_params(cfg, 1)
        grads = zeros_like_params(params)
        y, cache = _block_forward("masknet", X, params, "t/layer0/a")
        dX = _block_backward("masknet", np.zeros_like(y), cache, params, "t/layer0/a", grads)
        assert np.all(dX == 0)
        assert all(np.all(g == 0) for g in grads.values())

    def test_mlp_matches_closed_form_affine(self):
        # two-layer ReLU with all pre-activations positive reduces to W2(W1 x + b1) + b2
        rng = np.random.default_rng(2)
        D = 4
        p = {
            "m/W1": rng.uniform(0.1, 0.5, (D, D)),
            "m/b1": rng.uniform(1.0, 2.0, D),
            "m/W2": rng.normal(size=(D, D)),
            "m/b2": rng.normal(size=D),
        }
        x = rng.uniform(0.1, 1.0, D)
        from derm.towers import _mlp_backward, _mlp_forward

        y, cache = _mlp_forward(x, p, "m")
        np.testing.assert_allclose(y, p["m/W2"] @ (p["m/W1"] @ x + p["m/b1"]) + p["m/b2"])
        dy = rng.normal(size=D)
        grads = zeros_like_params(p)
        dx = _mlp_backward(dy, cache, p, "m", grads)
        h = p["m/W1"] @ x + p["m/b1"]
        np.testing.assert_allclose(grads["m/W2"], np.outer(dy, h), atol=1e-12)
        np.testing.assert_allclose(grads["m/b2"], dy, atol=1e-12)
        np.testing.assert_allclose(grads["m/W1"], np.outer(p["m/W2"].T @ dy, x), atol=1e-12)
        np.testing.assert_allclose(dx, p["m/W1"].T @ (p["m/W2"].T @ dy), atol=1e-12)


class TestTowerGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_tower_matches_finite_differences(self, seed):
        cfg = micro_tower_cfg()
        params = make_params(cfg, seed)
        rng = np.random.default_rng(100 + seed)
        bundle = micro_bundle(rng)
        w = rng.normal(size=cfg.output_dim)

        def make_loss(p):
            y, cache = embed_entity(cfg, p, "t", bundle)
            grads = zeros_like_params(p)
            embed_entity_backward(cfg, p, "t", cache, w[None], grads)
            return float(w @ y[0]), grads

        assert fd_check_params(make_loss, params) < 1e-4

    def test_unnormalized_tower_grads(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 7)
        rng = np.random.default_rng(8)
        bundle = micro_bundle(rng)
        w = rng.normal(size=cfg.output_dim)

        def make_loss(p):
            flat, cache = tower_forward(cfg, p, "t", bundle)
            grads = zeros_like_params(p)
            tower_backward(cfg, p, "t", cache, w[None], grads)
            return float(w @ flat[0]), grads

        assert fd_check_params(make_loss, params) < 1e-4


def micro_model(seed=0, ctx_dim=2):
    user_cfg = micro_tower_cfg()
    pin_cfg = TowerConfig(
        slots=(
            SlotSpec("pid", CATEGORICAL, cardinality=6),
            SlotSpec("pobs", DENSE, dim=3),
        ),
        blocks=(("masknet", "attention"),),
        token_dim=3,
        num_tokens=2,
    )
    context = (SlotSpec("ctx", DENSE, dim=ctx_dim),)
    return build_upstream_model(user_cfg, pin_cfg, context, "click", seed)


class TestInteractionTower:
    def test_built_from_the_entity_towers(self):
        cfg = micro_model(ctx_dim=2).inter_cfg
        assert [(s.name, s.kind, s.dim) for s in cfg.slots] == [
            ("user_emb", DENSE, 6), ("pin_emb", DENSE, 6), ("u_dot_p", DENSE, 1),
            ("ctx", DENSE, 2)]
        assert cfg.blocks == (("mlp", "masknet"),)
        assert (cfg.token_dim, cfg.num_tokens) == (3, 2)
        narrow = replace(micro_tower_cfg(), num_tokens=1)
        with pytest.raises(ShapeMismatchError, match="share output_dim"):
            build_upstream_model(micro_tower_cfg(), narrow, (), "click", 0)

    def test_determinism(self):
        model = micro_model()
        rng = np.random.default_rng(0)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        p = rng.normal(size=6)
        p /= np.linalg.norm(p)
        ctx = FeatureBundle(dense={"ctx": rng.normal(size=(1, 2))})
        l1, _ = interaction_forward(model, u[None], p[None], ctx)
        l2, _ = interaction_forward(model, u[None], p[None], ctx)
        assert np.array_equal(l1, l2)

    def test_context_does_not_touch_entity_embeddings(self):
        model = micro_model(seed=1)
        rng = np.random.default_rng(1)
        ub = micro_bundle(rng)
        pb = FeatureBundle(dense={"pobs": rng.normal(size=(1, 3))},
                           categorical={"pid": np.array([2])})
        e1, _ = embed_entity(model.user_cfg, model.params, "user", ub)
        p1, _ = embed_entity(model.pin_cfg, model.params, "pin", pb)
        ctx_a = FeatureBundle(dense={"ctx": np.array([[0.0, 0.0]])})
        ctx_b = FeatureBundle(dense={"ctx": np.array([[5.0, -3.0]])})
        la, _ = interaction_forward(model, e1, p1, ctx_a)
        lb, _ = interaction_forward(model, e1, p1, ctx_b)
        assert la[0] != lb[0]
        # embeddings are a function of entity features only; recompute and compare
        assert np.array_equal(embed_entity(model.user_cfg, model.params, "user", ub)[0], e1)
        assert np.array_equal(embed_entity(model.pin_cfg, model.params, "pin", pb)[0], p1)

    def test_matches_straight_line_reimplementation(self):
        # oracle: scalar re-evaluation of the same layer equations
        model = micro_model(seed=3)
        rng = np.random.default_rng(3)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        p = rng.normal(size=6)
        p /= np.linalg.norm(p)
        ctx_x = rng.normal(size=2)
        logits, _ = interaction_forward(
            model, u[None], p[None], FeatureBundle(dense={"ctx": ctx_x[None]})
        )

        P = model.params
        cfg = model.inter_cfg
        inputs = {
            "user_emb": u,
            "pin_emb": p,
            "u_dot_p": np.array([float(sum(ui * pi for ui, pi in zip(u, p)))]),
            "ctx": ctx_x,
        }
        d, n = cfg.token_dim, cfg.num_tokens
        slot_tokens = []
        for s in cfg.slots:
            W = P[f"inter/slot/{s.name}/W"]
            b = P[f"inter/slot/{s.name}/b"]
            t = np.array(
                [sum(W[r][c] * inputs[s.name][c] for c in range(s.dim)) + b[r] for r in range(d)]
            )
            slot_tokens.append(t)
        M = P["inter/mix/M"]
        X = np.zeros((n, d))
        for i in range(n):
            for j in range(len(cfg.slots)):
                for c in range(d):
                    X[i, c] += M[i, j] * slot_tokens[j][c]
        flat = X.ravel()
        # layer 0: mlp + masknet + shortcut, flattened view
        W1, b1 = P["inter/layer0/a/W1"], P["inter/layer0/a/b1"]
        W2, b2 = P["inter/layer0/a/W2"], P["inter/layer0/a/b2"]
        h = np.array([max(0.0, sum(W1[r][c] * flat[c] for c in range(flat.size)) + b1[r]) for r in range(flat.size)])
        ya = np.array([sum(W2[r][c] * h[c] for c in range(flat.size)) + b2[r] for r in range(flat.size)])
        Wg, bg = P["inter/layer0/b/Wg"], P["inter/layer0/b/bg"]
        Wp, bp = P["inter/layer0/b/Wp"], P["inter/layer0/b/bp"]
        gate = np.array([1.0 / (1.0 + np.exp(-(sum(Wg[r][c] * flat[c] for c in range(flat.size)) + bg[r]))) for r in range(flat.size)])
        proj = np.array([sum(Wp[r][c] * flat[c] for c in range(flat.size)) + bp[r] for r in range(flat.size)])
        z = ya + gate * proj + flat
        w, bias = P["head/click/w"], P["head/click/b"]
        expect = sum(w[c] * z[c] for c in range(z.size)) + bias[0]
        assert logits[0] == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interaction_grads_including_embedding_inputs(self, seed):
        model = micro_model(seed=seed)
        rng = np.random.default_rng(200 + seed)
        u = rng.normal(size=6)
        p = rng.normal(size=6)
        ctx = FeatureBundle(dense={"ctx": rng.normal(size=(1, 2))})

        # check params and (u, p) jointly by folding the embeddings into the vector
        params = dict(model.params)
        params["__u"] = u
        params["__p"] = p

        def make_loss(pd):
            m = type(model)(model.user_cfg, model.pin_cfg, model.inter_cfg,
                            model.task, {k: v for k, v in pd.items() if not k.startswith("__")})
            logits, cache = interaction_forward(m, pd["__u"][None], pd["__p"][None], ctx)
            loss = float(np.tanh(logits[0]))
            dl = 1.0 - np.tanh(logits) ** 2
            grads = zeros_like_params(m.params)
            du, dp = interaction_backward(m, cache, dl, grads)
            grads["__u"] = du[0]
            grads["__p"] = dp[0]
            return loss, grads

        assert fd_check_params(make_loss, params) < 1e-4


def batch_bundle():
    """Six user rows: histories of length 0, 1 and 3, uids repeated
    across rows, history ids repeated within and across rows."""
    rng = np.random.default_rng(31)
    hists = [[], [4], [2, 2, 5], [5, 1, 5], [], [2]]
    return FeatureBundle(dense={"obs": rng.normal(size=(6, 3))},
                         categorical={"uid": np.array([1, 3, 1, 0, 3, 1])},
                         sequence={"seq": pad_sequences(hists)})


class TestBatches:
    """A batch is the stack of its rows, and its gradients sum over rows:
    repeated ids must add up in the table gradients, not overwrite."""

    def test_rows_match_batch_of_one(self):
        cfg = micro_tower_cfg()
        params = make_params(cfg, 9)
        bundle = batch_bundle()
        Y, _ = embed_entity(cfg, params, "t", bundle)
        assert Y.shape == (6, cfg.output_dim)
        for i, row in enumerate(Y):
            alone, _ = embed_entity(cfg, params, "t", bundle[i:i + 1])
            np.testing.assert_allclose(row, alone[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_embed_grads_on_batch(self, seed):
        cfg = micro_tower_cfg()
        params = make_params(cfg, seed)
        bundle = batch_bundle()
        W = np.random.default_rng(50 + seed).normal(size=(6, cfg.output_dim))

        def make_loss(p):
            Y, cache = embed_entity(cfg, p, "t", bundle)
            grads = zeros_like_params(p)
            embed_entity_backward(cfg, p, "t", cache, W, grads)
            return float((W * Y).sum()), grads

        assert fd_check_params(make_loss, params) < 1e-4

    def test_upstream_chain_grads_on_batch(self):
        # user and pin towers feed the interaction tower, all on one batch
        model = micro_model(seed=2)
        users = batch_bundle()
        rng = np.random.default_rng(62)
        pins = FeatureBundle(dense={"pobs": rng.normal(size=(6, 3))},
                             categorical={"pid": np.array([2, 5, 2, 2, 0, 5])})
        contexts = FeatureBundle(dense={"ctx": rng.normal(size=(6, 2))})

        def make_loss(p):
            m = type(model)(model.user_cfg, model.pin_cfg, model.inter_cfg,
                            model.task, p)
            U, uc = embed_entity(m.user_cfg, p, "user", users)
            P, pc = embed_entity(m.pin_cfg, p, "pin", pins)
            logits, cache = interaction_forward(m, U, P, contexts)
            t = np.tanh(logits)
            grads = zeros_like_params(p)
            dU, dP = interaction_backward(m, cache, 1.0 - t ** 2, grads)
            embed_entity_backward(m.user_cfg, p, "user", uc, dU, grads)
            embed_entity_backward(m.pin_cfg, p, "pin", pc, dP, grads)
            return float(t.sum()), grads

        assert fd_check_params(make_loss, model.params) < 1e-4
