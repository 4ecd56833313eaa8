import numpy as np
import pytest

from derm.errors import EmptyBatchError, NonPositiveTauError
from derm.objectives import (
    bce_loss,
    estimate_batch_frequencies,
    sampled_softmax_loss,
)

from util import fd_check_params, random_unit_rows


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def make_batch(U, P, ids, positives=None):
    """sampled_softmax_loss's leading arguments: U, P, pin ids, positives."""
    U = np.asarray(U, dtype=float)
    P = np.asarray(P, dtype=float)
    if positives is None:
        positives = np.ones(len(ids), dtype=bool)
    return U, P, list(ids), np.asarray(positives, dtype=bool)


class TestBatchFrequencies:
    def test_uniform(self):
        q = estimate_batch_frequencies([1, 2, 3, 4])
        assert q == {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}

    def test_pairs(self):
        assert estimate_batch_frequencies([7, 7, 9, 9]) == {7: 0.5, 9: 0.5}

    def test_skewed(self):
        assert estimate_batch_frequencies([1, 1, 1, 2]) == {1: 0.75, 2: 0.25}

    def test_empty(self):
        with pytest.raises(EmptyBatchError):
            estimate_batch_frequencies([])


class TestSampledSoftmaxClosedForms:
    def test_zero_negatives_zero_loss(self):
        b = make_batch([unit([1, 1])], [unit([1, -1])], [0])
        res = sampled_softmax_loss(*b, {0: 1.0}, tau=0.5, negatives_per_pair=0)
        assert res.loss == 0.0
        assert np.all(res.du == 0) and np.all(res.dp == 0)
        assert res.dlog_tau == 0.0

    def test_equal_logits_uniform_q(self):
        # identical embeddings, uniform Q: softmax over 4 equal candidates
        e = unit([1.0, 2.0])
        b = make_batch([e] * 4, [e] * 4, [0, 1, 2, 3])
        q = {i: 0.25 for i in range(4)}
        res = sampled_softmax_loss(*b, q, tau=1.0, negatives_per_pair=3)
        assert res.loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_hand_computed_instance(self):
        # direct scalar evaluation of the loss definition
        u = np.array([1.0, 0.0])
        b = make_batch(
            [u, u, u],
            [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])],
            [0, 1, 2],
            positives=[True, False, False],
        )
        q = {0: 1.0, 1: 1.0, 2: 1.0}
        res = sampled_softmax_loss(*b, q, tau=1.0, negatives_per_pair=2)
        expect = np.log(1.0 + np.exp(-1.0) + np.exp(-2.0))
        assert res.loss == pytest.approx(expect, abs=1e-9)
        assert res.loss == pytest.approx(0.40761, abs=5e-6)

    def test_empty_positives_flag(self):
        b = make_batch(
            np.eye(2), np.eye(2), [0, 1], positives=[False, False]
        )
        res = sampled_softmax_loss(*b, {0: 0.5, 1: 0.5}, tau=1.0)
        assert res.loss == 0.0 and res.dlog_tau == 0.0
        assert np.all(res.du == 0) and np.all(res.dp == 0)

    def test_non_positive_tau(self):
        b = make_batch([unit([1, 0])], [unit([1, 0])], [0])
        with pytest.raises(NonPositiveTauError):
            sampled_softmax_loss(*b, {0: 1.0}, tau=0.0)


class TestSampledSoftmaxProperties:
    def test_q_scale_invariance(self):
        rng = np.random.default_rng(0)
        U = random_unit_rows(rng, 8, 4)
        P = random_unit_rows(rng, 8, 4)
        ids = list(range(8))
        b = make_batch(U, P, ids)
        q = {i: float(rng.uniform(0.05, 0.9)) for i in ids}
        base = sampled_softmax_loss(*b, q, tau=0.3, negatives_per_pair=4, rng_seed=9)
        for c in (0.1, 3.0, 250.0):
            scaled = sampled_softmax_loss(
                *b, {k: c * v for k, v in q.items()}, tau=0.3,
                negatives_per_pair=4, rng_seed=9,
            )
            assert scaled.loss == pytest.approx(base.loss, abs=1e-9)

    def test_loss_decreases_as_positive_similarity_rises(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            P = random_unit_rows(rng, 6, 4)
            ids = list(range(6))
            q = estimate_batch_frequencies(ids)
            pos = np.zeros(6, dtype=bool)
            pos[0] = True
            lo, hi = sorted(rng.uniform(-0.9, 0.9, size=2))
            losses = []
            for s in (lo, hi):
                # user embedding with controlled similarity to its positive pin
                u = s * P[0] + np.sqrt(1 - s ** 2) * unit(
                    np.linalg.svd(P[0][None])[2][1]
                )
                U = random_unit_rows(rng, 6, 4)
                U[0] = u
                b = make_batch(U, P, ids, positives=pos)
                losses.append(
                    sampled_softmax_loss(*b, q, tau=1.0, negatives_per_pair=5,
                                         rng_seed=42).loss
                )
            assert losses[1] < losses[0]

    def test_positive_loss_with_negatives(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            U = random_unit_rows(rng, 5, 6)
            P = random_unit_rows(rng, 5, 6)
            b = make_batch(U, P, list(range(5)))
            res = sampled_softmax_loss(
                *b, estimate_batch_frequencies(list(range(5))), tau=0.7,
                negatives_per_pair=3, rng_seed=seed,
            )
            assert res.loss > 0

    def test_duplicate_positive_pin_never_sampled_as_own_negative(self):
        # both rows share pin id 7; the only other pin is id 8
        e = unit([1.0, 0.5])
        U = np.stack([e, e, e])
        P = random_unit_rows(np.random.default_rng(3), 3, 2)
        b = make_batch(U, P, [7, 7, 8])
        q = estimate_batch_frequencies([7, 7, 8])
        res = sampled_softmax_loss(*b, q, tau=1.0, negatives_per_pair=5, rng_seed=0)
        # pairs 0 and 1 can only draw pin 8; pair 2 can draw both 7s
        assert res.loss > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        B, D = 5, 4
        U = random_unit_rows(rng, B, D)
        P = random_unit_rows(rng, B, D)
        ids = [0, 1, 2, 0, 3]
        pos = np.array([True, True, False, True, True])
        q = estimate_batch_frequencies(ids)

        params = {"U": U, "P": P, "log_tau": np.array([np.log(0.4)])}

        def make_loss(pd):
            b = make_batch(pd["U"], pd["P"], ids, positives=pos)
            res = sampled_softmax_loss(
                *b, q, tau=float(np.exp(pd["log_tau"][0])),
                negatives_per_pair=3, rng_seed=seed,
            )
            return res.loss, {"U": res.du, "P": res.dp,
                              "log_tau": np.array([res.dlog_tau])}

        assert fd_check_params(make_loss, params) < 1e-4


class TestNegativeDraws:
    def test_pinned_loss_and_generator_stream(self):
        # one rng.choice per positive, in batch order: the loss, the tau
        # gradient and the generator state after the call are all pinned
        rng = np.random.default_rng(11)
        U = random_unit_rows(rng, 12, 6)
        P = random_unit_rows(rng, 12, 6)
        ids = [0, 1, 2, 0, 3, 4, 1, 5, 6, 0, 7, 8]
        pos = [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]
        gen = np.random.default_rng(123)
        res = sampled_softmax_loss(
            *make_batch(U, P, ids, positives=pos), estimate_batch_frequencies(ids),
            tau=0.2, negatives_per_pair=5, rng_seed=gen,
        )
        assert res.loss == pytest.approx(3.18716383297107, rel=0, abs=1e-12)
        assert res.dlog_tau == pytest.approx(-1.9914300061617518, rel=0, abs=1e-12)
        assert gen.integers(1 << 62) == 3675714610293869622


class TestBCE:
    def test_logit_zero_label_one(self):
        loss, grad = bce_loss(0.0, 1)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert grad == pytest.approx(-0.5, abs=1e-12)

    def test_saturated_positive(self):
        loss, grad = bce_loss(40.0, 1)
        assert 0 <= loss < 1e-12
        assert np.isfinite(loss) and np.isfinite(grad)
        assert abs(grad) < 1e-12

    def test_softplus_case(self):
        loss, _ = bce_loss(1.5, 0)
        assert loss == pytest.approx(np.log1p(np.exp(1.5)), abs=1e-12)
        assert loss == pytest.approx(1.70141, abs=5e-6)

    def test_gradient_is_sigmoid_minus_label(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = float(rng.normal(scale=5))
            y = int(rng.integers(0, 2))
            _, grad = bce_loss(x, y)
            assert grad == pytest.approx(1 / (1 + np.exp(-x)) - y, abs=1e-10)

    def test_elementwise_matches_scalar_calls(self):
        x = np.array([[-3.0, 0.0], [1.7, 40.0]])
        y = np.array([[1, 0], [0, 1]])
        loss, grad = bce_loss(x, y)
        assert loss.shape == grad.shape == (2, 2)
        for i in np.ndindex(x.shape):
            assert (loss[i], grad[i]) == bce_loss(x[i], y[i])

    def test_matches_finite_differences(self):
        for x in (-3.0, -0.2, 0.0, 1.7, 8.0):
            for y in (0, 1):
                h = 1e-6
                num = (bce_loss(x + h, y)[0] - bce_loss(x - h, y)[0]) / (2 * h)
                assert bce_loss(x, y)[1] == pytest.approx(num, abs=1e-6)
