import numpy as np
import pytest

from derm.errors import ZeroNormError
from derm.numerics import cosine_similarity, sigmoid

from util import check_gradient, l2_normalize


class TestL2Normalize:
    def test_pythagorean(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_axis_vector(self):
        np.testing.assert_allclose(l2_normalize([0.0, 0.0, 5.0]), [0, 0, 1], atol=1e-12)

    def test_symmetry(self):
        np.testing.assert_allclose(l2_normalize([1, 1, 1, 1]), [0.5] * 4, atol=1e-12)

    def test_unit_norm_postcondition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 30))
            if np.linalg.norm(v) < 1e-6:
                continue
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=8)
            once = l2_normalize(v)
            np.testing.assert_allclose(l2_normalize(once), once, atol=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            l2_normalize([0.0, 0.0])
        with pytest.raises(ZeroNormError):
            l2_normalize([1e-13, 0.0])


class TestCosineSimilarity:
    def test_parallel(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_45_degrees(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(np.sqrt(0.5))

    def test_matches_normalized_dot(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = rng.normal(size=(2, 7))
            expect = float(np.dot(l2_normalize(a), l2_normalize(b)))
            assert abs(cosine_similarity(a, b) - expect) < 1e-9

    def test_clamped_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = rng.normal(size=(2, 3))
            assert -1.0 <= cosine_similarity(a, b) <= 1.0

    def test_zero_norm(self):
        with pytest.raises(ZeroNormError):
            cosine_similarity([0, 0], [1, 0])


class TestCheckGradient:
    def test_quadratic(self):
        f = lambda v: float(v @ v)
        assert check_gradient(f, [1.0, 2.0], [2.0, 4.0]) < 1e-6

    def test_softmax_cross_entropy(self):
        # oracle: the central-difference evaluation inside check_gradient
        rng = np.random.default_rng(7)
        x = rng.normal(size=6)

        def softmax(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        def f(v):
            return float(-np.log(softmax(v)[2]))

        analytic = softmax(x).copy()
        analytic[2] -= 1.0
        assert check_gradient(f, x, analytic) < 1e-4

    def test_flags_wrong_gradient(self):
        f = lambda v: float(v @ v)
        err = check_gradient(f, [1.0, 2.0], [4.0, 8.0])  # analytic scaled by 2
        assert err == pytest.approx(1 / 3, abs=1e-4)


class TestSigmoid:
    def test_saturation_is_finite(self):
        assert sigmoid(np.float64(500.0)) == 1.0
        lo = sigmoid(np.float64(-500.0))
        assert np.isfinite(lo) and 0.0 <= lo < 1e-200

    def test_matches_definition(self):
        x = np.linspace(-30, 30, 201)
        np.testing.assert_allclose(sigmoid(x), 1 / (1 + np.exp(-x)), atol=1e-12)
