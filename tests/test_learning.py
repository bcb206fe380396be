import math

import numpy as np
import pytest

from conftest import make_image, make_samples, no_samples
from uavfl.errors import (DimensionMismatch, EmptyShard, EmptyTestSet, EmptyUpdateSet,
                          InvariantViolation, LengthMismatch)
from uavfl.learning import (ModelSpec, aggregate, evaluate_matrix, local_loss, local_train,
                            loss_and_grad, model_init, predict_proba, sample_loss,
                            samples_to_matrix)

SMALL = ModelSpec(input_dim=16, hidden_dim=4)


def cluster_shard(rng, n=40, side=8):
    """Linearly separable two-cluster shard: dark class 0, bright class 1."""
    images, labels = [], []
    for i in range(n):
        label = i % 2
        base = 40 if label == 0 else 215
        images.append(make_image(np.clip(base + rng.normal(0, 10, size=(side, side)), 0, 255)))
        labels.append(label)
    return make_samples(images, labels)


class TestSamplesToMatrix:
    def test_scaled_rows_and_labels(self):
        images = [make_image(np.arange(16).reshape(4, 4) * 17), make_image(np.zeros((4, 4)))]
        X, y = samples_to_matrix(make_samples(images, [1, 0]), SMALL)
        assert X.dtype == np.float64 and X.shape == (2, 16)
        assert np.array_equal(X[0], np.arange(16) * 17 / 255.0)
        assert y.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("shape", [(8, 8), (4, 5), (2, 8)])
    def test_rejects_images_that_are_not_side_by_side(self, shape):
        with pytest.raises(DimensionMismatch):
            samples_to_matrix(make_samples([make_image(np.zeros(shape))]), SMALL)


class TestModelInit:
    def test_same_seed_identical(self):
        a = model_init(SMALL, np.random.SeedSequence(5))
        b = model_init(SMALL, np.random.SeedSequence(5))
        assert np.array_equal(a, b)

    def test_biases_zero(self):
        params = model_init(SMALL, np.random.SeedSequence(5))
        d, h = SMALL.input_dim, SMALL.hidden_dim
        assert np.all(params[d * h:d * h + h] == 0.0)   # hidden biases
        assert params[-1] == 0.0                        # output bias

    def test_different_seeds_differ(self):
        for s in range(100):
            a = model_init(SMALL, np.random.SeedSequence(s))
            b = model_init(SMALL, np.random.SeedSequence(s + 1000))
            assert not np.array_equal(a, b)

    def test_param_count(self):
        spec = ModelSpec(input_dim=1024, hidden_dim=64)
        assert spec.param_count == 1024 * 64 + 64 + 64 + 1
        assert model_init(spec, np.random.SeedSequence(0)).shape == (spec.param_count,)


class TestLoss:
    def test_zero_params_gives_ln2(self):
        params = np.zeros(SMALL.param_count)
        img = make_image(np.full((4, 4), 100))
        assert sample_loss(params, img, 1, SMALL) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_correct_output_near_zero_loss(self):
        # big positive output bias drives the sigmoid to (clamped) 1
        params = np.zeros(SMALL.param_count)
        params[-1] = 50.0
        assert sample_loss(params, make_image(np.full((4, 4), 100)), 1, SMALL) < 1e-11

    def test_local_loss_singleton_equals_sample_loss(self, rng):
        params = rng.normal(0, 0.1, SMALL.param_count)
        img = make_image(rng.integers(0, 256, (4, 4)))
        assert local_loss(params, make_samples([img], 1), SMALL) == pytest.approx(
            sample_loss(params, img, 1, SMALL), rel=1e-15)

    def test_local_loss_is_mean(self, rng):
        params = rng.normal(0, 0.1, SMALL.param_count)
        a = make_image(rng.integers(0, 256, (4, 4)))
        b = make_image(rng.integers(0, 256, (4, 4)))
        la, lb = sample_loss(params, a, 0, SMALL), sample_loss(params, b, 1, SMALL)
        ab = make_samples([a, b], [0, 1])
        assert local_loss(params, ab, SMALL) == pytest.approx((la + lb) / 2.0, rel=1e-12)
        assert local_loss(params, make_samples([a, b, a, b], [0, 1, 0, 1]), SMALL) == \
            pytest.approx(local_loss(params, ab, SMALL), rel=1e-12)

    def test_empty_shard(self):
        with pytest.raises(EmptyShard):
            local_loss(np.zeros(SMALL.param_count), no_samples(4), SMALL)


class TestGradientCheck:
    def test_analytic_matches_central_differences(self, rng):
        spec = ModelSpec(input_dim=9, hidden_dim=3)
        h = 1e-6
        for _ in range(100):
            params = rng.normal(0, 0.5, spec.param_count)
            X = rng.uniform(0, 1, size=(3, spec.input_dim))
            y = rng.integers(0, 2, size=3).astype(np.float64)
            _, grad = loss_and_grad(params, X, y, spec)
            num = np.empty_like(grad)
            for i in range(spec.param_count):
                p_hi, p_lo = params.copy(), params.copy()
                p_hi[i] += h
                p_lo[i] -= h
                l_hi, _ = loss_and_grad(p_hi, X, y, spec)
                l_lo, _ = loss_and_grad(p_lo, X, y, spec)
                num[i] = (l_hi - l_lo) / (2.0 * h)
            assert np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12) <= 1e-4


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self, rng):
        spec = ModelSpec(input_dim=16, hidden_dim=4, learning_rate=0.0)
        params = rng.normal(0, 0.1, spec.param_count)
        shard = cluster_shard(rng, n=8, side=4)
        out = local_train(params, shard, spec, 2, np.random.SeedSequence(1))
        assert np.array_equal(out, params)

    def test_input_params_untouched(self, rng):
        params = rng.normal(0, 0.1, SMALL.param_count)
        before = params.copy()
        local_train(params, cluster_shard(rng, n=8, side=4), SMALL, 1,
                    np.random.SeedSequence(1))
        assert np.array_equal(params, before)

    def test_deterministic(self, rng):
        params = rng.normal(0, 0.1, SMALL.param_count)
        shard = cluster_shard(rng, n=16, side=4)
        a = local_train(params, shard, SMALL, 3, np.random.SeedSequence([7, 7]))
        b = local_train(params, shard, SMALL, 3, np.random.SeedSequence([7, 7]))
        assert np.array_equal(a, b)

    def test_separable_clusters_learned(self, rng):
        spec = ModelSpec(input_dim=64, hidden_dim=8)
        shard = cluster_shard(rng, n=40, side=8)
        params = model_init(spec, np.random.SeedSequence(0))
        trained = local_train(params, shard, spec, 20, np.random.SeedSequence(1))
        X, y = samples_to_matrix(shard, spec)
        acc = float(np.mean((predict_proba(trained, X, spec) >= 0.5) == (y == 1.0)))
        assert acc >= 0.95

    def test_empty_shard(self):
        with pytest.raises(EmptyShard):
            local_train(np.zeros(SMALL.param_count), no_samples(4), SMALL, 1, 0)


class TestAggregate:
    def test_single_update_unchanged(self, rng):
        vec = rng.normal(size=10)
        assert np.array_equal(aggregate([(1, vec, 5)]), vec)

    def test_hand_evaluated_weighted_mean(self):
        out = aggregate([(1, np.array([1.0]), 1), (2, np.array([3.0]), 3)])
        assert out[0] == pytest.approx(2.5, rel=1e-15)

    def test_equal_sizes_plain_mean(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        out = aggregate([(1, a, 4), (2, b, 4)])
        assert np.allclose(out, (a + b) / 2.0, rtol=1e-14)

    def test_permutation_invariance_bitwise(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 8))
            updates = [(i, rng.normal(size=12), int(rng.integers(1, 50)))
                       for i in range(k)]
            ref = aggregate(updates)
            perm = [updates[i] for i in rng.permutation(k)]
            assert np.array_equal(aggregate(perm), ref)

    def test_identical_inputs_exact(self, rng):
        vec = rng.normal(size=8)
        out = aggregate([(1, vec.copy(), 3), (2, vec.copy(), 9), (3, vec.copy(), 1)])
        assert np.array_equal(out, vec)

    def test_errors(self):
        with pytest.raises(EmptyUpdateSet):
            aggregate([])
        with pytest.raises(LengthMismatch):
            aggregate([(1, np.zeros(3), 1), (2, np.zeros(4), 1)])
        with pytest.raises(InvariantViolation):
            aggregate([(1, np.zeros(3), 0)])


def evaluate(params, test_set, spec):
    return evaluate_matrix(params, *samples_to_matrix(test_set, spec), spec)


class TestEvaluate:
    def test_constant_positive_prediction(self):
        params = np.zeros(SMALL.param_count)
        params[-1] = 0.1  # sigmoid(0.1) > 0.5 for every input
        tests = make_samples([make_image(np.full((4, 4), v)) for v in (0, 100, 255)], 1)
        acc, _ = evaluate(params, tests, SMALL)
        assert acc == 1.0

    def test_random_guess_is_near_half(self, rng):
        params = model_init(SMALL, np.random.SeedSequence(3))
        tests = make_samples([make_image(rng.integers(0, 256, (4, 4))) for _ in range(400)],
                             np.arange(400) % 2)
        acc, loss = evaluate(params, tests, SMALL)
        assert abs(acc - 0.5) <= 0.05
        assert loss > 0.0

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            evaluate(np.zeros(SMALL.param_count), no_samples(4), SMALL)
