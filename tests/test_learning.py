import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_image, make_samples, no_samples
from oracles import _oracle_grad, oracle_local_train
from uavfl.config import load_config
from uavfl.errors import InvariantViolation
from uavfl.learning import (ModelSpec, aggregate, evaluate_matrix, local_train,
                            loss_and_grad, model_init, samples_to_matrix)
from uavfl.types import Samples

SMALL = ModelSpec(hidden_dim=4)
D = 16                       # SMALL reads 4x4 images
P = SMALL.param_count(D)
CALIBRATED = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "scenario1_calibrated.json")


def cluster_shard(rng, n=40, side=8):
    """Linearly separable two-cluster shard: dark class 0, bright class 1."""
    images, labels = [], []
    for i in range(n):
        label = i % 2
        base = 40 if label == 0 else 215
        images.append(make_image(np.clip(base + rng.normal(0, 10, size=(side, side)), 0, 255)))
        labels.append(label)
    return make_samples(images, labels)


def evaluate(params, test_set, spec):
    """(accuracy, mean loss) on a Samples test set."""
    return evaluate_matrix(params, *samples_to_matrix(test_set), spec)


class TestSamplesToMatrix:
    def test_scaled_rows_and_labels(self):
        images = [make_image(np.arange(16).reshape(4, 4) * 17), make_image(np.zeros((4, 4)))]
        X, y = samples_to_matrix(make_samples(images, [1, 0]))
        assert X.dtype == np.float64 and X.shape == (2, 16)
        assert np.array_equal(X[0], np.arange(16) * 17 / 255.0)
        assert y.tolist() == [1.0, 0.0]


class TestModelInit:
    def test_same_seed_identical(self):
        a = model_init(SMALL, D, np.random.SeedSequence(5))
        b = model_init(SMALL, D, np.random.SeedSequence(5))
        assert np.array_equal(a, b)

    def test_biases_zero(self):
        params = model_init(SMALL, D, np.random.SeedSequence(5))
        d, h = D, SMALL.hidden_dim
        assert np.all(params[d * h:d * h + h] == 0.0)   # hidden biases
        assert params[-1] == 0.0                        # output bias

    def test_different_seeds_differ(self):
        for s in range(100):
            a = model_init(SMALL, D, np.random.SeedSequence(s))
            b = model_init(SMALL, D, np.random.SeedSequence(s + 1000))
            assert not np.array_equal(a, b)

    def test_param_count(self):
        spec = ModelSpec(hidden_dim=64)
        assert spec.param_count(1024) == 1024 * 64 + 64 + 64 + 1
        assert model_init(spec, 1024, np.random.SeedSequence(0)).shape == (spec.param_count(1024),)


def sample_loss(params, image, label, spec):
    """BCE of one image, written out from the parameter layout [W1, b1, w2, b2]."""
    d, h = image.size, spec.hidden_dim
    w1, b1 = params[:d * h].reshape(h, d), params[d * h:d * h + h]
    w2, b2 = params[d * h + h:d * h + 2 * h], params[-1]
    z = w2 @ np.maximum(w1 @ (image.ravel() / 255.0) + b1, 0.0) + b2
    p = min(max(1.0 / (1.0 + math.exp(-z)), 1e-12), 1.0 - 1e-12)
    return -math.log(p) if label == 1 else -math.log(1.0 - p)


def local_loss(params, shard, spec):
    """Mean loss over a shard, as the harness computes it."""
    return evaluate(params, shard, spec)[1]


class TestLoss:
    def test_zero_params_gives_ln2(self):
        shard = make_samples([make_image(np.full((4, 4), 100))], 1)
        assert local_loss(np.zeros(P), shard, SMALL) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_correct_output_near_zero_loss(self):
        # big positive output bias drives the sigmoid to (clamped) 1
        params = np.zeros(P)
        params[-1] = 50.0
        shard = make_samples([make_image(np.full((4, 4), 100))], 1)
        assert local_loss(params, shard, SMALL) < 1e-11

    def test_local_loss_singleton_equals_sample_loss(self, rng):
        params = rng.normal(0, 0.1, P)
        img = make_image(rng.integers(0, 256, (4, 4)))
        assert local_loss(params, make_samples([img], 1), SMALL) == pytest.approx(
            sample_loss(params, img, 1, SMALL), rel=1e-15)

    def test_local_loss_is_mean(self, rng):
        params = rng.normal(0, 0.1, P)
        a = make_image(rng.integers(0, 256, (4, 4)))
        b = make_image(rng.integers(0, 256, (4, 4)))
        la, lb = sample_loss(params, a, 0, SMALL), sample_loss(params, b, 1, SMALL)
        ab = make_samples([a, b], [0, 1])
        assert local_loss(params, ab, SMALL) == pytest.approx((la + lb) / 2.0, rel=1e-12)
        assert local_loss(params, make_samples([a, b, a, b], [0, 1, 0, 1]), SMALL) == \
            pytest.approx(local_loss(params, ab, SMALL), rel=1e-12)


class TestGradientCheck:
    def test_analytic_matches_central_differences(self, rng):
        spec, d = ModelSpec(hidden_dim=3), 9
        h = 1e-6
        for _ in range(100):
            params = rng.normal(0, 0.5, spec.param_count(d))
            X = rng.uniform(0, 1, size=(3, d))
            y = rng.integers(0, 2, size=3).astype(np.float64)
            _, grad = loss_and_grad(params, X, y, spec)
            num = np.empty_like(grad)
            for i in range(spec.param_count(d)):
                p_hi, p_lo = params.copy(), params.copy()
                p_hi[i] += h
                p_lo[i] -= h
                l_hi, _ = loss_and_grad(p_hi, X, y, spec)
                l_lo, _ = loss_and_grad(p_lo, X, y, spec)
                num[i] = (l_hi - l_lo) / (2.0 * h)
            assert np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12) <= 1e-4

    def test_non_finite_gradient_is_rejected(self):
        # finite parameters whose hidden activations overflow to inf
        params = np.full(P, 1e308)
        X, y = np.ones((2, D)), np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvariantViolation, match="non-finite gradient"):
                loss_and_grad(params, X, y, SMALL)


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self, rng):
        spec = ModelSpec(hidden_dim=4, learning_rate=0.0)
        params = rng.normal(0, 0.1, P)
        shard = cluster_shard(rng, n=8, side=4)
        out = local_train(params, shard, spec, 2, np.random.SeedSequence(1))
        assert np.array_equal(out, params)

    def test_input_params_untouched(self, rng):
        params = rng.normal(0, 0.1, P)
        before = params.copy()
        local_train(params, cluster_shard(rng, n=8, side=4), SMALL, 1,
                    np.random.SeedSequence(1))
        assert np.array_equal(params, before)

    def test_deterministic(self, rng):
        params = rng.normal(0, 0.1, P)
        shard = cluster_shard(rng, n=16, side=4)
        a = local_train(params, shard, SMALL, 3, np.random.SeedSequence([7, 7]))
        b = local_train(params, shard, SMALL, 3, np.random.SeedSequence([7, 7]))
        assert np.array_equal(a, b)

    def test_separable_clusters_learned(self, rng):
        spec = ModelSpec(hidden_dim=8)
        shard = cluster_shard(rng, n=40, side=8)
        params = model_init(spec, 64, np.random.SeedSequence(0))
        trained = local_train(params, shard, spec, 20, np.random.SeedSequence(1))
        acc, _ = evaluate(trained, shard, spec)
        assert acc >= 0.95

    def test_empty_shard(self):
        with pytest.raises(InvariantViolation, match="local_train on empty shard"):
            local_train(np.zeros(P), no_samples(4), SMALL, 1, 0)

    @pytest.mark.parametrize("shape", [(8, 8), (4, 5), (3, 3)])
    def test_images_that_do_not_fit_the_params_are_rejected(self, shape):
        # SMALL's 4x4 parameter vector: the shard fails before any training
        samples = make_samples([make_image(np.zeros(shape))] * 2, [0, 1])
        d = shape[0] * shape[1]
        message = rf"{d} inputs take {SMALL.param_count(d)} parameters, got \({P},\)"
        with pytest.raises(InvariantViolation, match=message):
            local_train(np.zeros(P), samples, SMALL, 1, 0)
        with pytest.raises(InvariantViolation, match=message):
            evaluate(np.zeros(P), samples, SMALL)


@st.composite
def training_runs(draw):
    """(params, shard, spec, epochs): a 3x3-pixel shard whose size is not a
    multiple of the batch size, so every epoch ends on a partial batch."""
    batch_size = draw(st.integers(2, 8))
    n = batch_size * draw(st.integers(0, 3)) + draw(st.integers(1, batch_size - 1))
    spec = ModelSpec(hidden_dim=draw(st.integers(1, 5)), batch_size=batch_size,
                     learning_rate=draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.3])),
                     adam_eps=draw(st.sampled_from([1e-8, 1e-3])))
    images = draw(arrays(np.uint8, (n, 3, 3)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    params = draw(arrays(np.float64, spec.param_count(9),
                         elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    return params, Samples(images, labels), spec, draw(st.integers(2, 4))


def calibrated_call(n):
    """(spec, epochs, shard, params): the calibrated model and an n-sample
    shard of 32x32 images."""
    config = load_config(CALIBRATED)
    spec, epochs = config.model, config.cost.epochs_per_round
    assert (spec.hidden_dim, spec.batch_size) == (64, 32)
    rng = np.random.default_rng(n)
    images = np.clip(rng.normal(128.0, 60.0, (n, 32, 32)), 0, 255).astype(np.uint8)
    shard = Samples(images, rng.integers(0, 2, n))
    return spec, epochs, shard, model_init(spec, 1024, np.random.SeedSequence(n))


def same_bits(a, b):
    """Equal bit for bit: tells -0.0 from 0.0, which np.array_equal does not."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# hidden width 5, one 3x3 sample, batches of 2, 3 epochs, seed 0: with W1's
# rows kept out of unit order, OpenBLAS summed X @ w1.T's single row in
# another order and the step missed the textbook's under SkylakeX and Haswell
FIVE_UNITS = (2.0 * np.sin(np.arange(56.0)),
              Samples(np.arange(0, 252, 28, dtype=np.uint8).reshape(1, 3, 3), [0]),
              ModelSpec(hidden_dim=5, batch_size=2, learning_rate=1e-2), 3)

# (hidden, image side, n, batch, seed): hidden widths that are not a multiple
# of 4, each with a seed on which a W1 in permuted row order missed the
# textbook step under the SkylakeX, Haswell, Sandybridge, Katmai and Nehalem kernels
KERNEL_SHAPES = [(7, 32, 9, 2, 7), (10, 3, 1, 8, 12), (10, 32, 3, 2, 3)]


def kernel_case(hidden, side, n, batch, seed):
    """(params, shard, spec, epochs, seed): `model_init` weights with N(0, 0.5)
    biases, lr 1e-2, eps 1e-3, 3 epochs, on n random side x side images."""
    spec = ModelSpec(hidden_dim=hidden, batch_size=batch, learning_rate=1e-2, adam_eps=1e-3)
    d = side * side
    rng = np.random.default_rng(seed)
    params = model_init(spec, d, seed)
    params[d * hidden:d * hidden + hidden] = rng.normal(0.0, 0.5, hidden)  # b1
    params[-1] = rng.normal(0.0, 0.5)                                       # b2
    images = rng.integers(0, 256, (n, side, side)).astype(np.uint8)
    return params, Samples(images, rng.integers(0, 2, n)), spec, 3, seed


def matches_oracle(params, shard, spec, epochs, seed) -> bool:
    """`local_train` gives `oracle_local_train`'s bits."""
    return same_bits(local_train(params, shard, spec, epochs, np.random.SeedSequence(seed)),
                     oracle_local_train(params, shard, spec, epochs,
                                        np.random.SeedSequence(seed)))


class TestLocalTrainMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(run=training_runs(), seed=st.integers(0, 2**32 - 1))
    @example(run=FIVE_UNITS, seed=0)
    def test_in_place_step_is_the_textbook_step(self, run, seed):
        params, shard, spec, epochs = run
        out = local_train(params, shard, spec, epochs, np.random.SeedSequence(seed))
        expected = oracle_local_train(params, shard, spec, epochs, np.random.SeedSequence(seed))
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES,
                             ids=lambda s: f"h{s[0]}-{s[1]}x{s[1]}-n{s[2]}-batch{s[3]}")
    def test_hidden_width_not_a_multiple_of_4(self, shape):
        assert matches_oracle(*kernel_case(*shape))

    @pytest.mark.parametrize("n", [7, 15, 33, 70])
    def test_calibrated_size(self, n):
        # the calibrated model on 32x32 images: a part batch, one batch and
        # two and three batches an epoch
        spec, epochs, shard, params = calibrated_call(n)
        seed = np.random.SeedSequence([n, 1])
        assert same_bits(local_train(params, shard, spec, epochs, seed),
                         oracle_local_train(params, shard, spec, epochs, seed))

    def test_units_that_fire_late_or_never(self):
        # 2x2 images, 3 hidden units, batches of 2 out of 6 samples:
        # unit 0 reads pixel 0, which only sample `trigger` lights, so it
        # fires only in that sample's batch; unit 1 has -0.0 weights and a negative
        # bias, so it never fires; unit 2's positive bias fires it always.
        # lr 1e-3 over 6 steps moves no weight far enough to change that.
        trigger = 4
        spec = ModelSpec(hidden_dim=3, batch_size=2, learning_rate=1e-3)
        images = np.array([[[0, 50], [100, 150]], [[0, 200], [30, 90]], [[0, 120], [60, 10]],
                           [[0, 80], [160, 240]], [[0, 40], [70, 130]],
                           [[0, 180], [20, 110]]], dtype=np.uint8)
        images[trigger, 0, 0] = 255
        shard = Samples(images, [0, 1, 0, 1, 1, 0])
        d = 4
        params = np.zeros(spec.param_count(d))
        w1 = params[:3 * d].reshape(3, d)
        w1[0] = [1.0, 0.0, 0.0, 0.0]
        w1[1] = -0.0
        w1[2] = [0.0, 0.5, 0.5, 0.5]
        params[3 * d:3 * d + 3] = [-0.5, -1.0, 1.0]     # b1
        params[3 * d + 3:3 * d + 6] = [0.5, -0.5, 0.3]  # w2
        seed = np.random.SeedSequence(0)  # puts `trigger` in the second batch
        firing = []
        expected = oracle_local_train(params, shard, spec, 2, seed, firing=firing)
        first = [next((b for b, fired in enumerate(firing) if fired[j]), None) for j in range(3)]
        assert first == [first[0], None, 0] and first[0] > 0  # later, never, from the start
        assert not all(fired[0] for fired in firing[first[0]:])  # unit 0 pauses after it fires
        out = local_train(params, shard, spec, 2, seed)
        assert same_bits(out, expected)
        assert same_bits(out[d:2 * d], params[d:2 * d])  # the never-fired row keeps its -0.0


def textbook_forward(params, X, spec):
    """The model's outputs p, written out from the layout [W1, b1, w2, b2]."""
    d, h = X.shape[1], spec.hidden_dim
    w1, b1 = params[:d * h].reshape(h, d), params[d * h:d * h + h]
    w2, b2 = params[d * h + h:d * h + 2 * h], params[-1]
    a1 = np.maximum(X @ w1.T + b1, 0.0)
    return 1.0 / (1.0 + np.exp(-(a1 @ w2 + b2)))


def textbook_loss(p, y):
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


class TestEvaluationPassMatchesTextbook:
    """`evaluate_matrix` and `loss_and_grad` run `local_train`'s pass with
    W1's rows in unit order; their results must be the textbook's bits."""

    @staticmethod
    def cases():
        # the calibrated model on trained parameters (nonzero biases), and
        # SMALL on random ones, each over a part batch and several batches
        for n in (7, 70):
            spec, epochs, shard, params = calibrated_call(n)
            trained = local_train(params, shard, spec, epochs, np.random.SeedSequence([n, 2]))
            yield (spec, trained, *samples_to_matrix(shard))
        rng = np.random.default_rng(5)
        for n in (3, 50):
            images = rng.integers(0, 256, (n, 4, 4)).astype(np.uint8)
            shard = Samples(images, rng.integers(0, 2, n))
            yield (SMALL, rng.normal(0, 0.5, P), *samples_to_matrix(shard))

    def test_evaluate_matrix(self):
        for spec, params, X, y in self.cases():
            p = textbook_forward(params, X, spec)
            acc, loss = evaluate_matrix(params, X, y, spec)
            assert same_bits(np.array([acc]), np.array([np.mean((p >= 0.5) == (y == 1.0))]))
            assert same_bits(np.array([loss]), np.array([textbook_loss(p, y)]))

    def test_loss_and_grad(self):
        for spec, params, X, y in self.cases():
            loss, grad = loss_and_grad(params, X, y, spec)
            expected, _ = _oracle_grad(params, X, y, spec)
            assert same_bits(grad, expected)
            p = textbook_forward(params, X, spec)
            assert same_bits(np.array([loss]), np.array([textbook_loss(p, y)]))


class TestLocalTrainMemory:
    @pytest.mark.parametrize("n", [8, 71])
    def test_one_working_copy_of_the_model(self, n):
        # the returned copy, the gradient, Adam's m and v and the step's
        # scratch: five parameter vectors, next to the shard's float64 matrix
        # and the batch's rows and activations
        spec, epochs, shard, params = calibrated_call(n)
        d, batch = 1024, min(n, spec.batch_size)
        local_train(params, shard, spec, epochs, 0)  # numpy's first-call caches
        tracemalloc.start()
        try:
            local_train(params, shard, spec, epochs, np.random.SeedSequence(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shard_matrix = n * (d + 1) * 8
        assert peak <= 5 * params.nbytes + shard_matrix + 2 * batch * (d + spec.hidden_dim) * 8


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
            lazy = [(i, lambda vec=vec: vec, size) for i, vec, size in perm]
            assert np.array_equal(aggregate(lazy), ref)

    def test_callables_are_called_once_each_in_id_order(self, rng):
        calls, alive_at_call, made = [], [], []

        def later(i):
            def train():
                calls.append(i)
                alive_at_call.append(sum(ref() is not None for ref in made))
                vec = rng.normal(size=6)
                made.append(weakref.ref(vec))
                return vec
            return train

        aggregate([(i, later(i), i + 1) for i in (3, 1, 4, 2)])
        assert calls == [1, 2, 3, 4]
        # the first vector is the anchor; each later one is dropped once added
        assert alive_at_call == [0, 1, 1, 1]

    @pytest.mark.parametrize("size", [0, -1])
    def test_bad_size_raises_before_any_callable_runs(self, size):
        calls = []

        def train():
            calls.append(None)
            return np.zeros(3)

        with pytest.raises(InvariantViolation, match="shard sizes must be positive"):
            aggregate([(1, train, 2), (2, train, size), (3, train, 4)])
        assert calls == []

    def test_identical_inputs_exact(self, rng):
        vec = rng.normal(size=8)
        out = aggregate([(1, vec.copy(), 3), (2, vec.copy(), 9), (3, vec.copy(), 1)])
        assert np.array_equal(out, vec)

    def test_inputs_untouched_and_unshared(self, rng):
        updates = [(i, rng.normal(size=9), i + 1) for i in range(3)]
        before = [vec.tobytes() for _, vec, _ in updates]
        out = aggregate(updates)
        assert [vec.tobytes() for _, vec, _ in updates] == before
        assert not any(np.shares_memory(out, vec) for _, vec, _ in updates)

    def test_errors(self):
        with pytest.raises(InvariantViolation, match="no updates to aggregate"):
            aggregate([])
        with pytest.raises(InvariantViolation, match="parameter vectors differ in length"):
            aggregate([(1, np.zeros(3), 1), (2, np.zeros(4), 1)])
        with pytest.raises(InvariantViolation, match="parameter vectors differ in length"):
            aggregate([(1, lambda: np.zeros(3), 1), (2, lambda: np.zeros(4), 1)])
        with pytest.raises(InvariantViolation):
            aggregate([(1, np.zeros(3), 0)])


class TestEvaluate:
    def test_constant_positive_prediction(self):
        params = np.zeros(P)
        params[-1] = 0.1  # sigmoid(0.1) > 0.5 for every input
        tests = make_samples([make_image(np.full((4, 4), v)) for v in (0, 100, 255)], 1)
        acc, _ = evaluate(params, tests, SMALL)
        assert acc == 1.0

    def test_random_guess_is_near_half(self, rng):
        params = model_init(SMALL, D, np.random.SeedSequence(3))
        tests = make_samples([make_image(rng.integers(0, 256, (4, 4))) for _ in range(400)],
                             np.arange(400) % 2)
        acc, loss = evaluate(params, tests, SMALL)
        assert abs(acc - 0.5) <= 0.05
        assert loss > 0.0

    def test_empty_test_set(self):
        with pytest.raises(InvariantViolation, match="evaluate on empty test set"):
            evaluate(np.zeros(P), no_samples(4), SMALL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_are_rejected(self, bad):
        params = np.zeros(P)
        params[3] = bad
        X, y = np.ones((2, D)), np.zeros(2)
        with pytest.raises(InvariantViolation, match="parameter vector contains NaN/Inf"):
            evaluate_matrix(params, X, y, SMALL)

    def test_nan_output_is_rejected(self):
        # finite parameters: both hidden units overflow to inf, and the output
        # weights +1 and -1 give inf - inf
        spec = ModelSpec(hidden_dim=2)
        w1, b1, w2, b2 = np.full(2 * D, 1e308), np.zeros(2), np.array([1.0, -1.0]), [0.0]
        params = np.concatenate([w1, b1, w2, b2])
        X, y = np.ones((2, D)), np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvariantViolation, match="model output contains NaN"):
                evaluate_matrix(params, X, y, spec)
