"""From-scratch differentiable model, local training, and FedAvg aggregation.

The model is a one-hidden-layer network (ReLU hidden, scalar sigmoid output)
on flattened grayscale inputs scaled to [0, 1], trained with binary
cross-entropy and Adam. Parameters live in one flat float64 vector laid out
as [W1 (hidden x in), b1, w2, b2] so they can be shipped, aggregated, and
gradient-checked as plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (EmptyShard, EmptyTestSet, EmptyUpdateSet, InvariantViolation,
                     LengthMismatch, NonFiniteGradient)
from .types import Samples

_CLAMP = 1e-12  # keeps log() away from 0 and 1
ADAM_BETA1 = 0.9    # Adam's moment decay rates
ADAM_BETA2 = 0.999


@dataclass(frozen=True)
class ModelSpec:
    """The `model` config section. The input width is not part of it: it is
    the data's (an image's pixel count), so a parameter vector's length is
    fixed by this spec and the images it reads together."""

    hidden_dim: int = 64
    learning_rate: float = 1e-2
    batch_size: int = 32
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.hidden_dim < 1 or self.batch_size < 1:
            raise InvariantViolation("hidden_dim and batch_size must be positive")
        if self.learning_rate < 0:
            raise InvariantViolation("learning_rate must be >= 0")
        if not self.adam_eps > 0:
            raise InvariantViolation(f"adam_eps must be > 0, got {self.adam_eps}")

    def param_count(self, input_dim: int) -> int:
        return input_dim * self.hidden_dim + 2 * self.hidden_dim + 1


def _unpack(params: np.ndarray, input_dim: int, spec: ModelSpec):
    d, h = input_dim, spec.hidden_dim
    i = 0
    w1 = params[i:i + d * h].reshape(h, d); i += d * h
    b1 = params[i:i + h]; i += h
    w2 = params[i:i + h]; i += h
    b2 = params[i]
    return w1, b1, w2, b2


def check_params(params: np.ndarray, input_dim: int, spec: ModelSpec) -> np.ndarray:
    """params as float64, checked to be a finite vector laid out for `input_dim` inputs."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count(input_dim),):
        raise LengthMismatch(f"{input_dim} inputs take {spec.param_count(input_dim)} "
                             f"parameters, got {params.shape}")
    if not np.all(np.isfinite(params)):
        raise InvariantViolation("parameter vector contains NaN/Inf")
    return params


def model_init(spec: ModelSpec, input_dim: int, rng_seed) -> np.ndarray:
    """Scaled-uniform (Glorot) weights with bound sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(rng_seed)
    d, h = input_dim, spec.hidden_dim
    params = np.zeros(spec.param_count(d))
    bound1 = np.sqrt(6.0 / (d + h))
    bound2 = np.sqrt(6.0 / (h + 1))
    params[:d * h] = rng.uniform(-bound1, bound1, size=d * h)
    params[d * h + h:d * h + 2 * h] = rng.uniform(-bound2, bound2, size=h)
    return params


def samples_to_matrix(samples: Samples) -> tuple[np.ndarray, np.ndarray]:
    """(n, height*width) float64 inputs scaled to [0, 1] and float64 labels."""
    n, height, width = samples.images.shape
    X = samples.images.reshape(n, height * width).astype(np.float64)
    X /= 255.0
    return X, samples.labels.astype(np.float64)


def _forward(params: np.ndarray, X: np.ndarray, spec: ModelSpec):
    w1, b1, w2, b2 = _unpack(params, X.shape[1], spec)
    z1 = X @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    p = 1.0 / (1.0 + np.exp(-z2))
    return p, (z1, a1)


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def loss_and_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                  spec: ModelSpec) -> tuple[float, np.ndarray]:
    """Mean BCE over the batch and its gradient w.r.t. the flat parameter vector."""
    w1, b1, w2, b2 = _unpack(params, X.shape[1], spec)
    p, (z1, a1) = _forward(params, X, spec)
    loss = _bce(p, y)

    n = X.shape[0]
    dz2 = (p - y) / n                      # sigmoid + BCE shortcut
    gw2 = a1.T @ dz2
    gb2 = float(np.sum(dz2))
    da1 = np.outer(dz2, w2)
    dz1 = da1 * (z1 > 0.0)
    gw1 = dz1.T @ X
    gb1 = dz1.sum(axis=0)

    grad = np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("non-finite gradient encountered")
    return loss, grad


def local_train(params_in: np.ndarray, shard: Samples, spec: ModelSpec,
                epochs: int, rng_seed) -> np.ndarray:
    """Mini-batch Adam on the shard for `epochs` epochs; input params untouched.

    Batch order is reshuffled deterministically each epoch from rng_seed.
    Adam state starts fresh at every call (each round is an independent
    local optimization).
    """
    if not shard:
        raise EmptyShard("local_train on empty shard")
    X, y = samples_to_matrix(shard)
    params = check_params(params_in, X.shape[1], spec).copy()
    rng = np.random.default_rng(rng_seed)

    m = np.zeros_like(params)
    v = np.zeros_like(params)
    t = 0
    n = len(shard)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            sel = order[start:start + spec.batch_size]
            _, grad = loss_and_grad(params, X[sel], y[sel], spec)
            t += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            mhat = m / (1.0 - ADAM_BETA1 ** t)
            vhat = v / (1.0 - ADAM_BETA2 ** t)
            params -= spec.learning_rate * mhat / (np.sqrt(vhat) + spec.adam_eps)
    return params


def aggregate(updates: list[tuple[int, np.ndarray, int]]) -> np.ndarray:
    """Shard-size-weighted mean of parameter vectors.

    `updates` holds (submission_id, params, shard_size) triples; accumulation
    runs in ascending submission id order so the result is bitwise identical
    under any permutation of the input list.
    """
    if not updates:
        raise EmptyUpdateSet("no updates to aggregate")
    ordered = sorted(updates, key=lambda u: u[0])
    length = ordered[0][1].shape
    total = 0
    for _, vec, size in ordered:
        if vec.shape != length:
            raise LengthMismatch("parameter vectors differ in length")
        if size <= 0:
            raise InvariantViolation("shard sizes must be positive")
        total += size
    # Anchored form: base + sum of weighted deviations. Identical inputs
    # aggregate to exactly that vector (all deviations are exactly zero).
    base = ordered[0][1].astype(np.float64)
    out = base.copy()
    for _, vec, size in ordered:
        out += (size / total) * (vec - base)
    return out


def evaluate_matrix(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    spec: ModelSpec) -> tuple[float, float]:
    """(accuracy, mean loss) on a test matrix; threshold at 0.5."""
    if X.shape[0] == 0:
        raise EmptyTestSet("evaluate on empty test set")
    p, _ = _forward(check_params(params, X.shape[1], spec), X, spec)
    acc = float(np.mean((p >= 0.5) == (y == 1.0)))
    return acc, _bce(p, y)
