"""From-scratch differentiable model, local training, and FedAvg aggregation.

The model is a one-hidden-layer network (ReLU hidden, scalar sigmoid output)
on flattened grayscale inputs scaled to [0, 1], trained with binary
cross-entropy and Adam. Parameters live in one flat float64 vector laid out
as [W1 (hidden x in), b1, w2, b2] so they can be shipped, aggregated, and
gradient-checked as plain arrays.

`local_train` keeps Adam's moments m and v for the tail [b1, w2, b2] and for
the W1 rows of the hidden units that have fired so far in the call (z1 > 0
for some sample of some batch); a row joins, with m = v = +0, in the batch
where its unit first fires. The textbook step (Kingma & Ba, "Adam", ICLR
2015) runs on those entries alone, and the result is bit for bit the step
on the whole vector. Proof: let unit j not have fired yet. In every batch so
far z1[i, j] > 0 held for no sample i, so dz1[:, j] = da1[:, j] * 0.0 is +0
or -0 (were da1 inf or NaN, the row would be NaN and the finiteness check,
which reads the whole gradient, would raise), and so is each entry of its
gradient row dz1[:, j] @ X, a sum of signed zeros. Suppose m = v = +0 for
the row, as at the start. With a gradient g = ±0, step t gives
  m = 0.9 * (+0) + 0.1 * g           = +0 + (±0) = +0,
  v = 0.999 * (+0) + (0.001 * g) * g = +0 + (+0) = +0,
  (lr * (m / (1 - 0.9**t))) / (sqrt(v / (1 - 0.999**t)) + eps) = +0 / eps = +0,
as lr >= 0 and eps > 0, and w - (+0) is w in every bit, -0.0 included.
So the row's m and v stay +0 and its weights stay unchanged until the unit
fires, which is what leaving the row out does. A unit that has fired keeps
its row to the end of the call, since its moments are no longer zero.

Only the step is made smaller. The forward `X @ w1.T` and the backward
`dz1.T @ X` are the textbook pass's GEMMs, with their full shapes and W1 in
unit order: a GEMM's bits can depend on its shape, and also on where a row
sits in its operand (OpenBLAS's single-row and edge kernels sum some dot
products in another order), so no GEMM ever sees a permuted or shrunken W1.
The step's entries are laid out compactly instead, in buffers made once per
call: [b1, w2, b2, then the W1 rows of the fired units in the order they
first fired], so a joining row takes the next entries, whose m and v are
still +0. Each batch gathers its gradient into that layout, steps there,
and subtracts the step from the weights, scattering W1's rows back. Copies
are exact and every operation of the step is elementwise and correctly
rounded, so no entry's bits depend on where it sits.

`one_blas_thread` pins numpy's bundled OpenBLAS to one thread for a block of
work: a GEMM's summation order, and so its bits, can depend on the thread
count, and on small matrices a second thread costs more than it gains.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .types import Samples

_CLAMP = 1e-12  # keeps log() away from 0 and 1
ADAM_BETA1 = 0.9    # Adam's moment decay rates
ADAM_BETA2 = 0.999


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (scipy-openblas64), or None when numpy was
    built without it or the library lacks the thread-control symbols."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            for name, argtypes, restype in (
                    ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
                    ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
                    ("scipy_openblas_get_corename64_", [], ctypes.c_char_p),
                    ("scipy_openblas_get_config64_", [], ctypes.c_char_p)):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the caller's
    thread count on exit; a no-op without the bundled library. The count is
    process-wide, so threads started inside the block inherit it."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def blas_info() -> dict:
    """The BLAS a run uses: OpenBLAS's version and core (kernel) name, the
    thread count `one_blas_thread` pins, and numpy's version; `openblas`,
    `core` and `threads` are None without the bundled library."""
    lib = _openblas()
    if lib is None:
        return {"openblas": None, "core": None, "threads": None, "numpy": np.__version__}
    # the build config reads "OpenBLAS <version> <build options...>"
    words = lib.scipy_openblas_get_config64_().decode().split()
    version = words[1] if len(words) > 1 and words[0] == "OpenBLAS" else None
    return {"openblas": version,
            "core": lib.scipy_openblas_get_corename64_().decode(),
            "threads": 1,
            "numpy": np.__version__}


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


def _unpack(vec: np.ndarray, input_dim: int, spec: ModelSpec):
    """Views (w1, b1, w2, b2) of any vector laid out like the parameters, W1
    as (hidden x in) and b2 as one element: the one place that knows the layout."""
    d, h = input_dim, spec.hidden_dim
    return (vec[:d * h].reshape(h, d), vec[d * h:d * h + h],
            vec[d * h + h:d * h + 2 * h], vec[d * h + 2 * h:])


def check_params(params: np.ndarray, input_dim: int, spec: ModelSpec) -> np.ndarray:
    """params as float64, checked to be a finite vector laid out for `input_dim` inputs."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.param_count(input_dim),):
        raise InvariantViolation(f"{input_dim} inputs take {spec.param_count(input_dim)} "
                                 f"parameters, got {params.shape}")
    if not np.all(np.isfinite(params)):
        raise InvariantViolation("parameter vector contains NaN/Inf")
    return params


def model_init(spec: ModelSpec, input_dim: int, rng_seed) -> np.ndarray:
    """Scaled-uniform (Glorot) weights with bound sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(rng_seed)
    d, h = input_dim, spec.hidden_dim
    params = np.zeros(spec.param_count(d))
    w1, _, w2, _ = _unpack(params, d, spec)
    bound1 = np.sqrt(6.0 / (d + h))
    bound2 = np.sqrt(6.0 / (h + 1))
    w1[...] = rng.uniform(-bound1, bound1, size=(h, d))
    w2[...] = rng.uniform(-bound2, bound2, size=h)
    return params


def samples_to_matrix(samples: Samples) -> tuple[np.ndarray, np.ndarray]:
    """(n, height*width) float64 inputs scaled to [0, 1] and float64 labels."""
    n, height, width = samples.images.shape
    X = np.divide(samples.images.reshape(n, height * width), 255.0, dtype=np.float64)
    return X, samples.labels.astype(np.float64)


class _Workspace:
    """The arrays that one forward and backward pass over up to `rows`
    samples write into; a pass over fewer samples uses their leading rows."""

    def __init__(self, rows: int, hidden_dim: int):
        self.z1 = np.empty((rows, hidden_dim))  # z1, then da1 and dz1
        self.a1 = np.empty((rows, hidden_dim))
        self.fired = np.empty((rows, hidden_dim), dtype=bool)  # z1 > 0
        self.p = np.empty(rows)                 # p, then dz2


def _forward(params: np.ndarray, X: np.ndarray, spec: ModelSpec, ws: _Workspace) -> np.ndarray:
    """The model's outputs p on the rows of X, computed in ws. The one forward
    pass: training, evaluation and the gradient check all run it."""
    n = X.shape[0]
    w1, b1, w2, b2 = _unpack(params, X.shape[1], spec)
    z1, a1, p = ws.z1[:n], ws.a1[:n], ws.p[:n]
    np.matmul(X, w1.T, out=z1)          # z1 = X @ w1.T + b1
    np.add(z1, b1, out=z1)
    np.maximum(z1, 0.0, out=a1)
    np.matmul(a1, w2, out=p)            # p = 1 / (1 + exp(-(a1 @ w2 + b2)))
    np.add(p, b2, out=p)
    np.negative(p, out=p)
    np.exp(p, out=p)
    np.add(1.0, p, out=p)
    np.divide(1.0, p, out=p)
    return p


def _backward(params: np.ndarray, X: np.ndarray, y: np.ndarray, spec: ModelSpec,
              ws: _Workspace, grad: np.ndarray) -> None:
    """Write the gradient of the mean BCE over the batch into `grad`, from
    `_forward`'s pass over X in ws. Leaves ws.fired as z1 > 0 and overwrites
    the rest of ws. Raises if any entry of the gradient is not finite."""
    n, d = X.shape
    w2 = _unpack(params, d, spec)[2]
    gw1, gb1, gw2, gb2 = _unpack(grad, d, spec)
    z1, a1, fired, dz2 = ws.z1[:n], ws.a1[:n], ws.fired[:n], ws.p[:n]
    np.subtract(dz2, y, out=dz2)        # dz2 = (p - y) / n: sigmoid + BCE shortcut
    np.divide(dz2, n, out=dz2)
    np.matmul(a1.T, dz2, out=gw2)
    np.sum(dz2, keepdims=True, out=gb2)
    np.greater(z1, 0.0, out=fired)
    dz1 = z1
    np.multiply(dz2[:, None], w2, out=dz1)  # da1 = outer(dz2, w2)
    np.multiply(dz1, fired, out=dz1)        # dz1 = da1 * (z1 > 0)
    np.sum(dz1, axis=0, out=gb1)
    np.matmul(dz1.T, X, out=gw1)
    # max and min propagate NaN, and an infinity is one of the two
    if not (np.isfinite(grad.max()) and np.isfinite(grad.min())):
        raise InvariantViolation("non-finite gradient encountered")


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def loss_and_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                  spec: ModelSpec) -> tuple[float, np.ndarray]:
    """Mean BCE over the batch and its gradient w.r.t. the flat parameter vector."""
    ws = _Workspace(X.shape[0], spec.hidden_dim)
    loss = _bce(_forward(params, X, spec, ws), y)
    grad = np.empty(spec.param_count(X.shape[1]))
    _backward(params, X, y, spec, ws, grad)
    return loss, grad


def local_train(params_in: np.ndarray, shard: Samples, spec: ModelSpec,
                epochs: int, rng_seed) -> np.ndarray:
    """Mini-batch Adam on the shard for `epochs` epochs; input params untouched.

    Batch order is reshuffled deterministically each epoch from rng_seed.
    Adam state starts fresh at every call (each round is an independent
    local optimization). It covers the tail [b1, w2, b2] and the W1 rows of
    the units fired so far, in the compact layout of the module docstring,
    which proves that this gives the textbook step's bits. The step runs in
    the textbook's operation order on buffers made once per call, so a
    batch allocates nothing.
    """
    if not shard:
        raise InvariantViolation("local_train on empty shard")
    X, y = samples_to_matrix(shard)
    n, d = X.shape
    h = spec.hidden_dim
    w = check_params(params_in, d, spec).copy()
    rng = np.random.default_rng(rng_seed)

    batch = min(n, spec.batch_size)
    ws = _Workspace(batch, h)
    X_rows, y_rows = np.empty((batch, d)), np.empty(batch)
    # the gradient, whose leading entries are then the step's scratch; Adam's
    # moments and the gathered gradient (then the step's denominator, then
    # the fired rows' weights) in the compact layout, m and v +0 past its end
    grad, m, v, g = np.empty_like(w), np.zeros_like(w), np.zeros_like(w), np.empty_like(w)
    w1, gw1 = _unpack(w, d, spec)[0], _unpack(grad, d, spec)[0]
    tail, gtail = w[d * h:], grad[d * h:]  # [b1, w2, b2], the layout's first entries
    lead = len(tail)
    joined = np.empty(h, dtype=np.intp)  # the fired units, in the order they first fired
    k = 0                               # how many have fired
    ever = np.zeros(h, dtype=bool)      # fired in this call
    new = np.empty(h, dtype=bool)
    t = 0
    # no floating-point warnings: _backward checks every gradient, and
    # aggregate the result; set per call, as pool threads start with numpy's default
    with np.errstate(all="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, spec.batch_size):
                sel = order[start:start + spec.batch_size]
                Xb, yb = X_rows[:len(sel)], y_rows[:len(sel)]
                np.take(X, sel, axis=0, out=Xb, mode="clip")  # "clip" writes out unbuffered
                np.take(y, sel, out=yb, mode="clip")
                _forward(w, Xb, spec, ws)
                _backward(w, Xb, yb, spec, ws, grad)
                np.any(ws.fired[:len(sel)], axis=0, out=new)
                np.greater(new, ever, out=new)  # fired for the first time
                if new.any():
                    ever |= new
                    joining = np.flatnonzero(new)
                    joined[k:k + len(joining)] = joining
                    k += len(joining)
                t += 1
                size = lead + k * d
                units = joined[:k]
                gc, mc, vc, sc = g[:size], m[:size], v[:size], grad[:size]
                rows = gc[lead:].reshape(k, d)
                gc[:lead] = gtail
                np.take(gw1, units, axis=0, out=rows, mode="clip")
                # m = b1*m + (1-b1)*g
                np.multiply(mc, ADAM_BETA1, out=mc)
                np.multiply(gc, 1.0 - ADAM_BETA1, out=sc)
                np.add(mc, sc, out=mc)
                # v = b2*v + ((1-b2)*g)*g
                np.multiply(vc, ADAM_BETA2, out=vc)
                np.multiply(gc, 1.0 - ADAM_BETA2, out=sc)
                np.multiply(sc, gc, out=sc)
                np.add(vc, sc, out=vc)
                # w -= (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)
                np.divide(mc, 1.0 - ADAM_BETA1 ** t, out=sc)
                np.multiply(sc, spec.learning_rate, out=sc)
                np.divide(vc, 1.0 - ADAM_BETA2 ** t, out=gc)
                np.sqrt(gc, out=gc)
                np.add(gc, spec.adam_eps, out=gc)
                np.divide(sc, gc, out=sc)
                np.subtract(tail, sc[:lead], out=tail)
                np.take(w1, units, axis=0, out=rows, mode="clip")
                np.subtract(rows, sc[lead:].reshape(k, d), out=rows)
                w1[units] = rows
    return w


def aggregate(updates: list[tuple[int, np.ndarray | Callable[[], np.ndarray], int]]
              ) -> np.ndarray:
    """Shard-size-weighted mean of parameter vectors, folded one update at a time.

    `updates` holds (submission_id, params, shard_size) triples, where params
    is a vector or a zero-argument callable that returns one. Every size is
    checked before any vector is touched. The updates are then taken in
    ascending submission id order, so the result is bitwise identical under
    any permutation of the input list: each callable is called exactly once,
    in that order, and each vector is held only until it has been added.
    Raises if the mean overflows or holds a NaN.
    """
    if not updates:
        raise InvariantViolation("no updates to aggregate")
    pending = sorted(updates, key=lambda u: u[0])
    if any(size <= 0 for _, _, size in pending):
        raise InvariantViolation("shard sizes must be positive")
    total = sum(size for _, _, size in pending)
    pending.reverse()  # pop() takes the lowest id, and drops what it took
    base = out = None
    while pending:
        _, vec, size = pending.pop()
        if callable(vec):
            vec = vec()
        if base is None:
            # Anchored form: base + sum of weighted deviations. Identical inputs
            # aggregate to exactly that vector (all deviations are exactly zero).
            base = np.asarray(vec, dtype=np.float64)
            out = base.copy()
        elif vec.shape != base.shape:
            raise InvariantViolation("parameter vectors differ in length")
        with np.errstate(all="ignore"):  # checked below
            out += (size / total) * (vec - base)
    if not (np.isfinite(out.max()) and np.isfinite(out.min())):
        raise InvariantViolation("aggregated parameter vector contains NaN/Inf")
    return out


def evaluate_matrix(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                    spec: ModelSpec) -> tuple[float, float]:
    """(accuracy, mean loss) on a test matrix; threshold at 0.5."""
    if X.shape[0] == 0:
        raise InvariantViolation("evaluate on empty test set")
    params = check_params(params, X.shape[1], spec)
    with np.errstate(all="ignore"):  # checked below
        p = _forward(params, X, spec, _Workspace(X.shape[0], spec.hidden_dim))
    if np.isnan(p).any():  # finite parameters can still overflow the activations
        raise InvariantViolation("model output contains NaN")
    acc = float(np.mean((p >= 0.5) == (y == 1.0)))
    return acc, _bce(p, y)
