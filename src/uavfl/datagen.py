"""Synthetic redundant-image datasets.

The generator mimics aerial video footage: every sub-region owns one slowly
drifting scene (a moving-average walk over white-noise frames) and all
UAVs of that sub-region film overlapping stretches of it, so consecutive
samples are near-duplicates and same-sub-region UAVs hold correlated data.
Labels come in contiguous blocks along the walk ("fire visible for a
while"), and each class imprints a class pattern that is partly shared
across sub-regions and partly sub-region specific.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .types import Samples


BASE_LEVEL = 128.0  # grey level that a zero pixel field maps to
_BLOCK = 32  # images per noise draw, and walk frames per normalisation step
N_WAVES = 12  # cosine modes of the smooth class patterns
FREQ_MAX = 6.0  # wave frequencies are drawn from [-FREQ_MAX, FREQ_MAX]


@dataclass(frozen=True)
class GenSpec:
    """The `generator` config section: shape and redundancy of the synthetic data."""

    image_side: int = 32
    samples_min: int = 500
    samples_max: int = 1000
    redundancy: float = 0.1       # scene weight; 1 collapses each class to one image
    class_balance: float = 0.5
    walk_window: int = 8          # frames per moving-average window of the scene walk
    walk_weight: float = 0.97     # walk vs fresh-noise share inside the varying part
    class_share: float = 0.6      # shared-across-subregions share of the class pattern
    block_min: int = 20           # label block lengths along the walk
    block_max: int = 40
    offset_span: int = 250        # max start offset of a UAV inside its sub-region walk
    contrast: float = 40.0
    test_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.redundancy <= 1.0:
            raise InvariantViolation("redundancy must lie in [0, 1]")
        if not 0 < self.samples_min <= self.samples_max:
            raise InvariantViolation("bad samples_per_uav range")
        if not 0.0 <= self.class_balance <= 1.0:
            raise InvariantViolation("class_balance must lie in [0, 1]")
        if self.image_side < 2 or self.walk_window < 1:
            raise InvariantViolation("bad image_side/walk_window")
        if not 0.0 <= self.walk_weight <= 1.0 or not 0.0 <= self.class_share <= 1.0:
            raise InvariantViolation("weights must lie in [0, 1]")
        if not 0 < self.block_min <= self.block_max:
            raise InvariantViolation("bad label block range")
        if self.offset_span < 0:
            raise InvariantViolation(f"offset_span must be >= 0, got {self.offset_span}")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvariantViolation("test_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class UavData:
    """One UAV's samples: a random `test_fraction` of them, and the rest in order."""

    train: Samples
    test: Samples


def _smooth_field(entropy: list[int], side: int) -> np.ndarray:
    """Zero-mean unit-variance sum of band-limited random 2D cosines, seeded by `entropy`."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    yy, xx = np.meshgrid(np.arange(side) / side, np.arange(side) / side, indexing="ij")
    f = np.zeros((side, side))
    for _ in range(N_WAVES):
        fx, fy = rng.uniform(-FREQ_MAX, FREQ_MAX, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.normal()
        f += amp * np.cos(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    f -= f.mean()
    std = f.std()
    return f / std if std > 0 else f


def _entropy(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise InvariantViolation("datagen seeds must be integers")


def _label_track(seed, subregion_id: int, length: int, spec: GenSpec) -> np.ndarray:
    """Blocky 0/1 label sequence along the sub-region walk."""
    rng = np.random.default_rng(np.random.SeedSequence([_entropy(seed), 103, subregion_id]))
    labels = np.empty(length, dtype=np.int64)
    pos = 0
    cls = int(rng.random() < spec.class_balance)
    while pos < length:
        block = int(rng.integers(spec.block_min, spec.block_max + 1))
        labels[pos:pos + block] = cls
        pos += block
        cls = 1 - cls
    return labels


def _walk_frames(seed, subregion_id: int, spec: GenSpec, buf: np.ndarray) -> np.ndarray:
    """The sub-region scene walk, built in `buf` and returned as a view of it.

    The walk is a moving average (window `walk_window`) over iid white-noise
    frames, so frames `L` apart correlate as max(0, 1 - L/window): strong
    short-range redundancy, none beyond the window. White-noise innovations
    keep distant-frame similarity tightly concentrated at zero, which makes
    near-duplicate removal behave the same at any dataset size. `buf` holds
    `window - 1` rows more than the walk has frames.

    The running sum is taken one frame at a time: row t += row t - 1 makes
    exactly `np.cumsum(buf, axis=0)`'s additions in its order, so the bits
    are the same, but each step reads contiguous rows, where cumsum walks
    every pixel column with a stride of one frame and is about 6x slower.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_entropy(seed), 104, subregion_id]))
    w = spec.walk_window
    rng.standard_normal(out=buf)
    for lo in range(0, len(buf), _BLOCK):
        innovations = buf[lo:lo + _BLOCK]
        innovations -= innovations.mean(axis=(1, 2), keepdims=True)
        std = innovations.std(axis=(1, 2), keepdims=True)
        std[std == 0] = 1.0
        innovations /= std
    for t in range(1, len(buf)):
        np.add(buf[t - 1], buf[t], out=buf[t])
    # frame t is csum[t + w - 1] - csum[t - 1]; differencing from the end, each
    # block of w rows reads rows below it that still hold the cumulative sum
    for hi in range(len(buf), w, -w):
        lo = max(hi - w, w)
        buf[lo:hi] -= buf[lo - w:hi - w]
    frames = buf[w - 1:]
    frames /= np.sqrt(w)
    return frames


@dataclass(frozen=True)
class Scene:
    """What every UAV of one sub-region films: the scene walk, its label track
    and the (class 0, class 1) patterns."""

    subregion_id: int
    frames: np.ndarray    # (span, side, side) float64, a view of a shared buffer
    labels: np.ndarray    # (span,) int64
    patterns: np.ndarray  # (2, side, side) float64


def subregion_scenes(spec: GenSpec, subregion_ids: Iterable[int],
                     rng_seed: int) -> Iterator[Scene]:
    """The scenes of the given sub-regions, built one at a time in order.

    Every scene's frames live in one walk buffer allocated per call, so a
    scene is valid only until the next one is drawn; separate calls share
    nothing and may run on separate threads. A scene depends only on its
    sub-region id and the seed. The walk and label track span
    `offset_span + samples_max` frames, so every UAV of a sub-region sees the
    identical scene sequence regardless of its own length.

    Class c's pattern is class_share * shared_c + sqrt(1 - class_share^2) *
    local_c, two zero-mean unit-variance smooth fields: shared_c is the same
    in every sub-region, so a call builds both shared fields once, and each
    sub-region adds its own local ones.
    """
    seed = _entropy(rng_seed)
    span = spec.offset_span + spec.samples_max
    side = spec.image_side
    mu = spec.class_share
    shared = np.stack([mu * _smooth_field([seed, 101, c], side) for c in (0, 1)])
    buf = np.empty((span + spec.walk_window - 1, side, side))
    for subregion_id in subregion_ids:
        local = np.stack([_smooth_field([seed, 102, subregion_id, c], side) for c in (0, 1)])
        yield Scene(subregion_id=subregion_id,
                    frames=_walk_frames(seed, subregion_id, spec, buf),
                    labels=_label_track(seed, subregion_id, span, spec),
                    patterns=shared + np.sqrt(1.0 - mu * mu) * local)


def generate_uav_dataset(spec: GenSpec, scene: Scene, uav_id: int,
                         rng_seed: int) -> UavData:
    """Deterministic synthetic dataset for one UAV filming `scene`.

    pixel field = rho*scene(class) + (1-rho)*(w*walk_frame + (1-w)*noise),
    quantized to 8 bits around `BASE_LEVEL`. rho=1 collapses each class to
    its scene (identical images); rho=0 yields effectively independent
    images. All randomness derives from (rng_seed, subregion_id, uav_id).
    Images are made `_BLOCK` at a time; each pixel takes the same
    floating-point operations as when made one image at a time. The array
    they are made in becomes the train split: the test rows are copied out
    and `_drop_rows` closes the gaps they leave, so the train split is
    never copied.
    """
    rng_u = np.random.default_rng(np.random.SeedSequence([_entropy(rng_seed), 105,
                                                          scene.subregion_id, uav_id]))
    n = int(rng_u.integers(spec.samples_min, spec.samples_max + 1))
    offset = int(rng_u.integers(0, spec.offset_span + 1))

    rho = spec.redundancy
    wv = spec.walk_weight
    eta_norm = np.sqrt(wv * wv + (1.0 - wv) ** 2)
    class_fields = rho * scene.patterns
    images = np.empty((n, spec.image_side, spec.image_side), dtype=np.uint8)
    for lo in range(0, n, _BLOCK):
        t = slice(offset + lo, offset + min(lo + _BLOCK, n))
        field = rng_u.standard_normal((t.stop - t.start, spec.image_side, spec.image_side))
        field *= 1.0 - wv
        field += wv * scene.frames[t]
        field /= eta_norm
        field *= 1.0 - rho
        field += class_fields[scene.labels[t]]
        field *= spec.contrast
        field += BASE_LEVEL
        np.rint(field, out=field)
        np.clip(field, 0, 255, out=field)
        images[lo:lo + len(field)] = field
    labels = scene.labels[offset:offset + n]

    test = np.zeros(n, dtype=bool)
    test[rng_u.permutation(n)[:int(round(spec.test_fraction * n))]] = True
    test_rows = Samples(images[test], labels[test])
    kept = _drop_rows(images, np.flatnonzero(test))
    return UavData(train=Samples(kept, labels[~test]), test=test_rows)


def _drop_rows(images: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`images` without the ascending `rows`, the others in order, made in place.

    Each run of kept rows moves down over the dropped rows below it, `_BLOCK`
    rows at a time: numpy copies an overlapping source before it writes, so
    a bounded move keeps that copy small, where `images[keep]` would copy
    every kept row. The array then shrinks to the kept rows; it must own its
    memory, and no view of it may be alive.
    """
    ends = np.append(rows[1:], len(images))
    for shift, (start, stop) in enumerate(zip((rows + 1).tolist(), ends.tolist()), start=1):
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            images[lo - shift:hi - shift] = images[lo:hi]
    images.resize((len(images) - len(rows), *images.shape[1:]), refcheck=False)
    return images
