"""Synthetic redundant-image datasets and minimal grayscale image IO.

The generator mimics aerial video footage: every sub-region owns one slowly
drifting scene (a moving-average walk over white-noise frames) and all
UAVs of that sub-region film overlapping stretches of it, so consecutive
samples are near-duplicates and same-sub-region UAVs hold correlated data.
Labels come in contiguous blocks along the walk ("fire visible for a
while"), and each class imprints a class pattern that is partly shared
across sub-regions and partly sub-region specific.

Real data enters through `load_manifest`: a CSV pointing at binary PGM
(P5, maxval 255) files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import (BadHeader, BadPgmMagic, DimensionMismatch, InvariantViolation,
                     LabelOutOfRange, MissingFile, UavFlError)
from .types import Dataset, Samples


BASE_LEVEL = 128.0  # grey level that a zero pixel field maps to


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
    n_waves: int = 12             # cosine modes of the smooth class patterns
    freq_max: float = 6.0         # spatial frequency band of the class patterns
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


@dataclass
class UavData:
    """80/20 split of one UAV's generated samples."""

    train: Dataset
    test: Samples


def _smooth_field(rng: np.random.Generator, side: int, n_waves: int,
                  freq_max: float) -> np.ndarray:
    """Zero-mean unit-variance sum of band-limited random 2D cosines."""
    yy, xx = np.meshgrid(np.arange(side) / side, np.arange(side) / side, indexing="ij")
    f = np.zeros((side, side))
    for _ in range(n_waves):
        fx, fy = rng.uniform(-freq_max, freq_max, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.normal()
        f += amp * np.cos(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    f -= f.mean()
    std = f.std()
    return f / std if std > 0 else f


def _class_pattern(seed, cls: int, subregion_id: int, spec: GenSpec) -> np.ndarray:
    shared = _smooth_field(
        np.random.default_rng(np.random.SeedSequence([_entropy(seed), 101, cls])),
        spec.image_side, spec.n_waves, spec.freq_max)
    local = _smooth_field(
        np.random.default_rng(np.random.SeedSequence([_entropy(seed), 102, subregion_id, cls])),
        spec.image_side, spec.n_waves, spec.freq_max)
    mu = spec.class_share
    return mu * shared + np.sqrt(1.0 - mu * mu) * local


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


def _walk_frames(seed, subregion_id: int, length: int, spec: GenSpec) -> np.ndarray:
    """First `length` frames of the sub-region scene walk.

    The walk is a moving average (window `walk_window`) over iid white-noise
    frames, so frames `L` apart correlate as max(0, 1 - L/window): strong
    short-range redundancy, none beyond the window. White-noise innovations
    keep distant-frame similarity tightly concentrated at zero, which makes
    near-duplicate removal behave the same at any dataset size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_entropy(seed), 104, subregion_id]))
    w = spec.walk_window
    side = spec.image_side
    innovations = rng.standard_normal((length + w - 1, side, side))
    innovations -= innovations.mean(axis=(1, 2), keepdims=True)
    std = innovations.std(axis=(1, 2), keepdims=True)
    std[std == 0] = 1.0
    innovations /= std
    csum = np.cumsum(innovations, axis=0)
    frames = np.empty((length, side, side))
    frames[0] = csum[w - 1]
    frames[1:] = csum[w:] - csum[:length - 1]
    return frames / np.sqrt(w)


def generate_uav_dataset(spec: GenSpec, subregion_id: int, uav_id: int,
                         rng_seed: int, shard_count: int) -> UavData:
    """Deterministic synthetic dataset for one UAV.

    pixel field = rho*scene(class) + (1-rho)*(w*walk_frame + (1-w)*noise),
    quantized to 8 bits around `BASE_LEVEL`. rho=1 collapses each class to
    its scene (identical images); rho=0 yields effectively independent
    images. All randomness derives from (rng_seed, subregion_id, uav_id).
    """
    rng_u = np.random.default_rng(np.random.SeedSequence([_entropy(rng_seed), 105,
                                                          subregion_id, uav_id]))
    n = int(rng_u.integers(spec.samples_min, spec.samples_max + 1))
    offset = int(rng_u.integers(0, spec.offset_span + 1))

    # Walk/labels are generated at full span so every UAV of a sub-region
    # sees the identical scene sequence regardless of its own length.
    span = spec.offset_span + spec.samples_max
    frames = _walk_frames(rng_seed, subregion_id, span, spec)
    labels = _label_track(rng_seed, subregion_id, span, spec)
    patterns = {c: _class_pattern(rng_seed, c, subregion_id, spec) for c in (0, 1)}

    rho = spec.redundancy
    wv = spec.walk_weight
    eta_norm = np.sqrt(wv * wv + (1.0 - wv) ** 2)
    images = np.empty((n, spec.image_side, spec.image_side), dtype=np.uint8)
    for i in range(n):
        t = offset + i
        noise = rng_u.standard_normal((spec.image_side, spec.image_side))
        varying = (wv * frames[t] + (1.0 - wv) * noise) / eta_norm
        field = rho * patterns[int(labels[t])] + (1.0 - rho) * varying
        images[i] = np.clip(np.rint(BASE_LEVEL + spec.contrast * field), 0, 255)
    samples = Samples(images, labels[offset:offset + n],
                      [f"gen/s{subregion_id}/u{uav_id}/f{t}" for t in range(offset, offset + n)])

    test = np.zeros(n, dtype=bool)
    test[rng_u.permutation(n)[:int(round(spec.test_fraction * n))]] = True
    return UavData(train=Dataset(samples=samples[~test], shard_count=shard_count),
                   test=samples[test])


# --- PGM + manifest ingestion -------------------------------------------------

def read_pgm(path: str) -> np.ndarray:
    """Binary PGM (P5), maxval 255, as a read-only (height, width) uint8 array;
    '#' comments in the header are allowed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MissingFile(str(path)) from exc

    if not raw.startswith(b"P5"):
        raise BadPgmMagic(f"{path}: not a binary PGM (P5)")
    # header: magic, width, height, maxval as whitespace-separated tokens
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3:
        if i >= len(raw):
            raise BadHeader(f"{path}: truncated PGM header")
        c = raw[i:i + 1]
        if c == b"#":
            i = raw.find(b"\n", i)
            if i < 0:
                raise BadHeader(f"{path}: unterminated comment")
            continue
        if c.isspace():
            i += 1
            continue
        j = i
        while j < len(raw) and not raw[j:j + 1].isspace():
            j += 1
        tokens.append(raw[i:j])
        i = j
    i += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise BadHeader(f"{path}: non-numeric PGM header") from exc
    if maxval != 255:
        raise BadHeader(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = raw[i:i + width * height]
    if len(pixels) != width * height:
        raise BadHeader(f"{path}: expected {width * height} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path: str, image: np.ndarray) -> None:
    if image.ndim != 2 or image.dtype != np.uint8:
        raise InvariantViolation("write_pgm takes a 2-D uint8 array")
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
            fh.write(image.tobytes())
    except OSError as exc:
        raise UavFlError(f"cannot write {path}: {exc}") from exc


MANIFEST_HEADER = ["path", "label", "subregion", "uav"]


def load_manifest(manifest_path: str, shard_count: int,
                  image_root: str = "") -> dict[int, Dataset]:
    """Group manifest rows into per-UAV Datasets of stacked PGM images, each
    cut into `shard_count` shards."""
    try:
        fh = open(manifest_path, newline="", encoding="utf-8")
    except OSError as exc:
        raise MissingFile(str(manifest_path)) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadHeader(f"{manifest_path}: empty manifest") from None
        if header != MANIFEST_HEADER:
            raise BadHeader(f"{manifest_path}: header must be exactly {','.join(MANIFEST_HEADER)}")

        grouped: dict[int, list[tuple[np.ndarray, int, str]]] = {}
        for row in reader:
            if not row:
                continue
            where = f"{manifest_path}, line {reader.line_num}"
            if len(row) != 4:
                raise BadHeader(f"{where}: row has {len(row)} columns: {row}")
            rel_path, label_s, _subregion, uav_s = row
            if label_s.strip() not in ("0", "1"):
                raise LabelOutOfRange(f"{where}: label {label_s!r} for {rel_path} is not 0 or 1")
            try:
                uav = int(uav_s)
            except ValueError:
                raise BadHeader(f"{where}: uav {uav_s!r} is not an integer") from None
            image = read_pgm(os.path.join(image_root, rel_path) if image_root else rel_path)
            grouped.setdefault(uav, []).append((image, int(label_s), rel_path))

    datasets = {}
    for uav, rows in sorted(grouped.items()):
        images, labels, ids = zip(*rows)
        shapes = sorted({image.shape for image in images})
        if len(shapes) > 1:
            raise DimensionMismatch(f"{manifest_path}: UAV {uav} mixes image shapes {shapes}")
        datasets[uav] = Dataset(samples=Samples(np.stack(images), labels, ids),
                                shard_count=shard_count)
    return datasets
