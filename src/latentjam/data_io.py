"""Dataset ingestion (IDX image files), synthetic sources, deterministic batching.

IDX is the classic big-endian digit-image format: a u32 magic (0x00000803
for image tensors, 0x00000801 for label vectors), u32 dimension sizes, then
raw unsigned bytes. Pixels land in [0, 1] as float64; nothing here touches
the network.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .rng import Rng, derive_seed

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Flattened image rows in [0, 1] plus descriptive metadata."""

    images: np.ndarray  # [count, n] float64
    metadata: dict

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def n(self) -> int:
        return self.images.shape[1]


def _read_file(path) -> bytes:
    if not os.path.exists(path):
        raise DataFormatError(f"data file not found: {path}")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise DataFormatError(f"cannot read data file {path}: {err}") from err


def _u32(buf: bytes, offset: int) -> int:
    return int.from_bytes(buf[offset:offset + 4], byteorder="big")


def load_idx(images_path, labels_path=None, name: str = "idx", split: str = "train") -> Dataset:
    """Parse an IDX image file (and optional label file) into a Dataset."""
    buf = _read_file(images_path)
    if len(buf) < 16:
        raise DataFormatError(f"{images_path}: truncated header ({len(buf)} bytes)")
    magic = _u32(buf, 0)
    if magic != IMAGES_MAGIC:
        raise DataFormatError(f"{images_path}: bad magic 0x{magic:08X}, expected 0x{IMAGES_MAGIC:08X}")
    count, rows, cols = _u32(buf, 4), _u32(buf, 8), _u32(buf, 12)
    if count * rows * cols == 0:
        raise DataFormatError(f"{images_path}: empty dataset ({count}x{rows}x{cols})")
    expected = 16 + count * rows * cols
    if len(buf) != expected:
        raise DataFormatError(f"{images_path}: length {len(buf)} != expected {expected} for {count}x{rows}x{cols}")
    pixels = np.frombuffer(buf, dtype=np.uint8, offset=16).astype(np.float64) / 255.0
    images = pixels.reshape(count, rows * cols)
    metadata = {"name": name, "rows": rows, "cols": cols, "channels": 1, "split": split}
    if labels_path is not None:
        lbuf = _read_file(labels_path)
        if len(lbuf) < 8:
            raise DataFormatError(f"{labels_path}: truncated header")
        lmagic = _u32(lbuf, 0)
        if lmagic != LABELS_MAGIC:
            raise DataFormatError(f"{labels_path}: bad magic 0x{lmagic:08X}, expected 0x{LABELS_MAGIC:08X}")
        lcount = _u32(lbuf, 4)
        if len(lbuf) != 8 + lcount:
            raise DataFormatError(f"{labels_path}: length {len(lbuf)} != expected {8 + lcount}")
        if lcount != count:
            raise DataFormatError(f"label count {lcount} != image count {count}")
        metadata["labels"] = np.frombuffer(lbuf, dtype=np.uint8, offset=8).copy()
    return Dataset(images, metadata)


_MIXTURE_CENTERS = np.array([0.25, 0.75])
_MIXTURE_SCALE = 0.1


def synth_source(kind: str, count: int, n: int, seed: int) -> Dataset:
    """Synthetic sources with known statistics, for oracle-linked tests.

    gaussian: iid N(0.5, 0.15^2) clipped to [0, 1]; mixture: equal-weight
    Gaussian bumps N(c, 0.1^2), c in {0.25, 0.75} drawn per row; uniform: U[0, 1).
    """
    if count < 1 or n < 1:
        raise ConfigError(f"count and n must be >= 1, got {count}, {n}")
    rng = Rng(derive_seed(seed, f"synth/{kind}"))
    if kind == "gaussian":
        x = rng.normal((count, n))
        np.add(np.multiply(x, 0.15, out=x), 0.5, out=x)
    elif kind == "mixture":
        which = (rng.uniform((count,)) * len(_MIXTURE_CENTERS)).astype(np.int64)
        which = np.minimum(which, len(_MIXTURE_CENTERS) - 1)
        x = rng.normal((count, n))
        np.add(np.multiply(x, _MIXTURE_SCALE, out=x), _MIXTURE_CENTERS[which][:, None], out=x)
    elif kind == "uniform":
        x = rng.uniform((count, n))
    else:
        raise ConfigError(f"unknown synthetic source kind '{kind}'")
    images = np.clip(x, 0.0, 1.0, out=x)
    side = int(np.sqrt(n))
    rows, cols = (side, side) if side * side == n else (1, n)
    return Dataset(images, {"name": f"synth-{kind}", "rows": rows, "cols": cols,
                            "channels": 1, "split": "train"})


@dataclass
class BatchPlan:
    """Epoch-indexed shuffling recipe; the permutation derives from (seed, epoch)."""

    batch_size: int
    seed: int


def epoch_permutation(plan: BatchPlan, count: int, epoch: int) -> np.ndarray:
    return Rng(derive_seed(plan.seed, f"shuffle/{epoch}")).permutation(count)


def batches(dataset: Dataset, plan: BatchPlan, epoch: int):
    """Yield [batch_size, n] slices under the epoch's derived permutation; the last
    count % batch_size rows of the permutation are left out."""
    count = dataset.count
    if plan.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {plan.batch_size}")
    if plan.batch_size > count:
        raise ConfigError(f"batch_size {plan.batch_size} exceeds dataset size {count}")
    perm = epoch_permutation(plan, count, epoch)
    for b in range(count // plan.batch_size):
        yield dataset.images[perm[b * plan.batch_size:(b + 1) * plan.batch_size]]
