"""Dataset construction: synthetic class-structured Gaussians, one-hot labels,
and a loader for unsigned-byte IDX image/label files (gzip accepted).
Columns are always grouped contiguously by class.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .metrics import ClassIndex


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    x: np.ndarray          # d x N
    y: np.ndarray          # K x N one-hot
    idx: ClassIndex
    b: float               # max column 2-norm of x
    _sha256: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x.shape[1] != self.y.shape[1] or self.x.shape[1] != self.idx.total:
            raise ValueError("inconsistent sample counts")
        # entries in {0, 1} first: the column sums are then integers, tested exactly
        if not (np.all((self.y == 0) | (self.y == 1)) and np.all(self.y.sum(axis=0) == 1)):
            raise ValueError("labels must be one-hot columns")

    def fingerprint(self) -> str:
        """SHA-256 over the shapes and C-order float64 bytes of x and y, taken once."""
        if self._sha256 is not None:
            return self._sha256
        h = hashlib.sha256()
        for a in (self.x, self.y):
            h.update(repr(a.shape).encode())
            for row in a:  # not a whole C-order copy of an F-ordered x
                h.update(np.ascontiguousarray(row, dtype=np.float64))
        self._sha256 = h.hexdigest()
        return self._sha256


def one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label id outside [0, {k})")
    y = np.zeros((k, labels.size))
    y[labels, np.arange(labels.size)] = 1.0
    return y


def make_dataset(x: np.ndarray, labels: np.ndarray, k: int,
                 min_col_norm_one: bool = False) -> Dataset:
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one sample")
    # F-ordered columns are contiguous: norms of 256-column blocks match one call bit for bit
    step = 256 if x.flags.f_contiguous else max(x.shape[1], 1)
    b = float(np.concatenate([np.linalg.norm(x[:, j:j + step], axis=0)
                              for j in range(0, x.shape[1], step)]).max())
    if min_col_norm_one and 0.0 < b < 1.0:
        x /= b  # x is the caller's new array, grouped by class like `labels`
        b = 1.0
    return Dataset(x=x, y=one_hot(labels, k), idx=ClassIndex(tuple(counts)), b=b)


def synth_gaussian(d: int, k: int, n_per_class: int, class_sep: float = 4.0,
                   noise: float = 0.3, seed: int = 0,
                   min_col_norm_one: bool = True) -> Dataset:
    """Class c centered at class_sep * u_c for orthonormal directions u_c."""
    if d < 1 or k < 1 or n_per_class < 1:
        raise ValueError("all counts must be positive")
    if k > d:
        raise ValueError("need d >= K for orthonormal class directions")
    rng = np.random.default_rng(seed)
    # deterministic orthonormal directions from a QR of a fixed Gaussian draw
    g = rng.standard_normal((d, k))
    q = np.zeros((d, k))
    for c in range(k):
        v = g[:, c] - q[:, :c] @ (q[:, :c].T @ g[:, c])
        q[:, c] = v / np.linalg.norm(v)
    x = np.empty((d, k * n_per_class), order="F")
    for c, block in enumerate(np.hsplit(x, k)):
        block[:] = class_sep * q[:, [c]] + noise * rng.standard_normal((d, n_per_class))
    return make_dataset(x, np.repeat(np.arange(k), n_per_class), k, min_col_norm_one)


def read_idx(path) -> np.ndarray:
    """The uint8 array of an unsigned-byte IDX file, gzip or plain, shaped by
    its own header: two zero bytes, the type byte 0x08, the number of
    dimensions, then each size as a big-endian uint32."""
    import gzip  # here, so that commands on synthetic data never load it
    with open(path, "rb") as f:
        gzipped = f.read(2) == b"\x1f\x8b"
    with (gzip.open if gzipped else open)(path, "rb") as f:
        try:
            raw = f.read()
        except EOFError as exc:  # a gzip stream cut short
            raise IdxFormatError(f"truncated IDX file: {exc}") from exc
    if len(raw) >= 4 and raw[:3] != b"\x00\x00\x08":
        raise IdxFormatError(f"bad magic 0x{raw[:4].hex()}: not an unsigned-byte IDX file")
    start = 4 + 4 * raw[3] if len(raw) >= 4 else 4
    if len(raw) < start:
        raise IdxFormatError("truncated IDX file while reading the header")
    shape = struct.unpack(f">{raw[3]}I", raw[4:start])
    extra = len(raw) - start - math.prod(shape)
    if extra < 0:
        raise IdxFormatError("truncated IDX file while reading the data")
    if extra > 0:
        raise IdxFormatError("trailing bytes after the data")
    return np.frombuffer(raw, dtype=np.uint8, offset=start).reshape(shape)


def load_idx(images_path, labels_path, subset: int | None = None,
             classes: tuple | None = None) -> Dataset:
    """Flattened [0,1]-scaled images regrouped by class with one-hot labels.

    `subset` keeps the first n samples per class in file order; `classes`
    restricts the label set and numbers it in its own order (no duplicates).
    """
    images, labels = read_idx(images_path), read_idx(labels_path)
    if images.ndim != 3 or labels.ndim != 1:
        raise IdxFormatError(f"need 3-D images and 1-D labels, got {images.ndim}-D "
                             f"and {labels.ndim}-D")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if classes is None:
        classes = tuple(np.unique(labels).tolist())
    if len(set(classes)) != len(classes):
        raise ValueError(f"duplicate classes in {list(classes)}")
    cols = [np.flatnonzero(labels == c)[:subset] for c in classes]
    short = [c for c, col in zip(classes, cols) if col.size < (subset or 0)]
    if short:
        raise ValueError(f"not enough samples for classes {short}")
    keep = np.concatenate(cols)
    x = (images[keep].reshape(keep.size, -1) / 255.0).T  # F-ordered, as x always is
    return make_dataset(x, np.repeat(np.arange(len(classes)), [c.size for c in cols]),
                        len(classes))
