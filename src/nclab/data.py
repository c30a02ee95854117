"""Dataset construction: synthetic class-structured Gaussians, one-hot labels,
and a loader for the big-endian IDX image/label format (gzip accepted).
Columns are always grouped contiguously by class.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import ClassIndex

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


class IdxFormatError(ValueError):
    pass


@dataclass
class Dataset:
    x: np.ndarray          # d x N
    y: np.ndarray          # K x N one-hot
    idx: ClassIndex
    b: float               # max column 2-norm of x

    def __post_init__(self):
        if self.x.shape[1] != self.y.shape[1] or self.x.shape[1] != self.idx.total:
            raise ValueError("inconsistent sample counts")
        col_sums = self.y.sum(axis=0)
        if not np.allclose(col_sums, 1.0) or not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("labels must be one-hot columns")

    def fingerprint(self) -> str:
        """SHA-256 over the shapes and float64 bytes of x and y."""
        h = hashlib.sha256()
        for a in (self.x, self.y):
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()


def one_hot(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label id outside [0, {k})")
    y = np.zeros((k, labels.size))
    y[labels, np.arange(labels.size)] = 1.0
    return y


def _make_dataset(x: np.ndarray, labels: np.ndarray, k: int,
                  min_col_norm_one: bool = False) -> Dataset:
    order = np.argsort(labels, kind="stable")
    x = x[:, order]
    labels = labels[order]
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one sample")
    col_norms = np.linalg.norm(x, axis=0)
    b = float(col_norms.max())
    if min_col_norm_one and 0.0 < b < 1.0:
        x = x / b
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
    cols = []
    labels = []
    for c in range(k):
        center = class_sep * q[:, c]
        cols.append(center[:, None] + noise * rng.standard_normal((d, n_per_class)))
        labels.extend([c] * n_per_class)
    return _make_dataset(np.concatenate(cols, axis=1), np.array(labels), k,
                         min_col_norm_one)


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise IdxFormatError(f"truncated IDX file while reading {what}")
    return buf


def read_idx_images(path) -> np.ndarray:
    """Returns an array of shape (count, rows, cols) of uint8 pixels."""
    with _open_maybe_gzip(Path(path)) as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "header"))
        if magic != IDX_MAGIC_IMAGES:
            raise IdxFormatError(f"bad image magic 0x{magic:08x}")
        raw = _read_exact(f, count * rows * cols, "pixel data")
        if f.read(1):
            raise IdxFormatError("trailing bytes after pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    with _open_maybe_gzip(Path(path)) as f:
        magic, count = struct.unpack(">II", _read_exact(f, 8, "header"))
        if magic != IDX_MAGIC_LABELS:
            raise IdxFormatError(f"bad label magic 0x{magic:08x}")
        raw = _read_exact(f, count, "label data")
        if f.read(1):
            raise IdxFormatError("trailing bytes after label data")
    return np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path, subset: int | None = None,
             classes: tuple | None = None) -> Dataset:
    """Flattened [0,1]-scaled images regrouped by class with one-hot labels.

    `subset` keeps the first n samples per class in file order; `classes`
    restricts (and reindexes) the label set.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if classes is None:
        classes = tuple(sorted(np.unique(labels).tolist()))
    remap = {cls: i for i, cls in enumerate(classes)}
    keep_cols = []
    new_labels = []
    taken = {cls: 0 for cls in classes}
    for i, lab in enumerate(labels.tolist()):
        if lab not in remap:
            continue
        if subset is not None and taken[lab] >= subset:
            continue
        taken[lab] += 1
        keep_cols.append(i)
        new_labels.append(remap[lab])
    if subset is not None:
        short = [cls for cls in classes if taken[cls] < subset]
        if short:
            raise ValueError(f"not enough samples for classes {short}")
    x = images[keep_cols].reshape(len(keep_cols), -1).T.astype(np.float64) / 255.0
    return _make_dataset(x, np.array(new_labels, dtype=np.int64), len(classes))
