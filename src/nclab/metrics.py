"""Empirical collapse metrics: class means, NC1/NC2/NC3, balancedness
(gap and ratio), negativity, and the interpolation/balancedness/radius inputs
that feed the bound evaluators.

Feature matrices carry samples as columns, grouped contiguously by class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densemat
from .network import ForwardTrace, NetworkConfig, ParamSet


@dataclass(frozen=True)
class ClassIndex:
    class_counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.class_counts)
        object.__setattr__(self, "class_counts", counts)
        if not counts or any(c <= 0 for c in counts):
            raise ValueError("every class needs at least one sample")

    @property
    def n_classes(self) -> int:
        return len(self.class_counts)

    @property
    def total(self) -> int:
        return sum(self.class_counts)

    @property
    def sK_y(self) -> float:
        """s_K(Y) of one-hot labels: Y Y^T = diag(counts), so sqrt(min count)."""
        return math.sqrt(min(self.class_counts))

    def slices(self):
        start = 0
        for c in self.class_counts:
            yield slice(start, start + c)
            start += c


def class_means(z: np.ndarray, idx: ClassIndex) -> tuple:
    """Returns (class-mean matrix with one column per class, global mean)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[1] != idx.total:
        raise ValueError(f"feature matrix has {z.shape[1]} columns, index expects {idx.total}")
    zbar = np.column_stack([z[:, s].mean(axis=1) for s in idx.slices()])
    return zbar, z.mean(axis=1)


def nc1(z: np.ndarray, idx: ClassIndex, means: tuple | None = None) -> float:
    """tr(Sigma_W) / tr(Sigma_B); `means` is class_means(z, idx) if held."""
    z = np.asarray(z, dtype=np.float64)
    if idx.n_classes < 2:
        raise ValueError("nc1 needs at least two classes")
    zbar, mu_g = class_means(z, idx) if means is None else means
    tr_w = 0.0
    for c, s in enumerate(idx.slices()):
        d = z[:, s] - zbar[:, c:c + 1]
        tr_w += float(np.sum(d * d))
    tr_w /= idx.total
    db = zbar - mu_g[:, None]
    tr_b = float(np.sum(db * db)) / idx.n_classes
    if tr_b == 0.0:
        raise ValueError("degenerate between-class scatter: all class means equal")
    return tr_w / tr_b


def nc2(means: np.ndarray, rank_tol: float = densemat.DEFAULT_RANK_TOL) -> float:
    """Condition number of the class-mean matrix (from `class_means`)."""
    return densemat.cond(means, rank_tol)


def nc3(z: np.ndarray, w: np.ndarray, idx: ClassIndex) -> float:
    """Mean cosine similarity between each feature and its class's weight row."""
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != idx.n_classes:
        raise ValueError(f"weight matrix has {w.shape[0]} rows, expected {idx.n_classes}")
    rows = np.repeat(w, idx.class_counts, axis=0)  # row i: weight row of column i's class
    norms = np.linalg.norm(z, axis=0) * np.linalg.norm(rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        i = int(zero[0])
        c = int(np.searchsorted(np.cumsum(idx.class_counts), i, side="right"))
        raise ValueError(f"zero vector in cosine pair (class {c}, column {i})")
    return float(np.sum(np.einsum("ij,ji->i", rows, z) / norms)) / idx.total


def balancedness_gap(w_next: np.ndarray, w: np.ndarray) -> float:
    """||W_{l+1}^T W_{l+1} - W_l W_l^T||_op."""
    w_next = np.asarray(w_next, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w_next.shape[1] != w.shape[0]:
        raise ValueError("inner dimensions of the interface do not match")
    # both weights scaled by one exact power of two: the Grams overflow only if the gap does
    _, e = math.frexp(max(float(np.max(np.abs(w_next))), float(np.max(np.abs(w)))))
    w_next, w = np.ldexp(w_next, -e), np.ldexp(w, -e)
    return float(np.ldexp(densemat.op_norm(w_next.T @ w_next - w @ w.T), 2 * e))


def balancedness_ratio(gap: float, norm_next: float, norm: float) -> float:
    """Gap at an interface relative to the smaller squared weight operator
    norm, min(||W_{l+1}||_op, ||W_l||_op)^2 (= the smaller Gram operator norm)."""
    denom = min(norm_next, norm) ** 2
    if denom == 0.0:
        raise ValueError("balancedness ratio undefined: zero weight matrix")
    return gap / denom


def negativity(preact: np.ndarray, activated: np.ndarray) -> float:
    """||A - sigma(A)||_op / ||A||_op on a layer's preactivations A = W_l Z_{l-1},
    with sigma(A) the layer's output as the forward trace recorded it."""
    a = np.asarray(preact, dtype=np.float64)
    denom = densemat.op_norm(a)
    if denom == 0.0:
        raise ValueError("negativity undefined on the zero matrix")
    return densemat.op_norm(a - activated) / denom


def extract_thm1_inputs(cfg: NetworkConfig, trace: ForwardTrace, y: np.ndarray,
                        gaps: dict, head_op_norms: list) -> tuple:
    """(eps1, max balancedness gap over linear interfaces, radius r), from the
    interface gaps and the linear layers' operator norms of this state."""
    if cfg.depth < 2:
        raise ValueError("radius extraction needs at least two layers")
    y = np.asarray(y, dtype=np.float64)
    eps1 = densemat.fro_norm(trace.z[-1] - y)
    eps2 = max([0.0, *gaps.values()])
    norms = [densemat.op_norm(trace.z[cfg.depth - 2]),
             densemat.op_norm(trace.z[cfg.depth - 1]), *head_op_norms]
    return eps1, eps2, max(norms)


@dataclass
class LayerMetrics:
    layer: int
    means: np.ndarray          # class-mean matrix of Z_layer, one column per class
    nc1: float | None = None
    nc2: float | None = None
    nc3: float | None = None
    negativity: float | None = None


@dataclass
class MetricsReport:
    layers: list
    balancedness_gaps: dict    # interface l -> gap
    balancedness_ratios: dict  # interface l -> ratio
    op_norms: dict             # layer l -> ||W_l||_op, every layer
    rank_tol: float            # NC2's threshold, and that of the verdicts read from it
    eps1: float | None = None  # None on a one-layer network
    eps2: float | None = None
    r: float | None = None


def _try(fn, *args):
    """fn(*args); None if it raises a ValueError or an ArithmeticError or gives NaN
    (NC1's inf/inf): bounds._attempt's rule, but a record keeps no reason."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError):
        return None
    return None if isinstance(out, float) and math.isnan(out) else out


def measure(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
            y: np.ndarray, idx: ClassIndex, first_layer: int | None = None,
            last_layer: int | None = None,
            rank_tol: float = densemat.DEFAULT_RANK_TOL) -> MetricsReport:
    """Per-layer metric sweep from `first_layer` (default: head input) to
    `last_layer` (default: Z_L), plus every layer's ||W_l||_op, the
    balancedness and the Theorem-1 inputs; each norm, class-mean matrix and
    interface gap is computed once and feeds the ratios, NC1, NC2 and eps2/r.
    The verdict path sweeps Z_{L-1} alone (`bounds.verdict_layers`).

    NC2 is taken at `rank_tol`, which the report keeps. NC3 needs a K-row weight
    matrix, so it is reported for Z_{L-1} (against W_L) and left unset elsewhere.
    Negativity applies to nonlinear layers, whose preactivations W_l Z_{l-1}
    it forms from the trace, one product per layer. A quantity that is
    undefined on this state (e.g. eps1/eps2/r of a one-layer network) is None.
    """
    if first_layer is None:
        first_layer = max(cfg.l1, 1)
    layers = []
    for layer in range(first_layer, (cfg.depth if last_layer is None else last_layer) + 1):
        z = trace.z[layer]
        means = class_means(z, idx)
        lm = LayerMetrics(layer=layer, means=means[0])
        lm.nc1 = _try(nc1, z, idx, means)
        lm.nc2 = _try(nc2, lm.means, rank_tol)
        if layer == cfg.depth - 1:
            lm.nc3 = _try(nc3, z, params.weights[cfg.depth - 1], idx)
        if 1 <= layer <= cfg.l1:
            lm.negativity = _try(negativity, params.weights[layer - 1] @ trace.z[layer - 1], z)
        layers.append(lm)
    norms = {l: densemat.op_norm(w) for l, w in enumerate(params.weights, start=1)}
    gaps, ratios = {}, {}
    for l in range(cfg.l1 + 1, cfg.depth):
        gaps[l] = balancedness_gap(params.weights[l], params.weights[l - 1])
        ratios[l] = _try(balancedness_ratio, gaps[l], norms[l + 1], norms[l])
    head = [norms[l] for l in range(cfg.l1 + 1, cfg.depth + 1)]
    eps1, eps2, r = _try(extract_thm1_inputs, cfg, trace, y, gaps, head) or (None,) * 3
    return MetricsReport(layers=layers, balancedness_gaps=gaps,
                         balancedness_ratios=ratios, op_norms=norms, rank_tol=rank_tol,
                         eps1=eps1, eps2=eps2, r=r)
