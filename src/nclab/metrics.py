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
from .network import ActivationSpec, ForwardTrace, NetworkConfig, ParamSet, act_apply


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


def nc1(z: np.ndarray, idx: ClassIndex) -> float:
    """tr(Sigma_W) / tr(Sigma_B)."""
    z = np.asarray(z, dtype=np.float64)
    if idx.n_classes < 2:
        raise ValueError("nc1 needs at least two classes")
    zbar, mu_g = class_means(z, idx)
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


def nc2(z: np.ndarray, idx: ClassIndex, rank_tol: float = densemat.DEFAULT_RANK_TOL) -> float:
    """Condition number of the class-mean matrix."""
    zbar, _ = class_means(z, idx)
    return densemat.cond(zbar, rank_tol)


def nc3(z: np.ndarray, w: np.ndarray, idx: ClassIndex) -> float:
    """Mean cosine similarity between each feature and its class's weight row."""
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != idx.n_classes:
        raise ValueError(f"weight matrix has {w.shape[0]} rows, expected {idx.n_classes}")
    total = 0.0
    col = 0
    for c, s in enumerate(idx.slices()):
        row = w[c]
        row_norm = float(np.linalg.norm(row))
        for i in range(s.start, s.stop):
            zn = float(np.linalg.norm(z[:, i]))
            if zn == 0.0 or row_norm == 0.0:
                raise ValueError(f"zero vector in cosine pair (class {c}, column {i})")
            total += float(z[:, i] @ row) / (zn * row_norm)
            col += 1
    return total / idx.total


def balancedness_gap(w_next: np.ndarray, w: np.ndarray) -> float:
    """||W_{l+1}^T W_{l+1} - W_l W_l^T||_op."""
    w_next = np.asarray(w_next, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w_next.shape[1] != w.shape[0]:
        raise ValueError("inner dimensions of the interface do not match")
    return densemat.op_norm(w_next.T @ w_next - w @ w.T)


def balancedness_ratio(w_next: np.ndarray, w: np.ndarray) -> float:
    """Gap normalized by the smaller Gram operator norm."""
    w_next = np.asarray(w_next, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    denom = min(densemat.op_norm(w_next.T @ w_next), densemat.op_norm(w @ w.T))
    if denom == 0.0:
        raise ValueError("balancedness ratio undefined: zero Gram matrix")
    return balancedness_gap(w_next, w) / denom


def negativity(preact: np.ndarray, spec: ActivationSpec) -> float:
    """||A - sigma(A)||_op / ||A||_op on a layer's preactivations."""
    a = np.asarray(preact, dtype=np.float64)
    denom = densemat.op_norm(a)
    if denom == 0.0:
        raise ValueError("negativity undefined on the zero matrix")
    return densemat.op_norm(a - act_apply(spec, a)) / denom


def extract_thm1_inputs(cfg: NetworkConfig, trace: ForwardTrace, params: ParamSet,
                        y: np.ndarray) -> tuple:
    """(eps1, max balancedness gap over linear interfaces, radius r)."""
    if cfg.depth < 2:
        raise ValueError("radius extraction needs at least two layers")
    y = np.asarray(y, dtype=np.float64)
    eps1 = densemat.fro_norm(trace.z[-1] - y)
    eps2 = 0.0
    for l in range(cfg.l1 + 1, cfg.depth):
        eps2 = max(eps2, balancedness_gap(params.weights[l], params.weights[l - 1]))
    norms = [densemat.op_norm(trace.z[cfg.depth - 2]),
             densemat.op_norm(trace.z[cfg.depth - 1])]
    norms += [densemat.op_norm(params.weights[l - 1])
              for l in range(cfg.l1 + 1, cfg.depth + 1)]
    return eps1, eps2, max(norms)


@dataclass
class LayerMetrics:
    layer: int
    nc1: float | None = None
    nc2: float | None = None
    nc3: float | None = None
    negativity: float | None = None


@dataclass
class MetricsReport:
    layers: list
    balancedness_gaps: dict    # interface l -> gap
    balancedness_ratios: dict  # interface l -> ratio
    eps1: float | None = None  # None on a one-layer network
    eps2: float | None = None
    r: float | None = None


def _try(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


def measure(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
            y: np.ndarray, idx: ClassIndex,
            first_layer: int | None = None) -> MetricsReport:
    """Per-layer metric sweep from `first_layer` (default: head input) to Z_L,
    plus the balancedness and the Theorem-1 inputs.

    NC3 is only defined against a K-row weight matrix, so it is reported for
    Z_{L-1} (against W_L) and left unset elsewhere. Negativity applies to
    nonlinear layers' preactivations. A quantity that is undefined on this
    state (e.g. eps1/eps2/r of a one-layer network) is reported as None.
    """
    if first_layer is None:
        first_layer = max(cfg.l1, 1)
    layers = []
    for layer in range(first_layer, cfg.depth + 1):
        lm = LayerMetrics(layer=layer)
        z = trace.z[layer]
        lm.nc1 = _try(nc1, z, idx)
        lm.nc2 = _try(nc2, z, idx)
        if layer == cfg.depth - 1:
            lm.nc3 = _try(nc3, z, params.weights[cfg.depth - 1], idx)
        if 1 <= layer <= cfg.l1:
            lm.negativity = _try(negativity, trace.preact[layer - 1], cfg.activation)
        layers.append(lm)
    gaps, ratios = {}, {}
    for l in range(cfg.l1 + 1, cfg.depth):
        gaps[l] = balancedness_gap(params.weights[l], params.weights[l - 1])
        ratios[l] = _try(balancedness_ratio, params.weights[l], params.weights[l - 1])
    eps1, eps2, r = _try(extract_thm1_inputs, cfg, trace, params, y) or (None,) * 3
    return MetricsReport(layers=layers, balancedness_gaps=gaps,
                         balancedness_ratios=ratios, eps1=eps1, eps2=eps2, r=r)
