"""Full-batch gradient descent with weight decay, trajectory recording and the
late learning-rate drop. One run is strictly sequential and deterministic for a
fixed seed. Each recorded step is observed once: one forward trace gives its
losses, divergence check and `metrics.measure` report, stored in the record
with the weights' operator norms (SVDs, hence only at the recording cadence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import densemat, metrics
from .network import NetworkConfig, ParamSet, forward, gradient, loss

DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class InitSpec:
    scheme: str = "gaussian"          # gaussian | custom
    scales: tuple = ()                # per-layer stddevs (gaussian)
    matrices: tuple = ()              # explicit weights (custom)

    def __post_init__(self):
        if self.scheme not in ("gaussian", "custom"):
            raise ValueError(f"unknown init scheme {self.scheme!r}")
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if self.scheme == "gaussian" and any(s < 0 for s in self.scales):
            raise ValueError("init scales must be non-negative")


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    lam: float
    steps: int
    lr_drop_fraction: float = 0.8
    lr_drop_factor: float = 10.0
    record_every: int = 1
    seed: int = 0
    init: InitSpec = InitSpec()
    store_params: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be non-negative and finite")
        if self.steps < 0 or self.record_every < 1:
            raise ValueError("steps must be >= 0 and record_every >= 1")
        if not 0.0 < self.lr_drop_fraction <= 1.0:
            raise ValueError("lr_drop_fraction must lie in (0, 1]")


@dataclass
class TrajectoryRecord:
    step: int
    c_lambda: float
    c_0: float
    param_norm: float
    dist_from_init: float
    metrics: metrics.MetricsReport
    layer_op_norms: list           # ||W_l||_op per layer
    params: ParamSet | None = None


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    diverged: bool = False

    def last(self) -> TrajectoryRecord:
        return self.records[-1]


def init_params(cfg: NetworkConfig, spec: InitSpec, seed: int) -> ParamSet:
    """I.i.d. Gaussian entries with per-layer scales; deterministic per seed."""
    if spec.scheme == "custom":
        weights = [np.array(m, dtype=np.float64) for m in spec.matrices]
        ps = ParamSet(weights)
        ps.check_shapes(cfg)
        return ps
    if spec.scales and len(spec.scales) != cfg.depth:
        raise ValueError(f"need {cfg.depth} init scales, got {len(spec.scales)}")
    rng = np.random.default_rng(seed)
    weights = []
    for layer in range(1, cfg.depth + 1):
        shape = cfg.layer_shape(layer)
        # default: variance 1/fan_in keeps pre-activation scale flat with depth
        scale = spec.scales[layer - 1] if spec.scales else 1.0 / math.sqrt(shape[1])
        weights.append(scale * rng.standard_normal(shape) if scale > 0 else np.zeros(shape))
    return ParamSet(weights)


def gd_step(cfg: NetworkConfig, params: ParamSet, x, y, eta: float, lam: float) -> ParamSet:
    """One update theta - eta * grad C_lambda(theta); the input is not mutated."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = gradient(cfg, params, x, y, lam)
    for layer, gw in enumerate(g.weights, start=1):
        if not np.all(np.isfinite(gw)):
            raise FloatingPointError(f"non-finite gradient at layer {layer}")
    return ParamSet([w - eta * gw for w, gw in zip(params.weights, g.weights)])


def _observe(cfg, train_cfg, params, theta0, x, y, idx, step,
             first_layer) -> TrajectoryRecord | None:
    """Record `params` from one forward trace; None if the loss diverged.

    The initial state (step 0) is recorded whatever its loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = forward(cfg, params, x)
        clam, c0 = loss(cfg, params, x, y, train_cfg.lam, trace=trace)
    if step > 0 and (not math.isfinite(c0) or c0 > DIVERGENCE_THRESHOLD):
        return None
    return TrajectoryRecord(
        step=step,
        c_lambda=clam,
        c_0=c0,
        param_norm=params.norm(),
        dist_from_init=params.dist(theta0),
        metrics=metrics.measure(cfg, params, trace, y, idx, first_layer),
        layer_op_norms=[densemat.op_norm(w) for w in params.weights],
        params=params.copy() if train_cfg.store_params else None,
    )


def effective_eta(train_cfg: TrainConfig, step: int) -> float:
    """Step size at GD step `step`; drops at lr_drop_fraction of the run."""
    drop_at = math.ceil(train_cfg.lr_drop_fraction * train_cfg.steps)
    if train_cfg.lr_drop_fraction < 1.0 and step >= drop_at:
        return train_cfg.eta / train_cfg.lr_drop_factor
    return train_cfg.eta


def train(cfg: NetworkConfig, train_cfg: TrainConfig, x, y,
          idx: metrics.ClassIndex, params0: ParamSet | None = None,
          first_layer: int | None = None) -> tuple:
    """Run GD; returns (final ParamSet, Trajectory).

    Every record carries the `metrics.measure` report of its state over the
    layers from `first_layer` (default: the head input) to the output.
    On divergence (non-finite loss or c_0 above the threshold) the partial
    trajectory is returned with `diverged` set; the last recorded state is the
    final healthy one.
    """
    params = params0.copy() if params0 is not None else init_params(
        cfg, train_cfg.init, train_cfg.seed)
    theta0 = params.copy()
    traj = Trajectory()
    traj.records.append(_observe(cfg, train_cfg, params, theta0, x, y, idx, 0,
                                 first_layer))
    last_healthy = params.copy()
    for k in range(train_cfg.steps):
        eta = effective_eta(train_cfg, k)
        try:
            params = gd_step(cfg, params, x, y, eta, train_cfg.lam)
        except FloatingPointError:
            traj.diverged = True
            break
        step = k + 1
        if step % train_cfg.record_every == 0 or step == train_cfg.steps:
            rec = _observe(cfg, train_cfg, params, theta0, x, y, idx, step,
                           first_layer)
            if rec is None:
                traj.diverged = True
                break
            traj.records.append(rec)
            last_healthy = params.copy()
    return (last_healthy if traj.diverged else params), traj
