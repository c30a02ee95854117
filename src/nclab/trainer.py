"""Full-batch gradient descent with weight decay, trajectory recording and the
late learning-rate drop. One run is strictly sequential and deterministic for a
fixed seed. Each recorded step is observed once: one forward trace gives its
losses, divergence check and `metrics.measure` report (class means and
operator norms included, hence only at the recording cadence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .network import NetworkConfig, ParamSet, forward, gradient, loss

DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class InitSpec:
    scales: tuple = ()                # per-layer Gaussian stddevs

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if any(s < 0 for s in self.scales):
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
    params: ParamSet | None = None


class LossDiverged(FloatingPointError):
    """A state's c_0 is not finite or exceeds DIVERGENCE_THRESHOLD."""


@dataclass
class Trajectory:
    """The records of a run. On divergence, `diverged_at` is the GD step that
    did not give a healthy state (0: the initial one), its update having a
    non-finite gradient or its c_0 failing the test; `divergence` says which."""
    records: list = field(default_factory=list)
    diverged_at: int | None = None
    divergence: str | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def last(self) -> TrajectoryRecord:
        return self.records[-1]


def init_params(cfg: NetworkConfig, spec: InitSpec, seed: int) -> ParamSet:
    """I.i.d. Gaussian entries with per-layer scales; deterministic per seed."""
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


def _test_loss(c0: float) -> None:
    if not math.isfinite(c0):
        raise LossDiverged(f"c_0 = {c0!r} is not finite")
    if c0 > DIVERGENCE_THRESHOLD:
        raise LossDiverged(
            f"c_0 = {c0!r} exceeds the divergence threshold {DIVERGENCE_THRESHOLD:g}")


def gd_step(cfg: NetworkConfig, params: ParamSet, x, y, eta: float, lam: float) -> ParamSet:
    """One update theta - eta * grad C_lambda(theta); the input is not mutated.

    LossDiverged if c_0 of `params`, from the trace the gradient reads, fails
    the divergence test, so every state is tested. The gradient is tested for
    finiteness once, through the sum of its per-layer sums; only when that is
    not finite (a NaN or inf entry, or a finite gradient whose sum overflows)
    are the layers scanned, so the error names the first non-finite one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = forward(cfg, params, x)
        resid = trace.z[-1] - y
        # one dot product per step, within 1e-6 of 2 c_0: only a state near or
        # past the threshold takes the exact test, on loss()'s c_0
        if not np.vdot(resid, resid) <= 2.0 * DIVERGENCE_THRESHOLD * (1.0 - 1e-6):
            _test_loss(loss(cfg, params, x, y, trace=trace)[1])
        g = gradient(cfg, params, x, y, lam, trace)
        total = sum([gw.sum() for gw in g.weights])
    if not math.isfinite(total):
        for layer, gw in enumerate(g.weights, start=1):
            if not np.all(np.isfinite(gw)):
                raise FloatingPointError(f"non-finite gradient at layer {layer}")
    return ParamSet([w - eta * gw for w, gw in zip(params.weights, g.weights)])


def _observe(cfg, train_cfg, params, theta0, x, y, idx, step,
             first_layer) -> TrajectoryRecord:
    """Record `params` from one forward trace; LossDiverged, with the cause,
    if its loss diverged. The initial state (step 0) is recorded whatever its
    loss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        trace = forward(cfg, params, x)
        clam, c0 = loss(cfg, params, x, y, train_cfg.lam, trace=trace)
    if step > 0:
        _test_loss(c0)
    rep = metrics.measure(cfg, params, trace, y, idx, first_layer)
    return TrajectoryRecord(
        step=step,
        c_lambda=clam,
        c_0=c0,
        param_norm=params.norm(),
        dist_from_init=params.dist(theta0),
        metrics=rep,
        params=params if train_cfg.store_params else None,
    )


def effective_eta(train_cfg: TrainConfig, step: int) -> float:
    """Step size at GD step `step`; drops at lr_drop_fraction of the run."""
    drop_at = math.ceil(train_cfg.lr_drop_fraction * train_cfg.steps)
    if train_cfg.lr_drop_fraction < 1.0 and step >= drop_at:
        return train_cfg.eta / train_cfg.lr_drop_factor
    return train_cfg.eta


def train(cfg: NetworkConfig, train_cfg: TrainConfig, x, y,
          idx: metrics.ClassIndex, first_layer: int | None = None) -> tuple:
    """Run GD; returns (last recorded ParamSet, Trajectory).

    Every record carries the `metrics.measure` report of its state over the
    layers from `first_layer` (default: the head input) to the output.
    On divergence (a non-finite gradient, or a c_0 that is not finite or
    above the threshold) the partial trajectory is returned with `diverged`,
    its step and its cause set; the last recorded state is the final healthy
    one. `gd_step` never mutates its input, so states are
    shared, not copied.
    """
    params = theta0 = last_healthy = init_params(cfg, train_cfg.init, train_cfg.seed)
    traj = Trajectory()
    for k in range(train_cfg.steps + 1):  # state k, then the update to state k + 1
        try:
            if k % train_cfg.record_every == 0 or k == train_cfg.steps:
                traj.records.append(_observe(cfg, train_cfg, params, theta0, x, y,
                                             idx, k, first_layer))
                last_healthy = params
            if k < train_cfg.steps:
                params = gd_step(cfg, params, x, y, effective_eta(train_cfg, k),
                                 train_cfg.lam)
        except LossDiverged as exc:  # state k failed the c_0 test
            traj.diverged_at, traj.divergence = k, str(exc)
            break
        except FloatingPointError as exc:  # the gradient of update k + 1
            traj.diverged_at, traj.divergence = k + 1, str(exc)
            break
    return last_healthy, traj
