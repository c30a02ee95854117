"""Full-batch gradient descent with weight decay, trajectory recording and the
late learning-rate drop. One run is strictly sequential and deterministic for a
fixed seed. Each state is traced once, by the `Workspace` that holds it, and a
recorded step reads that trace for its losses, divergence check and
`metrics.measure` report (class means and operator norms included, hence only
at the recording cadence).

Every run steps a `Workspace`, buffers allocated once: `gd_step` is one GD
step batched over a member axis. Runs whose layers nest train in lockstep
(`lockstep_groups`); a lone run is a group of one. Each member's floats are
those of a run alone, bit for bit. c_0 comes from `network._c0` alone, one
exact divergence test per state, and sqrt(2 c_0) is the record's eps1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import densemat, metrics
from .network import ForwardTrace, NetworkConfig, ParamSet, _c0, backprop, forward, loss

DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class InitSpec:
    scales: tuple = ()                # per-layer Gaussian stddevs

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if not all(math.isfinite(s) and s >= 0 for s in self.scales):
            raise ValueError("init scales must be non-negative and finite")


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
        if not (math.isfinite(self.lr_drop_factor) and self.lr_drop_factor > 0):
            raise ValueError("lr_drop_factor must be positive and finite")


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


class Workspace:
    """Buffers, allocated once, for GD steps of members whose layers nest, each
    a prefix of the first member's `cfg`, at `states`. Deepest first, the B_l
    members that have a layer l are the first B_l, so their weights l are one
    (B_l, n_l, n_{l-1}) view of a flat theta, which `forward` and `backprop`
    take at once. Two flat thetas alternate as the state and the next one,
    whose trace is `trace`; the nonlinear layers share one (2, size) scratch array."""

    def __init__(self, cfgs: list, x, y, states: list):
        cfg = self.cfg = cfgs[0]
        self.depths, self.x, self.y, self.now = [c.depth for c in cfgs], x, y, 0
        shapes = [(sum(d >= layer for d in self.depths),) + cfg.layer_shape(layer)
                  for layer in range(1, cfg.depth + 1)]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        self.flat = [np.empty(ends[-1]) for _ in range(3)]  # two thetas, then the gradient
        self.states = [ParamSet([part.reshape(shape) for part, shape in
                                 zip(np.split(flat, ends[:-1]), shapes)]) for flat in self.flat]
        self.g, self.grads = self.flat.pop(), self.states.pop().weights
        for b, params in enumerate(states):
            for w, src in zip(self.state.weights, params.weights):
                w[b] = src
        z = [x] + [np.empty(shape[:2] + (x.shape[1],)) for shape in shapes]
        scratch = np.empty((2, max([a.size for a in z[1:cfg.l1 + 1]], default=0)))  # shared
        self.trace = ForwardTrace(z, [np.empty_like(a) for a in z[1:cfg.l1 + 1]],
                                  [tuple(scratch[:, :a.size].reshape((2,) + a.shape))
                                   for a in z[1:cfg.l1 + 1]])
        self.resid = [z[d][b] for b, d in enumerate(self.depths)]  # each member's output
        with np.errstate(over="ignore", invalid="ignore"):
            forward(cfg, self.state, x, self.trace)

    @property
    def state(self) -> ParamSet:
        return self.states[self.now]

    def member(self, b: int, of: list | None = None) -> ParamSet:
        """Member b's weights, or its part of the per-layer arrays `of`, as views."""
        return ParamSet([w[b] for w in (of or self.state.weights)[:self.depths[b]]])


def gd_step(ws: Workspace, eta: float, lam: float) -> dict:
    """theta - eta * grad C_lambda(theta) for every member of `ws`, into its
    other theta, which becomes the state, traced; returns {member: error} of
    the members that failed, which update by zero. Each member's c_0, one dot
    product of the residual the gradient reads, takes the exact divergence
    test (LossDiverged). The gradient's sum tests its finiteness; only if
    that fails are the layers scanned, to name the first non-finite one."""
    failed = {}
    new = ws.flat[1 - ws.now]
    with np.errstate(over="ignore", invalid="ignore"):
        for b, resid in enumerate(ws.resid):  # Z_L - Y, backprop's cotangent
            np.subtract(resid, ws.y, resid)
            try:
                _test_loss(_c0(resid))
            except LossDiverged as exc:
                failed[b] = exc
        backprop(ws.cfg, ws.state, ws.trace, ws.trace.z[-1], ws.grads)
        if lam != 0.0:
            np.add(ws.g, np.multiply(ws.flat[ws.now], lam, new), ws.g)
        if not math.isfinite(ws.g.sum()):
            for b in range(len(ws.depths)):
                for layer, gw in enumerate(ws.member(b, ws.grads).weights, start=1):
                    if b not in failed and not np.all(np.isfinite(gw)):
                        failed[b] = FloatingPointError(f"non-finite gradient at layer {layer}")
        for b in failed:
            for gw in ws.member(b, ws.grads).weights:
                gw[...] = 0.0
        np.subtract(ws.flat[ws.now], np.multiply(ws.g, eta, ws.g), new)
        ws.now = 1 - ws.now
        forward(ws.cfg, ws.state, ws.x, ws.trace)
    return failed


def _observe(run: _Run, ws: Workspace, b: int, idx, step, first_layer, rank_tol) -> None:
    """Record member b of `ws`, `run`, from the trace `ws` holds and make its
    state the last healthy one; LossDiverged, with the cause, if its loss
    diverged. The initial state (step 0) is recorded whatever its loss."""
    params = ws.member(b).copy()
    trace = ForwardTrace([ws.x] + ws.member(b, ws.trace.z[1:]).weights,  # views
                         ws.member(b, ws.trace.dact).weights)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged state is recorded as is
        clam, c0 = loss(run.cfg, params, ws.x, ws.y, run.train_cfg.lam, trace=trace)
        if step > 0:
            _test_loss(c0)
        rep = metrics.measure(run.cfg, params, trace, ws.y, idx, first_layer, rank_tol=rank_tol)
        run.traj.records.append(TrajectoryRecord(
            step=step, c_lambda=clam, c_0=c0, param_norm=params.norm(),
            dist_from_init=params.dist(run.theta0), metrics=rep,
            params=params if run.train_cfg.store_params else None))
    run.last_healthy = params


def _drop_at(train_cfg: TrainConfig) -> float:
    """The first GD step at the dropped step size (inf: none is)."""
    if train_cfg.lr_drop_fraction < 1.0:
        return math.ceil(train_cfg.lr_drop_fraction * train_cfg.steps)
    return math.inf


def effective_eta(train_cfg: TrainConfig, step: int) -> float:
    """Step size at GD step `step`; drops at lr_drop_fraction of the run."""
    if step >= _drop_at(train_cfg):
        return train_cfg.eta / train_cfg.lr_drop_factor
    return train_cfg.eta


@dataclass(eq=False)
class Lockstep:
    """(NetworkConfig, TrainConfig) members, deepest first, that train in
    lockstep on one data set; the first `train` call of any of them runs all."""
    members: list
    results: list | None = None


def _layers(cfg: NetworkConfig) -> list:
    return [(cfg.layer_shape(layer), layer <= cfg.l1) for layer in range(1, cfg.depth + 1)]


def lockstep_groups(members: list) -> list:
    """The Lockstep group of each (NetworkConfig, TrainConfig) pair, for
    members that train on the same data. Members share a group when their
    activation and every train setting but the seed agree and each one's
    layers (shape, and linear or not) are a prefix of its deepest member's."""
    made, groups = [], [None] * len(members)
    for i in sorted(range(len(members)), key=lambda i: -members[i][0].depth):
        cfg, tcfg = members[i]
        for g in made:
            head, head_tcfg = g.members[0]
            if (cfg.activation == head.activation and _layers(cfg) == _layers(head)[:cfg.depth]
                    and replace(tcfg, seed=0) == replace(head_tcfg, seed=0)):
                g.members.append(members[i])
                break
        else:
            g = Lockstep([members[i]])
            made.append(g)
        groups[i] = g
    return groups


@dataclass
class _Run:
    """One member's progress through a lockstep run."""
    cfg: NetworkConfig
    train_cfg: TrainConfig
    theta0: ParamSet | None = None
    last_healthy: ParamSet | None = None
    traj: Trajectory = field(default_factory=Trajectory)
    result: object = None  # (params, traj), or the exception its train call raises

    def stop(self, k: int, exc: Exception) -> None:
        self.result = exc
        if isinstance(exc, FloatingPointError):
            # LossDiverged: state k failed the c_0 test; else update k + 1's gradient
            self.traj.diverged_at = k if isinstance(exc, LossDiverged) else k + 1
            self.traj.divergence = str(exc)
            self.result = (self.last_healthy, self.traj)


def _leave(ws: Workspace, active: list) -> tuple:
    """(workspace, runs) of the members of `active` that have not stopped: a
    workspace built for them at their states in `ws` if any other has."""
    live = [b for b, run in enumerate(active) if run.result is None]
    if 0 < len(live) < len(active):
        ws = Workspace([active[b].cfg for b in live], ws.x, ws.y, [ws.member(b) for b in live])
    return ws, [active[b] for b in live]


def _run_lockstep(members: list, x, y, idx, first_layer, rank_tol) -> list:
    """Train a group, one batched GD step per step, each member exactly as it
    would train alone: its own c_0 tests, records, divergence and errors. One
    workspace holds the states and their trace through the run, and records
    read it. A member that stops leaves the group, before the next step or
    record, and the others go on in a workspace built for them."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    runs = [_Run(cfg, tcfg) for cfg, tcfg in members]
    for run in runs:
        try:
            run.theta0 = run.last_healthy = init_params(run.cfg, run.train_cfg.init,
                                                        run.train_cfg.seed)
        except ValueError as exc:
            run.result = exc
    active = [run for run in runs if run.result is None]
    ws = (Workspace([run.cfg for run in active], x, y, [run.theta0 for run in active])
          if active else None)
    train_cfg = members[0][1]
    eta, drop_at = train_cfg.eta, _drop_at(train_cfg)
    for k in range(train_cfg.steps + 1):  # state k, then the update to state k + 1
        if k % train_cfg.record_every == 0 or k == train_cfg.steps:
            for b, run in enumerate(active):
                try:
                    _observe(run, ws, b, idx, k, first_layer, rank_tol)
                except Exception as exc:  # the member's own, raised from its call
                    run.stop(k, exc)
            ws, active = _leave(ws, active)
        if k == train_cfg.steps or not active:
            break
        if k == drop_at:
            eta = effective_eta(train_cfg, k)
        failed = gd_step(ws, eta, train_cfg.lam)
        if failed:
            for b, exc in failed.items():
                active[b].stop(k, exc)
            ws, active = _leave(ws, active)
    for run in active:
        run.result = (run.last_healthy, run.traj)
    return [run.result for run in runs]


def train(cfg: NetworkConfig, train_cfg: TrainConfig, x, y,
          idx: metrics.ClassIndex, first_layer: int | None = None,
          group: Lockstep | None = None, rank_tol: float = densemat.DEFAULT_RANK_TOL) -> tuple:
    """Run GD; returns (last recorded ParamSet, Trajectory).

    Every record carries the `metrics.measure` report of its state over the
    layers from `first_layer` (default: the head input) to the output, with
    NC2 at `rank_tol` (`nclab` passes the resolved `bounds.rank_tol`).
    On divergence (a non-finite gradient, or a c_0 that is not finite or
    above the threshold) the partial trajectory is returned with `diverged`,
    its step and its cause set; the last recorded state is the final healthy
    one. A member of `group` trains with the whole group at the group's
    first call, on this call's data, `first_layer` and `rank_tol`, and gets or
    raises its own result, identical to a run alone.
    """
    if group is None:
        group = Lockstep([(cfg, train_cfg)])
    if group.results is None:
        group.results = _run_lockstep(group.members, x, y, idx, first_layer, rank_tol)
    result = group.results[group.members.index((cfg, train_cfg))]
    if isinstance(result, Exception):
        raise result
    return result
