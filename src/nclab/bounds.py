"""Evaluators and checkers for the quantitative guarantees: the collapse bounds
driven by interpolation error, balancedness and boundedness; the GD schedule
caps; the shifted-PL descent inequalities; the balanced-power and gradient
Lipschitz lemmas; and the conditioning / NTK bounds.

Every closed-form bound is a pure function of one per-state record,
`Thm1Inputs`, that `state_verdicts` builds; the GD schedule is one of that
record and theta_0's frozen `InitSpectra`. A failed premise, non-positive
denominator or float fault (an `ArithmeticError`: overflow, division by zero)
makes a bound *vacuous*, never silently clamped.
`nclab bounds` and `nclab verify` reach them on one path: `run_context` once
per data set and theta_0, then `state_verdicts` per state.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import densemat, ntk
from .data import Dataset
from .network import (ForwardTrace, NetworkConfig, ParamSet, forward, gradient, loss,
                      partial_product)

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


class VacuousBound(ArithmeticError):
    """A premise failed or a denominator was non-positive."""


@dataclass
class BoundReport:
    name: str
    value: float | None = None        # right-hand side of the bound
    measured: float | None = None     # measured counterpart
    margin: float | None = None       # value - measured; measured - value if a lower bound
    premises: dict = field(default_factory=dict)
    holds: str = VACUOUS
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Thm1Inputs:
    """A state's numbers every bound reads; c3 = cond(W_{L:L1+1}), kappa_wl = cond(W_L)."""
    eps1: float
    eps2: float
    r: float
    n_lminus1: int
    k: int
    n: int
    sK_y: float
    x_opnorm: float
    l1: int
    l2: int
    c3: float | None = None
    kappa_wl: float | None = None


def _eps1_cap(inp: Thm1Inputs) -> float:
    """sqrt((K-1) N / (4K)), the cap on eps1 in Theorem 1 and in the GD schedule."""
    return math.sqrt((inp.k - 1) * inp.n / (4 * inp.k))


def _sk_margin(inp: Thm1Inputs) -> float:
    """s_K(Y) - eps1; every bound below needs it positive."""
    if inp.eps1 >= inp.sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    return inp.sK_y - inp.eps1


def _nc1_den(inp: Thm1Inputs) -> float:
    den = math.sqrt((inp.k - 1) / inp.k) - 2.0 * inp.eps1 / math.sqrt(inp.n)
    if den <= 0:
        raise VacuousBound("interpolation error too large for the NC1 bound")
    return den


def _defined(cond: float | None, of: str) -> float:
    if cond is None:
        raise ValueError(f"cond({of}) is undefined")
    return cond


def psi(inp: Thm1Inputs) -> float:
    """r * (eps1/(sK(Y)-eps1) + sqrt(n_{L-1} * eps2))."""
    return inp.r * (inp.eps1 / _sk_margin(inp) + math.sqrt(inp.n_lminus1 * inp.eps2))


def thm1_nc1_rhs(inp: Thm1Inputs) -> float:
    """Upper bound on the within-class variability of Z_{L-1}."""
    den = _nc1_den(inp)
    p = psi(inp)
    return (inp.r ** 2 / inp.n) * p * p / (den * den)


def thm2_nc1_rhs(inp: Thm1Inputs) -> float:
    """NC1 cap after the GD schedule: Theorem 1's Psi and NC1 denominator at
    eps1*sqrt(2), with Psi unsquared."""
    e1 = replace(inp, eps1=inp.eps1 * math.sqrt(2.0))
    den = _nc1_den(e1)
    return (inp.r ** 2 / inp.n) * psi(e1) / (den * den)


def thm1_kappa_rhs(inp: Thm1Inputs) -> float:
    """Upper bound on cond(W_L) given cond(W_{L:L1+1}) <= c3, with the stated
    exponent 1/L2 on (1+eps)."""
    c3 = _defined(inp.c3, "W_{L:L1+1}")
    margin = _sk_margin(inp)
    perturb = 0.5 * inp.l2 ** 2 * inp.r ** (2 * (inp.l2 - 1)) * inp.eps2
    base = margin ** 2 / (inp.x_opnorm ** 2 * inp.r ** (2 * inp.l1))
    den = base - perturb
    if den <= 0:
        raise VacuousBound("balancedness perturbation dominates the spectral floor")
    eps = perturb / den
    expo = 1.0 / inp.l2
    return c3 ** (1.0 / inp.l2) * (1.0 + eps) ** expo + c3 ** (1.0 / inp.l2 - 1.0) * eps


def thm1_nc2_rhs(inp: Thm1Inputs) -> float:
    """Upper bound on cond(class means of Z_{L-1})."""
    kappa_wl = _defined(inp.kappa_wl, "W_L")
    q = inp.r * psi(inp) / inp.sK_y
    if 1.0 - q <= 0:
        raise VacuousBound("residual term reaches 1 in the NC2 bound")
    return (kappa_wl + q) / (1.0 - q)


def thm1_nc3_rhs(inp: Thm1Inputs) -> float:
    """Lower bound on the feature/weight alignment; may be vacuous-weak (< -1),
    which `state_verdicts` reports as a failed `nontrivial` premise."""
    kappa_wl = _defined(inp.kappa_wl, "W_L")
    p = psi(inp)
    num = ((math.sqrt(inp.n) - inp.eps1) ** 2
           + inp.n / kappa_wl ** 2
           - (inp.r * p + math.sqrt(inp.k) * (kappa_wl ** 2 - 1.0)) ** 2)
    return num / (2.0 * inp.n * kappa_wl * (1.0 + inp.eps1))


def residual_to_pinv(z_lminus1: np.ndarray, w_l: densemat.SvdResult, y: np.ndarray,
                     rank_tol: float = densemat.DEFAULT_RANK_TOL) -> float:
    """||Z_{L-1} - pinv(W_L) Y||_F, `w_l` = svd(W_L); needs W_L of full row rank."""
    if w_l.s[-1] <= rank_tol * w_l.s[0] or w_l.u.shape[0] > w_l.vt.shape[1]:
        raise VacuousBound("W_L is rank-deficient")
    return densemat.fro_norm(np.asarray(z_lminus1) - densemat.pinv(w_l, rank_tol) @ np.asarray(y))


# ---------------------------------------------------------------------------
# GD schedule (theta_0's spectra, Assumption 3, caps, two-phase step count)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitSpectra:
    """theta_0's numbers the GD schedule reads. By layer: lambda_l = s_min(W_l^0) and
    bar_lambda_l = ||W_l^0||_op + min_{l>=3} lambda_l; lambda_F = s_min(sigma(W_1 X));
    alpha and r0, the local PL constant and ball radius; C_lambda, c_0 and the norm."""
    lambda_f: float
    lambda_l: dict
    bar_lambda_l: dict
    lambda_3_to_l: float
    alpha: float
    r0: float
    c_lambda_init: float
    c0_init: float
    theta0_norm: float


def _s_min(a: np.ndarray) -> float:
    return float(densemat.svd(a, compute_uv=False, extremes=True).s[1])


def schedule_gamma(cfg: NetworkConfig) -> float:
    """The activation's gamma on a net the GD schedule covers; ValueError on
    any other, so that a caller can refuse one before tracing it."""
    if cfg.depth < 3:
        raise ValueError("the GD schedule machinery needs depth >= 3")
    if cfg.l1 < 1:
        raise ValueError("the GD schedule needs l1 >= 1: lambda_F is sigma_min(sigma(W_1 X))")
    if cfg.activation.gamma is None:
        raise ValueError("activation must have a gamma slope parameter")
    return cfg.activation.gamma


def init_spectra(cfg: NetworkConfig, params0: ParamSet, trace0: ForwardTrace, y: np.ndarray,
                 lam: float) -> InitSpectra:
    """theta_0's spectra, from its weights and `trace0`, its trace, and its loss
    on targets `y` at weight decay `lam`."""
    gamma = schedule_gamma(cfg)
    L = cfg.depth
    svals = {}
    for l, w in enumerate(params0.weights, 1):
        svals[l] = densemat.svd(w, compute_uv=False, extremes=True).s
    lambda_l = {l: float(s[1]) for l, s in svals.items()}
    lam_min_tail = min(lambda_l[l] for l in range(3, L + 1))
    lambda_f = _s_min(trace0.z[1])
    lambda_3_to_l = math.prod(lambda_l[l] for l in range(3, L + 1))
    c_lambda_init, c0_init = loss(cfg, params0, trace0.z[0], y, lam, trace0)
    return InitSpectra(
        lambda_f, lambda_l, {l: float(s[0]) + lam_min_tail for l, s in svals.items()},
        lambda_3_to_l, 2.0 ** (-(L - 3)) * gamma ** (L - 2) * lambda_f * lambda_3_to_l,
        0.5 * min(lambda_f, lam_min_tail), c_lambda_init, c0_init, params0.norm())


def _ceil_log_ratio(arg: float, rate: float) -> float:
    """ceil(log(arg)/log(1-rate)) clamped at 0; inf when rate underflows."""
    if arg <= 0 or arg >= 1:
        return 0.0
    if rate <= 0:
        return math.inf
    if rate >= 1:
        return 1.0
    return float(math.ceil(math.log(arg) / math.log1p(-rate)))


def thm2_schedule(s0: InitSpectra, cfg: NetworkConfig, inp: Thm1Inputs, b: float,
                  lam: float | None = None, eta: float | None = None) -> dict:
    """The `schedule` block, a new dict: the fields of theta_0's spectra `s0`, then
    Assumption 3, the weight-decay/step-size caps and the two-phase step count
    from `inp` and data bound `b`.

    `lam`/`eta` default to their caps; passing smaller values recomputes the
    step count for the values actually used in a run.
    """
    gamma = cfg.activation.gamma
    beta = cfg.activation.beta if cfg.activation.beta is not None else 1.0
    L = cfg.depth
    eps1, eps2, x_opnorm, n = inp.eps1, inp.eps2, inp.x_opnorm, inp.n
    eps1_premise = eps1 <= _eps1_cap(inp)
    lam_min_tail = min(s0.lambda_l[l] for l in range(3, L + 1))
    assumption3 = (s0.lambda_f * s0.lambda_3_to_l * min(s0.lambda_f, lam_min_tail)
                   >= 8.0 * gamma * math.sqrt((2.0 / gamma) ** L * s0.c0_init))

    lambda_caps = (
        2.0 * (gamma / 2.0) ** (L - 2) * s0.lambda_f * s0.lambda_3_to_l,
        2.0 * s0.c0_init / s0.theta0_norm ** 2 if s0.theta0_norm > 0 else math.inf,
        eps1 ** 2 / (18.0 * (s0.theta0_norm + s0.lambda_f / 2.0) ** 2),
    )
    lambda_cap = min(lambda_caps)
    lam = lambda_cap if lam is None else lam

    m_lambda = ((1.0 + math.sqrt(4.0 * lam / s0.alpha)) ** 2
                * (s0.theta0_norm + s0.r0) ** 2) if s0.alpha > 0 else math.inf
    beta1 = lipschitz_const([max(1.0, s0.bar_lambda_l[l]) for l in range(1, L + 1)], b, n, beta)

    growth = 2.0 * eps1 ** 2 / lam if lam > 0 else math.inf
    eta_caps = (
        1.0 / (2.0 * beta1),
        1.0 / lipschitz_const([math.sqrt(max(1.0, growth))] * L, b, n, beta),
        1.0 / (2.0 * lam) if lam > 0 else math.inf,
        (1.0 / growth) ** (cfg.l1 + L) * eps2 / (4.0 * x_opnorm ** 2)
        if growth > 0 and x_opnorm > 0 else math.inf,
    )
    eta_cap = min(eta_caps)
    eta = eta_cap if eta is None else eta

    lam_m = lam * m_lambda
    if s0.c_lambda_init <= 2.0 * lam_m:
        k1 = 0.0  # first phase complete at initialization
    else:
        k1 = _ceil_log_ratio(lam_m / (s0.c_lambda_init - lam_m), eta * s0.alpha / 8.0)
    k2 = _ceil_log_ratio(lam * eps2 / (4.0 * eps1 ** 2), eta * lam)

    base = eps1 * math.sqrt(2.0 / lam) if lam > 0 else math.inf
    r_of_lambda = max(base, base ** (L - 2) * x_opnorm, base ** (L - 1) * x_opnorm)
    # theta_0's fields, each per-layer dict copied so that no block aliases the record
    return {**vars(s0), "lambda_l": dict(s0.lambda_l), "bar_lambda_l": dict(s0.bar_lambda_l),
            "b": b, "m_lambda": m_lambda, "beta1": beta1, "lambda_cap": lambda_cap,
            "lambda_caps": lambda_caps, "eta_cap": eta_cap, "eta_caps": eta_caps, "lam": lam,
            "eta": eta, "k_floor": k1 + k2, "k_floor_terms": (k1, k2),
            "r_of_lambda": r_of_lambda, "assumption3": assumption3, "eps1_premise": eps1_premise}


def pl_check(cfg: NetworkConfig, x: np.ndarray, y: np.ndarray, trajectory,
             sched: dict, lam: float, eta: float) -> BoundReport:
    """Shifted-PL inequality, geometric decay and the first-phase exit bound,
    checked at recorded steps whose parameters stayed in the ball B(theta0, r0);
    alpha, r0 and m_lambda are read from `sched`, a `thm2_schedule` block.
    It reports no value, so it sets its label from the three checks itself:
    `bound_report` would make it vacuous. `nclab bounds` does not run it.
    """
    rep = BoundReport(name="pl_decay")
    alpha, r0, m_lam = sched["alpha"], sched["r0"], sched["m_lambda"]
    recs = [r for r in trajectory.records if r.params is not None]
    in_ball = [r for r in recs if r.dist_from_init <= r0]
    rep.premises["alpha_positive"] = alpha > 0
    rep.premises["entered_ball"] = bool(in_ball)
    if not in_ball or alpha <= 0:
        return rep
    c_init = recs[0].c_lambda
    lam_m = lam * m_lam
    pl_ok, decay_ok = True, True
    worst = {"pl_margin": math.inf, "decay_margin": math.inf}
    for r in in_ball:
        g = gradient(cfg, r.params, x, y, lam)
        gn2 = sum(float(np.sum(w * w)) for w in g.weights)
        pl_margin = gn2 - (alpha / 4.0) * (r.c_lambda - lam_m)
        worst["pl_margin"] = min(worst["pl_margin"], pl_margin)
        if pl_margin < -1e-12:
            pl_ok = False
        rhs = (c_init - lam_m) * (1.0 - eta * alpha / 8.0) ** r.step
        decay_margin = rhs - (r.c_lambda - lam_m)
        worst["decay_margin"] = min(worst["decay_margin"], decay_margin)
        if decay_margin < -1e-12 * max(1.0, abs(rhs)):
            decay_ok = False
    exit_ok = None
    k1_rec = next((r for r in recs if r.c_lambda <= 2.0 * lam_m), None)
    if k1_rec is not None:
        dist_cap = 8.0 * math.sqrt(c_init / alpha)
        # the radius condition is an assumption of the two-phase argument:
        # when it fails the exit bound is unsupported, not refuted
        rep.premises["radius_covers_first_phase"] = dist_cap <= r0 + 1e-12
        exit_ok = k1_rec.dist_from_init <= dist_cap + 1e-12
        worst["k1"] = k1_rec.step
        worst["k1_dist"] = k1_rec.dist_from_init
        worst["k1_dist_cap"] = dist_cap
    rep.detail = worst
    rep.detail["pl_ok"] = pl_ok
    rep.detail["decay_ok"] = decay_ok
    rep.detail["exit_ok"] = exit_ok
    all_ok = pl_ok and decay_ok and (exit_ok is not False)
    rep.holds = HOLDS if all_ok else VIOLATED
    return rep


def lipschitz_const(radii, b: float, n: int, beta: float) -> float:
    """Gradient Lipschitz constant inside the bounded-weights set."""
    radii = list(radii)
    if any(r < 1.0 for r in radii) or b < 1.0:
        raise ValueError("per-layer radii and the data bound must be >= 1")
    L = len(radii)
    return 5.0 * n * beta * b ** 3 * math.prod(radii) ** 3 * L ** 2.5


def balanced_power_gap(cfg: NetworkConfig, params: ParamSet, r: float,
                       eps2: float, op_norms: dict) -> BoundReport:
    """||(W_L W_L^T)^{L2} - W_{L:L1+1} W_{L:L1+1}^T||_op vs (L2^2/2) eps2 r^{2(L2-1)};
    `op_norms` maps each linear layer l to ||W_l||_op."""
    l2 = cfg.l2
    bounded = all(op_norms[l] <= r * (1 + 1e-12) for l in range(cfg.l1 + 1, cfg.depth + 1))
    w_l = params.weights[-1]
    prod = partial_product(cfg, params, cfg.depth, cfg.l1 + 1)
    return bound_report(
        "balanced_power_gap", {"weights_bounded_by_r": bounded},
        lambda: 0.5 * l2 ** 2 * eps2 * r ** (2 * (l2 - 1)),
        densemat.op_norm(np.linalg.matrix_power(w_l @ w_l.T, l2) - prod @ prod.T))


def _reason(exc: ArithmeticError | ValueError, what: str) -> str:
    """Why `what` has no value: the message of `exc`, an overflow named as one."""
    return f"{what} overflows a float: {exc}" if isinstance(exc, OverflowError) else str(exc)


def bound_report(name: str, premises: dict, rhs, measured: float | None,
                 lower: bool = False) -> BoundReport:
    """Report for the bound value `rhs()` against `measured`, labelled by the
    one rule: vacuous on a failed premise or a missing number (with the reason
    when `rhs` raises or `measured` is None), else holds iff the margin is >= 0.
    A callable premise is decided on the value, and left out without one."""
    rep = BoundReport(name=name, measured=measured)
    try:
        rep.value = rhs()
    except (ValueError, ArithmeticError) as exc:  # e.g. a float power of r overflows
        rep.detail["vacuous_reason"] = _reason(exc, "the bound")
    rep.premises = {key: bool(p(rep.value)) if callable(p) else p
                    for key, p in premises.items() if rep.value is not None or not callable(p)}
    if rep.value is not None and measured is None:
        rep.detail["vacuous_reason"] = "measured value undefined on this state"
    elif rep.value is not None:
        hi, lo = (measured, rep.value) if lower else (rep.value, measured)
        # equal infinities tie instead of giving NaN; a NaN input gives NaN, which fails
        rep.margin = float(hi) - float(lo) if hi != lo else 0.0
        if all(rep.premises.values()):
            rep.holds = HOLDS if rep.margin >= 0 else VIOLATED
    return rep


THM1_LINEAR_BOUNDS = ("thm1_kappa", "thm1_nc2", "thm1_nc3", "balanced_power_gap")


def _cond_or_none(a: np.ndarray, rank_tol: float) -> float | None:
    try:
        return densemat.cond(a, rank_tol)
    except ValueError:
        return None


@dataclass
class RunContext:
    """What every state of one run shares; a state's rank threshold is its report's."""
    ds: Dataset
    x_opnorm: float
    spectra: InitSpectra | dict  # theta_0's, or {"error": why}


def _schedule_or_error(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:  # e.g. a zero theta_0's lambda cap
        return {"error": _reason(exc, "the GD schedule")}


def run_context(cfg: NetworkConfig, ds: Dataset, lam: float,
                params0: ParamSet | None) -> RunContext:
    """The context of a run of `cfg` on `ds` with weight decay `lam` from `params0`
    (None if the run did not store it); theta_0's one trace is dropped here."""
    def spectra():
        if params0 is None:
            raise ValueError("no params_init.npz: the run did not store its parameters")
        schedule_gamma(cfg)  # refuses an uncovered net before theta_0 is traced
        return init_spectra(cfg, params0, forward(cfg, params0, ds.x), ds.y, lam)

    return RunContext(ds, densemat.op_norm(ds.x), _schedule_or_error(spectra))


def verdict_layers(cfg: NetworkConfig) -> tuple:
    """(first_layer, last_layer) of the `metrics.measure` sweep whose report
    `state_verdicts` reads: Z_{L-1} alone, on every net."""
    return cfg.depth - 1, cfg.depth - 1


def state_verdicts(ctx: RunContext, cfg: NetworkConfig, params: ParamSet,
                   trace: ForwardTrace, rep) -> tuple:
    """(blocks, inp): the `measured`, `reports` and `schedule` blocks of a state of
    `ctx`'s run, from its trace and `metrics.measure` report `rep` (over at least
    `verdict_layers(cfg)`; `measured` takes eps1, eps2 and r from it), and the
    `Thm1Inputs` every bound read. Every cond and pinv is at rep's `rank_tol`; one
    svd of W_L gives cond(W_L) and `residual_to_pinv`. `thm1_nc1` needs L2 >= 1 and
    the bounds on the linear head L2 >= 2. A quantity that cannot be computed makes
    its reports vacuous, with the reason."""
    ds, rank_tol = ctx.ds, rep.rank_tol
    w_l = densemat.svd(params.weights[-1])
    kappa_wl = _cond_or_none(w_l, rank_tol)
    kappa_prod = kappa_wl if cfg.l2 == 1 else None  # W_{L:L} = W_L
    if cfg.l2 >= 2:
        kappa_prod = _cond_or_none(partial_product(cfg, params, cfg.depth, cfg.l1 + 1), rank_tol)
    inp = Thm1Inputs(eps1=rep.eps1, eps2=rep.eps2, r=rep.r, n_lminus1=cfg.widths[-2],
                     k=cfg.n_classes, n=ds.x.shape[1], sK_y=ds.idx.sK_y, x_opnorm=ctx.x_opnorm,
                     l1=cfg.l1, l2=cfg.l2, c3=kappa_prod, kappa_wl=kappa_wl)
    head = next(lm for lm in rep.layers if lm.layer == cfg.depth - 1)
    premises = {"eps1_small": bool(inp.eps1 <= min(inp.sK_y, _eps1_cap(inp)))}
    reports = {"thm1_nc1": bound_report(  # Theorem 1 ends the net in linear layers
        "thm1_nc1", {**premises, "linear_last_layer": cfg.l2 >= 1},
        lambda: thm1_nc1_rhs(inp), head.nc1)}
    if cfg.l2 < 2:
        reports.update((name, BoundReport(name=name, premises={"has_linear_interface": False}))
                       for name in THM1_LINEAR_BOUNDS)
    else:
        reports["thm1_kappa"] = bound_report(
            "thm1_kappa", premises, lambda: thm1_kappa_rhs(inp), kappa_wl)
        reports["thm1_nc2"] = bound_report(
            "thm1_nc2", premises, lambda: thm1_nc2_rhs(inp), head.nc2)
        reports["thm1_nc3"] = bound_report(  # a cosine is >= -1: a lower RHS says nothing
            "thm1_nc3", {**premises, "nontrivial": lambda v: v >= -1.0},
            lambda: thm1_nc3_rhs(inp), head.nc3, lower=True)
        gap = balanced_power_gap(cfg, params, inp.r, inp.eps2, rep.op_norms)
        if kappa_wl is not None:
            gap.detail["kappa_w_l"] = kappa_wl
        if kappa_prod is not None:
            gap.detail["kappa_prod_root"] = kappa_prod ** (1.0 / cfg.l2)
        reports["balanced_power_gap"] = gap

    measured = {"eps1": rep.eps1, "eps2": rep.eps2, "r": rep.r, "sK_y": inp.sK_y, "nc1": head.nc1,
                "x_opnorm": inp.x_opnorm, "kappa_w_l": kappa_wl, "kappa_prod": kappa_prod}
    with contextlib.suppress(VacuousBound, ValueError):
        measured["residual_to_pinv"] = residual_to_pinv(
            trace.z[cfg.depth - 1], w_l, ds.y, rank_tol)

    s0 = ctx.spectra
    floored = replace(inp, eps1=max(inp.eps1, 1e-6), eps2=max(inp.eps2, 1e-8))
    schedule = s0 if isinstance(s0, dict) else _schedule_or_error(
        lambda: thm2_schedule(s0, cfg, floored, ds.b))
    return {"measured": measured, "reports": reports, "schedule": schedule}, inp


# ---------------------------------------------------------------------------
# Conditioning under large learning rates, NTK floor
# ---------------------------------------------------------------------------

def ntk_lower_bound(inp: Thm1Inputs) -> float:
    """(s_K(Y) - eps1)^2 L2 / (K^2 r^2), the floor on the top NTK eigenvalue."""
    return _sk_margin(inp) ** 2 * inp.l2 / (inp.k ** 2 * inp.r ** 2)


def ntk_verdict(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
                state: dict, inp: Thm1Inputs) -> tuple:
    """`ntk` block ({"error": why} if not finite) and `ntk_lower` report, on `thm1_nc1`'s
    premises, of a state with trace `trace` and `state_verdicts` output (state, inp)."""
    try:
        nrep = ntk.ntk_opnorm(cfg, params, trace)
        block, rho = {"theta_opnorm": nrep.rho, "iterations": nrep.iterations,
                      "residual": nrep.residual, "converged": nrep.converged}, nrep.rho
    except FloatingPointError as exc:  # a non-finite NTK
        block, rho = {"error": str(exc)}, None
    return block, bound_report("ntk_lower", state["reports"]["thm1_nc1"].premises,
                               lambda: ntk_lower_bound(inp), rho, lower=True)


def large_lr_kappa_bound(inp: Thm1Inputs, c_ntk: float, m: int) -> float:
    """Cap that some partial product in the first M linear layers must meet."""
    if m > inp.l2:
        raise ValueError("M must not exceed the number of linear layers")
    return math.sqrt(c_ntk * inp.l2) * inp.k * inp.r / (math.sqrt(m) * _sk_margin(inp))


def scan_partial_product_kappa(cfg: NetworkConfig, params: ParamSet, m: int,
                               bound: float) -> BoundReport:
    """Find a layer l in {L1+1..L1+M} with cond(W_{L:l}) within the cap."""
    kappas = {l: densemat.cond(partial_product(cfg, params, cfg.depth, l))
              for l in range(cfg.l1 + 1, cfg.l1 + m + 1)}
    best_l = min(kappas, key=kappas.get)
    rep = bound_report("large_lr_kappa_scan", {"scanned": True}, lambda: bound, kappas[best_l])
    rep.detail.update(kappas=kappas, layer=best_l)
    return rep
