"""Evaluators and checkers for the quantitative guarantees: the collapse bounds
driven by interpolation error, balancedness and boundedness; the GD schedule
caps; the shifted-PL descent inequalities; the balanced-power and gradient
Lipschitz lemmas; and the conditioning / NTK bounds.

Every evaluator is a pure function of its numeric inputs. A failed premise or
non-positive denominator makes a bound *vacuous*, never silently clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import densemat
from .network import NetworkConfig, ParamSet, act_apply, gradient, partial_product

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
    premises: dict = field(default_factory=dict)
    holds: str = VACUOUS
    detail: dict = field(default_factory=dict)

    def resolve(self, lower_bound: bool = False) -> "BoundReport":
        """Set holds/violated/vacuous from premises and the comparison."""
        if not all(self.premises.values()) or self.value is None or self.measured is None:
            self.holds = VACUOUS
            return self
        ok = self.measured >= self.value if lower_bound else self.measured <= self.value
        self.holds = HOLDS if ok else VIOLATED
        return self


@dataclass(frozen=True)
class Thm1Inputs:
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

    def eps1_premise(self) -> bool:
        return bool(self.eps1 <= min(self.sK_y, math.sqrt((self.k - 1) * self.n / (4 * self.k))))


def psi(inp: Thm1Inputs) -> float:
    """r * (eps1/(sK(Y)-eps1) + sqrt(n_{L-1} * eps2))."""
    if inp.eps1 >= inp.sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    return inp.r * (inp.eps1 / (inp.sK_y - inp.eps1)
                    + math.sqrt(inp.n_lminus1 * inp.eps2))


def thm1_nc1_rhs(inp: Thm1Inputs) -> float:
    """Upper bound on the within-class variability of Z_{L-1}."""
    den = math.sqrt((inp.k - 1) / inp.k) - 2.0 * inp.eps1 / math.sqrt(inp.n)
    if den <= 0:
        raise VacuousBound("interpolation error too large for the NC1 bound")
    p = psi(inp)
    return (inp.r ** 2 / inp.n) * p * p / (den * den)


def thm2_nc1_rhs(eps1: float, eps2: float, r: float, n_lminus1: int, k: int,
                 n: int, sK_y: float) -> float:
    """NC1 cap after the GD schedule; uses Psi(eps1*sqrt(2), ...) unsquared."""
    den = math.sqrt((k - 1) / k) - 2.0 * math.sqrt(2.0) * eps1 / math.sqrt(n)
    if den <= 0:
        raise VacuousBound("interpolation error too large for the NC1 bound")
    e1 = eps1 * math.sqrt(2.0)
    if e1 >= sK_y:
        raise VacuousBound("eps1*sqrt(2) >= s_K(Y)")
    p = r * (e1 / (sK_y - e1) + math.sqrt(n_lminus1 * eps2))
    return (r ** 2 / n) * p / (den * den)


def thm1_kappa_rhs(inp: Thm1Inputs, proof_exponent: bool = False) -> float:
    """Upper bound on cond(W_L) given cond(W_{L:L1+1}) <= c3.

    `proof_exponent` uses the slightly tighter (1+eps)^{1/(2 L2)} factor from
    the derivation instead of the stated (1+eps)^{1/L2}.
    """
    if inp.c3 is None:
        raise ValueError("c3 (bound on the linear-part conditioning) is required")
    if inp.eps1 >= inp.sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    perturb = 0.5 * inp.l2 ** 2 * inp.r ** (2 * (inp.l2 - 1)) * inp.eps2
    base = (inp.sK_y - inp.eps1) ** 2 / (inp.x_opnorm ** 2 * inp.r ** (2 * inp.l1))
    den = base - perturb
    if den <= 0:
        raise VacuousBound("balancedness perturbation dominates the spectral floor")
    eps = perturb / den
    expo = 1.0 / (2 * inp.l2) if proof_exponent else 1.0 / inp.l2
    return inp.c3 ** (1.0 / inp.l2) * (1.0 + eps) ** expo + inp.c3 ** (1.0 / inp.l2 - 1.0) * eps


def thm1_nc2_rhs(inp: Thm1Inputs, kappa_wl: float) -> float:
    """Upper bound on cond(class means of Z_{L-1})."""
    q = inp.r * psi(inp) / inp.sK_y
    if 1.0 - q <= 0:
        raise VacuousBound("residual term reaches 1 in the NC2 bound")
    return (kappa_wl + q) / (1.0 - q)


def thm1_nc3_rhs(inp: Thm1Inputs, kappa_wl: float) -> float:
    """Lower bound on the feature/weight alignment; may be vacuous-weak (< -1)."""
    p = psi(inp)
    num = ((math.sqrt(inp.n) - inp.eps1) ** 2
           + inp.n / kappa_wl ** 2
           - (inp.r * p + math.sqrt(inp.k) * (kappa_wl ** 2 - 1.0)) ** 2)
    return num / (2.0 * inp.n * kappa_wl * (1.0 + inp.eps1))


def residual_to_pinv(z_lminus1: np.ndarray, w_l: np.ndarray, y: np.ndarray,
                     rank_tol: float = densemat.DEFAULT_RANK_TOL) -> float:
    """||Z_{L-1} - pinv(W_L) Y||_F; needs W_L of full row rank."""
    w_l = densemat.as_matrix(w_l)
    s = densemat.svd(w_l).s
    if s[min(w_l.shape) - 1] <= rank_tol * s[0] or w_l.shape[0] > w_l.shape[1]:
        raise VacuousBound("W_L is rank-deficient")
    return densemat.fro_norm(np.asarray(z_lminus1) - densemat.pinv(w_l, rank_tol) @ np.asarray(y))


# ---------------------------------------------------------------------------
# GD schedule (initial spectra, assumption check, caps, two-phase step count)
# ---------------------------------------------------------------------------

@dataclass
class Thm2Schedule:
    lambda_f: float = 0.0
    lambda_l: dict = field(default_factory=dict)       # layer -> s_min(W_l^0)
    bar_lambda_l: dict = field(default_factory=dict)   # layer -> ||W_l^0||_op + min_{3..L} lambda
    lambda_3_to_l: float = 0.0
    alpha: float = 0.0
    r0: float = 0.0
    b: float = 1.0
    m_lambda: float | None = None
    beta1: float | None = None
    lambda_cap: float | None = None
    lambda_caps: tuple | None = None
    eta_cap: float | None = None
    eta_caps: tuple | None = None
    lam: float | None = None
    eta: float | None = None
    k_floor: float | None = None
    k_floor_terms: tuple | None = None
    r_of_lambda: float | None = None
    c0_init: float | None = None
    c_lambda_init: float | None = None
    theta0_norm: float | None = None
    assumption3: bool | None = None
    eps1_premise: bool | None = None


def _s_min(a: np.ndarray) -> float:
    s = densemat.svd(a).s
    return float(s[min(a.shape) - 1])


def init_spectra(cfg: NetworkConfig, params0: ParamSet, x: np.ndarray) -> Thm2Schedule:
    """Singular-value bookkeeping of the weights (and first post-activation)
    at initialization, with the local PL constant and ball radius."""
    if cfg.depth < 3:
        raise ValueError("the GD schedule machinery needs depth >= 3")
    gamma = cfg.activation.gamma
    if gamma is None:
        raise ValueError("activation must have a gamma slope parameter")
    sched = Thm2Schedule()
    for layer in range(1, cfg.depth + 1):
        sched.lambda_l[layer] = _s_min(params0.weights[layer - 1])
    lam_min_tail = min(sched.lambda_l[l] for l in range(3, cfg.depth + 1))
    for layer in range(1, cfg.depth + 1):
        sched.bar_lambda_l[layer] = (densemat.op_norm(params0.weights[layer - 1])
                                     + lam_min_tail)
    sched.lambda_f = _s_min(act_apply(cfg.activation, params0.weights[0] @ x))
    sched.lambda_3_to_l = math.prod(sched.lambda_l[l] for l in range(3, cfg.depth + 1))
    L = cfg.depth
    sched.alpha = 2.0 ** (-(L - 3)) * gamma ** (L - 2) * sched.lambda_f * sched.lambda_3_to_l
    sched.r0 = 0.5 * min(sched.lambda_f, lam_min_tail)
    return sched


def check_assumption3(sched: Thm2Schedule, c0_init: float, gamma: float, depth: int) -> bool:
    lam_min_tail = min(sched.lambda_l[l] for l in range(3, depth + 1))
    lhs = sched.lambda_f * sched.lambda_3_to_l * min(sched.lambda_f, lam_min_tail)
    rhs = 8.0 * gamma * math.sqrt((2.0 / gamma) ** depth * c0_init)
    return lhs >= rhs


def _ceil_log_ratio(arg: float, rate: float) -> float:
    """ceil(log(arg)/log(1-rate)) clamped at 0; inf when rate underflows."""
    if arg <= 0 or arg >= 1:
        return 0.0
    if rate <= 0:
        return math.inf
    if rate >= 1:
        return 1.0
    return float(math.ceil(math.log(arg) / math.log1p(-rate)))


def thm2_schedule(sched: Thm2Schedule, cfg: NetworkConfig, eps1: float, eps2: float,
                  b: float, x_opnorm: float, theta0_norm: float, c0_init: float,
                  c_lambda_init: float, k: int, n: int,
                  lam: float | None = None, eta: float | None = None) -> Thm2Schedule:
    """Fill in the weight-decay/step-size caps and the two-phase step count.

    `lam`/`eta` default to their caps; passing smaller values recomputes the
    step count for the values actually used in a run.
    """
    gamma = cfg.activation.gamma
    beta = cfg.activation.beta if cfg.activation.beta is not None else 1.0
    L, l1 = cfg.depth, cfg.l1
    sched.b = b
    sched.c0_init = c0_init
    sched.c_lambda_init = c_lambda_init
    sched.theta0_norm = theta0_norm
    sched.eps1_premise = eps1 <= 0.5 * math.sqrt((k - 1) * n / k)
    sched.assumption3 = check_assumption3(sched, c0_init, gamma, L)

    lambda_caps = (
        2.0 * (gamma / 2.0) ** (L - 2) * sched.lambda_f * sched.lambda_3_to_l,
        2.0 * c0_init / theta0_norm ** 2 if theta0_norm > 0 else math.inf,
        eps1 ** 2 / (18.0 * (theta0_norm + sched.lambda_f / 2.0) ** 2),
    )
    sched.lambda_caps = lambda_caps
    sched.lambda_cap = min(lambda_caps)
    sched.lam = sched.lambda_cap if lam is None else lam
    lam_used = sched.lam

    sched.m_lambda = ((1.0 + math.sqrt(4.0 * lam_used / sched.alpha)) ** 2
                      * (theta0_norm + sched.r0) ** 2) if sched.alpha > 0 else math.inf
    prod_bar = math.prod(max(1.0, sched.bar_lambda_l[l]) for l in range(1, L + 1))
    sched.beta1 = 5.0 * n * beta * b ** 3 * prod_bar ** 3 * L ** 2.5

    growth = 2.0 * eps1 ** 2 / lam_used if lam_used > 0 else math.inf
    eta_caps = (
        1.0 / (2.0 * sched.beta1),
        1.0 / (5.0 * n * beta * b ** 3 * max(1.0, growth) ** (1.5 * L) * L ** 2.5),
        1.0 / (2.0 * lam_used) if lam_used > 0 else math.inf,
        (1.0 / growth) ** (l1 + L) * eps2 / (4.0 * x_opnorm ** 2)
        if growth > 0 and x_opnorm > 0 else math.inf,
    )
    sched.eta_caps = eta_caps
    sched.eta_cap = min(eta_caps)
    sched.eta = sched.eta_cap if eta is None else eta
    eta_used = sched.eta

    lam_m = lam_used * sched.m_lambda
    if c_lambda_init <= 2.0 * lam_m:
        k1 = 0.0  # first phase complete at initialization
    else:
        k1 = _ceil_log_ratio(lam_m / (c_lambda_init - lam_m), eta_used * sched.alpha / 8.0)
    k2 = _ceil_log_ratio(lam_used * eps2 / (4.0 * eps1 ** 2), eta_used * lam_used)
    sched.k_floor_terms = (k1, k2)
    sched.k_floor = k1 + k2

    base = eps1 * math.sqrt(2.0 / lam_used) if lam_used > 0 else math.inf
    sched.r_of_lambda = max(base, base ** (L - 2) * x_opnorm, base ** (L - 1) * x_opnorm)
    return sched


def pl_check(cfg: NetworkConfig, x: np.ndarray, y: np.ndarray, trajectory,
             sched: Thm2Schedule, lam: float, eta: float) -> BoundReport:
    """Shifted-PL inequality, geometric decay and the first-phase exit bound,
    checked at recorded steps whose parameters stayed in the ball B(theta0, r0).
    """
    rep = BoundReport(name="pl_decay")
    alpha, r0, m_lam = sched.alpha, sched.r0, sched.m_lambda
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
                       eps2: float) -> BoundReport:
    """||(W_L W_L^T)^{L2} - W_{L:L1+1} W_{L:L1+1}^T||_op vs (L2^2/2) eps2 r^{2(L2-1)}."""
    rep = BoundReport(name="balanced_power_gap")
    l2 = cfg.l2
    norms = [densemat.op_norm(params.weights[l - 1])
             for l in range(cfg.l1 + 1, cfg.depth + 1)]
    rep.premises["weights_bounded_by_r"] = all(nv <= r * (1 + 1e-12) for nv in norms)
    w_l = params.weights[-1]
    prod = partial_product(cfg, params, cfg.depth, cfg.l1 + 1)
    lhs = densemat.op_norm(np.linalg.matrix_power(w_l @ w_l.T, l2) - prod @ prod.T)
    rep.measured = lhs
    rep.value = 0.5 * l2 ** 2 * eps2 * r ** (2 * (l2 - 1))
    try:
        rep.detail["kappa_w_l"] = densemat.cond(w_l)
        rep.detail["kappa_prod_root"] = densemat.cond(prod) ** (1.0 / l2)
    except ValueError:
        pass
    return rep.resolve()


# ---------------------------------------------------------------------------
# Conditioning at near-optimality / under large learning rates
# ---------------------------------------------------------------------------

def prop2_kappa_bound(eps1: float, c: float, l1: int, k: int, sK_y: float,
                      x_opnorm: float) -> float:
    """Conditioning cap on the linear part from interpolation + bounded norm."""
    if eps1 >= sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    return math.exp(0.5 * (c + l1 * k * math.log(k)
                           - 2.0 * k * math.log((sK_y - eps1) / x_opnorm)))


def global_min_kappa_bound(eps1: float, c: float, l1: int, k: int, sK_y: float,
                           x_opnorm: float) -> tuple:
    """(bound on cond(W_{L:L1+1}), bound on cond(W_L)) at a global minimizer."""
    if eps1 >= sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    kappa_prod = ((x_opnorm / (sK_y - eps1)) ** k
                  * math.exp(0.5 * (c - l1 * k + l1 * k * math.log(k))))
    return kappa_prod, kappa_prod ** (1.0 / l1)


def ntk_lower_bound(sK_y: float, eps1: float, k: int, r: float, l2: int) -> float:
    if eps1 >= sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    return (sK_y - eps1) ** 2 * l2 / (k ** 2 * r ** 2)


def large_lr_kappa_bound(c_ntk: float, l2: int, m: int, k: int, r: float,
                         sK_y: float, eps1: float) -> float:
    """Cap that some partial product in the first M linear layers must meet."""
    if m > l2:
        raise ValueError("M must not exceed the number of linear layers")
    if eps1 >= sK_y:
        raise VacuousBound("eps1 >= s_K(Y)")
    return math.sqrt(c_ntk * l2) * k * r / (math.sqrt(m) * (sK_y - eps1))


def scan_partial_product_kappa(cfg: NetworkConfig, params: ParamSet, m: int,
                               bound: float) -> BoundReport:
    """Find a layer l in {L1+1..L1+M} with cond(W_{L:l}) within the cap."""
    rep = BoundReport(name="large_lr_kappa_scan", value=bound)
    kappas = {}
    for l in range(cfg.l1 + 1, cfg.l1 + m + 1):
        kappas[l] = densemat.cond(partial_product(cfg, params, cfg.depth, l))
    rep.detail["kappas"] = kappas
    best_l = min(kappas, key=kappas.get)
    rep.measured = kappas[best_l]
    rep.detail["layer"] = best_l
    rep.premises["scanned"] = True
    return rep.resolve()
