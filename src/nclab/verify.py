"""Self-contained verification suites: random-instance constructions for the
collapse bounds, exactly/approximately balanced chains for the power lemma,
and the module-level property checks behind `nclab verify`.

Each check prints one pass/fail row; failures dump the inputs (always a seed)
needed to replay them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import bounds, data, densemat, metrics, ntk, trainer
from .network import (ACTIVATION_GRID, ActivationSpec, NetworkConfig, ParamSet, act_grad,
                      check_activation_bounds, forward, gradient, loss)

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


# ---------------------------------------------------------------------------
# constructed instances for the Theorem 1 / Lemma C.2 suites
# ---------------------------------------------------------------------------

def balanced_factors(seed: int, dims: list) -> tuple:
    """Factors (frames, root) of a chain with a target spectrum s drawn in
    [0.5, 2]: frames F_0..F_L have orthonormal columns (F_l is
    n_l x rank, rank = min(n_0, n_L)) and root = s^(1/L).

    dims = [n_0, n_1, ..., n_L]; every interior width must be >= min(n_0, n_L)
    so the shared singular spectrum fits.
    """
    rng = np.random.default_rng(seed)
    rank = min(dims[0], dims[-1])
    if any(d < rank for d in dims):
        raise ValueError("interior widths must carry the full spectrum")
    s = np.sort(rng.uniform(0.5, 2.0, size=rank))[::-1]

    def frame(n):
        g = rng.standard_normal((n, rank))
        q, _ = np.linalg.qr(g)
        return q[:, :rank]

    return [frame(d) for d in dims], s ** (1.0 / (len(dims) - 1))


def balanced_chain(frames: list, root: np.ndarray) -> list:
    """W_1..W_L (forward order) with W_l = F_l diag(root) F_{l-1}^T: every
    interface is exactly balanced and W_L..W_1 = F_L diag(root^L) F_0^T."""
    return [frames[layer + 1] * root @ frames[layer].T for layer in range(len(frames) - 1)]

def make_thm1_instance(seed: int, eps1_scale: float = 1e-3,
                       eps2_scale: float = 1e-8) -> dict:
    """A premise-satisfying linear-head state: collapsed features plus noise of
    interpolation size ~eps1, balanced head perturbed at one interface by
    ~eps2. Returns everything the bound checkers need."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    l2 = int(rng.integers(2, 4))
    n_per = int(rng.integers(2, 5))
    width = k + int(rng.integers(0, 4))
    dims = [width] + [width] * (l2 - 1) + [k]

    labels = np.repeat(np.arange(k), n_per)
    y = data.one_hot(labels, k)
    frames, root = balanced_factors(seed + 1, dims)
    weights = balanced_chain(frames, root)
    cfg = NetworkConfig(input_dim=width, widths=tuple(dims[1:]), l1=0, l2=l2,
                        activation=SMOOTH)
    # collapsed head-input features interpolating exactly, then bounded noise:
    # x0 = pinv(W_L..W_1) y = F_0 diag(root^-L) F_L^T y
    x0 = (frames[0] * root ** -l2) @ (frames[-1].T @ y)
    prod = weights[-1]
    for w in weights[-2::-1]:
        prod = prod @ w
    noise = rng.standard_normal(x0.shape)
    noise *= eps1_scale / max(densemat.fro_norm(prod @ noise), 1e-300)
    x = x0 + noise
    # perturb one interface so eps2 is small but nonzero
    if l2 >= 2:
        j = int(rng.integers(0, l2 - 1))
        pert = rng.standard_normal(weights[j].shape)
        weights[j] = weights[j] + eps2_scale * pert / max(np.linalg.norm(pert), 1e-300)
    return {"cfg": cfg, "params": ParamSet(weights), "ds": data.make_dataset(x, labels, k),
            "seed": seed}


def check_thm1_instance(inst: dict) -> tuple:
    """Evaluate the Theorem-1 reports of a constructed instance on the path
    of `nclab bounds`: `bounds.run_context` without theta_0, `metrics.measure`
    of Z_{L-1} alone, then `bounds.state_verdicts`.

    Returns (ok, detail); every report must hold, except a vacuous-weak
    alignment bound (its `nontrivial` premise fails), which is skipped.
    """
    cfg, params, ds = inst["cfg"], inst["params"], inst["ds"]
    ctx = bounds.run_context(cfg, ds, 0.0, None)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx, *bounds.verdict_layers(cfg))
    reports = bounds.state_verdicts(ctx, cfg, params, trace, rep)[0]["reports"]
    detail = {"seed": inst["seed"], "eps1": rep.eps1, "eps2": rep.eps2, "r": rep.r}
    for name, r in reports.items():
        detail[name] = (r.measured, r.value)
        if r.holds != bounds.HOLDS and r.premises.get("nontrivial", True):
            return False, {**detail, "failed": name, "holds": r.holds,
                           "premises": r.premises, **r.detail}
    return True, detail


def thm1_suite(n_instances: int = 200) -> tuple:
    for i in range(n_instances):
        ok, detail = check_thm1_instance(make_thm1_instance(i))
        if not ok:
            return False, detail
    return True, {"instances": n_instances}


def lemma_c2_suite(n_instances: int = 100) -> tuple:
    """Exactly balanced chains give a zero power gap (<= 1e-10); eps2-perturbed chains
    stay under the (L2^2/2) eps2 r^{2(L2-1)} cap. Instance i has seed 1000 + i."""
    rng = np.random.default_rng(1000)
    for i in range(n_instances):
        seed = 1000 + i
        l2 = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        width = k + int(rng.integers(0, 4))
        dims = [width] * l2 + [k]
        weights = balanced_chain(*balanced_factors(seed, dims))
        cfg = NetworkConfig(input_dim=width, widths=tuple(dims[1:]), l1=0,
                            l2=l2, activation=SMOOTH)
        params = ParamSet([w.copy() for w in weights])
        norms = {l: densemat.op_norm(w) for l, w in enumerate(weights, start=1)}
        rep = bounds.balanced_power_gap(cfg, params, max(norms.values()), 0.0, norms)
        if rep.measured is None or rep.measured > 1e-10:
            return False, {"seed": seed, "exact_gap": rep.measured}
        eps2_scale = 10.0 ** rng.uniform(-8, -2)
        j = int(rng.integers(0, l2 - 1))
        pert = rng.standard_normal(weights[j].shape)
        weights[j] = weights[j] + eps2_scale * pert / np.linalg.norm(pert)
        norms[j + 1] = densemat.op_norm(weights[j])
        params = ParamSet(weights)
        eps2 = max(metrics.balancedness_gap(params.weights[l], params.weights[l - 1])
                   for l in range(1, cfg.depth))
        r = max(max(norms.values()), 1.0)
        rep = bounds.balanced_power_gap(cfg, params, r, eps2, norms)
        if rep.holds != bounds.HOLDS:
            return False, {"seed": seed, "gap": rep.measured, "cap": rep.value}
    return True, {"instances": n_instances}


# ---------------------------------------------------------------------------
# module property checks
# ---------------------------------------------------------------------------

def _random_net(rng) -> tuple:
    l1 = int(rng.integers(0, 3))
    l2 = int(rng.integers(1, 3))
    d = int(rng.integers(2, 6))
    widths = tuple(int(rng.integers(2, 7)) for _ in range(l1 + l2))
    cfg = NetworkConfig(input_dim=d, widths=widths, l1=l1, l2=l2,
                        activation=SMOOTH)
    weights = [rng.standard_normal(cfg.layer_shape(layer)) / 2
               for layer in range(1, cfg.depth + 1)]
    n = int(rng.integers(2, 7))
    x = rng.standard_normal((d, n))
    y = data.one_hot(rng.integers(0, widths[-1], size=n), widths[-1])
    return cfg, ParamSet(weights), x, y


def fd_gradient(cfg, params, x, y, lam, h=1e-5) -> ParamSet:
    out = []
    for li, w in enumerate(params.weights):
        g = np.zeros_like(w)
        for flat in range(w.size):
            for sgn in (1.0, -1.0):
                p = params.copy()
                p.weights[li].flat[flat] += sgn * h
                c, _ = loss(cfg, p, x, y, lam)
                g.flat[flat] += sgn * c
        out.append(g / (2 * h))
    return ParamSet(out)


def check_svd_reconstruction() -> tuple:
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(30):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
        res = densemat.svd(a)
        err = densemat.fro_norm(a - res.reconstruct()) / max(1.0, densemat.fro_norm(a))
        worst = max(worst, err)
        if err > 1e-10:
            return False, {"seed": 0, "trial": i, "shape": (m, n), "err": err}
    return True, {"worst": worst}


def check_pinv_identities() -> tuple:
    rng = np.random.default_rng(1)
    for i in range(20):
        m, n = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        a = rng.standard_normal((m, n))
        p = densemat.pinv(a)
        checks = [densemat.fro_norm(a @ p @ a - a),
                  densemat.fro_norm(p @ a @ p - p),
                  densemat.fro_norm((a @ p).T - a @ p),
                  densemat.fro_norm((p @ a).T - p @ a)]
        if max(checks) > 1e-8 * max(1.0, densemat.fro_norm(a)):
            return False, {"seed": 1, "trial": i, "residuals": checks}
    return True, {}

def check_gradient_fd() -> tuple:
    """Finite differences against the gradient training applies: a
    one-member Workspace's gradient buffer after a step with eta = 1 (exact)."""
    rng = np.random.default_rng(2)
    for i in range(10):
        cfg, params, x, y = _random_net(rng)
        lam = float(rng.uniform(0, 0.1))
        ws = trainer.Workspace([cfg], x, y, [params])
        failed = trainer.gd_step(ws, 1.0, lam)
        fd = fd_gradient(cfg, params, x, y, lam)
        num = ws.member(0, ws.grads).dist(fd)
        den = max(fd.norm(), 1e-12)
        if failed or num / den > 1e-6:
            return False, {"seed": 2, "trial": i, "rel_err": num / den,
                           "widths": cfg.widths, "l1": cfg.l1, "failed": failed}
    return True, {}


def check_activation() -> tuple:
    """The derivative's range and Lipschitz cap and |sigma(x)| <= |x|, and the
    derivative against gamma + (1 - gamma) Phi(x / s) from the standard
    library's erfc, Phi(u) = erfc(-u / sqrt 2) / 2, on the same grid."""
    xs = np.linspace(*ACTIVATION_GRID)
    for gamma, beta in ((0.1, 1.0), (0.3, 2.0), (0.5, 5.0)):
        spec = ActivationSpec("smoothed_leaky_relu", gamma=gamma, beta=beta)
        rep = check_activation_bounds(spec)
        scale = -1.0 / (spec.kernel_sd * math.sqrt(2.0))
        rep["cdf_max_abs_err"] = max(
            abs(d - gamma - (1.0 - gamma) * 0.5 * math.erfc(x * scale))
            for x, d in zip(xs.tolist(), act_grad(spec, xs).tolist()))
        if not (rep["deriv_in_range"] and rep["abs_bound_ok"]
                and rep.get("deriv_lipschitz_ok", True) and rep["cdf_max_abs_err"] <= 1e-15):
            return False, {"gamma": gamma, "beta": beta, **rep}
    return True, {}


def check_pullback_is_gradient() -> tuple:
    rng = np.random.default_rng(4)
    for i in range(8):
        cfg, params, x, y = _random_net(rng)
        trace = forward(cfg, params, x)
        a = trace.z[-1] - y
        g = gradient(cfg, params, x, y, 0.0)
        pb = ntk.pullback(cfg, params, trace, a)
        if g.dist(pb) > 1e-10 * max(1.0, g.norm()):
            return False, {"seed": 4, "trial": i}
    return True, {}


def check_ntk_rayleigh() -> tuple:
    rng = np.random.default_rng(5)
    for i in range(6):
        cfg, params, x, _ = _random_net(rng)
        trace = forward(cfg, params, x)
        rep = ntk.ntk_opnorm(cfg, params, trace, seed=5 + i)
        for j in range(4):
            a = rng.standard_normal(trace.z[-1].shape)
            q = ntk.ntk_quadratic_form(cfg, params, trace, a)
            if q > rep.rho * float(np.sum(a * a)) * (1.0 + 1e-6):
                return False, {"seed": 5, "trial": i, "probe": j,
                               "quadratic_form": q, "rho": rep.rho}
    return True, {}


def check_one_hot_identities() -> tuple:
    for k in (2, 4, 10):
        n_per = 6
        y = data.one_hot(np.repeat(np.arange(k), n_per), k)
        idx = metrics.ClassIndex(tuple([n_per] * k))
        sK = densemat.svd(y, compute_uv=False, extremes=True).s[1]
        if abs(sK - idx.sK_y) > 1e-12:
            return False, {"k": k, "sK": sK}
        zbar, mu_g = metrics.class_means(y, idx)
        dev = np.mean(np.linalg.norm(zbar - mu_g[:, None], axis=0))
        if abs(dev - math.sqrt((k - 1) / k)) > 1e-12:
            return False, {"k": k, "mean_dev": dev}
    return True, {}


def check_dense_ntk_agreement() -> tuple:
    rng = np.random.default_rng(6)
    cfg = NetworkConfig(input_dim=3, widths=(4, 2), l1=1, l2=1,
                        activation=SMOOTH)
    params = ParamSet([rng.standard_normal(cfg.layer_shape(layer)) for layer in range(1, 3)])
    trace = forward(cfg, params, rng.standard_normal((3, 5)))
    dense = ntk.dense_ntk(cfg, params, trace)
    top = densemat.op_norm(dense)
    rep = ntk.ntk_opnorm(cfg, params, trace, seed=6)
    rel = abs(rep.rho - top) / max(top, 1e-300)
    if rel > 1e-6:
        return False, {"seed": 6, "lanczos": rep.rho, "dense": top, "rel": rel}
    return True, {"rel": rel}


FAST_CHECKS = [
    ("svd reconstruction", check_svd_reconstruction),
    ("pinv Moore-Penrose identities", check_pinv_identities),
    ("gradient vs finite differences", check_gradient_fd),
    ("activation derivative/Lipschitz bounds", check_activation),
    ("pullback reproduces the loss gradient", check_pullback_is_gradient),
    ("NTK Rayleigh-quotient bound", check_ntk_rayleigh),
    ("balanced one-hot identities", check_one_hot_identities),
    ("dense NTK assembly agreement", check_dense_ntk_agreement),
    ("balanced-chain power lemma (20 instances)",
     lambda: lemma_c2_suite(n_instances=20)),
]

FULL_CHECKS = FAST_CHECKS + [
    ("collapse bound suite, 200 random instances", thm1_suite),
    ("balanced-chain power lemma (100 instances)",
     lambda: lemma_c2_suite(n_instances=100)),
]


def run_suite(level: str = "fast") -> bool:
    checks = FULL_CHECKS if level == "full" else FAST_CHECKS
    all_ok = True
    width = max(len(name) for name, _ in checks)
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with the traceback cause
            ok, detail = False, {"exception": repr(exc)}
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  ({dt:.2f}s)")
        if not ok:
            print(f"  counterexample: {detail}")
            all_ok = False
    print("all checks passed" if all_ok else "verification FAILED")
    return all_ok
