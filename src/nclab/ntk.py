"""Matrix-free neural tangent kernel: the NTK acts on K x N output probes as
pushforward(pullback(.)), its operator norm comes from power iteration, and a
dense Jacobian assembly is available for problems small enough to cross-check.
Both directions read one `network.forward` trace of the state; neither runs
the network again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ForwardTrace, NetworkConfig, ParamSet, backprop, forward

POWER_TOL = 1e-8
POWER_MAX_ITER = 10000
DENSE_ASSEMBLY_LIMIT = 200_000  # on n_params * K * N


@dataclass(frozen=True)
class NTKReport:
    rho: float
    iterations: int
    residual: float
    converged: bool


def pullback(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
             cotangent: np.ndarray) -> ParamSet:
    """Adjoint of the parameter Jacobian applied to an output probe."""
    return backprop(cfg, params, trace, np.asarray(cotangent, dtype=float))


def pushforward(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
                tangent: ParamSet) -> np.ndarray:
    """Directional derivative of the network output along a parameter tangent,
    carried through the recorded trace: dU_l = dW_l Z_{l-1} + W_l dZ_{l-1},
    and dZ_l = sigma'(U_l) * dU_l on the nonlinear layers."""
    dz = np.zeros_like(trace.z[0])
    for layer in range(1, cfg.depth + 1):
        dz = tangent.weights[layer - 1] @ trace.z[layer - 1] + params.weights[layer - 1] @ dz
        if layer <= cfg.l1:
            dz = trace.dact[layer - 1] * dz
    return dz


def ntk_apply(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
              probe: np.ndarray) -> np.ndarray:
    return pushforward(cfg, params, trace, pullback(cfg, params, trace, probe))


def ntk_quadratic_form(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
                       probe: np.ndarray) -> float:
    """<A, Theta A> = ||J^T A||^2, without forming Theta A."""
    g = pullback(cfg, params, trace, probe)
    return sum(float(np.sum(w * w)) for w in g.weights)


def ntk_opnorm(cfg: NetworkConfig, params: ParamSet, x: np.ndarray,
               tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER,
               seed: int = 0, trace: ForwardTrace | None = None) -> NTKReport:
    """Largest NTK eigenvalue by power iteration on K x N probes; `trace`, if
    given, is forward(cfg, params, x) and is read instead of running it again."""
    if trace is None:
        trace = forward(cfg, params, x)
    k, n = trace.z[-1].shape
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, n))
    a /= np.linalg.norm(a)
    rho_prev = 0.0
    rho = 0.0
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        ta = ntk_apply(cfg, params, trace, a)
        rho = float(np.sum(a * ta))
        nrm = np.linalg.norm(ta)
        if nrm == 0.0:
            rho, converged = 0.0, True
            break
        a = ta / nrm
        if abs(rho - rho_prev) <= tol * max(abs(rho), 1e-300):
            converged = True
            break
        rho_prev = rho
    residual = float(np.linalg.norm(ntk_apply(cfg, params, trace, a) - rho * a))
    return NTKReport(rho=rho, iterations=it, residual=residual, converged=converged)


def dense_jacobian(cfg: NetworkConfig, params: ParamSet, x: np.ndarray) -> np.ndarray:
    """Full (K*N) x n_params Jacobian, one JVP per parameter entry.

    Guarded to small problems; intended for cross-checking the matrix-free path.
    """
    x = np.asarray(x, dtype=float)
    k = cfg.n_classes
    n = x.shape[1]
    n_params = sum(w.size for w in params.weights)
    if n_params * k * n > DENSE_ASSEMBLY_LIMIT:
        raise ValueError("problem too large for dense Jacobian assembly")
    trace = forward(cfg, params, x)
    cols = np.empty((k * n, n_params))
    j = 0
    for li, w in enumerate(params.weights):
        for flat in range(w.size):
            tangent = ParamSet([np.zeros_like(wl) for wl in params.weights])
            tangent.weights[li].flat[flat] = 1.0
            cols[:, j] = pushforward(cfg, params, trace, tangent).ravel()
            j += 1
    return cols


def dense_ntk(cfg: NetworkConfig, params: ParamSet, x: np.ndarray) -> np.ndarray:
    m = dense_jacobian(cfg, params, x)
    return m @ m.T

