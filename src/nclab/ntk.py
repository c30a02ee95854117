"""Matrix-free neural tangent kernel: the NTK acts on K x N output probes as
pushforward(pullback(.)), its operator norm comes from Lanczos, and a dense
Jacobian assembly is available for problems small enough to cross-check.
Both directions, `ntk_opnorm` and `dense_ntk` read the caller's
`network.forward` trace of the state; none runs the network.

`ntk_opnorm` runs Lanczos with full reorthogonalization from a seeded random
probe. Its top Ritz value is a lower end of the largest eigenvalue by Cauchy
interlacing, and only its gap to it depends on the start (Kuczynski and
Wozniakowski 1992). The tridiagonal T_j is never handed to `densemat`: its
top eigenvalue is bisected on the signs of the LDL^T pivots of sigma*I - T_j,
which are all positive iff sigma lies above it, and two inverse iterations at
that upper end give the eigenvector, all on Python floats in O(j) per pass.
The basis grows by one row per step. Lanczos stops when the Ritz residual
beta_j*|s_j| is at most RITZ_TOL times the Ritz value, or at
LANCZOS_MAX_BASIS vectors, unconverged; the report carries the true
residual of the Ritz vector either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ForwardTrace, NetworkConfig, ParamSet, backprop

RITZ_TOL = 1e-10
LANCZOS_MAX_BASIS = 256  # Lanczos vectors of length K*N kept at most
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
    dz = tangent.weights[0] @ trace.z[0]  # the input does not move: dU_1 = dW_1 Z_0
    for layer in range(1, cfg.depth + 1):
        if layer > 1:
            dz = tangent.weights[layer - 1] @ trace.z[layer - 1] + params.weights[layer - 1] @ dz
        if layer <= cfg.l1:
            dz = trace.dact[layer - 1] * dz
    return dz


def ntk_quadratic_form(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
                       probe: np.ndarray) -> float:
    """<A, Theta A> = ||J^T A||^2, without forming Theta A."""
    g = pullback(cfg, params, trace, probe)
    return sum(float(np.sum(w * w)) for w in g.weights)


def _ldl_pivots(sigma: float, diag: list, off_sq: list) -> list | None:
    """Pivots of the LDL^T factorization of sigma*I - T, T symmetric
    tridiagonal with diagonal `diag` and squared off-diagonal `off_sq`; None
    as soon as one is not positive, i.e. iff sigma <= lambda_max(T)."""
    d = sigma - diag[0]
    if not d > 0.0:
        return None
    pivots = [d]
    for a, b2 in zip(diag[1:], off_sq):
        d = sigma - a - b2 / d
        if not d > 0.0:
            return None
        pivots.append(d)
    return pivots


def _top_ritz(alpha: list, beta: list, lower: float) -> tuple:
    """(lambda_max(T), its unit eigenvector) of the tridiagonal T with diagonal
    `alpha` and off-diagonal `beta`, given a lower end `lower` of lambda_max.

    T is scaled by a power of two to a Gershgorin bound in [1/2, 1), lambda_max
    is bisected to adjacent floats, and the eigenvector comes from two inverse
    iterations at the upper end, where every pivot is positive.
    """
    if len(alpha) == 1:
        return alpha[0], [1.0]
    off = [0.0] + [abs(b) for b in beta] + [0.0]
    gersh = max(a + off[i] + off[i + 1] for i, a in enumerate(alpha))
    exp = math.frexp(gersh)[1]
    diag = [math.ldexp(a, -exp) for a in alpha]
    off_sq = [math.ldexp(b, -exp) ** 2 for b in beta]
    lo, hi = math.ldexp(lower, -exp), 2.0  # the scaled Gershgorin bound is < 1
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _ldl_pivots(mid, diag, off_sq) is None:
            lo = mid
        else:
            hi = mid
    pivots = _ldl_pivots(hi, diag, off_sq)
    # hi*I - T = L D L^T with L unit lower bidiagonal, multipliers -beta_i / d_i
    mult = [-math.ldexp(b, -exp) / d for b, d in zip(beta, pivots)]
    v = [1.0] * len(alpha)
    for _ in range(2):
        for i in range(1, len(v)):
            v[i] -= mult[i - 1] * v[i - 1]
        v = [vi / d for vi, d in zip(v, pivots)]
        for i in range(len(v) - 2, -1, -1):
            v[i] -= mult[i] * v[i + 1]
        top = max(abs(vi) for vi in v)  # keeps the next solve from overflowing
        v = [vi / top for vi in v]
    norm = math.sqrt(sum(vi * vi for vi in v))
    return math.ldexp(hi, exp), [vi / norm for vi in v]


def ntk_opnorm(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace,
               seed: int = 0) -> NTKReport:
    """Largest NTK eigenvalue by Lanczos on K x N probes (module docstring),
    read from `trace`, the state's forward(cfg, params, x); `iterations` counts
    the NTK applications of the basis; a non-finite one is a FloatingPointError."""
    def theta_of(probe):  # the NTK applied to a K x N probe
        return pushforward(cfg, params, trace, pullback(cfg, params, trace, probe))
    k, n = trace.z[-1].shape
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(k * n)
    q /= np.linalg.norm(q)
    basis = np.empty((0, k * n))
    alpha, beta = [], []
    theta, s = 0.0, [1.0]
    for j in range(min(k * n, LANCZOS_MAX_BASIS)):
        basis.resize((j + 1, k * n), refcheck=False)  # no view of basis is alive here
        basis[j] = q
        w = theta_of(q.reshape(k, n)).ravel()
        alpha.append(float(q @ w))
        for _ in range(2):  # classical Gram-Schmidt against the whole basis, twice
            w -= basis.T @ (basis @ w)
        b = float(np.linalg.norm(w))
        if not math.isfinite(b):  # the state's NTK overflows: no eigenvalue to bisect
            raise FloatingPointError("the NTK applied to a probe is not finite")
        theta, s = _top_ritz(alpha, beta, theta)
        converged = b * abs(s[-1]) <= RITZ_TOL * theta
        if converged:
            break
        beta.append(b)
        q = w / b
    y = (np.asarray(s) @ basis).reshape(k, n)
    y /= np.linalg.norm(y)
    residual = float(np.linalg.norm(theta_of(y) - theta * y))
    return NTKReport(rho=theta, iterations=len(alpha), residual=residual,
                     converged=converged)


def dense_jacobian(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace) -> np.ndarray:
    """Full (K*N) x n_params Jacobian of the traced state, one JVP per parameter entry.

    Guarded to small problems; intended for cross-checking the matrix-free path.
    """
    kn = trace.z[-1].size
    n_params = sum(w.size for w in params.weights)
    if n_params * kn > DENSE_ASSEMBLY_LIMIT:
        raise ValueError("problem too large for dense Jacobian assembly")
    cols = np.empty((kn, n_params))
    j = 0
    for li, w in enumerate(params.weights):
        for flat in range(w.size):
            tangent = ParamSet([np.zeros_like(wl) for wl in params.weights])
            tangent.weights[li].flat[flat] = 1.0
            cols[:, j] = pushforward(cfg, params, trace, tangent).ravel()
            j += 1
    return cols


def dense_ntk(cfg: NetworkConfig, params: ParamSet, trace: ForwardTrace) -> np.ndarray:
    m = dense_jacobian(cfg, params, trace)
    return m @ m.T

