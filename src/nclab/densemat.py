"""Dense linear algebra substrate: SVD, pseudoinverse, condition numbers.

All matrices are 2-D float64 numpy arrays. The SVD is a one-sided Jacobi
with cyclic sweeps; everything else (pinv, cond, op_norm) is derived from it.
Results are deterministic for a fixed input: singular vectors follow a fixed
sign convention and ties are resolved by a stable sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JACOBI_TOL = 1e-14
MAX_SWEEPS = 60
DEFAULT_RANK_TOL = 1e-10


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap before all rotations fell below tolerance."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"one-sided Jacobi SVD did not converge after {sweeps} sweeps "
            f"(largest relative off-diagonal {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


def as_matrix(a) -> np.ndarray:
    """Validate and coerce to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """u has orthonormal columns, s is non-increasing, vt has orthonormal rows."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vt


def _complete_orthonormal(u: np.ndarray, known: int) -> None:
    """Fill columns known.. of u with vectors orthonormal to the earlier ones."""
    m, k = u.shape
    col = known
    for cand in range(m):
        if col == k:
            return
        v = np.zeros(m)
        v[cand] = 1.0
        v -= u[:, :col] @ (u[:, :col].T @ v)
        nrm = np.linalg.norm(v)
        if nrm > 0.5:  # canonical vector mostly outside current span
            u[:, col] = v / nrm
            col += 1
    if col < k:  # numerically awkward span; finish with re-orthogonalized randoms
        rng = np.random.default_rng(0)
        while col < k:
            v = rng.standard_normal(m)
            v -= u[:, :col] @ (u[:, :col].T @ v)
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                u[:, col] = v / nrm
                col += 1


def svd(a) -> SvdResult:
    """One-sided Jacobi SVD. Deterministic; raises SvdConvergenceError on stall."""
    a = as_matrix(a)
    m, n = a.shape
    transposed = m < n
    b = np.array(a.T if transposed else a, dtype=np.float64, order="F")
    rows, cols = b.shape
    v = np.eye(cols)

    converged = cols == 1
    worst = 0.0
    for _ in range(MAX_SWEEPS):
        if converged:
            break
        rotated = False
        worst = 0.0
        for i in range(cols - 1):
            for j in range(i + 1, cols):
                bi = b[:, i]
                bj = b[:, j]
                app = bi @ bi
                aqq = bj @ bj
                apq = bi @ bj
                scale = math.sqrt(app * aqq)
                if scale == 0.0 or abs(apq) <= JACOBI_TOL * scale:
                    continue
                worst = max(worst, abs(apq) / scale)
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                bi_new = c * bi - s * bj
                b[:, j] = s * bi + c * bj
                b[:, i] = bi_new
                vi = c * v[:, i] - s * v[:, j]
                v[:, j] = s * v[:, i] + c * v[:, j]
                v[:, i] = vi
        converged = not rotated
    if not converged:
        raise SvdConvergenceError(worst, MAX_SWEEPS)

    sigma = np.sqrt(np.einsum("ij,ij->j", b, b))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    b = b[:, order]
    v = v[:, order]

    u = np.zeros_like(b)
    s_max = sigma[0] if sigma.size else 0.0
    nonzero = 0
    for k in range(cols):
        if sigma[k] > 0.0 and (s_max == 0.0 or sigma[k] >= 1e-300):
            u[:, k] = b[:, k] / sigma[k]
            nonzero = k + 1
        else:
            sigma[k] = 0.0
    _complete_orthonormal(u, nonzero)

    # sign convention: largest-magnitude entry of each left vector positive
    for k in range(cols):
        idx = int(np.argmax(np.abs(u[:, k])))
        if u[idx, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]

    if transposed:
        return SvdResult(u=v, s=sigma, vt=u.T)
    return SvdResult(u=u, s=sigma, vt=v.T)


def pinv(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below rank_tol*s1 are zeroed."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    a = as_matrix(a)
    res = svd(a)
    s1 = res.s[0]
    if s1 == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    inv = np.divide(1.0, res.s, out=np.zeros_like(res.s), where=res.s > rank_tol * s1)
    return (res.vt.T * inv) @ res.u.T


def cond(a, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """s1 / s_k over non-zero singular values (numerical rank under rank_tol)."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    s = svd(a).s
    if not np.all(np.isfinite(s)):
        raise ValueError("undefined condition number: non-finite matrix")
    if s[0] == 0.0:
        raise ValueError("undefined condition number: zero matrix")
    kept = s[s > rank_tol * s[0]]
    return float(s[0] / kept[-1])


def op_norm(a) -> float:
    """Largest singular value."""
    return float(svd(a).s[0])


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
