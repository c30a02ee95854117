"""Dense linear algebra substrate: SVD, pseudoinverse, condition numbers.

All matrices are 2-D float64 numpy arrays. The SVD is a one-sided Jacobi
(Hestenes), and pinv and cond are derived from it. Only pinv reads
singular vectors (the one svd of W_L in bounds.state_verdicts also gives
cond(W_L)). svd(a, compute_uv=False) rotates B without accumulating V and
skips building U; cond reads its whole spectrum only for a numerically
rank-deficient input, and every other caller of singular values asks for
sigma_1 alone (op_norm) or for sigma_1 and sigma_min (extremes=True, see
below). The values-only s is
bit-identical to that of the full SVD: each rotation angle is computed
from the columns of B, and both modes take the same sweep. Two pair
orderings share the tolerance, rotation and sweep cap; rows * cols of B
(rows >= cols, a wide matrix is transposed first) picks one:

- up to SMALL_MAX_ENTRIES, cyclic sweeps rotate one column pair at a time in
  row order, on Python floats (columns as lists): at this size a numpy call
  on a 2- to 16-element vector costs more than the arithmetic it does;
- above it, each sweep is a round-robin tournament (Brent & Luk 1985):
  every round rotates n/2 disjoint pairs with the same few numpy calls.

Both are one-sided Jacobi with the same accuracy argument (Demmel & Veselic
1992). The bound is measured: values-only calls, microseconds per call,
median of 7 interleaved repeats on one Xeon core with one BLAS thread:

    shape    entries  round-robin  Python floats
    3x3          9        521            54
    5x5         25       1699           303
    8x8         64       2576          1208
    12x12      144       4274          3601
    20x10      200       3410          2953
    32x8       256       2347          2164
    16x16      256       6678          7030
    64x4       256        693           722
    24x12      288       4458          5586
    17x17      289       7044          9280

Python floats win up to about 256 entries and lose from 270 on. With
vectors the crossover comes earlier (12x12: 4530 round-robin vs 5199 us),
since every rotation also turns two columns of V; one bound for both modes
keeps values-only singular values bit-identical to the full SVD's, and most
calls are values-only. Results are deterministic for a fixed input:
singular vectors follow a fixed sign convention and ties are resolved by a
stable sort.

op_norm needs sigma_1 alone and calls svd(a, compute_uv=False,
top_only=True), which runs no Jacobi sweep. It squares the smaller Gram
matrix G = B^T B of the input itself (no copy: B is a transposed view of a
wide input, and G is scaled exactly by 4^-e while |e| <= GRAM_MAX_EXP)
repeatedly, renormalized to trace 1 each time: with
t_k = tr G_{k-1}^2, ln sigma_1 lies in a bracket of width
-ln t_{k+1} / 2^(k+1), and the upper end is returned once the width is at
most SIGMA1_BRACKET = 1e-13. Each squaring adds O(n eps) relative error to
lambda_1 and the 2^k-th root divides it by 2^k, so the result stays within
O(n eps) of the bracket; no random start is involved, unlike power or
Lanczos iteration. A random matrix closes it in 5 to 11 squarings; an exactly
tied top (orthonormal columns) is the worst case, at about 45. op_norm per
call, Jacobi values-only vs Gram squaring, best of 5 CPU times on one Xeon
core with one BLAS thread:

    shape          Jacobi     squaring
    3x3             93 us       34 us
    8x8            970 us       40 us
    64x32         10.3 ms     0.071 ms
    200x64          42 ms      0.20 ms
    256x128        180 ms      1.21 ms
    256x200        455 ms      3.56 ms
    3x3 tied        27 us      137 us
    8x8 tied        71 us      143 us
    256x200 tied  16.2 ms     18.2 ms

cond and the initial spectra of the GD schedule (bounds.init_spectra and
its lambda_F = sigma_min(sigma(W_1 X))) need sigma_1 and sigma_min alone
and call svd(a, compute_uv=False, extremes=True), which returns
[sigma_1, sigma_min], sigma_min the min(m, n)-th value. Above
EXTREMES_MIN_ENTRIES entries of B it runs no Jacobi sweep (the R route):

- sigma_1 is op_norm's Gram squaring of B, bit for bit;
- sigma_min = 1 / sigma_1(R^-1). R is the Householder triangular factor of
  B, one numpy rank-1 update per column over the one scaled copy of B,
  which is freed once R is formed; X = R^-1 is formed row by row by
  back substitution; sigma_1(X) is the same Gram squaring, with X's Gram
  scaled by a power of four.

Accuracy: Householder QR is backward stable, so R is the exact factor of
B + dB with ||dB|| = O(n eps) ||B||, which moves sigma_min by O(kappa eps)
relative (kappa = sigma_1 / sigma_min). Each row of X is a back
substitution, so |R X - I| <= c_n eps |R| |X| (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 8 and 14), which moves sigma_1(X) by
O(kappa eps) relative again; the Gram squaring adds at most its bracket
width SIGMA1_BRACKET (sigma_min of 10x200 balanced one-hot labels, sqrt(20)
and exact under Jacobi, comes out 6.5e-14 relative low, where the top of X
is tied). That is the order of one-sided Jacobi's error on sigma_min of an
unstructured B; QR-preconditioned one-sided methods keep Jacobi's
relative accuracy (Drmac & Veselic 2008). Against a 40-digit
reference the worst R-route error over six matrices stayed within 3x the
values-only Jacobi's for kappa from 1e5 to 5e7. sigma_min is therefore
accurate, but it is an estimate and not a certified bracket, as sigma_1 is.

Fallback: the call returns the two ends of the values-only Jacobi sweep,
bit for bit, when some |r_kk| (an upper bound on sigma_min) or the result
is at most SIGMA_MIN_FLOOR = 1e-8 times sigma_1, or when R^-1 overflows.
Beyond kappa = 1e8 the O(kappa eps) bound no longer keeps sigma_min to
1e-8 relative, and every input that DEFAULT_RANK_TOL = 1e-10 could call
rank-deficient is decided by Jacobi, as before; cond's numerical rank does
not change. Values-only calls, microseconds per call, median of 7
interleaved repeats on one Xeon core with one BLAS thread (a busier
machine than the tables above):

    shape      entries     Jacobi    R route
    3x3            9          123        228
    5x5           25          409        256
    8x8           64         1357        335
    16x16        256         8643        595
    32x8         256         2347        356
    64x4         256          768        321
    17x17        289         9089        669
    24x12        288         5143        509
    200x3        600          785        261
    64x32       2048        20396       1200
    128x256    32768       261377      12321
    256x200    51200       626353      24817

At 1024x1000 (sigma(W_1 X) at widths [1024, 256, 64, 10, 10], N = 1000)
the R route takes about 2.5 s, 1.75 s of it in the rank-1 updates;
bounds.init_spectra there took 205 s under Jacobi and 2.3-2.8 s with it,
on the same machine. The R route wins from about 25 entries on. EXTREMES_MIN_ENTRIES is held at
SMALL_MAX_ENTRIES all the same, so that every matrix the Python-float
sweep handles keeps its bit-identical values; lowering the bound to 24
left `nclab verify --level full` unchanged (0.94 vs 0.95 s), since its
cond calls are few and tiny.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

JACOBI_TOL = 1e-14
MAX_SWEEPS = 60
DEFAULT_RANK_TOL = 1e-10
SMALL_MAX_ENTRIES = 256  # rows * cols; measured crossover, see the module docstring
SIGMA1_BRACKET = 1e-13  # width of the certified bracket on ln sigma_1
MAX_SQUARINGS = 60  # a rank below 1e6 closes the bracket within 47
EXTREMES_MIN_ENTRIES = SMALL_MAX_ENTRIES  # rows * cols above which extremes=True takes the R route
SIGMA_MIN_FLOOR = 1e-8  # the R route hands sigma_min <= this * sigma_1 to Jacobi
GRAM_MAX_EXP = 256  # sigma_1 scales the Gram of the input itself while |exp| <= this


class SvdConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap before all rotations fell below tolerance,
    or Gram squarings (squarings=True) before the sigma_1 bracket closed."""

    def __init__(self, residual: float, sweeps: int, squarings: bool = False):
        if squarings:
            what, steps, gap = "Gram squaring for sigma_1", "squarings", "bracket width"
        else:
            what, steps, gap = "one-sided Jacobi SVD", "sweeps", "largest relative off-diagonal"
        super().__init__(f"{what} did not converge after {sweeps} {steps} ({gap} {residual:.3e})")
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
    """u has orthonormal columns, s is non-increasing, vt has orthonormal rows;
    u and vt are None when the SVD was asked for values only, and s is
    [sigma_1] alone when it was asked for the top one only, [sigma_1,
    sigma_min] when it was asked for the extremes. Extremes that are the ends
    of Jacobi sweeps keep the whole values-only spectrum in `spectrum`."""

    u: np.ndarray | None
    s: np.ndarray
    vt: np.ndarray | None
    spectrum: np.ndarray | None = None

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
        nrm = math.sqrt(v @ v)
        if nrm > 0.5:  # canonical vector mostly outside current span
            u[:, col] = v / nrm
            col += 1
    if col < k:  # numerically awkward span; finish with re-orthogonalized randoms
        rng = np.random.default_rng(0)
        while col < k:
            v = rng.standard_normal(m)
            v -= u[:, :col] @ (u[:, :col].T @ v)
            nrm = math.sqrt(v @ v)
            if nrm > 1e-8:
                u[:, col] = v / nrm
                col += 1


def _cyclic_sweep(b: list, v: list | None) -> float:
    """One sweep over the column pairs (i, j) in row order, one pair at a time,
    on Python floats: b and v are lists of column lists.

    Rotates b and v (when given) in place; returns the largest relative
    off-diagonal |b_i . b_j| / (|b_i| |b_j|) rotated away, 0.0 when no pair
    needed a rotation.
    """
    cols = len(b)
    worst = 0.0
    for i in range(cols - 1):
        for j in range(i + 1, cols):
            bi = b[i]
            bj = b[j]
            app = sum(map(mul, bi, bi))
            aqq = sum(map(mul, bj, bj))
            apq = sum(map(mul, bi, bj))
            scale = math.sqrt(app * aqq)
            if scale == 0.0 or abs(apq) <= JACOBI_TOL * scale:
                continue
            worst = max(worst, abs(apq) / scale)
            tau = (aqq - app) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            b[i] = [c * x - s * y for x, y in zip(bi, bj)]
            b[j] = [s * x + c * y for x, y in zip(bi, bj)]
            if v is not None:
                vi = v[i]
                vj = v[j]
                v[i] = [c * x - s * y for x, y in zip(vi, vj)]
                v[j] = [s * x + c * y for x, y in zip(vi, vj)]
    return worst


@functools.lru_cache(maxsize=None)
def _round_robin_pairs(cols: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Rounds of a round-robin tournament between the columns (circle method).

    Each round is a pair of read-only index arrays (p, q) with p < q; the
    pairs of one round are disjoint, and every pair of columns meets in
    exactly one round. An odd count is padded with a column that sits out.
    """
    n = cols + cols % 2
    seats = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [(min(a, b), max(a, b))
                 for a, b in zip(seats[:n // 2], reversed(seats[n // 2:]))
                 if max(a, b) < cols]
        p, q = (np.array(ix, dtype=np.intp) for ix in zip(*pairs))
        p.flags.writeable = False
        q.flags.writeable = False
        rounds.append((p, q))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return tuple(rounds)


def _round_robin_sweep(w: np.ndarray, rows: int) -> float:
    """One sweep over the column pairs in round-robin order, all disjoint
    pairs of a round rotated by the same numpy calls.

    w is row-major and holds B^T in its first `rows` columns and V^T, if
    vectors are wanted, in the rest, so gathering a pair fetches its columns
    of B and V as contiguous rows. Same tolerance, rotation and return value
    as _cyclic_sweep. Every round reuses the same four work arrays: allocating them afresh
    each round makes the allocator return and re-fault their pages.
    """
    rounds = _round_robin_pairs(w.shape[0])
    wp, wq, t1, t2 = np.empty((4, len(rounds[0][0]), w.shape[1]))
    worst = 0.0
    for p, q in rounds:
        np.take(w, p, axis=0, out=wp)
        np.take(w, q, axis=0, out=wq)
        bp, bq = wp[:, :rows], wq[:, :rows]
        app = np.einsum("ij,ij->i", bp, bp)
        aqq = np.einsum("ij,ij->i", bq, bq)
        apq = np.einsum("ij,ij->i", bp, bq)
        scale = np.sqrt(app * aqq)
        rot = (scale != 0.0) & (np.abs(apq) > JACOBI_TOL * scale)
        k = int(np.count_nonzero(rot))
        if k == 0:
            continue
        gp, gq, n1, n2 = wp[:k], wq[:k], t1[:k], t2[:k]
        if k < len(p):  # gather again, only the pairs that rotate
            p, q = p[rot], q[rot]
            np.take(w, p, axis=0, out=gp)
            np.take(w, q, axis=0, out=gq)
            app, aqq, apq, scale = app[rot], aqq[rot], apq[rot], scale[rot]
        worst = max(worst, float(np.max(np.abs(apq) / scale)))
        tau = (aqq - app) / (2.0 * apq)
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = (t * c)[:, None]
        c = c[:, None]
        np.subtract(np.multiply(c, gp, out=n1), np.multiply(s, gq, out=n2), out=n1)
        w[p] = n1
        np.add(np.multiply(s, gp, out=n1), np.multiply(c, gq, out=n2), out=n1)
        w[q] = n1
    return worst


def _top_singular_value(b: np.ndarray, exp: int = 0) -> float:
    """sigma_1 of b / 2^exp (rows >= cols) by repeated squaring of the Gram
    matrix of b scaled by 4^-exp (of a scaled copy if |exp| > GRAM_MAX_EXP).

    G_0 = B^T B / tr, and G_{k+1} = G_k^2 / t_{k+1} with t_{k+1} = tr G_k^2
    = ||G_k||_F^2, so every G_k has trace 1 and lambda_1(G_k) lies in
    [t_{k+1}, 1]. Unrolling lambda_1(G_{k+1}) = lambda_1(G_k)^2 / t_{k+1}
    puts ln sigma_1 in a bracket of width -ln t_{k+1} / 2^(k+1) whose upper
    end is (ln tr G + sum_{j<=k} ln t_j / 2^j) / 2; the upper end is returned
    once the width is at most SIGMA1_BRACKET. Each squaring adds O(n eps)
    relative error to lambda_1, and the 2^k-th root divides it by 2^k, so
    the total stays O(n eps).
    """
    if abs(exp) > GRAM_MAX_EXP:
        b, exp = np.ldexp(b, -exp, order="F"), 0
    g = b.T @ b
    np.ldexp(g, -2 * exp, out=g)
    trace = float(np.trace(g))
    if trace == 0.0:
        return 0.0
    g /= trace
    log_top = math.log(trace)  # upper end of ln lambda_1(G)
    for k in range(1, MAX_SQUARINGS + 2):  # the k-th check follows k - 1 squarings
        t = float(np.vdot(g, g))
        width = -math.log(t) / 2.0 ** k
        if width <= SIGMA1_BRACKET:
            return math.exp(log_top / 2.0)
        g = g @ g
        g /= t
        log_top += math.log(t) / 2.0 ** k
    raise SvdConvergenceError(width, MAX_SQUARINGS, squarings=True)


def _householder_r(b: np.ndarray) -> np.ndarray:
    """Upper-triangular R of b = QR (rows >= cols) by Householder
    reflections, one numpy rank-1 update per column; b is overwritten.

    A column whose trailing part is zero (or underflows) is left as it is,
    so R has a zero or tiny diagonal entry there.
    """
    w = b.T  # row k of w is column k of b, contiguous
    cols = w.shape[0]
    for k in range(cols):
        x = w[k, k:]
        x0 = float(x[0])
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, x0)
        v = x.copy()
        v[0] -= alpha  # reflector I - 2 v v^T / |v|^2 maps x to alpha e_1
        tail = w[k + 1:, k:]
        proj = tail @ v
        proj /= norm * (norm + abs(x0))  # |v|^2 / 2
        tail -= np.multiply.outer(proj, v)
        w[k, k] = alpha
    return np.triu(b[:cols])


def _smallest_singular_value(r: np.ndarray, top: float) -> float | None:
    """sigma_min of a pre-scaled matrix with sigma_1 = top and triangular
    factor r (_householder_r), as 1 / sigma_1(R^-1), or None when it is not
    above SIGMA_MIN_FLOOR * top or R^-1 overflows: the caller then sweeps.

    Every row of X = R^-1 is one back substitution; sigma_1(X) is taken by
    the same Gram squaring as top.
    """
    n = r.shape[0]
    floor = SIGMA_MIN_FLOOR * top
    if float(np.min(np.abs(np.diagonal(r)))) <= floor:  # sigma_min <= min |r_kk|
        return None
    x = np.zeros_like(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            x[i, i] = 1.0 / r[i, i]
            np.divide(r[i, i + 1:] @ x[i + 1:, i + 1:], -r[i, i], out=x[i, i + 1:])
    if not np.all(np.isfinite(x)):
        return None
    _, exp = math.frexp(max(float(x.max()), -float(x.min())))
    # rounding may lift a sigma_min tied with sigma_1 a few ulps above it
    low = min(math.ldexp(1.0 / _top_singular_value(x, exp), -exp), top)
    return low if low > floor else None


def svd(a, compute_uv: bool = True, top_only: bool = False,
        extremes: bool = False) -> SvdResult:
    """One-sided Jacobi SVD. Deterministic; raises SvdConvergenceError on stall.

    With compute_uv=False only B is rotated and u and vt are None; s is
    bit-identical to svd(a).s, since every rotation angle is read from B.
    With top_only=True (values only) s is [sigma_1] alone, taken by repeated
    Gram squaring instead of Jacobi sweeps (_top_singular_value).
    With extremes=True (values only) s is [sigma_1, sigma_min], sigma_min
    the min(m, n)-th value. Above EXTREMES_MIN_ENTRIES entries sigma_1 is
    op_norm's and sigma_min comes from a Householder R and its inverse
    (_smallest_singular_value): accurate to O(kappa eps) relative, but not a
    certified bracket as sigma_1 is. Otherwise, and whenever sigma_min is
    not above SIGMA_MIN_FLOOR * sigma_1, s is the two ends of the values-only
    Jacobi sweep, bit for bit.
    """
    if (top_only or extremes) and compute_uv:
        raise ValueError("top_only=True and extremes=True need compute_uv=False")
    if top_only and extremes:
        raise ValueError("top_only=True and extremes=True exclude each other")
    a = as_matrix(a)
    transposed = a.shape[0] < a.shape[1]
    tall = a.T if transposed else a
    rows, cols = tall.shape
    # scale the largest entry into [0.5, 1) by a power of two, which is exact:
    # the pair products app * aqq then neither under- nor overflow
    _, exp = math.frexp(max(float(a.max()), -float(a.min())))  # no |a| temporary
    if top_only:
        return SvdResult(u=None, s=np.ldexp([_top_singular_value(tall, exp)], exp), vt=None)
    if extremes and rows * cols > EXTREMES_MIN_ENTRIES:
        top = _top_singular_value(tall, exp)
        # R overwrites the one scaled copy, which is gone once R is formed
        low = _smallest_singular_value(_householder_r(np.ldexp(tall, -exp, order="F")), top)
        if low is not None:
            return SvdResult(u=None, s=np.ldexp([top, low], exp), vt=None)
    small = rows * cols <= SMALL_MAX_ENTRIES  # the sweeps rotate B scaled by 2^-exp
    if small:
        b_cols = np.ldexp(tall.T, -exp).tolist()
        v_cols = np.eye(cols).tolist() if compute_uv else None
        sweep = functools.partial(_cyclic_sweep, b_cols, v_cols)
    else:
        w = np.empty((cols, rows + (cols if compute_uv else 0)))
        b = np.ldexp(tall.T, -exp, out=w[:, :rows]).T  # views the sweeps rotate
        if compute_uv:
            w[:, rows:] = np.eye(cols)
            v = w[:, rows:].T
        sweep = functools.partial(_round_robin_sweep, w, rows)

    converged = cols == 1
    worst = 0.0
    for _ in range(MAX_SWEEPS):
        if converged:
            break
        worst = sweep()
        converged = worst == 0.0
    if not converged:
        raise SvdConvergenceError(worst, MAX_SWEEPS)
    if small:
        b = np.array(b_cols).T
        if compute_uv:
            v = np.array(v_cols).T

    sigma = np.sqrt(np.einsum("ij,ij->j", b, b))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    sigma[sigma < 1e-300] = 0.0  # no unit left vector from so small a column
    if not compute_uv:
        sigma = np.ldexp(sigma, exp)
        if extremes:
            return SvdResult(u=None, s=sigma[[0, -1]], vt=None, spectrum=sigma)
        return SvdResult(u=None, s=sigma, vt=None)
    b = b[:, order]
    v = v[:, order]

    u = np.zeros_like(b)
    nonzero = int(np.count_nonzero(sigma))  # sigma is non-increasing
    u[:, :nonzero] = b[:, :nonzero] / sigma[:nonzero]
    _complete_orthonormal(u, nonzero)

    # sign convention: largest-magnitude entry of each left vector positive
    for k in range(cols):
        idx = int(np.argmax(np.abs(u[:, k])))
        if u[idx, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]

    sigma = np.ldexp(sigma, exp)
    if transposed:
        return SvdResult(u=v, s=sigma, vt=u.T)
    return SvdResult(u=u, s=sigma, vt=v.T)


def pinv(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a matrix, or of the matrix that an
    SvdResult with vectors decomposes; singular values below rank_tol*s1
    are zeroed."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    res = a if isinstance(a, SvdResult) else svd(a)
    s1 = res.s[0]
    if s1 == 0.0:
        return np.zeros((res.vt.shape[1], res.u.shape[0]))
    inv = np.divide(1.0, res.s, out=np.zeros_like(res.s), where=res.s > rank_tol * s1)
    return (res.vt.T * inv) @ res.u.T


def cond(a, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """s1 / s_k over non-zero singular values (numerical rank under rank_tol).

    An SvdResult gives them all; for a matrix the extremes decide full rank,
    and only a rank-deficient one takes the whole values-only spectrum: the
    one the extremes swept for, or else one more values-only SVD."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in (0, 1), got {rank_tol}")
    res = a if isinstance(a, SvdResult) else svd(a, compute_uv=False, extremes=True)
    s = res.s if res.spectrum is None else res.spectrum
    if not np.all(np.isfinite(s)):
        raise ValueError("undefined condition number: non-finite matrix")
    if s[0] == 0.0:
        raise ValueError("undefined condition number: zero matrix")
    if s[-1] <= rank_tol * s[0] and res is not a and res.spectrum is None:
        s = svd(a, compute_uv=False).s
    kept = s[s > rank_tol * s[0]]
    return float(s[0] / kept[-1])


def op_norm(a) -> float:
    """Largest singular value, certified by Gram squaring (no Jacobi sweep)."""
    return float(svd(a, compute_uv=False, top_only=True).s[0])


def fro_norm(a) -> float:
    flat = np.asarray(a, dtype=np.float64).ravel(order="K")
    return math.sqrt(flat @ flat)
