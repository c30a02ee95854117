import ast
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import densemat


def analytic_2x2_singular_values(a):
    """Closed form for a 2x2: sqrt of the eigenvalues of A^T A."""
    [[p, q], [r, s]] = a
    t = p * p + q * q + r * r + s * s
    d = p * s - q * r
    disc = math.sqrt(max(t * t - 4.0 * d * d, 0.0))
    return math.sqrt((t + disc) / 2.0), math.sqrt(max((t - disc) / 2.0, 0.0))


def test_svd_2x2_matches_analytic_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-2, 3)
        s1, s2 = analytic_2x2_singular_values(a)
        res = densemat.svd(a)
        assert abs(res.s[0] - s1) <= 1e-12 * max(1.0, s1)
        assert abs(res.s[1] - s2) <= 1e-12 * max(1.0, s1)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(40):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        a = rng.standard_normal((m, n))
        res = densemat.svd(a)
        k = min(m, n)
        assert res.u.shape == (m, k) and res.vt.shape == (k, n)
        assert np.all(np.diff(res.s) <= 1e-300)  # non-increasing
        assert np.all(res.s >= 0.0)
        assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) < 1e-12
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) < 1e-12
        err = np.linalg.norm(a - res.reconstruct())
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_svd_matches_lapack_singular_values():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        a = rng.standard_normal((m, n))
        ref = np.linalg.svd(a, compute_uv=False)
        got = densemat.svd(a).s
        assert np.allclose(got, ref, rtol=1e-11, atol=1e-12)


ROUND_ROBIN_SHAPES = [
    (40, 7), (7, 40),                # 7 columns past the size bound
    (33, 8), (40, 8), (8, 40),       # just past the bound, tall and wide
    (29, 9), (30, 9), (10, 27),      # odd and even column counts
    (64, 33), (100, 64), (33, 90),
    (60, 200), (210, 200),           # up to 200 columns
]


@pytest.mark.parametrize("shape", ROUND_ROBIN_SHAPES)
def test_svd_round_robin_sizes_match_lapack(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    ref = np.linalg.svd(a, compute_uv=False)
    got = densemat.svd(a).s
    assert np.allclose(got, ref, rtol=1e-11, atol=1e-12)


def _python_sweep_cases():
    """Matrices at or just below the size bound, swept on Python floats, and
    just above it, swept round-robin: square, tall, wide, rank-deficient, a
    zero column, one row and one column."""
    rng = np.random.default_rng(23)
    below = {f"{m}x{n}": rng.standard_normal((m, n))
             for m, n in [(7, 7), (12, 7), (8, 8), (20, 8), (8, 30), (9, 9), (10, 25),
                          (16, 16), (32, 8), (8, 32), (64, 4), (4, 64), (15, 17),
                          (1, 256), (256, 1), (1, 9), (9, 1)]}
    above = {f"{m}x{n}": rng.standard_normal((m, n))
             for m, n in [(17, 16), (16, 17), (33, 8), (8, 33), (65, 4), (4, 65),
                          (1, 257), (257, 1)]}
    for cases, (m, n) in ((below, (16, 16)), (above, (17, 16))):
        cases[f"rank 3 of {m}x{n}"] = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    for cases, (m, n) in ((below, (32, 8)), (above, (33, 8))):
        a = rng.standard_normal((m, n))
        a[:, 5] = 0.0
        cases[f"{m}x{n} zero column"] = a
    below["rank 1 of 3x3"] = np.outer([1.0, 2.0, -1.0], [0.5, -1.0, 3.0])
    return below, above


PYTHON_SWEEP_BELOW, PYTHON_SWEEP_ABOVE = _python_sweep_cases()


def test_path_cases_straddle_the_python_sweep_bound():
    assert all(m * n > densemat.SMALL_MAX_ENTRIES for m, n in ROUND_ROBIN_SHAPES)
    assert all(a.size <= densemat.SMALL_MAX_ENTRIES for a in PYTHON_SWEEP_BELOW.values())
    assert all(a.size > densemat.SMALL_MAX_ENTRIES for a in PYTHON_SWEEP_ABOVE.values())


@pytest.mark.parametrize("name", sorted(PYTHON_SWEEP_BELOW) + sorted(PYTHON_SWEEP_ABOVE))
def test_svd_near_the_python_sweep_bound_matches_lapack(name):
    a = PYTHON_SWEEP_BELOW.get(name, PYTHON_SWEEP_ABOVE.get(name))
    ref = np.linalg.svd(a, compute_uv=False)
    got = densemat.svd(a).s
    assert np.allclose(got, ref, rtol=1e-11, atol=1e-12 * ref[0])


@pytest.mark.parametrize("name", sorted(PYTHON_SWEEP_BELOW))
def test_svd_python_sweep_stays_orthonormal(name):
    a = PYTHON_SWEEP_BELOW[name]
    res = densemat.svd(a)
    k = min(a.shape)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) < 1e-10
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) < 1e-10
    assert np.linalg.norm(a - res.reconstruct()) < 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("cols", [2, 3, 8, 9, 64])
def test_round_robin_rounds_meet_every_pair_once(cols):
    rounds = densemat._round_robin_pairs(cols)
    seen = []
    for p, q in rounds:
        assert not p.flags.writeable and not q.flags.writeable
        assert np.all(p < q)
        assert len(set(p) | set(q)) == 2 * len(p)  # disjoint within a round
        seen += zip(p.tolist(), q.tolist())
    assert len(rounds) == cols - 1 + cols % 2
    assert sorted(seen) == [(i, j) for i in range(cols) for j in range(i + 1, cols)]


def _with_singular_values(rng, m, n, s):
    u, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (u * s) @ v.T


def _hard_cases():
    rng = np.random.default_rng(17)
    tied = _with_singular_values(
        rng, 30, 20, np.r_[1.0, 1.0 - 1e-10, np.linspace(0.9, 0.1, 18)])
    rank5 = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 60))
    zero_cols = rng.standard_normal((30, 12))
    zero_cols[:, [3, 7, 8]] = 0.0
    return {"near_tied_s1_s2": tied, "rank_5_of_40x60": rank5,
            "exact_zero_columns": zero_cols}


@pytest.mark.parametrize("name", sorted(_hard_cases()))
def test_svd_round_robin_hard_cases_stay_orthonormal(name):
    a = _hard_cases()[name]
    assert a.size > densemat.SMALL_MAX_ENTRIES
    res = densemat.svd(a)
    k = min(a.shape)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) < 1e-10
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(k)) < 1e-10
    assert np.linalg.norm(a - res.reconstruct()) < 1e-10 * np.linalg.norm(a)
    ref = np.linalg.norm(a, 2)
    assert abs(densemat.op_norm(a) - ref) <= 1e-12 * ref


def test_svd_round_robin_is_bit_identical_across_calls():
    a = np.random.default_rng(8).standard_normal((120, 100))
    r1, r2 = densemat.svd(a), densemat.svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.vt, r2.vt)


@pytest.mark.parametrize("shape", [(10, 6), (6, 10), (24, 12), (12, 30)])
@pytest.mark.parametrize("factor", [1e-90, 1e-170, 1e+160])
def test_svd_far_from_unit_scale_matches_lapack(shape, factor):
    # the pair products app * aqq would under- or overflow without the
    # power-of-two pre-scaling; 10x6 and 6x10 are swept on Python floats,
    # 24x12 and 12x30 round-robin
    a = np.random.default_rng(9).standard_normal(shape) * factor
    np.testing.assert_allclose(densemat.svd(a).s,
                               np.linalg.svd(a, compute_uv=False), rtol=1e-12)


@pytest.mark.parametrize("shape", [(10, 6), (24, 12)])
def test_svd_commutes_exactly_with_power_of_two_scaling(shape):
    a = np.random.default_rng(10).standard_normal(shape)
    base = densemat.svd(a)
    for exp in (-300, -40, 3, 200):
        res = densemat.svd(np.ldexp(a, exp))
        assert np.array_equal(res.s, np.ldexp(base.s, exp))
        assert np.array_equal(res.u, base.u) and np.array_equal(res.vt, base.vt)


def test_svd_round_robin_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    a = np.random.default_rng(4).standard_normal((24, 12))
    with pytest.raises(densemat.SvdConvergenceError) as err:
        densemat.svd(a)
    assert err.value.sweeps == 1 and err.value.residual > densemat.JACOBI_TOL


def _values_only_cases():
    rng = np.random.default_rng(11)
    cases = {f"{m}x{n}": rng.standard_normal((m, n))
             for m, n in [(20, 7), (7, 20), (20, 8), (8, 20), (7, 7), (8, 8),
                          (64, 32), (128, 256), (256, 200), (40, 8), (8, 40)]}
    cases["rank 3 of 12x9"] = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 9))
    cases["rank 3 of 30x9"] = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 9))
    cases["rank 2 of 6x5"] = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    cases["zero 9x9"] = np.zeros((9, 9))
    cases["zero 17x17"] = np.zeros((17, 17))
    cases["zero 4x3"] = np.zeros((4, 3))
    for name in ("20x7", "20x8", "40x8"):
        a = cases[name].copy()
        a[:, 2] = 0.0
        cases[f"{name} zero column"] = a
        for factor in (1e-170, 1e+160):
            cases[f"{name} x {factor:g}"] = cases[name] * factor
    return cases


@pytest.mark.parametrize("name", sorted(_values_only_cases()))
def test_svd_values_only_is_bit_identical(name):
    # up to SMALL_MAX_ENTRIES entries are swept on Python floats, 40x8, 8x40,
    # 30x9, 17x17 and larger round-robin
    a = _values_only_cases()[name]
    res = densemat.svd(a, compute_uv=False)
    assert res.u is None and res.vt is None
    assert np.array_equal(res.s, densemat.svd(a).s)


@pytest.mark.parametrize("shape", [(20, 6), (24, 12)])
def test_svd_values_only_raises_when_sweeps_run_out(monkeypatch, shape):
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 1)
    a = np.random.default_rng(4).standard_normal(shape)
    with pytest.raises(densemat.SvdConvergenceError) as err:
        densemat.svd(a, compute_uv=False)
    assert err.value.sweeps == 1 and err.value.residual > densemat.JACOBI_TOL


def test_svd_rank_deficient_completes_orthonormal_basis():
    # rank-1 3x3: two zero singular values must still give orthonormal U, V
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, -1.0, 3.0])
    a = np.outer(u, v)
    res = densemat.svd(a)
    assert res.s[0] > 0 and res.s[1] <= 1e-12 * res.s[0]
    assert np.linalg.norm(res.u.T @ res.u - np.eye(3)) < 1e-12
    assert np.linalg.norm(res.vt @ res.vt.T - np.eye(3)) < 1e-12
    assert np.linalg.norm(a - res.reconstruct()) < 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("shape, value", [((8, 3), 1.0), ((3, 3), 0.3), ((20, 20), 0.3)])
def test_svd_of_identical_columns_converges(shape, value):
    # a rotation leaves one column of rounding noise beside the other, which
    # never turns orthogonal; such a pair is not rotated. 8x3 and 3x3 are
    # swept on Python floats, 20x20 round-robin
    a = np.full(shape, value)
    ref = np.linalg.svd(a, compute_uv=False)
    for res in (densemat.svd(a), densemat.svd(a, compute_uv=False)):
        assert abs(res.s[0] - ref[0]) <= 1e-12 * ref[0]
        assert np.all(np.abs(res.s[1:] - ref[1:]) <= 1e-12 * ref[0])
    assert np.linalg.norm(a - densemat.svd(a).reconstruct()) < 1e-12 * np.linalg.norm(a)


def test_svd_wide_matrix_transpose_path():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 9))
    res = densemat.svd(a)
    assert np.allclose(res.s, np.linalg.svd(a, compute_uv=False), rtol=1e-11)
    assert np.linalg.norm(a - res.reconstruct()) < 1e-11


def test_svd_deterministic():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 6))
    assert a.size <= densemat.SMALL_MAX_ENTRIES  # swept on Python floats
    r1, r2 = densemat.svd(a), densemat.svd(a)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.s, r2.s)
    assert np.array_equal(r1.vt, r2.vt)


def test_svd_input_validation():
    with pytest.raises(ValueError):
        densemat.svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        densemat.svd(np.ones(4))
    with pytest.raises(ValueError):
        densemat.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def gaussian_elimination_solve(a, b):
    """Plain partial-pivoting solve used as an independent pinv oracle on
    square nonsingular systems."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = a.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, piv]] = a[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def test_pinv_inverts_nonsingular_square_matrices():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        p = densemat.pinv(a)
        ref = np.column_stack([gaussian_elimination_solve(a, e)
                               for e in np.eye(n)])
        assert np.allclose(p, ref, rtol=1e-9, atol=1e-10)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m, n = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        a = rng.standard_normal((m, n))
        p = densemat.pinv(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * scale
        assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * max(1.0, np.linalg.norm(p))
        assert np.linalg.norm((a @ p).T - a @ p) <= 1e-8
        assert np.linalg.norm((p @ a).T - p @ a) <= 1e-8


def test_pinv_zero_matrix_and_rank_tol():
    assert np.array_equal(densemat.pinv(np.zeros((3, 5))), np.zeros((5, 3)))
    # rank-1 matrix plus tiny noise: large rank_tol treats it as rank 1
    a = np.outer([1.0, 1.0], [1.0, 2.0]) + 1e-13
    p = densemat.pinv(a, rank_tol=1e-6)
    assert np.linalg.matrix_rank(p, tol=1e-8) == 1
    with pytest.raises(ValueError):
        densemat.pinv(a, rank_tol=0.0)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (10, 40)])
def test_pinv_of_an_svd_result_is_pinv_of_the_matrix(shape):
    a = np.random.default_rng(22).standard_normal(shape)
    for m in (a, np.zeros(shape)):
        assert np.array_equal(densemat.pinv(densemat.svd(m), 1e-6), densemat.pinv(m, 1e-6))


def test_cond_basics():
    assert densemat.cond(np.diag([4.0, 2.0])) == pytest.approx(2.0, rel=1e-14)
    assert densemat.cond(np.eye(5)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        densemat.cond(np.zeros((2, 2)))
    # numerical rank: third singular value below tolerance is dropped
    a = np.diag([1.0, 0.5, 1e-14])
    assert densemat.cond(a) == pytest.approx(2.0, rel=1e-10)


def test_op_and_fro_norms():
    a = np.diag([3.0, -1.0])
    assert densemat.op_norm(a) == pytest.approx(3.0, rel=1e-14)
    assert densemat.fro_norm(a) == pytest.approx(math.sqrt(10.0), rel=1e-14)


def _top_only_cases():
    rng = np.random.default_rng(21)
    cases = {f"{m}x{n}": rng.standard_normal((m, n))
             for m, n in [(3, 3), (8, 8), (20, 7), (7, 20), (64, 32), (32, 64),
                          (200, 64), (128, 256), (256, 200), (1, 7), (7, 1), (1, 1)]}
    cases["rank 3 of 30x9"] = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 9))
    cases["rank 5 of 40x60"] = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 60))
    cases["rank 1 of 6x5"] = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    cases["orthogonal 30x30"] = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    cases["orthonormal columns 256x200"] = np.linalg.qr(rng.standard_normal((256, 200)))[0]
    cases["identity 17"] = np.eye(17)
    cases["near-tied s1 s2"] = _with_singular_values(
        rng, 20, 6, np.array([1.0, 1.0 - 1e-10, 0.5, 0.3, 0.2, 0.1]))
    for factor in (1e-170, 1e-90, 1e+160):
        for shape in [(10, 6), (12, 30)]:
            cases[f"{shape[0]}x{shape[1]} x {factor:g}"] = rng.standard_normal(shape) * factor
    return cases


@pytest.mark.parametrize("name", sorted(_top_only_cases()))
def test_top_only_sigma1_matches_lapack(name):
    # tall, wide, square, rank-deficient, 1xn and nx1, exactly tied tops, a
    # 1e-10 near-tie and scales far from 1
    a = _top_only_cases()[name]
    res = densemat.svd(a, compute_uv=False, top_only=True)
    assert res.u is None and res.vt is None and res.s.shape == (1,)
    ref = np.linalg.norm(a, 2)
    assert abs(res.s[0] - ref) <= 1e-12 * ref
    assert densemat.op_norm(a) == res.s[0]


def test_top_only_exact_tie_gives_the_top():
    assert abs(densemat.op_norm(np.diag([3.0, 3.0, 1.0])) - 3.0) <= 1e-13 * 3.0


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (3, 4), (17, 17), (40, 9)])
def test_top_only_zero_matrix_is_zero(shape):
    assert densemat.svd(np.zeros(shape), compute_uv=False, top_only=True).s[0] == 0.0
    assert densemat.op_norm(np.zeros(shape)) == 0.0


@pytest.mark.parametrize("name", ["256x200", "orthonormal columns 256x200", "3x3"])
def test_top_only_reruns_are_bit_identical(name):
    a = _top_only_cases()[name]
    assert densemat.op_norm(a) == densemat.op_norm(a.copy())


def test_op_norm_runs_no_jacobi_sweep(monkeypatch):
    def forbidden(*args):
        raise AssertionError("op_norm ran a Jacobi sweep")

    monkeypatch.setattr(densemat, "_cyclic_sweep", forbidden)
    monkeypatch.setattr(densemat, "_round_robin_sweep", forbidden)
    for a in (_top_only_cases()[name] for name in ["3x3", "7x20", "256x200"]):
        ref = np.linalg.norm(a, 2)
        assert abs(densemat.op_norm(a) - ref) <= 1e-12 * ref
    with pytest.raises(AssertionError):
        densemat.svd(np.eye(3), compute_uv=False)  # the patch does bite


def _copy_then_scale_op_norm(a):
    """sigma_1 by Gram squaring of a scaled F-ordered copy of the input,
    written out: op_norm forms the Gram of the input itself and must agree
    with this bit for bit."""
    b = np.array(a.T if a.shape[0] < a.shape[1] else a, dtype=np.float64, order="F")
    _, exp = math.frexp(float(np.max(np.abs(b))))
    np.ldexp(b, -exp, out=b)
    return float(np.ldexp([densemat._top_singular_value(b)], exp)[0])


def _in_place_cases():
    rng = np.random.default_rng(43)
    cases = {}
    for m, n in [(40, 12), (12, 40), (200, 64), (64, 200)]:
        base = rng.standard_normal((m, n))
        for label, factor in [("2^250", 2.0 ** 250), ("2^-250", 2.0 ** -250),
                              ("2^260", 2.0 ** 260), ("2^-260", 2.0 ** -260),
                              ("1e-170", 1e-170), ("1e+160", 1e+160)]:
            cases[f"{m}x{n} x {label}"] = base * factor
        mixed = base.copy()
        mixed[rng.random((m, n)) < 0.5] *= 1e-170
        mixed[:, :3] *= 1e-170  # whole columns whose Gram entries underflow
        cases[f"{m}x{n} 1e-170 mixed with O(1)"] = mixed
    return cases


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(_in_place_cases()))
def test_op_norm_of_the_input_itself_is_bit_identical_to_a_scaled_copy(name, order):
    # both sides of the 2^256 guard, C- and F-ordered, tall and wide
    a = np.asarray(_in_place_cases()[name], order=order)
    assert densemat.op_norm(a) == _copy_then_scale_op_norm(a)


def test_op_norm_forms_the_gram_of_its_input_without_a_copy():
    # an F-ordered 784 x 4000 x, as IDX images load; a scaled copy would add x.nbytes
    x = np.asfortranarray(np.random.default_rng(47).random((784, 4000)))
    gram = 784 * 784 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        densemat.op_norm(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the squaring holds G and G @ G; the finiteness mask is one byte an entry
    assert peak <= 2 * gram + x.size + 65536


def test_householder_r_in_row_blocks_is_bit_identical_to_one_block(monkeypatch):
    a = np.random.default_rng(53).standard_normal((300, 40))
    monkeypatch.setattr(densemat, "HOUSEHOLDER_BLOCK_BYTES", a.nbytes)
    whole = densemat._householder_r(np.asfortranarray(a))
    for cap in (1, 8 * 300 * 3, 8 * 300 * 7 + 5):  # one row, three rows, a ragged last block
        monkeypatch.setattr(densemat, "HOUSEHOLDER_BLOCK_BYTES", cap)
        assert np.array_equal(densemat._householder_r(np.asfortranarray(a)), whole)


def test_householder_block_holds_every_benchmark_trailing_block():
    # perfbench's largest R-route input is wide's 256 x 200 Z_1: one block
    assert densemat.HOUSEHOLDER_BLOCK_BYTES >= max(1 << 20, 256 * 200 * 8)


def test_r_route_peaks_near_its_one_copy_of_the_input():
    a = np.random.default_rng(59).standard_normal((4000, 300))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        densemat.svd(a, compute_uv=False, extremes=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * a.nbytes


def test_top_only_raises_when_squarings_run_out(monkeypatch):
    monkeypatch.setattr(densemat, "MAX_SQUARINGS", 3)
    with pytest.raises(densemat.SvdConvergenceError) as err:
        densemat.op_norm(np.eye(5))
    assert err.value.sweeps == 3 and err.value.residual > densemat.SIGMA1_BRACKET
    assert "squarings" in str(err.value)


def test_top_only_needs_values_only():
    with pytest.raises(ValueError):
        densemat.svd(np.eye(3), top_only=True)
    with pytest.raises(ValueError):
        densemat.svd(np.eye(3), compute_uv=True, top_only=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2 ** 31))
def test_property_svd_reconstructs_and_pinv_solves(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-2, 3)
    res = densemat.svd(a)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * max(1.0, np.linalg.norm(a))
    p = densemat.pinv(a)
    # least-squares optimality: residual orthogonal to the column space
    b = rng.standard_normal(m)
    r = a @ (p @ b) - b
    assert np.linalg.norm(a.T @ r) <= 1e-8 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31), st.floats(0.1, 10.0))
def test_property_cond_scale_invariant(n, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    assert densemat.cond(scale * a) == pytest.approx(densemat.cond(a), rel=1e-9)


# ---------------------------------------------------------------------------
# extremes=True: sigma_1 by Gram squaring, sigma_min by Householder R
# ---------------------------------------------------------------------------

def _extremes(a):
    res = densemat.svd(a, compute_uv=False, extremes=True)
    assert res.u is None and res.vt is None and res.s.shape == (2,)
    return res.s


def _no_sweeps(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the R route ran a Jacobi sweep")

    monkeypatch.setattr(densemat, "_cyclic_sweep", forbidden)
    monkeypatch.setattr(densemat, "_round_robin_sweep", forbidden)


def _r_route_cases():
    rng = np.random.default_rng(31)
    cases = {f"{m}x{n}": rng.standard_normal((m, n))
             for m, n in [(256, 200), (128, 256), (64, 128), (128, 64), (200, 3), (3, 200)]}
    for m, n in [(120, 80), (80, 120)]:
        for kappa in (1e2, 1e4):
            s = np.logspace(0, -math.log10(kappa), min(m, n))
            cases[f"{m}x{n} kappa {kappa:g}"] = _with_singular_values(rng, m, n, s)
    for factor in (1e-170, 1e+160):
        cases[f"40x30 x {factor:g}"] = rng.standard_normal((40, 30)) * factor
    return cases


@pytest.mark.parametrize("name", sorted(_r_route_cases()))
def test_extremes_match_lapack_without_a_sweep(monkeypatch, name):
    # kappa <= 1e4, tall and wide, few columns and scales far from 1
    a = _r_route_cases()[name]
    assert a.size > densemat.EXTREMES_MIN_ENTRIES
    ref = np.linalg.svd(a, compute_uv=False)
    _no_sweeps(monkeypatch)
    s = _extremes(a)
    np.testing.assert_allclose(s, ref[[0, -1]], rtol=1e-12)
    assert s[0] == densemat.op_norm(a)


def _exact_s_min(mpmath, a) -> float:
    """sigma_min of the stored matrix from its Gram matrix in 40-digit arithmetic."""
    b = a if a.shape[0] >= a.shape[1] else a.T
    with mpmath.workdps(40):
        m = mpmath.matrix(b.tolist())
        return float(mpmath.sqrt(min(mpmath.eigsy(m.T * m, eigvals_only=True))))


@pytest.mark.parametrize("kappa", [1e5, 1e6, 1e7, 5e7])
def test_extremes_error_stays_within_ten_times_jacobi(monkeypatch, kappa):
    # Both errors are O(kappa eps), and so is LAPACK's, which is therefore no
    # oracle at this kappa: the reference is exact to far below either error.
    # The worst of six tall and wide matrices is compared, since a single
    # Jacobi result can land close to the truth by chance.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(math.log10(kappa)))
    s = np.logspace(0, -math.log10(kappa), 20)
    mats = [_with_singular_values(rng, m, n, s) for m, n in [(30, 20), (20, 30)] * 3]
    truth = [_exact_s_min(mpmath, a) for a in mats]
    jacobi_err = max(abs(densemat.svd(a, compute_uv=False).s[-1] - t) / t
                     for a, t in zip(mats, truth))
    _no_sweeps(monkeypatch)
    err = max(abs(_extremes(a)[1] - t) / t for a, t in zip(mats, truth))
    assert err <= 10.0 * jacobi_err


def _fallback_cases():
    rng = np.random.default_rng(37)
    near_deficient = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
    near_deficient += 1e-14 * rng.standard_normal((40, 30))
    at_rank_tol = _with_singular_values(rng, 40, 30, np.r_[np.linspace(1.0, 0.1, 29), 1e-10])
    zero_column = rng.standard_normal((40, 30))
    zero_column[:, 4] = 0.0
    return {"near rank 3 of 40x30": near_deficient, "s_min at 1e-10 s1": at_rank_tol,
            "40x30 zero column": zero_column, "zero 20x20": np.zeros((20, 20))}


@pytest.mark.parametrize("name", sorted(_fallback_cases()))
def test_extremes_fall_back_to_the_jacobi_ends(name):
    a = _fallback_cases()[name]
    assert a.size > densemat.EXTREMES_MIN_ENTRIES
    assert np.array_equal(_extremes(a), densemat.svd(a, compute_uv=False).s[[0, -1]])


@pytest.mark.parametrize("name", sorted(PYTHON_SWEEP_BELOW))
def test_extremes_below_the_crossover_are_the_jacobi_ends(name):
    a = PYTHON_SWEEP_BELOW[name]
    assert a.size <= densemat.EXTREMES_MIN_ENTRIES
    assert np.array_equal(_extremes(a), densemat.svd(a, compute_uv=False).s[[0, -1]])


@pytest.mark.parametrize("name", ["256x200", "128x256", "120x80 kappa 10000"])
def test_extremes_reruns_are_bit_identical(name):
    a = _r_route_cases()[name]
    assert np.array_equal(_extremes(a), _extremes(a.copy()))


def test_extremes_needs_values_only_and_not_top_only():
    with pytest.raises(ValueError):
        densemat.svd(np.eye(3), extremes=True)
    with pytest.raises(ValueError):
        densemat.svd(np.eye(3), compute_uv=False, top_only=True, extremes=True)


def test_cond_keeps_numerical_rank_above_the_crossover(monkeypatch):
    rng = np.random.default_rng(41)
    full = rng.standard_normal((60, 40))
    ref = np.linalg.svd(full, compute_uv=False)
    assert densemat.cond(full) == pytest.approx(ref[0] / ref[-1], rel=1e-12)
    # rank 5: the extremes say rank-deficient, and the whole spectrum finds s_5
    deficient = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40))
    s = densemat.svd(deficient, compute_uv=False).s
    assert densemat.cond(deficient) == s[0] / s[4]
    _no_sweeps(monkeypatch)
    assert densemat.cond(full) == pytest.approx(ref[0] / ref[-1], rel=1e-12)


def test_cond_sweeps_a_rank_deficient_matrix_once(monkeypatch):
    rng = np.random.default_rng(41)
    deficient = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40))
    sweeps = []
    real = densemat._round_robin_sweep

    def counting(*args):
        sweeps.append(1)
        return real(*args)

    monkeypatch.setattr(densemat, "_round_robin_sweep", counting)
    s = densemat.svd(deficient, compute_uv=False).s
    one_svd = len(sweeps)
    assert densemat.cond(deficient) == s[0] / s[4]
    assert len(sweeps) == 2 * one_svd  # the values-only svd above, and cond's one


def test_densemat_imports_only_numpy_and_the_stdlib():
    # the np.linalg oracle stays in the tests
    tree = ast.parse(Path(densemat.__file__).read_text())
    linalg = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "linalg"]
    assert not linalg, f"densemat.py reads .linalg on lines {linalg}"
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "densemat.py imports from the package"
            modules.add(node.module.split(".")[0])
    assert modules - {"numpy"} <= sys.stdlib_module_names, modules
