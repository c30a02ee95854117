import tracemalloc

import numpy as np
import pytest

from nclab import data, densemat, network, ntk, verify
from nclab.network import (ActivationSpec, NetworkConfig, ParamSet, backprop,
                           forward)
from nclab.trainer import InitSpec, init_params

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


def random_net(seed, input_dim, widths, l1):
    cfg = NetworkConfig(input_dim=input_dim, widths=tuple(widths), l1=l1,
                        l2=len(widths) - l1, activation=SMOOTH)
    rng = np.random.default_rng(seed)
    params = ParamSet([0.6 * rng.standard_normal(cfg.layer_shape(i))
                       for i in range(1, cfg.depth + 1)])
    return cfg, params, rng


def test_pullback_single_linear_layer_is_axt():
    # Z = WX, so grad_W Tr[Z A^T] = A X^T
    cfg, params, rng = random_net(0, 5, [3], l1=0)
    x = rng.standard_normal((5, 7))
    a = rng.standard_normal((3, 7))
    g = backprop(cfg, params, forward(cfg, params, x), a)
    np.testing.assert_allclose(g.weights[0], a @ x.T, atol=1e-12)


def test_opnorm_single_linear_layer_is_x_opnorm_squared():
    # Theta(A) = A X^T X, so the top eigenvalue is s_max(X)^2
    cfg, params, rng = random_net(1, 6, [4], l1=0)
    x = rng.standard_normal((6, 9))
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    assert rep.converged
    assert rep.rho == pytest.approx(densemat.op_norm(x) ** 2, rel=1e-6)


def _single_linear_layer(singular_values, k=2, n=8, seed=0):
    """One linear layer whose input has the given singular values, so the NTK
    is I_K (x) X^T X with top eigenvalue s_1^2."""
    rng = np.random.default_rng(seed)
    d = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((n, d)))
    x = u @ np.diag(singular_values) @ v.T
    cfg = NetworkConfig(input_dim=d, widths=(k,), l1=0, l2=1, activation=SMOOTH)
    return cfg, ParamSet([rng.standard_normal((k, d))]), x


def test_opnorm_near_tied_top_eigenvalues():
    # lambda_2 / lambda_1 = 0.98: the stopping rule must bound the error
    cfg, params, x = _single_linear_layer([1.0, 0.99, 0.7, 0.5, 0.3, 0.1])
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    assert rep.converged
    assert abs(rep.rho - 1.0) <= 1e-12
    assert rep.residual <= 1e-9


def test_opnorm_of_a_zero_ntk_is_zero():
    cfg, params, _ = _single_linear_layer([1.0, 0.5])
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, np.zeros((2, 8))))
    assert (rep.rho, rep.iterations, rep.residual, rep.converged) == (0.0, 1, 0.0, True)


def test_opnorm_of_a_single_probe_entry():
    cfg = NetworkConfig(input_dim=3, widths=(1,), l1=0, l2=1, activation=SMOOTH)
    x = np.array([[1.0], [2.0], [2.0]])
    params = ParamSet([np.ones((1, 3))])
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    assert rep.iterations == 1 and rep.converged
    assert rep.rho == pytest.approx(9.0, rel=1e-15)


def test_opnorm_stops_on_an_invariant_subspace():
    # X^T X has two distinct eigenvalues, so every Krylov space has dimension
    # at most 2 and beta_2 vanishes well before the K*N = 10 probe dimensions
    cfg, params, x = _single_linear_layer([2.0, 2.0, 1.0, 1.0, 1.0], n=5)
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    assert rep.iterations == 2 and rep.converged
    assert rep.rho == pytest.approx(4.0, rel=1e-14)
    assert rep.residual <= 1e-13


def test_opnorm_at_the_basis_cap_reports_not_converged(monkeypatch):
    cfg, params, x = _single_linear_layer([1.0, 0.99, 0.7, 0.5, 0.3, 0.1])
    monkeypatch.setattr(ntk, "LANCZOS_MAX_BASIS", 2)
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    assert rep.iterations == 2 and not rep.converged
    assert np.isfinite(rep.residual) and rep.residual > 1e-6
    assert 0.0 < rep.rho <= 1.0 + 1e-15  # a Ritz value is a lower end


def test_opnorm_identity_linear_head_counts_layers():
    # L2 identity layers on orthonormal inputs: each layer contributes
    # ||A Z_{l-1}^T||^2 = ||A||^2, so Theta = L2 * I and rho = L2
    for l2 in (1, 2, 3):
        cfg = NetworkConfig(input_dim=4, widths=(4,) * l2, l1=0, l2=l2,
                            activation=SMOOTH)
        params = ParamSet([np.eye(4) for _ in range(l2)])
        rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, np.eye(4)))
        assert rep.rho == pytest.approx(float(l2), rel=1e-7)


def test_pullback_matches_finite_differences():
    cfg, params, rng = random_net(2, 4, [5, 3, 2], l1=1)
    x = rng.standard_normal((4, 6))
    a = rng.standard_normal((2, 6))
    g = backprop(cfg, params, forward(cfg, params, x), a)
    h = 1e-6
    for layer in range(cfg.depth):
        w = params.weights[layer]
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
            wp = [m.copy() for m in params.weights]
            wm = [m.copy() for m in params.weights]
            wp[layer][idx] += h
            wm[layer][idx] -= h
            fp = float(np.sum(forward(cfg, ParamSet(wp), x).z[-1] * a))
            fm = float(np.sum(forward(cfg, ParamSet(wm), x).z[-1] * a))
            assert g.weights[layer][idx] == pytest.approx(
                (fp - fm) / (2 * h), rel=1e-5, abs=1e-7)


def test_quadratic_form_equals_pullback_norm_and_apply_inner_product():
    cfg, params, rng = random_net(3, 4, [5, 3], l1=1)
    x = rng.standard_normal((4, 8))
    a = rng.standard_normal((3, 8))
    trace = forward(cfg, params, x)
    q = ntk.ntk_quadratic_form(cfg, params, trace, a)
    g = ntk.pullback(cfg, params, trace, a)
    assert q == pytest.approx(g.norm() ** 2, rel=1e-12)
    theta_a = ntk.pushforward(cfg, params, trace, g)
    assert q == pytest.approx(float(np.sum(a * theta_a)), rel=1e-10)


def test_dense_ntk_agrees_with_matrix_free_path():
    cfg, params, rng = random_net(4, 3, [4, 2], l1=1)
    x = rng.standard_normal((3, 5))
    trace = forward(cfg, params, x)
    theta = ntk.dense_ntk(cfg, params, trace)
    np.testing.assert_allclose(theta, theta.T, atol=1e-10)
    for seed in range(3):
        a = np.random.default_rng(100 + seed).standard_normal((2, 5))
        direct = (theta @ a.reshape(-1)).reshape(2, 5)
        np.testing.assert_allclose(
            ntk.pushforward(cfg, params, trace, ntk.pullback(cfg, params, trace, a)),
            direct, rtol=1e-8, atol=1e-10)
    rep = ntk.ntk_opnorm(cfg, params, trace)
    eigs = np.linalg.eigvalsh(theta)
    assert rep.rho == pytest.approx(eigs[-1], rel=1e-6)


def test_dense_jacobian_size_guard():
    cfg, params, rng = random_net(5, 40, [40, 40, 40], l1=1)
    x = rng.standard_normal((40, 50))
    with pytest.raises(ValueError, match="dense"):
        ntk.dense_jacobian(cfg, params, forward(cfg, params, x))


def test_opnorm_invariant_under_sample_permutation():
    cfg, params, rng = random_net(6, 4, [5, 3], l1=1)
    x = rng.standard_normal((4, 7))
    perm = rng.permutation(7)
    r1 = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x))
    r2 = ntk.ntk_opnorm(cfg, params, forward(cfg, params, x[:, perm]))
    assert r1.rho == pytest.approx(r2.rho, rel=1e-6)


@pytest.mark.parametrize("l1", [0, 1, 2])
def test_pushforward_matches_central_difference_of_forward(l1):
    cfg, params, rng = random_net(9 + l1, 4, [5, 4, 3], l1=l1)
    x = rng.standard_normal((4, 6))
    tangent = ParamSet([rng.standard_normal(w.shape) for w in params.weights])
    jvp = ntk.pushforward(cfg, params, forward(cfg, params, x), tangent)
    h = 1e-6
    plus = ParamSet([w + h * t for w, t in zip(params.weights, tangent.weights)])
    minus = ParamSet([w - h * t for w, t in zip(params.weights, tangent.weights)])
    fd = (forward(cfg, plus, x).z[-1] - forward(cfg, minus, x).z[-1]) / (2 * h)
    np.testing.assert_allclose(jvp, fd, rtol=1e-6, atol=1e-8)


def test_power_iteration_reads_the_forward_trace(monkeypatch):
    # ntk_opnorm reads the caller's trace and evaluates no activation at all
    cfg, params, rng = random_net(12, 4, [5, 4, 3], l1=2)
    trace = forward(cfg, params, rng.standard_normal((4, 6)))
    calls = []
    for name in ("act_apply", "act_grad"):
        real = getattr(network, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module in (network, ntk):  # every binding site of the name
            monkeypatch.setattr(module, name, counting, raising=False)
    rep = ntk.ntk_opnorm(cfg, params, trace)
    assert rep.iterations > 1
    assert calls == []


def test_dense_ntk_agreement_reads_sigma1_from_op_norm(monkeypatch):
    calls = []
    real = densemat.op_norm

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(densemat, "op_norm", counting)
    ok, detail = verify.check_dense_ntk_agreement()
    assert ok, detail
    assert calls == [(10, 10)]  # the dense NTK of 2 outputs at 5 points


def test_ntk_opnorm_refuses_a_state_whose_ntk_overflows():
    cfg, params, rng = random_net(3, 4, [8, 4, 3], l1=1)
    params.weights[0] *= 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        trace = forward(cfg, params, rng.standard_normal((4, 6)))
        with pytest.raises(FloatingPointError, match="not finite"):
            ntk.ntk_opnorm(cfg, params, trace)


def test_wide_benchmark_net_at_init_keeps_its_ntk_report():
    # 25 Lanczos steps, so the basis grows well past any first allocation;
    # pinned from a basis reserved in full up front, which growing it row by
    # row must match bit for bit
    ds = data.synth_gaussian(64, 10, 20, 1.0, 0.1, 0, True)
    cfg = NetworkConfig(input_dim=64, widths=(256, 128, 64, 10, 10), l1=3, l2=2,
                        activation=SMOOTH)
    params = init_params(cfg, InitSpec(), 0)
    rep = ntk.ntk_opnorm(cfg, params, forward(cfg, params, ds.x))
    assert (rep.rho.hex(), rep.residual.hex(), rep.iterations, rep.converged) == (
        "0x1.700cfec750fe0p+6", "0x1.3305f87c3cfbap-28", 25, True)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lanczos_basis_holds_only_the_rows_it_writes():
    # K * N = 40,000 probe entries: 256 reserved rows would take 82 MB
    cfg, params, rng = random_net(21, 8, [16, 10], l1=1)
    trace = forward(cfg, params, rng.standard_normal((8, 4000)))
    probe = rng.standard_normal(trace.z[-1].shape)
    _, apply_peak = _traced_peak(lambda: ntk.pushforward(
        cfg, params, trace, ntk.pullback(cfg, params, trace, probe)))
    rep, peak = _traced_peak(lambda: ntk.ntk_opnorm(cfg, params, trace))
    row = trace.z[-1].nbytes
    assert rep.converged and rep.iterations < 100
    # the basis, one NTK application and a few probe-sized vectors
    assert peak <= 2 * rep.iterations * row + apply_peak + 4 * row
