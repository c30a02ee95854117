import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr  # an independent normal CDF, as a test oracle

from nclab import network
from nclab.network import (ActivationSpec, NetworkConfig, ParamSet, act_apply,
                           act_grad, backprop,
                           check_activation_bounds, forward, gradient, loss,
                           partial_product)

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def mollified_leaky_relu(x, gamma, beta):
    """Quadrature oracle: Gaussian smoothing of max(gamma*u, u), shifted so the
    result vanishes at zero."""
    s = (1.0 - gamma) / (math.sqrt(2.0 * math.pi) * beta)

    def smoothed(t):
        val, _ = quad(lambda u: max(gamma * u, u)
                      * math.exp(-0.5 * ((u - t) / s) ** 2)
                      / (s * math.sqrt(2.0 * math.pi)),
                      t - 12 * s, t + 12 * s, limit=200)
        return val

    return smoothed(x) - smoothed(0.0)


@pytest.mark.parametrize("gamma,beta", [(0.1, 1.0), (0.3, 2.0), (0.7, 4.0)])
def test_smoothed_activation_matches_quadrature(gamma, beta):
    spec = ActivationSpec("smoothed_leaky_relu", gamma=gamma, beta=beta)
    for x in (-2.0, -0.3, -0.01, 0.0, 0.05, 0.4, 3.0):
        assert float(act_apply(spec, x)) == pytest.approx(
            mollified_leaky_relu(x, gamma, beta), abs=2e-9)


def test_smoothed_activation_vanishes_at_zero():
    for gamma, beta in ((0.1, 1.0), (0.5, 3.0), (0.9, 10.0)):
        spec = ActivationSpec("smoothed_leaky_relu", gamma=gamma, beta=beta)
        assert abs(float(act_apply(spec, 0.0))) <= 1e-16


def test_activation_derivative_matches_finite_differences():
    h = 1e-6
    for x in np.linspace(-3, 3, 31):
        fd = (float(act_apply(SMOOTH, x + h))
              - float(act_apply(SMOOTH, x - h))) / (2 * h)
        assert float(act_grad(SMOOTH, x)) == pytest.approx(fd, abs=1e-8)


def test_activation_derivative_range_and_asymptotes():
    xs = np.linspace(-40, 40, 4001)
    d = act_grad(SMOOTH, xs)
    assert np.all(d >= SMOOTH.gamma - 1e-12)
    assert np.all(d <= 1.0 + 1e-12)
    assert float(act_grad(SMOOTH, -40.0)) == pytest.approx(SMOOTH.gamma, abs=1e-12)
    assert float(act_grad(SMOOTH, 40.0)) == pytest.approx(1.0, abs=1e-12)


def test_activation_bounds_report():
    rep = check_activation_bounds(SMOOTH)
    assert rep["deriv_in_range"]
    assert rep["abs_bound_ok"]
    assert rep["deriv_lipschitz_ok"]
    assert rep["deriv_lipschitz_est"] <= SMOOTH.beta * (1 + 1e-6)


def test_plain_activations():
    relu = ActivationSpec("relu")
    leaky = ActivationSpec("leaky_relu", gamma=0.2)
    assert float(act_apply(relu, -1.0)) == 0.0
    assert float(act_apply(relu, 2.0)) == 2.0
    assert float(act_apply(leaky, -1.0)) == pytest.approx(-0.2)
    assert float(act_grad(leaky, -1.0)) == pytest.approx(0.2)


def test_activation_spec_validation():
    with pytest.raises(ValueError):
        ActivationSpec("tanh")
    with pytest.raises(ValueError):
        ActivationSpec("smoothed_leaky_relu", gamma=1.5, beta=2.0)
    with pytest.raises(ValueError):
        ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=0.5)


# ---------------------------------------------------------------------------
# config / params / forward
# ---------------------------------------------------------------------------

def tiny_net(seed=0, l1=2, l2=2, d=3, widths=(5, 4, 3, 2), n=6):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(input_dim=d, widths=widths, l1=l1, l2=l2,
                        activation=SMOOTH)
    params = ParamSet([rng.standard_normal(cfg.layer_shape(i)) / 2
                       for i in range(1, cfg.depth + 1)])
    x = rng.standard_normal((d, n))
    y = np.zeros((widths[-1], n))
    y[rng.integers(0, widths[-1], size=n), np.arange(n)] = 1.0
    return cfg, params, x, y


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=3, widths=(4, 2), l1=1, l2=2, activation=SMOOTH)
    with pytest.raises(ValueError):
        NetworkConfig(input_dim=0, widths=(4,), l1=0, l2=1, activation=SMOOTH)
    cfg = NetworkConfig(input_dim=3, widths=(8, 4, 2), l1=1, l2=2,
                        activation=SMOOTH)
    assert cfg.depth == 3 and cfg.n_classes == 2
    assert cfg.layer_shape(1) == (8, 3)
    assert cfg.layer_shape(3) == (2, 4)
    assert cfg.is_pyramidal(8) and not cfg.is_pyramidal(9)


def test_forward_matches_manual_recomputation():
    cfg, params, x, _ = tiny_net()
    trace = forward(cfg, params, x)
    cur = x
    for layer in range(1, cfg.depth + 1):
        pre = params.weights[layer - 1] @ cur
        if layer <= cfg.l1:
            assert np.allclose(trace.dact[layer - 1], act_grad(SMOOTH, pre), atol=1e-14)
            cur = np.vectorize(lambda t: float(act_apply(SMOOTH, t)))(pre)
        else:
            cur = pre
        assert np.allclose(trace.z[layer], cur, atol=1e-12)


def test_forward_evaluates_one_normal_cdf_per_nonlinear_layer(monkeypatch):
    cfg, params, x, _ = tiny_net(l1=2)
    calls = []
    real = network._smoothed_grad

    def counting(spec, u, *args):
        calls.append(np.shape(u))
        return real(spec, u, *args)

    monkeypatch.setattr(network, "_smoothed_grad", counting)
    trace = forward(cfg, params, x)
    assert calls == [(5, 6), (4, 6)]
    # the activation written through its derivative is the activation
    for w, below, z in zip(params.weights, trace.z, trace.z[1:cfg.l1 + 1]):
        np.testing.assert_allclose(z, act_apply(SMOOTH, w @ below), rtol=0, atol=0)


def test_one_shot_forward_keeps_only_layer_outputs_and_dact():
    # the work pairs of act_grad and act_apply are not part of the trace
    cfg = NetworkConfig(input_dim=49, widths=(256, 64, 10, 10), l1=2, l2=2,
                        activation=SMOOTH)
    rng = np.random.default_rng(0)
    params = ParamSet([rng.standard_normal(cfg.layer_shape(i)) / 8.0 for i in range(1, 5)])
    x = np.asfortranarray(rng.random((49, 4000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = forward(cfg, params, x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.scratch is None
    kept = sum(a.nbytes for a in trace.z[1:] + trace.dact)
    assert kept <= retained <= kept + 64 * 1024


def test_fused_activation_matches_the_mollified_form():
    # sigma(x) = gamma x + (1 - gamma)(x Phi(x/s) + s phi(x/s)) - shift
    s = SMOOTH.kernel_sd
    x = np.linspace(-6.0, 6.0, 1201)
    u = x / s
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    direct = (SMOOTH.gamma * x + (1.0 - SMOOTH.gamma) * (x * ndtr(u) + s * pdf)
              - SMOOTH.shift)
    np.testing.assert_allclose(act_apply(SMOOTH, x), direct, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("beta", [1.0, 2.0, 5.0])
def test_normal_cdf_kernel_matches_mpmath(gamma, beta):
    # Phi recovered from sigma' = gamma + (1 - gamma) Phi(x / s), in exact arithmetic
    mpmath = pytest.importorskip("mpmath")
    spec = ActivationSpec("smoothed_leaky_relu", gamma=gamma, beta=beta)
    x = np.concatenate([np.linspace(-50.0, 50.0, 2001), np.linspace(-0.6, 0.6, 241),
                        [-0.0, 5e-324, -1e-300, 1e-300]])
    d = act_grad(spec, x)
    with mpmath.workdps(40):
        s, g = mpmath.mpf(spec.kernel_sd), mpmath.mpf(gamma)
        err = max(abs((mpmath.mpf(di) - g) / (1 - g) - mpmath.ncdf(mpmath.mpf(xi) / s))
                  for xi, di in zip(x, d))
    assert err <= 5e-16


def test_normal_cdf_kernel_takes_extreme_inputs_without_warnings():
    x = np.array([np.inf, -np.inf, np.nan, -0.0, 1e300, -1e300])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        d = act_grad(SMOOTH, x)
        v = act_apply(SMOOTH, x)
    g = SMOOTH.gamma
    np.testing.assert_allclose(d[[0, 1, 3, 4, 5]], [1.0, g, g + (1.0 - g) / 2, 1.0, g],
                               rtol=0, atol=3e-16)
    assert np.isnan(d[2]) and np.isnan(v[2])
    assert v[0] == np.inf and v[1] == -np.inf and abs(v[3]) <= 1e-16
    np.testing.assert_allclose(v[4:], [1e300, -g * 1e300], rtol=3e-16)


def test_forward_shape_errors():
    cfg, params, x, _ = tiny_net()
    with pytest.raises(ValueError, match="rows"):
        forward(cfg, params, x[:-1])
    bad = params.copy()
    bad.weights[1] = bad.weights[1][:, :-1]
    with pytest.raises(ValueError, match="layer 2"):
        forward(cfg, bad, x)


def test_loss_values():
    cfg = NetworkConfig(input_dim=2, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    params = ParamSet([np.eye(2)])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.zeros((2, 2))
    clam, c0 = loss(cfg, params, x, y, lam=0.5)
    assert c0 == pytest.approx(1.0)           # 0.5 * ||I||_F^2
    assert clam == pytest.approx(1.0 + 0.5 * 0.5 * 2.0)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def finite_difference_gradient(cfg, params, x, y, lam, h=1e-5):
    out = []
    for li, w in enumerate(params.weights):
        g = np.zeros_like(w)
        for flat in range(w.size):
            plus = params.copy()
            plus.weights[li].flat[flat] += h
            minus = params.copy()
            minus.weights[li].flat[flat] -= h
            g.flat[flat] = (loss(cfg, plus, x, y, lam)[0]
                            - loss(cfg, minus, x, y, lam)[0]) / (2 * h)
        out.append(g)
    return ParamSet(out)


@pytest.mark.parametrize("seed,l1,l2,widths", [
    (0, 2, 2, (5, 4, 3, 2)),
    (1, 0, 2, (4, 3)),     # purely linear
    (2, 2, 0, (4, 3)),     # nonlinear top layer
    (3, 1, 1, (6, 2)),
])
def test_gradient_matches_finite_differences(seed, l1, l2, widths):
    cfg, params, x, y = tiny_net(seed=seed, l1=l1, l2=l2, widths=widths)
    lam = 0.07
    g = gradient(cfg, params, x, y, lam)
    fd = finite_difference_gradient(cfg, params, x, y, lam)
    assert g.dist(fd) <= 1e-6 * max(1.0, fd.norm())


def test_single_linear_layer_gradient_closed_form():
    cfg = NetworkConfig(input_dim=3, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 3))
    x = rng.standard_normal((3, 5))
    y = rng.standard_normal((2, 5))
    g = gradient(cfg, ParamSet([w]), x, y, lam=0.1)
    expected = (w @ x - y) @ x.T + 0.1 * w
    assert np.allclose(g.weights[0], expected, atol=1e-12)


def test_backprop_of_residual_equals_unregularized_gradient():
    cfg, params, x, y = tiny_net(seed=6)
    trace = forward(cfg, params, x)
    g = gradient(cfg, params, x, y, 0.0)
    pb = backprop(cfg, params, trace, trace.z[-1] - y)
    assert g.dist(pb) <= 1e-12 * max(1.0, g.norm())


def test_partial_product_and_range_check():
    cfg, params, x, _ = tiny_net()
    prod = partial_product(cfg, params, 4, 3)
    assert np.allclose(prod, params.weights[3] @ params.weights[2], atol=1e-14)
    assert np.allclose(partial_product(cfg, params, 3, 3), params.weights[2])
    with pytest.raises(ValueError):
        partial_product(cfg, params, 4, 2)  # layer 2 is nonlinear
    with pytest.raises(ValueError):
        partial_product(cfg, params, 3, 4)


def test_paramset_algebra():
    a = ParamSet([np.ones((2, 2)), np.zeros((1, 2))])
    b = ParamSet([np.full((2, 2), 2.0), np.ones((1, 2))])
    assert a.norm() == pytest.approx(2.0)
    assert a.dist(b) == pytest.approx(math.sqrt(4.0 + 2.0))
