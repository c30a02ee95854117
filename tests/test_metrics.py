import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import densemat, metrics
from nclab.metrics import ClassIndex
from nclab.network import ActivationSpec, NetworkConfig, ParamSet, act_apply, forward

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


def test_class_index_validation():
    idx = ClassIndex((2, 3))
    assert idx.n_classes == 2 and idx.total == 5
    assert list(idx.slices()) == [slice(0, 2), slice(2, 5)]
    with pytest.raises(ValueError):
        ClassIndex(())
    with pytest.raises(ValueError):
        ClassIndex((2, 0))


@pytest.mark.parametrize("counts", [(3, 5, 7), (20,) * 10, (4, 1)])
def test_s_k_of_one_hot_labels_is_the_root_of_the_smallest_count(counts):
    idx = ClassIndex(counts)
    assert idx.sK_y == math.sqrt(min(counts))
    y = np.repeat(np.eye(len(counts)), counts, axis=1)  # one-hot, grouped by class
    assert idx.sK_y == pytest.approx(np.linalg.svd(y, compute_uv=False)[-1], rel=1e-14)


def test_class_means_hand_example():
    z = np.array([[1.0, 3.0, -1.0, -3.0],
                  [0.0, 0.0, 0.0, 0.0]])
    zbar, mu_g = metrics.class_means(z, ClassIndex((2, 2)))
    assert np.allclose(zbar, [[2.0, -2.0], [0.0, 0.0]])
    assert np.allclose(mu_g, [0.0, 0.0])
    with pytest.raises(ValueError):
        metrics.class_means(z, ClassIndex((2, 3)))


def test_nc1_hand_example():
    # within-class variance 1 per point, class means at +-2 around the origin:
    # tr(Sigma_W) = 4/4 = 1, tr(Sigma_B) = (4 + 4)/2 = 4
    z = np.array([[1.0, 3.0, -1.0, -3.0],
                  [0.0, 0.0, 0.0, 0.0]])
    assert metrics.nc1(z, ClassIndex((2, 2))) == pytest.approx(0.25, rel=1e-14)


def test_nc1_collapsed_is_zero_and_degenerate_raises():
    z = np.array([[1.0, 1.0, -1.0, -1.0]])
    assert metrics.nc1(z, ClassIndex((2, 2))) == 0.0
    same = np.ones((2, 4))
    with pytest.raises(ValueError, match="degenerate"):
        metrics.nc1(same, ClassIndex((2, 2)))
    with pytest.raises(ValueError):
        metrics.nc1(z, ClassIndex((4,)))


def test_nc1_invariant_under_orthogonal_maps():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 9))
    idx = ClassIndex((3, 3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert metrics.nc1(q @ z, idx) == pytest.approx(metrics.nc1(z, idx), rel=1e-10)


def test_nc2_is_condition_of_class_means():
    # features equal to their class means: columns (2,0) and (0,1)
    z = np.array([[2.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    idx = ClassIndex((2, 2))
    assert metrics.nc2(metrics.class_means(z, idx)[0]) == pytest.approx(2.0, rel=1e-12)


def test_nc3_alignment_extremes():
    idx = ClassIndex((2, 2))
    z = np.array([[1.0, 2.0, 0.0, 0.0],
                  [0.0, 0.0, 3.0, 1.0]])
    w_aligned = np.array([[5.0, 0.0], [0.0, 0.25]])
    assert metrics.nc3(z, w_aligned, idx) == pytest.approx(1.0, rel=1e-14)
    w_orth = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert metrics.nc3(z, w_orth, idx) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError, match="zero vector"):
        metrics.nc3(np.zeros((2, 4)), w_aligned, idx)
    with pytest.raises(ValueError, match="rows"):
        metrics.nc3(z, np.ones((3, 2)), idx)


def test_nc3_matches_per_sample_loop_with_uneven_classes():
    rng = np.random.default_rng(11)
    idx = ClassIndex((1, 4, 2, 5))
    z = rng.standard_normal((6, idx.total))
    w = rng.standard_normal((4, 6))
    total = 0.0
    for c, s in enumerate(idx.slices()):
        for i in range(s.start, s.stop):
            total += float(z[:, i] @ w[c]) / (np.linalg.norm(z[:, i]) * np.linalg.norm(w[c]))
    assert metrics.nc3(z, w, idx) == pytest.approx(total / idx.total, rel=1e-12)
    z[:, 6] = 0.0  # the second column of class 2
    with pytest.raises(ValueError, match=r"class 2, column 6"):
        metrics.nc3(z, w, idx)
    w[3] = 0.0
    z[:, 6] = 1.0
    with pytest.raises(ValueError, match=r"class 3, column 7"):
        metrics.nc3(z, w, idx)


def test_nc3_scale_invariance():
    # rescaling features and weights leaves the alignment unchanged, so the
    # plain metric doubles as its rescaled variant
    rng = np.random.default_rng(5)
    idx = ClassIndex((3, 3))
    z = rng.standard_normal((4, 6))
    w = rng.standard_normal((2, 4))
    base = metrics.nc3(z, w, idx)
    assert metrics.nc3(7.3 * z, w / 5.1, idx) == pytest.approx(base, rel=1e-12)


def test_balancedness_gap_hand_example():
    w = np.diag([2.0, 1.0])           # W W^T = diag(4, 1)
    w_next = np.array([[1.0, 0.0]])   # W'^T W' = diag(1, 0)
    gap = metrics.balancedness_gap(w_next, w)
    assert gap == pytest.approx(3.0, rel=1e-12)
    # ||W'||_op^2 = 1 and ||W||_op^2 = 4 are the two Gram operator norms
    ratio = metrics.balancedness_ratio(gap, densemat.op_norm(w_next), densemat.op_norm(w))
    assert ratio == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        metrics.balancedness_gap(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        metrics.balancedness_ratio(0.0, densemat.op_norm(np.zeros((2, 2))),
                                   densemat.op_norm(np.zeros((2, 2))))


def test_balancedness_gap_zero_for_balanced_pair():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = np.array([2.0, 1.0, 0.5])
    w = (q * s)                        # W = Q diag(s)
    w_next = (rng.standard_normal((3, 3)))
    qn, _ = np.linalg.qr(w_next)
    w_next = qn * s @ q.T              # W'^T W' = Q diag(s^2) Q^T = W W^T
    assert metrics.balancedness_gap(w_next, w) <= 1e-12


def test_negativity_leaky_relu():
    leaky = ActivationSpec("leaky_relu", gamma=0.25)
    pos = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert metrics.negativity(pos, act_apply(leaky, pos)) == 0.0
    neg = np.array([[-2.0, 0.0], [0.0, -2.0]])
    # A - sigma(A) = 0.75*A on the negative part, ratio = 0.75
    assert metrics.negativity(neg, act_apply(leaky, neg)) == pytest.approx(0.75, rel=1e-12)
    with pytest.raises(ValueError):
        metrics.negativity(np.zeros((2, 2)), np.zeros((2, 2)))


def test_negativity_of_a_wide_layer_holds_one_layer_sized_temporary():
    # A - sigma(A) is the one layer-sized temporary: each op_norm adds only
    # 256 x 256 Grams and a finiteness mask, no scaled copy of its argument
    pre = np.random.default_rng(53).standard_normal((256, 4000))
    activated = act_apply(SMOOTH, pre)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        metrics.negativity(pre, activated)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * pre.nbytes

def test_extract_thm1_inputs_on_hand_built_net():
    cfg = NetworkConfig(input_dim=2, widths=(2, 2), l1=0, l2=2,
                        activation=SMOOTH)
    w1 = np.diag([1.0, 1.0])
    w2 = np.diag([2.0, 0.5])
    params = ParamSet([w1, w2])
    x = np.eye(2)
    y = np.eye(2)
    trace = forward(cfg, params, x)
    gaps = {1: metrics.balancedness_gap(w2, w1)}
    norms = {1: densemat.op_norm(w1), 2: densemat.op_norm(w2)}
    eps1, eps2, r = metrics.extract_thm1_inputs(cfg, trace, y, gaps, norms)
    # Z_2 = diag(2, .5): eps1 = ||diag(1, -.5)||_F
    assert eps1 == pytest.approx(math.sqrt(1.25), rel=1e-12)
    # gap = ||W2^T W2 - W1 W1^T||_op = ||diag(3, -0.75)||_op
    assert eps2 == pytest.approx(3.0, rel=1e-12)
    # r = max(||Z_0||, ||Z_1||, ||W_1||, ||W_2||) = 2
    assert r == pytest.approx(2.0, rel=1e-12)
    shallow = NetworkConfig(input_dim=2, widths=(2,), l1=0, l2=1,
                            activation=SMOOTH)
    with pytest.raises(ValueError):
        metrics.extract_thm1_inputs(shallow, forward(shallow, ParamSet([w1]), x),
                                    y, {}, {1: densemat.op_norm(w1)})


def test_measure_layer_sweep_fields():
    rng = np.random.default_rng(2)
    cfg = NetworkConfig(input_dim=3, widths=(8, 4, 4, 2), l1=2, l2=2,
                        activation=SMOOTH)
    params = ParamSet([rng.standard_normal(cfg.layer_shape(i)) / 2
                       for i in range(1, 5)])
    x = rng.standard_normal((3, 8))
    idx = ClassIndex((4, 4))
    y = np.zeros((2, 8))
    y[0, :4] = 1.0
    y[1, 4:] = 1.0
    trace = forward(cfg, params, x)
    rep = metrics.measure(cfg, params, trace, y, idx)
    assert [lm.layer for lm in rep.layers] == [2, 3, 4]
    assert rep.layers[1].nc3 is not None          # layer L-1 vs W_L
    assert rep.layers[0].nc3 is None
    assert rep.layers[0].negativity is not None   # nonlinear layer 2
    assert rep.layers[1].negativity is None
    assert set(rep.balancedness_gaps) == {3}
    assert rep.eps1 > 0 and rep.r > 0
    full = metrics.measure(cfg, params, trace, y, idx, first_layer=1)
    assert [lm.layer for lm in full.layers] == [1, 2, 3, 4]
    # the verdict path's sweep: Z_{L-1} alone, with every other field unchanged
    head = metrics.measure(cfg, params, trace, y, idx, first_layer=3, last_layer=3)
    assert [lm.layer for lm in head.layers] == [3]
    assert head.layers[0].nc1 == full.layers[2].nc1 and head.layers[0].nc3 == full.layers[2].nc3
    assert np.array_equal(head.layers[0].means, full.layers[2].means)
    assert (head.balancedness_gaps, head.op_norms, head.eps1, head.eps2, head.r) == (
        full.balancedness_gaps, full.op_norms, full.eps1, full.eps2, full.r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 4), st.integers(2, 5),
       st.floats(0.1, 10.0))
def test_property_nc1_nc2_scale_invariant(seed, k, n_per, scale):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k + 1, k * n_per))
    idx = ClassIndex(tuple([n_per] * k))
    assert metrics.nc1(scale * z, idx) == pytest.approx(
        metrics.nc1(z, idx), rel=1e-9)
    assert metrics.nc2(metrics.class_means(scale * z, idx)[0]) == pytest.approx(
        metrics.nc2(metrics.class_means(z, idx)[0]), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_property_negativity_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    v = metrics.negativity(a, act_apply(SMOOTH, a))
    assert v >= 0.0
    # ||A - sigma(A)||_op <= (1 - gamma) ||A||_op + shift-induced slack
    assert v <= (1.0 - SMOOTH.gamma) + 1.0
