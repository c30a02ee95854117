import numpy as np
import pytest

from nclab.metrics import ClassIndex
from nclab.network import ActivationSpec, NetworkConfig, ParamSet
from nclab.trainer import (InitSpec, TrainConfig, effective_eta, gd_step,
                           init_params, train)

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


def small_problem(seed=0):
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(input_dim=3, widths=(6, 4, 2), l1=1, l2=2,
                        activation=SMOOTH)
    x = rng.standard_normal((3, 6))
    labels = np.sort(rng.integers(0, 2, size=6))  # samples grouped by class
    y = np.zeros((2, 6))
    y[labels, np.arange(6)] = 1.0
    return cfg, x, y, ClassIndex(tuple(np.bincount(labels)))


def test_zero_steps_gives_single_record():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.01, lam=0.0, steps=0, seed=1)
    params, traj = train(cfg, tcfg, x, y, idx)
    assert len(traj.records) == 1
    assert traj.records[0].step == 0
    assert not traj.diverged
    assert params.dist(traj.records[0].params) == 0.0


def test_gd_step_closed_form_single_linear_layer():
    cfg = NetworkConfig(input_dim=2, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    x = np.eye(2)
    y = np.zeros((2, 2))
    eta, lam = 0.1, 0.5
    new = gd_step(cfg, ParamSet([w]), x, y, eta, lam)
    expected = w - eta * ((w @ x - y) @ x.T + lam * w)
    assert np.allclose(new.weights[0], expected, atol=1e-15)


def test_gd_step_does_not_mutate_input():
    cfg, x, y, idx = small_problem()
    params = init_params(cfg, InitSpec(), seed=0)
    before = params.copy()
    gd_step(cfg, params, x, y, 0.01, 0.1)
    assert params.dist(before) == 0.0


def test_training_is_deterministic_per_seed():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.02, lam=0.01, steps=50, record_every=10, seed=9)
    _, t1 = train(cfg, tcfg, x, y, idx)
    _, t2 = train(cfg, tcfg, x, y, idx)
    assert [r.step for r in t1.records] == [r.step for r in t2.records]
    for a, b in zip(t1.records, t2.records):
        assert a.c_lambda == b.c_lambda
        assert a.params.dist(b.params) == 0.0
    _, t3 = train(cfg, TrainConfig(eta=0.02, lam=0.01, steps=50,
                                   record_every=10, seed=10), x, y, idx)
    assert t3.records[0].c_lambda != t1.records[0].c_lambda


def test_record_cadence_includes_final_step():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.01, lam=0.0, steps=10, record_every=3, seed=0)
    _, traj = train(cfg, tcfg, x, y, idx)
    assert [r.step for r in traj.records] == [0, 3, 6, 9, 10]


def test_lr_drop_schedule():
    tcfg = TrainConfig(eta=1.0, lam=0.0, steps=100, lr_drop_fraction=0.8,
                       lr_drop_factor=10.0)
    assert effective_eta(tcfg, 0) == 1.0
    assert effective_eta(tcfg, 79) == 1.0
    assert effective_eta(tcfg, 80) == pytest.approx(0.1)
    no_drop = TrainConfig(eta=1.0, lam=0.0, steps=100, lr_drop_fraction=1.0)
    assert effective_eta(no_drop, 99) == 1.0


def test_divergence_sets_flag_and_keeps_last_healthy_state():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=50.0, lam=0.0, steps=200, record_every=1, seed=0)
    params, traj = train(cfg, tcfg, x, y, idx)
    assert traj.diverged
    last = traj.last()
    assert np.isfinite(last.c_lambda)
    assert params.dist(last.params) == 0.0


def test_trajectory_records_expected_fields():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.02, lam=0.05, steps=5, seed=3)
    _, traj = train(cfg, tcfg, x, y, idx)
    rec = traj.last()
    assert set(rec.metrics.balancedness_gaps) == {2}
    assert len(rec.layer_op_norms) == 3
    assert rec.metrics.eps1 == pytest.approx(np.sqrt(2.0 * rec.c_0))
    assert rec.param_norm > 0 and rec.dist_from_init > 0


def test_store_params_false_drops_snapshots():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.01, lam=0.0, steps=4, seed=0, store_params=False)
    _, traj = train(cfg, tcfg, x, y, idx)
    assert all(r.params is None for r in traj.records)


def test_weight_decay_only_shrinks_weights_geometrically():
    # with y = 0 and x = 0-ish input the loss reduces to the ridge term:
    # a single linear layer then scales by (1 - eta*lam) each step
    cfg = NetworkConfig(input_dim=2, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.zeros((2, 3))
    y = np.zeros((2, 3))
    tcfg = TrainConfig(eta=0.1, lam=0.5, steps=7, seed=0, lr_drop_fraction=1.0,
                       init=InitSpec(scheme="custom", matrices=(w0,)))
    params, _ = train(cfg, tcfg, x, y, ClassIndex((3,)))
    assert np.allclose(params.weights[0], w0 * (1 - 0.05) ** 7, atol=1e-14)


def test_init_schemes():
    cfg, _, _, _ = small_problem()
    p1 = init_params(cfg, InitSpec(), seed=11)
    p2 = init_params(cfg, InitSpec(), seed=11)
    assert p1.dist(p2) == 0.0
    scaled = init_params(cfg, InitSpec(scales=(1.0, 0.0, 2.0)), seed=1)
    assert np.all(scaled.weights[1] == 0.0)
    assert np.any(scaled.weights[2] != 0.0)
    with pytest.raises(ValueError):
        init_params(cfg, InitSpec(scales=(1.0,)), seed=0)
    with pytest.raises(ValueError):
        InitSpec(scheme="uniform")
    with pytest.raises(ValueError):
        InitSpec(scales=(-1.0, 1.0, 1.0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0, lam=0.0, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=-0.1, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=0.0, steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=0.0, steps=1, lr_drop_fraction=0.0)
