import math
import tracemalloc

import numpy as np
import pytest

from nclab import trainer
from nclab.metrics import ClassIndex
from nclab.network import ActivationSpec, NetworkConfig, ParamSet, gradient
from nclab.trainer import (InitSpec, TrainConfig, effective_eta, gd_step,
                           init_params, lockstep_groups, train)

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)
ACTIVATIONS = {"smoothed_leaky_relu": SMOOTH, "leaky_relu": ActivationSpec("leaky_relu", gamma=0.2),
               "relu": ActivationSpec("relu")}


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


def one_member_step(cfg, params, x, y, eta, lam):
    """gd_step on a one-member Workspace: (the new state, the failures)."""
    ws = trainer.Workspace([cfg], x, y, [params])
    failed = gd_step(ws, eta, lam)
    return ws.member(0), failed


def test_gd_step_closed_form_single_linear_layer():
    cfg = NetworkConfig(input_dim=2, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    x = np.eye(2)
    y = np.zeros((2, 2))
    eta, lam = 0.1, 0.5
    new, failed = one_member_step(cfg, ParamSet([w]), x, y, eta, lam)
    expected = w - eta * ((w @ x - y) @ x.T + lam * w)
    assert failed == {}
    assert np.allclose(new.weights[0], expected, atol=1e-15)


def test_gd_step_does_not_mutate_input():
    cfg, x, y, idx = small_problem()
    params = init_params(cfg, InitSpec(), seed=0)
    before = params.copy()
    one_member_step(cfg, params, x, y, 0.01, 0.1)
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


def test_divergence_keeps_its_step_and_cause_between_records():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=100.0, lam=0.0, steps=200, record_every=1000, seed=0)
    _, traj = train(cfg, tcfg, x, y, idx)
    assert traj.diverged
    assert [r.step for r in traj.records] == [0]
    # the next step tests c_0 of the state the first step gave
    assert traj.diverged_at == 1
    assert traj.divergence.startswith("c_0 = ")
    _, every = train(cfg, TrainConfig(eta=100.0, lam=0.0, steps=200, record_every=1,
                                      seed=0), x, y, idx)
    assert (every.diverged_at, every.divergence) == (traj.diverged_at, traj.divergence)


@pytest.mark.parametrize("rel, diverges", [(1e-9, True), (-1e-9, False)])
def test_gd_step_tests_c0_exactly_at_the_threshold(rel, diverges):
    cfg = NetworkConfig(input_dim=1, widths=(1,), l1=0, l2=1, activation=SMOOTH)
    c0 = trainer.DIVERGENCE_THRESHOLD * (1.0 + rel)
    params = ParamSet([np.array([[np.sqrt(2.0 * c0)]])])  # c_0 = w^2 / 2 at x = 1, y = 0
    x, y = np.ones((1, 1)), np.zeros((1, 1))
    _, failed = one_member_step(cfg, params, x, y, 1e-30, 0.0)
    if diverges:
        assert list(failed) == [0] and isinstance(failed[0], trainer.LossDiverged)
        assert "exceeds the divergence threshold" in str(failed[0])
    else:
        assert failed == {}


def test_divergence_at_the_initial_state_is_step_0():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.01, lam=0.0, steps=5, seed=0, init=InitSpec((1e6, 1e6, 1e6)))
    params, traj = train(cfg, tcfg, x, y, idx)
    assert [r.step for r in traj.records] == [0]
    assert traj.diverged_at == 0 and "exceeds the divergence threshold" in traj.divergence
    assert params.dist(traj.records[0].params) == 0.0


def test_divergence_names_a_c0_above_the_threshold():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=100.0, lam=0.0, steps=200, record_every=1, seed=0)
    _, traj = train(cfg, tcfg, x, y, idx)
    assert traj.diverged_at == traj.last().step + 1
    assert "c_0" in traj.divergence


def test_healthy_run_has_no_divergence():
    cfg, x, y, idx = small_problem()
    _, traj = train(cfg, TrainConfig(eta=0.01, lam=0.0, steps=5, seed=0), x, y, idx)
    assert (traj.diverged, traj.diverged_at, traj.divergence) == (False, None, None)


def _planted_gradient(monkeypatch, fill):
    def planted(cfg, params, trace, cotangent, out):
        for layer, gw in enumerate(out, start=1):
            gw[...] = fill(gw.shape, layer)
        return ParamSet(out)

    monkeypatch.setattr(trainer, "backprop", planted)


def test_gd_step_names_the_first_non_finite_layer(monkeypatch):
    cfg, x, y, idx = small_problem()
    params = init_params(cfg, InitSpec(), seed=0)
    _planted_gradient(monkeypatch, lambda shape, layer: np.full(
        shape, np.nan if layer == 2 else 1.0))
    _, failed = one_member_step(cfg, params, x, y, 0.01, 0.0)
    assert list(failed) == [0] and type(failed[0]) is FloatingPointError
    assert str(failed[0]) == "non-finite gradient at layer 2"


def test_gd_step_takes_a_finite_gradient_whose_sum_overflows(monkeypatch):
    # warnings are errors in this suite, so this also asserts there is none
    cfg, x, y, idx = small_problem()
    params = init_params(cfg, InitSpec(), seed=0)
    _planted_gradient(monkeypatch, lambda shape, layer: np.full(shape, 1e308))
    new, failed = one_member_step(cfg, params, x, y, 0.5, 0.0)
    assert failed == {}
    for w, w0 in zip(new.weights, params.weights):
        np.testing.assert_array_equal(w, w0 - 0.5e308)


def test_trajectory_records_expected_fields():
    cfg, x, y, idx = small_problem()
    tcfg = TrainConfig(eta=0.02, lam=0.05, steps=5, seed=3)
    _, traj = train(cfg, tcfg, x, y, idx)
    rec = traj.last()
    assert set(rec.metrics.balancedness_gaps) == {2}
    assert len(rec.metrics.op_norms) == 3
    assert all(r.metrics.eps1 == np.sqrt(2.0 * r.c_0) for r in traj.records)  # bit for bit
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
    ws = trainer.Workspace([cfg], x, y, [ParamSet([w0])])
    for _ in range(7):
        assert gd_step(ws, eta=0.1, lam=0.5) == {}
    assert np.allclose(ws.member(0).weights[0], w0 * (1 - 0.05) ** 7, atol=1e-14)


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
        InitSpec(scales=(-1.0, 1.0, 1.0))
    # a NaN scale would fail `scale > 0` and build an all-zero layer
    for scale in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="init scales"):
            InitSpec(scales=(1.0, scale, 1.0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0, lam=0.0, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=-0.1, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=0.0, steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(eta=0.1, lam=0.0, steps=1, lr_drop_fraction=0.0)
    # effective_eta divides by it: -10 climbs the loss, 0 divides by zero, inf freezes
    for factor in [-10.0, 0.0, math.inf, math.nan]:
        with pytest.raises(ValueError, match="lr_drop_factor"):
            TrainConfig(eta=0.1, lam=0.0, steps=10, lr_drop_factor=factor)


def _serial_reference(cfg, tcfg, x, y):
    """The per-state GD loop on allocated arrays that a lockstep member must
    match bit for bit (for runs that do not diverge)."""
    params = init_params(cfg, tcfg.init, tcfg.seed)
    for k in range(tcfg.steps):
        g = gradient(cfg, params, x, y, tcfg.lam)
        params = ParamSet([w - effective_eta(tcfg, k) * gw
                           for w, gw in zip(params.weights, g.weights)])
    return params


@pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
@pytest.mark.parametrize("l1", [0, 1, 2])
def test_lockstep_members_match_the_serial_reference(l1, kind):
    # zero, one and two nonlinear layers under a member axis
    _, x, y, idx = small_problem()
    members = [(NetworkConfig(3, (6,) * l1 + (2,) * v, l1, v, ACTIVATIONS[kind]),
                TrainConfig(eta=0.05, lam=0.01, steps=60, record_every=25,
                            lr_drop_fraction=0.5, seed=s))
               for v in (1, 2, 3) for s in (0, 1)]
    groups = lockstep_groups(members)
    assert all(g is groups[0] for g in groups)
    for (cfg, tcfg), g in zip(members, groups):
        params, traj = train(cfg, tcfg, x, y, idx, group=g)
        assert [r.step for r in traj.records] == [0, 25, 50, 60]
        for w, ref in zip(params.weights, _serial_reference(cfg, tcfg, x, y).weights):
            np.testing.assert_array_equal(w, ref)
        alone = train(cfg, tcfg, x, y, idx)[0]
        assert params.dist(alone) == 0.0


@pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
@pytest.mark.parametrize("lockstep", [False, True])
def test_warm_gd_steps_allocate_no_array_memory(kind, lockstep):
    # a temporary of the smallest nonlinear layer, 128 x 256 entries, takes
    # 32 KB as bools and 256 KB as floats; Python objects alone raise the
    # traced peak by under 3 KB
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 256))
    y = np.zeros((4, 256))
    y[np.arange(256) % 4, np.arange(256)] = 1.0
    cfgs = [NetworkConfig(8, (128, 128, 4, 4)[:depth], 2, depth - 2, ACTIVATIONS[kind])
            for depth in ((4, 3) if lockstep else (4,))]
    ws = trainer.Workspace(cfgs, x, y, [init_params(c, InitSpec(), seed=0) for c in cfgs])
    for _ in range(3):
        assert gd_step(ws, 1e-4, 0.1) == {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            gd_step(ws, 1e-4, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8192


def test_lockstep_groups_need_nesting_layers_and_equal_settings():
    deep_nonlinear = NetworkConfig(3, (4, 4, 2), 2, 1, SMOOTH)
    one_nonlinear = NetworkConfig(3, (4, 2), 1, 1, SMOOTH)  # layer 2 linear: no nesting
    deep_linear = NetworkConfig(3, (4, 2, 2), 1, 2, SMOOTH)
    t0 = TrainConfig(eta=0.05, lam=0.01, steps=10, seed=0)
    t1 = TrainConfig(eta=0.05, lam=0.01, steps=10, seed=1)
    other_eta = TrainConfig(eta=0.04, lam=0.01, steps=10, seed=1)
    members = [(one_nonlinear, t0), (deep_nonlinear, t0), (deep_linear, t1),
               (deep_nonlinear, t1), (deep_linear, other_eta)]
    groups = lockstep_groups(members)
    assert groups[0] is groups[2] and groups[1] is groups[3]
    assert len({id(g) for g in groups}) == 3
    assert groups[0].members == [(deep_linear, t1), (one_nonlinear, t0)]  # deepest first


def test_workspace_step_matches_the_lone_step():
    # each member of a two-member workspace steps as a one-member workspace does
    cfg, x, y, idx = small_problem()
    states = [init_params(cfg, InitSpec(), seed=s) for s in (0, 1)]
    ws = trainer.Workspace([cfg, cfg], x, y, states)
    assert gd_step(ws, 0.01, 0.1) == {}
    for b, params in enumerate(states):
        lone, failed = one_member_step(cfg, params, x, y, 0.01, 0.1)
        assert failed == {} and ws.member(b).dist(lone) == 0.0


def test_a_member_with_a_non_finite_gradient_fails_alone(monkeypatch):
    # warnings are errors in this suite: the failed member's update stays silent
    cfg, x, y, idx = small_problem()
    params = init_params(cfg, InitSpec(), seed=0)

    def planted(cfg, params, trace, cotangent, out):
        for layer, gw in enumerate(out, start=1):
            gw[...] = 1.0
            if layer == 2:
                gw[1] = np.inf
        return ParamSet(out)

    monkeypatch.setattr(trainer, "backprop", planted)
    ws = trainer.Workspace([cfg, cfg], x, y, [params, params])
    failed = gd_step(ws, 0.5, 0.0)
    assert list(failed) == [1] and str(failed[1]) == "non-finite gradient at layer 2"
    for w, w0 in zip(ws.member(0).weights, params.weights):
        np.testing.assert_array_equal(w, w0 - 0.5)
