import ast
import hashlib
import json
import math
import sys
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import bounds, cli, data, densemat, metrics, network, verify
from nclab.network import ActivationSpec, NetworkConfig, ParamSet, act_apply, forward, loss
from nclab.trainer import InitSpec, TrainConfig, init_params, train
from nclab.verify import (balanced_chain, balanced_factors, check_thm1_instance,
                          make_thm1_instance)

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)
# the parts of a resolved config that `cli.evaluate_bounds` reads
BOUNDS_CFG = {"train": {"lam": 0.01}, "bounds": {"rank_tol": densemat.DEFAULT_RANK_TOL}}


def make_inputs(**kw):
    base = dict(eps1=0.1, eps2=1e-4, r=3.0, n_lminus1=8, k=4, n=32,
                sK_y=2.0, x_opnorm=1.5, l1=2, l2=2, c3=2.0, kappa_wl=1.2)
    base.update(kw)
    return bounds.Thm1Inputs(**base)


def test_psi_reference_value():
    # r = 3, eps1/(sK - eps1) = 0.1/1.9, n_{L-1} * eps2 = 0.08
    inp = make_inputs(eps2=0.01)
    expected = 3.0 * (0.1 / 1.9 + math.sqrt(0.08))
    assert bounds.psi(inp) == pytest.approx(expected, rel=1e-12)
    assert bounds.psi(inp) == pytest.approx(1.0064229, abs=1e-7)


def test_psi_vacuous_when_interpolation_dominates():
    with pytest.raises(bounds.VacuousBound):
        bounds.psi(make_inputs(eps1=2.5))


def test_thm1_nc1_rhs_formula():
    inp = make_inputs()
    p = bounds.psi(inp)
    den = math.sqrt(3.0 / 4.0) - 2 * 0.1 / math.sqrt(32)
    assert bounds.thm1_nc1_rhs(inp) == pytest.approx(
        (9.0 / 32.0) * p * p / den ** 2, rel=1e-12)
    # denominator crosses zero once 2*eps1/sqrt(n) exceeds sqrt((k-1)/k)
    with pytest.raises(bounds.VacuousBound):
        bounds.thm1_nc1_rhs(make_inputs(eps1=2.6, sK_y=10.0))


def test_thm2_nc1_rhs_uses_unsquared_psi_and_scaled_eps1():
    eps1, eps2, r, nlm1, k, n, sK = 0.05, 1e-5, 2.0, 8, 4, 32, math.sqrt(8.0)
    e1 = eps1 * math.sqrt(2.0)
    p = r * (e1 / (sK - e1) + math.sqrt(nlm1 * eps2))
    den = math.sqrt(3.0 / 4.0) - 2.0 * math.sqrt(2.0) * eps1 / math.sqrt(n)
    expected = (r * r / n) * p / den ** 2
    at = make_inputs(eps1=eps1, eps2=eps2, r=r, n_lminus1=nlm1, k=k, n=n, sK_y=sK)
    assert bounds.thm2_nc1_rhs(at) == pytest.approx(expected, rel=1e-12)
    # Theorem 1's Psi and NC1 denominator, evaluated at eps1*sqrt(2)
    inp = make_inputs(eps1=e1, eps2=eps2, r=r, n_lminus1=nlm1, k=k, n=n, sK_y=sK)
    assert bounds.thm2_nc1_rhs(at) == pytest.approx(
        bounds.thm1_nc1_rhs(inp) / bounds.psi(inp), rel=1e-14)
    # eps1 < s_K(Y) <= eps1*sqrt(2): the Psi guard sees the scaled eps1
    with pytest.raises(bounds.VacuousBound, match="s_K"):
        bounds.thm2_nc1_rhs(make_inputs(eps1=2.1, eps2=eps2, r=r, n_lminus1=nlm1, k=k,
                                        n=1000, sK_y=sK))
    # the denominator is positive at eps1 = 0.7 but not at 0.7*sqrt(2)
    with pytest.raises(bounds.VacuousBound, match="NC1"):
        bounds.thm2_nc1_rhs(make_inputs(eps1=0.7, eps2=eps2, r=r, n_lminus1=nlm1, k=k,
                                        n=4, sK_y=sK))


def test_thm1_kappa_rhs_formula():
    inp = make_inputs()
    t = 0.5 * inp.l2 ** 2 * inp.r ** (2 * (inp.l2 - 1)) * inp.eps2
    base = (inp.sK_y - inp.eps1) ** 2 / (inp.x_opnorm ** 2 * inp.r ** (2 * inp.l1))
    eps = t / (base - t)
    stated = inp.c3 ** 0.5 * (1 + eps) ** 0.5 + inp.c3 ** -0.5 * eps
    assert bounds.thm1_kappa_rhs(inp) == pytest.approx(stated, rel=1e-12)
    with pytest.raises(bounds.VacuousBound):
        bounds.thm1_kappa_rhs(make_inputs(eps2=100.0))
    with pytest.raises(ValueError):
        bounds.thm1_kappa_rhs(make_inputs(c3=None))


def test_thm1_nc2_nc3_rhs_formulas():
    inp = make_inputs()
    p = bounds.psi(inp)
    q = inp.r * p / inp.sK_y
    kappa = inp.kappa_wl
    assert kappa == 1.2
    assert bounds.thm1_nc2_rhs(inp) == pytest.approx(
        (kappa + q) / (1 - q), rel=1e-12)
    num = ((math.sqrt(32) - 0.1) ** 2 + 32 / kappa ** 2
           - (3.0 * p + 2.0 * (kappa ** 2 - 1)) ** 2)
    assert bounds.thm1_nc3_rhs(inp) == pytest.approx(
        num / (2 * 32 * kappa * 1.1), rel=1e-12)
    # q >= 1 makes the conditioning bound vacuous
    with pytest.raises(bounds.VacuousBound):
        bounds.thm1_nc2_rhs(make_inputs(eps2=1.0, r=10.0))
    # without cond(W_L) neither bound has a value
    for rhs in (bounds.thm1_nc2_rhs, bounds.thm1_nc3_rhs):
        with pytest.raises(ValueError, match="cond"):
            rhs(make_inputs(kappa_wl=None))


def test_thm1_suite_small_sample():
    for i in range(20):
        ok, detail = check_thm1_instance(make_thm1_instance(5000 + i))
        assert ok, detail


def test_thm1_instance_interpolates_from_its_own_factors():
    # with no noise and no perturbation the instance's features are x0 itself
    for seed in range(20):
        inst = make_thm1_instance(seed, eps1_scale=0.0, eps2_scale=0.0)
        weights, x0, y = inst["params"].weights, inst["ds"].x, inst["ds"].y
        prod = weights[-1]
        for w in weights[-2::-1]:
            prod = prod @ w
        assert densemat.fro_norm(prod @ x0 - y) <= 1e-12 * densemat.fro_norm(y)
        ref = densemat.pinv(prod) @ y
        assert densemat.fro_norm(x0 - ref) <= 1e-12 * densemat.fro_norm(ref)


def test_thm1_instance_weights_are_the_chain_of_its_factors():
    inst = make_thm1_instance(7, eps2_scale=0.0)
    dims = [inst["cfg"].input_dim, *inst["cfg"].widths]
    chain = balanced_chain(*balanced_factors(8, dims))
    assert all(np.array_equal(a, b) for a, b in zip(inst["params"].weights, chain, strict=True))


def _recording_sweeps(swept: list):
    """`metrics.measure` that appends the layers of each report to `swept`."""
    real = metrics.measure

    def recording(*args, **kw):
        rep = real(*args, **kw)
        swept.append([lm.layer for lm in rep.layers])
        return rep

    return recording


@pytest.mark.parametrize("l1", [1, 2, 4, 5])
def test_bounds_measure_z_l_minus_1_alone_and_report_as_a_full_sweep(monkeypatch, l1):
    widths = (8, 6, 5, 4, 3)
    cfg = NetworkConfig(input_dim=6, widths=widths, l1=l1, l2=len(widths) - l1,
                        activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params, traj = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=50), ds.x, ds.y, ds.idx)
    swept = []
    recording = _recording_sweeps(swept)

    def full_range(*args, **kw):  # from the head input, or Z_{L-1} if that is lower, to Z_L
        return recording(*args[:5], first_layer=min(l1, cfg.depth - 1), rank_tol=kw["rank_tol"])

    def payload(measure):
        monkeypatch.setattr(metrics, "measure", measure)
        out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params,
                                  traj.records[0].params)
        return json.dumps(cli._sanitize(out), sort_keys=True, allow_nan=False)

    head = payload(recording)
    # Z_{L-1} alone, also on the net without linear layers (l1 = 5)
    assert bounds.verdict_layers(cfg) == (cfg.depth - 1, cfg.depth - 1)
    assert swept == [[cfg.depth - 1]]
    assert payload(full_range) == head
    assert swept[1] == list(range(min(l1, cfg.depth - 1), cfg.depth + 1))
    assert '"error"' not in head


def test_a_failed_premise_never_holds_across_the_engine():
    # short runs with L2 = 0, 1, 2 linear layers, without and with weight decay
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    labels = []
    for widths, l1 in [((8, 6, 3), 3), ((8, 6, 3), 2), ((8, 6, 3, 3), 2)]:
        cfg = NetworkConfig(input_dim=6, widths=widths, l1=l1, l2=len(widths) - l1,
                            activation=SMOOTH)
        for lam in (0.0, 0.02):
            params, traj = train(cfg, TrainConfig(eta=0.05, lam=lam, steps=300),
                                 ds.x, ds.y, ds.idx)
            ctx = bounds.run_context(cfg, ds, lam, traj.records[0].params)
            trace = forward(cfg, params, ds.x)
            rep = metrics.measure(cfg, params, trace, ds.y, ds.idx,
                                  *bounds.verdict_layers(cfg))
            state, inp = bounds.state_verdicts(ctx, cfg, params, trace, rep)
            reports = [*state["reports"].values(),
                       bounds.ntk_verdict(cfg, params, trace, state, inp)[1]]
            for r in reports:
                where = (cfg.l2, lam, r.name, r.holds, r.premises)
                if not all(r.premises.values()):
                    assert r.holds == bounds.VACUOUS, where
                if r.holds in (bounds.HOLDS, bounds.VIOLATED):
                    assert all(v is True for v in r.premises.values()), where
                    assert r.value is not None and r.measured is not None, where
                labels.append((cfg.l2, r.name, r.holds, all(r.premises.values())))
    # both directions are exercised: failed premises on every depth, and holds
    assert {l2 for l2, _, _, ok in labels if not ok} == {0, 1, 2}
    assert {l2 for l2, _, holds, _ in labels if holds == bounds.HOLDS} == {1, 2}
    assert ((0, "thm1_nc1", bounds.VACUOUS, False) in labels
            and (0, "ntk_lower", bounds.VACUOUS, False) in labels)


def test_thm1_suite_measures_z_l_minus_1_alone(monkeypatch):
    swept = []
    monkeypatch.setattr(metrics, "measure", _recording_sweeps(swept))
    inst = make_thm1_instance(5000)
    ok, detail = check_thm1_instance(inst)
    assert ok, detail
    assert swept == [[inst["cfg"].depth - 1]]


def test_thm1_suite_runs_the_bounds_evaluator(monkeypatch):
    calls = []
    real = bounds.state_verdicts

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "state_verdicts", counting)
    ok, detail = check_thm1_instance(make_thm1_instance(5000))
    assert ok, detail
    assert len(calls) == 1 and "balanced_power_gap" in detail
    # `nclab bounds` runs the same evaluator, once per state
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 3), l1=2, l2=2, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params = init_params(cfg, InitSpec(), 0)
    calls.clear()
    out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params, params)
    assert len(calls) == 1 and "balanced_power_gap" in out["reports"]
    # a violated report fails the instance
    monkeypatch.setattr(bounds, "thm1_nc1_rhs", lambda inp: 0.0)
    ok, detail = check_thm1_instance(make_thm1_instance(5000))
    assert not ok and detail["failed"] == "thm1_nc1"


def _digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _caller() -> str:
    """`module.function` of the function that called the spy calling this one:
    the first frame past the spy that is no `<lambda>` or comprehension, so that
    a call from either names its enclosing function on every Python."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"


def _record_svd_inputs(monkeypatch) -> list:
    """Patch densemat.svd to log a digest of every matrix it decomposes."""
    seen = []
    real = densemat.svd

    def hashing(a, compute_uv=True, top_only=False, extremes=False):
        seen.append(_digest(a))
        return real(a, compute_uv=compute_uv, top_only=top_only, extremes=extremes)

    monkeypatch.setattr(densemat, "svd", hashing)
    return seen


@pytest.mark.parametrize("l1", [0, 2])
def test_each_matrix_is_decomposed_once(monkeypatch, l1):
    widths = (8, 6, 5, 4, 3)
    cfg = NetworkConfig(input_dim=6, widths=widths, l1=l1, l2=len(widths) - l1,
                        activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    seen = _record_svd_inputs(monkeypatch)
    # one trainer record (step 0): every matrix at most once
    params, traj = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=0), ds.x, ds.y, ds.idx)
    assert len(seen) == len(set(seen)) > 0
    # measure + the Theorem-1 evaluator: only W_L comes twice (norm and svd)
    seen.clear()
    ctx = bounds.run_context(cfg, ds, 0.01, None)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx)
    verdicts, _ = bounds.state_verdicts(ctx, cfg, params, trace, rep)
    w_l = _digest(params.weights[-1])
    assert {h for h in seen if seen.count(h) > 1} == {w_l} and seen.count(w_l) == 2
    assert verdicts["measured"]["kappa_prod"] is not None
    assert set(verdicts["reports"]) == {"thm1_nc1", "thm1_kappa", "thm1_nc2", "thm1_nc3",
                                        "balanced_power_gap"}


def test_bounds_decompose_w_l_twice_and_y_never(monkeypatch):
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 4, 3), l1=2, l2=3, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params, traj = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=3), ds.x, ds.y, ds.idx)
    seen = _record_svd_inputs(monkeypatch)
    out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params,
                              traj.records[0].params)
    assert "residual_to_pinv" in out["measured"] and "error" not in out["schedule"]
    assert _digest(ds.y) not in seen
    # its norm in measure, and the one SVD for cond(W_L) and the pseudoinverse
    assert seen.count(_digest(params.weights[-1])) == 2


def test_singular_vectors_are_built_only_for_pinv(monkeypatch):
    widths = (8, 6, 5, 4, 3)
    cfg = NetworkConfig(input_dim=6, widths=widths, l1=2, l2=3, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    calls = []
    real = densemat.svd

    def recording(a, compute_uv=True, top_only=False, extremes=False):
        calls.append((_caller(), compute_uv))
        return real(a, compute_uv=compute_uv, top_only=top_only, extremes=extremes)

    monkeypatch.setattr(densemat, "svd", recording)
    params, _ = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=0), ds.x, ds.y, ds.idx)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx)
    ctx = bounds.run_context(cfg, ds, 0.01, None)
    bounds.state_verdicts(ctx, cfg, params, trace, rep)
    bounds.init_spectra(cfg, params, forward(cfg, params, ds.x), ds.y, 0.01)
    out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params, params)
    assert "residual_to_pinv" in out["measured"] and "error" not in out["schedule"]
    # the one vector reader: state_verdicts' single SVD of W_L, which feeds the
    # pinv of residual_to_pinv (called here directly and through evaluate_bounds)
    assert [name for name, uv in calls if uv] == ["nclab.bounds.state_verdicts"] * 2
    assert sum(not uv for _, uv in calls) > len(calls) // 2


def test_only_op_norm_asks_for_the_top_singular_value(monkeypatch):
    widths = (8, 6, 5, 4, 3)
    cfg = NetworkConfig(input_dim=6, widths=widths, l1=2, l2=3, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    calls = []
    real = densemat.svd

    def recording(a, compute_uv=True, top_only=False, extremes=False):
        calls.append((_caller(), compute_uv, top_only))
        return real(a, compute_uv=compute_uv, top_only=top_only, extremes=extremes)

    monkeypatch.setattr(densemat, "svd", recording)
    params, _ = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=0), ds.x, ds.y, ds.idx)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx)
    ctx = bounds.run_context(cfg, ds, 0.01, None)
    bounds.state_verdicts(ctx, cfg, params, trace, rep)
    bounds.init_spectra(cfg, params, forward(cfg, params, ds.x), ds.y, 0.01)
    cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params, params)
    from_op_norm = [(uv, top) for name, uv, top in calls if name == "nclab.densemat.op_norm"]
    assert from_op_norm and all(top and not uv for uv, top in from_op_norm)
    assert not [name for name, _, top in calls if top and name != "nclab.densemat.op_norm"]


def test_bounds_above_the_crossover_sweep_no_values_only_spectrum(monkeypatch):
    # every weight, Z_1, Y and the matrices cond sees exceed EXTREMES_MIN_ENTRIES
    cfg = NetworkConfig(input_dim=20, widths=(40, 32, 24, 12), l1=2, l2=2,
                        activation=SMOOTH)
    ds = data.synth_gaussian(d=20, k=12, n_per_class=3, class_sep=3.0, noise=0.3, seed=5)
    params, _ = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=0), ds.x, ds.y, ds.idx)
    calls, active = [], []
    real_svd = densemat.svd

    def recording(a, compute_uv=True, top_only=False, extremes=False):
        call = {"name": _caller(),
                "whole_values_only": not (compute_uv or top_only or extremes),
                "r_route": extremes and np.size(a) > densemat.EXTREMES_MIN_ENTRIES,
                "sweeps": 0}
        calls.append(call)
        active.append(call)
        try:
            return real_svd(a, compute_uv=compute_uv, top_only=top_only, extremes=extremes)
        finally:
            active.pop()

    def counted(sweep):
        def run(*args):
            active[-1]["sweeps"] += 1
            return sweep(*args)
        return run

    monkeypatch.setattr(densemat, "svd", recording)
    for name in ("_cyclic_sweep", "_round_robin_sweep"):
        monkeypatch.setattr(densemat, name, counted(getattr(densemat, name)))
    out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params, params)
    assert "error" not in out["schedule"]
    assert not [c["name"] for c in calls if c["whole_values_only"]]
    r_route = [c for c in calls if c["r_route"]]
    assert {c["name"] for c in r_route} == {
        "nclab.bounds.init_spectra", "nclab.bounds._s_min", "nclab.densemat.cond"}
    assert all(c["sweeps"] == 0 for c in r_route)
    assert any(c["sweeps"] for c in calls)  # the spy does see the SVD of W_L


@pytest.mark.parametrize("shape", [(3, 6), (10, 64)])
def test_residual_to_pinv_decomposes_w_l_once(monkeypatch, shape):
    rng = np.random.default_rng(1)
    w = rng.standard_normal(shape)
    y = rng.standard_normal((shape[0], 10))
    z = rng.standard_normal((shape[1], 10))
    # the value of a values-only rank check followed by densemat.pinv
    expected = densemat.fro_norm(z - densemat.pinv(w) @ y)
    seen = _record_svd_inputs(monkeypatch)
    got = bounds.residual_to_pinv(z, densemat.svd(w), y)
    assert seen == [_digest(w)]  # the caller's SVD only
    assert got == expected


def test_residual_to_pinv():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 10))
    z = densemat.pinv(w) @ y
    res = densemat.svd(w)
    assert bounds.residual_to_pinv(z, res, y) <= 1e-12
    e = rng.standard_normal(z.shape)
    assert bounds.residual_to_pinv(z + e, res, y) == pytest.approx(
        np.linalg.norm(e), rel=1e-10)
    with pytest.raises(bounds.VacuousBound):
        bounds.residual_to_pinv(z, densemat.svd(np.zeros((3, 6))), y)
    with pytest.raises(bounds.VacuousBound):  # W_L taller than wide
        bounds.residual_to_pinv(np.zeros((6, 3)), densemat.svd(w.T), np.zeros((6, 3)))


# ---------------------------------------------------------------------------
# initial spectra, assumption check, schedule
# ---------------------------------------------------------------------------

def schedule_net(seed=0, scale=1.0):
    cfg = NetworkConfig(input_dim=4, widths=(8, 6, 4, 2), l1=2, l2=2,
                        activation=SMOOTH)
    rng = np.random.default_rng(seed)
    params = ParamSet([scale * rng.standard_normal(cfg.layer_shape(i))
                       for i in range(1, 5)])
    x = rng.standard_normal((4, 6))
    y = np.zeros((2, 6))
    y[0, :3] = 1.0
    y[1, 3:] = 1.0
    return cfg, params, x, y


def test_init_spectra_matches_direct_computation():
    cfg, params, x, y = schedule_net()
    sched = bounds.init_spectra(cfg, params, forward(cfg, params, x), y, 0.01)
    for layer in range(1, 5):
        ref = np.linalg.svd(params.weights[layer - 1], compute_uv=False)
        assert sched.lambda_l[layer] == pytest.approx(ref[-1], rel=1e-10)
        tail_min = min(
            np.linalg.svd(params.weights[j - 1], compute_uv=False)[-1]
            for j in range(3, 5))
        assert sched.bar_lambda_l[layer] == pytest.approx(
            ref[0] + tail_min, rel=1e-10)
    assert sched.lambda_3_to_l == pytest.approx(
        sched.lambda_l[3] * sched.lambda_l[4], rel=1e-12)
    gamma, L = 0.3, 4
    expected_alpha = 2.0 ** (-(L - 3)) * gamma ** (L - 2) * sched.lambda_f \
        * sched.lambda_3_to_l
    assert sched.alpha == pytest.approx(expected_alpha, rel=1e-12)
    assert sched.r0 == pytest.approx(
        0.5 * min(sched.lambda_f, min(sched.lambda_l[3], sched.lambda_l[4])),
        rel=1e-12)
    # theta_0's loss and norm, which the schedule reads, are in the same record
    assert (sched.c_lambda_init, sched.c0_init) == loss(cfg, params, x, y, 0.01)
    assert sched.theta0_norm == params.norm()
    with pytest.raises(FrozenInstanceError):  # one record serves every state
        setattr(sched, "c0_init", 0.0)


def test_init_spectra_takes_one_svd_per_weight(monkeypatch):
    cfg, params, x, y = schedule_net()
    calls = []
    real = densemat.svd

    def counting(a, compute_uv=True, extremes=False):
        calls.append(np.shape(a))
        return real(a, compute_uv=compute_uv, extremes=extremes)

    monkeypatch.setattr(densemat, "svd", counting)
    sched = bounds.init_spectra(cfg, params, forward(cfg, params, x), y, 0.01)
    assert len(calls) == cfg.depth + 1  # each weight, then the first features
    tail_min = min(sched.lambda_l[l] for l in range(3, cfg.depth + 1))
    for layer in range(1, cfg.depth + 1):
        w = params.weights[layer - 1]
        assert sched.lambda_l[layer] == real(w).s[-1]
        assert sched.bar_lambda_l[layer] == real(w).s[0] + tail_min


def test_init_spectra_requires_depth_and_gamma():
    shallow = NetworkConfig(input_dim=2, widths=(3, 2), l1=1, l2=1,
                            activation=SMOOTH)
    rng = np.random.default_rng(1)
    params = ParamSet([rng.standard_normal(shallow.layer_shape(i))
                       for i in (1, 2)])
    with pytest.raises(ValueError, match="depth"):
        bounds.init_spectra(shallow, params,
                            forward(shallow, params, rng.standard_normal((2, 3))),
                            np.zeros((2, 3)), 0.01)


def test_init_spectra_refuses_a_linear_first_layer():
    # lambda_F is sigma_min(sigma(W_1 X)), a matrix an l1 = 0 net never forms
    cfg = NetworkConfig(input_dim=4, widths=(6, 4, 2), l1=0, l2=3, activation=SMOOTH)
    rng = np.random.default_rng(2)
    params = ParamSet([rng.standard_normal(cfg.layer_shape(i)) for i in (1, 2, 3)])
    with pytest.raises(ValueError, match="l1 >= 1"):
        bounds.init_spectra(cfg, params, forward(cfg, params, rng.standard_normal((4, 6))),
                            np.zeros((2, 6)), 0.01)


# perfbench's pyramidal and wide nets (Z_1 above the R route's 256 entries)
# and a 6-wide net below it
@pytest.mark.parametrize("widths, l1, d, k, n_per_class", [
    ((64, 32, 16, 8, 4), 3, 16, 4, 8), ((256, 128, 64, 10, 10), 3, 64, 10, 20),
    ((6, 4, 3), 1, 5, 3, 4)])
@pytest.mark.parametrize("order", ["F", "C"])
def test_lambda_f_from_the_trace_is_sigma_min_of_sigma_w1_x(widths, l1, d, k, n_per_class,
                                                             order):
    cfg = NetworkConfig(input_dim=d, widths=widths, l1=l1, l2=len(widths) - l1,
                        activation=SMOOTH)
    ds = data.synth_gaussian(d, k, n_per_class, class_sep=1.0, noise=0.1, seed=0)
    x = np.asarray(ds.x, order=order)
    params = init_params(cfg, InitSpec(), 1)
    sched = bounds.init_spectra(cfg, params, forward(cfg, params, x), ds.y, 0.01)
    assert sched.lambda_f == bounds._s_min(act_apply(SMOOTH, params.weights[0] @ x))


def test_state_verdicts_take_condition_numbers_at_the_reports_threshold(monkeypatch):
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 3), l1=2, l2=2, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params, _ = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=5), ds.x, ds.y, ds.idx)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx, *bounds.verdict_layers(cfg),
                          rank_tol=0.6)
    assert rep.rank_tol == 0.6
    calls, real = [], densemat.cond

    def recording(a, rank_tol=densemat.DEFAULT_RANK_TOL):
        calls.append((a, rank_tol))
        return real(a, rank_tol)

    monkeypatch.setattr(densemat, "cond", recording)
    state, _ = bounds.state_verdicts(bounds.run_context(cfg, ds, 0.01, None), cfg, params,
                                     trace, rep)
    w_l = densemat.svd(params.weights[-1])
    [(first, tol)] = [(a, t) for a, t in calls if isinstance(a, densemat.SvdResult)]
    assert np.array_equal(first.s, w_l.s) and tol == 0.6  # cond(W_L)
    assert [t for _, t in calls] == [0.6, 0.6]  # and cond(W_{L:L1+1})
    assert state["measured"]["kappa_w_l"] == real(w_l, 0.6)


def test_one_context_serves_every_state_unchanged():
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 3), l1=2, l2=2, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params, traj = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=5), ds.x, ds.y, ds.idx)
    params0 = traj.records[0].params
    ctx = bounds.run_context(cfg, ds, 0.01, params0)
    spectra = asdict(ctx.spectra)

    def verdicts(p):
        trace = forward(cfg, p, ds.x)
        rep = metrics.measure(cfg, p, trace, ds.y, ds.idx)
        return bounds.state_verdicts(ctx, cfg, p, trace, rep)[0]

    final, initial, again = verdicts(params), verdicts(params0), verdicts(params)
    assert "error" not in final["schedule"] and "error" not in initial["schedule"]
    assert final["schedule"] != initial["schedule"]  # eps1 and eps2 moved the caps
    assert again == final
    assert asdict(ctx.spectra) == spectra


def test_bounds_trace_each_state_once(monkeypatch):
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 3), l1=2, l2=2, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params0 = init_params(cfg, InitSpec(), 0)
    params, _ = train(cfg, TrainConfig(eta=0.01, lam=0.01, steps=5), ds.x, ds.y, ds.idx)
    traced, activated, losses = [], [], []
    real_forward, real_act, real_loss = cli.forward, network.act_apply, bounds.loss

    def tracing(cfg_, params_, x, out=None):
        traced.append(id(params_))
        return real_forward(cfg_, params_, x, out)

    def activating(*args):
        activated.append(_caller().rsplit(".", 1)[1])
        return real_act(*args)

    def losing(*args, **kw):
        losses.append(len(args) == 6 or "trace" in kw)
        return real_loss(*args, **kw)

    monkeypatch.setattr(cli, "forward", tracing)
    monkeypatch.setattr(bounds, "forward", tracing)
    monkeypatch.setattr(network, "forward", tracing)
    monkeypatch.setattr(network, "act_apply", activating)
    monkeypatch.setattr(bounds, "act_apply", activating, raising=False)
    monkeypatch.setattr(bounds, "loss", losing)
    out = cli.evaluate_bounds(BOUNDS_CFG, cfg, ds, params, params0)
    assert "error" not in out["schedule"]
    assert traced == [id(params0), id(params)]
    assert set(activated) == {"forward"} and len(activated) == 2 * cfg.l1
    assert losses == [True]


def test_state_verdicts_hands_the_schedule_the_record_it_returns(monkeypatch):
    cfg = NetworkConfig(input_dim=6, widths=(8, 6, 5, 3), l1=2, l2=2, activation=SMOOTH)
    ds = data.synth_gaussian(d=6, k=3, n_per_class=4, class_sep=2.0, noise=0.3, seed=3)
    params = init_params(cfg, InitSpec(), 0)
    read, real = [], bounds.thm2_schedule

    def recording(s0, cfg_, inp, b):
        read.append(inp)
        return real(s0, cfg_, inp, b)

    monkeypatch.setattr(bounds, "thm2_schedule", recording)
    trace = forward(cfg, params, ds.x)
    rep = metrics.measure(cfg, params, trace, ds.y, ds.idx, *bounds.verdict_layers(cfg))
    out, inp = bounds.state_verdicts(bounds.run_context(cfg, ds, 0.01, params), cfg, params,
                                     trace, rep)
    assert len(read) == 1 and read[0] is inp and "error" not in out["schedule"]


def test_assumption3_threshold_in_initial_loss():
    # lhs >= 8*gamma*sqrt((2/gamma)^L * c0) flips exactly at
    # c0* = (lhs / (8*gamma))^2 / (2/gamma)^L
    cfg, params, x, y = schedule_net(seed=3)
    s0 = bounds.init_spectra(cfg, params, forward(cfg, params, x), y, 0.01)
    gamma, L = 0.3, cfg.depth
    lam_min_tail = min(s0.lambda_l[l] for l in range(3, L + 1))
    lhs = s0.lambda_f * s0.lambda_3_to_l * min(s0.lambda_f, lam_min_tail)
    c0_star = (lhs / (8.0 * gamma)) ** 2 / (2.0 / gamma) ** L
    inp = make_inputs(eps1=0.3, eps2=1e-3, x_opnorm=densemat.op_norm(x), k=2, n=6)

    def assumption3(c0):
        return bounds.thm2_schedule(replace(s0, c0_init=c0), cfg, inp, 1.4)["assumption3"]

    assert assumption3(0.99 * c0_star)
    assert not assumption3(1.01 * c0_star)


def test_thm2_schedule_caps_and_floor():
    cfg, params, x, y = schedule_net(seed=4, scale=3.0)
    s0 = bounds.init_spectra(cfg, params, forward(cfg, params, x), y, 0.01)
    spectra = asdict(s0)
    clam0, c00 = loss(cfg, params, x, y, 0.01)
    eps1, eps2, b = 0.3, 1e-3, 1.4
    x_op = densemat.op_norm(x)
    inp = make_inputs(eps1=eps1, eps2=eps2, x_opnorm=x_op, k=2, n=6)
    sched = bounds.thm2_schedule(s0, cfg, inp, b)
    # theta_0's numbers are read from the spectra, which stay as they were
    assert (sched["c_lambda_init"], sched["c0_init"], sched["theta0_norm"]) == (
        clam0, c00, params.norm())
    assert asdict(s0) == spectra
    gamma, beta, L = 0.3, 2.0, 4
    caps = (2 * (gamma / 2) ** (L - 2) * sched["lambda_f"] * sched["lambda_3_to_l"],
            2 * c00 / params.norm() ** 2,
            eps1 ** 2 / (18 * (params.norm() + sched["lambda_f"] / 2) ** 2))
    assert sched["lambda_caps"] == pytest.approx(caps, rel=1e-12)
    assert sched["lambda_cap"] == pytest.approx(min(caps), rel=1e-12)
    assert sched["lam"] == sched["lambda_cap"]
    lam = sched["lam"]
    m_lam = (1 + math.sqrt(4 * lam / sched["alpha"])) ** 2 \
        * (params.norm() + sched["r0"]) ** 2
    assert sched["m_lambda"] == pytest.approx(m_lam, rel=1e-12)
    prod = math.prod(max(1.0, sched["bar_lambda_l"][l]) for l in range(1, 5))
    assert sched["beta1"] == pytest.approx(
        5 * 6 * beta * b ** 3 * prod ** 3 * 4 ** 2.5, rel=1e-12)
    assert sched["beta1"] == bounds.lipschitz_const(
        [max(1.0, sched["bar_lambda_l"][l]) for l in range(1, 5)], b, 6, beta)
    growth = 2 * eps1 ** 2 / lam
    eta_caps = (1 / (2 * sched["beta1"]),
                1 / (5 * 6 * beta * b ** 3 * max(1.0, growth) ** 6 * 4 ** 2.5),
                1 / (2 * lam),
                (1 / growth) ** 6 * eps2 / (4 * x_op ** 2))
    assert sched["eta_caps"] == pytest.approx(eta_caps, rel=1e-12)
    assert sched["eta"] == pytest.approx(min(eta_caps), rel=1e-12)
    assert sched["k_floor"] == sum(sched["k_floor_terms"])
    assert sched["r_of_lambda"] == pytest.approx(max(
        eps1 * math.sqrt(2 / lam),
        (eps1 * math.sqrt(2 / lam)) ** 2 * x_op,
        (eps1 * math.sqrt(2 / lam)) ** 3 * x_op), rel=1e-12)
    # growth > 1: the second eta cap is 1/lipschitz_const at radii sqrt(growth)
    sched = bounds.thm2_schedule(s0, cfg, inp, b, lam=0.01)
    growth = 2 * eps1 ** 2 / 0.01
    assert growth > 1
    assert sched["eta_caps"][1] == pytest.approx(
        1 / (5 * 6 * beta * b ** 3 * growth ** 6 * 4 ** 2.5), rel=1e-12)
    # the Lipschitz lemma needs data columns of norm up to b >= 1
    with pytest.raises(ValueError, match="data bound"):
        bounds.thm2_schedule(s0, cfg, inp, 0.9)


def test_k_floor_first_phase_already_done():
    cfg, params, x, y = schedule_net(seed=5, scale=3.0)
    s0 = bounds.init_spectra(cfg, params, forward(cfg, params, x), y, 0.01)
    # huge lambda override makes 2*lam*m_lambda exceed the initial loss
    inp = make_inputs(eps1=0.3, eps2=1e-3, x_opnorm=densemat.op_norm(x), k=2, n=6)
    sched = bounds.thm2_schedule(s0, cfg, inp, 1.4, lam=10.0, eta=1e-4)
    assert sched["k_floor_terms"][0] == 0.0


# (alpha factor, r0, m_lambda, lam, label, failed premises): pl_decay is an upper
# bound of value 0 on the checks' largest violation, vacuous on a failed premise
PL_CASES = {
    "holds": (1.0, 1e9, 0.0, 0.0, bounds.HOLDS, []),
    "alpha_too_large": (1e3, 1e9, 0.0, 0.0, bounds.VIOLATED, []),
    "outside_the_ball": (1.0, -1.0, 0.0, 0.0, bounds.VACUOUS, ["entered_ball"]),
    "radius_short_of_first_phase": (1.0, 1e-9, 1e12, 1.0, bounds.VACUOUS,
                                    ["radius_covers_first_phase"]),
    "radius_covers_first_phase": (1.0, 1e9, 1e12, 1.0, bounds.HOLDS, []),
}


@pytest.mark.parametrize("case", PL_CASES)
def test_pl_check_on_single_linear_layer(case):
    # for Z = WX with X square invertible, C_0 = 0.5*||WX - Y||^2 satisfies
    # ||grad||^2 = ||(WX - Y)X^T||^2 >= 2 s_min(X)^2 C_0, i.e. PL with
    # alpha = 8 s_min(X)^2, and the minimum value is zero
    factor, r0, m_lambda, lam, label, failed = PL_CASES[case]
    rng = np.random.default_rng(7)
    cfg = NetworkConfig(input_dim=3, widths=(2,), l1=0, l2=1, activation=SMOOTH)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((2, 3))
    alpha = 8.0 * np.linalg.svd(x, compute_uv=False)[-1] ** 2
    tcfg = TrainConfig(eta=0.01, lam=0.0, steps=30, seed=0,
                       lr_drop_fraction=1.0)
    _, traj = train(cfg, tcfg, x, y, metrics.ClassIndex((3,)))
    sched = {"alpha": factor * alpha, "r0": r0, "m_lambda": m_lambda}
    rep = bounds.pl_check(cfg, x, y, traj, sched, lam=lam, eta=0.01)
    assert (rep.holds, [k for k, ok in rep.premises.items() if not ok]) == (label, failed)
    if case == "outside_the_ball":
        assert (rep.value, rep.measured, rep.margin) == (0.0, None, None)
        assert rep.detail == {"vacuous_reason": "measured value undefined on this state"}
        return
    assert rep.margin == -rep.measured
    checks = [rep.detail[k] for k in ("pl_ok", "decay_ok", "exit_ok")]
    if label == bounds.VIOLATED:
        assert rep.margin == pytest.approx(-14.2, abs=0.05)
        assert checks == [False, False, None]
    else:
        assert rep.margin >= 0 and checks[:2] == [True, True]
    if m_lambda:  # 2 lam m_lambda passes C_0: the first phase ends at step 0
        assert (rep.detail["k1"], rep.detail["k1_dist"], checks[2]) == (0, 0.0, True)
    if case == "radius_short_of_first_phase":  # decay's tolerance at step 0
        assert rep.margin == 1e-12


def test_lipschitz_const_formula_and_preconditions():
    val = bounds.lipschitz_const([1.5, 2.0], b=1.2, n=10, beta=2.0)
    assert val == pytest.approx(5 * 10 * 2.0 * 1.2 ** 3 * 27.0 * 2 ** 2.5,
                                rel=1e-12)
    with pytest.raises(ValueError):
        bounds.lipschitz_const([0.5, 2.0], b=1.2, n=10, beta=2.0)
    with pytest.raises(ValueError):
        bounds.lipschitz_const([1.5, 2.0], b=0.9, n=10, beta=2.0)


LABEL_FIELDS = ("holds", "margin", "value", "premises")


def _label_writers() -> list:
    """(module, top-level definition, what) of every call of BoundReport and every
    write to a report's label field (an assignment, a `del`, an item assignment or
    an `update`-like call on it) in src/nclab."""
    found = []
    for path in sorted(Path(bounds.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                f = node.func if isinstance(node, ast.Call) else None
                if getattr(f, "id", getattr(f, "attr", None)) == "BoundReport":
                    found.append((*where, "BoundReport"))
                if (isinstance(node, ast.Attribute) and node.attr in LABEL_FIELDS
                        and isinstance(node.ctx, (ast.Store, ast.Del))):
                    found.append((*where, node.attr))
                if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    target = node.value  # rep.premises[key] = ... or del rep.premises[key]
                elif getattr(f, "attr", None) in ("update", "setdefault", "pop", "popitem", "clear"):
                    target = f.value
                else:
                    continue
                if isinstance(target, ast.Attribute) and target.attr in LABEL_FIELDS:
                    found.append((*where, target.attr))
    return found


def test_every_report_is_made_and_labelled_by_bound_report():
    # one labelling rule: only bound_report makes a report or writes its label
    # fields; any other function returns bound_report's report, its detail added
    found = _label_writers()
    assert [w for w in found if w[:2] != ("bounds.py", "bound_report")] == []
    assert {w[2] for w in found} == {"BoundReport", *LABEL_FIELDS}


def test_balanced_power_gap_exact_and_perturbed():
    dims = [5, 4, 4, 3]
    weights = balanced_chain(*balanced_factors(11, dims))
    cfg = NetworkConfig(input_dim=5, widths=(4, 4, 3), l1=0, l2=3,
                        activation=SMOOTH)
    params = ParamSet([w.copy() for w in weights])
    norms = {l: densemat.op_norm(w) for l, w in enumerate(weights, start=1)}
    r = max(norms.values())
    rep = bounds.balanced_power_gap(cfg, params, r, eps2=0.0, op_norms=norms)
    assert rep.measured <= 1e-10
    # perturbation: the lemma cap (L2^2/2) eps2 r^(2(L2-1)) must hold
    weights[0] = weights[0] + 1e-5 * np.ones_like(weights[0])
    params = ParamSet(weights)
    eps2 = max(metrics.balancedness_gap(params.weights[l], params.weights[l - 1])
               for l in range(1, 3))
    norms = {l: densemat.op_norm(w) for l, w in enumerate(weights, start=1)}
    r = max(max(norms.values()), 1.0)
    rep = bounds.balanced_power_gap(cfg, params, r, eps2=eps2, op_norms=norms)
    assert rep.holds == bounds.HOLDS


def test_a_power_gap_too_large_to_measure_is_vacuous_and_fails_lemma_c2(monkeypatch):
    # (W_L W_L^T)^2 of a 1e100 W_L overflows a float, so the gap has no value
    cfg = NetworkConfig(input_dim=3, widths=(3, 3), l1=0, l2=2, activation=SMOOTH)
    params = ParamSet([np.eye(3), 1e100 * np.eye(3)])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = bounds.balanced_power_gap(cfg, params, 1.0, 0.0, {1: 1.0, 2: 1e100})
    assert (rep.value, rep.measured, rep.holds) == (0.0, None, bounds.VACUOUS)
    assert rep.detail == {"vacuous_reason": "measured value undefined on this state"}
    monkeypatch.setattr(bounds, "balanced_power_gap", lambda *args: rep)
    assert verify.lemma_c2_suite(1) == (False, {"seed": 1000, "exact_gap": None})


def test_ntk_and_large_lr_bounds():
    inp = make_inputs(sK_y=2.5, eps1=0.5, k=4, r=2.0, l2=3)
    assert bounds.ntk_lower_bound(inp) == pytest.approx(
        (2.0) ** 2 * 3 / (16 * 4.0), rel=1e-12)
    # with no linear layer the floor is exactly 0, which says nothing: the
    # report's premise linear_last_layer makes it vacuous
    assert bounds.ntk_lower_bound(make_inputs(sK_y=2.5, eps1=0.5, k=4, r=2.0, l2=0)) == 0.0
    v = bounds.large_lr_kappa_bound(inp, c_ntk=8.0, m=2)
    assert v == pytest.approx(math.sqrt(24.0) * 4 * 2 / (math.sqrt(2) * 2.0),
                              rel=1e-12)
    with pytest.raises(ValueError):
        bounds.large_lr_kappa_bound(inp, c_ntk=8.0, m=4)


def test_scan_partial_product_kappa():
    dims = [4, 4, 4, 4]
    weights = balanced_chain(*balanced_factors(13, dims))
    cfg = NetworkConfig(input_dim=4, widths=(4, 4, 4), l1=0, l2=3,
                        activation=SMOOTH)
    params = ParamSet(weights)
    rep = bounds.scan_partial_product_kappa(cfg, params, m=2, bound=1e6)
    assert rep.holds == bounds.HOLDS
    assert rep.detail["layer"] in (1, 2)
    tight = bounds.scan_partial_product_kappa(cfg, params, m=2, bound=1.0 - 1e-9)
    assert tight.holds == bounds.VIOLATED


def test_bound_report_resolution_rules():
    def report(value, measured, ok=True, lower=False):
        return bounds.bound_report("x", {"p": ok}, lambda: value, measured, lower=lower)

    assert (report(1.0, 0.5).holds, report(1.0, 0.5).margin) == (bounds.HOLDS, 0.5)
    assert (report(1.0, 2.0).holds, report(1.0, 2.0).margin) == (bounds.VIOLATED, -1.0)
    # a failed premise keeps the margin
    assert (report(1.0, 0.5, ok=False).holds,
            report(1.0, 0.5, ok=False).margin) == (bounds.VACUOUS, 0.5)
    assert (report(1.0, 2.0, lower=True).holds,
            report(1.0, 2.0, lower=True).margin) == (bounds.HOLDS, 1.0)


def test_bound_report_without_a_number_has_no_margin():
    def undefined():
        raise bounds.VacuousBound("no value")

    rep = bounds.bound_report("x", {"p": True, "q": lambda v: v > 0}, undefined, 1.0)
    assert (rep.holds, rep.margin, rep.premises) == (bounds.VACUOUS, None, {"p": True})
    assert rep.detail == {"vacuous_reason": "no value"}
    rep = bounds.bound_report("x", {"q": lambda v: v > 0}, lambda: 2.0, None)
    assert (rep.holds, rep.margin, rep.premises) == (bounds.VACUOUS, None, {"q": True})
    assert rep.detail == {"vacuous_reason": "measured value undefined on this state"}
    # a right-hand side that overflows a float is vacuous, with the reason
    rep = bounds.bound_report("x", {"p": True}, lambda: 1e160 ** 2, 1.0)
    assert (rep.holds, rep.value, rep.margin) == (bounds.VACUOUS, None, None)
    assert rep.detail["vacuous_reason"].startswith("the bound overflows a float: ")
    # so is any other arithmetic fault, with its message as the reason
    rep = bounds.bound_report("x", {"p": True}, lambda: 1.0 / 0.0, 1.0)
    assert (rep.holds, rep.value, rep.margin) == (bounds.VACUOUS, None, None)
    assert rep.detail == {"vacuous_reason": "float division by zero"}


def _compared(value, measured, lower):
    """The label of a report with its premises met, by the direct comparison
    the margin replaced."""
    ok = measured >= value if lower else measured <= value
    return bounds.HOLDS if ok else bounds.VIOLATED


TINY = 5e-324  # the least subnormal
EDGE_FLOATS = [0.0, -0.0, TINY, -TINY, 2 * TINY, 2.2250738585072014e-308,
               math.nextafter(2.2250738585072014e-308, 0.0), 1.0, math.nextafter(1.0, 2.0),
               math.nextafter(1.0, 0.0), -1.0, 1.7976931348623157e308,
               -1.7976931348623157e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("as_float", [float, np.float64])
def test_margin_label_matches_the_comparison_on_edge_floats(lower, as_float):
    # ties, one-ulp and subnormal gaps, signed zeros, overflowing differences,
    # infinities and NaN; numpy scalars must not warn on any of them
    for value in EDGE_FLOATS:
        for measured in EDGE_FLOATS:
            v, m = as_float(value), as_float(measured)
            rep = bounds.bound_report("x", {}, lambda: v, m, lower=lower)
            assert rep.holds == _compared(v, m, lower), (value, measured)
            assert type(rep.margin) is float
            assert (rep.margin >= 0) == (rep.holds == bounds.HOLDS)


@settings(max_examples=400, deadline=None)
@given(st.floats(), st.floats(), st.booleans())
def test_margin_label_matches_the_comparison(value, measured, lower):
    rep = bounds.bound_report("x", {}, lambda: value, measured, lower=lower)
    assert rep.holds == _compared(value, measured, lower)
    assert (rep.margin >= 0) == (rep.holds == bounds.HOLDS)
