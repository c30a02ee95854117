"""End-to-end acceptance checks: exact property suites plus desk-scale trend
reproduction on MLP configurations small enough to run in CI.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from nclab import bounds, cli, data, densemat, metrics, ntk, verify
from nclab.network import (ActivationSpec, NetworkConfig, ParamSet, forward,
                           gradient)
from nclab.trainer import TrainConfig, train

SMOOTH = ActivationSpec("smoothed_leaky_relu", gamma=0.3, beta=2.0)


# ---------------------------------------------------------------------------
# shared pyramidal training run (criteria 5, 6, 7, 9)
# ---------------------------------------------------------------------------

EPS1_TARGET = 0.5
EPS2_TARGET = 1e-4


@pytest.fixture(scope="module")
def pyramidal_run():
    net = NetworkConfig(input_dim=16, widths=(64, 32, 16, 8, 4), l1=3, l2=2,
                        activation=SMOOTH)
    ds = data.synth_gaussian(d=16, k=4, n_per_class=8, class_sep=1.0,
                             noise=0.1, seed=0)
    tcfg = TrainConfig(eta=0.03, lam=0.02, steps=40000, record_every=1000,
                       lr_drop_fraction=1.0, seed=0)
    params, traj = train(net, tcfg, ds.x, ds.y, ds.idx)
    assert not traj.diverged
    return {"net": net, "ds": ds, "tcfg": tcfg, "params": params,
            "traj": traj}


def test_criterion_1_gradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for trial in range(100):
        l1 = int(rng.integers(0, 4))
        l2 = int(rng.integers(1, 4))
        depth = max(l1 + l2, 1)
        d = int(rng.integers(2, 9))
        widths = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        n = int(rng.integers(2, 11))
        cfg = NetworkConfig(input_dim=d, widths=widths, l1=l1,
                            l2=depth - l1, activation=SMOOTH)
        params = ParamSet([0.7 * rng.standard_normal(cfg.layer_shape(i))
                           for i in range(1, depth + 1)])
        x = rng.standard_normal((d, n))
        y = rng.standard_normal((widths[-1], n))
        lam = float(rng.uniform(0.0, 0.1))
        g = gradient(cfg, params, x, y, lam)
        fd = verify.fd_gradient(cfg, params, x, y, lam, h=1e-5)
        num = math.sqrt(sum(float(np.sum((a - b) ** 2))
                            for a, b in zip(g.weights, fd.weights)))
        den = max(g.norm(), 1e-12)
        assert num / den <= 1e-6, f"trial {trial}: rel err {num / den:.2e}"
    assert time.monotonic() - start < 30.0


def test_criterion_2_svd_and_pinv_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for trial in range(200):
        # log-uniform sizes up to 128 keep the large-matrix share small
        m = int(round(math.exp(rng.uniform(0.0, math.log(128)))))
        n = int(round(math.exp(rng.uniform(0.0, math.log(128)))))
        a = rng.standard_normal((m, n))
        res = densemat.svd(a)
        recon = res.u @ np.diag(res.s) @ res.vt
        err = float(np.linalg.norm(a - recon))
        assert err <= 1e-10 * max(1.0, float(np.linalg.norm(a)))
        assert np.all(np.diff(res.s) <= 1e-14)
        if max(m, n) <= 32:
            p = densemat.pinv(a)
            assert float(np.linalg.norm(a @ p @ a - a)) <= 1e-8
            assert float(np.linalg.norm(p @ a @ p - p)) <= 1e-8
            assert float(np.linalg.norm((a @ p).T - a @ p)) <= 1e-8
            assert float(np.linalg.norm((p @ a).T - p @ a)) <= 1e-8
    # 2x2 analytic oracle: singular values from the trace/determinant form
    for trial in range(200):
        a = rng.standard_normal((2, 2))
        t = float(np.sum(a * a))
        d = float(np.linalg.det(a))
        disc = math.sqrt(max(t * t - 4 * d * d, 0.0))
        expected = sorted([math.sqrt(max((t + disc) / 2, 0.0)),
                           math.sqrt(max((t - disc) / 2, 0.0))], reverse=True)
        np.testing.assert_allclose(densemat.svd(a).s, expected, atol=1e-12)
    assert time.monotonic() - start < 60.0


def test_criterion_3_theorem1_bound_suite():
    start = time.monotonic()
    ok, detail = verify.thm1_suite(200)
    assert ok, detail
    assert detail["instances"] == 200
    assert time.monotonic() - start < 120.0


def test_criterion_4_balanced_chain_power_gap_suite():
    ok, detail = verify.lemma_c2_suite(100)
    assert ok, detail


def test_criterion_5_pyramidal_training_outcomes(pyramidal_run):
    net, ds = pyramidal_run["net"], pyramidal_run["ds"]
    params, traj = pyramidal_run["params"], pyramidal_run["traj"]
    # loss non-increasing at every recorded step
    losses = [r.c_lambda for r in traj.records]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    trace = forward(net, params, ds.x)
    rep = metrics.measure(net, params, trace, ds.y, ds.idx)
    assert rep.eps1 <= EPS1_TARGET
    # every linear-interface gap small at termination
    for l, gap in rep.balancedness_gaps.items():
        assert gap <= EPS2_TARGET, f"interface {l}: {gap:.3e}"
    # NC1 of the last feature layer against the gradient-descent bound with
    # measured inputs
    nc1_zlm1 = metrics.nc1(trace.z[net.depth - 1], ds.idx)
    sK_y = densemat.svd(ds.y).s[net.n_classes - 1]
    rhs = bounds.thm2_nc1_rhs(bounds.Thm1Inputs(
        eps1=rep.eps1, eps2=rep.eps2, r=rep.r, n_lminus1=net.widths[net.depth - 2],
        k=net.n_classes, n=ds.x.shape[1], sK_y=sK_y, x_opnorm=densemat.op_norm(ds.x),
        l1=net.l1, l2=net.l2))
    assert nc1_zlm1 <= rhs, f"NC1 {nc1_zlm1:.3e} > RHS {rhs:.3e}"


def test_criterion_6_shifted_pl_decay_and_exit_bound(pyramidal_run):
    net, ds = pyramidal_run["net"], pyramidal_run["ds"]
    traj, tcfg = pyramidal_run["traj"], pyramidal_run["tcfg"]
    params0 = traj.records[0].params
    s0 = bounds.init_spectra(net, params0, forward(net, params0, ds.x), ds.y, tcfg.lam)
    rep_metrics = metrics.measure(net, pyramidal_run["params"],
                                  forward(net, pyramidal_run["params"], ds.x),
                                  ds.y, ds.idx)
    inp = bounds.Thm1Inputs(
        eps1=EPS1_TARGET, eps2=EPS2_TARGET, r=rep_metrics.r,
        n_lminus1=net.widths[net.depth - 2], k=net.n_classes, n=ds.x.shape[1],
        sK_y=ds.idx.sK_y, x_opnorm=densemat.op_norm(ds.x), l1=net.l1, l2=net.l2)
    sched = bounds.thm2_schedule(s0, net, inp, ds.b, lam=tcfg.lam, eta=tcfg.eta)
    rep = bounds.pl_check(net, ds.x, ds.y, traj, sched, tcfg.lam, tcfg.eta)
    assert rep.detail["pl_ok"], rep.detail
    assert rep.detail["decay_ok"], rep.detail
    # distance bound at the first-phase exit step
    assert rep.detail["exit_ok"] is not False, rep.detail
    assert rep.holds == bounds.HOLDS


def test_criterion_7_ntk_power_iteration_and_lower_bound(pyramidal_run):
    # dense-assembly agreement at a configuration with P * N * K <= 2000
    cfg = NetworkConfig(input_dim=3, widths=(4, 2), l1=1, l2=1,
                        activation=SMOOTH)
    rng = np.random.default_rng(0)
    params = ParamSet([0.6 * rng.standard_normal(cfg.layer_shape(i))
                       for i in (1, 2)])
    x = rng.standard_normal((3, 5))
    n_params = sum(w.size for w in params.weights)
    assert n_params * 2 * 5 <= 2000
    trace = forward(cfg, params, x)
    theta = ntk.dense_ntk(cfg, params, trace)
    dense_top = float(np.linalg.eigvalsh(theta)[-1])
    rep = ntk.ntk_opnorm(cfg, params, trace)
    assert rep.converged
    assert abs(rep.rho - dense_top) <= 1e-6 * dense_top

    # trained pyramidal net: top NTK eigenvalue dominates the deep-head bound
    net, ds = pyramidal_run["net"], pyramidal_run["ds"]
    params = pyramidal_run["params"]
    mrep = metrics.measure(net, params, forward(net, params, ds.x), ds.y,
                           ds.idx)
    sK_y = densemat.svd(ds.y).s[net.n_classes - 1]
    lower = bounds.ntk_lower_bound(bounds.Thm1Inputs(
        eps1=mrep.eps1, eps2=mrep.eps2, r=mrep.r, n_lminus1=net.widths[net.depth - 2],
        k=net.n_classes, n=ds.x.shape[1], sK_y=sK_y, x_opnorm=densemat.op_norm(ds.x),
        l1=net.l1, l2=net.l2))
    big = ntk.ntk_opnorm(net, params, forward(net, params, ds.x))
    assert big.rho >= lower, f"rho {big.rho:.3e} < bound {lower:.3e}"


def test_criterion_8_linear_depth_sweep_trend(tmp_path):
    start = time.monotonic()
    cfg = {
        "schema_version": 1,
        "network": {"widths": [16, 8, 3], "l1": 2,
                    "activation": {"kind": "smoothed_leaky_relu",
                                   "gamma": 0.3, "beta": 2.0}},
        "train": {"eta": 0.05, "lam": 0.02, "steps": 30000,
                  "record_every": 30000, "lr_drop_fraction": 1.0, "seed": 0},
        "data": {"kind": "synthetic", "d": 8, "k": 3, "n_per_class": 4,
                 "class_sep": 1.0, "noise": 0.1, "seed": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path),
                     "--axis", "linear_depth", "--values", "1,2,3,4,5",
                     "--seeds", "0,1,2,3,4", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    by_depth = {}
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        assert row["status"] == "ok", row
        by_depth.setdefault(int(row["value"]), []).append(
            float(row["nc2_last"]))
    medians = [statistics.median(by_depth[v]) for v in range(1, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:])), medians
    assert medians[4] <= 0.8 * medians[0], medians
    assert time.monotonic() - start < 600.0


def test_criterion_9_balancedness_ratio_collapse(pyramidal_run):
    net, ds = pyramidal_run["net"], pyramidal_run["ds"]
    traj, params = pyramidal_run["traj"], pyramidal_run["params"]
    params0 = traj.records[0].params
    rep0 = metrics.measure(net, params0, forward(net, params0, ds.x), ds.y,
                           ds.idx)
    rep1 = metrics.measure(net, params, forward(net, params, ds.x), ds.y,
                           ds.idx)
    assert rep0.balancedness_ratios, "expected linear interfaces"
    for l, initial in rep0.balancedness_ratios.items():
        final = rep1.balancedness_ratios[l]
        assert final <= 0.01 * initial, (
            f"interface {l}: {final:.3e} > 1% of {initial:.3e}")


def test_acceptance_run_verdict_table(pyramidal_run):
    # the table `nclab bounds` prints for this run: every bound holds
    net, ds, params = pyramidal_run["net"], pyramidal_run["ds"], pyramidal_run["params"]
    ctx = bounds.run_context(net, ds, pyramidal_run["tcfg"].lam,
                             pyramidal_run["traj"].records[0].params)
    trace = forward(net, params, ds.x)
    rep = metrics.measure(net, params, trace, ds.y, ds.idx)
    state, inp = bounds.state_verdicts(ctx, net, params, trace, rep)
    _, state["reports"]["ntk_lower"] = bounds.ntk_verdict(net, params, trace, state, inp)
    reports = state["reports"]
    assert {name: r.holds for name, r in reports.items()} == dict.fromkeys(
        ("thm1_nc1", "thm1_kappa", "thm1_nc2", "thm1_nc3", "balanced_power_gap",
         "ntk_lower"), bounds.HOLDS)
    assert all(ok is True for r in reports.values() for ok in r.premises.values())
    assert all(r.margin >= 0 for r in reports.values())
    assert "error" not in state["schedule"]


def test_criterion_10_balanced_label_identities():
    for k in (2, 4, 10):
        n_per = 6
        y = data.one_hot(np.repeat(np.arange(k), n_per), k)
        idx = metrics.ClassIndex((n_per,) * k)
        means, mu_g = metrics.class_means(y, idx)
        avg_dist = float(np.mean(np.linalg.norm(means - mu_g, axis=0)))
        assert abs(avg_dist - math.sqrt((k - 1) / k)) <= 1e-12
        s = densemat.svd(y).s
        assert abs(s[k - 1] - math.sqrt(y.shape[1] / k)) <= 1e-12
