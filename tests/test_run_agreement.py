"""One run's artifacts agree on its final state: `trajectory.csv`,
`metrics.csv`, the `train` block of `report.json`, the verdicts `nclab bounds`
adds to it and a sweep member's row all read one measurement, taken at the
`bounds.rank_tol` that `config.resolved.json` states; and every bound value in
the `bounds` block is its closed form of that block's `measured` numbers."""

import csv
import json
import math

import pytest

from nclab import cli, densemat, metrics, verify
from nclab.network import forward

SMOOTH_ACT = {"kind": "smoothed_leaky_relu", "gamma": 0.3, "beta": 2.0}


def _bench_config(widths, d, k, n_per_class, eta, steps, record_every, rank_tol):
    """perfbench/run.py's config at seeds (0, 1), with few steps."""
    return {
        "schema_version": 1,
        "network": {"widths": widths, "l1": 3, "activation": SMOOTH_ACT},
        "train": {"eta": eta, "lam": 0.02, "steps": steps, "record_every": record_every,
                  "lr_drop_fraction": 1.0, "lr_drop_factor": 10.0, "seed": 1,
                  "store_params": True},
        "data": {"kind": "synthetic", "d": d, "k": k, "n_per_class": n_per_class,
                 "class_sep": 1.0, "noise": 0.1, "seed": 0, "min_col_norm_one": True},
        "bounds": {"rank_tol": rank_tol},
    }


BENCH_NETS = {
    "pyramidal": lambda tol: _bench_config([64, 32, 16, 8, 4], 16, 4, 8, 0.03, 40, 20, tol),
    "wide": lambda tol: _bench_config([256, 128, 64, 10, 10], 64, 10, 20, 0.01, 20, 10, tol),
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _rows(path) -> list:
    """The rows of an nclab CSV file, below its schema line, as dicts."""
    with open(path) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _final_row(out, layer) -> dict:
    rows = _rows(out / "metrics.csv")
    last = rows[-1]["step"]
    return next(r for r in rows if r["step"] == last and int(r["layer"]) == layer)


@pytest.mark.parametrize("rank_tol", [1e-10, 0.6])
@pytest.mark.parametrize("workload", sorted(BENCH_NETS))
def test_a_runs_artifacts_agree_on_its_final_state(tmp_path, capsys, workload, rank_tol):
    cfg = BENCH_NETS[workload](rank_tol)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(_write(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    final, measured = report["train"]["final"], report["bounds"]["measured"]
    reports = report["bounds"]["reports"]
    trajectory = _rows(out / "trajectory.csv")[-1]
    assert int(trajectory["step"]) == final["step"] == cfg["train"]["steps"]
    assert float(trajectory["eps1"]) == final["eps1"] == measured["eps1"]
    assert (final["eps2"], final["r"]) == (measured["eps2"], measured["r"])
    depth = len(cfg["network"]["widths"])
    row = _final_row(out, depth - 1)  # Z_{L-1}
    assert (row["nc1"], row["nc2"], row["nc3"]) == (
        repr(measured["nc1"]), repr(reports["thm1_nc2"]["measured"]),
        repr(reports["thm1_nc3"]["measured"]))
    resolved = json.loads((out / "config.resolved.json").read_text())["config"]
    assert resolved["bounds"] == {"rank_tol": rank_tol}
    if (workload, rank_tol) == ("wide", 0.6):  # here the threshold decides NC2
        ds = cli.build_dataset(resolved)
        net, _ = cli.build_run(resolved, ds)
        z = forward(net, cli.load_params(out / "params_final.npz"), ds.x).z[depth - 1]
        assert float(row["nc2"]) != metrics.nc2(metrics.class_means(z, ds.idx)[0])


def test_a_sweep_member_measures_nc2_at_the_runs_threshold(tmp_path, capsys):
    path = _write(tmp_path, BENCH_NETS["pyramidal"](0.6))
    assert cli.main(["sweep", "--config", str(path), "--axis", "linear_depth", "--values", "2",
                     "--seeds", "1", "--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
    [row] = _rows(tmp_path / "sweep" / "sweep.csv")
    member = cli.sweep_member_config(cli.load_config(path), "linear_depth", 2, 1)
    alone = tmp_path / "alone"
    assert cli.main(["train", "--config", str(_write(tmp_path, member, "member.json")),
                     "--out", str(alone)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(alone)]) == cli.EXIT_OK
    nc2 = json.loads((alone / "report.json").read_text())["bounds"]["reports"]["thm1_nc2"]
    assert row["nc2_last"] == _final_row(alone, len(member["network"]["widths"]) - 1)["nc2"] \
        == repr(nc2["measured"])


@pytest.mark.parametrize("section, rank_tol", [
    ({"rank_tol": 0.6}, 0.6), ({}, densemat.DEFAULT_RANK_TOL), (None, densemat.DEFAULT_RANK_TOL)])
def test_the_resolved_config_states_the_rank_threshold(section, rank_tol):
    cfg = BENCH_NETS["pyramidal"](0.6)
    if section is None:
        del cfg["bounds"]
    else:
        cfg["bounds"] = section
    assert cli.resolve_config(cfg)["bounds"] == {"rank_tol": rank_tol}


def _closed_forms(m: dict, widths, l1: int, k: int, n: int) -> dict:
    """Each report's value from a `bounds` block's `measured` numbers `m`, the
    net's widths and L1, K and N; None where the bound is vacuous."""
    eps1, eps2, r, sK, x_op = (m[key] for key in ("eps1", "eps2", "r", "sK_y", "x_opnorm"))
    kw, kp, l2 = m["kappa_w_l"], m["kappa_prod"], len(widths) - l1
    gap = 0.5 * l2 ** 2 * eps2 * r ** (2 * (l2 - 1))
    if eps1 >= sK:
        return {"thm1_nc1": None, "thm1_kappa": None, "thm1_nc2": None, "thm1_nc3": None,
                "balanced_power_gap": gap, "ntk_lower": None}
    psi = r * (eps1 / (sK - eps1) + math.sqrt(widths[-2] * eps2))
    den = math.sqrt((k - 1) / k) - 2.0 * eps1 / math.sqrt(n)
    floor = (sK - eps1) ** 2 / (x_op ** 2 * r ** (2 * l1)) - gap
    q = r * psi / sK
    return {
        "thm1_nc1": (r ** 2 / n) * psi * psi / (den * den) if den > 0 else None,
        "thm1_kappa": (kp ** (1 / l2) * (1 + gap / floor) ** (1 / l2)
                       + kp ** (1 / l2 - 1) * gap / floor) if floor > 0 else None,
        "thm1_nc2": (kw + q) / (1 - q) if q < 1 else None,
        "thm1_nc3": ((math.sqrt(n) - eps1) ** 2 + n / kw ** 2
                     - (r * psi + math.sqrt(k) * (kw ** 2 - 1)) ** 2)
        / (2 * n * kw * (1 + eps1)),
        "balanced_power_gap": gap,
        "ntk_lower": (sK - eps1) ** 2 * l2 / (k ** 2 * r ** 2),
    }


def _values_match_closed_forms(block: dict, widths, l1: int, k: int, n: int) -> int:
    """Assert that each report's value in `block` is its closed form to 1e-12
    relative (None where that is vacuous); returns how many have a value."""
    expected = _closed_forms(block["measured"], widths, l1, k, n)
    values = {name: r["value"] for name, r in block["reports"].items()}
    assert values.keys() == expected.keys()
    for name, value in values.items():
        if expected[name] is None:
            assert value is None, name
        else:
            assert value == pytest.approx(expected[name], rel=1e-12, abs=0), name
    return sum(value is not None for value in values.values())


@pytest.mark.parametrize("workload, steps", [("pyramidal", 40), ("wide", 100)])
def test_every_bound_value_is_its_closed_form_of_the_measured_numbers(tmp_path, capsys,
                                                                     workload, steps):
    cfg = BENCH_NETS[workload](densemat.DEFAULT_RANK_TOL)
    cfg["train"].update(steps=steps, record_every=steps)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(_write(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    block = json.loads((out / "report.json").read_text())["bounds"]
    k = cfg["data"]["k"]
    # here Theorem 1's kappa and NC2 bounds are vacuous; the other four have values
    assert _values_match_closed_forms(block, cfg["network"]["widths"], cfg["network"]["l1"],
                                      k, k * cfg["data"]["n_per_class"]) == 4


def test_every_bound_value_on_a_theorem_1_instance_is_its_closed_form():
    inst = verify.make_thm1_instance(5000)
    net, ds = inst["cfg"], inst["ds"]
    block = cli.evaluate_bounds({"train": {"lam": 0.0},
                                 "bounds": {"rank_tol": densemat.DEFAULT_RANK_TOL}},
                                net, ds, inst["params"], None)
    assert _values_match_closed_forms(block, net.widths, net.l1, net.n_classes,
                                      ds.x.shape[1]) == 6
