import json
import struct

import numpy as np
import pytest

from nclab import cli, data, densemat, metrics


BASE_CONFIG = {
    "schema_version": 1,
    "network": {"widths": [6, 4, 3], "l1": 1,
                "activation": {"kind": "smoothed_leaky_relu",
                               "gamma": 0.3, "beta": 2.0}},
    "train": {"eta": 0.05, "lam": 0.01, "steps": 200, "record_every": 50,
              "seed": 0},
    "data": {"kind": "synthetic", "d": 5, "k": 3, "n_per_class": 4,
             "class_sep": 3.0, "noise": 0.2, "seed": 1},
}


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_unknown_key_rejected_with_exit_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["momentum"] = 0.9
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "momentum" in err


def test_malformed_json_rejected(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = cli.main(["train", "--config", str(p), "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_CONFIG


def test_zero_steps_writes_single_record(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 0
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# nclab schema_version=")
    assert len(lines) == 3  # comment, header, one record at step 0
    report = json.loads((out / "report.json").read_text())
    assert report["train"]["steps_recorded"] == 1
    assert not report["train"]["diverged"]


def test_divergent_run_exits_3_and_still_writes_artifacts(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["eta"] = 100.0
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
    assert code == cli.EXIT_DIVERGED
    report = json.loads((out / "report.json").read_text())
    assert report["train"]["diverged"] is True
    assert (out / "params_final.npz").exists()


def test_train_rerun_is_bit_identical(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "metrics.csv", "config.resolved.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    a = np.load(out1 / "params_final.npz")
    b = np.load(out2 / "params_final.npz")
    for key in a.files:
        np.testing.assert_array_equal(a[key], b[key])


def test_bounds_updates_report_and_respects_premises(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 500
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    assert cli.main(["bounds", "--run", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "train" in report and "bounds" in report
    reports = report["bounds"]["reports"]
    assert reports, "expected at least one evaluated bound"
    for name, rep in reports.items():
        assert rep["holds"] in ("holds", "violated", "vacuous")
        if any(v is False for v in rep["premises"].values()):
            assert rep["holds"] == "vacuous", name


def test_bounds_missing_artifacts_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["bounds", "--run", str(empty)]) == cli.EXIT_CONFIG
    assert "missing" in capsys.readouterr().err


def test_sweep_degenerate_row_matches_standalone_train(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 100
    cfg_path = write_config(tmp_path, cfg)
    sweep_out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path),
                     "--axis", "linear_depth", "--values", "2",
                     "--seeds", "0", "--out", str(sweep_out)]) == 0
    lines = (sweep_out / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["status"] == "ok"
    # linear_depth=2 reproduces the base widths [6, 4->3?]: head becomes
    # [k]*2 on the same backbone; run the member config directly and compare
    member = cli.sweep_member_config(cli.resolve_config(cfg), "linear_depth",
                                     2, 0)
    assert member["network"]["widths"] == [6, 3, 3]
    res = cli._run_member(member, tmp_path / "member")
    assert float(row["nc1_last"]) == pytest.approx(res["nc1_last"], rel=1e-12)
    assert float(row["nc2_last"]) == pytest.approx(res["nc2_last"], rel=1e-12)


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 60
    cfg_path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    args = ["sweep", "--config", str(cfg_path), "--axis", "linear_depth",
            "--values", "1,2", "--seeds", "0,1"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2), "--jobs", "4"]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()


def test_idx_config_uses_data_dir_env(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(9, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.uint8)
    (tmp_path / "store").mkdir()
    ip = tmp_path / "store" / "imgs.idx"
    lp = tmp_path / "store" / "labs.idx"
    ip.write_bytes(struct.pack(">IIII", data.IDX_MAGIC_IMAGES, 9, 2, 2)
                   + images.tobytes())
    lp.write_bytes(struct.pack(">II", data.IDX_MAGIC_LABELS, 9)
                   + labels.tobytes())
    monkeypatch.setenv("NCLAB_DATA_DIR", str(tmp_path / "store"))
    cfg = {
        "schema_version": 1,
        "network": {"widths": [4, 3], "l1": 1,
                    "activation": {"kind": "smoothed_leaky_relu",
                                   "gamma": 0.3, "beta": 2.0}},
        "train": {"eta": 0.05, "lam": 0.01, "steps": 20, "seed": 0},
        "data": {"kind": "idx", "images": "imgs.idx", "labels": "labs.idx"},
    }
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["config"]["data"]["kind"] == "idx"


def test_class_count_mismatch_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"]["widths"] = [6, 4, 2]  # last width != k=3
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "classes" in capsys.readouterr().err


def test_bounds_report_serializes_for_ten_classes(tmp_path):
    # for K >= 6 balanced one-hot labels, s_K(Y) is the smaller term of the
    # eps1 premise, which then must still be a JSON boolean
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"]["widths"] = [12, 10, 10]
    cfg["data"].update({"d": 10, "k": 10, "n_per_class": 2})
    cfg["train"].update({"steps": 20, "record_every": 10})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    reports = json.loads((out / "report.json").read_text())["bounds"]["reports"]
    assert reports
    for rep in reports.values():
        assert all(isinstance(v, bool) for v in rep["premises"].values())


def test_numerical_failure_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 0)  # every SVD stalls
    code = cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_FAILED
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "SvdConvergenceError" in err and "Traceback" not in err


def test_sweep_member_svd_failure_is_a_member_error(tmp_path, monkeypatch):
    monkeypatch.setattr(densemat, "MAX_SWEEPS", 0)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 10
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "1,2",
                     "--seeds", "0", "--out", str(out)])
    assert code == cli.EXIT_FAILED
    lines = (out / "sweep.csv").read_text().splitlines()
    statuses = [line.split(",")[2] for line in lines[2:]]
    assert len(statuses) == 2
    assert all(s.startswith("error: ") and "did not converge" in s
               for s in statuses)


def test_sweep_exits_nonzero_when_a_member_diverges(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["eta"] = 100.0
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "2",
                     "--seeds", "0", "--out", str(out)])
    assert code == cli.EXIT_FAILED
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[2:]] == ["diverged"]


def _count_measure_calls(monkeypatch):
    calls = []
    real = metrics.measure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "measure", counting)
    return calls


def test_train_measures_each_record_once(tmp_path, monkeypatch):
    calls = _count_measure_calls(monkeypatch)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    records = json.loads((out / "report.json").read_text())["train"]["steps_recorded"]
    assert records == 5
    assert len(calls) == records


def test_sweep_member_measures_each_record_once(tmp_path, monkeypatch):
    calls = _count_measure_calls(monkeypatch)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 100
    member = cli.sweep_member_config(cli.resolve_config(cfg), "linear_depth", 2, 0)
    assert cli._run_member(member, tmp_path / "member")["status"] == "ok"
    assert len(calls) == 3  # records at steps 0, 50 and 100


def test_metrics_csv_does_not_depend_on_store_params(tmp_path):
    outs = []
    for store in (True, False):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["train"]["store_params"] = store
        out = tmp_path / f"store_{store}"
        assert cli.main(["train", "--config",
                         str(write_config(tmp_path, cfg, f"c_{store}.json")),
                         "--out", str(out)]) == cli.EXIT_OK
        outs.append(out)
    rows = (outs[1] / "metrics.csv").read_text().splitlines()[2:]
    # 5 records x layers 1..3 (the head starts at layer max(l1, 1) = 1)
    assert len(rows) == 5 * 3
    for name in ("metrics.csv", "trajectory.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert not (outs[1] / "params_init.npz").exists()


def test_depth_one_network_trains_and_bounds_fail_cleanly(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"].update({"widths": [3], "l1": 0})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    final = json.loads((out / "report.json").read_text())["train"]["final"]
    assert final["r"] is None  # the radius needs two layers
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_impossible_synthetic_data_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["data"]["d"] = 2  # fewer dimensions than the k=3 class directions
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
