import csv
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nclab import bounds, cli, data, densemat, metrics, network, ntk, trainer


SMOOTH_ACT = {"kind": "smoothed_leaky_relu", "gamma": 0.3, "beta": 2.0}

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


SRC = str(Path(cli.__file__).resolve().parent.parent)


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_no_command_imports_jsonschema(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=5, record_every=5)
    good = write_config(tmp_path, cfg)
    cfg["train"]["momentum"] = 0.9
    bad = write_config(tmp_path, cfg, "bad.json")
    proc = _fresh_python(
        "import sys; from nclab.cli import main; import nclab.verify; cfg, bad, out = sys.argv[1:]\n"
        "print([main(['train', '--config', cfg, '--out', out + '/run']),"
        " main(['bounds', '--run', out + '/run']),"
        " main(['sweep', '--config', cfg, '--axis', 'linear_depth', '--values', '1,2',"
        " '--seeds', '0', '--out', out + '/sweep']),"
        " main(['train', '--config', bad, '--out', out + '/bad'])], 'jsonschema' in sys.modules)",
        str(good), str(bad), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 2] False"
    # the refused config gave one stderr line naming its field
    assert proc.stderr.splitlines() == [
        "config error: config field train: additional properties are not allowed ('momentum')"]


def test_nclab_imports_without_scipy():
    # the activation's normal CDF is nclab's own; scipy is a test-only oracle
    proc = _fresh_python("import sys, nclab.cli, nclab.verify; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_train_and_sweep_load_neither_bounds_nor_verify_nor_gzip(tmp_path):
    # bounds and ntk are imported by evaluate_bounds, gzip by data.read_idx
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=3, record_every=1)
    proc = _fresh_python(
        "import sys; from nclab.cli import main; cfg, out = sys.argv[1:]\n"
        "codes = [main(['train', '--config', cfg, '--out', out + '/run']),"
        " main(['sweep', '--config', cfg, '--axis', 'linear_depth', '--values', '1,2',"
        " '--seeds', '0', '--out', out + '/sweep'])]\n"
        "print(codes, [m for m in ('nclab.bounds', 'nclab.ntk', 'nclab.verify', 'gzip')"
        " if m in sys.modules])",
        str(write_config(tmp_path, cfg)), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


DROP = object()  # remove the key instead of setting it


def _edit(cfg, keys, value):
    """`cfg` with the entry at the path `keys` set to `value` (or dropped)."""
    *parents, last = keys
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


def _mutated(keys, value):
    return _edit(json.loads(json.dumps(BASE_CONFIG)), keys, value)


def _refused_field(capsys, code) -> str:
    """The field named by the one stderr line of a command that exited 2."""
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_CONFIG and len(err) == 1, err
    assert err[0].startswith("config error: config field "), err
    return err[0][len("config error: config field "):].split(": ")[0]


KEYWORD_CASES = [
    ("type", ["train", "eta"], "0.05", "train/eta"),
    ("const", ["schema_version"], 2, "schema_version"),
    ("enum", ["data", "kind"], "csv", "data/kind"),
    ("minimum", ["train", "lam"], -0.1, "train/lam"),
    ("maximum", ["train", "lr_drop_fraction"], 1.5, "train/lr_drop_fraction"),
    ("exclusiveMinimum", ["train", "eta"], 0, "train/eta"),
    ("exclusiveMaximum", ["bounds", "rank_tol"], 1, "bounds/rank_tol"),
    ("minItems", ["network", "widths"], [], "network/widths"),
    ("items", ["network", "widths"], [6, 0, 3], "network/widths/1"),
    ("required", ["train", "lam"], DROP, "train"),
    ("properties", ["network", "activation", "beta"], 0.5, "network/activation/beta"),
    ("additionalProperties", ["momentum"], 0.9, "<root>"),
]


@pytest.mark.parametrize("keyword, keys, value, field", KEYWORD_CASES,
                         ids=[case[0] for case in KEYWORD_CASES])
def test_each_schema_keyword_refuses_with_exit_2(tmp_path, capsys, keyword, keys, value,
                                                 field):
    cfg = _mutated(keys, value)
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert _refused_field(capsys, code) == field
    assert not (tmp_path / "run").exists()


def _schemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)
    if "items" in schema:
        yield from _schemas(schema["items"])


def test_config_schema_uses_only_keywords_the_validator_reads():
    assert {case[0] for case in KEYWORD_CASES} == cli.SCHEMA_KEYWORDS
    for schema in _schemas(cli.CONFIG_SCHEMA):
        assert set(schema) <= cli.SCHEMA_KEYWORDS, schema
        assert schema.get("additionalProperties", False) is False, schema
        assert schema.get("type", "object") in {
            "object", "array", "string", "boolean", "number", "integer"}, schema


@pytest.mark.parametrize("keys, value, field", [
    (["train", "steps"], 20.0, "train/steps"), (["network", "l1"], 1.0, "network/l1"),
    (["data", "d"], 5.0, "data/d"), (["train", "seed"], 2.0, "train/seed"),
    (["train", "record_every"], 10.0, "train/record_every"),
    (["network", "widths"], [6.0, 4, 3], "network/widths/0"),
    (["data", "classes"], [0, 1.0, 2], "data/classes/1")])
def test_integer_fields_take_json_integers_only(tmp_path, capsys, keys, value, field):
    code = cli.main(["train", "--config", str(write_config(tmp_path, _mutated(keys, value))),
                     "--out", str(tmp_path / "run")])
    assert _refused_field(capsys, code) == field


@pytest.mark.parametrize("keys, value, field", [
    (["bounds", "rank_tol"], 0, "bounds/rank_tol"),
    (["bounds", "rank_tol"], 1.5, "bounds/rank_tol"),
    (["data", "seed"], DROP, "data"),
    (["network", "activation", "gamma"], 2, "network/activation/gamma"),
    (["bounds", "rank_tol"], DROP, "bounds"),  # the run's one rank threshold
    (["bounds"], DROP, "bounds")])
def test_bounds_validates_the_resolved_config(tmp_path, capsys, keys, value, field):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    resolved = json.loads((out / "config.resolved.json").read_text())
    _edit(resolved["config"], keys, value)
    (out / "config.resolved.json").write_text(json.dumps(resolved))
    report = (out / "report.json").read_text()
    assert _refused_field(capsys, cli.main(["bounds", "--run", str(out)])) == field
    assert (out / "report.json").read_text() == report


NON_FINITE_CASES = [
    (["train", "eta"], math.nan, "train/eta"),
    (["train", "lr_drop_factor"], math.inf, "train/lr_drop_factor"),
    (["data", "noise"], -math.inf, "data/noise"),
    (["network", "activation", "beta"], math.inf, "network/activation/beta"),
    (["train", "init_scales"], [1.0, math.nan, 1.0], "train/init_scales/1")]


@pytest.mark.parametrize("keys, value, field", NON_FINITE_CASES)
@pytest.mark.parametrize("command", ["train", "bounds"])
def test_non_finite_numbers_are_refused_with_exit_2(tmp_path, capsys, command, keys, value,
                                                    field):
    out = tmp_path / "run"
    if command == "train":
        code = cli.main(["train", "--config", str(write_config(tmp_path, _mutated(keys, value))),
                         "--out", str(out)])
        assert not out.exists()
    else:
        assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                         "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        resolved = json.loads((out / "config.resolved.json").read_text())
        _edit(resolved["config"], keys, value)
        (out / "config.resolved.json").write_text(json.dumps(resolved))
        report = (out / "report.json").read_text()
        code = cli.main(["bounds", "--run", str(out)])
        assert (out / "report.json").read_text() == report
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_CONFIG and len(err) == 1, err
    assert err[0].startswith(f"config error: config field {field}: "), err
    assert err[0].endswith("is not a finite number"), err


@pytest.mark.parametrize("name", ["config.resolved.json", "report.json"])
@pytest.mark.parametrize("text", ["{not json", "[]"])
def test_bounds_refuses_a_malformed_run_file_with_exit_2(tmp_path, capsys, name, text):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    (out / name).write_text(text)
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and str(out / name) in err[0]
    assert (out / name).read_text() == text


@pytest.mark.parametrize("entry", [[], 5])
def test_bounds_refuses_a_report_whose_train_entry_is_not_an_object(tmp_path, capsys, entry):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    text = json.dumps({"schema_version": 1, "train": entry})
    (out / "report.json").write_text(text)
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(out / "report.json") in err[0], err
    assert (out / "report.json").read_text() == text


def _random_mutation(cfg, rng, names, pool):
    """Set, add or delete one random entry of one random object or array of `cfg`."""
    nodes, stack = [], [cfg]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = rng.choice(nodes)
    value = json.loads(json.dumps(rng.choice(pool)))
    if isinstance(node, dict):
        key = rng.choice(list(node)) if node and rng.random() < 0.8 else rng.choice(names)
        if key in node and rng.random() < 0.1:
            del node[key]
        else:
            node[key] = value
    elif node and rng.random() < 0.3:
        del node[rng.randrange(len(node))]
    elif node and rng.random() < 0.6:
        node[rng.randrange(len(node))] = value
    else:
        node.append(value)


def test_validator_agrees_with_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    stock = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
    # the one intended difference: an integer field takes no integral float
    strict = jsonschema.validators.extend(
        jsonschema.Draft202012Validator,
        type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)),
    )(cli.CONFIG_SCHEMA)
    names = sorted({name for schema in _schemas(cli.CONFIG_SCHEMA)
                    for name in schema.get("properties", {})} | {"zz_unknown"})
    pool = [0, 1, 2, 3, 4, -1, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -0.5, 1e-10, True, False, None,
            "relu", "leaky_relu", "idx", "synthetic", "x", [], [1], [3, 3], [0.5], [2.0],
            {}, {"kind": "relu"}]
    rng = random.Random(19)
    tally = {"accepted": 0, "refused": 0, "integral_float_only": 0}
    for _ in range(2500):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        for _ in range(rng.choice([1, 1, 2, 3])):
            _random_mutation(cfg, rng, names, pool)
        try:
            cli.validate_config(cfg)
            field = None
        except cli.ConfigError as exc:
            field = str(exc)[len("config field "):].split(": ")[0]
        errors = list(strict.iter_errors(cfg))
        assert (field is None) == (not errors), (cfg, field)
        if errors:  # the field named is one jsonschema names too
            assert field in {"/".join(map(str, e.absolute_path)) or "<root>"
                             for e in errors}, (cfg, field)
        stock_accepts = stock.is_valid(cfg)
        assert stock_accepts or errors  # nclab accepts nothing that jsonschema refuses
        tally["accepted" if field is None else "refused"] += 1
        tally["integral_float_only"] += stock_accepts and bool(errors)
    assert min(tally.values()) >= 20, tally


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


def test_divergence_reports_its_step_and_cause(tmp_path, capsys):
    divergences = []
    for every in (1000, 1):  # the same step and cause whatever the cadence
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["train"].update(eta=100.0, record_every=every)
        out = tmp_path / f"run_{every}"
        code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
        assert code == cli.EXIT_DIVERGED
        div = json.loads((out / "report.json").read_text())["train"]["divergence"]
        assert div["step"] == 1
        assert div["cause"].startswith("c_0 = ")
        assert "exceeds the divergence threshold" in div["cause"]
        err = capsys.readouterr().err
        assert f"diverged at step {div['step']}: {div['cause']}" in err
        divergences.append(div)
    assert divergences[0] == divergences[1]
    # a healthy run's report has no divergence entry
    healthy = tmp_path / "ok"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(healthy)]) == cli.EXIT_OK
    assert "divergence" not in json.loads((healthy / "report.json").read_text())["train"]


def test_divergence_at_step_0_names_no_healthy_record(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=5, init_scales=[1e6, 1e6, 1e6])
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err.strip()
    assert err.startswith("diverged at step 0: c_0 = ")
    assert err.endswith("exceeds the divergence threshold 1e+12")  # the state that failed


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


def _params_digest(params) -> bytes:
    return hashlib.sha256(b"".join(w.tobytes() for w in params.weights)).digest()


def test_bounds_traces_the_final_state_once(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    traced = []
    real = network.forward

    def recording(cfg, params, x):
        traced.append(_params_digest(params))
        return real(cfg, params, x)

    assert not hasattr(ntk, "forward")  # the NTK reads the trace it is given
    for module in (cli, bounds, network):  # every module that calls forward in `bounds`
        monkeypatch.setattr(module, "forward", recording)
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    init, final = (cli.load_params(out / f"params_{which}.npz") for which in ("init", "final"))
    assert traced == [_params_digest(init), _params_digest(final)]


def test_train_traces_the_final_state_once(tmp_path, monkeypatch):
    traced = []
    real = network.forward

    def recording(cfg, params, x, out=None):
        traced.append(_params_digest(params))
        return real(cfg, params, x, out)

    for module in (cli, network, trainer):  # every module that calls forward in `train`
        monkeypatch.setattr(module, "forward", recording)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    final = cli.load_params(out / "params_final.npz")
    assert traced.count(_params_digest(final)) == 1


def _count_forward_calls(monkeypatch) -> list:
    calls = []
    real = network.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (cli, network, trainer):  # every module that calls forward in training
        monkeypatch.setattr(module, "forward", counting)
    return calls


def test_train_traces_each_state_once_in_one_workspace(tmp_path, monkeypatch):
    calls, built = _count_forward_calls(monkeypatch), []

    class Counting(trainer.Workspace):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(trainer, "Workspace", Counting)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=10, record_every=1)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "report.json").read_text())["train"]["steps_recorded"] == 11
    assert len(calls) == 11 and len(built) == 1  # states 0 .. 10, one workspace


@pytest.mark.parametrize("axis, groups", [("linear_depth", 1), ("nonlinear_depth", 2)])
def test_sweep_traces_each_state_once_per_lockstep_group(tmp_path, monkeypatch, axis, groups):
    calls = _count_forward_calls(monkeypatch)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=10, record_every=1)
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--axis", axis,
                     "--values", "1,2", "--seeds", "0,1",
                     "--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
    assert len(calls) == groups * 11


def test_sweep_hashes_its_data_once(tmp_path, monkeypatch):
    made = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: made.append(1) or real(*a))
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=5, record_every=5)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "1,2,3", "--seeds", "0",
                     "--out", str(out)]) == cli.EXIT_OK
    assert len(made) == 1  # three members, one dataset
    digests = {json.loads((out / f"value_{v}_seed_0" / "report.json").read_text())
               ["train"]["data_sha256"] for v in (1, 2, 3)}
    assert digests == {cli.build_dataset(cli.resolve_config(cfg)).fingerprint()}


@pytest.mark.parametrize("l1", [1, 2])  # l2 = 2 and l2 = 1
def test_means_grams_are_the_final_class_mean_grams(tmp_path, l1):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"]["l1"] = l1
    out = tmp_path / "run"
    path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    resolved = cli.load_config(path)
    ds = cli.build_dataset(resolved)
    net = cli.build_network(resolved, ds.x.shape[0])
    trace = network.forward(net, cli.load_params(out / "params_final.npz"), ds.x)
    for layer in (1, 2, 3):
        zbar, _ = metrics.class_means(trace.z[layer], ds.idx)
        _, rows = _read_csv(out / f"means_gram_{layer}.csv")
        assert rows == [[cli._fmt(v) for v in row] for row in zbar.T @ zbar]
    _, rows = _read_csv(out / "metrics.csv")
    assert {int(row[1]) for row in rows} == {1, 2, 3}


def test_means_gram_cells_are_plain_floats(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    files = sorted(out.glob("means_gram_*.csv"))
    assert files
    for path in files:
        _, rows = _read_csv(path)
        for row in rows:
            for cell in row:
                float(cell)
    assert cli._fmt(np.float64(0.1)) == cli._fmt(0.1) == "0.1"


def test_json_artifacts_are_strict_json(tmp_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    path = tmp_path / "report.json"
    cli.write_json(path, {"a": float("inf"), "b": [np.float64("nan"), np.float64(0.5)],
                          "c": {"d": -math.inf, "e": np.int64(3)}})
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": "inf", "b": ["nan", 0.5], "c": {"d": "-inf", "e": 3}, "schema_version": 1}


def test_bounds_reports_a_schedule_overflow_and_keeps_the_verdicts(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update({"steps": 0, "init_scales": [1e30, 1e30, 1e30]})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    bounds_out = json.loads((out / "report.json").read_text())["bounds"]
    assert set(bounds_out["schedule"]) == {"error"}
    assert "overflow" in bounds_out["schedule"]["error"]
    assert set(bounds_out["reports"]) == {"thm1_nc1", "thm1_kappa", "thm1_nc2", "thm1_nc3",
                                          "balanced_power_gap", "ntk_lower"}
    assert {"measured", "ntk"} <= set(bounds_out)


SCHEDULE_KEYS = {
    "lambda_f", "lambda_l", "bar_lambda_l", "lambda_3_to_l", "alpha", "r0", "b", "m_lambda",
    "beta1", "lambda_cap", "lambda_caps", "eta_cap", "eta_caps", "lam", "eta", "k_floor",
    "k_floor_terms", "r_of_lambda", "c0_init", "c_lambda_init", "theta0_norm", "assumption3",
    "eps1_premise"}


def test_bounds_schedule_block_has_every_key_on_a_depth_3_run(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 50
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    schedule = json.loads((out / "report.json").read_text())["bounds"]["schedule"]
    assert len(SCHEDULE_KEYS) == 23 and set(schedule) == SCHEDULE_KEYS
    assert set(schedule["lambda_l"]) == set(schedule["bar_lambda_l"]) == {"1", "2", "3"}


def _read_csv(path):
    lines = path.read_text().splitlines()[1:]  # below the schema line
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("change, reason", [
    ({"train": {"store_params": False}}, "params_init"),
    ({"network": {"widths": [4, 3]}}, "depth"),
    ({"network": {"activation": {"kind": "relu"}}}, "gamma"),
    ({"data": {"class_sep": 0.3, "noise": 0.01, "min_col_norm_one": False}}, "data bound"),
])
def test_bounds_reports_why_there_is_no_schedule(tmp_path, change, reason):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for section, fields in change.items():
        cfg[section].update(fields)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    bounds_out = json.loads((out / "report.json").read_text())["bounds"]
    assert set(bounds_out["schedule"]) == {"error"}
    assert reason in bounds_out["schedule"]["error"]


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
    res = cli._run_member(member, cli.build_dataset(member), tmp_path / "member")
    assert float(row["nc1_last"]) == pytest.approx(res["nc1_last"], rel=1e-12)
    assert float(row["nc2_last"]) == pytest.approx(res["nc2_last"], rel=1e-12)


IDX_IMAGES = struct.pack(">IIII", 0x00000803, 9, 2, 2) + np.random.default_rng(0).integers(
    0, 256, size=(9, 2, 2), dtype=np.uint8).tobytes()
IDX_LABELS = struct.pack(">II", 0x00000801, 9) + bytes([0, 1, 2] * 3)
IDX_CONFIG = {
    "schema_version": 1,
    "network": {"widths": [4, 3], "l1": 1,
                "activation": {"kind": "smoothed_leaky_relu",
                               "gamma": 0.3, "beta": 2.0}},
    "train": {"eta": 0.05, "lam": 0.01, "steps": 20, "seed": 0},
    "data": {"kind": "idx", "images": "imgs.idx", "labels": "labs.idx"},
}


def _idx_train(tmp_path, monkeypatch, images=IDX_IMAGES, labels=IDX_LABELS, **data_cfg):
    """`nclab train` on IDX files in a store named by $NCLAB_DATA_DIR."""
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "imgs.idx").write_bytes(images)
    (tmp_path / "store" / "labs.idx").write_bytes(labels)
    monkeypatch.setenv("NCLAB_DATA_DIR", str(tmp_path / "store"))
    cfg = json.loads(json.dumps(IDX_CONFIG))
    cfg["data"].update(data_cfg)
    return cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])


def test_idx_config_uses_data_dir_env(tmp_path, monkeypatch):
    assert _idx_train(tmp_path, monkeypatch) == 0
    resolved = json.loads((tmp_path / "run" / "config.resolved.json").read_text())
    assert resolved["config"]["data"]["kind"] == "idx"


def test_bounds_rebuilds_and_checks_idx_data(tmp_path, monkeypatch, capsys):
    assert _idx_train(tmp_path, monkeypatch) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(tmp_path / "run")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["bounds"]["ntk"]["theta_opnorm"] > 0
    # other files under the same names are not the data the run saw
    (tmp_path / "store" / "imgs.idx").write_bytes(IDX_IMAGES[:-1] + bytes([IDX_IMAGES[-1] ^ 1]))
    assert cli.main(["bounds", "--run", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert "SHA-256 mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("edit, word", [
    ({"images": b"\x00\x00\x09" + IDX_IMAGES[3:]}, "bad magic"),
    ({"images": IDX_IMAGES[:-1]}, "truncated"),
    ({"labels": IDX_LABELS[:6]}, "truncated"),
    ({"images": IDX_IMAGES + b"\x00"}, "trailing"),
    ({"labels": struct.pack(">II", 0x00000801, 8) + IDX_LABELS[8:-1]}, "label count"),
    ({"images": IDX_LABELS, "labels": IDX_IMAGES}, "3-D images and 1-D labels"),
    ({"classes": [0, 1, 0]}, "duplicate classes"),
], ids=["bad_magic", "truncated", "truncated_header", "trailing", "label_count",
        "swapped", "duplicate_classes"])
def test_idx_data_errors_exit_2(tmp_path, monkeypatch, capsys, edit, word):
    assert _idx_train(tmp_path, monkeypatch, **edit) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot load idx data: "), err
    assert word in err[0]


def test_class_count_mismatch_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"]["widths"] = [6, 4, 2]  # last width != k=3
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("scales", [[1.0, 1.0], [1.0] * 4])
def test_init_scales_need_one_entry_per_layer(tmp_path, capsys, scales):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["init_scales"] = scales  # the net has 3 layers
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "config error: config field train/init_scales: "), err
    assert not out.exists()


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


# a state whose first layer overflows a float at step 0
OVERFLOW_CONFIG = {
    "schema_version": 1,
    "network": {"widths": [8, 4, 3], "l1": 1, "activation": SMOOTH_ACT},
    "train": {"eta": 0.01, "lam": 0.0, "steps": 5, "init_scales": [1e160, 1.0, 1.0]},
    "data": {"kind": "synthetic", "d": 4, "k": 3, "n_per_class": 2},
}


# (init_scales, divergence step, balanced_power_gap's reason): a first layer, then
# head layers, whose numbers overflow a float; [1, 1e160, 1e-160] has a finite c_0
# at step 0, and at [1, 1e100, 1e100] the bound's power of r stays in range while
# the measured gap's (W_L W_L^T)^2 overflows
OVERFLOWS = [
    ([1e160, 1.0, 1.0], 0, "the bound overflows a float: "),
    ([1.0, 1e155, 1.0], 0, "the bound overflows a float: "),
    ([1.0, 1e200, 1e200], 0, "the bound overflows a float: "),
    ([1.0, 1e160, 1e-160], 1, "the bound overflows a float: "),
    ([1.0, 1e100, 1e100], 0, "measured value undefined on this state"),
]
# the schedule's error names its term: beta1 = lipschitz_const(...) cubes the
# product of theta_0's layer norms on these two, a lambda cap is NaN on the rest
BETA1_OVERFLOWS = ([1.0, 1e160, 1e-160], [1.0, 1e100, 1e100])


@pytest.mark.parametrize("scales, step, gap_reason", OVERFLOWS)
def test_a_state_that_overflows_a_float_diverges_and_its_bounds_are_vacuous(
        tmp_path, capsys, scales, step, gap_reason):
    # tier 1 turns every warning into an error: no numpy warning may leak
    cfg = json.loads(json.dumps(OVERFLOW_CONFIG))
    cfg["train"]["init_scales"] = scales
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"diverged at step {step}: c_0 = inf")
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(": vacuous, " in line for line in lines) == 6
    assert lines[-1] == "evaluated 6 bounds, 0 hold"

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    block = json.loads((out / "report.json").read_text(), parse_constant=refuse)["bounds"]
    assert block["ntk"] == {"error": "the NTK applied to a probe is not finite"}
    assert list(block["schedule"]) == ["error"] and block["schedule"]["error"].startswith(
        "the GD schedule overflows a float: beta1: " if scales in BETA1_OVERFLOWS
        else "lambda_caps[1] is NaN")
    assert block["reports"]["ntk_lower"]["holds"] == "vacuous"
    assert block["reports"]["balanced_power_gap"]["detail"]["vacuous_reason"].startswith(
        gap_reason)
    assert _nan_fields(out) == []


def _nan_fields(run: Path) -> list:
    """(file, field) of every field of `run`'s CSV and JSON artifacts that reads
    nan: a number that cannot be computed is None, empty or a stated reason."""
    def walk(value, where):
        if isinstance(value, dict):
            return [hit for k, v in value.items() for hit in walk(v, f"{where}/{k}")]
        if isinstance(value, list):
            return [hit for i, v in enumerate(value) for hit in walk(v, f"{where}/{i}")]
        return [where] if isinstance(value, str) and value.lower() == "nan" else []

    hits = []
    for path in sorted(run.iterdir()):
        if path.suffix == ".json":
            hits += [(path.name, where) for where in walk(json.loads(path.read_text()), "")]
        elif path.suffix == ".csv":
            rows = csv.reader(path.read_text().splitlines())
            hits += [(path.name, f"row {i}") for i, row in enumerate(rows)
                     if any(field.lower() == "nan" for field in row)]
    return hits


def test_a_nan_cap_makes_the_schedule_an_error_that_names_it(tmp_path):
    # an inf ||theta_0|| and c_0 make the second lambda cap 2 c_0 / ||theta_0||^2
    # inf/inf, which `min` would pass over to take the first, finite cap
    cfg = json.loads(json.dumps(OVERFLOW_CONFIG))
    cfg["train"]["init_scales"] = [1.0, 1e200, 1e200]
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_DIVERGED
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    block = json.loads((out / "report.json").read_text())["bounds"]
    assert block["schedule"] == {"error": "lambda_caps[1] is NaN"}


def test_a_zero_init_runs_schedule_has_zero_caps_from_a_zero_lambda_f(tmp_path, capsys):
    # Z_1 = sigma(0) has identical columns, whose SVD must converge; theta_0 = 0
    # makes lambda_F = ||theta_0|| = 0: the first lambda cap is 0, the two that
    # divide by ||theta_0|| are inf, and the step count's first phase never ends
    cfg = json.loads(json.dumps(OVERFLOW_CONFIG))
    cfg["train"]["init_scales"] = [0.0, 0.0, 0.0]
    cfg["data"]["d"] = 6
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    schedule = json.loads((out / "report.json").read_text())["bounds"]["schedule"]
    assert (schedule["lambda_caps"], schedule["lambda_cap"]) == ([0.0, "inf", "inf"], 0.0)
    assert (schedule["eta_cap"], schedule["k_floor_terms"]) == (0.0, ["inf", 0.0])


def test_the_schedule_reads_a_zero_eps2_unfloored(tmp_path):
    # L2 = 1 has no linear interface, so eps2 is exactly 0: the fourth eta cap is 0,
    # and at eta = 0 the first phase never ends (at eps2 = 1e-8 the eta cap was
    # 7.6e-24 and the step count 9.3e27)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"]["l1"] = 2
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    block = json.loads((out / "report.json").read_text())["bounds"]
    assert block["measured"]["eps2"] == 0.0
    assert (block["schedule"]["eta_cap"], block["schedule"]["k_floor"]) == (0.0, "inf")


def test_a_sweep_whose_member_overflows_writes_its_row(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, OVERFLOW_CONFIG)),
                     "--axis", "linear_depth", "--values", "2",
                     "--seeds", "0", "--out", str(out)])
    assert code == cli.EXIT_FAILED
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[2:]] == ["diverged"]


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


def test_sweep_exits_nonzero_when_a_member_diverges(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["eta"] = 100.0
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "2",
                     "--seeds", "0", "--out", str(out)])
    assert code == cli.EXIT_FAILED
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[2:]] == ["diverged"]
    div = json.loads((out / "value_2_seed_0" / "report.json").read_text())["train"]
    assert div["diverged"] and div["divergence"]["cause"].startswith("c_0 = ")
    err = capsys.readouterr().err
    assert (f"value_2_seed_0: diverged at step {div['divergence']['step']}: "
            f"{div['divergence']['cause']}") in err


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
    assert cli._run_member(member, cli.build_dataset(member),
                           tmp_path / "member")["status"] == "ok"
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


def test_sweep_csv_quotes_a_status_with_a_comma(tmp_path, monkeypatch):
    def failing_member(cfg, ds, out, group):
        raise ValueError("width 0, depth 2")

    monkeypatch.setattr(cli, "_run_member", failing_member)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--axis", "linear_depth", "--values", "1,2",
                     "--seeds", "0", "--out", str(out)])
    assert code == cli.EXIT_FAILED
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.reader(f))[2:]
    assert len(rows) == 2
    for row in rows:
        assert len(row) == len(cli.SWEEP_COLUMNS)
        assert row[2] == "error: width 0, depth 2"


def test_bounds_refuses_data_other_than_the_training_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    resolved = out / "config.resolved.json"
    payload = json.loads(resolved.read_text())
    payload["config"]["data"]["seed"] += 1
    resolved.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert "SHA-256" in err

    # a report without the fingerprint cannot be tied to any data
    payload["config"]["data"]["seed"] -= 1
    resolved.write_text(json.dumps(payload))
    report = json.loads((out / "report.json").read_text())
    del report["train"]["data_sha256"]
    (out / "report.json").write_text(json.dumps(report))
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    assert "fingerprint" in capsys.readouterr().err


def _linear_only_head_run(tmp_path) -> Path:
    """Run directory of a trained l1 = 0 net: the whole network is the linear
    head W_{L:1}."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"].update({"widths": [6, 4, 3], "l1": 0})
    cfg["train"]["eta"] = 0.01
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    return out


def _linear_only_head_bounds(tmp_path) -> dict:
    """`bounds` block of the net of `_linear_only_head_run`."""
    out = _linear_only_head_run(tmp_path)
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    return json.loads((out / "report.json").read_text())["bounds"]


def test_bounds_on_a_linear_only_head_reports_every_bound(tmp_path):
    bounds_out = _linear_only_head_bounds(tmp_path)
    assert bounds_out["measured"]["kappa_prod"] is not None
    reports = bounds_out["reports"]
    assert set(reports) == {"thm1_nc1", "thm1_kappa", "thm1_nc2", "thm1_nc3",
                            "balanced_power_gap", "ntk_lower"}
    lower = {"thm1_nc3", "ntk_lower"}
    for name, rep in reports.items():
        if (all(v is True for v in rep["premises"].values())
                and rep["value"] is not None and rep["measured"] is not None):
            ok = (rep["measured"] >= rep["value"] if name in lower
                  else rep["measured"] <= rep["value"])
            assert rep["holds"] == ("holds" if ok else "violated"), name
        else:
            assert rep["holds"] == "vacuous", name


def test_bounds_on_a_linear_only_head_reports_the_schedule_error(tmp_path):
    # depth 3, l1 = 0: no sigma(W_1 X) for lambda_F, and every other block stays
    bounds_out = _linear_only_head_bounds(tmp_path)
    assert set(bounds_out["schedule"]) == {"error"}
    assert "l1 >= 1" in bounds_out["schedule"]["error"]
    assert {"measured", "reports", "ntk"} <= set(bounds_out)

def test_bounds_does_not_trace_theta0_of_a_net_the_schedule_refuses(tmp_path, monkeypatch):
    out = _linear_only_head_run(tmp_path)
    calls = []
    real = cli.forward
    for module in (cli, bounds):  # every module that calls forward in `bounds`
        monkeypatch.setattr(module, "forward", lambda *args: calls.append(1) or real(*args))
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    assert len(calls) == 1  # the final state; l1 = 0 is refused before theta_0


def test_bounds_prints_one_line_per_verdict(tmp_path, capsys):
    out = _linear_only_head_run(tmp_path)
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    *lines, summary = capsys.readouterr().out.splitlines()
    reports = json.loads((out / "report.json").read_text())["bounds"]["reports"]
    assert summary == "evaluated 6 bounds, 3 hold"
    assert sorted(line.split(": ", 1)[0] for line in lines) == sorted(reports)
    for line in lines:
        name, rest = line.split(": ", 1)
        rep = reports[name]
        label, margin, *why = rest.split(", ", 2)
        assert (label, margin) == (rep["holds"], f"margin {rep['margin']!r}"), line
        if label == "vacuous":
            failed = [key for key, ok in rep["premises"].items() if not ok]
            assert why == [f"failed premises: {', '.join(failed)}" if failed
                           else rep["detail"]["vacuous_reason"]], line
        else:
            assert why == [] and (rep["margin"] >= 0) == (label == "holds"), line


def test_vacuous_weak_alignment_bound_is_reported_vacuous(tmp_path, capsys):
    # on this net the NC3 lower bound falls below -1, where every cosine lies
    nc3 = _linear_only_head_bounds(tmp_path)["reports"]["thm1_nc3"]
    assert nc3["value"] < -1.0
    assert nc3["premises"] == {"eps1_small": True, "has_linear_interface": True,
                               "nontrivial": False}
    assert nc3["holds"] == "vacuous"
    assert "evaluated 6 bounds, 3 hold" in capsys.readouterr().out


def _short_head_bounds(tmp_path, capsys, l1: int = 3) -> tuple:
    """`bounds` block and `nclab bounds` stdout lines of a 50-step net with
    3 - `l1` linear layers: none (L2 = 0) by default."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"].update({"widths": [8, 4, 3], "l1": l1})
    cfg["train"]["steps"] = 50
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    return (json.loads((out / "report.json").read_text())["bounds"],
            capsys.readouterr().out.splitlines())


def test_ntk_floor_of_a_net_without_linear_layers_is_vacuous(tmp_path, capsys):
    # with L2 = 0 the floor margin^2 L2 / (K r)^2 is 0, which every NTK norm
    # meets; the report takes thm1_nc1's premises, and linear_last_layer fails
    bounds_out, lines = _short_head_bounds(tmp_path, capsys)
    rep = bounds_out["reports"]["ntk_lower"]
    assert rep["holds"] == "vacuous" and rep["value"] == 0.0
    assert rep["premises"] == {"eps1_small": True, "linear_last_layer": False}
    assert rep["detail"] == {}
    assert rep["measured"] == bounds_out["ntk"]["theta_opnorm"] > 0
    assert rep["margin"] == rep["measured"]
    assert (f"ntk_lower: vacuous, margin {rep['margin']!r}, "
            "failed premises: linear_last_layer") in lines
    assert lines[-1] == "evaluated 6 bounds, 0 hold"


def test_thm1_nc1_of_a_net_without_linear_layers_is_measured_and_vacuous(tmp_path, capsys):
    # Theorem 1 needs a linear last layer: NC1 of Z_{L-1} and the RHS are
    # both given, and the failed premise alone makes the report vacuous
    bounds_out, lines = _short_head_bounds(tmp_path, capsys)
    rep = bounds_out["reports"]["thm1_nc1"]
    assert rep["measured"] == bounds_out["measured"]["nc1"]
    assert rep["measured"] > 0 and rep["value"] > 0
    assert rep["margin"] == rep["value"] - rep["measured"] > 0  # it would hold
    assert rep["holds"] == "vacuous" and rep["detail"] == {}
    assert rep["premises"] == {"eps1_small": True, "linear_last_layer": False}
    assert bounds_out["reports"]["ntk_lower"]["premises"] == rep["premises"]
    assert bounds_out["reports"]["ntk_lower"]["value"] == 0.0
    assert (f"thm1_nc1: vacuous, margin {rep['margin']!r}, "
            "failed premises: linear_last_layer") in lines
    assert lines[-1] == "evaluated 6 bounds, 0 hold"


@pytest.mark.parametrize("l1", [3, 2])
def test_the_head_bounds_of_a_net_with_one_linear_layer_or_none_state_their_premise(
        tmp_path, capsys, l1):
    # Theorem 1's bounds on the head need two linear layers: with L2 < 2 each is
    # made by bound_report, shows what numbers it has and fails has_linear_interface
    bounds_out, lines = _short_head_bounds(tmp_path, capsys, l1)
    reports = bounds_out["reports"]
    for name in ("thm1_kappa", "thm1_nc2", "thm1_nc3", "balanced_power_gap"):
        rep = reports[name]
        assert rep["holds"] == "vacuous" and rep["premises"]["has_linear_interface"] is False
        failed = ", ".join(key for key, ok in rep["premises"].items() if not ok)
        assert f"{name}: vacuous, margin {rep['margin']!r}, failed premises: {failed}" in lines
    kappa, gap = reports["thm1_kappa"], reports["balanced_power_gap"]
    if l1 == 2:  # W_{L:L1+1} = W_L, and eps2 = 0 with no linear interface
        assert kappa["value"] == kappa["measured"] == bounds_out["measured"]["kappa_w_l"]
        assert kappa["margin"] == 0.0 and gap["margin"] == 0.0
    else:  # W_{L:L1+1} is an empty product
        assert gap["measured"] is None
        assert gap["detail"]["vacuous_reason"] == "measured value undefined on this state"


@pytest.mark.parametrize("command", ["train", "sweep", "bounds"])
@pytest.mark.parametrize("act, missing", [
    ({"kind": "smoothed_leaky_relu", "beta": 2.0}, "gamma must lie in (0, 1)"),
    ({"kind": "leaky_relu"}, "gamma must lie in (0, 1)"),
    ({"kind": "smoothed_leaky_relu", "gamma": 0.3}, "beta must be >= 1")])
def test_an_activation_without_its_parameter_is_refused_with_exit_2(
        tmp_path, capsys, monkeypatch, command, act, missing):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"].update(steps=5, record_every=5)
    out = tmp_path / "run"
    if command == "bounds":  # a finished run whose stored config lost the parameter
        assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) == cli.EXIT_OK
        resolved = json.loads((out / "config.resolved.json").read_text())
        resolved["config"]["network"]["activation"] = act
        (out / "config.resolved.json").write_text(json.dumps(resolved))
        argv = ["bounds", "--run", str(out)]
    else:
        cfg["network"]["activation"] = act
        argv = [command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "linear_depth", "--values", "1,2", "--seeds", "0"]
    capsys.readouterr()
    built = []
    monkeypatch.setattr(cli, "build_dataset", lambda c: built.append(c))
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: config field network/activation: {missing}"]
    assert built == []  # refused before any data are built or any member trains
    assert command == "bounds" or not out.exists()


def test_bounds_reads_s_k_of_y_from_the_class_counts(tmp_path):
    # perfbench's `wide` config at 0 steps: 10 classes of 20 samples
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["network"].update(widths=[256, 128, 64, 10, 10], l1=3)
    cfg["train"].update(eta=0.01, lam=0.02, steps=0)
    cfg["data"].update(d=64, k=10, n_per_class=20, class_sep=1.0, noise=0.1)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_OK
    measured = json.loads((out / "report.json").read_text())["bounds"]["measured"]
    assert measured["sK_y"] == math.sqrt(20)


@pytest.mark.parametrize("key, value", [
    ("proof_exponent", True), ("eps1_target", 0.1), ("eps2_target", 0.1),
    ("lam_override", 0.1), ("eta_override", 0.1), ("ntk_seed", 3)])
def test_bounds_section_holds_only_rank_tol(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["bounds"] = {"rank_tol": 1e-10, key: value}
    code = cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "bad")])
    assert code == cli.EXIT_CONFIG
    assert "config field bounds" in capsys.readouterr().err
    # a run directory whose resolved config holds the key is refused too
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    resolved = json.loads((out / "config.resolved.json").read_text())
    resolved["config"]["bounds"][key] = value
    (out / "config.resolved.json").write_text(json.dumps(resolved))
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    assert "config field bounds" in capsys.readouterr().err


def test_synthetic_data_defaults_come_from_synth_gaussian():
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key in ("class_sep", "noise", "seed"):
        del cfg["data"][key]
    resolved = cli.resolve_config(cfg)["data"]
    assert {k: resolved[k] for k in ("class_sep", "noise", "seed", "min_col_norm_one")} \
        == {"class_sep": 4.0, "noise": 0.3, "seed": 0, "min_col_norm_one": True}
    ds = cli.build_dataset(cli.resolve_config(cfg))
    assert ds.fingerprint() == data.synth_gaussian(d=5, k=3, n_per_class=4).fingerprint()


def _member_dirs_match_members_alone(tmp_path, capsys, cfg, axis, values, seeds):
    """`nclab sweep` against `_run_member` of each member alone: the same
    stderr lines in the same order, and byte-identical member directories.
    Returns the sweep's exit code."""
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", axis, "--values", ",".join(map(str, values)),
                     "--seeds", ",".join(map(str, seeds)), "--out", str(out)])
    swept = capsys.readouterr().err
    resolved = cli.resolve_config(cfg)
    ds = cli.build_dataset(resolved)
    for v in values:
        for s in seeds:
            name = f"value_{v}_seed_{s}"
            cli._run_member(cli.sweep_member_config(resolved, axis, v, s), ds,
                            tmp_path / "alone" / name)
            files = sorted(p.name for p in (out / name).iterdir())
            assert files == sorted(p.name for p in (tmp_path / "alone" / name).iterdir())
            for f in files:
                assert (out / name / f).read_bytes() == \
                    (tmp_path / "alone" / name / f).read_bytes(), (name, f)
    assert swept == capsys.readouterr().err
    return code


def _lockstep_runs(monkeypatch) -> list:
    """The depths of the members of each lockstep run, in the order the runs
    start (a lone member is a run of one)."""
    runs = []
    real = trainer._run_lockstep

    def recording(members, *args):
        runs.append([net.depth for net, _ in members])
        return real(members, *args)

    monkeypatch.setattr(trainer, "_run_lockstep", recording)
    return runs


# the criterion-8 net
CRITERION_8_CONFIG = {
    "schema_version": 1,
    "network": {"widths": [16, 8, 3], "l1": 2, "activation": SMOOTH_ACT},
    "train": {"eta": 0.05, "lam": 0.02, "steps": 300, "record_every": 100,
              "lr_drop_fraction": 1.0, "seed": 0},
    "data": {"kind": "synthetic", "d": 8, "k": 3, "n_per_class": 4,
             "class_sep": 1.0, "noise": 0.1, "seed": 0}}


def test_lockstep_sweep_members_match_members_alone(tmp_path, capsys, monkeypatch):
    # all ten members nest and train in one lockstep group
    runs = _lockstep_runs(monkeypatch)
    assert _member_dirs_match_members_alone(tmp_path, capsys, CRITERION_8_CONFIG,
                                            "linear_depth", [1, 2, 3, 4, 5],
                                            [0, 1]) == cli.EXIT_OK
    assert [len(r) for r in runs] == [10] + [1] * 10  # the sweep, then each member alone


def test_lockstep_sweep_with_diverging_members_matches_members_alone(tmp_path, capsys):
    # at eta 0.12 members leave the group at steps 3, 4 and 14, and one stays healthy
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["eta"] = 0.12
    assert _member_dirs_match_members_alone(tmp_path, capsys, cfg, "linear_depth",
                                            [1, 2, 3, 4], [0, 1]) == cli.EXIT_FAILED
    steps = []
    for v in (1, 2, 3, 4):
        for s in (0, 1):
            report = json.loads((tmp_path / "sweep" / f"value_{v}_seed_{s}" /
                                 "report.json").read_text())["train"]
            steps.append(report.get("divergence", {}).get("step"))
    assert steps == [4, 4, 4, 3, 3, 4, 14, None]


def test_lockstep_sweep_keeps_a_converging_member_beside_diverging_ones(tmp_path, capsys):
    # at eta 0.08 the seed-1 members leave the group at step 4 and the seed-0
    # ones converge: c_0 falls at every record, so no rounding decides it
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["eta"] = 0.08
    assert _member_dirs_match_members_alone(tmp_path, capsys, cfg, "linear_depth",
                                            [1, 2], [0, 1]) == cli.EXIT_FAILED
    resolved = cli.resolve_config(cfg)
    ds = cli.build_dataset(resolved)
    for v in (1, 2):
        for s in (0, 1):
            report = json.loads((tmp_path / "sweep" / f"value_{v}_seed_{s}" /
                                 "report.json").read_text())["train"]
            assert report.get("divergence", {}).get("step") == (None, 4)[s]
        net, tcfg = cli.build_run(cli.sweep_member_config(resolved, "linear_depth", v, 0), ds)
        c0 = [r.c_0 for r in trainer.train(net, tcfg, ds.x, ds.y, ds.idx)[1].records]
        assert len(c0) == 5 and all(a > b for a, b in zip(c0, c0[1:])) and c0[-1] < 0.05


def test_nonlinear_depth_sweep_groups_each_value(tmp_path, capsys, monkeypatch):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 60
    runs = _lockstep_runs(monkeypatch)
    assert _member_dirs_match_members_alone(tmp_path, capsys, cfg, "nonlinear_depth",
                                            [1, 2, 3], [0, 1]) == cli.EXIT_OK
    # value v has v + 2 layers; its two seeds form one group
    assert runs == [[3, 3], [4, 4], [5, 5]] + [[v + 2] for v in (1, 2, 3) for _ in (0, 1)]


def test_a_member_whose_record_raises_leaves_the_group(tmp_path, capsys, monkeypatch):
    real = metrics.measure
    seen = []

    def failing_at_the_second_record_of_depth_3(cfg, *args, **kwargs):
        seen.append(cfg.depth)
        if cfg.depth == 3 and seen.count(3) == 2:
            raise densemat.SvdConvergenceError(1.0, 0)
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(metrics, "measure", failing_at_the_second_record_of_depth_3)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 100
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "1,2,3",
                     "--seeds", "0", "--out", str(out)]) == cli.EXIT_FAILED
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2].split(":")[0] for row in rows] == ["ok", "error", "ok"]
    assert not (out / "value_2_seed_0").exists()
    resolved = cli.resolve_config(cfg)
    for v in (1, 3):  # the others went on as if alone
        name = f"value_{v}_seed_0"
        cli._run_member(cli.sweep_member_config(resolved, "linear_depth", v, 0),
                        cli.build_dataset(resolved), tmp_path / "alone" / name)
        for f in (out / name).iterdir():
            assert f.read_bytes() == (tmp_path / "alone" / name / f.name).read_bytes()


@pytest.mark.parametrize("flag, text", [("--values", "1,x"), ("--values", ","),
                                        ("--values", "1,1"), ("--seeds", "-1")])
def test_sweep_rejects_bad_values_and_seeds_with_exit_2(tmp_path, capsys, flag, text):
    # malformed, empty, duplicate or negative: nothing trains, no sweep.csv
    flags = {"--values": "1,2", "--seeds": "0", flag: text}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--axis", "linear_depth", *[a for kv in flags.items() for a in kv],
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0]
    assert not out.exists()


def test_sweep_refuses_data_it_cannot_build_with_exit_2(tmp_path, capsys, monkeypatch):
    # nothing trains: one stderr line, and no output directory
    monkeypatch.setenv("NCLAB_DATA_DIR", str(tmp_path))
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["data"] = {"kind": "idx", "images": "missing-images.idx", "labels": "missing-labels.idx"}
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "linear_depth", "--values", "1,2", "--seeds", "0,1",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot load idx data"), err
    assert not out.exists()


def test_sweep_builds_its_data_once(tmp_path, monkeypatch):
    calls = []
    real = cli.build_dataset

    def counting(cfg):
        calls.append(1)
        return real(cfg)

    monkeypatch.setattr(cli, "build_dataset", counting)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["train"]["steps"] = 10
    assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg)),
                     "--axis", "nonlinear_depth", "--values", "1,2,3", "--seeds", "0,1",
                     "--out", str(tmp_path / "sweep")]) == cli.EXIT_OK
    assert len(calls) == 1


def test_sweep_members_that_do_not_build_are_not_grouped(tmp_path, capsys, monkeypatch):
    # linear_depth 0 leaves the criterion-8 net with last width 8 for 3 classes
    runs = _lockstep_runs(monkeypatch)
    cfg_path = write_config(tmp_path, CRITERION_8_CONFIG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg_path), "--axis", "linear_depth",
                     "--values", "0,1,2", "--seeds", "0", "--out", str(out)]) == cli.EXIT_FAILED
    assert runs == [[4, 3]]
    swept = capsys.readouterr().err
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert rows[0] == "0,0,error: last width 8 != number of classes 3" + "," * 8
    assert [row.split(",")[2] for row in rows[1:]] == ["ok", "ok"]
    assert not (out / "value_0_seed_0").exists()
    resolved = cli.load_config(cfg_path)
    for v in (1, 2):
        name = f"value_{v}_seed_0"
        cli._run_member(cli.sweep_member_config(resolved, "linear_depth", v, 0),
                        cli.build_dataset(resolved), tmp_path / "alone" / name)
        files = sorted(p.name for p in (out / name).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "alone" / name).iterdir())
        for f in files:
            assert (out / name / f).read_bytes() == \
                (tmp_path / "alone" / name / f).read_bytes(), (name, f)
    assert swept == capsys.readouterr().err


@pytest.mark.parametrize("name, arrays", [
    ("params_final.npz", lambda ws: {"w1": ws[0]}),                          # one layer of three
    ("params_init.npz", lambda ws: {"w1": ws[0], "w2": np.zeros((5, 5)), "w3": ws[2]}),
    ("params_init.npz", lambda ws: {"a": ws[0]}),                             # no w1
])
def test_bounds_refuses_params_that_do_not_fit_the_network(tmp_path, capsys, name, arrays):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    np.savez(out / name, **arrays(cli.load_params(out / name).weights))
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]
    assert "bounds" not in json.loads((out / "report.json").read_text())


def _with_a_nan(path):
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["w2"][0, 0] = np.nan
    np.savez(path, **arrays)


def _one_npy_array(path):
    with open(path, "wb") as f:
        np.save(f, np.zeros((4, 5)))


BROKEN_PARAMS = {
    "text": lambda path: path.write_text("not an npz archive\n"),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:100]),
    "empty": lambda path: path.write_bytes(b""),
    "npy": _one_npy_array,
    "nan": _with_a_nan,
}


@pytest.mark.parametrize("kind", BROKEN_PARAMS)
@pytest.mark.parametrize("name", ["params_final.npz", "params_init.npz"])
def test_bounds_refuses_an_unreadable_or_non_finite_params_file(tmp_path, capsys, name, kind):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, BASE_CONFIG)),
                     "--out", str(out)]) == cli.EXIT_OK
    BROKEN_PARAMS[kind](out / name)
    report = (out / "report.json").read_text()
    capsys.readouterr()
    assert cli.main(["bounds", "--run", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and str(out / name) in err[0]
    assert (out / "report.json").read_text() == report


def test_trajectory_eps1_is_the_reports_eps1(tmp_path):
    # sqrt(2 c_0) and measure's eps1 come from one dot product: equal bit for bit
    cfg = {"schema_version": 1,
           "network": {"widths": [64, 32, 16, 8, 4], "l1": 3, "activation": SMOOTH_ACT},
           "train": {"eta": 0.01, "lam": 0.02, "steps": 60, "record_every": 10,
                     "lr_drop_fraction": 1.0, "seed": 0},
           "data": {"kind": "synthetic", "d": 16, "k": 4, "n_per_class": 8,
                    "class_sep": 1.0, "noise": 0.1, "seed": 0}}
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == cli.EXIT_OK
    header, rows = _read_csv(out / "trajectory.csv")
    final = json.loads((out / "report.json").read_text())["train"]["final"]
    assert float(rows[-1][header.index("eps1")]) == final["eps1"]
