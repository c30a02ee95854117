"""Command-line front end: `nclab train`, `nclab bounds`, `nclab sweep`,
`nclab verify`.

Configs are JSON validated against a versioned schema (unknown keys are
errors) and every artifact is a deterministic, bit-identical function of the
resolved config. Floats are serialized with their shortest round-trip
representation. Exit codes: 0 ok, 1 verification failure, 2 config/IO error,
3 divergence, 4 any other failure (e.g. an SVD that did not converge, or a
sweep member that did not finish ok).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import math
import operator
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import densemat, metrics
from .network import ActivationSpec, NetworkConfig, ParamSet, forward
from .trainer import InitSpec, TrainConfig, lockstep_groups, train

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_FAILED = 4

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "network", "train", "data"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "network": {
            "type": "object",
            "additionalProperties": False,
            "required": ["widths", "l1", "activation"],
            "properties": {
                "widths": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 1}},
                "l1": {"type": "integer", "minimum": 0},
                "activation": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["smoothed_leaky_relu", "leaky_relu",
                                          "relu"]},
                        "gamma": {"type": "number", "exclusiveMinimum": 0,
                                  "exclusiveMaximum": 1},
                        "beta": {"type": "number", "minimum": 1},
                    },
                },
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eta", "lam", "steps"],
            "properties": {
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "lam": {"type": "number", "minimum": 0},
                "steps": {"type": "integer", "minimum": 0},
                "lr_drop_fraction": {"type": "number", "exclusiveMinimum": 0,
                                     "maximum": 1},
                "lr_drop_factor": {"type": "number", "exclusiveMinimum": 0},
                "record_every": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "init_scales": {"type": "array",
                                "items": {"type": "number", "minimum": 0}},
                "store_params": {"type": "boolean"},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["synthetic", "idx"]},
                "d": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "n_per_class": {"type": "integer", "minimum": 1},
                "class_sep": {"type": "number", "minimum": 0},
                "noise": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "min_col_norm_one": {"type": "boolean"},
                "images": {"type": "string"},
                "labels": {"type": "string"},
                "subset": {"type": "integer", "minimum": 1},
                "classes": {"type": "array",
                            "items": {"type": "integer", "minimum": 0}},
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank_tol": {"type": "number", "exclusiveMinimum": 0,
                             "exclusiveMaximum": 1},
            },
        },
    },
}

class ConfigError(ValueError):
    pass


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}  # an integer is never 20.0
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}
SCHEMA_KEYWORDS = frozenset(["type", "const", "enum", "minItems", "items", "required",
                             "properties", "additionalProperties", *_BOUNDS])


def validate_config(value, schema=CONFIG_SCHEMA, path=()) -> None:
    """Raise ConfigError naming the first field of `value` that `schema`
    refuses. Only the JSON Schema keywords in SCHEMA_KEYWORDS are read, and
    `additionalProperties` only as false; a number must be finite."""
    def refuse(reason):
        raise ConfigError(f"config field {'/'.join(map(str, path)) or '<root>'}: {reason}")

    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind])
                 or isinstance(value, bool) != (kind == "boolean")):
        refuse(f"{value!r} is not of type {kind!r}")
    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    if allowed is not None and not any(  # JSON's true is not 1
            isinstance(v, bool) == isinstance(value, bool) and v == value for v in allowed):
        refuse(f"{value!r} is not one of {allowed!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            refuse(f"{value!r} is not a finite number")
        for key, (fails, words) in _BOUNDS.items():
            if key in schema and fails(value, schema[key]):
                refuse(f"{value!r} is {words} {schema[key]!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            refuse(f"{value!r} has fewer than {schema['minItems']} items")
        for i, item in enumerate(value):
            validate_config(item, schema.get("items", {}), (*path, i))
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                refuse(f"{name!r} is a required property")
        props = schema.get("properties", {})
        extra = [name for name in value if name not in props]
        if extra and schema.get("additionalProperties") is False:
            refuse(f"additional properties are not allowed ({', '.join(map(repr, extra))})")
        for name, sub in props.items():
            if name in value:
                validate_config(value[name], sub, (*path, name))


def _read_json_object(path) -> dict:
    """The JSON object in the file `path`; ConfigError naming the file if it
    cannot be read or holds anything else."""
    try:
        value = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return value


def load_config(path) -> dict:
    raw = _read_json_object(path)
    validate_config(raw)
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    cfg = json.loads(json.dumps(raw))  # deep copy
    cfg.setdefault("bounds", {})
    train_keys = CONFIG_SCHEMA["properties"]["train"]["properties"]
    for f in fields(TrainConfig):
        if f.name in train_keys and f.default is not MISSING:
            cfg["train"].setdefault(f.name, f.default)
    if cfg["data"]["kind"] == "synthetic":
        for name, param in inspect.signature(data_mod.synth_gaussian).parameters.items():
            if param.default is not inspect.Parameter.empty:
                cfg["data"].setdefault(name, param.default)
        cfg["data"].setdefault("d", 16)
        cfg["data"].setdefault("k", cfg["network"]["widths"][-1])
        cfg["data"].setdefault("n_per_class", 8)
    net = cfg["network"]
    if not 0 <= net["l1"] <= len(net["widths"]):
        raise ConfigError("network/l1 must lie in [0, len(widths)]")
    return cfg


def build_network(cfg: dict, input_dim: int) -> NetworkConfig:
    net = cfg["network"]
    act = net["activation"]
    spec = ActivationSpec(kind=act["kind"], gamma=act.get("gamma"),
                          beta=act.get("beta"))
    try:
        return NetworkConfig(input_dim=input_dim, widths=tuple(net["widths"]),
                             l1=net["l1"], l2=len(net["widths"]) - net["l1"],
                             activation=spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_dataset(cfg: dict) -> data_mod.Dataset:
    d = cfg["data"]
    if d["kind"] == "synthetic":
        try:
            return data_mod.synth_gaussian(
                d["d"], d["k"], d["n_per_class"], d["class_sep"], d["noise"],
                d["seed"], d["min_col_norm_one"])
        except ValueError as exc:
            raise ConfigError(f"cannot generate synthetic data: {exc}") from exc
    root = Path(os.environ.get("NCLAB_DATA_DIR", "."))
    if "images" not in d or "labels" not in d:
        raise ConfigError("idx data needs 'images' and 'labels' paths")
    classes = tuple(d["classes"]) if "classes" in d else None
    try:
        return data_mod.load_idx(root / d["images"], root / d["labels"],
                                 subset=d.get("subset"), classes=classes)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load idx data: {exc}") from exc


def build_run(cfg: dict, ds: data_mod.Dataset) -> tuple:
    """(NetworkConfig, TrainConfig) of a resolved config on its data `ds`;
    ConfigError if the network does not fit the data or its init scales."""
    net = build_network(cfg, ds.x.shape[0])
    if net.n_classes != ds.y.shape[0]:
        raise ConfigError(
            f"last width {net.n_classes} != number of classes {ds.y.shape[0]}")
    t = dict(cfg["train"])
    scales = tuple(t.pop("init_scales", ()))
    if scales and len(scales) != net.depth:  # [] takes the default scales
        raise ConfigError(f"config field train/init_scales: {len(scales)} scales "
                          f"for a network of {net.depth} layers")
    return net, TrainConfig(**t, init=InitSpec(scales=scales))


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # a numpy scalar's repr is np.float64(...)
    return str(v)


def write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# nclab schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def write_json(path: Path, payload: dict) -> None:
    payload = _sanitize({**payload, "schema_version": SCHEMA_VERSION})
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _sanitize(obj):
    """`obj` as strict JSON values: numpy scalars become Python values and
    non-finite floats their repr strings."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def write_trajectory_csv(out: Path, traj) -> None:
    first = traj.records[0]
    header = ["step", "c_lambda", "c_0", "param_norm", "dist_from_init", "eps1"]
    header += [f"gap_{l}" for l in first.metrics.balancedness_gaps]
    header += [f"opnorm_{l}" for l in first.metrics.op_norms]
    # eps1 = ||Z_L - Y||_F, here from the loss c_0 = eps1^2 / 2
    rows = [[r.step, r.c_lambda, r.c_0, r.param_norm, r.dist_from_init, math.sqrt(2.0 * r.c_0),
             *r.metrics.balancedness_gaps.values(), *r.metrics.op_norms.values()]
            for r in traj.records]
    write_csv(out / "trajectory.csv", header, rows)


def write_metrics_csv(out: Path, traj) -> None:
    header = ["step", "layer", "nc1", "nc2", "nc3", "negativity"]
    rows = [[rec.step, lm.layer, lm.nc1, lm.nc2, lm.nc3, lm.negativity]
            for rec in traj.records for lm in rec.metrics.layers]
    write_csv(out / "metrics.csv", header, rows)


def write_means_grams(out: Path, net, rec) -> None:
    """Class-mean Grams of layers max(L-2, 1)..L, read from the record `rec`,
    which must measure them."""
    for lm in rec.metrics.layers:
        if lm.layer >= max(net.depth - 2, 1):
            gram = lm.means.T @ lm.means
            header = [f"c{j}" for j in range(gram.shape[1])]
            write_csv(out / f"means_gram_{lm.layer}.csv", header,
                      [list(row) for row in gram])


def save_params(path: Path, params) -> None:
    np.savez(path, **{f"w{i + 1}": w for i, w in enumerate(params.weights)})


def load_params(path: Path):
    with np.load(path) as npz:
        return ParamSet([npz[f"w{i + 1}"] for i in range(len(npz.files))])


def _load_run_params(path: Path, net):
    """The weights in `path` (None if absent); ConfigError if not `net`'s."""
    if not path.exists():
        return None
    try:
        params = load_params(path)
        params.check_shapes(net)
    except (KeyError, ValueError) as exc:  # KeyError: no array w<l> in the file
        raise ConfigError(f"{path} does not fit the run's network: {exc}") from None
    return params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(config_path, out_dir) -> int:
    cfg = load_config(config_path)
    out = Path(out_dir)
    net, params, traj = _train_into(cfg, build_dataset(cfg), out)
    write_trajectory_csv(out, traj)
    write_metrics_csv(out, traj)
    write_means_grams(out, net, traj.last())
    init_p = traj.records[0].params
    if init_p is not None:
        save_params(out / "params_init.npz", init_p)
    save_params(out / "params_final.npz", params)

    last = traj.last()
    if traj.diverged:
        # at step 0 the one record is the state that failed
        note = f" (last healthy record: step {last.step})" if traj.diverged_at else ""
        print(f"diverged at step {traj.diverged_at}: {traj.divergence}{note}",
              file=sys.stderr)
        return EXIT_DIVERGED
    print(f"ok: {last.step} steps, c_0={last.c_0!r}")
    return EXIT_OK


def _train_into(cfg: dict, ds, out: Path, first_layer: int | None = None,
                group=None) -> tuple:
    """Train a resolved config on its data `ds`, measuring from `first_layer`,
    with its lockstep `group` if any, into `out`: config.resolved.json and
    report.json. Returns (net, params, trajectory)."""
    net, train_cfg = build_run(cfg, ds)
    if first_layer is None:
        # from the head input, or lower when a layer whose Gram is written lies below it
        first_layer = min(max(net.l1, 1), max(net.depth - 2, 1))
    params, traj = train(net, train_cfg, ds.x, ds.y, ds.idx,
                         first_layer=first_layer, group=group)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.resolved.json", {"config": cfg})
    last = traj.last()
    rep = last.metrics
    summary = {
        "diverged": traj.diverged,
        "steps_recorded": len(traj.records),
        "final": {"step": last.step, "c_lambda": last.c_lambda,
                  "c_0": last.c_0, "eps1": rep.eps1, "eps2": rep.eps2,
                  "r": rep.r},
        "balancedness_ratios": rep.balancedness_ratios,
        "data_sha256": ds.fingerprint(),
    }
    if traj.diverged:  # a healthy run's report keeps its keys
        summary["divergence"] = {"step": traj.diverged_at, "cause": traj.divergence}
    write_json(out / "report.json", {"train": summary})
    return net, params, traj


def evaluate_bounds(cfg: dict, net, ds, params, params_init) -> dict:
    """Every applicable bound on a finished run, with premise flags."""
    from . import bounds  # here, so that train and sweep never load it or ntk
    if net.depth < 2:
        raise ConfigError("bounds need a network with at least two layers")
    ctx = bounds.run_context(net, ds, cfg["train"]["lam"], params_init,
                             cfg.get("bounds", {}).get("rank_tol", densemat.DEFAULT_RANK_TOL))
    trace = forward(net, params, ds.x)
    rep = metrics.measure(net, params, trace, ds.y, ds.idx, rank_tol=ctx.rank_tol)
    out = bounds.state_verdicts(ctx, net, params, trace, rep)
    out["ntk"], out["reports"]["ntk_lower"] = bounds.ntk_verdict(net, params, trace, out)
    out["reports"] = {name: asdict(r) for name, r in out["reports"].items()}
    return out


def cmd_bounds(run_dir) -> int:
    run = Path(run_dir)
    cfg_path = run / "config.resolved.json"
    final_path = run / "params_final.npz"
    if not cfg_path.exists() or not final_path.exists():
        print(f"missing run artifacts in {run}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _read_json_object(cfg_path).get("config")
    validate_config(cfg)
    for section, values in resolve_config(cfg).items():  # a resolved config is complete
        for name in values if isinstance(values, dict) else ():
            if name not in cfg.get(section, {}):
                raise ConfigError(f"config field {section}: {name!r} is a required "
                                  "property of a resolved config")
    report_path = run / "report.json"
    report = _read_json_object(report_path) if report_path.exists() else {}
    ds = build_dataset(cfg)
    trained = report.get("train", {})
    trained_on = trained.get("data_sha256") if isinstance(trained, dict) else None
    if trained_on is None:
        raise ConfigError(f"{report_path} records no training-data fingerprint")
    if trained_on != ds.fingerprint():
        raise ConfigError("the data rebuilt from the config are not the data "
                          "the run was trained on (SHA-256 mismatch)")
    net, _ = build_run(cfg, ds)
    params, params_init = (_load_run_params(path, net)
                           for path in (final_path, run / "params_init.npz"))
    payload = evaluate_bounds(cfg, net, ds, params, params_init)
    report["bounds"] = payload
    write_json(report_path, report)
    for name, r in payload["reports"].items():
        line = f"{name}: {r['holds']}, margin {r['margin']!r}"
        if r["holds"] == "vacuous":
            failed = [key for key, ok in r["premises"].items() if not ok]
            line += (f", failed premises: {', '.join(failed)}" if failed
                     else f", {r['detail']['vacuous_reason']}")
        print(line)
    n_holds = sum(1 for r in payload["reports"].values() if r["holds"] == "holds")
    print(f"evaluated {len(payload['reports'])} bounds, {n_holds} hold")
    return EXIT_OK


def sweep_member_config(cfg: dict, axis: str, value: int, seed: int) -> dict:
    member = json.loads(json.dumps(cfg))
    net = member["network"]
    backbone = net["widths"][:net["l1"]]
    head = net["widths"][net["l1"]:]
    k = net["widths"][-1]
    if axis == "linear_depth":
        net["widths"] = backbone + [k] * value
    else:  # nonlinear_depth
        first = backbone[0] if backbone else max(head[0], 8)
        net["widths"] = [first] * value + head
        net["l1"] = value
    member["train"]["seed"] = seed
    return member


def _run_member(cfg: dict, ds, out: Path, group=None) -> dict:
    # measure every layer: the negativity summary covers the whole backbone
    net, _, traj = _train_into(cfg, ds, out, first_layer=1, group=group)
    if traj.diverged:
        print(f"{out.name}: diverged at step {traj.diverged_at}: {traj.divergence}",
              file=sys.stderr)
        return {"status": "diverged"}
    rep = traj.last().metrics
    head = rep.layers[max(net.l1, 1) - 1:]
    head_in = head[0]
    # last *feature* layer Z_{L-1}: the output layer's class means are ~Y
    last = head[-2] if len(head) >= 2 else head[-1]
    ratios = [v for v in rep.balancedness_ratios.values() if v is not None]
    negs = [lm.negativity for lm in rep.layers if lm.negativity is not None]
    return {
        "status": "ok",
        "nc1_last": last.nc1, "nc2_last": last.nc2,
        "nc1_head_input": head_in.nc1, "nc2_head_input": head_in.nc2,
        "min_balancedness": min(ratios) if ratios else None,
        "mean_balancedness": sum(ratios) / len(ratios) if ratios else None,
        "min_negativity": min(negs) if negs else None,
        "mean_negativity": sum(negs) / len(negs) if negs else None,
    }


SWEEP_COLUMNS = ["value", "seed", "status", "nc1_last", "nc2_last",
                 "nc1_head_input", "nc2_head_input", "min_balancedness",
                 "mean_balancedness", "min_negativity", "mean_negativity"]


def _int_list(flag: str, text: str) -> list:
    """The distinct non-negative integers of a comma-separated sweep flag."""
    out = [int(v) if v.isdecimal() else -1 for v in text.split(",")]
    if min(out) < 0 or len(set(out)) < len(out):
        raise ConfigError(f"{flag} takes distinct non-negative integers: {text!r}")
    return out


def cmd_sweep(config_path, axis, values, seeds, out_dir) -> int:
    cfg = load_config(config_path)
    ds = build_dataset(cfg)  # every member trains on these data
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    members = {(v, s): sweep_member_config(cfg, axis, v, s) for v in values for s in seeds}
    built = {}
    for key, member in members.items():
        with contextlib.suppress(ConfigError):  # its row reports the error
            built[key] = build_run(member, ds)
    groups = dict(zip(built, lockstep_groups(list(built.values()))))

    def job(v, s):
        try:
            return (v, s, _run_member(members[v, s], ds, out / f"value_{v}_seed_{s}",
                                      groups.get((v, s))))
        except (ConfigError, ValueError, densemat.SvdConvergenceError) as exc:
            return (v, s, {"status": f"error: {exc}"})

    results = sorted((job(v, s) for v in values for s in seeds), key=lambda t: t[:2])
    rows = [[v, s] + [r.get(c) for c in SWEEP_COLUMNS[2:]] for v, s, r in results]
    write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    bad = sum(1 for _, _, r in results if r["status"] != "ok")
    print(f"{len(results)} runs, {bad} failed; wrote {out / 'sweep.csv'}")
    return EXIT_FAILED if bad else EXIT_OK


def cmd_verify(level) -> int:
    from .verify import run_suite
    return EXIT_OK if run_suite(level) else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nclab",
        description="neural-collapse laboratory: training, metrics, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate bounds on a finished run")
    p_bounds.add_argument("--run", required=True)

    p_sweep = sub.add_parser("sweep", help="depth sweep over values x seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True,
                         choices=["linear_depth", "nonlinear_depth"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated integers")
    p_sweep.add_argument("--seeds", required=True,
                         help="comma-separated integers")
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--level", choices=["fast", "full"], default="fast")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out)
        if args.command == "bounds":
            return cmd_bounds(args.run)
        if args.command == "sweep":
            values, seeds = _int_list("--values", args.values), _int_list("--seeds", args.seeds)
            return cmd_sweep(args.config, args.axis, values, seeds, args.out)
        if args.command == "verify":
            return cmd_verify(args.level)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # the CLI boundary: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
