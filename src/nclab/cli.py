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
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import jsonschema
import numpy as np

from . import bounds as bounds_mod
from . import data as data_mod
from . import densemat, metrics, ntk
from .network import ActivationSpec, NetworkConfig, forward
from .trainer import InitSpec, TrainConfig, train

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
                "rank_tol": {"type": "number", "exclusiveMinimum": 0},
                "proof_exponent": {"type": "boolean"},
                "eps1_target": {"type": "number", "exclusiveMinimum": 0},
                "eps2_target": {"type": "number", "exclusiveMinimum": 0},
                "lam_override": {"type": "number", "minimum": 0},
                "eta_override": {"type": "number", "exclusiveMinimum": 0},
                "ntk_seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

DATA_DEFAULTS = {"class_sep": 4.0, "noise": 0.3, "seed": 0,
                 "min_col_norm_one": True}


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {where}: {exc.message}") from exc
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    cfg = json.loads(json.dumps(raw))  # deep copy
    cfg.setdefault("bounds", {})
    train_keys = CONFIG_SCHEMA["properties"]["train"]["properties"]
    for f in fields(TrainConfig):
        if f.name in train_keys and f.default is not MISSING:
            cfg["train"].setdefault(f.name, f.default)
    if cfg["data"]["kind"] == "synthetic":
        for key, val in DATA_DEFAULTS.items():
            cfg["data"].setdefault(key, val)
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


def build_train_config(cfg: dict) -> TrainConfig:
    t = dict(cfg["train"])
    scales = t.pop("init_scales", None)
    init = InitSpec(scales=tuple(scales)) if scales is not None else InitSpec()
    return TrainConfig(**t, init=init)


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [f"# nclab schema_version={SCHEMA_VERSION}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _sanitize(obj):
    """Replace non-finite floats so json stays strictly standard."""
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
    header += [f"opnorm_{l}" for l in range(1, len(first.layer_op_norms) + 1)]
    rows = []
    for r in traj.records:
        # eps1 = ||Z_L - Y||_F, here from the loss c_0 = eps1^2 / 2
        row = [r.step, r.c_lambda, r.c_0, r.param_norm, r.dist_from_init,
               math.sqrt(2.0 * r.c_0)]
        row += list(r.metrics.balancedness_gaps.values())
        row += r.layer_op_norms
        rows.append(row)
    write_csv(out / "trajectory.csv", header, rows)


def write_metrics_csv(out: Path, traj) -> None:
    header = ["step", "layer", "nc1", "nc2", "nc3", "negativity"]
    rows = [[rec.step, lm.layer, lm.nc1, lm.nc2, lm.nc3, lm.negativity]
            for rec in traj.records for lm in rec.metrics.layers]
    write_csv(out / "metrics.csv", header, rows)


def write_means_grams(out: Path, net, params, ds) -> None:
    trace = forward(net, params, ds.x)
    first = max(net.depth - 2, 1)
    for layer in range(first, net.depth + 1):
        zbar, _ = metrics.class_means(trace.z[layer], ds.idx)
        gram = zbar.T @ zbar
        header = [f"c{j}" for j in range(gram.shape[1])]
        write_csv(out / f"means_gram_{layer}.csv", header,
                  [list(row) for row in gram])


def save_params(path: Path, params) -> None:
    np.savez(path, **{f"w{i + 1}": w for i, w in enumerate(params.weights)})


def load_params(path: Path):
    from .network import ParamSet
    with np.load(path) as npz:
        return ParamSet([npz[f"w{i + 1}"] for i in range(len(npz.files))])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(config_path, out_dir) -> int:
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = build_dataset(cfg)
    net = build_network(cfg, ds.x.shape[0])
    if net.n_classes != ds.y.shape[0]:
        raise ConfigError(
            f"last width {net.n_classes} != number of classes {ds.y.shape[0]}")
    tcfg = build_train_config(cfg)
    params, traj = train(net, tcfg, ds.x, ds.y, ds.idx)

    write_json(out / "config.resolved.json", {"config": cfg})
    write_trajectory_csv(out, traj)
    write_metrics_csv(out, traj)
    write_means_grams(out, net, params, ds)
    first = traj.records[0]
    init_p = first.params
    if init_p is not None:
        save_params(out / "params_init.npz", init_p)
    save_params(out / "params_final.npz", params)

    last = traj.last()
    rep = last.metrics
    summary = {
        "diverged": traj.diverged,
        "steps_recorded": len(traj.records),
        "final": {"step": last.step, "c_lambda": last.c_lambda,
                  "c_0": last.c_0, "eps1": rep.eps1, "eps2": rep.eps2,
                  "r": rep.r},
        "balancedness_ratios": rep.balancedness_ratios,
    }
    write_json(out / "report.json", {"train": _sanitize(summary)})
    if traj.diverged:
        print(f"diverged after step {last.step}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"ok: {last.step} steps, c_0={last.c_0!r}")
    return EXIT_OK


def _report_from(rep: bounds_mod.BoundReport) -> dict:
    return _sanitize(asdict(rep))


def evaluate_bounds(cfg: dict, net, ds, params, params_init) -> dict:
    """Every applicable bound on a finished run, with premise flags."""
    if net.depth < 2:
        raise ConfigError("bounds need a network with at least two layers")
    bcfg = cfg.get("bounds", {})
    rank_tol = bcfg.get("rank_tol", densemat.DEFAULT_RANK_TOL)
    trace = forward(net, params, ds.x)
    rep = metrics.measure(net, params, trace, ds.y, ds.idx)
    sK_y = densemat.svd(ds.y).s[net.n_classes - 1]
    x_op = densemat.op_norm(ds.x)
    k, n = net.n_classes, ds.x.shape[1]

    out = {"measured": _sanitize({
        "eps1": rep.eps1, "eps2": rep.eps2, "r": rep.r, "sK_y": sK_y,
        "x_opnorm": x_op,
        "nc1": rep.layers[-2].nc1 if len(rep.layers) >= 2 else None,
        "kappa_w_l": None, "kappa_prod": None,
    }), "reports": {}}

    try:
        out["measured"]["kappa_w_l"] = densemat.cond(params.weights[-1], rank_tol)
    except ValueError:
        pass
    c3 = None
    if net.l2 >= 1 and net.l1 >= 1:
        try:
            from .network import partial_product
            c3 = densemat.cond(
                partial_product(net, params, net.depth, net.l1 + 1), rank_tol)
            out["measured"]["kappa_prod"] = c3
        except ValueError:
            pass

    inp = bounds_mod.Thm1Inputs(
        eps1=rep.eps1, eps2=rep.eps2, r=rep.r,
        n_lminus1=net.widths[net.depth - 2],
        k=k, n=n, sK_y=sK_y, x_opnorm=x_op, l1=net.l1, l2=net.l2, c3=c3)
    premise = inp.eps1_premise()

    def attempt(name, fn, measured, lower=False, extra_premises=None):
        r = bounds_mod.BoundReport(name=name, measured=measured)
        r.premises["eps1_small"] = premise
        r.premises.update(extra_premises or {})
        try:
            r.value = fn()
        except (bounds_mod.VacuousBound, ValueError) as exc:
            r.detail["vacuous_reason"] = str(exc)
            r.holds = bounds_mod.VACUOUS
            out["reports"][name] = _report_from(r)
            return
        out["reports"][name] = _report_from(r.resolve(lower_bound=lower))

    nc1_last = rep.layers[-2].nc1 if len(rep.layers) >= 2 else None
    if nc1_last is not None:
        attempt("thm1_nc1", lambda: bounds_mod.thm1_nc1_rhs(inp), nc1_last)
    if net.l2 >= 2 and c3 is not None:
        kappa_wl = out["measured"]["kappa_w_l"]
        attempt("thm1_kappa",
                lambda: bounds_mod.thm1_kappa_rhs(
                    inp, proof_exponent=bcfg.get("proof_exponent", False)),
                kappa_wl)
        zbar, _ = metrics.class_means(trace.z[net.depth - 1], ds.idx)
        try:
            nc2_means = densemat.cond(zbar, rank_tol)
        except ValueError:
            nc2_means = None
        if nc2_means is not None and kappa_wl is not None:
            attempt("thm1_nc2",
                    lambda: bounds_mod.thm1_nc2_rhs(inp, kappa_wl), nc2_means)
        nc3_val = rep.layers[-2].nc3
        if nc3_val is not None and kappa_wl is not None:
            attempt("thm1_nc3",
                    lambda: bounds_mod.thm1_nc3_rhs(inp, kappa_wl), nc3_val,
                    lower=True)
        gap_rep = bounds_mod.balanced_power_gap(net, params, rep.r, rep.eps2)
        out["reports"]["balanced_power_gap"] = _report_from(gap_rep)
    elif net.l2 < 2:
        for name in ("thm1_kappa", "thm1_nc2", "thm1_nc3", "balanced_power_gap"):
            out["reports"][name] = _report_from(bounds_mod.BoundReport(
                name=name, premises={"has_linear_interface": False}))

    try:
        out["measured"]["residual_to_pinv"] = bounds_mod.residual_to_pinv(
            trace.z[net.depth - 1], params.weights[-1], ds.y, rank_tol)
    except (bounds_mod.VacuousBound, ValueError):
        pass

    ntk_seed = bcfg.get("ntk_seed", 0)
    nrep = ntk.ntk_opnorm(net, params, ds.x, seed=ntk_seed)
    out["ntk"] = _sanitize({"theta_opnorm": nrep.rho, "iterations": nrep.iterations,
                            "residual": nrep.residual, "converged": nrep.converged})
    attempt("ntk_lower",
            lambda: bounds_mod.ntk_lower_bound(sK_y, rep.eps1, k, rep.r, net.l2),
            nrep.rho, lower=True)

    if net.depth >= 3 and net.activation.gamma is not None and params_init is not None:
        try:
            sched = bounds_mod.init_spectra(net, params_init, ds.x)
            from .network import loss as loss_fn
            c_lam0, c00 = loss_fn(net, params_init, ds.x, ds.y,
                                  cfg["train"]["lam"])
            sched = bounds_mod.thm2_schedule(
                sched, net, bcfg.get("eps1_target", max(rep.eps1, 1e-6)),
                bcfg.get("eps2_target", max(rep.eps2, 1e-8)), ds.b, x_op,
                params_init.norm(), c00, c_lam0, k, n,
                lam=bcfg.get("lam_override"), eta=bcfg.get("eta_override"))
            out["schedule"] = _sanitize(asdict(sched))
        except (ValueError, bounds_mod.VacuousBound) as exc:
            out["schedule"] = {"error": str(exc)}
    return out


def cmd_bounds(run_dir) -> int:
    run = Path(run_dir)
    cfg_path = run / "config.resolved.json"
    final_path = run / "params_final.npz"
    if not cfg_path.exists() or not final_path.exists():
        print(f"missing run artifacts in {run}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = json.loads(cfg_path.read_text())["config"]
    ds = build_dataset(cfg)
    net = build_network(cfg, ds.x.shape[0])
    params = load_params(final_path)
    init_path = run / "params_init.npz"
    params_init = load_params(init_path) if init_path.exists() else None
    payload = evaluate_bounds(cfg, net, ds, params, params_init)
    report_path = run / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    report.pop("schema_version", None)
    report["bounds"] = payload
    write_json(report_path, report)
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


def _run_member(cfg: dict, out: Path) -> dict:
    ds = build_dataset(cfg)
    net = build_network(cfg, ds.x.shape[0])
    # measure every layer: the negativity summary covers the whole backbone
    _, traj = train(net, build_train_config(cfg), ds.x, ds.y, ds.idx,
                    first_layer=1)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.resolved.json", {"config": cfg})
    if traj.diverged:
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


def cmd_sweep(config_path, axis, values, seeds, out_dir, jobs=1) -> int:
    if axis not in ("linear_depth", "nonlinear_depth"):
        print(f"unknown sweep axis {axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    members = [(v, s) for v in values for s in seeds]

    def job(vs):
        v, s = vs
        mdir = out / f"value_{v}_seed_{s}"
        try:
            member = sweep_member_config(cfg, axis, v, s)
            return (v, s, _run_member(member, mdir))
        except (ConfigError, ValueError, densemat.SvdConvergenceError) as exc:
            return (v, s, {"status": f"error: {exc}"})

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(job, members))
    else:
        results = [job(m) for m in members]
    results.sort(key=lambda t: (t[0], t[1]))
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
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--level", choices=["fast", "full"], default="fast")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out)
        if args.command == "bounds":
            return cmd_bounds(args.run)
        if args.command == "sweep":
            values = [int(v) for v in args.values.split(",") if v]
            seeds = [int(s) for s in args.seeds.split(",") if s]
            return cmd_sweep(args.config, args.axis, values, seeds, args.out,
                             jobs=args.jobs)
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
