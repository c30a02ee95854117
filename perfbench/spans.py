"""Span tracing for the traced benchmark run, from outside the program.

Run as a script, this is a drop-in for `python -m nclab.cli`:

    python3 perfbench/spans.py SPANS_PREFIX train --config c.json --out run

It wraps the public functions of every nclab module at every binding site
(modules import each other's functions by name, so `trainer.forward` and
`network.forward` are two sites of one function), runs the CLI, and writes
the spans it kept in memory to SPANS_PREFIX.npz and SPANS_PREFIX.json when
the command ends, whether it returned or raised.

Imported, it turns span files into per-layer metrics (`layer_metrics`).

A span is (name, start, end, parent). The tracer keeps one call stack, so
it is only correct for single-threaded commands; the benchmark never passes
`--jobs` to `nclab sweep`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "trainer", "network", "densemat", "metrics", "bounds", "ntk",
           "data", "verify")
# private functions that are still layer boundaries worth a span
PRIVATE = {"cli._run_member"}
# verify.FULL_CHECKS entries that are lambdas get a span of their own
LAMBDA_CHECKS = {"balanced-chain power lemma (20 instances)": "verify.lemma_c2_suite_20",
                 "balanced-chain power lemma (100 instances)": "verify.lemma_c2_suite_100"}


class Tracer:
    """Spans in flat arrays, so a long run costs ~25 bytes per span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.notes: dict[int, list] = {}   # span index -> numbers for that span
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """`fn` with a span; `note(args, result)` may return numbers to keep."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.failed.append(1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                self.failed[i] = 0
                return result
            finally:
                self.end[i] = clock()
                self._stack.pop()
                if note is not None:
                    self.notes[i] = note(args, result if not self.failed[i] else None)

        return traced

    def write(self, prefix: str) -> None:
        np.savez(prefix + ".npz", name_id=np.frombuffer(self.name_id, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32),
                 failed=np.frombuffer(self.failed, np.int8))
        Path(prefix + ".json").write_text(json.dumps(
            {"names": self.names, "notes": {str(k): v for k, v in self.notes.items()}}))


def _svd_note(args, result):
    shape = np.shape(args[0])
    return [max(shape), min(shape)] if len(shape) == 2 else [0, 0]


def _train_note(args, result):
    if result is None:
        return [0, 0]
    traj = result[1]
    snap = sum(w.nbytes for r in traj.records if r.params is not None
               for w in r.params.weights)
    return [len(traj.records), snap]


def _ntk_note(args, result):
    return [0, 0] if result is None else [result.iterations, int(not result.converged)]


def _member_note(args, result):
    return [int(result is None or result.get("status") != "ok")]


NOTES = {"densemat.svd": _svd_note, "trainer.train": _train_note,
         "ntk.ntk_opnorm": _ntk_note, "cli._run_member": _member_note}


def install(tracer: Tracer) -> dict:
    """Wrap every public nclab function at every module attribute bound to it."""
    mods = {m: importlib.import_module(f"nclab.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE)):
                wrapped[obj] = tracer.wrap(name, obj, NOTES.get(name))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    verify = mods["verify"]
    checks = []
    for label, fn in verify.FULL_CHECKS:
        if fn in wrapped:
            fn = wrapped[fn]
        else:
            fn = tracer.wrap(LAMBDA_CHECKS.get(label, f"verify.[{label}]"), fn)
        checks.append((label, fn))
    verify.FULL_CHECKS = checks
    return mods


def main(argv: list[str]) -> int:
    prefix, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    mods = install(tracer)
    try:
        return mods["cli"].main(cli_argv)
    finally:
        tracer.write(prefix)


# ---------------------------------------------------------------------------
# span files -> per-layer metrics
# ---------------------------------------------------------------------------

class Spans:
    """The spans of one or more traced commands, with self time per span."""

    def __init__(self, prefixes):
        name, dur, parent, failed, self.notes = [], [], [], [], {}
        offset = 0
        for prefix in prefixes:
            meta = json.loads(Path(prefix + ".json").read_text())
            with np.load(prefix + ".npz") as z:
                name.append(np.array(meta["names"] + [""])[z["name_id"]])
                dur.append(z["end"] - z["start"])
                p = z["parent"].astype(np.int64)
                parent.append(np.where(p >= 0, p + offset, -1))
                failed.append(z["failed"])
            self.notes.update({int(k) + offset: v for k, v in meta["notes"].items()})
            offset += len(dur[-1])
        self.name = np.concatenate(name)
        self.dur = np.concatenate(dur)
        self.parent = np.concatenate(parent)
        self.failed = np.concatenate(failed)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def of(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name == name)

    def calls(self, name: str) -> int:
        return int(len(self.of(name)))

    def total(self, name: str) -> float:
        return float(self.dur[self.of(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.of(name)].sum())

    def pct(self, name: str, q: float) -> float:
        idx = self.of(name)
        return float(np.percentile(self.dur[idx], q)) if len(idx) else 0.0

    def note_sum(self, name: str, col: int) -> float:
        return float(sum(self.notes[i][col] for i in self.of(name) if i in self.notes))

    def self_by(self, key) -> dict:
        """Self time summed by key(name), largest first."""
        out: dict[str, float] = {}
        for n, t in zip(self.name, self.self_time):
            out[key(n)] = out.get(key(n), 0.0) + float(t)
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


VERIFY_CHECKS = ("check_svd_reconstruction", "check_pinv_identities", "check_gradient_fd",
                 "check_activation", "check_pullback_is_gradient", "check_ntk_rayleigh",
                 "check_one_hot_identities", "check_dense_ntk_agreement",
                 "lemma_c2_suite_20", "thm1_suite", "lemma_c2_suite_100")


def layer_metrics(sp: Spans) -> dict:
    """Every `<module>.<function>.<stat>` metric the traced run reports."""
    m = {}
    svd = sp.of("densemat.svd")
    shapes = np.array([sp.notes.get(i, [0, 0]) for i in svd], dtype=float).reshape(-1, 2)
    rows, cols = shapes[:, 0], shapes[:, 1]
    buckets = {"cols_le_16": cols <= 16, "cols_17_64": (cols > 16) & (cols <= 64),
               "cols_gt_64": cols > 64}
    m["densemat.svd.calls"] = len(svd)
    m["densemat.svd.s"] = float(sp.dur[svd].sum())
    m["densemat.svd.self_s"] = float(sp.self_time[svd].sum())
    for b, mask in buckets.items():
        m[f"densemat.svd.{b}.calls"] = int(mask.sum())
        m[f"densemat.svd.{b}.s"] = float(sp.dur[svd][mask].sum())
    m["densemat.svd.p50_ms"] = sp.pct("densemat.svd", 50) * 1e3
    m["densemat.svd.max_ms"] = float(sp.dur[svd].max()) * 1e3 if len(svd) else 0.0
    m["densemat.svd.pair_work"] = float(np.sum(rows * cols * (cols - 1) / 2))
    from_opnorm = [sp.parent[i] >= 0 and sp.name[sp.parent[i]] == "densemat.op_norm"
                   for i in svd]
    m["densemat.svd.sigma1_only_frac"] = float(np.mean(from_opnorm)) if len(svd) else 0.0
    m["densemat.svd.failed"] = int(sp.failed[svd].sum())
    for f in ("op_norm", "cond", "pinv"):
        m[f"densemat.{f}.calls"] = sp.calls(f"densemat.{f}")
        m[f"densemat.{f}.s"] = sp.total(f"densemat.{f}")

    m["trainer.gd_step.calls"] = sp.calls("trainer.gd_step")
    m["trainer.gd_step.self_s"] = sp.self_total("trainer.gd_step")
    m["trainer.gd_step.p50_us"] = sp.pct("trainer.gd_step", 50) * 1e6
    m["trainer.gd_step.p99_us"] = sp.pct("trainer.gd_step", 99) * 1e6
    for f in ("forward", "backprop"):
        m[f"network.{f}.calls"] = sp.calls(f"network.{f}")
        m[f"network.{f}.self_s"] = sp.self_total(f"network.{f}")
    for f in ("act_apply", "act_grad", "loss"):
        m[f"network.{f}.calls"] = sp.calls(f"network.{f}")
        m[f"network.{f}.s"] = sp.total(f"network.{f}")
    m["trainer.train.s"] = sp.total("trainer.train")
    m["trainer.train.non_step_s"] = m["trainer.train.s"] - sp.total("trainer.gd_step")
    m["trainer.records"] = int(sp.note_sum("trainer.train", 0))
    m["trainer.snapshot_bytes"] = int(sp.note_sum("trainer.train", 1))

    m["metrics.measure.calls"] = sp.calls("metrics.measure")
    m["metrics.measure.s"] = sp.total("metrics.measure")
    m["metrics.measure.calls_per_record"] = (
        m["metrics.measure.calls"] / m["trainer.records"] if m["trainer.records"] else 0.0)
    for f in ("negativity", "nc2", "nc3", "extract_thm1_inputs", "balancedness_ratio"):
        m[f"metrics.{f}.s"] = sp.total(f"metrics.{f}")

    for f in ("init_spectra", "thm2_schedule", "balanced_power_gap", "residual_to_pinv"):
        m[f"bounds.{f}.s"] = sp.total(f"bounds.{f}")
    m["ntk.ntk_opnorm.s"] = sp.total("ntk.ntk_opnorm")
    m["ntk.ntk_opnorm.iterations"] = int(sp.note_sum("ntk.ntk_opnorm", 0))
    m["ntk.ntk_opnorm.not_converged"] = int(sp.note_sum("ntk.ntk_opnorm", 1))
    for f in ("pushforward", "pullback"):
        m[f"ntk.{f}.calls"] = sp.calls(f"ntk.{f}")

    for f in ("load_config", "build_dataset"):
        m[f"cli.{f}.s"] = sp.total(f"cli.{f}")
    m["data.synth_gaussian.s"] = sp.total("data.synth_gaussian")
    for f in ("write_trajectory_csv", "write_metrics_csv", "write_means_grams",
              "save_params", "write_json", "evaluate_bounds"):
        m[f"cli.{f}.s"] = sp.total(f"cli.{f}")
    m["cli._run_member.calls"] = sp.calls("cli._run_member")
    m["cli._run_member.p50_s"] = sp.pct("cli._run_member", 50)
    m["cli._run_member.failed"] = int(sp.note_sum("cli._run_member", 0))

    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = sp.total(f"verify.{check}")
    by_module = sp.self_by(lambda n: n.split(".")[0])
    for mod in MODULES:
        m[f"{mod}.self_s"] = by_module.get(mod, 0.0)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
