"""nclab benchmark: the real `nclab` commands on four workloads, in fresh
interpreters, each output checked against an oracle outside the program.

    python3 perfbench/run.py --workload pyramidal --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; nclab is imported from its `src/`.
`--trace 0` times the command sequence with tracing off, repeats it until
`--seconds` have passed and reports medians, scaled to a reference core
speed (see yardstick.py). `--trace 1` runs it once plain
and once under `spans.py`, checks that both runs wrote byte-identical
artifacts and reports the per-layer metrics. The last line of standard
output is the result as one JSON object; lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import spans
from yardstick import REF_S, Sampler

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1          # one BLAS thread per child: steady on a shared 2-core box
SETUP_STARTS = 6          # fresh starts per run at least, for setup_s
COMMAND_TIMEOUT_S = 150.0

SMOOTH = {"kind": "smoothed_leaky_relu", "gamma": 0.3, "beta": 2.0}
SWEEP_VALUES = [1, 2, 3, 4, 5]


def _config(widths, l1, d, k, n_per_class, eta, steps, record_every, seeds):
    data_seed, train_seed = seeds
    return {
        "schema_version": 1,
        "network": {"widths": widths, "l1": l1, "activation": SMOOTH},
        "train": {"eta": eta, "lam": 0.02, "steps": steps, "record_every": record_every,
                  "lr_drop_fraction": 1.0, "lr_drop_factor": 10.0, "seed": train_seed,
                  "store_params": True},
        "data": {"kind": "synthetic", "d": d, "k": k, "n_per_class": n_per_class,
                 "class_sep": 1.0, "noise": 0.1, "seed": data_seed,
                 "min_col_norm_one": True},
        "bounds": {"rank_tol": 1e-10},
    }


# Why each workload: the time of the acceptance run sits in the GD step and
# small SVDs; the sweep almost only in the GD step (network + trainer); the
# wide net in Jacobi SVDs over 64-256 columns; verify in thousands of SVDs of
# at most 29 columns plus finite differences, where per-call overhead rules.
# Step counts keep one pass to a few seconds (wide: ~30 s, set by its SVDs)
# while keeping each workload's ratio of GD steps to recorded steps.
WORKLOADS = {
    "pyramidal": lambda s: _config([64, 32, 16, 8, 4], 3, 16, 4, 8, 0.03, 4000, 1000, s),
    "depth_sweep": lambda s: _config([16, 8, 3], 2, 8, 3, 4, 0.05, 4000, 4000, s),
    # eta 0.01: at 0.03 GD diverges on some seeds (704) for this net
    "wide": lambda s: _config([256, 128, 64, 10, 10], 3, 64, 10, 20, 0.01, 300, 150, s),
    "verify_full": None,
}

# Per-layer metrics each workload must make non-zero; a zero means a span
# is not installed where the program calls the function.
EXERCISED = {
    "pyramidal": """densemat.svd.calls densemat.svd.cols_le_16.calls
        densemat.svd.cols_17_64.calls densemat.svd.pair_work densemat.svd.sigma1_only_frac
        densemat.op_norm.calls densemat.cond.calls densemat.pinv.calls
        trainer.gd_step.calls network.forward.calls network.backprop.calls
        network.act_apply.calls network.act_grad.calls network.loss.calls
        trainer.train.s trainer.train.non_step_s trainer.records trainer.snapshot_bytes
        metrics.measure.calls metrics.negativity.s metrics.nc2.s metrics.nc3.s
        metrics.extract_thm1_inputs.s metrics.balancedness_ratio.s bounds.init_spectra.s
        bounds.thm2_schedule.s bounds.balanced_power_gap.s bounds.residual_to_pinv.s
        ntk.ntk_opnorm.s ntk.ntk_opnorm.iterations ntk.pushforward.calls ntk.pullback.calls
        cli.load_config.s cli.build_dataset.s data.synth_gaussian.s cli.write_trajectory_csv.s
        cli.write_metrics_csv.s cli.write_means_grams.s cli.save_params.s cli.write_json.s
        cli.evaluate_bounds.s cli.artifact_bytes""",
    "depth_sweep": """trainer.gd_step.calls trainer.gd_step.self_s network.forward.calls
        network.backprop.calls network.act_apply.calls network.act_grad.calls
        network.loss.calls trainer.train.s trainer.records metrics.measure.calls
        cli._run_member.calls cli._run_member.p50_s cli.load_config.s cli.build_dataset.s
        data.synth_gaussian.s cli.write_json.s cli.artifact_bytes densemat.svd.calls""",
    "verify_full": """densemat.svd.calls densemat.svd.cols_le_16.calls
        densemat.svd.cols_17_64.calls densemat.op_norm.calls densemat.cond.calls
        densemat.pinv.calls network.loss.calls ntk.ntk_opnorm.iterations """
        + " ".join(f"verify.{c}.s" for c in spans.VERIFY_CHECKS),
}
EXERCISED["wide"] = EXERCISED["pyramidal"] + """ densemat.svd.cols_gt_64.calls
    densemat.svd.cols_gt_64.s"""

E2E_UNITS = {"time_to_verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# apply only to some workloads, so they are reported with the traced run
PARTIAL_UNITS = {"train_s": "s", "bounds_s": "s", "ops_failed_frac": "fraction"}
FAILURE_CLASSES = ("crash", "verify_fail", "divergence", "config", "wrong_output",
                   "coverage")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Command:
    """One child process: wall time, its own peak RSS (wait4), exit and output."""

    def __init__(self, argv: list, log: Path, sampler: Sampler):
        self.argv = argv
        out, err = log.with_suffix(".out"), log.with_suffix(".err")
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            sampler.on()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                sampler.off()
                killer.cancel()
            self.wall = time.monotonic() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.start = t0
        self.rss_mb = usage.ru_maxrss / 1024.0  # kB on Linux
        self.stdout, self.stderr = out.read_text(), err.read_text()

    @property
    def failure(self):
        """None, or the class of failure: exit codes 1-3 are nclab's own."""
        if "Traceback (most recent call last)" in self.stderr:
            return "crash"
        return {0: None, 1: "verify_fail", 2: "config", 3: "divergence"}.get(self.rc, "crash")


def nclab(args: list, log: Path, trace_prefix: Path | None, sampler: Sampler) -> Command:
    if trace_prefix is None:
        argv = [sys.executable, "-m", "nclab.cli"] + args
    else:
        argv = [sys.executable, str(HERE / "spans.py"), str(trace_prefix)] + args
    return Command(argv, log, sampler)


class Pass:
    """One run of a workload's command sequence into `out`, then its checks."""

    def __init__(self, workload: str, cfg: dict | None, config_path: Path, out: Path,
                 sampler: Sampler, traced: bool = False):
        out.mkdir(parents=True)
        self.out = out
        first_tick = len(sampler.samples)
        self.ops: list = []          # (operation, failure class or None, reason)
        self.traces: list = []
        run = out / "run"

        def cmd(*args):
            prefix = out / f"spans{len(self.traces)}" if traced else None
            c = nclab([str(a) for a in args], out / f"cmd{len(self.ops)}", prefix, sampler)
            last_line = (c.stderr.strip().splitlines() or [f"exit code {c.rc}"])[-1]
            self.ops.append((f"nclab {args[0]}", c.failure, last_line if c.failure else None))
            if traced:
                self.traces.append(str(prefix))
            return c

        if workload == "verify_full":
            cmds = [cmd("verify", "--level", "full")]
        elif workload == "depth_sweep":
            cmds = [cmd("sweep", "--config", config_path, "--axis", "linear_depth",
                        "--values", ",".join(map(str, SWEEP_VALUES)),
                        "--seeds", cfg["train"]["seed"], "--out", run)]
        else:
            cmds = [cmd("train", "--config", config_path, "--out", run),
                    cmd("bounds", "--run", run)]
        self.commands = cmds
        self.scale = sampler.factor(first_tick)   # to reference core speed
        last = cmds[-1]
        self.time_to_verdict_s = last.start + last.wall - cmds[0].start
        self.peak_rss_mb = max(c.rss_mb for c in cmds)
        self.train_s = cmds[0].wall if workload != "verify_full" else None
        self.bounds_s = cmds[1].wall if len(cmds) > 1 else None
        if not traced:
            self._check(workload, cfg, run)

    def check(self, name, reason):
        self.ops.append((name, "wrong_output" if reason else None, reason))

    def _check(self, workload, cfg, run):
        # an output is checked only when the command that writes it succeeded
        if workload == "verify_full":
            if self.commands[0].failure is None:
                self.check("verify output", checks.verify_output(self.commands[0].stdout))
            return
        if workload == "depth_sweep":
            if self.commands[0].failure is None:
                for name, reason in checks.sweep_rows(run / "sweep.csv", SWEEP_VALUES,
                                                      [cfg["train"]["seed"]]):
                    self.check(name, reason)
            return
        d = cfg["data"]
        x, y = checks.synth_gaussian(d["d"], d["k"], d["n_per_class"], d["class_sep"],
                                     d["noise"], d["seed"], d["min_col_norm_one"])
        if self.commands[0].failure is None:
            self.check("trajectory op norms", _guard(checks.trajectory_opnorms, run, cfg))
        if self.commands[1].failure is None:
            self.check("kappa_w_l", _guard(checks.kappa_w_l, run, cfg))
            self.check("x_opnorm", _guard(checks.x_opnorm, run, x))
            self.check("sK_y", _guard(checks.sk_y, run, y))
            self.check("verdicts", _guard(checks.verdicts, run))


def _guard(check, *args):
    """A check that cannot read the artifact it needs reports that as its reason."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return f"{check.__name__}: unreadable artifact ({type(exc).__name__}: {exc})"


def setup_time(workload: str, config_path: Path, log: Path, sampler: Sampler) -> float:
    """One fresh interpreter's set-up, launch to just before the first GD step,
    at reference core speed."""
    arg = "--verify" if workload == "verify_full" else str(config_path)
    first_tick = len(sampler.samples)
    c = Command([sys.executable, str(HERE / "probe.py"), arg], log, sampler)
    if c.rc != 0:
        raise RuntimeError(f"set-up probe failed: {c.stderr.strip()[-500:]}")
    done, where = c.stdout.split(maxsplit=1)
    if not Path(where.strip()).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"nclab imported from {where.strip()}, not from {ROOT / 'src'}")
    return (float(done) - c.start) * sampler.factor(first_tick)


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "nclab"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "tick_ref_s": REF_S,
            "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))}


def tally(ops: list) -> dict:
    counts = {c: sum(1 for _, f, _ in ops if f == c) for c in FAILURE_CLASSES}
    counts["attempted"] = len(ops)
    counts["failed"] = sum(1 for _, f, _ in ops if f)
    return counts


def artifact_bytes(run: Path) -> int:
    return sum(p.stat().st_size for p in run.rglob("*") if p.is_file())


def measure(workload, cfg, config_path, work, seconds, sampler) -> tuple:
    """Passes until `seconds` have gone by, each after one set-up probe;
    medians of the times at reference core speed."""
    setup: list = []

    def probe():
        return setup_time(workload, config_path, work / f"probe{len(setup)}", sampler)

    probe()                       # warms the file cache and writes bytecode; not counted
    passes, t0 = [], time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        setup.append(probe())
        p = Pass(workload, cfg, config_path, work / f"pass{len(passes)}", sampler)
        if passes and workload != "verify_full":
            p.check("rerun bit-identical", checks.same_files(passes[0].out / "run",
                                                             p.out / "run"))
            shutil.rmtree(p.out / "run")
        passes.append(p)
    while len(setup) < SETUP_STARTS:
        setup.append(probe())
    med = lambda k: statistics.median(getattr(p, k) * p.scale for p in passes)  # noqa: E731
    print(f"# {len(passes)} passes; time_to_verdict_s scaled "
          f"{sorted(p.time_to_verdict_s * p.scale for p in passes)}, raw "
          f"{sorted(p.time_to_verdict_s for p in passes)}; factors {[p.scale for p in passes]}")
    print(f"# {len(setup)} starts; setup_s scaled {sorted(setup)}")
    metrics = {"time_to_verdict_s": med("time_to_verdict_s"),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes)}
    partial = {k: med(k) for k in ("train_s", "bounds_s") if getattr(passes[0], k) is not None}
    return metrics, partial, [op for p in passes for op in p.ops]


def trace(workload, cfg, config_path, work, sampler) -> tuple:
    plain = Pass(workload, cfg, config_path, work / "plain", sampler)
    traced = Pass(workload, cfg, config_path, work / "traced", sampler, traced=True)
    if workload != "verify_full":
        plain.check("traced artifacts byte-identical",
                    checks.same_files(plain.out / "run", traced.out / "run"))
    sp = spans.Spans(traced.traces)
    m = spans.layer_metrics(sp)
    m["cli.artifact_bytes"] = artifact_bytes(plain.out / "run") \
        if (plain.out / "run").exists() else 0
    m["bench.trace_overhead_s"] = (traced.time_to_verdict_s * traced.scale
                                   - plain.time_to_verdict_s * plain.scale)
    for k in ("train_s", "bounds_s"):
        m[k] = (getattr(plain, k) or 0.0) * plain.scale
    zero = [n for n in EXERCISED[workload].split() if not m[n]]
    plain.ops.append(("per-layer metrics exercised", "coverage" if zero else None,
                      f"zero: {zero}" if zero else None))
    print(f"# untraced {plain.time_to_verdict_s!r} s, traced {traced.time_to_verdict_s!r} s")
    for c, prefix in zip(traced.commands, traced.traces):
        top = list(spans.Spans([prefix]).self_by(lambda n: n).items())[:6]
        print(f"# self time, nclab {c.argv[3]}: "
              + ", ".join(f"{n} {t:.3f}s" for n, t in top))
    print("# self time by layer: " + ", ".join(
        f"{n} {t:.3f}s" for n, t in sp.self_by(lambda n: n.split('.')[0]).items()))
    return m, plain.ops + traced.ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nclab" / "cli.py").is_file():
        print(f"no nclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    # children inherit the core, so the yardstick times the core they run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    sampler = Sampler()
    try:
        # data and initial weights both follow the seed; verify's inputs are fixed
        build = WORKLOADS[args.workload]
        cfg = build((args.seed, args.seed + 1)) if build else None
        config_path = work / "config.json"
        if cfg:
            config_path.write_text(json.dumps(cfg, indent=1))
        if args.trace:
            metrics, ops = trace(args.workload, cfg, config_path, work, sampler)
        else:
            metrics, partial, ops = measure(args.workload, cfg, config_path, work,
                                            args.seconds, sampler)
        counts = tally(ops)
        frac = counts["failed"] / counts["attempted"]
        if args.trace:
            metrics["ops_failed_frac"] = frac
            metrics.update({f"ops.{c}": counts[c] for c in FAILURE_CLASSES})
            units = {m["name"]: m["unit"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            if set(units) != set(metrics):
                raise RuntimeError("per-layer metrics and BENCHMARK.json disagree on "
                                   f"{sorted(set(units) ^ set(metrics))}")
        else:
            units = E2E_UNITS
            shown = {**metrics, **partial, "ops_failed_frac": frac}
            for name, value in shown.items():
                unit = {**E2E_UNITS, **PARTIAL_UNITS}[name]
                print(f"# {args.workload} {name} = {value!r} {unit}")
        for name, failure, reason in ops:
            if failure:
                print(f"# FAILED [{failure}] {name}: {reason}")
        print("# environment " + json.dumps(environment()))
        result = {"correct": counts["wrong_output"] == 0,
                  "attempted": counts["attempted"], "failed": counts["failed"],
                  "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    finally:
        sampler.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
