"""The traced benchmark's coverage pins, on short runs: every per-layer
metric that `perfbench/run.py` lists in `EXERCISED` for `pyramidal`,
`wide`, `depth_sweep` and `verify_full` must be non-zero, or the traced run counts a
`coverage` failure. `cli.artifact_bytes` is left out: `run.py` computes it
from the artifacts, not from spans. The set-up probe, which every benchmark
run starts with, must run too. Reads `perfbench/` and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
STEPS = 20


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # perfbench's modules import each other by name
    try:
        import run
        import spans
        yield run, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def _traced(bench, tmp_path, workload, commands) -> dict:
    run, spans = bench
    make = run.WORKLOADS[workload]  # None for verify_full, which takes no config
    cfg = make((0, 1)) if make else None
    if cfg:
        cfg["train"]["steps"] = STEPS
        (tmp_path / "config.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    prefixes = []
    for i, args in enumerate(commands(cfg)):
        prefixes.append(str(tmp_path / f"spans{i}"))
        proc = subprocess.run([sys.executable, str(PERFBENCH / "spans.py"), prefixes[-1],
                               *map(str, args)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    m = spans.layer_metrics(spans.Spans(prefixes))
    names = set(run.EXERCISED[workload].split()) - {"cli.artifact_bytes"}
    return {n: m[n] for n in names}


def _train_and_bounds(cfg):
    return [["train", "--config", "config.json", "--out", "run"], ["bounds", "--run", "run"]]


def test_pyramidal_train_and_bounds_exercise_every_pinned_metric(bench, tmp_path):
    m = _traced(bench, tmp_path, "pyramidal", _train_and_bounds)
    assert sorted(n for n, v in m.items() if not v) == []


def test_wide_train_and_bounds_exercise_every_pinned_metric(bench, tmp_path):
    # also the SVDs over more than 64 columns, and the spans of bounds and ntk,
    # which cli imports only when it evaluates the bounds
    m = _traced(bench, tmp_path, "wide", _train_and_bounds)
    assert sorted(n for n, v in m.items() if not v) == []


def test_depth_sweep_exercises_every_pinned_metric(bench, tmp_path):
    m = _traced(bench, tmp_path, "depth_sweep", lambda cfg: [
        ["sweep", "--config", "config.json", "--axis", "linear_depth",
         "--values", "1,2,3,4,5", "--seeds", cfg["train"]["seed"], "--out", "run"]])
    assert sorted(n for n, v in m.items() if not v) == []


def test_verify_full_exercises_every_pinned_metric(bench, tmp_path):
    m = _traced(bench, tmp_path, "verify_full", lambda cfg: [["verify", "--level", "full"]])
    assert sorted(n for n, v in m.items() if not v) == []


@pytest.mark.parametrize("args", [["config.json"], ["--verify"]])
def test_setup_probe_runs_on_nclab_from_src(bench, tmp_path, args):
    # probe.py calls cli.load_config, cli.build_dataset and cli.build_network
    run, _ = bench
    (tmp_path / "config.json").write_text(json.dumps(run.WORKLOADS["pyramidal"]((0, 1))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    clock, path = proc.stdout.split()
    float(clock)
    assert Path(path).resolve().is_relative_to(ROOT / "src")
