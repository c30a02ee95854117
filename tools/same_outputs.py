"""Check that the working tree writes the same bytes as a parent commit.

    python3 tools/same_outputs.py --parent HEAD --seeds 0,3

Both sides run from copies in a temporary directory, made as
tools/bench_pairs.py makes them: the parent exported with `git archive`, the
change as the files git tracks or would add. The configs and the sweep values
are the parent tree's `perfbench/run.py` `WORKLOADS` and `SWEEP_VALUES`, read
and not edited, so the sequences cannot drift from the benchmark's. For each
seed s (data seed s, init seed s + 1, as run.py builds them) both trees run:

- `train` + `bounds` on `pyramidal` and on `wide`;
- `sweep` over the linear depths `SWEEP_VALUES` on `depth_sweep`;

and, once, `verify --level full`. Each command runs as `python -m nclab.cli`
from the sequence's own directory with relative paths and one BLAS thread,
and its exit code, stdout and stderr are kept as files beside what it wrote.
The two directories of a sequence are then compared byte for byte, with
verify's per-check timings, such as `(0.01s)`, masked in stdout. One line per
sequence names the first differing file and, in a `.json` file, the path of
its first differing key (`report.json key bounds/reports/thm1_nc1/margin: on
one side only`) or, in any other file, its first differing line; the exit
status is 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_pairs import export, export_worktree

TIMING = re.compile(rb"\(\d+\.\d+s\)")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_inputs(tree: Path) -> tuple:
    """`WORKLOADS` and `SWEEP_VALUES` of `tree`'s perfbench/run.py."""
    bench = str(tree / "perfbench")
    sys.path.insert(0, bench)  # run.py imports its neighbours by name
    try:
        ns = runpy.run_path(str(tree / "perfbench" / "run.py"))
    finally:
        sys.path.remove(bench)
    return ns["WORKLOADS"], ns["SWEEP_VALUES"]


def sequences(workloads: dict, sweep_values: list, seeds: list) -> list:
    """(name, config or None, the nclab argument lists) of every sequence."""
    out = []
    for s in seeds:
        for w in ("pyramidal", "wide"):
            out.append((f"{w}-seed{s}", workloads[w]((s, s + 1)),
                        [["train", "--config", "config.json", "--out", "run"],
                         ["bounds", "--run", "run"]]))
        cfg = workloads["depth_sweep"]((s, s + 1))
        out.append((f"depth_sweep-seed{s}", cfg,
                    [["sweep", "--config", "config.json", "--axis", "linear_depth",
                      "--values", ",".join(map(str, sweep_values)),
                      "--seeds", str(cfg["train"]["seed"]), "--out", "run"]]))
    out.append(("verify_full", None, [["verify", "--level", "full"]]))
    return out


def run_sequence(tree: Path, where: Path, cfg: dict | None, commands: list) -> None:
    """Run `commands` with `tree`'s nclab in the new directory `where`."""
    where.mkdir(parents=True)
    if cfg is not None:
        (where / "config.json").write_text(json.dumps(cfg, indent=1))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_VARS, "1"))
    for i, args in enumerate(commands):
        proc = subprocess.run([sys.executable, "-m", "nclab.cli", *args], cwd=where,
                              env=env, capture_output=True)
        (where / f"cmd{i}.exit").write_text(f"{proc.returncode}\n")
        (where / f"cmd{i}.stdout").write_bytes(proc.stdout.replace(bytes(tree), b"<tree>"))
        (where / f"cmd{i}.stderr").write_bytes(proc.stderr.replace(bytes(tree), b"<tree>"))


def _contents(path: Path) -> bytes:
    data = path.read_bytes()
    return TIMING.sub(b"(...s)", data) if path.suffix == ".stdout" else data


def _json_difference(x, y, path: str = "") -> str | None:
    """Slash-joined path of the first key or list index, in sorted order, at
    which the JSON values `x` and `y` differ, with ": on one side only" when
    one of them lacks it; None when they are equal or differ at the top."""
    if isinstance(x, (dict, list)) and type(x) is type(y):
        x, y = (v if isinstance(v, dict) else dict(enumerate(v)) for v in (x, y))
        for key in sorted(x.keys() | y.keys()):
            where = f"{path}/{key}" if path else str(key)
            if (key in x) != (key in y):
                return f"{where}: on one side only"
            found = _json_difference(x[key], y[key], where)
            if found is not None:
                return found
        return None
    return None if type(x) is type(y) and x == y else path or None


def _json_key(a: bytes, b: bytes) -> str | None:
    try:
        return _json_difference(json.loads(a), json.loads(b))
    except ValueError:
        return None


def first_difference(a: Path, b: Path) -> str | None:
    """The first file, in sorted order, that only one of the directories `a`
    and `b` holds or whose bytes differ, with its first differing key path
    for JSON or else its first differing line; None when both hold the same
    files with the same bytes."""
    names = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    for name in names:
        if not ((a / name).is_file() and (b / name).is_file()):
            return f"{name}: on one side only"
        x, y = (_contents(d / name) for d in (a, b))
        if x == y:
            continue
        key = _json_key(x, y) if name.suffix == ".json" else None
        if key is not None:
            return f"{name} key {key}"
        lines = zip_longest(x.split(b"\n"), y.split(b"\n"))
        return f"{name} line {next(i for i, (u, v) in enumerate(lines, 1) if u != v)}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--seeds", required=True, help="comma-separated data seeds")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    work = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        sha = export(args.parent, trees["parent"])
        export_worktree(trees["change"])
        differ = 0
        for name, cfg, commands in sequences(*benchmark_inputs(trees["parent"]), seeds):
            for side, tree in trees.items():
                run_sequence(tree, work / "out" / side / name, cfg, commands)
            diff = first_difference(work / "out" / "parent" / name,
                                    work / "out" / "change" / name)
            differ += diff is not None
            print(f"{name}: " + (f"differs from {sha} at {diff}" if diff else "same bytes"),
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
