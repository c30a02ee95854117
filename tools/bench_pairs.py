"""Alternating parent/change runs of the benchmark, summarised as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_6.json \\
        --workloads verify_full,wide --seed0 1600

The change is this working tree and the parent the commit `--parent`. Each
runs from a copy in a scratch directory (`--workdir`, default a new
temporary directory, deleted afterwards; a missing DIR is created): the parent exported with `git
archive`, the change as the files git tracks or would add. Neither copy has
cached bytecode, so both sides start from the same bytecode state; in the
working tree itself the change would load whatever `__pycache__` holds
(compiling all of src/ costs about 54 ms of a 0.25-0.30 s start). Pair i of PAIRS runs
`perfbench/run.py --workload W --seed seed0+i --seconds S --trace 0` once in
each tree, the parent first when i is even; S is BENCHMARK.json's
`run_seconds`. Each side runs its own copy of perfbench/run.py; this script
imports nothing from perfbench/ and only reads the JSON object run.py prints
last and its `# environment` line. A git archive is used rather than a git
worktree so that an interrupted run leaves nothing in the repository.

For each end-to-end metric of BENCHMARK.json the file holds both sides'
samples, medians and quartiles, the pair wins, and a verdict:

- "improved (gain rule met)": the change wins at least 9/10 of the pairs and
  its median beats the parent's by more than the parent's quartile distance;
- "regression beyond bound": the change's median is worse than the parent's
  by more than the metric's bound;
- "unresolved (spread wider than bound)": the parent's quartile distance
  exceeds the bound and not every change run beats every parent run;
- "no regression beyond bound" otherwise.

`--trace-seed N` also runs each workload TRACE_RUNS times per side with
`--trace 1`, at seeds N, N+1, ..., alternating which side goes first as the
pairs do, and stores each per-layer metric's samples and median: one traced
run can read the opposite of the pairs. The file is rewritten after every
pair, so an interrupted run leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_RUNS = 3
GAIN_WIN_SHARE = 0.9


def sides(i: int) -> tuple:
    """The order in which the sides run for pair (or traced seed) `i`."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def export(rev: str, dest: Path) -> str:
    """Write the tree of commit `rev` into `dest`; return its short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def export_worktree(dest: Path) -> None:
    """Copy into `dest` the working tree's files that git tracks or would add,
    as they are on disk: ignored files such as `__pycache__` stay behind."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py in `tree`: its result object plus its environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    env = [ln for ln in lines if ln.startswith("# environment ")]
    result["environment"] = json.loads(env[-1][len("# environment "):]) if env else None
    return result


def summary(samples: list) -> dict:
    q1, q3 = np.percentile(samples, [25, 75])
    return {"median": statistics.median(samples), "q1": float(q1), "q3": float(q3),
            "n": len(samples), "samples": samples}


def compare(parent: list, change: list, bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0   # sign * (a - b) > 0: b is better
    p, c = summary(parent), summary(change)
    change_wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    parent_wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    rel = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
    spread = p["q3"] - p["q1"]
    if (change_wins >= GAIN_WIN_SHARE * len(parent)
            and sign * (p["median"] - c["median"]) > spread):
        verdict = "improved (gain rule met)"
    elif sign * rel > bound:
        verdict = "regression beyond bound"
    elif (p["median"] and spread / abs(p["median"]) > bound
          and not all(sign * (a - b) > 0 for a in parent for b in change)):
        verdict = "unresolved (spread wider than bound)"
    else:
        verdict = "no regression beyond bound"
    return {"bound": bound, "parent": p, "change": c, "change_wins": change_wins,
            "parent_wins": parent_wins, "median_change_rel": rel,
            "parent_iqr_over_median": spread / p["median"] if p["median"] else None,
            "verdict": verdict}


def workload_entry(runs: dict, seeds: list, metrics: list) -> dict:
    """runs[side] is the list of run.py results of that side, in pair order."""
    entry = {"pairs": len(seeds), "seeds": seeds, "metrics": {}}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in runs.items()}
        entry["metrics"][m["name"]] = compare(values["parent"], values["change"],
                                              m["bound"], m["better"] == "lower")
    entry["correct"] = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
    entry["ops_failed"] = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    entry["ops_attempted"] = {side: sum(r["attempted"] for r in rs)
                              for side, rs in runs.items()}
    entry["environment"] = {side: rs[-1]["environment"] for side, rs in runs.items()}
    return entry


def traced_entry(runs: dict, seeds: list) -> dict:
    """runs[side] is the list of traced run.py results of that side, in seed
    order: every per-layer metric's samples and their median."""
    entry = {"seeds": seeds}
    for side, rs in runs.items():
        samples = {k: [r["metrics"][k]["value"] for r in rs] for k in rs[0]["metrics"]}
        entry[side] = {"correct": all(r["correct"] for r in rs),
                       "failed": sum(r["failed"] for r in rs),
                       "metrics": {k: {"median": statistics.median(v), "samples": v}
                                   for k, v in samples.items()}}
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--workdir", type=Path, default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = args.workloads.split(",")
    try:
        if args.workdir is not None:
            args.workdir.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=args.workdir, prefix="bench_pairs-"))
    except OSError as exc:
        print(f"bench_pairs: cannot use --workdir {args.workdir}: {exc}", file=sys.stderr)
        return 2
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        sha = export(args.parent, trees["parent"])
        export_worktree(trees["change"])
        out = {"what": (f"perfbench/run.py --seconds {seconds:g} --trace 0, "
                        "alternating parent/change pairs (even pair index: parent "
                        f"first), seeds {args.seed0}+i (verify_full ignores the "
                        "seed). Times are run.py's scaled medians. Quartiles are "
                        "numpy linear-interpolation percentiles over the pair runs. "
                        "A pair is a win for the side with the better value; ties "
                        "count for neither. Written by tools/bench_pairs.py."),
               "parent": sha, "workloads": {}}
        for w in workloads:
            runs = {"parent": [], "change": []}
            seeds = []
            for i in range(PAIRS):
                seed = args.seed0 + i
                for side in sides(i):
                    runs[side].append(run_bench(trees[side], w, seed, seconds, 0))
                seeds.append(seed)
                out["workloads"][w] = workload_entry(runs, seeds, metrics)
                args.out.write_text(json.dumps(out, indent=1) + "\n")
                print(f"{w} pair {i}: " + ", ".join(
                    f"{m} parent {runs['parent'][-1]['metrics'][m]['value']:.3f} "
                    f"change {runs['change'][-1]['metrics'][m]['value']:.3f}"
                    for m in ("time_to_verdict_s", "setup_s")), flush=True)
        if args.trace_seed is not None:
            seeds = [args.trace_seed + j for j in range(TRACE_RUNS)]
            out["traced"] = {"what": (f"perfbench/run.py --seed S --seconds 1 --trace 1 "
                                      f"for S in {seeds}, one run per side per seed "
                                      "(even seed index: parent first); each metric "
                                      "holds its samples in seed order and their median")}
            for w in workloads:
                runs = {"parent": [], "change": []}
                for j, seed in enumerate(seeds):
                    for side in sides(j):
                        runs[side].append(run_bench(trees[side], w, seed, 1, 1))
                out["traced"][w] = traced_entry(runs, seeds)
                args.out.write_text(json.dumps(out, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for w, entry in out["workloads"].items():
        for m, c in entry["metrics"].items():
            print(f"{w} {m}: {c['parent']['median']:.4g} -> {c['change']['median']:.4g} "
                  f"({c['change_wins']}/{entry['pairs']} change wins): {c['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
