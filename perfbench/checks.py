"""Output checks. None of them imports nclab: every expected value comes from
`np.linalg` on the saved weights and on data rebuilt here from the config,
or from the definitions of the artifacts' formats.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import filecmp
import json
import math
from pathlib import Path

import numpy as np

# Jacobi and LAPACK singular values agree to ~1e-13 relative on these sizes;
# 1e-8 leaves room for ill-conditioned weights without hiding a wrong answer.
RTOL = 1e-8
LOWER_BOUNDS = {"thm1_nc3", "ntk_lower"}  # a lower bound holds when measured >= value
SWEEP_COLUMNS = ["value", "seed", "status", "nc1_last", "nc2_last",
                 "nc1_head_input", "nc2_head_input", "min_balancedness",
                 "mean_balancedness", "min_negativity", "mean_negativity"]
SWEEP_REQUIRED = ("nc1_last", "nc2_last", "nc1_head_input", "nc2_head_input")


def synth_gaussian(d, k, n_per_class, class_sep, noise, seed, min_col_norm_one):
    """(x, y) of the documented synthetic data: class c is a Gaussian cloud
    around class_sep * u_c, u_c Gram-Schmidt orthonormal, columns by class."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, k))
    q = np.zeros((d, k))
    for c in range(k):
        v = g[:, c] - q[:, :c] @ (q[:, :c].T @ g[:, c])
        q[:, c] = v / np.linalg.norm(v)
    x = np.concatenate([class_sep * q[:, c:c + 1]
                        + noise * rng.standard_normal((d, n_per_class))
                        for c in range(k)], axis=1)
    b = np.linalg.norm(x, axis=0).max()
    if min_col_norm_one and 0.0 < b < 1.0:
        x = x / b
    y = np.kron(np.eye(k), np.ones((1, n_per_class)))
    return x, y


def load_weights(path: Path) -> list:
    with np.load(path) as npz:
        return [npz[f"w{i + 1}"] for i in range(len(npz.files))]


def read_csv(path: Path) -> tuple:
    """(header, rows as dicts of strings) of an nclab CSV artifact."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# nclab schema_version="):
        raise ValueError(f"{path.name}: missing schema line")
    header = lines[1].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[2:]]


def _close(got, want, what, rtol=RTOL):
    try:
        got = float(got)
    except (TypeError, ValueError):
        return f"{what}: {got!r} is not a number (expected {want!r})"
    if not abs(got - want) <= rtol * max(abs(want), 1e-300):
        return f"{what}: {got!r} != oracle {want!r} (rtol {rtol})"
    return None


def trajectory_opnorms(run: Path, cfg: dict):
    _, rows = read_csv(run / "trajectory.csv")
    last = rows[-1]
    if int(last["step"]) != cfg["train"]["steps"]:
        return f"final trajectory row is step {last['step']}, not {cfg['train']['steps']}"
    for i, w in enumerate(load_weights(run / "params_final.npz"), start=1):
        err = _close(last.get(f"opnorm_{i}"), np.linalg.norm(w, 2), f"opnorm_{i}")
        if err:
            return err
    return None


def _measured(run: Path) -> dict:
    return json.loads((run / "report.json").read_text())["bounds"]["measured"]


def kappa_w_l(run: Path, cfg: dict):
    s = np.linalg.svd(load_weights(run / "params_final.npz")[-1], compute_uv=False)
    kept = s[s > cfg["bounds"]["rank_tol"] * s[0]]
    return _close(_measured(run).get("kappa_w_l"), s[0] / kept[-1], "kappa_w_l")


def x_opnorm(run: Path, x):
    return _close(_measured(run).get("x_opnorm"), np.linalg.norm(x, 2), "x_opnorm")


def sk_y(run: Path, y):
    want = np.linalg.svd(y, compute_uv=False)[y.shape[0] - 1]
    return _close(_measured(run).get("sK_y"), want, "sK_y")


def verdicts(run: Path):
    """Every verdict agrees with its own premises and numbers: holds and
    violated need all premises true and both numbers, and the comparison
    decides between them; anything else is vacuous."""
    reports = json.loads((run / "report.json").read_text())["bounds"]["reports"]
    if not reports:
        return "no bound reports"
    for name, r in reports.items():
        premises_ok = all(v is True for v in r["premises"].values())
        if r["value"] is None or r["measured"] is None or not premises_ok:
            want = "vacuous"
        else:
            value, measured = float(r["value"]), float(r["measured"])
            ok = measured >= value if name in LOWER_BOUNDS else measured <= value
            want = "holds" if ok else "violated"
        if r["holds"] != want:
            return f"{name}: verdict {r['holds']!r}, premises and numbers say {want!r}"
    return None


def sweep_row(row: dict, value: int, seed: int):
    if row.get("status") != "ok":
        return f"member value={value} seed={seed}: status {row.get('status')!r}"
    for col in SWEEP_COLUMNS[3:]:
        cell = row.get(col, "")
        if cell == "" and col not in SWEEP_REQUIRED:
            continue
        try:
            ok = math.isfinite(float(cell))
        except ValueError:
            ok = False
        if not ok:
            return f"member value={value} seed={seed}: {col}={cell!r}"
    return None


def sweep_rows(path: Path, values: list, seeds: list) -> list:
    """One (label, reason) per expected member, in order, plus the header."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [("sweep.csv", f"unreadable: {exc}")]
    out = [("sweep.csv header",
            None if header == SWEEP_COLUMNS else f"header {header}")]
    by_key = {(r.get("value"), r.get("seed")): r for r in rows}
    if len(rows) != len(values) * len(seeds):
        out.append(("sweep.csv rows", f"{len(rows)} rows for "
                    f"{len(values) * len(seeds)} members"))
    for v in values:
        for s in seeds:
            row = by_key.get((str(v), str(s)))
            out.append((f"sweep member {v}/{s}",
                        "missing row" if row is None else sweep_row(row, v, s)))
    return out


def verify_output(stdout: str):
    lines = stdout.splitlines()
    checks = [ln for ln in lines if "  PASS  " in ln or "  FAIL  " in ln]
    if not checks:
        return "no check rows"
    failed = [ln.split("  ")[0] for ln in checks if "  FAIL  " in ln]
    if failed:
        return f"failed checks: {failed}"
    if not lines or lines[-1] != "all checks passed":
        return f"last line {lines[-1] if lines else ''!r}"
    return None


def same_files(a: Path, b: Path):
    """None when directories a and b hold byte-identical files."""
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if fa != fb:
        return f"file sets differ: {sorted(set(map(str, fa)) ^ set(map(str, fb)))}"
    diff = [str(p) for p in fa if not filecmp.cmp(a / p, b / p, shallow=False)]
    return f"files differ: {diff}" if diff else None
