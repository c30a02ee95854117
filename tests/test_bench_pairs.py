import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_spread():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    c = bench_pairs.compare(parent, [p - 1.0 for p in parent], 0.25, True)
    assert (c["change_wins"], c["parent_wins"]) == (10, 0)
    assert c["verdict"] == "improved (gain rule met)"
    assert c["parent"]["q1"] <= c["parent"]["median"] <= c["parent"]["q3"]
    # one pair lost in ten: the 9/10 rule still holds
    change = [p - 1.0 for p in parent[:9]] + [parent[9] + 1.0]
    assert bench_pairs.compare(parent, change, 0.25, True)["verdict"] \
        == "improved (gain rule met)"
    # a gap inside the parent's quartile distance is no gain
    c = bench_pairs.compare(parent, [p - 0.05 for p in parent], 0.25, True)
    assert c["change_wins"] == 10 and c["verdict"] == "no regression beyond bound"


@pytest.mark.parametrize("lower_is_better", [True, False])
def test_regression_and_unresolved_verdicts(lower_is_better):
    worse = 1.5 if lower_is_better else 0.5
    parent = [1.0, 1.01, 0.99, 1.0]
    assert bench_pairs.compare(parent, [p * worse for p in parent], 0.25,
                               lower_is_better)["verdict"] == "regression beyond bound"
    wide = [0.5, 1.0, 1.5, 2.0]
    c = bench_pairs.compare(wide, [1.0, 1.1, 1.2, 1.3], 0.25, lower_is_better)
    assert c["verdict"] == "unresolved (spread wider than bound)"


def test_both_sides_run_from_copies_without_cached_bytecode(tmp_path, monkeypatch):
    # the change is copied as git sees the working tree, so neither side
    # starts with bytecode that the other has to compile
    repo = tmp_path / "repo"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("a = 1\n")
    (repo / "src" / "gone.py").write_text("b = 1\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "parent")
    (repo / "src" / "kept.py").write_text("a = 2\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("c = 3\n")
    (repo / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"cached")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.export("HEAD", tmp_path / "parent")
    bench_pairs.export_worktree(tmp_path / "change")

    def files(tree):
        return sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file())

    assert files(tmp_path / "parent") == [".gitignore", "src/gone.py", "src/kept.py"]
    assert files(tmp_path / "change") == [".gitignore", "src/kept.py", "src/new.py"]
    assert (tmp_path / "change" / "src" / "kept.py").read_text() == "a = 2\n"


def _result(value, correct=True, failed=0):
    metrics = {"a.s": value, "b.calls": 2 * value, "time_to_verdict_s": value,
               "setup_s": value, "peak_rss_mb": value}
    return {"metrics": {k: {"value": v} for k, v in metrics.items()},
            "correct": correct, "failed": failed, "attempted": 4, "environment": None}


def test_traced_runs_keep_every_sample_and_their_median():
    runs = {"parent": [_result(3.0), _result(1.0), _result(2.0)],
            "change": [_result(0.5), _result(0.7, correct=False, failed=1), _result(0.6)]}
    entry = bench_pairs.traced_entry(runs, [7, 8, 9])
    assert entry["seeds"] == [7, 8, 9]
    assert entry["parent"]["metrics"]["a.s"] == {"median": 2.0, "samples": [3.0, 1.0, 2.0]}
    assert entry["parent"]["metrics"]["b.calls"]["median"] == 4.0
    assert entry["change"]["metrics"]["a.s"] == {"median": 0.6, "samples": [0.5, 0.7, 0.6]}
    assert (entry["parent"]["correct"], entry["parent"]["failed"]) == (True, 0)
    assert (entry["change"]["correct"], entry["change"]["failed"]) == (False, 1)


def test_trace_seed_alternates_three_traced_runs_per_side(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed, trace))
        return _result(1.0 if tree.name == "parent" else 0.5)

    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: "abc123")
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD", "--out", str(out),
                                      "--workloads", "wide", "--seed0", "10",
                                      "--trace-seed", "40", "--workdir", str(tmp_path)])
    assert bench_pairs.main() == 0
    traced = [c for c in calls if c[3] == 1]
    assert traced == [("parent", "wide", 40, 1), ("change", "wide", 40, 1),
                      ("change", "wide", 41, 1), ("parent", "wide", 41, 1),
                      ("parent", "wide", 42, 1), ("change", "wide", 42, 1)]
    written = json.loads(out.read_text())["traced"]["wide"]
    assert written["seeds"] == [40, 41, 42]
    assert written["change"]["metrics"]["a.s"] == {"median": 0.5, "samples": [0.5] * 3}
    progress = capsys.readouterr().out.splitlines()
    assert progress[0] == ("wide pair 0: time_to_verdict_s parent 1.000 change 0.500, "
                           "setup_s parent 1.000 change 0.500")


def _fake_main(tmp_path, monkeypatch, workdir):
    exported = []
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: exported.append(dest) or "abc")
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda dest: exported.append(dest))
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: _result(1.0))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD", "--out",
                                      str(tmp_path / "BENCH.json"), "--workloads", "wide",
                                      "--seed0", "1", "--workdir", str(workdir)])
    return bench_pairs.main(), exported


def test_a_missing_workdir_is_created(tmp_path, monkeypatch, capsys):
    workdir = tmp_path / "new" / "work"
    code, exported = _fake_main(tmp_path, monkeypatch, workdir)
    assert code == 0 and workdir.is_dir()
    assert [p.parent.parent for p in exported] == [workdir, workdir]
    assert list(workdir.iterdir()) == []  # the run's own directory is removed


def test_a_workdir_that_cannot_be_made_is_refused_with_one_line(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, exported = _fake_main(tmp_path, monkeypatch, blocker / "work")
    assert code == 2 and exported == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"bench_pairs: cannot use --workdir {blocker}")
    assert not (tmp_path / "BENCH.json").exists()
