import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(ROOT / "tools"))  # same_outputs imports bench_pairs by name

import same_outputs  # noqa: E402


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_one_differing_byte_is_reported_with_its_file_and_line(tmp_path):
    files = {"cmd0.exit": b"0\n", "run/report.json": b'{\n "a": 1,\n "b": 2.5\n}\n',
             "run/metrics.csv": b"step,c0\n0,1.0\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", {**files, "run/metrics.csv": b"step,c0\n0,1.5\n"})
    assert same_outputs.first_difference(a, a) is None
    assert same_outputs.first_difference(a, b) == "run/metrics.csv line 2"
    (b / "run" / "extra.csv").write_bytes(b"")
    assert same_outputs.first_difference(a, b) == "run/extra.csv: on one side only"


def _report(margin: bool, holds: str = "holds", value: float = 1.0) -> bytes:
    rep = {"holds": holds, "value": value, **({"margin": 0.5} if margin else {})}
    return json.dumps({"bounds": {"reports": {"thm1_nc1": rep}, "order": [1, 2]}},
                      indent=2, sort_keys=True).encode()


def test_a_json_file_is_reported_with_its_first_differing_key(tmp_path):
    a = _tree(tmp_path / "a", {"run/report.json": _report(margin=False)})
    b = _tree(tmp_path / "b", {"run/report.json": _report(margin=True)})
    assert same_outputs.first_difference(a, b) == \
        "run/report.json key bounds/reports/thm1_nc1/margin: on one side only"
    (b / "run" / "report.json").write_bytes(_report(margin=False, holds="violated"))
    assert same_outputs.first_difference(a, b) == "run/report.json key bounds/reports/thm1_nc1/holds"
    # an int where a float was is a difference, though 1 == 1.0
    (b / "run" / "report.json").write_bytes(_report(margin=False, value=1))
    assert same_outputs.first_difference(a, b) == "run/report.json key bounds/reports/thm1_nc1/value"
    (b / "run" / "report.json").write_bytes(_report(margin=False).replace(b"2\n", b"2,\n 3\n"))
    assert same_outputs.first_difference(a, b) == "run/report.json key bounds/order/2: on one side only"


def test_json_that_parses_equal_or_not_at_all_falls_back_to_the_line(tmp_path):
    a = _tree(tmp_path / "a", {"x.json": b'{"a": 2.5}\n', "y.json": b"{not json\n"})
    b = _tree(tmp_path / "b", {"x.json": b'{"a": 2.50}\n', "y.json": b"{not json\n"})
    assert same_outputs.first_difference(a, b) == "x.json line 1"
    (b / "x.json").write_bytes(b'{"a": 2.5}\n')
    (b / "y.json").write_bytes(b"{still not json\n")
    assert same_outputs.first_difference(a, b) == "y.json line 1"


def test_verify_timings_are_masked_in_stdout_only(tmp_path):
    a = _tree(tmp_path / "a", {"cmd0.stdout": b"svd reconstruction  ok  (0.01s)\n"
                                              b"all checks passed\n"})
    b = _tree(tmp_path / "b", {"cmd0.stdout": b"svd reconstruction  ok  (12.37s)\n"
                                              b"all checks passed\n"})
    assert same_outputs.first_difference(a, b) is None
    (a / "note.txt").write_bytes(b"(0.01s)\n")
    (b / "note.txt").write_bytes(b"(0.02s)\n")
    assert same_outputs.first_difference(a, b) == "note.txt line 1"


def test_sequences_follow_the_benchmark_configs():
    workloads, sweep_values = same_outputs.benchmark_inputs(ROOT)
    seqs = same_outputs.sequences(workloads, sweep_values, [0, 3])
    assert [name for name, _, _ in seqs] == [
        "pyramidal-seed0", "wide-seed0", "depth_sweep-seed0", "pyramidal-seed3",
        "wide-seed3", "depth_sweep-seed3", "verify_full"]
    by_name = {name: (cfg, commands) for name, cfg, commands in seqs}
    assert by_name["wide-seed3"][0] == workloads["wide"]((3, 4))
    sweep = by_name["depth_sweep-seed0"][1][0]
    assert sweep[sweep.index("--values") + 1] == ",".join(map(str, sweep_values))
    assert by_name["verify_full"] == (None, [["verify", "--level", "full"]])
