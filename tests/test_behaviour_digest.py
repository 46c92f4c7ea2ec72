"""``tools/behaviour_digest.py --compare`` on two hand-written digests."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "behaviour_digest.py"

BEFORE = [
    {"workload": "suite", "seed": 0, "system": "disc-n2-m1-real", "algorithm": "hec",
     "xi": repr(0.5), "certificate": "no-negative-region", "pencil_solves": 2,
     "small_solves": 10, "iterates": [["0.5", "1.25"]], "pseudoroots": [["0.5", "1.25"]]},
    {"workload": "suite", "seed": 1, "system": "disc-n2-m1-real", "algorithm": "hec",
     "xi": repr(0.5), "certificate": "no-negative-region", "pencil_solves": 3,
     "small_solves": 20, "iterates": [["0.5", "1.25"]], "pseudoroots": [["0.5", "1.25"]]},
    {"workload": "oracle", "seed": 0, "system": "disc-n2-m1-real", "algorithm": "oracle",
     "xi": (0.25).hex()},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("behaviour_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(tool, capsys, tmp_path, after):
    for name, rows in (("before.json", BEFORE), ("after.json", after)):
        (tmp_path / name).write_text(json.dumps(rows))
    code = tool.main(["--compare", str(tmp_path / "before.json"), str(tmp_path / "after.json")])
    return code, capsys.readouterr().out


def test_counts_and_iterates_may_move(tool, capsys, tmp_path):
    after = copy.deepcopy(BEFORE)
    after[0]["small_solves"] = 7
    after[0]["iterates"] = [["0.5", "1.2500000000000002"]]
    after[2]["xi"] = (0.25 + 2.0 ** -54).hex()  # one ulp: inside the gate
    code, out = compare(tool, capsys, tmp_path, after)
    assert code == 0, out
    assert "iterates: 1 of 3 runs differ\n  suite/0/disc-n2-m1-real/hec\n" in out
    assert "small_solves: 1 of 3 runs differ (0 rose, 1 fell)\n" in out
    assert "pencil_solves: 0 of 3 runs differ (0 rose, 0 fell)\n" in out
    assert "xi: 1 of 3 runs differ (1 rose, 0 fell)\n  oracle/0/disc-n2-m1-real/oracle\n" in out
    assert "worst xi change: 4.44e-17*(1 + |xi|) on oracle/0/disc-n2-m1-real/oracle" in out
    assert "suite hec small_solves: 30 -> 27" in out
    assert "suite hec pencil_solves: 5 -> 5" in out
    assert out.endswith("PASS\n")


def test_counts_that_rose_and_fell(tool, capsys, tmp_path):
    after = copy.deepcopy(BEFORE)
    after[0]["small_solves"] = 11
    after[1]["small_solves"] = 19
    after[1]["pencil_solves"] = 4
    code, out = compare(tool, capsys, tmp_path, after)
    assert code == 0, out
    assert "small_solves: 2 of 3 runs differ (1 rose, 1 fell)\n" in out
    assert "pencil_solves: 1 of 3 runs differ (1 rose, 0 fell)\n" in out
    assert "suite hec small_solves: 30 -> 30" in out


def test_xi_that_rose_and_fell(tool, capsys, tmp_path):
    after = copy.deepcopy(BEFORE)
    after[0]["xi"] = repr(0.5 - 2.0 ** -54)  # repr, one ulp down
    after[2]["xi"] = (0.25 + 2.0 ** -54).hex()  # float.hex, one ulp up
    code, out = compare(tool, capsys, tmp_path, after)
    assert code == 0, out
    assert "xi: 2 of 3 runs differ (1 rose, 1 fell)\n" in out


def test_restarts_counted_from_iterates(tool, capsys, tmp_path):
    after = copy.deepcopy(BEFORE)
    after[0]["iterates"] = []
    after[1]["iterates"] += [["0.4", "1.25"], ["0.3", "1.25"]]
    code, out = compare(tool, capsys, tmp_path, after)
    assert code == 0, out
    assert "restarts: 2 of 3 runs differ (1 rose, 1 fell)\n" in out
    assert "suite hec restarts: 2 -> 3" in out
    assert "oracle oracle restarts" not in out


@pytest.mark.parametrize("field, value", [
    ("xi", repr(0.5 + 1e-14)),
    ("certificate", "bracket-degenerate"),
    ("error", "ConvergenceError: estimate still moving after 50 restarts"),
])
def test_gate_fails(tool, capsys, tmp_path, field, value):
    after = copy.deepcopy(BEFORE)
    after[1][field] = value
    code, out = compare(tool, capsys, tmp_path, after)
    assert code == 1
    assert out.endswith("FAIL\n")
    if field != "xi":
        assert f"  suite/1/disc-n2-m1-real/hec: {BEFORE[1].get(field)} -> {value}\n" in out


def test_missing_run_fails(tool, capsys, tmp_path):
    code, out = compare(tool, capsys, tmp_path, BEFORE[:2])
    assert code == 1
    assert "run only in before: oracle/0/disc-n2-m1-real/oracle" in out
