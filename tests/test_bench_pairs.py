"""``tools/bench_pairs.py`` on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

PARENT_MS = [10.0, 10.4, 9.6, 11.0, 10.2, 9.8, 10.6, 10.1, 9.9, 10.3]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ms, rate=60.0, setup=1.0, rss=100.0, failed=0):
    metrics = {"setup_s": setup, "margin_ms_geomean": ms, "margins_per_s": rate,
               "peak_rss_mb": rss}
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def judge(tool, capsys, tmp_path, parent, change, claim="margin_ms_geomean"):
    for name, runs in (("parent.jsonl", parent), ("change.jsonl", change)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in runs))
    code = tool.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"),
                      "--claim", claim])
    return code, capsys.readouterr().out


def test_clear_win_holds(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    change = [run(0.6 * ms, rate=100.0) for ms in PARENT_MS]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 0, out
    assert "change won 10/10" in out and "claim holds" in out and out.endswith("PASS\n")


def test_eight_of_ten_fails(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    # a large median gain, but two pairs lost
    change = [run(0.5 * ms if i < 8 else 1.2 * ms) for i, ms in enumerate(PARENT_MS)]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 1
    assert "change won 8/10" in out and "claim FAILS" in out


def test_small_gain_inside_parent_spread_fails(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    change = [run(ms - 0.05) for ms in PARENT_MS]  # wins every pair by less than the IQR
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 1 and "change won 10/10" in out and "claim FAILS" in out


def test_metric_outside_its_bound_fails(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    # a clear win on the claim, but peak RSS up 20% against a 10% bound
    change = [run(0.6 * ms, rss=120.0) for ms in PARENT_MS]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 1
    assert "claim holds" in out
    rss_line = out.index("peak_rss_mb")
    assert "OUTSIDE its bound" in out[rss_line:] and out.endswith("FAIL\n")


# setup times that swing by about 60% on the same code: their IQR (0.6 s) is wider than
# the 25% bound's allowance on a 1 s median
WIDE_SETUP = [0.6, 1.4, 0.7, 1.3, 1.0, 0.5, 1.5, 0.8, 1.2, 1.0]


def test_wide_spread_is_unresolved(tool, capsys, tmp_path):
    parent = [run(ms, setup=s) for ms, s in zip(PARENT_MS, WIDE_SETUP)]
    # the median barely moves, so a median-only test would call it within bounds
    change = [run(0.6 * ms, setup=s) for ms, s in zip(PARENT_MS, reversed(WIDE_SETUP))]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 2, out
    assert "claim holds" in out
    setup_line = out[out.index("setup_s"):out.index("margin_ms_geomean")]
    assert "unresolved" in setup_line
    assert "PASS" not in out and out.endswith("UNRESOLVED\n")


def test_wide_spread_resolved_when_every_run_wins(tool, capsys, tmp_path):
    parent = [run(ms, setup=s) for ms, s in zip(PARENT_MS, WIDE_SETUP)]
    change = [run(0.6 * ms, setup=0.1 * s) for ms, s in zip(PARENT_MS, WIDE_SETUP)]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 0 and "unresolved" not in out and out.endswith("PASS\n"), out


def test_more_failures_fail(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    change = [run(0.6 * ms, failed=1 if i == 3 else 0) for i, ms in enumerate(PARENT_MS)]
    code, out = judge(tool, capsys, tmp_path, parent, change)
    assert code == 1 and "MORE operations failed" in out


def test_unknown_claim_and_unpaired_runs_fail(tool, capsys, tmp_path):
    parent = [run(ms) for ms in PARENT_MS]
    code, out = judge(tool, capsys, tmp_path, parent, parent, claim="qz_calls")
    assert code == 1 and "no end-to-end metric" in out
    code, out = judge(tool, capsys, tmp_path, parent, parent[:9])
    assert code == 1 and "same number of runs" in out
