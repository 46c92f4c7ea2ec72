"""Smoke test of the benchmark harness on one tiny system.

    python3 -m pytest perfbench/test_smoke.py -q

Kept beside the benchmark, outside the repository's test suite.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import ximargin  # noqa: E402
from ximargin.generate import oracle_suite, random_system  # noqa: E402
from ximargin.systems import TimeDomain  # noqa: E402

NAME, TINY = oracle_suite()[0]
# margin at the bracket end, where MP's first-step backoff misses it
EDGE = random_system(2, 1, TimeDomain.CONTINUOUS, seed=5, margin=0.2)


def _measurement(algorithms, tracer=None, system=TINY, ref=None):
    ref = workloads.load_refs("suite")[NAME] if ref is None else ref
    return run.Measurement([("tiny", system)], algorithms, {"tiny": ref},
                           run.Solver(ximargin, workloads), workloads.within_tolerance, tracer)


def test_pass_times_and_checks_every_solve():
    meas = _measurement(("hec", "mp", "bisection"))
    wall, pencils = meas.run_pass()
    assert wall > 0.0 and meas.attempted == 3 and meas.failures == []
    assert all(pencils[alg] >= 1 for alg in ("hec", "mp", "bisection"))
    timing = meas.timing_metrics()
    assert timing["samples"] == 3 and timing["per_s"] > 0.0
    assert 0.0 < timing["ms_geomean"] <= 1e3 * max(max(s) for s in meas.samples.values())


def test_mp_bracket_end_miss_counts_as_failure():
    meas = _measurement(("hec", "mp"), system=EDGE,
                        ref=ximargin.compute_xi_bisection(EDGE).xi)
    meas.run_pass()
    assert [f["algorithm"] for f in meas.failures] == ["mp"]


def test_trace_counts_match_solver_counts_and_uninstall_restores():
    original = ximargin.drivers.gamma
    tracer = layers.Tracer()
    meas = _measurement(("hec", "mp"), tracer)
    with tracer.recording_into(layers.Recording("pass1")) as rec:
        _, pencils = meas.run_pass()
    assert ximargin.drivers.gamma is original
    assert "ximargin.drivers:gamma" in tracer.wrapped
    metrics = layers.layer_metrics(rec)
    expected = set(run.metric_units("per_layer"))
    assert set(metrics) | {"generate.system_s", "trace.overhead"} == expected
    assert metrics["pencils.qz_calls"] == pencils["hec"] + pencils["mp"]
    assert layers.qz_calls_by_owner(rec) == {0: pencils["hec"], 1: pencils["mp"]}
    assert metrics["hec.pseudoroots"] >= 1 and metrics["evaluation.calls"] > 0
    a = rec.arrays()
    assert np.all(a["end"] >= a["start"]) and np.all(a["parent"] < np.arange(len(rec)))


def test_seed_zero_is_oracle_suite_and_other_seeds_keep_structure():
    base = oracle_suite()
    for (name, s), (name0, s0) in zip(workloads.inputs("suite", 0), base):
        assert name == name0
        assert all(np.array_equal(getattr(s, k), getattr(s0, k)) for k in "ABCD")
    moved = workloads.inputs("suite", 1)
    for (_, s), (_, s0) in zip(moved, base):
        assert (s.n, s.m, s.domain, s.is_real) == (s0.n, s0.m, s0.domain, s0.is_real)
        for k in "ABCD":
            assert np.array_equal(np.abs(getattr(s, k)), np.abs(getattr(s0, k)))
    assert any(not np.array_equal(s.A, s0.A) for (_, s), (_, s0) in zip(moved, base))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout
