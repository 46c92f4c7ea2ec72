"""Run one workload of the ximargin benchmark and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
The loop is closed and single-process: one margin is computed at a time,
each call after the previous one returns, with BLAS pinned to one thread.
Every result is checked against a stored reference (``refs/``) that the
timed algorithms do not compute.

``--trace 0`` measures for ``--seconds``: passes over every (system,
algorithm) pair, at least one whole pass, the last one cut at the deadline;
it reports the end-to-end metrics.  The set-ups behind ``setup_s`` are
spread evenly over that window, which pauses while they run.  ``--trace 1``
runs untraced, traced, traced and untraced passes and reports the per-layer
metrics derived from the spans of the first traced pass; the counts of the
two traced passes must agree exactly.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric, per
algorithm too, with its unit.  A result file with the machine and code
description goes to ``results/`` next to this script.  It also records the
rate of a fixed pure-Python loop, timed at the start, at every set-up and at
the end, so that a comparison of two runs can tell a change in the machine's
speed from a change in the code; the metrics are never rescaled by it.
"""

from __future__ import annotations

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("suite", "ladder", "oracle")
SETUP_REPEATS = {"suite": 15, "ladder": 5, "oracle": 15}
GAUGE_SECONDS = 0.2
TRACED_PASSES = 2
P90_MIN_SAMPLES = 100

# one set-up, timed inside a fresh interpreter so that the import is paid again
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import ximargin
import workloads
workloads.inputs(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def reference_loop_rate(seconds: float = GAUGE_SECONDS) -> float:
    """Iterations per second of a fixed pure-Python loop over ``seconds``:
    a gauge of the machine's speed at that moment."""
    n = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        n += 1
    return n / elapsed


def _blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counts = {}
    for path in sorted(p for p in paths if os.path.isfile(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = int(fn())
                break
    return counts


def machine_and_code(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


class Solver:
    """Calls one algorithm through the library's module attributes, so the
    per-layer wrappers see the call when they are installed."""

    def __init__(self, ximargin, workloads):
        self.drivers = ximargin.drivers
        self.baselines = ximargin.baselines
        self.workloads = workloads

    def __call__(self, algorithm: str, system):
        """Return (xi, pencil solves or None)."""
        if algorithm == "oracle":
            xi = self.baselines.oracle_xi(system, grid_size=self.workloads.ORACLE_GRID,
                                          tol=self.workloads.ORACLE_TOL)
            return float(xi), None
        if algorithm == "hec":
            fn = (self.drivers.compute_xi_cont if system.is_continuous
                  else self.drivers.compute_xi_disc)
        elif algorithm == "mp":
            fn = self.baselines.compute_xi_mp
        else:
            fn = self.baselines.compute_xi_bisection
        res = fn(system)
        return float(res.xi), res.eig_counts.pencil_solves


class Measurement:
    """Per-call wall times and correctness of every (system, algorithm) pair."""

    def __init__(self, systems, algorithms, refs, solve, check, tracer=None):
        self.systems = systems
        self.algorithms = algorithms
        self.refs = refs
        self.solve = solve
        self.check = check
        self.tracer = tracer
        self.samples = {(name, alg): [] for name, _ in systems for alg in algorithms}
        self.failures: list[dict] = []
        self.attempted = 0

    def run_pass(self, stop: Callable[[], bool] | None = None) -> tuple[float, dict[str, int]]:
        """Solve every system with every algorithm once, stopping early when
        ``stop()`` (asked before each solve) returns true; return the pass
        wall time and the summed pencil solves per algorithm."""
        pencils = {alg: 0 for alg in self.algorithms}
        t_pass = time.perf_counter()
        for name, system in self.systems:
            ref = self.refs[name]
            for owner, alg in enumerate(self.algorithms):
                if stop is not None and stop():
                    return time.perf_counter() - t_pass, pencils
                if self.tracer is not None:
                    self.tracer.owner = owner
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    xi, solves = self.solve(alg, system)
                except Exception as exc:  # a solver failure is a result, not a crash
                    self.samples[(name, alg)].append(time.perf_counter() - t0)
                    self.failures.append({"system": name, "algorithm": alg,
                                          "error": f"{type(exc).__name__}: {exc}"})
                    continue
                self.samples[(name, alg)].append(time.perf_counter() - t0)
                pencils[alg] += solves or 0
                if not self.check(xi, ref):
                    self.failures.append({"system": name, "algorithm": alg,
                                          "xi": xi, "reference": ref})
        return time.perf_counter() - t_pass, pencils

    def timing_metrics(self, algorithms=None) -> dict[str, float]:
        """Per-call times over the given algorithms' (system, algorithm) pairs.

        Each pair is first reduced to its median call time.  ``ms_geomean``
        (geometric mean of those) weighs every pair equally, and
        ``per_s`` (pairs over their summed medians) weighs them by cost;
        ``ms_p50`` is the median pair and ``ms_p90`` the p90 of all calls,
        given only with enough calls."""
        algorithms = algorithms or self.algorithms
        pairs = [p for p in self.samples if p[1] in algorithms and self.samples[p]]
        times = [t for p in pairs for t in self.samples[p]]
        medians = [statistics.median(self.samples[p]) for p in pairs]
        out = {"ms_geomean": 1e3 * statistics.geometric_mean(medians),
               "ms_p50": 1e3 * statistics.median(medians), "samples": len(times),
               "per_s": len(pairs) / sum(medians)}
        if len(times) >= P90_MIN_SAMPLES:
            out["ms_p90"] = 1e3 * statistics.quantiles(times, n=10)[-1]
        return out


def setup_seconds(workload: str, seed: int) -> float:
    """Import ximargin and generate the workload's systems in a fresh
    interpreter (started and waited for); return the time that took."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", _SETUP_CODE, workload, str(seed)],
                         env=env, capture_output=True, text=True, check=True, timeout=150)
    return float(out.stdout.split()[-1])


class Window:
    """The measured ``seconds``, with ``repeats`` set-ups spread evenly over
    them.  The window pauses while a set-up runs, so solves keep the whole
    window, and each set-up is followed by a reading of the speed gauge."""

    def __init__(self, seconds: float, setup: Callable[[], float], repeats: int,
                 gauge: list[float]):
        self.seconds = seconds
        self.setup = setup
        self.repeats = repeats
        self.gauge = gauge
        self.setup_s: list[float] = []
        self.paused = 0.0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def due(self) -> bool:
        """Run every set-up whose slot has come; always false, so a pass
        given this as its ``stop`` runs whole."""
        while (len(self.setup_s) < self.repeats
               and self.elapsed() >= len(self.setup_s) * self.seconds / self.repeats):
            t0 = time.perf_counter()
            self.setup_s.append(self.setup())
            self.gauge.append(reference_loop_rate())
            self.paused += time.perf_counter() - t0
        return False

    def over(self) -> bool:
        self.due()
        return self.elapsed() >= self.seconds


def _print_table(rows: list[tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")


def _end_to_end_run(args, meas: Measurement, record: dict, gauge: list[float]):
    window = Window(args.seconds, lambda: setup_seconds(args.workload, args.seed),
                    SETUP_REPEATS[args.workload], gauge)

    def timed_pass(stop):
        """Wall time of one pass, set-ups left out."""
        paused = window.paused
        return meas.run_pass(stop)[0] - (window.paused - paused)

    passes = [timed_pass(window.due)]
    while not window.over():
        passes.append(timed_pass(window.over))
    overall = meas.timing_metrics()
    metrics = {
        "setup_s": statistics.median(window.setup_s),
        "margin_ms_geomean": overall["ms_geomean"],
        "margins_per_s": overall["per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = metric_units("end_to_end")
    table = [(k, metrics[k], units[k]) for k in units]
    table.append(("margin_ms_p50", overall["ms_p50"], "ms"))
    for alg in meas.algorithms:
        per = meas.timing_metrics((alg,))
        table += [(f"{alg}_ms_p50", per["ms_p50"], "ms"),
                  (f"{alg}_ms_geomean", per["ms_geomean"], "ms"),
                  (f"{alg}_per_s", per["per_s"], "1/s"),
                  (f"{alg}_solves", per["samples"], "count")]
        if "ms_p90" in per:
            table.append((f"{alg}_ms_p90", per["ms_p90"], "ms"))
    record.update(setup_s_each=window.setup_s, passes_s=passes)
    return metrics, units, table


def _layer_run(args, meas: Measurement, tracer, record: dict, problems: list[str]):
    """Untraced, traced, traced, untraced passes (so that a steady drift in
    machine speed cancels from the overhead); per-layer metrics come from the
    first traced pass."""
    import layers
    import workloads

    untraced = [meas.run_pass()[0]]
    recordings, traced = [], []
    for k in range(TRACED_PASSES):
        with tracer.recording_into(layers.Recording(f"pass{k + 1}")) as rec:
            wall, pencils = meas.run_pass()
        recordings.append(rec)
        traced.append(wall)
        by_owner = layers.qz_calls_by_owner(rec)
        for owner, alg in enumerate(meas.algorithms):
            if alg != "oracle" and by_owner.get(owner, 0) != pencils[alg]:
                problems.append(f"pass {k + 1}, {alg}: {by_owner.get(owner, 0)} QZ calls "
                                f"traced, {pencils[alg]} pencil solves reported")
    tracer.owner = -1
    untraced.append(meas.run_pass()[0])
    with tracer.recording_into(layers.Recording("setup")) as setup_rec:
        workloads.inputs(args.workload, args.seed)
    per_pass = [layers.layer_metrics(rec) for rec in recordings]
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"per-layer counts differ between traced passes: {counts}")
    metrics = per_pass[0]
    metrics["generate.system_s"] = (layers.top_level_seconds(setup_rec, "generate")
                                    / len(meas.systems))
    metrics["trace.overhead"] = sum(traced) / sum(untraced)
    units = metric_units("per_layer")
    table = [(k, metrics[k], units[k]) for k in units]
    record.update(untraced_passes_s=untraced, traced_passes_s=traced, wrapped=tracer.wrapped,
                  qz_calls_by_algorithm={alg: layers.qz_calls_by_owner(recordings[0]).get(i, 0)
                                         for i, alg in enumerate(meas.algorithms)},
                  shares_by_algorithm=layers.shares_by_owner(recordings[0], meas.algorithms))
    RESULTS.mkdir(exist_ok=True)
    layers.save_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz",
                      recordings + [setup_rec])
    return metrics, units, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ximargin benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ximargin" / "__init__.py").is_file():
        print(f"error: no ximargin sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    import ximargin

    systems = workloads.inputs(args.workload, args.seed)
    algorithms = workloads.ALGORITHMS[args.workload]
    refs = workloads.load_refs(args.workload)
    missing = [name for name, _ in systems if name not in refs]
    if missing:
        print(f"error: no stored reference for {missing}", file=sys.stderr)
        return 2
    tracer = layers.Tracer() if args.trace else None
    meas = Measurement(systems, algorithms, refs, Solver(ximargin, workloads),
                       workloads.within_tolerance, tracer)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine_and_code": machine_and_code(args.seed), "algorithms": algorithms,
              "reference": workloads.REFERENCE[args.workload], "systems": len(systems)}
    problems: list[str] = []
    gauge = [reference_loop_rate()]
    if args.trace:
        metrics, units, table = _layer_run(args, meas, tracer, record, problems)
    else:
        metrics, units, table = _end_to_end_run(args, meas, record, gauge)
    gauge.append(reference_loop_rate())

    failed = len(meas.failures)
    fail_rate = failed / meas.attempted
    table.append(("fail_rate", fail_rate, "ratio"))
    table.append(("reference_loop_per_s", statistics.median(gauge), "1/s"))
    record.update(reference_loop_per_s=gauge,
                  metrics={k: {"value": v, "unit": u} for k, v, u in table},
                  failures=meas.failures, problems=problems,
                  per_pair_median_s={f"{n}/{a}": statistics.median(s)
                                     for (n, a), s in meas.samples.items()})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(systems)} systems, "
          f"algorithms {', '.join(algorithms)}, reference {workloads.REFERENCE[args.workload]}")
    _print_table(table)
    for f in meas.failures:
        print(f"FAILED {f}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(f"result file {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": meas.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
