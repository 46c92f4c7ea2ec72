"""Write a digest of solver behaviour on the benchmark inputs, for diffing.

Usage, from any directory:

    python3 tools/behaviour_digest.py OUT.json

Runs every pencil-based algorithm of the ``suite`` workload at seeds 0-3
(hec, mp, bisection) and of the ``ladder`` workload at seed 0 (hec, mp),
300 runs in all, and the grid oracle on the ``oracle`` workload at seed 0
(24 runs), through ``perfbench/workloads.py`` and the library in ``src/`` of
the same checkout.  For each pencil-based run it records the repr of the
estimate, the certificate, the pencil and small solve counts, the iterates
and the pseudoroots' (eps, x); for each oracle run, ``oracle_xi`` as
``float.hex``; for either, the error a run raised.  Timings are left out,
so the file is byte-identical between two checkouts exactly when their
behaviour is: ``cmp before.json after.json``.

When they are not, compare them field by field:

    python3 tools/behaviour_digest.py --compare BEFORE.json AFTER.json

prints how many runs differ in each field (and which; for the solve counts,
how many rose and how many fell instead), the worst relative change of
``xi``, every certificate or error that changed, and the per-workload,
per-algorithm totals of the solve counts.  It exits 1 when a certificate or
an error differs, when a run is missing from either file, or when an ``xi``
moves by more than 1e-15*(1 + |xi|) (ROADMAP north-star 2's gate), and 0
otherwise.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py uses; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from ximargin.baselines import compute_xi_bisection, compute_xi_mp, oracle_xi  # noqa: E402
from ximargin.drivers import compute_xi_cont, compute_xi_disc  # noqa: E402

RUNS = [("suite", seed, ("hec", "mp", "bisection")) for seed in range(4)]
RUNS.append(("ladder", 0, ("hec", "mp")))
RUNS.append(("oracle", 0, ("oracle",)))


def _solve(algorithm: str, system):
    if algorithm == "hec":
        return (compute_xi_cont if system.is_continuous else compute_xi_disc)(system)
    if algorithm == "mp":
        return compute_xi_mp(system)
    return compute_xi_bisection(system)


def digest(algorithm: str, system) -> dict:
    """The timing-free record of one run."""
    try:
        if algorithm == "oracle":
            return {"xi": oracle_xi(system, workloads.ORACLE_GRID, workloads.ORACLE_TOL).hex()}
        res = _solve(algorithm, system)
    except Exception as exc:  # a failure is behaviour too
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "xi": repr(res.xi),
        "certificate": None if res.certificate is None else res.certificate.value,
        "pencil_solves": res.eig_counts.pencil_solves,
        "small_solves": res.eig_counts.small_solves,
        "iterates": [[repr(e), repr(w)] for e, w in res.iterates],
        "pseudoroots": [[repr(p.eps), repr(p.x)] for p in res.pseudoroots],
    }


XI_GATE = 1e-15
KEY = ("workload", "seed", "system", "algorithm")
COUNTS = ("pencil_solves", "small_solves")
GATED = ("certificate", "error")


def _run_id(row: dict) -> str:
    return "/".join(str(row[k]) for k in KEY)


def _xi(value: str) -> float:
    """An estimate as recorded: repr for pencil-based runs, float.hex for the oracle."""
    return float.fromhex(value) if "0x" in value else float(value)


def compare(before: list[dict], after: list[dict]) -> int:
    """Print how two digests differ; 1 if they differ beyond the gate, else 0."""
    old = {_run_id(row): row for row in before}
    new = {_run_id(row): row for row in after}
    failed = False
    for run in sorted(old.keys() ^ new.keys()):
        print(f"run only in {'before' if run in old else 'after'}: {run}")
        failed = True
    runs = [run for run in old if run in new]
    fields = sorted({f for run in runs for f in (*old[run], *new[run])} - set(KEY))
    for field in fields:
        differ = [run for run in runs if old[run].get(field) != new[run].get(field)]
        line = f"{field}: {len(differ)} of {len(runs)} runs differ"
        if field in COUNTS:
            rose = sum(new[run].get(field, 0) > old[run].get(field, 0) for run in differ)
            print(f"{line} ({rose} rose, {len(differ) - rose} fell)")
            continue
        print(line)
        for run in differ:
            if field in GATED:
                print(f"  {run}: {old[run].get(field)} -> {new[run].get(field)}")
                failed = True
            else:
                print(f"  {run}")
    moves = []
    for run in runs:
        a, b = old[run].get("xi"), new[run].get("xi")
        if a is not None and b is not None:
            moves.append((abs(_xi(a) - _xi(b)) / (1.0 + abs(_xi(a))), run))
    if moves:
        worst, run = max(moves)
        print(f"worst xi change: {worst:.3g}*(1 + |xi|) on {run}")
        failed = failed or worst > XI_GATE
    totals: dict[str, list[int]] = {}
    for run in runs:
        for field in COUNTS:
            if field in old[run] and field in new[run]:
                label = f"{old[run]['workload']} {old[run]['algorithm']} {field}"
                total = totals.setdefault(label, [0, 0])
                total[0] += old[run][field]
                total[1] += new[run][field]
    for label, (a, b) in sorted(totals.items()):
        print(f"{label}: {a} -> {b}")
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        before, after = (json.loads(Path(p).read_text()) for p in argv[1:])
        return compare(before, after)
    if len(argv) != 1:
        sys.stderr.write("usage: behaviour_digest.py OUT.json\n"
                         "       behaviour_digest.py --compare BEFORE.json AFTER.json\n")
        return 64
    rows = []
    for workload, seed, algorithms in RUNS:
        for name, system in workloads.inputs(workload, seed):
            for algorithm in algorithms:
                row = {"workload": workload, "seed": seed, "system": name,
                       "algorithm": algorithm}
                row.update(digest(algorithm, system))
                rows.append(row)
    Path(argv[0]).write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} runs -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
