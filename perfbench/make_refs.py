"""Compute and store the reference margins the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_refs.py [--check-seeds 1 2 3]

Writes ``refs/suite.json`` (grid oracle on ``oracle_suite()``, used by the
``suite`` and ``oracle`` workloads) and ``refs/ladder.json`` (bisection on
the ladder's base draws).  With ``--check-seeds`` it instead recomputes the
references on the coordinate-changed inputs of those seeds and prints their
largest deviation from the stored ones, which is what justifies using the
stored references at every seed.
"""

from __future__ import annotations

import argparse
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from ximargin.baselines import compute_xi_bisection, oracle_xi  # noqa: E402

import workloads  # noqa: E402


def reference(workload: str, system) -> float:
    if workload == "ladder":
        return compute_xi_bisection(system).xi
    return oracle_xi(system, grid_size=workloads.ORACLE_GRID, tol=workloads.ORACLE_TOL)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args()
    for workload in ("suite", "ladder"):
        if args.check_seeds:
            stored = workloads.load_refs(workload)
            for seed in args.check_seeds:
                worst = max(
                    abs(reference(workload, system) - stored[name]) / max(abs(stored[name]), 1e-6)
                    for name, system in workloads.inputs(workload, seed)
                )
                print(f"{workload} seed {seed}: largest relative deviation {worst:.2e}")
            continue
        rows = [{"name": name, "xi": reference(workload, system)}
                for name, system in workloads.inputs(workload, 0)]
        payload = {"algorithm": workloads.REFERENCE[workload], "systems": rows}
        if workload != "ladder":
            payload["grid_size"] = workloads.ORACLE_GRID
            payload["tol"] = workloads.ORACLE_TOL
        path = workloads.refs_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path} ({len(rows)} systems)")


if __name__ == "__main__":
    main()
