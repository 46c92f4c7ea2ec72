import os

# one BLAS thread, as perfbench/run.py uses; must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import pytest  # noqa: E402

from ximargin.baselines import compute_xi_bisection, compute_xi_mp, oracle_xi  # noqa: E402
from ximargin.drivers import XiResult, compute_xi_cont, compute_xi_disc  # noqa: E402
from ximargin.generate import oracle_suite  # noqa: E402
from ximargin.systems import StateSpaceSystem, TimeDomain, Tolerances  # noqa: E402


@dataclass(frozen=True)
class SuiteRow:
    name: str
    system: StateSpaceSystem
    hec: XiResult
    mp: XiResult
    bisection: XiResult
    oracle: float


@pytest.fixture(scope="session")
def suite_results():
    """All four algorithms over the fixed cross-validation suite.

    ``oracle_equiv_seconds`` tracks just the solver+oracle runtime that the
    oracle-equivalence acceptance criterion budgets.
    """
    tol = Tolerances()
    rows = []
    core_elapsed = 0.0
    for name, system in oracle_suite():
        run = compute_xi_cont if system.domain is TimeDomain.CONTINUOUS else compute_xi_disc
        t0 = time.perf_counter()
        hec = run(system, tol=tol)
        orc = oracle_xi(system, grid_size=100_000, tol=1e-10)
        core_elapsed += time.perf_counter() - t0
        mp = compute_xi_mp(system, tol=tol)
        bis = compute_xi_bisection(system, tol=tol)
        rows.append(SuiteRow(name, system, hec, mp, bis, orc))
    return {"rows": rows, "oracle_equiv_seconds": core_elapsed}
