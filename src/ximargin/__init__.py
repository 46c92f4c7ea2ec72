"""Extremal passivity margin of parametric LTI systems.

Compute the extremal real shift parameter at which a continuous- or
discrete-time state-space model stops being strictly passive, using an
alternating expansion-contraction root-min solver with pencil-based zero
certification, plus midpoint-iteration and bisection baselines and a dense
grid oracle for cross-validation.
"""

from ximargin.baselines import (
    StagnationError,
    compute_xi_bisection,
    compute_xi_mp,
    oracle_xi,
)
from ximargin.drivers import (
    Certificate,
    EigCounts,
    XiResult,
    compute_xi_cont,
    compute_xi_disc,
    find_negative,
    initial_negative_search,
)
from ximargin.evaluation import (
    EvalCache,
    GammaDerivatives,
    PoleError,
    SolveCounters,
    build_cache,
    gamma,
    gamma_at_infinity,
    gamma_derivs_omega,
    gamma_derivs_xi,
    phi_eval,
)
from ximargin.generate import GenerationError, oracle_suite, random_system
from ximargin.hec import (
    BracketError,
    ContractViolationError,
    ConvergenceError,
    PseudoRoot,
    RootProblem,
    RootSense,
    hec_solve,
)
from ximargin.pencils import (
    NegativeInterval,
    SingularBlockError,
    ZeroSet,
    build_hamiltonian_cont,
    build_pencil,
    build_symplectic_disc,
    gamma_zeros,
    negative_intervals,
    xi_roots_at_omega,
)
from ximargin.systems import (
    DimensionError,
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    Tolerances,
    XiBracket,
    check_minimality,
    passivity_matrix_cont,
    passivity_matrix_disc,
    shifted_system,
    spectral_bounds,
    xi_bracket,
)
from ximargin.sysio import (
    SystemFileError,
    load_system,
    report_dict,
    report_from_json,
    report_to_json,
    report_to_text,
    save_system,
    system_from_dict,
    system_to_dict,
    system_to_json,
)

__version__ = "0.1.0"
