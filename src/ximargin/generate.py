"""Deterministic generation of strictly passive test systems.

The construction places the state matrix safely inside its stability region
(spectral abscissa forced to -margin, or spectral radius to 1 - margin),
makes the feedthrough Hermitian part definite by at least the margin, and
verifies strict passivity at a zero shift through the certifying pencil,
retrying with a derived seed offset (and, for discrete models, gentler port
matrices) when verification fails.  Everything is a pure function of the
seed, so generated suites are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from ximargin.drivers import find_negative
from ximargin.evaluation import build_cache
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    check_minimality,
    feedthrough_lambda_min,
    is_finite_real,
    require_int,
    xi_bracket,
)

_SEED_STRIDE = 1000003
_MAX_ATTEMPTS = 10  # draws per call; the last shrinks discrete ports by 0.6^9, about 1/100
_INSIDE_BACKOFF = 2e-4  # interior-margin test below the bracket top: twice MP's first back-off


class GenerationError(RuntimeError):
    """Verification failed on every retry; the drawn family is unusable."""


def _draw(rng, rows, cols, complex_data):
    M = rng.standard_normal((rows, cols))
    if complex_data:
        M = (M + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return M


def _strictly_passive_at_zero(system: StateSpaceSystem) -> bool:
    return find_negative(build_cache(system), 0.0) is None


def random_system(n: int, m: int, domain: TimeDomain, seed: int,
                  margin: float = 0.1, complex_data: bool = True,
                  d_floor: float | None = None) -> StateSpaceSystem:
    """Strictly passive random model, deterministic in the seed.

    ``d_floor`` sets the definiteness floor of the feedthrough Hermitian
    part (defaults to ``margin``).  Raises GenerationError when
    ``_MAX_ATTEMPTS`` consecutive draws fail the passivity or minimality
    verification, and InvalidParameterError when ``n`` or ``m`` is no
    integer >= 1, ``seed`` no integer >= 0, ``margin`` lies outside (0, 1)
    or ``d_floor`` is not finite and positive.
    """
    n = require_int(n, "n", 1)
    m = require_int(m, "m", 1)
    seed = require_int(seed, "seed", 0)
    if not (is_finite_real(margin) and 0.0 < margin < 1.0):
        raise InvalidParameterError(f"margin must lie in (0, 1), got {margin!r}")
    floor = margin if d_floor is None else d_floor
    if not (is_finite_real(floor) and floor > 0.0):
        raise InvalidParameterError(f"d_floor must be finite and > 0, got {d_floor!r}")
    domain = TimeDomain(domain)
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(seed + _SEED_STRIDE * attempt)
        A = _draw(rng, n, n, complex_data)
        B = _draw(rng, n, m, complex_data)
        if domain is TimeDomain.CONTINUOUS:
            alpha = np.linalg.eigvals(A).real.max()
            A = A - (alpha + margin) * np.eye(n)
            C = B.conj().T.copy()
        else:
            rho = np.abs(np.linalg.eigvals(A)).max()
            A = A * ((1.0 - margin) / rho)
            C = _draw(rng, m, n, complex_data)
            # shrink the ports until the feedthrough definitely dominates;
            # later attempts shrink further
            shrink = 0.6 ** attempt * max(margin, floor)
            B = B * (np.sqrt(shrink) / max(np.linalg.norm(B, 2), 1e-12))
            C = C * (np.sqrt(shrink) / max(np.linalg.norm(C, 2), 1e-12))
        D = _draw(rng, m, m, complex_data)
        lift = floor - feedthrough_lambda_min(D)
        if lift > 0.0:
            D = D + 0.5 * lift * np.eye(m)
        system = StateSpaceSystem(A, B, C, D, domain)
        controllable, observable = check_minimality(system)
        if not (controllable and observable):
            continue
        if _strictly_passive_at_zero(system):
            return system
    raise GenerationError(
        f"no strictly passive draw in {_MAX_ATTEMPTS} attempts "
        f"(n={n}, m={m}, domain={domain.value}, seed={seed})"
    )


def loses_passivity_inside_bracket(system: StateSpaceSystem) -> bool:
    """True when strict passivity is already lost just below the bracket top.

    Such systems have their extremal parameter strictly inside the bracket,
    which every algorithm (including the midpoint baseline with its larger
    first-step safety perturbation) can then resolve to full accuracy.
    """
    br = xi_bracket(system)
    xi_test = br.xi_ub - _INSIDE_BACKOFF * max(abs(br.xi_ub), 1.0)
    if xi_test <= br.xi_lb:
        return False
    return find_negative(build_cache(system), xi_test) is not None


def oracle_suite() -> list[tuple[str, StateSpaceSystem]]:
    """Fixed deterministic suite used for cross-validation and acceptance.

    24 strictly passive systems: both domains, n in {2, 4, 6}, m in {1, 2},
    one complex and one real draw per shape.  Draws whose extremal
    parameter coincides with a bracket end are skipped (deterministically)
    in favour of later seeds: interior instances exercise the actual
    iteration of every algorithm rather than the immediate-return path.
    """
    suite = []
    for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
        for n in (2, 4, 6):
            for m in (1, 2):
                for variant, complex_data in ((0, True), (1, False)):
                    margin = 0.35 if variant == 0 else 0.2
                    name = (f"{domain.value[:4]}-n{n}-m{m}-"
                            f"{'cplx' if complex_data else 'real'}")
                    base = 7000 + 101 * n + 17 * m + variant
                    for k in range(60):
                        try:
                            system = random_system(
                                n, m, domain, seed=base + 977 * k, margin=margin,
                                complex_data=complex_data, d_floor=margin + 1.0,
                            )
                        except GenerationError:
                            continue
                        if loses_passivity_inside_bracket(system):
                            break
                    else:
                        raise GenerationError(f"no interior-margin draw for {name}")
                    suite.append((name, system))
    return suite
