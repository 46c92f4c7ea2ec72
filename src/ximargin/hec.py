"""Generic alternating root-finding / optimization solver for root-min problems.

The problem: find a parameter value where the inner optimum of a bivariate
function crosses zero,

    f(eps) := min_x g(eps, x) = 0   (root-min; root-max mirrors by negation).

Each outer iteration alternates a *contraction* (scalar root-finding on
``g`` with ``x`` frozen, bracketed between a known-nonnegative lower end and
the current iterate) and an *expansion* (monotone descent on ``g`` with
``eps`` frozen, driven to a stationary point).  The parameter iterates are
monotone and converge one-sidedly to a pseudoroot: a pair with g = 0 whose
x is stationary for the frozen-parameter slice.  Near a smooth pseudoroot
the parameter sequence converges quadratically.

Contraction uses Halley steps (first and second derivatives) safeguarded by
bracketing and bisection; rounding can put the computed root's residual on
the wrong side, in which case one probe of the last step's size toward the
last nonpositive iterate restores the sign, or that iterate is returned.
Expansion is a safeguarded Newton iteration on the slice derivative with
step halving to enforce monotone descent.  Both phases start from the value
their caller already holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
_STATIONARITY_TOL = 1e-8  # |dg/dx| / (1 + |g|) ~ sqrt(eps): the descent left, d1^2/2d2, is ~eps
_MAX_OUTER = 100  # contraction / expansion pairs; generous, the rate is quadratic near a root
_MAX_INNER = 60  # steps per contraction or expansion; both converge superlinearly


class RootSense(enum.Enum):
    ROOT_MAX = "root-max"
    ROOT_MIN = "root-min"


class BracketError(ArithmeticError):
    """The supplied interval does not bracket a root."""


class ContractViolationError(ValueError):
    """Initial data violates the sign convention of the solver."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the trace gathered so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TraceStep:
    """One phase of one outer iteration."""

    iteration: int
    phase: str
    eps: float
    x: float
    g: float


@dataclass(frozen=True)
class RootProblem:
    """A bivariate root-min / root-max problem instance.

    ``value(eps, x)`` returns g.  ``derivs_eps(eps, x)`` and
    ``derivs_x(eps, x)`` return g with its first and second partial
    derivative in that variable as anything that unpacks to
    ``(g, d1, d2, d2_reliable)``, such as ``evaluation.GammaDerivatives``.
    ``project_x`` maps any x into the search domain (for the drivers,
    ``EvalCache.fold``: reflection, angle wrapping) and must be idempotent.
    It need not bound x: the expansion accepts only steps that do not
    increase g, so its iterates stay in the sublevel set of the start.
    """

    value: Callable[[float, float], float]
    eps_lb: float
    derivs_eps: Callable[[float, float], tuple]
    derivs_x: Callable[[float, float], tuple]
    project_x: Callable[[float], float]
    sense: RootSense = RootSense.ROOT_MIN


@dataclass(frozen=True)
class PseudoRoot:
    """Converged output: g(eps, x) = 0 with x stationary for the slice at eps.

    ``x_second_derivative`` lets callers classify the stationary point
    (positive curvature means a local minimizer for root-min problems).
    ``stationary`` is False only when the expansion stalled before reaching
    the stationarity tolerance.
    """

    eps: float
    x: float
    g_value: float
    x_derivative: float
    x_second_derivative: float
    iterations: int
    sign_corrections: int
    stationary: bool
    trace: tuple[TraceStep, ...] = field(default_factory=tuple)

    def contraction_eps_sequence(self) -> list[float]:
        return [s.eps for s in self.trace if s.phase == "contract"]


class _Canonical:
    """Root-min, decreasing-parameter view of a RootProblem.

    Negates g for root-max instances and mirrors the parameter axis when the
    known-sign end lies above the start, so the engine below always sees
    eps_lb < eps with g(eps0, x0) <= 0 <= g(eps_lb, x).
    """

    def __init__(self, problem: RootProblem, mirror_eps: bool = False):
        self.problem = problem
        self.g_sign = -1.0 if problem.sense is RootSense.ROOT_MAX else 1.0
        self.eps_sign = -1.0 if mirror_eps else 1.0

    def mirror(self, eps: float) -> float:
        """Map eps between the user's and the engine's axis (an involution)."""
        return self.eps_sign * eps

    def project(self, x: float) -> float:
        return float(self.problem.project_x(x))

    def value(self, eps: float, x: float) -> float:
        return self.g_sign * float(self.problem.value(self.mirror(eps), x))

    def derivs_eps(self, eps: float, x: float):
        g, d1, d2, ok = self.problem.derivs_eps(self.mirror(eps), x)
        return self.g_sign * g, self.g_sign * self.eps_sign * d1, self.g_sign * d2, ok

    def derivs_x(self, eps: float, x: float):
        g, d1, d2, ok = self.problem.derivs_x(self.mirror(eps), x)
        return self.g_sign * g, self.g_sign * d1, self.g_sign * d2, ok


@dataclass
class _ContractResult:
    root: float
    g: float
    sign_corrections: int


def _contract_root_min(f, lo: float, hi: float, g_lo: float, start) -> _ContractResult:
    """Root of a scalar function on [lo, hi] with g(lo) >= 0 >= g(hi).

    ``f(eps) -> (g, d1, d2, d2_ok)``; ``start`` is ``f(hi)``, which the
    caller has already evaluated.  Takes Halley steps when they stay
    inside the bracket (Newton as second choice), bisection otherwise, which
    also covers zero or non-finite derivatives.  The returned root's
    residual is forced onto the nonpositive side: by one probe of the last
    step's size toward the last nonpositive iterate, else that iterate.
    """
    g_hi, d1, d2, ok = start
    floor = 1e-9 * (1.0 + abs(g_hi) + abs(g_lo))
    if g_lo < -floor or g_hi > floor:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={g_lo:.3e}, g(hi)={g_hi:.3e}"
        )
    if g_hi >= 0.0:
        # already a root at the top end (within rounding)
        return _ContractResult(hi, g_hi, 0)
    x, gx = hi, g_hi
    neg_end, g_neg = hi, g_hi
    last_step = hi - lo
    for _ in range(_MAX_INNER):
        if hi - lo <= 2.0 * _EPS * (1.0 + abs(x)):
            break
        step = None
        if np.isfinite(d1) and d1 != 0.0:
            if ok and np.isfinite(d2):
                denom = 2.0 * d1 * d1 - gx * d2
                if denom != 0.0:
                    h = -2.0 * gx * d1 / denom
                    if np.isfinite(h) and lo < x + h < hi:
                        step = h
            if step is None:
                h = -gx / d1
                if np.isfinite(h) and lo < x + h < hi:
                    step = h
        if step is None:
            cand = 0.5 * (lo + hi)
            step = cand - x
        else:
            cand = x + step
        g_new, d1, d2, ok = f(cand)
        if g_new > 0.0:
            lo = cand
        else:
            hi = cand
            neg_end, g_neg = cand, g_new
        moved = abs(cand - x)
        x, gx = cand, g_new
        last_step = step
        if g_new == 0.0 or moved <= 2.0 * _EPS * (1.0 + abs(cand)):
            break
    corrections = 0
    if gx > 0.0:
        # Rounding left the residual on the wrong side; probe one last step
        # toward the known-nonpositive end, or fall back to that end.
        corrections = 1
        h = max(abs(last_step), _EPS * (1.0 + abs(x)))
        cand = x + math.copysign(h, neg_end - x)
        short = cand < neg_end if neg_end > x else cand > neg_end
        g_new = f(cand)[0] if short else math.inf
        x, gx = (cand, g_new) if g_new <= 0.0 else (neg_end, g_neg)
    return _ContractResult(float(x), float(gx), corrections)


def _stationary(g: float, d1: float) -> bool:
    return abs(d1) <= _STATIONARITY_TOL * (1.0 + abs(g))


@dataclass
class _ExpandResult:
    x: float
    g: float
    d1: float
    d2: float
    stationary: bool


def _expand_min(fder, x0: float, start, project) -> _ExpandResult:
    """Monotone descent to a stationary point of a scalar slice.

    ``fder(x) -> (g, d1, d2, d2_ok)``; ``x0`` lies in the domain
    (``project(x0) == x0``) and ``start`` is ``fder(x0)``, which the caller
    has already evaluated.  Newton steps on the derivative when the
    curvature is positive and trustworthy, sign-guided probes otherwise;
    every accepted step must not increase the slice value.
    """
    x = x0
    g, d1, d2, ok = start
    fallback = 0.25 * (1.0 + abs(x))
    for _ in range(_MAX_INNER):
        if _stationary(g, d1):
            break
        if ok and np.isfinite(d2) and d2 > _EPS * (1.0 + abs(g)):
            step = -d1 / d2
        else:
            step = -math.copysign(fallback, d1)
        accepted = False
        for _ in range(50):
            cand = project(x + step)
            if cand == x:
                break
            g_new, d1_new, d2_new, ok_new = fder(cand)
            if g_new <= g:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        moved = abs(cand - x)
        x, g, d1, d2, ok = cand, g_new, d1_new, d2_new, ok_new
        fallback = max(2.0 * moved, 64.0 * _EPS * (1.0 + abs(x)))
        if moved <= 2.0 * _EPS * (1.0 + abs(x)):
            break
    return _ExpandResult(float(x), float(g), float(d1), float(d2), _stationary(g, d1))


def hec_solve(problem: RootProblem, eps0: float, x0: float) -> PseudoRoot:
    """Alternate contraction and expansion until a pseudoroot is reached.

    Initial data must satisfy the sign convention (root-min: g(eps0, x0)
    nonpositive while every slice value at eps_lb is nonnegative).  The
    parameter iterates move monotonically from eps0 toward eps_lb and the
    iteration stops when either the current x is stationary for the current
    slice or both coordinates stop changing at 100x machine precision,
    checked after each phase.  Non-finite data are rejected before any
    evaluation.
    """
    if not all(map(math.isfinite, (eps0, x0, problem.eps_lb))):
        raise ContractViolationError(
            f"eps0, x0 and eps_lb must be finite (got {eps0}, {x0}, {problem.eps_lb})"
        )
    if problem.eps_lb == eps0:
        raise ContractViolationError("eps_lb and eps0 must differ")
    can = _Canonical(problem, mirror_eps=problem.eps_lb > eps0)
    e_k = can.mirror(eps0)
    e_lb = can.mirror(problem.eps_lb)
    x_k = can.project(x0)
    eps_start = can.derivs_eps(e_k, x_k)
    g_k = eps_start[0]
    if g_k > 0.0:
        raise ContractViolationError(
            f"initial value must be nonpositive for root-min (got {g_k:.3e})"
        )
    trace = [TraceStep(0, "init", can.mirror(e_k), x_k, g_k)]
    sign_fixes = 0
    x_change = math.inf

    def small(delta, ref):
        return abs(delta) <= 100.0 * _EPS * (1.0 + abs(ref))

    def finish(eps, x, g, d1, d2, k, stationary):
        return PseudoRoot(
            eps=can.mirror(eps), x=x, g_value=g, x_derivative=d1,
            x_second_derivative=d2, iterations=k + 1,
            sign_corrections=sign_fixes, stationary=stationary,
            trace=tuple(trace),
        )

    for k in range(_MAX_OUTER):
        g_lb = can.value(e_lb, x_k)
        res = _contract_root_min(lambda e: can.derivs_eps(e, x_k), e_lb, e_k, g_lb, eps_start)
        sign_fixes += res.sign_corrections
        e_hat = res.root
        trace.append(TraceStep(k, "contract", can.mirror(e_hat), x_k, res.g))
        eps_change = e_k - e_hat
        x_start = can.derivs_x(e_hat, x_k)
        g_s, d1x, d2x, _ = x_start
        if _stationary(g_s, d1x):
            return finish(e_hat, x_k, res.g, d1x, d2x, k, True)
        if small(eps_change, e_hat) and small(x_change, x_k):
            return finish(e_hat, x_k, res.g, d1x, d2x, k, False)
        exp = _expand_min(lambda x: can.derivs_x(e_hat, x), x_k, x_start, can.project)
        trace.append(TraceStep(k, "expand", can.mirror(e_hat), exp.x, exp.g))
        x_change = exp.x - x_k
        if small(x_change, exp.x) and small(eps_change, e_hat):
            return finish(e_hat, exp.x, exp.g, exp.d1, exp.d2, k, exp.stationary)
        e_k, x_k = e_hat, exp.x
        eps_start = can.derivs_eps(e_k, x_k)
    raise ConvergenceError(
        f"no pseudoroot within {_MAX_OUTER} outer iterations", tuple(trace)
    )
