"""Outer drivers computing the extremal passivity parameter.

The driver starts just inside the upper bracket end, looks for a frequency
where gamma is negative (omega = 0, then a frequency grid's argmin, then
the certifying pencil), runs the expansion-contraction solver
from there, steps the estimate just below the returned pseudoroot, and
repeats until the pencil certifies that no negative region remains.  The
most recent pseudoroot frequency is injected into every recheck so that
near-tangential zeros lost to rounding cannot stall the loop.

Between two zeros gamma keeps one sign, so one probe per gap decides it.
Continuous ends need none: gamma tends to a positive limit as |omega| grows
(``find_negative``).  The circle has no such limit: gamma can be negative on
all of it, leaving the pencil no unimodular eigenvalue, so every first pass
on a discrete model probes omega = 0 (HEC's, in both domains, as the first
point of its grid search), and no later pass does.  After a root the
injected zero keeps the zero set non-empty, and its reflected and wrapped
spans cover the circle.

The midpoint baseline runs the same loop, ``_Run.restart``, with its own
step in place of ``hec_solve``.  Every negative-frequency hunt (this loop's,
bisection's and the suite generator's) goes through ``find_negative``,
which takes the run's ``EvalCache`` and reads the model from it and returns
only a frequency (or None), and every algorithm builds its ``XiResult``
through ``_Run``.  One search domain per model, ``EvalCache.fold``, serves
the whole loop: each frequency ``find_negative`` returns was probed after
folding, and the expansion projects its iterates with the same idempotent
``fold``, so the solver starts exactly where gamma was seen to be negative.
Continuous frequencies are unbounded; the expansion only accepts descent
within {gamma <= 0}, which is bounded.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ximargin.evaluation import (
    EvalCache,
    _gamma_or_inf,
    build_cache,
    gamma,
    gamma_derivs_omega,
    gamma_derivs_xi,
)
from ximargin.hec import ConvergenceError, PseudoRoot, RootProblem, hec_solve
from ximargin.pencils import NegativeInterval, gamma_zeros, negative_intervals
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    Tolerances,
    XiBracket,
    xi_bracket,
)

_MAX_RESTARTS = 50
_SEARCH_GRID = 128  # cheap-search grid points: each costs O(n^2), a pencil solve O((2n+m)^3)


class Certificate(enum.Enum):
    """How the final estimate was certified."""

    NO_NEGATIVE_REGION = "no-negative-region"
    BRACKET_DEGENERATE = "bracket-degenerate"
    ABSOLUTE_MODE = "absolute-mode"


@dataclass(frozen=True)
class EigCounts:
    """Eigenvalue-problem tally for one solver run (``#eig (2n+m)`` / ``#eig (m)``).

    Read from the run's ``EvalCache.counts``: every order-m Hermitian
    eigensolve (point evaluation, derivative evaluation, zero confirmation)
    counts once, whichever algorithm asked for it.
    """

    pencil_order: int
    pencil_solves: int
    small_solves: int


@dataclass(frozen=True)
class XiResult:
    """Final estimate with certification and work diagnostics.

    ``pseudoroots`` holds the solver's converged pseudoroots (empty for the
    non-pseudoroot algorithms); ``iterates`` records the per-step (xi,
    omega) pairs of whichever algorithm produced the result, with omega
    None where bisection found the midpoint strictly passive.
    ``certificate`` is None only for the grid oracle's result, which
    certifies nothing.
    """

    xi: float
    bracket: XiBracket
    pseudoroots: tuple[PseudoRoot, ...]
    eig_counts: EigCounts
    elapsed: float
    certificate: Certificate | None
    algorithm: str
    tolerance: float
    iterates: tuple[tuple[float, float | None], ...]

    @property
    def restarts(self) -> int:
        return len(self.iterates)

    @property
    def hec_avg_inner_iters(self) -> float | None:
        if not self.pseudoroots:
            return None
        return float(np.mean([p.iterations for p in self.pseudoroots]))


class _Run:
    """Clock, bracket, evaluation cache and history of one algorithm run."""

    def __init__(self, system: StateSpaceSystem, algorithm: str, tol: Tolerances | None):
        self.t0 = time.perf_counter()
        self.tau = (tol or Tolerances()).tau
        self.bracket = xi_bracket(system)
        self.algorithm = algorithm
        self.cache = build_cache(system)
        self.iterates: list[tuple[float, float | None]] = []
        self.pseudoroots: list[PseudoRoot] = []

    def result(self, xi: float, certificate: Certificate) -> XiResult:
        counts = self.cache.counts
        pencil_order = 2 * self.cache.n + self.cache.m
        return XiResult(
            xi=float(xi), bracket=self.bracket, pseudoroots=tuple(self.pseudoroots),
            eig_counts=EigCounts(pencil_order, counts.pencil_solves, counts.small_solves),
            elapsed=time.perf_counter() - self.t0, certificate=certificate,
            algorithm=self.algorithm, tolerance=self.tau, iterates=tuple(self.iterates),
        )

    def restart(self, xi: float, step, max_restarts: int, grid: bool = False) -> XiResult:
        """The HEC / MP loop: step below each root until no negative region remains.

        ``step(xi, omega)`` gets the estimate and a frequency where gamma is
        negative at it, and returns ``(root, omega_root)``; the loop backs off
        to ``root - tau*|root|`` (``root - tau`` in absolute mode) and injects
        ``omega_root`` next pass.  ``grid`` runs the grid search on the first
        pass.
        """
        cache, lb, tau = self.cache, self.bracket.xi_lb, self.tau
        if xi <= lb:
            return self.result(lb, Certificate.BRACKET_DEGENERATE)
        d_norm = float(np.linalg.norm(cache.system.D, 2))
        absolute = False
        last: float | None = None
        for _ in range(max_restarts):
            omega = find_negative(cache, xi, grid=grid, injected=last)
            if omega is None:
                cert = Certificate.ABSOLUTE_MODE if absolute else Certificate.NO_NEGATIVE_REGION
                return self.result(xi, cert)
            root, last = step(xi, omega)
            self.iterates.append((root, last))
            if abs(root) < 1e-10 * (1.0 + d_norm):
                absolute = True
            xi = root - (tau if absolute else tau * abs(root))
            if xi <= lb:
                return self.result(lb, Certificate.BRACKET_DEGENERATE)
        raise ConvergenceError(
            f"estimate still moving after {max_restarts} restarts", tuple(self.iterates)
        )


def select_interval(intervals: list[NegativeInterval]) -> NegativeInterval:
    """The widest negative interval; its midpoint seeds the next solver run."""
    return max(intervals, key=lambda iv: iv.width)


def probe_near_zeros(cache: EvalCache, zs, xi: float) -> float | None:
    """Look for a negative point immediately beside confirmed zeros.

    Midpoint probing between zeros fails when one endpoint of a negative
    interval was rejected (zeros almost on top of a resolvent pole defeat
    the confirmation test near the stability limit).  A single surviving
    zero still brackets the region, so small one-sided offsets around each
    zero recover a usable starting point.  The zeros lie in the search
    domain (``gamma_zeros``), and each offset is folded back into it before
    it is probed; both offsets of a zero at a fold point (a real model's
    omega = 0 or pi) land on one point, which is probed once.  An offset on
    a resolvent pole is no witness.
    """
    for w in map(float, zs.omegas):
        for rel in (1e-9, 1e-7, 1e-5, 1e-3):
            h = rel * (1.0 + abs(w))
            for cand in dict.fromkeys((cache.fold(w + h), cache.fold(w - h))):
                if _gamma_or_inf(cache, xi, cand) < 0.0:
                    return cand
    return None


def initial_negative_search(cache: EvalCache, xi0: float) -> float | None:
    """Cheap hunt for a frequency with gamma < 0 before paying for a pencil.

    Probes omega = 0, then a grid without that point (log-spaced symmetric
    for continuous models, uniform on the circle for discrete ones), and
    returns the grid point of least gamma if gamma is negative there.
    Returns None otherwise: the pencil decides.
    """
    val = partial(_gamma_or_inf, cache, xi0)
    if val(0.0) < 0.0:
        return 0.0
    if cache.is_continuous:
        w_max = 10.0 * (cache.a_norm + 1.0)
        grid = np.geomspace(max(1e-3, 1e-4 * w_max), w_max, _SEARCH_GRID // 2)
        if not cache.is_real:
            grid = np.concatenate([-grid[::-1], grid])
    elif cache.is_real:
        grid = np.linspace(0.0, np.pi, _SEARCH_GRID)[1:]
    else:
        grid = np.linspace(-np.pi, np.pi, _SEARCH_GRID, endpoint=False) + np.pi / _SEARCH_GRID
    values = np.array([val(w) for w in grid])
    best = int(np.argmin(values))
    return float(grid[best]) if values[best] < 0.0 else None


def find_negative(cache: EvalCache, xi: float, *, grid: bool = False,
                  injected: float | None = None) -> float | None:
    """A frequency where gamma(xi, .) < 0, or None once the pencil rules one out.

    A first pass (``injected`` None) starts with the grid search
    (``initial_negative_search``, which probes omega = 0 first) when
    ``grid`` is set, and otherwise with an omega = 0 probe on discrete
    models only.  Then come the zero set of ``cache.system``'s
    order-(2n+m) pencil (with the ``injected`` zero), taking the midpoint
    of the widest negative interval, and points just beside confirmed
    zeros, all in ``cache.fold``'s domain.  A resolvent pole is no witness.
    Continuous frequencies beyond the zeros need no probe: gamma tends to
    lambda_min(D + D^H) - xi as |omega| grows, positive for every xi below
    lambda_min(D + D^H), as for every library caller.
    """
    if injected is None:
        if grid:
            omega = initial_negative_search(cache, xi)
            if omega is not None:
                return omega
        elif not cache.is_continuous and _gamma_or_inf(cache, xi, 0.0) < 0.0:
            return 0.0
    zs = gamma_zeros(cache, xi, injected=injected)
    negs = negative_intervals(cache, zs, xi)
    if negs:
        return select_interval(negs).omega_mid
    return probe_near_zeros(cache, zs, xi)


def _drive(system: StateSpaceSystem, tol: Tolerances | None) -> XiResult:
    run = _Run(system, "hec", tol)
    cache = run.cache
    problem = RootProblem(
        value=partial(gamma, cache), eps_lb=run.bracket.xi_lb,
        derivs_eps=partial(gamma_derivs_xi, cache),
        derivs_x=partial(gamma_derivs_omega, cache),
        project_x=cache.fold,
    )

    def step(xi: float, omega: float) -> tuple[float, float]:
        pr = hec_solve(problem, eps0=xi, x0=omega)
        run.pseudoroots.append(pr)
        return pr.eps, pr.x

    ub = run.bracket.xi_ub
    return run.restart(ub - run.tau * abs(ub), step, _MAX_RESTARTS, grid=True)


def compute_xi_cont(system: StateSpaceSystem, tol: Tolerances | None = None) -> XiResult:
    """Extremal shift parameter of a continuous-time model.

    Follows the restart loop described in the module docstring; the result
    satisfies |xi - estimate| <= tau * |xi| (absolute tau when the margin is
    essentially zero, flagged by the ABSOLUTE_MODE certificate).
    """
    if not system.is_continuous:
        raise InvalidParameterError("compute_xi_cont needs a continuous-time model")
    return _drive(system, tol)


def compute_xi_disc(system: StateSpaceSystem, tol: Tolerances | None = None) -> XiResult:
    """Extremal shift parameter of a discrete-time model.

    The continuous-time loop on the circle: the first pass probes omega = 0
    first, as in both domains, and the zero intervals include the
    wrap-around one.
    """
    if system.is_continuous:
        raise InvalidParameterError("compute_xi_disc needs a discrete-time model")
    return _drive(system, tol)
