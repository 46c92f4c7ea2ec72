"""Reference algorithms: midpoint iteration, bisection, and a grid oracle.

These exist to cross-validate the expansion-contraction driver.  The
midpoint (MP) iteration alternates picking the midpoint of the widest
negative frequency interval with extracting the smallest shift value that
zeroes gamma at that frequency; it is kept faithful to its original form,
including the widest-interval rule and the larger first-step safety
perturbation, because it is a baseline rather than an improved method; only
its shift roots are polished against gamma, a rounding-sized correction.
Plain bisection classifies strict passivity at each midpoint with the
driver's ``find_negative``: the certifying pencil, after an omega = 0 probe
on discrete models.  The oracle works on a dense frequency grid with local
refinement and shares no code path with the pencil machinery, so agreement
between all of them is meaningful evidence.  MP runs the driver's restart
loop (``_Run.restart``) with its own step, so the three pencil-based
algorithms find negative frequencies the same way and differ only in how
they use what ``find_negative`` returns.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.optimize import minimize_scalar

from ximargin.drivers import Certificate, XiResult, _Run, find_negative
from ximargin.evaluation import EvalCache, gamma_derivs_xi
from ximargin.hec import ConvergenceError
from ximargin.pencils import xi_roots_at_omega
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    Tolerances,
    balance_state,
    feedthrough_lambda_min,
    is_finite_real,
    require_int,
    xi_bracket,
)

_MP_MAX_ITER = 200
_ROOT_SLACK = 1e-10  # relative; far above the pencil's rounding in a shift root, far below a step
_BISECT_MAX_ITER = 400


class StagnationError(ConvergenceError):
    """The midpoint iteration could not extract a usable shift root.

    This reproduces the documented failure mode of the midpoint method:
    when rounding hides the relevant pencil eigenvalues, the confirmed root
    set at the chosen frequency comes back empty and the iteration cannot
    move.
    """


def compute_xi_mp(system: StateSpaceSystem, tol: Tolerances | None = None) -> XiResult:
    """Midpoint-iteration estimate of the extremal shift parameter.

    Starts at the upper bracket end backed off by a relative 1e-4 (zeros of
    gamma can sit at enormous frequencies right at the stability limit, and
    their pencil eigenvalues then carry large imaginary rounding errors);
    subsequent steps back off by the requested tolerance only.  Each shift
    root is polished by one Newton step on gamma (``_newton_polish``).  A
    result certified before any step is only as accurate as that first
    back-off, and its ``tolerance`` says so (absolute when the bracket top
    is 0).
    """
    run = _Run(system, "mp", tol)
    lb, ub = run.bracket.xi_lb, run.bracket.xi_ub

    def step(xi: float, omega: float) -> tuple[float, float]:
        roots = xi_roots_at_omega(run.cache, float(omega))
        # root extraction via eigenvalues carries rounding; near convergence the
        # smallest root can land a hair above the current iterate, which is
        # progress-free jitter rather than the documented stagnation failure
        slack = _ROOT_SLACK * (1.0 + abs(xi))
        roots = roots[(roots > lb) & (roots <= xi + slack)]
        if len(roots) == 0:
            raise StagnationError(
                f"no confirmed shift root at frequency {omega:.6g} below {xi:.17g}",
                tuple(run.iterates),
            )
        return min(_newton_polish(run.cache, float(roots[0]), float(omega)), xi), float(omega)

    first_tol = 1e-4
    backoff = first_tol * abs(ub)
    if backoff == 0.0:
        backoff = first_tol = 1e-4 * max(ub - lb, 1.0)
    result = run.restart(ub - backoff, step, _MP_MAX_ITER)
    return result if result.iterates else dataclasses.replace(result, tolerance=first_tol)


def _newton_polish(cache: EvalCache, root: float, omega: float) -> float:
    """``root`` after one Newton step on gamma(., omega), if that step is rounding-sized.

    A shift root from the frozen-frequency pencil carries rounding well
    above tau at large n: this step moves it by up to 5e-14*(1 + |root|) on
    the n = 120 ladder rungs.  A root that overshoots leaves the estimate above the margin,
    and MP then creeps down by tau per restart, for as many restarts as the
    rounding happened to give.  The Newton step brings the root to gamma's
    own accuracy.  A step beyond ``_ROOT_SLACK`` means no simple root here,
    and the pencil's root stands.
    """
    g, d1, _, _ = gamma_derivs_xi(cache, root, omega)
    step = g / d1 if d1 < 0.0 else math.inf
    return root - step if abs(step) <= _ROOT_SLACK * (1.0 + abs(root)) else root


def compute_xi_bisection(system: StateSpaceSystem,
                         tol: Tolerances | None = None) -> XiResult:
    """Bisection on the bracket, classifying strict passivity at each midpoint.

    Each iterate is ``(mid, witness)``: a frequency where strict passivity
    fails at ``mid``, or None where ``mid`` was found strictly passive.
    """
    run = _Run(system, "bisection", tol)
    tau = run.tau
    lo, hi = run.bracket.xi_lb, run.bracket.xi_ub
    if hi - tau * abs(hi) <= lo:
        return run.result(lo, Certificate.BRACKET_DEGENERATE)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tau * (1.0 + abs(mid)):
            break
        witness = find_negative(run.cache, mid)
        run.iterates.append((mid, witness))
        if witness is None:
            lo = mid
        else:
            hi = mid
    return run.result(lo, Certificate.NO_NEGATIVE_REGION)


def _batched_lambda_min(T: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of T^H + T for a (K, m, m) stack."""
    m = T.shape[-1]
    if m == 1:
        return 2.0 * T[:, 0, 0].real
    if m == 2:
        a = 2.0 * T[:, 0, 0].real
        c = 2.0 * T[:, 1, 1].real
        b = T[:, 0, 1] + np.conj(T[:, 1, 0])
        half_sum = 0.5 * (a + c)
        radius = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(b) ** 2)
        return half_sum - radius
    phi = T + np.conj(np.swapaxes(T, -1, -2))
    return np.linalg.eigvalsh(phi)[..., 0]


class _GridEvaluator:
    """Dense-grid minimum of gamma, independent of the pencil machinery.

    Evaluation goes through an eigendecomposition A = V diag(lam) V^-1 of the
    state matrix, so no code is shared with the Schur-form evaluation path.
    The transfer stack at K points is then one GEMM: the (K, n) resolvent
    diagonals 1/(s - lam) times the (n, m^2) matrix ``WG`` whose row i is the
    rank-one term vec(W[:, i] G[i, :]), W = C V, G = V^-1 B, built once.
    When V is ill-conditioned a batched dense solve replaces the GEMM.
    """

    def __init__(self, system: StateSpaceSystem, grid_size: int):
        self.system = system
        self.grid_size = int(grid_size)
        self.continuous = system.domain is TimeDomain.CONTINUOUS
        lam, V = np.linalg.eig(system.A)
        self.lam = lam
        cond = np.linalg.cond(V)
        self.diagonalizable = bool(np.isfinite(cond) and cond < 1e10)
        if self.diagonalizable:
            W = system.C @ V
            G = np.linalg.solve(V, system.B)
            self.WG = np.einsum("mi,in->imn", W, G).reshape(system.n, system.m ** 2)
        self.d_min = feedthrough_lambda_min(system.D)
        self.a_norm = float(np.linalg.norm(system.A, 2))
        self._centers: list[float] = []

    def _transfer_stack(self, points: np.ndarray, xi: float) -> np.ndarray:
        sys_ = self.system
        K, m = len(points), sys_.m
        if self.diagonalizable:
            res = np.subtract.outer(points, self.lam)
            np.divide(1.0, res, out=res)
            T = (res @ self.WG).reshape(K, m, m)
        else:
            n = sys_.n
            shifted = points[:, None, None] * np.eye(n)[None, :, :] - sys_.A[None, :, :]
            T = np.linalg.solve(shifted, np.broadcast_to(sys_.B, (K, n, m)))
            T = np.einsum("mi,kin->kmn", sys_.C, T)
        # T + D - c I (then / (1 - xi)) in place: the same rounding, no stack temporaries
        T += sys_.D
        diag = T.reshape(K, m * m)[:, ::m + 1]
        if self.continuous:
            diag -= xi / 2.0
        else:
            diag -= xi
            T /= 1.0 - xi
        return T

    def _points(self, ws: float | np.ndarray, xi: float):
        """Boundary points of frequencies ``ws``, a float or an array."""
        if self.continuous:
            return 1j * ws - xi / 2.0
        return (1.0 - xi) * np.exp(1j * ws)

    def gamma_scalar(self, xi: float, omega: float) -> float:
        pts = np.array([self._points(omega, xi)])
        return float(_batched_lambda_min(self._transfer_stack(pts, xi))[0])

    def _frequency_grid(self, xi: float) -> np.ndarray:
        K = self.grid_size
        if not self.continuous:
            return np.linspace(-np.pi, np.pi, K, endpoint=False) + np.pi / K
        imag_parts = self.lam.imag
        band = 10.0 * (self.a_norm + 1.0)
        w_lo, w_hi = imag_parts.min() - band, imag_parts.max() + band
        linear = np.linspace(w_lo, w_hi, int(0.6 * K))
        # gamma approaches its feedthrough limit like 1/omega; when that limit
        # is small, negativity can hide very far out, so pad with log tails
        gamma_inf = max(self.d_min - xi, 1e-12)
        bc = (np.linalg.norm(self.system.B, 2) * np.linalg.norm(self.system.C, 2) + 1.0)
        w_far = min(max(1e6, 50.0 * bc / gamma_inf), 1e13)
        tail = np.geomspace(max(abs(w_lo), abs(w_hi), 1.0), w_far, int(0.2 * K))
        return np.unique(np.concatenate([linear, tail, -tail]))

    def min_gamma(self, xi: float, full: bool = True) -> float:
        """Grid minimum with local refinement.

        A full pass rebuilds the grid and records the best local-minimizer
        locations; a cheap pass re-minimizes in a window around each
        recorded minimizer and lets the minimizers drift with xi.  Sound
        for small parameter steps as long as full passes are interleaved.
        """
        refine = max(8, 2 * self.system.n + 4)
        best = self.d_min - xi if self.continuous else math.inf
        if full or not self._centers:
            ws = self._frequency_grid(xi)
            vals = _batched_lambda_min(self._transfer_stack(self._points(ws, xi), xi))
            best = min(best, float(vals.min()))
            # pad the ends: on the line with value -inf, so no end is a minimum; on the
            # circle with the wrapped neighbour (bounds just outside (-pi, pi] are fine)
            if self.continuous:
                wp = np.concatenate([[ws[0] - (ws[1] - ws[0])], ws, [ws[-1] + (ws[-1] - ws[-2])]])
                vp = np.pad(vals, 1, constant_values=-math.inf)
            else:
                wp = np.concatenate([[ws[-1] - 2.0 * np.pi], ws, [ws[0] + 2.0 * np.pi]])
                vp = np.pad(vals, 1, mode="wrap")
            idx = np.where((vals <= vp[:-2]) & (vals <= vp[2:]))[0]
            order = idx[np.argsort(vals[idx])][:refine]
            spans = [(float(wp[i]), float(wp[i + 2]), ws[i]) for i in order]
        else:
            wins = [0.05 * (1.0 + abs(c)) for c in self._centers]
            spans = [(c - win, c + win, c) for c, win in zip(self._centers, wins)]
        self._centers = []
        for lo, hi, centre in spans:
            res = minimize_scalar(
                lambda w: self.gamma_scalar(xi, w),
                bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-13 * (1.0 + abs(centre))},
            )
            best = min(best, float(res.fun))
            self._centers.append(float(res.x))
        return best


def oracle_xi(system: StateSpaceSystem, grid_size: int = 100_000,
              tol: float = 1e-10) -> float:
    """Brute-force estimate: bisection over a dense-grid passivity test.

    Accuracy is limited by the grid plus the local refinement of the grid
    minimizer; suitable as an independent reference for small models.
    ``grid_size`` must be an integer of at least 16 (numpy integers
    included) and ``tol`` (the relative bisection width) must lie in
    (0, 1); anything else raises ``InvalidParameterError``.  The state
    coordinates are balanced first (``balance_state``), as ``build_cache``
    does, so that the grid span and the bracket do not grow with a bad
    scaling; no cache is read.
    """
    grid_size = require_int(grid_size, "grid_size", 16)
    if not (is_finite_real(tol) and 0.0 < tol < 1.0):
        raise InvalidParameterError(f"tol must lie in (0, 1), got {tol!r}")
    system = balance_state(system)
    br = xi_bracket(system)
    lo, hi = br.xi_lb, br.xi_ub
    if hi - tol * abs(hi) <= lo:
        return float(lo)
    ev = _GridEvaluator(system, grid_size)
    for it in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(abs(mid), 1e-6):
            break
        full = (it % 8 == 0) or (hi - lo) > 1e-3 * (1.0 + abs(mid))
        if ev.min_gamma(mid, full=full) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
