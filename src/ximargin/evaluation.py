"""Pointwise evaluation of the boundary Hermitian part and its derivatives.

The central scalar is ``gamma(xi, omega)``: the smallest eigenvalue of the
Hermitian part of the shifted transfer function on the stability boundary
(imaginary axis for continuous models, unit circle for discrete ones).  A
one-time complex Schur reduction of the state matrix, A = Q T Q^H, makes
every subsequent resolvent application one O(n^2) triangular solve, so a
full evaluation with first and second derivatives costs
O(m n^2 + m^2 n + m^3).

Derivative formulas use the standard perturbation expansion of a simple
eigenvalue of a Hermitian matrix: with unit eigenvector v for the smallest
eigenvalue and remaining eigenpairs (lam_j, u_j),

    d1 = v^H P' v,
    d2 = v^H P'' v + 2 sum_j |u_j^H P' v|^2 / (lam_min - lam_j),

where P', P'' are the matrix derivatives of the boundary Hermitian part in
the chosen direction.  The needed resolvent moments Z_k are accumulated by
repeated triangular solves with w I - T.  Every order-m eigensolve is
tallied in the cache's ``counts``.

The per-call path is kept lean, and every value it returns is bit for bit
what the plain formulation (``solve_triangular``, ``eigh``) gives:

- each solve is one direct LAPACK call, ``ztrtrs(R.T, X, lower=1, trans=1)``.
  R = w I - T is built C-ordered, so R.T is a Fortran-ordered lower
  triangle that LAPACK reads without a copy, and this is the call
  ``solve_triangular`` makes for a C-ordered R.  The untransposed
  ``ztrtrs(R, X)`` solves the same system in another loop order and
  differs in the last bits.  R is -T with w added on its diagonal, and the
  feedthrough and the shift go onto G's diagonal in place;
- the pole test compares |diag R| with max(|R_ij|, 1), and the finiteness
  of R is read off that maximum instead of a second pass over R.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrtrs

from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    _pencil_terms,
    balance_state,
    feedthrough_lambda_min,
    require_finite,
)


class PoleError(ArithmeticError):
    """Evaluation point collides with a pole of the shifted resolvent."""

    def __init__(self, shift: complex):
        super().__init__(f"resolvent is singular at shift {shift}")
        self.shift = shift


@dataclass
class SolveCounters:
    """Tally of eigenvalue problems solved, split by problem size.

    ``pencil_solves`` counts order-(2n+m) generalized problems (``gamma_zeros``
    and ``xi_roots_at_omega``); ``small_solves`` counts order-m Hermitian
    eigensolves, one per ``gamma``, ``gamma_derivs_xi`` / ``_omega`` call
    and per pencil zero confirmation that reached its eigensolve.
    """

    pencil_solves: int = 0
    small_solves: int = 0


@dataclass(frozen=True, eq=False)
class EvalCache:
    """Complex Schur form A = Q T Q^H of ``system``, with its certifying-pencil terms.

    ``system`` is the model in balanced state coordinates
    (``systems.balance_state``): the caller's model itself when that is
    already balanced, else one with the same transfer function and margin.
    T is upper triangular, Q is unitary, CQ = C @ Q and QB = Q^H @ B; M0, M1,
    N0, N1 are the terms of P(xi, s) = M0 + xi*M1 - s*(N0 + xi*N1).  All are
    read-only and built once, from ``system``.  ``counts`` tallies the
    eigensolves run against this cache and is the one mutable part: one
    cache per algorithm run, so the tally is that run's.
    """

    T: np.ndarray
    Q: np.ndarray
    CQ: np.ndarray
    QB: np.ndarray
    M0: np.ndarray
    M1: np.ndarray
    N0: np.ndarray
    N1: np.ndarray
    system: StateSpaceSystem
    a_norm: float
    counts: SolveCounters = field(default_factory=SolveCounters)

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def is_continuous(self) -> bool:
        return self.system.is_continuous

    @property
    def is_real(self) -> bool:
        return self.system.is_real

    def fold(self, omega: float) -> float:
        """Map a frequency into the search domain; idempotent.

        Discrete frequencies wrap onto (-pi, pi], and real-data ones fold to
        omega >= 0 (gamma is even).  Continuous frequencies are not bounded:
        gamma tends to lambda_min(D + D^H) - xi > 0 as |omega| grows, for
        every xi below the bracket top, so its negative set is bounded.
        """
        if not self.is_continuous:
            omega = _wrap_angle(omega)
        return abs(omega) if self.is_real else omega


def _wrap_angle(omega: float) -> float:
    """Map an angle into (-pi, pi]; an angle already there comes back unchanged."""
    if -np.pi < omega <= np.pi:
        return float(omega)
    w = float(np.remainder(omega + np.pi, 2.0 * np.pi) - np.pi)
    if w == -np.pi:
        w = np.pi
    return w


class GammaDerivatives(NamedTuple):
    """gamma with first/second directional derivatives at a point.

    Unpacks as ``(gamma, d1, d2, d2_reliable)``, the shape the HEC solver
    takes.  ``d2_reliable`` is False when the smallest eigenvalue is
    numerically multiple; d1 still comes from the eigenvector formula but
    callers should fall back to derivative-free steps instead of trusting d2.
    """

    gamma: float
    d1: float
    d2: float
    d2_reliable: bool


def build_cache(system: StateSpaceSystem) -> EvalCache:
    """Balance the state, reduce it to complex Schur form and build the pencil terms; O(n^3)."""
    system = balance_state(system)
    A = system.A
    T, Q = sla.schur(A, output="complex")
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(Q))):
        raise ArithmeticError("Schur reduction produced non-finite entries")
    a_norm = float(np.linalg.norm(A, 2))
    residual = np.linalg.norm(Q @ T @ Q.conj().T - A, 2)
    if residual > 1e-12 * max(a_norm, 1e-300):
        raise ArithmeticError(
            f"Schur reduction residual {residual:.3e} exceeds 1e-12 * ||A||"
        )
    parts = {
        "T": T,
        "Q": Q,
        "CQ": system.C @ Q,
        "QB": Q.conj().T @ system.B,
        **_pencil_terms(system),
    }
    for arr in parts.values():
        arr.setflags(write=False)
    return EvalCache(
        system=system,
        a_norm=a_norm,
        **parts,
    )


def _boundary_shift(cache: EvalCache, xi: float, omega: float) -> complex:
    """Resolvent shift w so that Z_k = CQ (w I - T)^{-k} QB."""
    require_finite(xi, "xi")
    require_finite(omega, "omega")
    if cache.is_continuous:
        return 1j * omega - xi / 2.0
    if xi >= 1.0:
        raise InvalidParameterError(f"discrete evaluation needs xi < 1, got {xi}")
    return (1.0 - xi) * cmath.exp(1j * omega)


def _sub_diagonal(M: np.ndarray, x) -> np.ndarray:
    """M - x*I in place on a square M: the values of ``M - x * np.eye(m)``."""
    M.flat[:: M.shape[0] + 1] -= x
    return M


def _transfer_chain(cache: EvalCache, xi: float, omega: float, depth: int):
    """Return (G, [Z_1..Z_depth]) at the boundary point; depth >= 1.

    G is the shifted transfer function; each resolvent power costs one
    triangular solve with R = w I - T.  Raises PoleError when w sits on an
    eigenvalue of A to working precision.
    """
    w = _boundary_shift(cache, xi, omega)
    R = _sub_diagonal(np.negative(cache.T, order="C"), -w)  # w I - T
    scale = max(np.abs(R).max(), 1.0)  # nan or inf unless R is finite
    if not math.isfinite(scale) or np.abs(np.diagonal(R)).min() <= 1e-300 * scale:
        raise PoleError(w)
    Z = []
    X = cache.QB
    for _ in range(depth):
        X, info = ztrtrs(R.T, X, lower=1, trans=1)
        Zk = cache.CQ @ X
        if info > 0 or not np.isfinite(Zk).all():
            raise PoleError(w)
        Z.append(Zk)
    if cache.is_continuous:
        G = _sub_diagonal(Z[0] + cache.system.D, xi / 2.0)
    else:
        G = _sub_diagonal(Z[0] + cache.system.D, xi)
        G /= 1.0 - xi
    return G, Z


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """M^H + M, exactly Hermitian in floating point."""
    return M.conj().T + M


def phi_eval(cache: EvalCache, xi: float, omega: float) -> np.ndarray:
    """Hermitian part of the shifted transfer function at one boundary point.

    Always returns an exactly Hermitian m x m matrix.  Raises PoleError if
    the evaluation point hits a pole.
    """
    G, _ = _transfer_chain(cache, xi, omega, depth=1)
    return _hermitian_part(G)


def gamma(cache: EvalCache, xi: float, omega: float) -> float:
    """Smallest eigenvalue of the boundary Hermitian part."""
    phi = phi_eval(cache, xi, omega)
    # eigh, not eigvalsh: they differ in the last bit at m >= 3, which would move estimates
    lam = np.linalg.eigh(phi)[0]
    cache.counts.small_solves += 1
    return float(lam[0])


def _gamma_or_inf(cache: EvalCache, xi: float, omega: float) -> float:
    """gamma(xi, omega), or inf on a resolvent pole: a pole witnesses no negativity."""
    try:
        return gamma(cache, xi, float(omega))
    except PoleError:
        return np.inf


def _gamma_derivatives(cache: EvalCache, G: np.ndarray, dG: np.ndarray,
                       ddG: np.ndarray) -> GammaDerivatives:
    """gamma and its directional derivatives from G and its first two derivatives."""
    phi, d_phi, dd_phi = _hermitian_part(G), _hermitian_part(dG), _hermitian_part(ddG)
    lam, V = np.linalg.eigh(phi)
    cache.counts.small_solves += 1
    v = V[:, 0]
    d1 = float(np.real(v.conj() @ d_phi @ v))
    d2 = float(np.real(v.conj() @ dd_phi @ v))
    if phi.shape[0] > 1:
        coup = V[:, 1:].conj().T @ d_phi @ v
        denom = lam[0] - lam[1:]
        keep = denom != 0.0
        d2 += float(2.0 * np.sum(np.abs(coup[keep]) ** 2 / denom[keep]))
        gap = float(lam[1] - lam[0])
    else:
        gap = np.inf
    phi_norm = max(abs(float(lam[0])), abs(float(lam[-1])), 1.0)
    return GammaDerivatives(float(lam[0]), d1, d2, gap > 1e-8 * phi_norm)


def gamma_derivs_omega(cache: EvalCache, xi: float, omega: float) -> GammaDerivatives:
    """gamma and its first/second partial derivatives in the frequency."""
    G, (_, Z2, Z3) = _transfer_chain(cache, xi, omega, depth=3)
    if cache.is_continuous:
        dG = -1j * Z2
        ddG = -2.0 * Z3
    else:
        eiw = cmath.exp(1j * omega)
        dG = -1j * eiw * Z2
        ddG = eiw * Z2 - 2.0 * (1.0 - xi) * eiw * eiw * Z3
    return _gamma_derivatives(cache, G, dG, ddG)


def gamma_derivs_xi(cache: EvalCache, xi: float, omega: float) -> GammaDerivatives:
    """gamma and its first/second partial derivatives in the shift parameter."""
    G, (_, Z2, Z3) = _transfer_chain(cache, xi, omega, depth=3)
    if cache.is_continuous:
        dG = 0.5 * _sub_diagonal(Z2, 1.0)
        ddG = 0.5 * Z3
    else:
        eiw = cmath.exp(1j * omega)
        dG = _sub_diagonal(G + eiw * Z2, 1.0)
        dG /= 1.0 - xi
        ddG = (2.0 / (1.0 - xi)) * (eiw * eiw * Z3 + dG)
    return _gamma_derivatives(cache, G, dG, ddG)


def gamma_at_infinity(cache: EvalCache, xi: float) -> float:
    """Limit of gamma as the frequency grows without bound (continuous only)."""
    if not cache.is_continuous:
        raise InvalidParameterError("the infinite-frequency limit only exists in continuous time")
    return feedthrough_lambda_min(cache.system.D) - xi
