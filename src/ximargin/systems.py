"""State-space models, the parametric shift family, and passivity brackets.

A model is a four-tuple of complex matrices {A, B, C, D} with n states and
m ports, tagged continuous- or discrete-time.  The shift family moves the
model along a scalar parameter ``xi``; the bracket operations produce a
certified interval [xi_lb, xi_ub] that contains the extremal parameter at
which strict passivity is lost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class TimeDomain(enum.Enum):
    """Evolution domain of a model: continuous (s-plane) or discrete (z-plane)."""

    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


class DimensionError(ValueError):
    """Matrix dimensions are inconsistent with an n-state, m-port model."""


class InvalidParameterError(ValueError):
    """A parameter value lies outside the range an operation supports."""


def require_int(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``; numpy integers pass, bool, float and str do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidParameterError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)


def is_finite_real(value) -> bool:
    """True for a finite int, float or numpy real; nan, inf, complex, str and None are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and math.isfinite(value)


def require_finite(value, name: str) -> float:
    """``value`` as a float when ``is_finite_real``, else InvalidParameterError."""
    if not is_finite_real(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    return float(value)


def _matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.complex128, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """An LTI model {A, B, C, D} with as many inputs as outputs.

    Matrices are stored as read-only complex arrays.  ``is_real`` is derived
    at construction and is true only when every imaginary part is exactly
    zero; it gates the frequency-symmetry reduction used by the solvers.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: TimeDomain
    is_real: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = np.atleast_2d(np.asarray(self.B))
        if B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got shape {B.shape}")
        m = B.shape[1]
        if n < 1 or m < 1:
            raise DimensionError("model needs n >= 1 states and m >= 1 ports")
        object.__setattr__(self, "A", _matrix(A, n, n, "A"))
        object.__setattr__(self, "B", _matrix(B, n, m, "B"))
        object.__setattr__(self, "C", _matrix(self.C, m, n, "C"))
        object.__setattr__(self, "D", _matrix(self.D, m, m, "D"))
        if not isinstance(self.domain, TimeDomain):
            object.__setattr__(self, "domain", TimeDomain(self.domain))
        real = all(
            np.all(M.imag == 0.0) for M in (self.A, self.B, self.C, self.D)
        )
        object.__setattr__(self, "is_real", bool(real))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]

    @property
    def is_continuous(self) -> bool:
        return self.domain is TimeDomain.CONTINUOUS


@dataclass(frozen=True)
class XiBracket:
    """Certified interval [xi_lb, xi_ub] containing the extremal parameter.

    xi_lb <= xi_ub is not guaranteed; a (nearly) collapsed bracket makes the
    solvers return immediately with a degenerate-bracket certificate.
    """

    xi_lb: float
    xi_ub: float


@dataclass(frozen=True)
class Tolerances:
    """Relative accuracy ``tau`` of the final estimate (absolute when the
    estimate is essentially zero), in [eps, 1): backing off a root by less
    than machine epsilon cannot move it.
    """

    tau: float = 1e-14

    def __post_init__(self):
        eps = np.finfo(float).eps
        if not eps <= self.tau < 1.0:
            raise InvalidParameterError(f"tau must lie in [{eps:.3g}, 1), eps = machine epsilon")


def shifted_system(system: StateSpaceSystem, xi: float) -> StateSpaceSystem:
    """Move the model along the shift family by parameter ``xi``.

    Continuous: {A + (xi/2) I, B, C, D - (xi/2) I}.
    Discrete:   {A, B, C, D - xi I} all divided by (1 - xi), requiring xi < 1.
    """
    n, m = system.n, system.m
    if system.is_continuous:
        A = system.A + (xi / 2.0) * np.eye(n)
        D = system.D - (xi / 2.0) * np.eye(m)
        return StateSpaceSystem(A, system.B, system.C, D, system.domain)
    if xi >= 1.0:
        raise InvalidParameterError(f"discrete shift needs xi < 1, got {xi}")
    s = 1.0 / (1.0 - xi)
    return StateSpaceSystem(
        s * system.A,
        s * system.B,
        s * system.C,
        s * (system.D - xi * np.eye(m)),
        system.domain,
    )


def balance_state(system: StateSpaceSystem) -> StateSpaceSystem:
    """The model in diagonally balanced state coordinates; ``system`` itself when balanced.

    The scales s are the state part of ``scipy.linalg.matrix_balance`` of
    [[A, B], [C, 0]] without permutation.  They are powers of two, applied
    exactly: A_ij * (s_j / s_i), B_i / s_i, C_j * s_j.  A state scaling keeps
    the transfer function and the margin, but badly scaled coordinates move
    the pencil's eigenvalues off the boundary.  The ports stay unscaled: a
    port scaling would change gamma and the margin.
    """
    n, m = system.n, system.m
    M = np.block([[system.A, system.B], [system.C, np.zeros((m, m))]])
    _, (scale, _) = sla.matrix_balance(M, permute=False, separate=True)
    s = scale[:n]
    if np.all(s == 1.0):
        return system
    return StateSpaceSystem(system.A * (s[None, :] / s[:, None]), system.B / s[:, None],
                            system.C * s[None, :], system.D, system.domain)


def passivity_matrix_cont(X: np.ndarray, system: StateSpaceSystem) -> np.ndarray:
    """Assemble the (n+m) x (n+m) continuous-time passivity block matrix.

    [[-A^H X - X A,  C^H - X B],
     [ C - B^H X,    D^H + D  ]]
    """
    if not system.is_continuous:
        raise InvalidParameterError("continuous-time passivity matrix needs a continuous model")
    n, m = system.n, system.m
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (n, n):
        raise DimensionError(f"X must be {n}x{n}, got shape {X.shape}")
    A, B, C, D = system.A, system.B, system.C, system.D
    top_left = -A.conj().T @ X - X @ A
    top_right = C.conj().T - X @ B
    return np.block([
        [top_left, top_right],
        [top_right.conj().T, D.conj().T + D],
    ])


def passivity_matrix_disc(X: np.ndarray, system: StateSpaceSystem) -> np.ndarray:
    """Assemble the (2n+m) x (2n+m) discrete-time passivity block matrix.

    [[X,      X A,  X B ],
     [A^H X,  X,    C^H ],
     [B^H X,  C,    D^H + D]]
    """
    if system.is_continuous:
        raise InvalidParameterError("discrete-time passivity matrix needs a discrete model")
    n, m = system.n, system.m
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (n, n):
        raise DimensionError(f"X must be {n}x{n}, got shape {X.shape}")
    A, B, C, D = system.A, system.B, system.C, system.D
    XA = X @ A
    XB = X @ B
    return np.block([
        [X, XA, XB],
        [XA.conj().T, X, C.conj().T],
        [XB.conj().T, C, D.conj().T + D],
    ])


def _pencil_terms(system: StateSpaceSystem):
    """Terms M0, M1, N0, N1, by name, of the pencil P(xi, s) = M0 + xi*M1 - s*(N0 + xi*N1).

    P has order 2n+m and s is omega (continuous) or exp(i*omega) (discrete).
    At a fixed xi, its real (unimodular) eigenvalues s mark the zeros of
    gamma(xi, .); at a fixed s, its real eigenvalues xi mark those of gamma(., omega).
    """
    n, m = system.n, system.m
    A, B, C, D = system.A, system.B, system.C, system.D
    M0, M1, N0, N1 = (np.zeros((2 * n + m, 2 * n + m), dtype=complex) for _ in range(4))
    x, y, u = slice(0, n), slice(n, 2 * n), slice(2 * n, None)
    eye = np.eye(n)
    M0[x, n:] = np.hstack([A, B])
    M0[u] = np.hstack([B.conj().T, C, D.conj().T + D])
    if system.is_continuous:
        M0[y, x] = A.conj().T
        M0[y, u] = C.conj().T
        M1[x, y] = M1[y, x] = 0.5 * eye
        M1[u, u] = -np.eye(m)
        N0[x, y] = 1j * eye
        N0[y, x] = -1j * eye
    else:
        M0[y, x] = -eye
        M1[y, x] = eye
        M1[u, u] = -2.0 * np.eye(m)
        N0[x, y] = eye
        N1[x, y] = -eye
        N0[y, x] = -A.conj().T
        N0[y, u] = -C.conj().T
    return {"M0": M0, "M1": M1, "N0": N0, "N1": N1}


def _lambda_min(W: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian-up-to-rounding matrix."""
    Wh = 0.5 * (W + W.conj().T)
    return float(np.linalg.eigvalsh(Wh)[0])


def feedthrough_lambda_min(D: np.ndarray) -> float:
    """Smallest eigenvalue of D + D^H; a real D keeps real arithmetic."""
    return _lambda_min(D.conj().T + D)


def spectral_bounds(system: StateSpaceSystem) -> tuple[float, float]:
    """Return (spectral abscissa, spectral radius) of the state matrix."""
    eigs = np.linalg.eigvals(system.A)
    return float(eigs.real.max()), float(np.abs(eigs).max())


def xi_bracket(system: StateSpaceSystem) -> XiBracket:
    """Initial bracket for the extremal shift parameter.

    Continuous: xi_lb from the passivity matrix at X = I, xi_ub from the
    stability and feedthrough-definiteness limits.  Discrete: xi_lb from the
    passivity matrix at X = 2I, xi_ub = 1 - rho(A).
    """
    n = system.n
    if system.is_continuous:
        lb = _lambda_min(passivity_matrix_cont(np.eye(n), system))
        alpha, _ = spectral_bounds(system)
        ub = min(-2.0 * alpha, feedthrough_lambda_min(system.D))
    else:
        lb = 0.5 * _lambda_min(passivity_matrix_disc(2.0 * np.eye(n), system))
        _, rho = spectral_bounds(system)
        ub = 1.0 - rho
    return XiBracket(float(lb), float(ub))


_MINIMALITY_RTOL = 1e-8  # relative singular value of an uncoupled mode: far above SVD rounding


def check_minimality(system: StateSpaceSystem) -> tuple[bool, bool]:
    """Rank test for controllability and observability at every eigenvalue.

    The pair (A, B) is controllable iff [lambda I - A, B] has full row rank
    for every eigenvalue lambda of A, tested through the smallest singular
    value against ``_MINIMALITY_RTOL`` relative to ||[A, B]||.  Observability
    is the dual test on (A^H, C^H).
    """
    A, B, C = system.A, system.B, system.C
    n = system.n

    def _full_rank_pair(Amat, Bmat):
        scale = np.linalg.norm(np.hstack([Amat, Bmat]), 2)
        lam_set = np.linalg.eigvals(Amat)
        for lam in lam_set:
            pencil = np.hstack([lam * np.eye(n) - Amat, Bmat])
            smin = np.linalg.svd(pencil, compute_uv=False)[-1]
            if smin <= _MINIMALITY_RTOL * scale:
                return False
        return True

    controllable = _full_rank_pair(A, B)
    observable = _full_rank_pair(A.conj().T, C.conj().T)
    return controllable, observable
