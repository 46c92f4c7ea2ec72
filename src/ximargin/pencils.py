"""Zero certification for the boundary eigenvalue function.

For a fixed shift parameter, the frequencies where the boundary Hermitian
part becomes singular are exactly the real (continuous) or unimodular
(discrete) eigenvalues of a structured matrix pencil of order 2n+m, which
``build_pencil`` forms from the terms ``build_cache`` keeps on the cache.
The reduced Hamiltonian / symplectic forms of order 2n are available when
the trailing feedthrough block is invertible and serve as cross-validation.

Every pencil is solved by one LAPACK call (``_finite_eigenvalues``), in the
arithmetic of its entries.  ``gamma_zeros`` runs a QZ.  For real data it
solves the same pencil in real arithmetic, about four times cheaper than in
complex: continuous (M, N) with N = i*J becomes (M, J), whose eigenvalues are
mu = i*omega, and a discrete (M, N) is real as it stands.  The shift pencil
of ``xi_roots_at_omega`` is complex for real data too, but its second matrix
has a closed-form inverse, so one standard ``zgeev`` solves it, several times
cheaper than a QZ of the same order.

Both pencils' spectra are symmetric about the boundary: lambda comes with
its mirror image conj(lambda) (1/conj(lambda) on the circle).  An
unstructured eigensolver moves a simple boundary eigenvalue off the boundary but
cannot give it a mirror partner (Benner, Byers, Mehrmann & Xu, SIAM J.
Matrix Anal. Appl., 2002), so ``_boundary_points`` keeps an eigenvalue whose
mirror image is at least as near to itself as to any other eigenvalue.  A
real QZ splits a double boundary eigenvalue into a mirror pair about
sqrt(eps*||M||) off the boundary, which counts too.  Candidate frequencies
carry rounding noise, so each one is confirmed by evaluating gamma, and the
most recent pseudoroot frequency can be injected unconditionally to guard
against near-multiple eigenvalues being missed entirely.  Zero sets live in
the search domain (``EvalCache.fold``), so real data confirm each +/- pair
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ximargin.evaluation import EvalCache, PoleError, _gamma_or_inf, phi_eval
from ximargin.systems import InvalidParameterError, StateSpaceSystem, require_finite

_CLUSTER_RTOL = 1e-10
# c in a real QZ's split scale c*sqrt(eps*||M||_F).  The tangency tests' splits reach
# 2.1*sqrt(eps*||M||_2); c = 2, 3 and 4 keep them and the seed-180 system, at 9260 / 9436 /
# 9600 suite bisection small solves in tools/behaviour_digest.py: 4 leaves a margin of 2
_SPLIT_C = 4.0
_ZERO_CONFIRM_TOL = 1e-6  # |lambda_min| / max(1, |lambda|max); loose, it rejects only non-zeros


class SingularBlockError(ArithmeticError):
    """The trailing feedthrough block is numerically singular.

    The reduced Hamiltonian/symplectic form does not exist here; the full
    pencil form is preferred numerically.
    """


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Confirmed zero frequencies of gamma at a fixed shift, sorted ascending.

    They lie in ``EvalCache.fold``'s domain (omega >= 0 for real data).
    ``injected`` flags entries that were added from outside the pencil
    computation (the missed-zero fix) rather than confirmed candidates.
    """

    omegas: np.ndarray
    injected: np.ndarray

    def __len__(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class NegativeInterval:
    """Open frequency interval on which gamma is negative, with its probe."""

    omega_lo: float
    omega_hi: float
    omega_mid: float
    gamma_mid: float

    @property
    def width(self) -> float:
        return self.omega_hi - self.omega_lo


def _require_invertible(block: np.ndarray, what: str) -> None:
    """Raise SingularBlockError when the Hermitian part of ``block`` is numerically singular."""
    lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    if np.abs(lam).min() <= 1e-12 * max(1.0, np.abs(lam).max()):
        raise SingularBlockError(f"{what} is singular; the pencil form is preferred numerically")


def build_pencil(cache: EvalCache, xi: float):
    """Order-(2n+m) pencil (M0 + xi*M1, N0 + xi*N1) from ``cache``'s terms.

    Its real (continuous) or unimodular (discrete; needs xi < 1) eigenvalues mark gamma zeros.
    """
    xi = require_finite(xi, "xi")
    if not cache.is_continuous and xi >= 1.0:
        raise InvalidParameterError(f"discrete pencil needs xi < 1, got {xi}")
    return cache.M0 + xi * cache.M1, cache.N0 + xi * cache.N1


def build_hamiltonian_cont(system: StateSpaceSystem, xi: float) -> np.ndarray:
    """Reduced 2n x 2n form; its imaginary eigenvalues mark gamma zeros.

    Requires the shifted feedthrough Hermitian part to be invertible;
    otherwise raises SingularBlockError (use the full pencil instead).
    """
    if not system.is_continuous:
        raise InvalidParameterError("continuous reduced form needs a continuous model")
    n, m = system.n, system.m
    D_xi = system.D - (xi / 2.0) * np.eye(m)
    R = D_xi.conj().T + D_xi
    _require_invertible(R, "feedthrough Hermitian part")
    A_xi = system.A + (xi / 2.0) * np.eye(n)
    top = np.block([[A_xi, np.zeros((n, n))], [np.zeros((n, n)), -A_xi.conj().T]])
    left = np.vstack([system.B, system.C.conj().T])
    right = np.hstack([system.C, -system.B.conj().T])
    return top - left @ np.linalg.solve(R, right)


def build_symplectic_disc(system: StateSpaceSystem, xi: float):
    """Reduced 2n x 2n symplectic pencil (S, T); needs invertible D-tilde."""
    if system.is_continuous:
        raise InvalidParameterError("symplectic pencil needs a discrete model")
    n = system.n
    Dt = system.D.conj().T + system.D - 2.0 * xi * np.eye(system.m)
    _require_invertible(Dt, "shifted feedthrough block")
    B, C, A = system.B, system.C, system.A
    Dt_inv_Bh = np.linalg.solve(Dt, B.conj().T)
    Dt_inv_C = np.linalg.solve(Dt, C)
    S = np.block([
        [(xi - 1.0) * np.eye(n), np.zeros((n, n))],
        [-B @ Dt_inv_Bh, A - B @ Dt_inv_C],
    ])
    T = np.block([
        [(B @ Dt_inv_C - A).conj().T, C.conj().T @ Dt_inv_C],
        [np.zeros((n, n)), (1.0 - xi) * np.eye(n)],
    ])
    return S, T


def _finite_eigenvalues(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Finite eigenvalues of the pencil (a, b) via one dense QZ, ``dggev`` or ``zggev`` by dtype.

    With ``b`` None it solves the standard problem for ``a`` via one ``zgeev``.
    The workspace comes from the routine's own query and matches the one
    ``scipy.linalg.eig`` passes, so the results are the bits of
    ``eig(a, right=False)``, or of the alpha and beta that
    ``eig(a, b, right=False, homogeneous_eigvals=True)`` returns.
    """
    if b is None:
        lwork = int(lapack.zgeev_lwork(a.shape[0], compute_vl=0, compute_vr=0)[0].real)
        w, _, _, info = lapack.zgeev(a, compute_vl=0, compute_vr=0, lwork=lwork)
        if info != 0:
            raise np.linalg.LinAlgError(f"eig algorithm (geev) failed, info={info}")
        return w
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    ggev = lapack.dggev if real else lapack.zggev
    lwork = int(ggev(a, b, compute_vl=0, compute_vr=0, lwork=-1)[-2][0].real)
    out = ggev(a, b, compute_vl=0, compute_vr=0, lwork=lwork)
    if out[-1] != 0:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed, info={out[-1]}")
    alpha, beta = (out[0] + 1j * out[1], out[2]) if real else out[:2]
    scale = np.abs(alpha) + np.abs(beta)
    finite = np.abs(beta) > 1e-12 * np.where(scale > 0, scale, 1.0)
    return alpha[finite] / beta[finite]


def _boundary_points(eigs: np.ndarray, circle: bool, split: float = 0.0) -> np.ndarray:
    """Real parts (angles on the circle) of the eigenvalues on the boundary.

    An eigenvalue is on it when its mirror image is at least as near to
    itself as to any other eigenvalue; with ``split`` > 0 (a real QZ), two
    that are each other's nearest mirror image within ``split`` of the
    boundary are a double boundary eigenvalue split by rounding.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.abs(np.subtract.outer(1.0 / eigs.conj() if circle else eigs.conj(), eigs))
    own = dist.diagonal().copy()  # twice the distance to the boundary
    np.fill_diagonal(dist, np.inf)
    keep = np.isfinite(own) & (own <= dist.min(axis=1, initial=np.inf))
    if split > 0.0 and len(eigs) > 1:
        partner = dist.argmin(axis=1)
        keep |= (partner[partner] == np.arange(len(eigs))) & (own <= 2.0 * split)
    if not circle:
        return eigs[keep].real
    points = np.angle(eigs[keep])
    points[points == -np.pi] = np.pi  # the circle's domain is (-pi, pi]
    return points


def _cluster(values: np.ndarray) -> np.ndarray:
    """Merge near-duplicate reals; representatives are cluster means."""
    if len(values) == 0:
        return values
    vals = np.sort(values)
    breaks = np.diff(vals) > _CLUSTER_RTOL * (1.0 + np.abs(vals[1:]))
    return np.array([c.mean() for c in np.split(vals, np.flatnonzero(breaks) + 1)])


def _confirmed_gamma(cache: EvalCache, xi: float, omega: float) -> bool:
    try:
        phi = phi_eval(cache, xi, omega)
    except PoleError:
        return False
    lam = np.linalg.eigvalsh(phi)
    cache.counts.small_solves += 1
    scale = max(1.0, float(np.abs(lam).max()))
    return abs(float(lam[0])) <= _ZERO_CONFIRM_TOL * scale


def gamma_zeros(cache: EvalCache, xi: float, *, injected: float | None = None) -> ZeroSet:
    """Confirmed zero frequencies of gamma at the given shift, in ``cache.fold``'s domain.

    The pencil's boundary eigenvalues (``_boundary_points``) become
    candidates.  Real data solve the pencil in real arithmetic, where a
    double boundary eigenvalue split by rounding counts too, and fold the
    candidates to |omega| (gamma is even), so one confirmation serves each
    +/- pair and at most 2n remain.
    Each candidate must pass the gamma confirmation test.  ``injected`` is
    folded, then appended unconditionally and flagged; near-tangential
    zeros are otherwise easily lost to rounding.
    """
    if injected is not None:
        injected = require_finite(injected, "injected")
    Mx, Nx = build_pencil(cache, xi)
    cache.counts.pencil_solves += 1
    if not cache.is_real:
        eigs = _finite_eigenvalues(Mx, Nx)
    elif cache.is_continuous:  # N = i*J with J real: mu = i*omega, so omega = -i*mu
        eigs = -1j * _finite_eigenvalues(Mx.real, Nx.imag)
    else:
        eigs = _finite_eigenvalues(Mx.real, Nx.real)
    split = _SPLIT_C * np.sqrt(np.finfo(float).eps * np.linalg.norm(Mx)) if cache.is_real else 0.0
    candidates = _boundary_points(eigs, not cache.is_continuous, split)
    if cache.is_real:
        candidates = np.abs(candidates)
    omegas = [float(w) for w in _cluster(candidates)
              if _confirmed_gamma(cache, xi, float(w))]
    flags = [False] * len(omegas)
    if injected is not None:
        w_inj = cache.fold(injected)
        near = [abs(w_inj - w) <= _CLUSTER_RTOL * (1.0 + abs(w_inj)) for w in omegas]
        if not any(near):
            omegas.append(w_inj)
            flags.append(True)
    order = np.argsort(omegas)
    return ZeroSet(
        omegas=np.array(omegas, dtype=float)[order],
        injected=np.array(flags, dtype=bool)[order],
    )


def negative_intervals(cache: EvalCache, zeros: ZeroSet, xi: float, *,
                       probed: float | None = None) -> list[NegativeInterval]:
    """Open intervals between consecutive zeros where gamma is negative.

    Midpoints of consecutive zero pairs are probed.  Real-data lists are
    folded (``gamma_zeros``) and closed by reflection: -w_first goes in front
    and, on the circle, 2*pi - w_last at the end, so the spans around 0 and
    pi have their midpoints there.  Complex-data lists on the circle get the
    smallest zero shifted by one full turn.  Each midpoint is folded
    (``cache.fold``) before it is probed, unless it equals ``probed``, a
    frequency where the caller has already seen gamma(xi, .) >= 0; on a
    resolvent pole it is no witness.  Continuous spans beyond the extreme
    zeros are not probed: gamma tends to lambda_min(D + D^H) - xi > 0 as
    |omega| grows, so they are positive for every xi below
    lambda_min(D + D^H), as for every library caller.  Above that value a
    direct caller gets no unbounded tail back, just as none comes back when
    the zero set is empty.
    """
    ws = list(map(float, zeros.omegas))
    if not ws:
        return []
    if cache.is_real:
        ws = [-ws[0]] + ws
        if not cache.is_continuous:
            ws.append(2.0 * np.pi - ws[-1])
    elif not cache.is_continuous:
        ws.append(ws[0] + 2.0 * np.pi)
    spans = [(w1, w2, 0.5 * (w1 + w2)) for w1, w2 in zip(ws[:-1], ws[1:])
             if w2 - w1 > _CLUSTER_RTOL * (1.0 + abs(w1))]
    intervals: list[NegativeInterval] = []
    for lo, hi, mid in spans:
        mid = cache.fold(mid)
        if mid == probed:
            continue
        g_mid = _gamma_or_inf(cache, xi, mid)
        if g_mid < 0.0:
            intervals.append(NegativeInterval(lo, hi, mid, g_mid))
    return intervals


def xi_roots_at_omega(cache: EvalCache, omega: float) -> np.ndarray:
    """All real shift values where gamma vanishes at a fixed frequency.

    The frozen-frequency pencil (a, b) = (M0 - s*N0, -(M1 - s*N1)) is linear
    in the shift, so its real eigenvalues enumerate the candidates; each is
    confirmed against gamma before being returned (sorted ascending).  b has
    condition number 2 and a closed-form inverse, so they are the
    eigenvalues of H = b^-1 a.  By the row blocks x, y, u of a (state,
    co-state, input), H is (-2*y, -2*x, u) in continuous time, a permutation
    and power-of-two scale that make b @ H == a exactly, and (-y, -x/s, u/2)
    in discrete time.
    """
    omega = require_finite(omega, "omega")
    s = omega if cache.is_continuous else np.exp(1j * omega)
    a, n = cache.M0 - s * cache.N0, cache.n
    x, y, u = a[:n], a[n:2 * n], a[2 * n:]
    h = np.concatenate([-2.0 * y, -2.0 * x, u] if cache.is_continuous else [-y, -x / s, 0.5 * u])
    cache.counts.pencil_solves += 1
    eigs = _finite_eigenvalues(h)
    candidates = _cluster(_boundary_points(eigs, False))
    if not cache.is_continuous:
        candidates = candidates[candidates < 1.0 - 1e-14]
    confirmed = [float(x) for x in candidates
                 if _confirmed_gamma(cache, float(x), omega)]
    return np.array(sorted(confirmed), dtype=float)
