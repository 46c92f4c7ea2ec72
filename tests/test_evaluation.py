import cmath

import numpy as np
import pytest
import scipy.linalg as sla

from ximargin import generate
from ximargin.evaluation import (
    PoleError,
    _boundary_shift,
    _gamma_or_inf,
    _sub_diagonal,
    build_cache,
    gamma,
    gamma_at_infinity,
    gamma_derivs_omega,
    gamma_derivs_xi,
    phi_eval,
)
from ximargin.pencils import ZeroSet
from ximargin.systems import StateSpaceSystem, TimeDomain

from test_systems import CONT_SCALAR, DISC_SCALAR, cont, disc, random_system


def dense_phi(system, xi, omega):
    """Reference evaluation through a dense inverse, no Schur reduction."""
    n, m = system.n, system.m
    if system.domain is TimeDomain.CONTINUOUS:
        w = 1j * omega - xi / 2.0
        T = system.C @ np.linalg.solve(w * np.eye(n) - system.A, system.B)
        T = T + system.D - (xi / 2.0) * np.eye(m)
    else:
        w = (1.0 - xi) * np.exp(1j * omega)
        T = system.C @ np.linalg.solve(w * np.eye(n) - system.A, system.B)
        T = (T + system.D - xi * np.eye(m)) / (1.0 - xi)
    phi = T.conj().T + T
    return 0.5 * (phi + phi.conj().T)


def gamma_and_gap(cache, xi, omega):
    """(lambda_min, gap to the next eigenvalue) of phi from one ``eigh``, as ``gamma``
    computes it; the gap is inf at m = 1.
    """
    lam = np.linalg.eigh(phi_eval(cache, xi, omega))[0]
    return float(lam[0]), (float(lam[1] - lam[0]) if len(lam) > 1 else np.inf)


def dense_gamma(system, xi, omega):
    return float(np.linalg.eigvalsh(dense_phi(system, xi, omega))[0])


def fd_derivatives(f, x, h):
    """Fourth-order central differences for f'(x) and f''(x)."""
    fm2, fm1, f0, fp1, fp2 = (f(x + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    return d1, d2


def assert_schur_form(cache, A):
    """T exactly upper triangular, Q unitary, ||Q T Q^H - A|| <= 1e-12 ||A||."""
    n = A.shape[0]
    assert np.all(np.tril(cache.T, -1) == 0.0)
    assert np.linalg.norm(cache.Q.conj().T @ cache.Q - np.eye(n), 2) <= 1e-13 * n
    recon = cache.Q @ cache.T @ cache.Q.conj().T
    assert np.linalg.norm(recon - A, 2) <= 1e-12 * np.linalg.norm(A, 2)


class TestBuildCache:
    def test_scalar(self):
        cache = build_cache(CONT_SCALAR)
        assert cache.T[0, 0] == -1.0
        assert abs(cache.Q[0, 0]) == 1.0
        assert (cache.CQ @ cache.QB)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_keeps_invariant(self):
        sys_r = cont(np.diag([-1.0, -2.0, -3.0]), np.ones((3, 1)), np.ones((1, 3)), [[1.0]])
        cache = build_cache(sys_r)
        assert_schur_form(cache, sys_r.A)
        np.testing.assert_allclose(np.sort(np.diagonal(cache.T).real), [-3.0, -2.0, -1.0])

    def test_random_reconstruction(self):
        for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
            cache = build_cache(random_system(6, 2, domain, seed=42))
            sys_b = cache.system  # the balanced model the cache was built from
            assert_schur_form(cache, sys_b.A)
            np.testing.assert_allclose(cache.CQ, sys_b.C @ cache.Q, atol=1e-14)
            np.testing.assert_allclose(cache.QB, cache.Q.conj().T @ sys_b.B, atol=1e-14)


class TestPhiEval:
    def test_cont_scalar_at_origin(self):
        cache = build_cache(CONT_SCALAR)
        np.testing.assert_allclose(phi_eval(cache, 0.0, 0.0), [[4.0]], atol=1e-14)

    def test_cont_scalar_at_one(self):
        cache = build_cache(CONT_SCALAR)
        np.testing.assert_allclose(phi_eval(cache, 0.0, 1.0), [[3.0]], atol=1e-14)

    def test_disc_scalar_at_pi(self):
        cache = build_cache(DISC_SCALAR)
        np.testing.assert_allclose(phi_eval(cache, 0.0, np.pi), [[0.0]], atol=1e-14)

    def test_hermitian_exact(self):
        sys_r = random_system(5, 2, TimeDomain.CONTINUOUS, seed=1)
        cache = build_cache(sys_r)
        phi = phi_eval(cache, 0.3, 1.7)
        assert np.linalg.norm(phi - phi.conj().T) == 0.0

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_matches_dense_inverse(self, domain):
        for seed in range(3):
            for n in (2, 7, 20):
                sys_r = random_system(n, 2, domain, seed=seed)
                cache = build_cache(sys_r)
                for xi, omega in ((0.0, 0.0), (0.1, 0.9), (-0.7, 2.3)):
                    got = phi_eval(cache, xi, omega)
                    ref = dense_phi(sys_r, xi, omega)
                    scale = max(1.0, np.linalg.norm(ref))
                    assert np.linalg.norm(got - ref) <= 1e-10 * scale

    def test_pole_raises(self):
        # Continuous pole: i*omega - xi/2 in the spectrum; scalar A=-1 at xi=2, omega=0.
        cache = build_cache(CONT_SCALAR)
        with pytest.raises(PoleError):
            phi_eval(cache, 2.0, 0.0)

    def test_pole_hit_exactly_at_n2(self):
        # the real eigenvalue -1.5 of A, hit exactly by w = -xi/2 at xi = 3, omega = 0
        cache = build_cache(cont([[-1.5, 1.0], [0.0, -0.5]], [[1.0], [1.0]], [[1.0, 0.5]], [[2.0]]))
        assert -1.5 in np.diagonal(cache.T)
        with pytest.raises(PoleError):
            phi_eval(cache, 3.0, 0.0)
        with pytest.raises(PoleError):
            gamma_derivs_xi(cache, 3.0, 0.0)
        assert _gamma_or_inf(cache, 3.0, 0.0) == np.inf
        assert np.isfinite(_gamma_or_inf(cache, 3.0, 1e-3))


class TestGamma:
    def test_cont_scalar(self):
        cache = build_cache(CONT_SCALAR)
        val = gamma(cache, 0.0, 0.0)
        assert type(val) is float
        assert val == pytest.approx(4.0, abs=1e-14)

    def test_disc_scalar(self):
        cache = build_cache(DISC_SCALAR)
        assert gamma(cache, 0.0, np.pi) == pytest.approx(0.0, abs=1e-14)

    def test_single_port_equals_phi_entry(self):
        sys_r = random_system(4, 1, TimeDomain.CONTINUOUS, seed=9)
        cache = build_cache(sys_r)
        phi = phi_eval(cache, 0.2, 0.8)
        assert gamma(cache, 0.2, 0.8) == pytest.approx(float(phi[0, 0].real), rel=1e-14)

    def test_real_data_symmetry(self):
        sys_r = random_system(5, 2, TimeDomain.CONTINUOUS, seed=3, real=True)
        assert sys_r.is_real
        cache = build_cache(sys_r)
        for omega in (0.3, 1.9, 11.0):
            g_plus = gamma(cache, 0.2, omega)
            g_minus = gamma(cache, 0.2, -omega)
            assert abs(g_plus - g_minus) <= 1e-12 * max(1.0, abs(g_plus))

    def test_continuous_tail(self):
        sys_r = random_system(4, 2, TimeDomain.CONTINUOUS, seed=8)
        cache = build_cache(sys_r)
        xi = 0.3
        omega = 1e3 * (np.linalg.norm(sys_r.A, 2) + abs(xi))
        tail = gamma(cache, xi, omega)
        limit = gamma_at_infinity(cache, xi)
        bc = np.linalg.norm(sys_r.B, 2) * np.linalg.norm(sys_r.C, 2)
        assert abs(tail - limit) <= 1e-2 * bc


class TestGammaAtInfinity:
    def test_trivial(self):
        cache = build_cache(CONT_SCALAR)
        assert gamma_at_infinity(cache, 0.0) == pytest.approx(2.0)
        assert gamma_at_infinity(cache, 2.0) == pytest.approx(0.0)

    def test_matches_dense_eig(self):
        sys_r = random_system(3, 3, TimeDomain.CONTINUOUS, seed=21)
        cache = build_cache(sys_r)
        xi = 0.77
        shifted = sys_r.D.conj().T + sys_r.D - xi * np.eye(3)
        ref = np.linalg.eigvalsh(0.5 * (shifted + shifted.conj().T))[0]
        assert gamma_at_infinity(cache, xi) == pytest.approx(float(ref), rel=1e-12)

    def test_discrete_rejected(self):
        cache = build_cache(DISC_SCALAR)
        with pytest.raises(Exception):
            gamma_at_infinity(cache, 0.0)


FOLD_MODELS = {
    "cont-real": CONT_SCALAR,
    "cont-cplx": cont([[-1.0 + 0.5j]], [[1.0]], [[1.0]], [[1.0]]),
    "disc-real": DISC_SCALAR,
    "disc-cplx": disc([[0.3j]], [[1.0]], [[1.0]], [[1.0]]),
}


class TestFold:
    @pytest.mark.parametrize("omega", [0.0, 0.3, -2.0, np.pi, -np.pi, 3.0 * np.pi, -7.5, 1e9])
    @pytest.mark.parametrize("kind", list(FOLD_MODELS))
    def test_fixed_point_in_domain(self, kind, omega):
        cache = build_cache(FOLD_MODELS[kind])
        assert cache.is_real == kind.endswith("real")
        w = cache.fold(omega)
        assert cache.fold(w) == w
        if not cache.is_continuous:
            assert -np.pi < w <= np.pi
        if cache.is_real:
            assert w >= 0.0

    @pytest.mark.parametrize("kind", ["disc-real", "disc-cplx"])
    def test_circle_ends_at_pi(self, kind):
        cache = build_cache(FOLD_MODELS[kind])
        assert cache.fold(3.0 * np.pi) == np.pi
        assert cache.fold(-np.pi) == np.pi

    def test_real_data_folds_to_nonnegative(self):
        assert build_cache(FOLD_MODELS["cont-real"]).fold(-2.0) == 2.0
        assert build_cache(FOLD_MODELS["disc-real"]).fold(-2.0) == 2.0
        assert build_cache(FOLD_MODELS["disc-cplx"]).fold(-2.0) == -2.0

    def test_complex_continuous_has_no_clip(self):
        cache = build_cache(FOLD_MODELS["cont-cplx"])
        assert cache.fold(1e9) == 1e9
        assert cache.fold(-1e9) == -1e9


class TestDerivatives:
    def test_cont_stationary_at_zero(self):
        cache = build_cache(CONT_SCALAR)
        dw = gamma_derivs_omega(cache, 0.0, 0.0)
        assert dw.d1 == pytest.approx(0.0, abs=1e-13)

    def test_cont_omega_fd(self):
        cache = build_cache(CONT_SCALAR)
        dw = gamma_derivs_omega(cache, 0.0, 1.0)
        fd1, fd2 = fd_derivatives(lambda w: gamma(cache, 0.0, w), 1.0, 1e-3)
        assert dw.d1 == pytest.approx(fd1, rel=1e-6)
        assert dw.d2 == pytest.approx(fd2, rel=1e-6)

    def test_disc_scalar_at_pi(self):
        cache = build_cache(DISC_SCALAR)
        dw = gamma_derivs_omega(cache, 0.0, np.pi)
        assert dw.gamma == pytest.approx(0.0, abs=1e-13)
        assert dw.d1 == pytest.approx(0.0, abs=1e-13)
        assert dw.d2 == pytest.approx(2.0, rel=1e-12)

    def test_cont_xi_trivial_points(self):
        cache = build_cache(CONT_SCALAR)
        assert gamma_derivs_xi(cache, 0.0, 0.0).d1 == pytest.approx(0.0, abs=1e-13)
        assert gamma_derivs_xi(cache, 0.0, 1.0).d1 == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_fd_agreement_random_points(self, domain):
        rng = np.random.default_rng(17)
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            sys_r = random_system(rng.integers(2, 7), rng.integers(1, 4), domain, seed=seed)
            cache = build_cache(sys_r)
            xi = float(rng.uniform(-0.5, 0.5))
            omega = float(rng.uniform(-3.0, 3.0))
            try:
                val, gap = gamma_and_gap(cache, xi, omega)
            except PoleError:
                continue
            if gap < 1e-3:
                continue
            dw = gamma_derivs_omega(cache, xi, omega)
            dx = gamma_derivs_xi(cache, xi, omega)
            if not (dw.d2_reliable and dx.d2_reliable):
                continue
            fw1, fw2 = fd_derivatives(lambda w: gamma(cache, xi, w), omega, 1e-3)
            fx1, fx2 = fd_derivatives(lambda x: gamma(cache, x, omega), xi, 1e-3)
            floor = 1e-8 * max(1.0, abs(val))
            assert abs(dw.d1 - fw1) <= 1e-6 * max(abs(fw1), floor)
            assert abs(dw.d2 - fw2) <= 1e-6 * max(abs(fw2), floor * 10)
            assert abs(dx.d1 - fx1) <= 1e-6 * max(abs(fx1), floor)
            assert abs(dx.d2 - fx2) <= 1e-6 * max(abs(fx2), floor * 10)
            checked += 1
        assert checked == 20

    def test_cache_shareable_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        sys_r = random_system(5, 2, TimeDomain.CONTINUOUS, seed=6)
        cache = build_cache(sys_r)
        points = [(0.01 * k, 0.1 * k - 2.0) for k in range(40)]
        serial = [gamma(cache, xi, w) for xi, w in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda p: gamma(cache, *p), points))
        assert serial == parallel

    def test_multiple_eigenvalue_flagged(self):
        # Diagonal decoupled two-port tuned so the two eigenvalues cross.
        A = np.diag([-1.0, -1.0])
        B = np.eye(2)
        C = np.eye(2)
        D = np.eye(2)
        sys_r = cont(A, B, C, D)
        cache = build_cache(sys_r)
        dw = gamma_derivs_omega(cache, 0.0, 0.0)
        assert not dw.d2_reliable


def reference_chain(cache, xi, omega, depth):
    """(G, [Z_1..Z_depth]) in the plain formulation: ``solve_triangular`` with w I - T."""
    w = _boundary_shift(cache, xi, omega)
    R = w * np.eye(cache.n) - cache.T
    scale = max(np.abs(R).max(), 1.0)
    if (not np.all(np.isfinite(R))) or np.abs(np.diagonal(R)).min() <= 1e-300 * scale:
        raise PoleError(w)
    Z, X = [], cache.QB
    for _ in range(depth):
        X = sla.solve_triangular(R, X, check_finite=False)
        Z.append(cache.CQ @ X)
    eye = np.eye(cache.m)
    if cache.is_continuous:
        G = Z[0] + cache.system.D - (xi / 2.0) * eye
    else:
        G = (Z[0] + cache.system.D - xi * eye) / (1.0 - xi)
    if not all(np.all(np.isfinite(Zk)) for Zk in Z):
        raise PoleError(w)
    return G, Z


def reference_derivatives(G, dG, ddG):
    """(gamma, d1, d2, d2_reliable) from one ``eigh`` at every order, as in the module docstring."""
    phi, d_phi, dd_phi = (M.conj().T + M for M in (G, dG, ddG))
    lam, V = np.linalg.eigh(phi)
    v = V[:, 0]
    d1 = float(np.real(v.conj() @ d_phi @ v))
    d2 = float(np.real(v.conj() @ dd_phi @ v))
    gap = np.inf
    if phi.shape[0] > 1:
        coup = V[:, 1:].conj().T @ d_phi @ v
        denom = lam[0] - lam[1:]
        keep = denom != 0.0
        d2 += float(2.0 * np.sum(np.abs(coup[keep]) ** 2 / denom[keep]))
        gap = float(lam[1] - lam[0])
    phi_norm = max(abs(float(lam[0])), abs(float(lam[-1])), 1.0)
    return (float(lam[0]), d1, d2, gap > 1e-8 * phi_norm)


def reference_evaluation(cache, xi, omega):
    """phi, gamma and the (omega, xi) derivative tuples, all in the plain formulation."""
    G, (_, Z2, Z3) = reference_chain(cache, xi, omega, depth=3)
    phi = G.conj().T + G
    eye = np.eye(cache.m)
    if cache.is_continuous:
        d_omega = (-1j * Z2, -2.0 * Z3)
        d_xi = (0.5 * (Z2 - eye), 0.5 * Z3)
    else:
        eiw = cmath.exp(1j * omega)
        d_omega = (-1j * eiw * Z2, eiw * Z2 - 2.0 * (1.0 - xi) * eiw * eiw * Z3)
        dG = (G + eiw * Z2 - eye) / (1.0 - xi)
        d_xi = (dG, (2.0 / (1.0 - xi)) * (eiw * eiw * Z3 + dG))
    return (phi, float(np.linalg.eigh(phi)[0][0]),
            reference_derivatives(G, *d_omega), reference_derivatives(G, *d_xi))


PIN_POINTS = [(xi, omega) for xi in (0.0, 0.25, -0.4) for omega in (0.0, 0.6, -1.7, 2.9)]


@pytest.fixture(scope="module")
def pin_systems():
    """The 24 suite systems and an n = 20 two-port draw per domain."""
    draws = [(f"{d.value}-n20", generate.random_system(20, 2, d, seed=11))
             for d in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE)]
    return generate.oracle_suite() + draws


class TestSameBits:
    """The lean path returns the plain formulation's values bit for bit."""

    def test_against_plain_formulation(self, pin_systems):
        for name, system in pin_systems:
            cache = build_cache(system)
            for xi, omega in PIN_POINTS:
                where = (name, xi, omega)
                phi, g, d_omega, d_xi = reference_evaluation(cache, xi, omega)
                assert np.array_equal(phi_eval(cache, xi, omega), phi), where
                assert gamma(cache, xi, omega) == g, where
                assert tuple(gamma_derivs_omega(cache, xi, omega)) == d_omega, where
                assert tuple(gamma_derivs_xi(cache, xi, omega)) == d_xi, where

    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_sub_diagonal_writes_through_any_layout(self, layout):
        M = np.arange(9.0).reshape(3, 3) + 1j
        M = {"C": M, "F": np.asfortranarray(M), "transposed": M.T}[layout]
        expected = M - 2.5 * np.eye(3)
        assert _sub_diagonal(M, 2.5) is M and np.array_equal(M, expected)

    def test_order_one_eigenvalue_is_eigh(self, pin_systems):
        singles = [(name, s) for name, s in pin_systems if s.m == 1]
        assert len(singles) == 12
        for name, system in singles:
            cache = build_cache(system)
            for xi, omega in PIN_POINTS:
                phi = phi_eval(cache, xi, omega)
                lam = np.linalg.eigh(phi)[0]
                assert gamma(cache, xi, omega) == lam[0], (name, xi, omega)
                assert gamma_derivs_xi(cache, xi, omega).gamma == lam[0], (name, xi, omega)


_TWO_STATE = random_system(2, 2, TimeDomain.CONTINUOUS, seed=5)
ARRAY_HOLDERS = {
    "StateSpaceSystem": lambda: StateSpaceSystem(
        _TWO_STATE.A, _TWO_STATE.B, _TWO_STATE.C, _TWO_STATE.D, _TWO_STATE.domain),
    "EvalCache": lambda: build_cache(_TWO_STATE),
    "ZeroSet": lambda: ZeroSet(omegas=np.array([0.5, 1.5]), injected=np.array([False, True])),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    # no array-wise truth value: equal content is still another object
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
