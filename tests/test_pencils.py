import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

import ximargin.evaluation as evaluation
import ximargin.generate as generate
import ximargin.pencils as pencils
from ximargin.baselines import compute_xi_bisection, compute_xi_mp
from ximargin.drivers import compute_xi_cont, compute_xi_disc, find_negative
from ximargin.evaluation import (
    build_cache,
    gamma,
    gamma_derivs_omega,
    gamma_derivs_xi,
    phi_eval,
)
from ximargin.pencils import (
    SingularBlockError,
    ZeroSet,
    build_hamiltonian_cont,
    build_pencil,
    build_symplectic_disc,
    gamma_zeros,
    negative_intervals,
    xi_roots_at_omega,
)
from ximargin.generate import oracle_suite
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    _pencil_terms,
    xi_bracket,
)

from test_systems import CONT_SCALAR, DISC_SCALAR, cont, random_system

# oracle margins of the oracle_suite() systems, stored with the benchmark
SUITE_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "suite.json"


def passive_random(n, m, domain, seed, real=False):
    """Random model that is strictly passive at xi=0 (D-dominant construction)."""
    rng = np.random.default_rng(seed)

    def draw(r, c):
        M = rng.standard_normal((r, c))
        if not real:
            M = M + 1j * rng.standard_normal((r, c))
        return M

    A = draw(n, n)
    if domain is TimeDomain.CONTINUOUS:
        A = A - (np.linalg.eigvals(A).real.max() + 0.4) * np.eye(n)
    else:
        A = 0.6 * A / np.abs(np.linalg.eigvals(A)).max()
    B = draw(n, m)
    C = B.conj().T if domain is TimeDomain.CONTINUOUS else draw(m, n)
    D = draw(m, m)
    herm = D.conj().T + D
    lift = max(0.0, 0.5 - np.linalg.eigvalsh(0.5 * (herm + herm.conj().T))[0])
    D = D + (0.5 * lift + 0.25) * np.eye(m)
    return StateSpaceSystem(A, B, C, D, domain)


def grid_zero_crossings(cache, xi, w_lo, w_hi, npoints=20000):
    """Brute-force roots of gamma over a frequency window via sign changes."""
    ws = np.linspace(w_lo, w_hi, npoints)
    gs = np.array([gamma(cache, xi, w) for w in ws])
    roots = []
    for i in range(len(ws) - 1):
        if gs[i] == 0.0:
            roots.append(ws[i])
        elif gs[i] * gs[i + 1] < 0.0:
            roots.append(brentq(lambda w: gamma(cache, xi, w), ws[i], ws[i + 1],
                                xtol=1e-12))
    return np.array(roots)


class TestContinuousPencil:
    def test_scalar_blocks(self):
        Mx, N = build_pencil(build_cache(CONT_SCALAR), 0.0)
        np.testing.assert_allclose(Mx, [[0, -1, 1], [-1, 0, 1], [1, 1, 2]], atol=1e-15)
        np.testing.assert_allclose(N, [[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]], atol=1e-15)

    def test_hermitian_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            sys_r = random_system(3, 2, TimeDomain.CONTINUOUS, seed=seed)
            xi = float(rng.uniform(-2, 2))
            Mx, N = build_pencil(build_cache(sys_r), xi)
            assert np.linalg.norm(Mx - Mx.conj().T) == 0.0 or \
                np.linalg.norm(Mx - Mx.conj().T) <= 1e-13 * np.linalg.norm(Mx)
            assert np.linalg.norm(N - N.conj().T) == 0.0

    def test_real_eigenvalues_match_grid_zeros(self):
        for seed in (1, 4):
            sys_r = passive_random(3, 1, TimeDomain.CONTINUOUS, seed=seed)
            cache = build_cache(sys_r)
            # Pick a shift inside the bracket with actual zero crossings.
            from ximargin.systems import xi_bracket
            br = xi_bracket(sys_r)
            xi = br.xi_ub - 0.05 * (br.xi_ub - br.xi_lb)
            zs = gamma_zeros(cache, xi)
            wmax = 2.0 * (np.abs(zs.omegas).max() if len(zs) else 1.0) + 5.0
            brute = grid_zero_crossings(cache, xi, -wmax, wmax)
            # every sign-change root must appear among pencil zeros
            for w in brute:
                assert np.min(np.abs(zs.omegas - w)) <= 1e-6 * (1.0 + abs(w))

    def test_zero_count_bound(self):
        from ximargin.systems import xi_bracket
        for seed in range(5):
            sys_r = passive_random(3, 2, TimeDomain.CONTINUOUS, seed=seed)
            br = xi_bracket(sys_r)
            cache = build_cache(sys_r)
            for frac in (0.25, 0.75):
                xi = br.xi_lb + frac * (br.xi_ub - br.xi_lb)
                zs = gamma_zeros(cache, xi)
                assert len(zs) <= 2 * sys_r.n


class TestHamiltonian:
    def test_cross_validation_with_pencil(self):
        for seed in (2, 5, 8):
            sys_r = passive_random(3, 2, TimeDomain.CONTINUOUS, seed=seed)
            xi = 0.1
            H = build_hamiltonian_cont(sys_r, xi)
            h_eigs = np.linalg.eigvals(H)
            imag_axis = h_eigs[np.abs(h_eigs.real) <= 1e-8 * np.maximum(1.0, np.abs(h_eigs))]
            Mx, N = build_pencil(build_cache(sys_r), xi)
            from ximargin.pencils import _finite_eigenvalues
            p_eigs = _finite_eigenvalues(Mx, N)
            p_real = p_eigs[np.abs(p_eigs.imag) <= 1e-8 * np.maximum(1.0, np.abs(p_eigs))].real
            assert len(imag_axis) == len(p_real)
            for w in np.sort(imag_axis.imag):
                assert np.min(np.abs(p_real - w)) <= 1e-8 * (1.0 + abs(w))

    def test_singular_feedthrough_raises(self):
        with pytest.raises(SingularBlockError):
            build_hamiltonian_cont(CONT_SCALAR, 2.0)

    def test_spectral_symmetry(self):
        sys_r = passive_random(4, 2, TimeDomain.CONTINUOUS, seed=13)
        H = build_hamiltonian_cont(sys_r, 0.2)
        eigs = np.linalg.eigvals(H)
        mirrored = -eigs.conj()
        for lam in eigs:
            assert np.min(np.abs(mirrored - lam)) <= 1e-8 * max(1.0, abs(lam))


class TestDiscretePencil:
    def test_scalar_blocks(self):
        Mx, Nx = build_pencil(build_cache(DISC_SCALAR), 0.0)
        np.testing.assert_allclose(Mx, [[0, 0, 1], [-1, 0, 0], [1, 1, 2]], atol=1e-15)
        np.testing.assert_allclose(Nx, [[0, 1, 0], [0, 0, -1], [0, 0, 0]], atol=1e-15)

    def test_scalar_double_unimodular_eigenvalue(self):
        Mx, Nx = build_pencil(build_cache(DISC_SCALAR), 0.0)
        from ximargin.pencils import _finite_eigenvalues
        eigs = _finite_eigenvalues(Mx, Nx)
        near = eigs[np.abs(eigs + 1.0) <= 1e-6]
        assert len(near) == 2

    @pytest.mark.parametrize("xi", [1.0, 1.5])
    def test_shift_at_or_above_one_rejected(self, xi):
        with pytest.raises(InvalidParameterError, match="xi < 1"):
            build_pencil(build_cache(DISC_SCALAR), xi)

    def test_unimodular_eigenvalues_match_grid_zeros(self):
        sys_r = passive_random(3, 1, TimeDomain.DISCRETE, seed=3)
        from ximargin.systems import xi_bracket
        br = xi_bracket(sys_r)
        xi = br.xi_ub - 0.05 * (br.xi_ub - br.xi_lb)
        cache = build_cache(sys_r)
        zs = gamma_zeros(cache, xi)
        brute = grid_zero_crossings(cache, xi, -np.pi + 1e-9, np.pi, npoints=20000)
        for w in brute:
            assert np.min(np.abs(zs.omegas - w)) <= 1e-6


class TestSymplectic:
    def test_identity_residual(self):
        for seed in (1, 6):
            sys_r = passive_random(3, 2, TimeDomain.DISCRETE, seed=seed)
            S, T = build_symplectic_disc(sys_r, 0.1)
            n = sys_r.n
            J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
            lhs = S.conj().T @ J @ S
            rhs = T.conj().T @ J @ T
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))

    def test_eigenvalue_pairing(self):
        sys_r = passive_random(3, 2, TimeDomain.DISCRETE, seed=9)
        S, T = build_symplectic_disc(sys_r, 0.05)
        from ximargin.pencils import _finite_eigenvalues
        eigs = _finite_eigenvalues(S, T)
        eigs = eigs[np.abs(eigs) > 1e-10]
        for lam in eigs:
            partner = 1.0 / np.conj(lam)
            assert np.min(np.abs(eigs - partner)) <= 1e-8 * max(1.0, abs(partner))

    def test_unimodular_match_with_pencil(self):
        sys_r = passive_random(3, 1, TimeDomain.DISCRETE, seed=3)
        from ximargin.systems import xi_bracket
        br = xi_bracket(sys_r)
        xi = br.xi_ub - 0.05 * (br.xi_ub - br.xi_lb)
        S, T = build_symplectic_disc(sys_r, xi)
        Mx, Nx = build_pencil(build_cache(sys_r), xi)
        from ximargin.pencils import _finite_eigenvalues
        s_eigs = _finite_eigenvalues(S, T)
        p_eigs = _finite_eigenvalues(Mx, Nx)
        s_uni = np.sort(np.angle(s_eigs[np.abs(np.abs(s_eigs) - 1.0) <= 1e-8]))
        p_uni = np.sort(np.angle(p_eigs[np.abs(np.abs(p_eigs) - 1.0) <= 1e-8]))
        assert len(s_uni) == len(p_uni)
        np.testing.assert_allclose(s_uni, p_uni, atol=1e-8)

    def test_singular_dtilde_raises(self):
        # D^H + D - 2 xi I singular at xi = 1 for D = 1.
        with pytest.raises(SingularBlockError):
            build_symplectic_disc(DISC_SCALAR, 0.9999999999999999)


def cluster_loop(values, rtol=1e-10):
    """Reference for ``pencils._cluster``: one pass over the sorted values."""
    if len(values) == 0:
        return values
    vals = np.sort(values)
    merged, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > rtol * (1.0 + abs(vals[i])):
            merged.append(vals[start:i].mean())
            start = i
    return np.array(merged)


def test_cluster_matches_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        base = rng.standard_normal(rng.integers(0, 6)) * rng.choice([1e-12, 1.0, 100.0])
        jitter = rng.standard_normal(len(base)) * rng.choice([1e-12, 1e-10, 1e-9])
        values = np.concatenate([base, base + jitter, -base])
        np.testing.assert_array_equal(pencils._cluster(values), cluster_loop(values))


@pytest.mark.parametrize("name", ["cont-n4-m2-cplx", "disc-n4-m1-real"])
def test_pencil_terms_built_once_per_cache(monkeypatch, name):
    # bisection solves some 45 pencils against its run's one cache
    system = dict(oracle_suite())[name]
    built = []

    def counted(sys_):
        built.append(sys_)
        return _pencil_terms(sys_)

    monkeypatch.setattr(evaluation, "_pencil_terms", counted)
    result = compute_xi_bisection(system)
    assert result.eig_counts.pencil_solves > 1
    assert len(built) == 1 and built[0] is system


def eig_reference(a, b):
    """``_finite_eigenvalues`` through ``scipy.linalg.eig``, the plain formulation."""
    alpha, beta = sla.eig(a, b, right=False, homogeneous_eigvals=True)
    scale = np.abs(alpha) + np.abs(beta)
    finite = np.abs(beta) > 1e-12 * np.where(scale > 0, scale, 1.0)
    return alpha[finite] / beta[finite]


def pin_pencils():
    """(where, a, b): each suite pencil at three shifts, and DISC_SCALAR's, in each arithmetic."""
    for name, system in [*oracle_suite(), ("DISC_SCALAR", DISC_SCALAR)]:
        cache = build_cache(system)
        for xi in (0.0, 0.1, 0.3):
            Mx, Nx = build_pencil(cache, xi)
            yield (name, xi, "complex"), Mx, Nx
            if system.is_real:
                yield (name, xi, "real"), Mx.real, (Nx.imag if system.is_continuous else Nx.real)


class TestQZSameBits:
    """The direct LAPACK call returns scipy.linalg.eig's eigenvalues bit for bit."""

    def test_against_scipy_eig(self):
        arithmetic = set()
        for where, a, b in pin_pencils():
            eigs = pencils._finite_eigenvalues(a, b)
            assert eigs.dtype == np.complex128, where
            assert np.array_equal(eigs, eig_reference(a, b)), where
            arithmetic.add(where[2])
        assert arithmetic == {"complex", "real"}


QZ_SYSTEMS = ["cont-n4-m2-cplx", "cont-n4-m1-real", "disc-n2-m2-cplx", "disc-n6-m2-real"]


@pytest.mark.parametrize("name", QZ_SYSTEMS)
def test_qz_calls_are_the_counted_pencil_solves(monkeypatch, name):
    # perfbench/layers.py times _finite_eigenvalues by name and reads the order
    # off args[0]; its trace check equates those calls with pencil_solves
    system = dict(oracle_suite())[name]
    order = 2 * system.n + system.m
    real_qz = pencils._finite_eigenvalues
    calls = []

    def spy(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, args, kwargs))
        return real_qz(*args, **kwargs)

    monkeypatch.setattr(pencils, "_finite_eigenvalues", spy)
    hec = compute_xi_cont if system.is_continuous else compute_xi_disc
    for solve in (hec, compute_xi_mp, compute_xi_bisection):
        calls.clear()
        result = solve(system)
        assert len(calls) == result.eig_counts.pencil_solves > 0, solve.__name__
        for caller, args, kwargs in calls:
            assert not kwargs and len(args) == 2
            assert all(x.shape == (order, order) for x in args)
            real = caller == "gamma_zeros" and system.is_real
            assert {x.dtype for x in args} == {np.dtype(float if real else complex)}, caller
        assert {caller for caller, _, _ in calls} <= {"gamma_zeros", "xi_roots_at_omega"}


class TestGammaZeros:
    def test_disc_scalar_tangential(self):
        # The tangential zero at pi comes from a double pencil eigenvalue; rounding
        # may split it into a +/- pair near the branch cut, but every reported zero
        # must sit at the circle point pi.
        cache = build_cache(DISC_SCALAR)
        zs = gamma_zeros(cache, 0.0)
        assert 1 <= len(zs) <= 2
        for w in zs.omegas:
            circle_dist = abs(np.angle(np.exp(1j * (w - np.pi))))
            assert circle_dist <= 1e-6

    def test_cont_scalar_tangential(self):
        # G(s) = s / (s + 2), so gamma(0, omega) = 2 omega^2 / (omega^2 + 4): a double
        # zero at omega = 0.  Complex QZ puts its eigenvalues at +/-1.29e-8 i, beyond
        # the realness tolerance; the real pencil must return the zero at 0 itself.
        cache = build_cache(cont([[-2.0]], [[1.0]], [[-2.0]], [[1.0]]))
        assert gamma(cache, 0.0, 0.0) == 0.0
        zs = gamma_zeros(cache, 0.0)
        assert zs.omegas.tolist() == [0.0]
        assert not zs.injected.any()

    @pytest.mark.parametrize("domain, s", [
        pytest.param(TimeDomain.CONTINUOUS, 0.0, id="cont-0"),
        pytest.param(TimeDomain.DISCRETE, 1.0, id="disc-0"),
        pytest.param(TimeDomain.DISCRETE, -1.0, id="disc-pi"),
    ])
    def test_real_tangential_zero_kept(self, domain, s):
        # D shifted so that gamma(0, .) touches zero at the boundary point s: a
        # double pencil eigenvalue that QZ splits by about sqrt(u), often across
        # the realness tolerance.  The zero set must keep it.
        rng = np.random.default_rng(4)
        for draw in range(12):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            if domain is TimeDomain.CONTINUOUS:
                A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
            else:
                A *= 0.7 / np.abs(np.linalg.eigvals(A)).max()
            B, C, D = (rng.standard_normal(shape) for shape in ((n, m), (m, n), (m, m)))
            G = C @ np.linalg.solve(s * np.eye(n) - A, B) + D
            D = D - 0.5 * np.linalg.eigvalsh(G + G.T)[0] * np.eye(m)
            zs = gamma_zeros(build_cache(StateSpaceSystem(A, B, C, D, domain)), 0.0)
            assert len(zs) and np.abs(zs.omegas - np.angle(s)).min() <= 1e-6, (draw, zs.omegas)

    def test_cont_scalar_empty(self):
        cache = build_cache(CONT_SCALAR)
        zs = gamma_zeros(cache, 0.0)
        assert len(zs) == 0

    def test_injection_contract(self):
        cache = build_cache(CONT_SCALAR)
        zs = gamma_zeros(cache, 0.0, injected=0.7)
        assert len(zs) == 1
        assert zs.omegas[0] == 0.7
        assert bool(zs.injected[0])

    def test_injection_on_circle_kept_exactly(self):
        # an angle already in (-pi, pi] must not be re-wrapped by rounding
        cache = build_cache(DISC_SCALAR)
        zs = gamma_zeros(cache, 0.0, injected=0.7)
        assert zs.omegas[zs.injected].tolist() == [0.7]

    def test_counters(self):
        cache = build_cache(DISC_SCALAR)
        gamma_zeros(cache, 0.0)
        assert cache.counts.pencil_solves == 1
        assert cache.counts.small_solves >= 1
        # one order-m eigensolve per point or derivative evaluation, none for phi alone
        cache = build_cache(DISC_SCALAR)
        for evaluate, added in ((gamma, 1), (gamma_derivs_xi, 1),
                                (gamma_derivs_omega, 1), (phi_eval, 0)):
            before = cache.counts.small_solves
            evaluate(cache, 0.0, 0.3)
            assert cache.counts.small_solves == before + added, evaluate.__name__
        assert cache.counts.pencil_solves == 0


    def test_real_zeros_folded_once_per_pair(self):
        # Just above its margin disc-n2-m1-real is negative on two arcs of
        # width 1.5e-7, at omega = +/-1.2014795.  The real QZ returns the
        # pencil's 4 zeros as exact conjugate pairs, so the folded set holds
        # each arc end once, and never a negative frequency.
        system = dict(oracle_suite())["disc-n2-m1-real"]
        cache = build_cache(system)
        xi = 0.17919485896515785  # a midpoint that bisection evaluates
        zs = gamma_zeros(cache, xi)
        assert np.all(zs.omegas >= 0.0)
        assert len(zs) == 2
        (iv,) = negative_intervals(cache, zs, xi)
        assert 1.2014794 < iv.omega_lo < iv.omega_hi < 1.2014796
        # no negative region is lost: bisection still meets the reference
        refs = json.loads(SUITE_REFS.read_text())
        ref = next(r["xi"] for r in refs["systems"] if r["name"] == "disc-n2-m1-real")
        assert abs(compute_xi_bisection(system).xi - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("domain, n, m, seed", [
        pytest.param(TimeDomain.CONTINUOUS, 2, 2, 1, id="cont-n2-around-0"),
        pytest.param(TimeDomain.CONTINUOUS, 4, 1, 5, id="cont-n4-interior"),
        pytest.param(TimeDomain.DISCRETE, 2, 1, 1, id="disc-n2-around-pi"),
        pytest.param(TimeDomain.DISCRETE, 4, 1, 1, id="disc-n4-around-0-and-pi"),
    ])
    def test_real_data_certification(self, domain, n, m, seed):
        # criterion 5 for real draws: above the margin, every sign change of
        # gamma on [0, W] ([0, pi] on the circle) lies in a returned interval
        sys_ = generate.random_system(n, m, domain, seed=seed, margin=0.05, complex_data=False)
        ub = xi_bracket(sys_).xi_ub
        xi_star = compute_xi_mp(sys_).xi
        cache = build_cache(sys_)
        for frac in (0.2, 0.7):
            xi = xi_star + frac * (ub - xi_star)
            zs = gamma_zeros(cache, xi)
            assert np.all(zs.omegas >= 0.0) and len(zs) <= 2 * n
            negs = negative_intervals(cache, zs, xi)
            assert negs
            w_hi = 2.0 * zs.omegas.max() + 5.0 if domain is TimeDomain.CONTINUOUS else np.pi
            ws = np.linspace(0.0, w_hi, 1000)
            vals = np.array([gamma(cache, xi, w) for w in ws])
            step = ws[1] - ws[0]
            for i in np.where(vals[:-1] * vals[1:] < 0.0)[0]:
                lo, hi = ws[i] - step, ws[i + 1] + step
                assert any(iv.omega_lo <= hi and lo <= iv.omega_hi for iv in negs), (xi, ws[i])


class TestNegativeIntervals:
    def test_disc_interval_containing_pi(self):
        # real data: one folded zero, reflected about pi to close the circle
        xi = 0.2
        cache = build_cache(DISC_SCALAR)
        zs = gamma_zeros(cache, xi)
        expected = np.arccos(-((1 - xi) ** 2))
        assert len(zs) == 1
        np.testing.assert_allclose(zs.omegas, [expected], atol=1e-7)
        negs = negative_intervals(cache, zs, xi)
        assert len(negs) == 1
        lo, hi = negs[0].omega_lo, negs[0].omega_hi
        assert lo <= np.pi <= hi
        assert negs[0].omega_mid == np.pi
        assert negs[0].gamma_mid < 0

    def test_empty_zeroset(self):
        cache = build_cache(DISC_SCALAR)
        zs = ZeroSet(omegas=np.array([]), injected=np.array([], dtype=bool))
        assert negative_intervals(cache, zs, 0.0) == []

    @pytest.mark.parametrize("real", [True, False], ids=["real", "cplx"])
    def test_cont_probes_only_spans_between_zeros(self, real):
        # gamma -> lambda_min(D + D^H) - xi > 0 as |omega| grows: the tails need no probe
        a = -1.0 if real else -1.0 + 0.5j
        cache = build_cache(cont([[a]], [[1.0]], [[1.0]], [[1.0]]))
        zs = ZeroSet(omegas=np.array([0.5, 1.5]), injected=np.array([False, False]))
        negative_intervals(cache, zs, 0.0)
        # real data: the reflected span (-0.5, 0.5) and (0.5, 1.5); complex: (0.5, 1.5)
        assert cache.counts.small_solves == (2 if real else 1)

    def test_tangential_zero_no_interval(self):
        cache = build_cache(DISC_SCALAR)
        zs = gamma_zeros(cache, 0.0)
        assert negative_intervals(cache, zs, 0.0) == []


class TestXiRootsAtOmega:
    def test_disc_scalar_at_pi(self):
        cache = build_cache(DISC_SCALAR)
        roots = xi_roots_at_omega(cache, np.pi)
        assert len(roots) >= 1
        assert np.min(np.abs(roots - 0.0)) <= 1e-8

    def test_agreement_with_scalar_root_finding(self):
        for seed, domain in ((3, TimeDomain.CONTINUOUS), (3, TimeDomain.DISCRETE)):
            sys_r = passive_random(3, 1, domain, seed=seed)
            from ximargin.systems import xi_bracket
            br = xi_bracket(sys_r)
            cache = build_cache(sys_r)
            rng = np.random.default_rng(seed)
            for omega in rng.uniform(0.2, 2.8, size=3):
                roots = xi_roots_at_omega(cache, float(omega))
                roots = roots[(roots > br.xi_lb) & (roots < br.xi_ub)]
                g_of_xi = lambda x: gamma(cache, float(x), float(omega))
                for r in roots:
                    # polish with an independent bracketing root-finder nearby
                    h = 1e-4 * (1.0 + abs(r))
                    lo, hi = r - h, r + h
                    if g_of_xi(lo) * g_of_xi(hi) < 0:
                        ref = brentq(g_of_xi, lo, hi, xtol=1e-12)
                        assert abs(ref - r) <= 1e-10 * (1.0 + abs(ref))

    def test_no_real_roots(self):
        cache = build_cache(CONT_SCALAR)
        roots = xi_roots_at_omega(cache, 0.0)
        assert len(roots) == 0

    def test_meets_hec_pseudoroots(self, suite_results):
        # MP's frozen-frequency axis and HEC's fixed-shift axis are one pencil
        for row in suite_results["rows"]:
            pr = row.hec.pseudoroots[-1]
            roots = xi_roots_at_omega(build_cache(row.system), pr.x)
            assert len(roots) > 0, row.name
            assert np.abs(roots - pr.eps).min() <= 1e-8 * (1.0 + abs(pr.eps)), row.name


NONFINITE_CALLS = {
    "gamma-xi": lambda cache, v: gamma(cache, v, 0.3),
    "gamma-omega": lambda cache, v: gamma(cache, 0.0, v),
    "build_pencil-xi": lambda cache, v: build_pencil(cache, v),
    "gamma_zeros-xi": lambda cache, v: gamma_zeros(cache, v),
    "gamma_zeros-injected": lambda cache, v: gamma_zeros(cache, 0.0, injected=v),
    "xi_roots_at_omega-omega": lambda cache, v: xi_roots_at_omega(cache, v),
    "find_negative-xi": lambda cache, v: find_negative(cache, v),
    "find_negative-injected": lambda cache, v: find_negative(cache, 0.0, injected=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", NONFINITE_CALLS.values(), ids=NONFINITE_CALLS.keys())
@pytest.mark.parametrize("system", [CONT_SCALAR, DISC_SCALAR], ids=["cont", "disc"])
def test_nonfinite_input_rejected(system, call, value):
    # a typed error before any pencil solve, never a NaN zero set or "no witness"
    cache = build_cache(system)
    with pytest.raises(InvalidParameterError, match="must be finite"):
        call(cache, value)
    assert cache.counts.pencil_solves == 0
