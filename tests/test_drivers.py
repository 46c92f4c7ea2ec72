import json

import numpy as np
import pytest

import ximargin.baselines as baselines
import ximargin.drivers as drivers
import ximargin.pencils as pencils
from ximargin.baselines import compute_xi_bisection, compute_xi_mp
from ximargin.drivers import (
    Certificate,
    compute_xi_cont,
    compute_xi_disc,
    find_negative,
    initial_negative_search,
    probe_near_zeros,
    select_interval,
)
from ximargin.evaluation import build_cache, gamma
from ximargin.generate import oracle_suite, random_system
from ximargin.hec import ConvergenceError
from ximargin.pencils import NegativeInterval, ZeroSet, gamma_zeros, negative_intervals
from ximargin.systems import (
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    Tolerances,
    shifted_system,
    spectral_bounds,
)

from test_pencils import SUITE_REFS
from test_systems import CONT_SCALAR, CONT_GAIN2, DISC_SCALAR, cont, diagonally_scaled, disc


DAMPED_OSC = cont([[0.0, 1.0], [-1.0, -0.2]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.5]])
# G(z) = 0.2 + 0.01/z: strictly passive, and gamma(0.5, .) < 0 on the whole circle
DISC_WEAK = disc([[0.0]], [[0.1]], [[0.1]], [[0.2]])


class TestClosedFormAnchors:
    def test_cont_scalar_degenerate_bracket(self):
        res = compute_xi_cont(CONT_SCALAR)
        assert res.xi == 2.0
        assert res.certificate is Certificate.BRACKET_DEGENERATE
        assert res.restarts == 0
        assert res.bracket.xi_ub == pytest.approx(2.0, abs=1e-14)
        assert res.bracket.xi_lb == pytest.approx(2.0, abs=1e-12)

    def test_cont_gain2_stability_limited(self):
        tau = 1e-14
        res = compute_xi_cont(CONT_GAIN2, tol=Tolerances(tau=tau))
        assert res.xi == pytest.approx(2.0 * (1.0 - tau), abs=1e-15)
        assert res.certificate is Certificate.NO_NEGATIVE_REGION

    def test_disc_scalar_zero_margin(self):
        tau = 1e-10
        res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=tau))
        assert abs(res.xi) <= tau * (1.0 + 1e-6)
        assert res.certificate is Certificate.NO_NEGATIVE_REGION
        assert len(res.pseudoroots) == 1
        assert abs(res.pseudoroots[0].x) == pytest.approx(np.pi, abs=1e-8)

    def test_damped_oscillator_matches_oracle(self):
        from ximargin.baselines import oracle_xi
        res = compute_xi_cont(DAMPED_OSC)
        ref = oracle_xi(DAMPED_OSC, grid_size=50_000, tol=1e-12)
        assert res.xi == pytest.approx(ref, rel=1e-10)
        assert res.xi < 0  # feedthrough below the passivity threshold

    def test_domain_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            compute_xi_cont(DISC_SCALAR)
        with pytest.raises(InvalidParameterError):
            compute_xi_disc(CONT_SCALAR)


class TestRestartLoop:
    @pytest.mark.parametrize("solve, module, budget", [
        (compute_xi_cont, drivers, "_MAX_RESTARTS"),
        (compute_xi_mp, baselines, "_MP_MAX_ITER"),
    ])
    def test_exhausted_budget_raises_with_trace(self, monkeypatch, solve, module, budget):
        full = solve(DAMPED_OSC)
        # the one allowed pass takes a step, and certifying needs another
        assert full.restarts >= 1
        monkeypatch.setattr(module, budget, 1)
        with pytest.raises(ConvergenceError) as err:
            solve(DAMPED_OSC)
        assert err.value.trace == full.iterates[:1]

    def test_split_tangency_certified(self):
        # the margin is a tangency that the real QZ splits into a mirror pair off
        # the boundary.  With a complex QZ, HEC crept by tau*|xi| per restart until
        # its budget ran out; counting only split pairs on the real axis took 16
        # pencil solves
        system = random_system(12, 3, TimeDomain.DISCRETE, seed=180, margin=0.05,
                               complex_data=False, d_floor=1.05)
        ref = compute_xi_bisection(system).xi
        res = compute_xi_disc(system)
        assert abs(res.xi - ref) <= 1e-8 * abs(ref)
        assert res.eig_counts.pencil_solves <= 6

    def test_bracket_top_at_the_evaluated_poles(self):
        # eigvals(A) put 1 - rho at 0.05000000000000171, above the pole the
        # Schur diagonal gives at 0.0500000000000004: HEC raised PoleError there
        system = random_system(3, 1, TimeDomain.DISCRETE, seed=313, margin=0.05,
                               complex_data=False, d_floor=1.05)
        ref = compute_xi_bisection(system).xi
        res = compute_xi_disc(system)
        assert abs(res.xi - ref) <= 1e-8 * (1.0 + abs(ref))

    @pytest.mark.parametrize("k", [5, 9])
    def test_small_margins(self, suite_results, k):
        # gamma resolves a zero in xi only to a few ulps absolute: a back-off of
        # tau*|root| fell below that at these margins, and HEC crept by about
        # tau*|xi| per restart until its budget ran out
        for row in suite_results["rows"]:
            system = shifted_system(row.system, row.bisection.xi - 10.0 ** -k)
            ref = compute_xi_bisection(system)
            solve = compute_xi_cont if system.is_continuous else compute_xi_disc
            res = solve(system)
            assert res.certificate is Certificate.NO_NEGATIVE_REGION, row.name
            assert res.restarts <= 3, row.name
            assert abs(res.xi - ref.xi) <= 2.0 * ref.tolerance * (1.0 + abs(ref.xi)), row.name


class TestInitialNegativeSearch:
    def test_immediate_hit(self):
        # gamma(0.5, .) < 0 on the whole circle, so the omega = 0 probe hits
        cache = build_cache(DISC_WEAK)
        xi0 = 0.5
        w = initial_negative_search(cache, xi0)
        assert w == 0.0 and cache.counts.small_solves == 1
        assert gamma(cache, xi0, w) < 0

    def test_grid_finds_negative_region_discrete(self):
        cache = build_cache(DISC_SCALAR)
        xi0 = 0.5 * (1.0 - 1e-10)
        w = initial_negative_search(cache, xi0)
        assert w is not None
        assert gamma(cache, xi0, w) < 0
        assert abs(w) > 2.0  # negativity sits around the far end of the circle
        # real data: the grid covers [0, pi]; the witness is its point of least gamma
        grid = np.linspace(0.0, np.pi, drivers._SEARCH_GRID)
        values = [gamma(cache, xi0, float(g)) for g in grid]
        assert w == grid[int(np.argmin(values))]

    def test_absent_when_positive_everywhere(self):
        cache = build_cache(CONT_SCALAR)
        assert initial_negative_search(cache, 0.0) is None

    @pytest.mark.parametrize("domain, complex_data, grid_points", [
        pytest.param(TimeDomain.CONTINUOUS, False, drivers._SEARCH_GRID // 2, id="cont-real"),
        pytest.param(TimeDomain.CONTINUOUS, True, drivers._SEARCH_GRID, id="cont-complex"),
        pytest.param(TimeDomain.DISCRETE, False, drivers._SEARCH_GRID - 1, id="disc-real"),
        pytest.param(TimeDomain.DISCRETE, True, drivers._SEARCH_GRID, id="disc-complex"),
    ])
    def test_counts_evaluations(self, domain, complex_data, grid_points):
        # random_system checks strict passivity at 0: the whole grid is evaluated, in vain
        cache = build_cache(random_system(3, 2, domain, seed=5, complex_data=complex_data))
        assert initial_negative_search(cache, 0.0) is None
        # the probe at 0, then the grid without that point
        assert cache.counts.small_solves == 1 + grid_points


class TestFindNegative:
    def test_probe_hit_solves_no_pencil(self):
        cache = build_cache(DISC_WEAK)
        # a discrete first pass probes omega = 0, and the hit decides
        assert find_negative(cache, 0.5) == 0.0
        assert cache.counts.pencil_solves == 0 and cache.counts.small_solves == 1
        # once a root's frequency is injected there is no probe: the pencil decides
        after = build_cache(DISC_WEAK)
        assert find_negative(after, 0.5, injected=1.0) is not None
        assert after.counts.pencil_solves == 1

    @pytest.mark.parametrize("injected", [1.0, np.pi, 0.0])
    def test_whole_circle_negative_found_through_pencil(self, injected):
        # no unimodular pencil eigenvalue; the injected zero's spans cover the circle
        cache = build_cache(DISC_WEAK)
        ws = np.linspace(-np.pi, np.pi, 721)
        assert max(gamma(build_cache(DISC_WEAK), 0.5, float(w)) for w in ws) < 0
        w = find_negative(cache, 0.5, injected=injected)
        assert w is not None and gamma(cache, 0.5, w) < 0
        assert cache.counts.pencil_solves == 1

    def test_pencil_interval(self):
        cache = build_cache(DAMPED_OSC)
        w = find_negative(cache, -0.3)
        # the midpoint of a negative interval between the pencil's zeros
        zs = gamma_zeros(build_cache(DAMPED_OSC), -0.3)
        assert len(zs) >= 2
        assert zs.omegas.min() < w < zs.omegas.max()
        assert gamma(cache, -0.3, w) < 0
        assert cache.counts.pencil_solves == 1

    def test_certified_none(self):
        cache = build_cache(CONT_SCALAR)
        assert find_negative(cache, 0.0, grid=True) is None
        # the grid found nothing, so the pencil decided
        assert cache.counts.pencil_solves == 1

    def test_grid_reaches_grid_search(self):
        cache = build_cache(DISC_SCALAR)
        xi = 0.5 * (1.0 - 1e-10)
        w = find_negative(cache, xi, grid=True)
        assert cache.counts.pencil_solves == 0
        alone = build_cache(DISC_SCALAR)
        assert w == initial_negative_search(alone, xi)
        assert abs(w) > 2.0
        # the probe is the search's first point, so it is evaluated once
        assert cache.counts.small_solves == alone.counts.small_solves

    def test_probe_on_resolvent_pole_is_no_witness(self):
        # A has the eigenvalue 0.95 and xi_ub = 0.05, so the first omega = 0
        # probe at ub - tau*ub lands on a resolvent pole
        sys_ = random_system(4, 3, TimeDomain.DISCRETE, seed=93, margin=0.05,
                             complex_data=False)
        ref = compute_xi_bisection(sys_).xi
        res = compute_xi_disc(sys_)
        assert abs(res.xi - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("system, w", [(DAMPED_OSC, 0.0), (DISC_WEAK, np.pi)])
    def test_folded_zero_probes_each_point_once(self, monkeypatch, system, w):
        # a real model folds w + h and w - h onto one point at omega = 0 (at
        # pi, rounding of the wrap can keep them an ulp apart)
        probed = []

        def spy(cache, xi, omega):
            probed.append(omega)
            return gamma(cache, xi, omega)

        monkeypatch.setattr(drivers, "_gamma_or_inf", spy)
        cache = build_cache(system)
        zs = ZeroSet(omegas=np.array([w]), injected=np.array([False]))
        assert probe_near_zeros(cache, zs, -1.0) is None  # gamma > 0 around the zero
        assert len(probed) == len(set(probed))

    def test_first_pass_probes_omega_zero_once(self, monkeypatch):
        # a real model's zero set is closed by reflection, so the span (-w1, w1)
        # has its midpoint at the omega = 0 a discrete first pass has just probed
        cache = build_cache(dict(oracle_suite())["disc-n2-m1-real"])
        probed = []

        def spy(cache, xi, omega):
            probed.append(omega)
            return gamma(cache, xi, omega)

        monkeypatch.setattr(drivers, "_gamma_or_inf", spy)
        monkeypatch.setattr(pencils, "_gamma_or_inf", spy)
        xi = 0.181  # above the margin 0.1792; gamma(xi, 0) > 0 and two zeros near 1.2
        w = find_negative(cache, xi)
        assert w is not None and gamma(cache, xi, w) < 0
        assert probed.count(0.0) == 1 and len(probed) == len(set(probed)) == 3

    def test_interval_midpoint_on_resolvent_pole_is_no_witness(self):
        # the folded zero 0.5 stands for the pair -0.5, 0.5, whose midpoint
        # omega = 0 lands on A's eigenvalue 0.95: 1 - xi is exactly T's entry
        sys_ = random_system(4, 3, TimeDomain.DISCRETE, seed=93, margin=0.05,
                             complex_data=False)
        cache = build_cache(sys_)
        pole = float(np.diagonal(cache.T).real.max())
        xi = 1.0 - pole
        assert 1.0 - xi == pole
        zs = ZeroSet(omegas=np.array([0.5]), injected=np.array([False]))
        negs = negative_intervals(cache, zs, xi)
        assert [iv.omega_mid for iv in negs] == [np.pi]  # the wrap-around interval only


class TestChangeOfStateCoordinates:
    """x -> diag(d) x, d = logspace(-2, 2, n), keeps the margin; unbalanced, both were false."""

    @pytest.fixture(scope="class")
    def suite(self):
        return dict(oracle_suite())

    def test_bisection_two_port(self, suite):
        # the pencil's real eigenvalues left the axis by 6e-8 relative: 0.69184 was certified
        system = suite["cont-n2-m2-cplx"]
        ref = compute_xi_bisection(system).xi
        res = compute_xi_bisection(diagonally_scaled(system))
        assert abs(res.xi - ref) <= 1e-8 * abs(ref)

    def test_hec_below_real_pole_limit(self, suite):
        # the bracket top 0.4 is a real pole's; HEC certified 0.39999999999998653 there
        system = suite["cont-n6-m1-real"]
        ref = compute_xi_cont(system).xi
        res = compute_xi_cont(diagonally_scaled(system))
        assert abs(res.xi - ref) <= 1e-8 * abs(ref)
        assert res.iterates

    # MP on the general family: both wrong results are its bracket-top back-off,
    # 0.39996; the errors are 5 ConvergenceError and 3 StagnationError
    MP_WRONG = {"cont-n2-m1-real", "cont-n6-m1-real"}
    MP_ERRORS = {"cont-n2-m1-cplx", "cont-n2-m2-cplx", "cont-n4-m1-cplx", "cont-n4-m1-real",
                 "cont-n6-m1-cplx", "disc-n2-m1-real", "disc-n4-m2-cplx", "disc-n6-m1-real"}

    def test_general_family(self, suite):
        # x -> T x with T = U diag(logspace(-2, 2, n)) V, U and V orthogonal, so
        # cond(T) = 1e4.  The pencil's simple boundary eigenvalues move about 6e-8
        # off the boundary, and a distance test dropped them: bisection certified
        # 16 of the 24 margins too high.  The one left is cont-n2-m1-cplx's pole ridge.
        refs = {r["name"]: r["xi"] for r in json.loads(SUITE_REFS.read_text())["systems"]}
        rng = np.random.default_rng(0)
        wrong = {"hec": [], "mp": [], "bisection": []}
        errors = []
        for name, s in suite.items():
            U, V = (np.linalg.qr(rng.standard_normal((s.n, s.n)))[0] for _ in range(2))
            T = U @ np.diag(np.logspace(-2.0, 2.0, s.n)) @ V
            T_inv = np.linalg.inv(T)
            moved = StateSpaceSystem(T @ s.A @ T_inv, T @ s.B, s.C @ T_inv, s.D, s.domain)
            hec = compute_xi_cont if moved.is_continuous else compute_xi_disc
            for alg, solve in (("hec", hec), ("mp", compute_xi_mp),
                               ("bisection", compute_xi_bisection)):
                try:
                    xi = solve(moved).xi
                except ConvergenceError:
                    if alg != "mp":
                        raise
                    errors.append(name)
                    continue
                if abs(xi - refs[name]) > 1e-8 * (1.0 + abs(refs[name])):
                    wrong[alg].append(name)
        assert wrong["hec"] == [] and len(wrong["bisection"]) <= 1, wrong
        assert set(wrong["mp"]) <= self.MP_WRONG, wrong["mp"]
        assert set(errors) <= self.MP_ERRORS, errors


class TestInvariance:
    """Changes that keep the transfer function's passivity keep the margin, to 10*tau."""

    @staticmethod
    def port_rotated(system, rng):
        # {A, B U, U^H C, U^H D U}: Phi -> U^H Phi U, the same eigenvalues
        m = system.m
        U = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        return StateSpaceSystem(system.A, system.B @ U, U.conj().T @ system.C,
                                U.conj().T @ system.D @ U, system.domain)

    @staticmethod
    def complexified(system, rng):
        # x -> P x with P = diag(exp(i theta)): the same transfer function, complex data
        p = np.exp(2j * np.pi * rng.random(system.n))
        return StateSpaceSystem(p[:, None] * system.A * p.conj()[None, :], p[:, None] * system.B,
                                system.C * p.conj()[None, :], system.D, system.domain)

    def test_suite(self, suite_results):
        rng = np.random.default_rng(0)
        solvers = {"mp": compute_xi_mp, "bisection": compute_xi_bisection}
        worst = (0.0, None)
        for row in suite_results["rows"]:
            solvers["hec"] = compute_xi_cont if row.system.is_continuous else compute_xi_disc
            for change in (self.port_rotated, self.complexified):
                moved = change(row.system, rng)
                for alg, solve in solvers.items():
                    ref = getattr(row, alg).xi
                    err = abs(solve(moved).xi - ref) / (1.0 + abs(ref))
                    worst = max(worst, (err, (row.name, change.__name__, alg)),
                                key=lambda w: w[0])
        assert worst[0] <= 1e-13, worst


class TestIntervalRule:
    IVS = [
        NegativeInterval(0.0, 1.0, 0.5, -0.2),
        NegativeInterval(2.0, 5.0, 3.5, -0.1),
        NegativeInterval(-4.0, -3.5, -3.75, -0.9),
    ]

    def test_widest(self):
        assert select_interval(self.IVS).omega_mid == 3.5


class TestSuiteInvariants:
    def test_monotone_outer_estimates(self, suite_results):
        for row in suite_results["rows"]:
            xis = [pr.eps for pr in row.hec.pseudoroots]
            assert all(b < a for a, b in zip(xis, xis[1:]))

    def test_one_sided_pseudoroots(self, suite_results):
        for row in suite_results["rows"]:
            for pr in row.hec.pseudoroots:
                assert pr.eps >= row.oracle - 1e-8 * (1.0 + abs(row.oracle))

    def test_accuracy_claim(self, suite_results):
        # |xi* - xi| <= tau*(1 + |xi*|) for each, so two of those between them
        for row in suite_results["rows"]:
            ref = row.bisection.xi
            for res in (row.hec, row.mp):
                bound = 2.0 * res.tolerance * (1.0 + abs(ref))
                assert abs(res.xi - ref) <= bound, (row.name, res.algorithm)

    def test_restart_budget(self, suite_results):
        for row in suite_results["rows"]:
            assert row.hec.restarts <= 5
            assert row.hec.restarts == len(row.hec.pseudoroots)

    def test_certificate_validity_small_systems(self, suite_results):
        # independent dense scan finds nothing negative at the certified shift
        for row in suite_results["rows"]:
            if row.system.n > 2:
                continue
            assert row.hec.certificate is Certificate.NO_NEGATIVE_REGION
            cache = build_cache(row.system)
            if row.system.domain is TimeDomain.CONTINUOUS:
                ws = np.linspace(-50.0, 50.0, 4001)
            else:
                ws = np.linspace(-np.pi, np.pi, 4001)
            vals = np.array([gamma(cache, row.hec.xi, w) for w in ws])
            scale = max(1.0, np.abs(vals).max())
            assert vals.min() >= -1e-8 * scale

    def test_strict_passivity_spot_check(self, suite_results):
        # conditions at xi - tau*|xi|: stability plus positivity at random points
        rng = np.random.default_rng(99)
        for row in suite_results["rows"][::3]:
            xi = row.hec.xi - row.hec.tolerance * abs(row.hec.xi)
            shifted = shifted_system(row.system, xi)
            alpha, rho = spectral_bounds(shifted)
            if row.system.domain is TimeDomain.CONTINUOUS:
                assert alpha < 0
                ws = rng.uniform(-30, 30, size=10)
            else:
                assert rho < 1
                ws = rng.uniform(-np.pi, np.pi, size=10)
            cache = build_cache(row.system)
            for w in ws:
                assert gamma(cache, xi, float(w)) > 0

    def test_no_quarter_turn_probe_after_a_root(self, suite_results, monkeypatch):
        # after a root the injected zero lets the pencil cover the circle: no pointwise probe
        row = next(r for r in suite_results["rows"] if r.name == "disc-n4-m2-cplx")
        seen = []
        evaluate = drivers._gamma_or_inf

        def spy(cache, xi, omega):
            seen.append(float(omega))
            return evaluate(cache, xi, omega)

        monkeypatch.setattr(drivers, "_gamma_or_inf", spy)
        fold = build_cache(row.system).fold
        for solve in (compute_xi_disc, compute_xi_mp):
            seen.clear()
            res = solve(row.system)
            assert res.restarts >= 2, solve.__name__
            quarter_turns = {fold(w + 0.5 * np.pi) for _, w in res.iterates}
            assert quarter_turns.isdisjoint(seen), solve.__name__

    def test_hec_starts_nonpositive(self, suite_results):
        # every solver run starts where gamma was checked, so g <= 0 exactly
        for row in suite_results["rows"]:
            for pr in row.hec.pseudoroots:
                init = [s for s in pr.trace if s.phase == "init"]
                assert len(init) == 1 and init[0].g <= 0.0, (row.name, init)

    def test_suite_eig_count_totals(self, suite_results):
        """Suite totals of pencil (order 2n+m) and small (order m) solves.

        A change that moves these on purpose updates the numbers here and
        says so in CHANGES.md.
        """
        expected = {"hec": (28, 3558), "mp": (149, 718), "bisection": (1054, 2320)}
        for alg, (pencil, small) in expected.items():
            counts = [getattr(row, alg).eig_counts for row in suite_results["rows"]]
            assert sum(c.pencil_solves for c in counts) == pencil, alg
            assert sum(c.small_solves for c in counts) == small, alg

    def test_eig_counts_recorded(self, suite_results):
        for row in suite_results["rows"]:
            ec = row.hec.eig_counts
            assert ec.pencil_order == 2 * row.system.n + row.system.m
            assert ec.pencil_solves >= 1
            assert ec.small_solves > ec.pencil_solves
