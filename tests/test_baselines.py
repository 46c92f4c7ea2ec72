import numpy as np
import pytest

from ximargin.baselines import (
    _batched_lambda_min,
    _GridEvaluator,
    _newton_polish,
    compute_xi_bisection,
    compute_xi_mp,
    oracle_xi,
)
from ximargin.drivers import Certificate
from ximargin.evaluation import build_cache, gamma
from ximargin.generate import oracle_suite, random_system
from ximargin.pencils import xi_roots_at_omega
from ximargin.systems import InvalidParameterError, TimeDomain, Tolerances

from test_drivers import DAMPED_OSC
from test_systems import CONT_GAIN2, CONT_SCALAR, DISC_SCALAR, cont, diagonally_scaled

# A is a single Jordan block, so the oracle takes its batched dense solve
DEFECTIVE = cont([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.5]], [[1.0]])


class TestMidpointIteration:
    def test_disc_scalar_zero_margin(self):
        tau = 1e-10
        res = compute_xi_mp(DISC_SCALAR, Tolerances(tau=tau))
        assert abs(res.xi) <= tau * (1.0 + 1e-6)
        assert res.certificate is Certificate.ABSOLUTE_MODE

    def test_cont_stability_limited_first_pass(self):
        res = compute_xi_mp(CONT_GAIN2)
        # stops at its first estimate: the backed-off bracket end
        assert res.xi == pytest.approx(2.0 * (1.0 - 1e-4), rel=1e-12)
        assert res.certificate is Certificate.NO_NEGATIVE_REGION
        assert res.restarts == 0

    def test_degenerate_bracket(self):
        res = compute_xi_mp(CONT_SCALAR)
        assert res.xi == 2.0
        assert res.certificate is Certificate.BRACKET_DEGENERATE

    def test_first_pass_certificate_reports_its_backoff(self):
        # certified at the backed-off bracket top before any step: its error
        # is that first back-off, about 1e-4 relative, not tau
        sys_ = random_system(2, 1, TimeDomain.CONTINUOUS, seed=1, margin=0.05,
                             complex_data=False)
        mp = compute_xi_mp(sys_)
        ref = compute_xi_bisection(sys_)
        assert mp.restarts == 0 and mp.certificate is Certificate.NO_NEGATIVE_REGION
        assert abs(mp.xi - ref.xi) <= mp.tolerance * abs(ref.xi)

    def test_iterates_strictly_decreasing(self, suite_results):
        for row in suite_results["rows"]:
            xis = [x for x, _ in row.mp.iterates]
            assert all(b < a for a, b in zip(xis, xis[1:]))

    def test_newton_polish_keeps_only_rounding_sized_steps(self):
        cache = build_cache(DAMPED_OSC)
        raw = float(xi_roots_at_omega(cache, 1.0)[0])
        root = _newton_polish(cache, raw, 1.0)
        assert abs(gamma(cache, root, 1.0)) < abs(gamma(cache, raw, 1.0))
        nudged = root + 1e-12 * (1.0 + abs(root))
        assert abs(_newton_polish(cache, nudged, 1.0) - root) <= 1e-15 * (1.0 + abs(root))
        far = root + 1e-6
        assert _newton_polish(cache, far, 1.0) == far

    def test_lands_where_hec_does(self, suite_results):
        # with the raw pencil roots MP sat up to 4.8e-15*(1 + |xi|) away
        for row in suite_results["rows"]:
            assert abs(row.mp.xi - row.hec.xi) <= 1e-15 * (1.0 + abs(row.hec.xi)), row.name

    def test_matches_oscillator_oracle(self):
        res = compute_xi_mp(DAMPED_OSC)
        ref = oracle_xi(DAMPED_OSC, grid_size=50_000, tol=1e-12)
        assert res.xi == pytest.approx(ref, rel=1e-9)


class TestBisection:
    def test_disc_scalar(self):
        tau = 1e-10
        res = compute_xi_bisection(DISC_SCALAR, Tolerances(tau=tau))
        assert abs(res.xi) <= 10 * tau

    def test_degenerate_bracket_immediate(self):
        res = compute_xi_bisection(CONT_SCALAR)
        assert res.xi == 2.0
        assert res.certificate is Certificate.BRACKET_DEGENERATE
        assert res.restarts == 0

    def test_agreement_with_hec_on_suite(self, suite_results):
        for row in suite_results["rows"]:
            tau = row.hec.tolerance
            thr = max(10 * tau * (1 + abs(row.hec.xi)), 1e-10)
            assert abs(row.bisection.xi - row.hec.xi) <= thr

    def test_result_is_certified_side(self, suite_results):
        # bisection returns the strictly passive endpoint: never above HEC
        # by more than the bracket resolution
        for row in suite_results["rows"]:
            assert row.bisection.xi <= row.hec.xi + 1e-10 * (1 + abs(row.hec.xi))

    def test_iterates_name_failing_midpoints(self, suite_results):
        # (mid, None) for a strictly passive midpoint, (mid, witness) otherwise
        for row in suite_results["rows"]:
            res = row.bisection
            cache = build_cache(row.system)
            for mid, w in res.iterates:
                if w is None:
                    assert mid <= res.xi, (row.name, mid)
                else:
                    assert mid > res.xi, (row.name, mid)
                    assert gamma(cache, mid, w) <= 0.0, (row.name, mid, w)


class TestOracle:
    def test_disc_scalar(self):
        assert abs(oracle_xi(DISC_SCALAR, grid_size=20_000, tol=1e-9)) <= 1e-8

    def test_cont_stability_limited(self):
        assert oracle_xi(CONT_GAIN2, grid_size=20_000, tol=1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_bracket(self):
        assert oracle_xi(CONT_SCALAR) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        a = oracle_xi(DAMPED_OSC, grid_size=20_000, tol=1e-10)
        b = oracle_xi(DAMPED_OSC, grid_size=20_000, tol=1e-10)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {"grid_size": 0}, {"grid_size": 1}, {"grid_size": 2}, {"grid_size": 15},
        {"grid_size": 2.5}, {"grid_size": True}, {"grid_size": "100"},
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": 1.0},
        {"tol": float("inf")}, {"tol": "0.5"}, {"tol": None}, {"tol": [0.1]},
    ], ids=repr)
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(InvalidParameterError):
            oracle_xi(DAMPED_OSC, **kwargs)

    def test_numpy_grid_size_accepted(self):
        assert oracle_xi(DAMPED_OSC, grid_size=np.int64(1000)) == oracle_xi(DAMPED_OSC, grid_size=1000)

    def test_dense_solve_path_matches_bisection(self):
        assert _GridEvaluator(DEFECTIVE, 20_000).diagonalizable is False
        ref = compute_xi_bisection(DEFECTIVE).xi
        assert oracle_xi(DEFECTIVE, grid_size=20_000) == pytest.approx(ref, rel=1e-8)

    def test_gemm_stack_matches_dense_solve(self):
        xi = 0.05
        for name, system in oracle_suite():
            ev = _GridEvaluator(system, 1000)
            assert ev.diagonalizable, name
            pts = ev._points(ev._frequency_grid(xi), xi)
            gemm = ev._transfer_stack(pts, xi)
            ev.diagonalizable = False
            dense = ev._transfer_stack(pts, xi)
            scale = np.abs(dense).max()
            assert np.abs(gemm - dense).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batched_lambda_min_matches_eigvalsh(self, m):
        rng = np.random.default_rng(m)
        T = rng.standard_normal((200, m, m)) + 1j * rng.standard_normal((200, m, m))
        phi = T + np.conj(np.swapaxes(T, -1, -2))
        expected = np.linalg.eigvalsh(phi)[..., 0]
        scale = np.abs(phi).max()
        assert np.abs(_batched_lambda_min(T) - expected).max() <= 1e-13 * scale

    def test_diagonal_change_of_state_coordinates(self):
        # unbalanced, the grid span 10 (||A|| + 1) grew with the scaling and the
        # grid missed a negative region: 0.39999999998601 came back
        system = dict(oracle_suite())["cont-n6-m1-real"]
        ref = compute_xi_bisection(system).xi
        assert oracle_xi(diagonally_scaled(system)) == pytest.approx(ref, rel=1e-8)

    def test_three_ports_match_bisection(self):
        system = random_system(4, 3, TimeDomain.DISCRETE, seed=0, margin=0.2,
                               complex_data=False)
        ref = compute_xi_bisection(system).xi
        assert oracle_xi(system, grid_size=20_000) == pytest.approx(ref, rel=1e-8)
