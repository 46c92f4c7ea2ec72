import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import ximargin.hec as hec
from ximargin.hec import (
    BracketError,
    ContractViolationError,
    PseudoRoot,
    RootProblem,
    RootSense,
    _contract_root_min,
    _expand_min,
    hec_solve,
)
from ximargin.pencils import _ZERO_CONFIRM_TOL


def make_problem(value, d_eps, d_x, sense=RootSense.ROOT_MIN,
                 eps_lb=-1.0, x_domain=(-10.0, 10.0)):
    return RootProblem(value=value, eps_lb=eps_lb, derivs_eps=d_eps, derivs_x=d_x,
                       project_x=clip(*x_domain), sense=sense)


def contract(f, lo, hi):
    """Root on [lo, hi] of f(e) -> (g, d1, d2, d2_ok), with g(lo) >= 0 >= g(hi)."""
    return _contract_root_min(f, lo, hi, f(lo)[0], f(hi)).root


def expand(fder, x0, project):
    """Expansion from x0 in the domain, with the start point evaluated here."""
    return _expand_min(fder, x0, fder(x0), project)


def clip(lo, hi):
    return lambda x: min(max(x, lo), hi)


class TestContract:
    # the engine's orientation: g(lo) >= 0 >= g(hi)

    def test_linear(self):
        root = contract(lambda e: (1.0 - e, -1.0, 0.0, True), 0.0, 2.0)
        assert root == pytest.approx(1.0, abs=1e-14)

    def test_cube_root_halley(self):
        evals = []

        def f(e):
            evals.append(e)
            return 2.0 - e ** 3, -3.0 * e ** 2, -6.0 * e, True

        root = contract(f, 0.0, 2.0)
        assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-14
        # bracket-end evaluations plus at most 8 Halley iterations
        assert len(evals) <= 11

    def test_bisection_fallback_on_zero_derivative(self):
        root = contract(lambda e: (0.5 - math.atan(e), 0.0, 0.0, False), 0.0, 2.0)
        assert root == pytest.approx(math.tan(0.5), abs=1e-12)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            contract(lambda e: (e * e + 1.0, 2.0 * e, 2.0, True), 0.0, 2.0)

    def test_failed_sign_probe_returns_last_nonpositive_point(self):
        # g = 1 - e, but rounding leaves a tiny positive residual on
        # [1, 1 + 1e-9): the iteration ends on that plateau, and the one
        # probe toward the last nonpositive iterate lands on it too
        log = []

        def f(e):
            g = 1e-20 if 1.0 <= e < 1.0 + 1e-9 else 1.0 - e
            log.append((e, g))
            return g, -1.0, 0.0, True

        res = _contract_root_min(f, 0.0, 2.0, f(0.0)[0], f(2.0))
        assert log[-1][1] > 0.0  # the failed probe
        assert res.root == [e for e, g in log if g <= 0.0][-1]
        assert res.g <= 0.0 and res.sign_corrections == 1
        # its value was kept, not evaluated again
        assert [e for e, _ in log].count(res.root) == 1

    def test_root_within_an_ulp_ends_in_one_probe(self):
        # the root lies 0.3 ulp below R: once Halley reaches R its step is
        # sub-ulp, and bisecting the old bracket took 35 evaluations
        R = 2e-3 / 3
        log = []

        def f(e):
            u = R - e
            log.append(e)
            return u * (1.0 + u * u) - 0.3 * math.ulp(R), -(1.0 + 3.0 * u * u), 6.0 * u, True

        res = _contract_root_min(f, -1.0, 1.0, f(-1.0)[0], f(1.0))
        assert res.root == R and res.g <= 0.0
        assert len(log) <= 8

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.0, 10.0), b=st.floats(-10.0, 10.0))
    def test_matches_reference_root_finder_on_monotone_cubics(self, a, b):
        def g(e):
            return e ** 3 + a * e + b

        root = contract(lambda e: (-g(e), -(3 * e * e + a), -6 * e, True), -5.0, 5.0)
        ref = brentq(g, -5.0, 5.0, xtol=1e-14, rtol=8.9e-16)
        assert abs(root - ref) <= 1e-10 * (1.0 + abs(ref))


class TestExpand:
    def test_already_stationary(self):
        res = expand(lambda x: (x * x, 2 * x, 2.0, True), 0.0, clip(-10.0, 10.0))
        assert res.x == 0.0

    def test_cosine_to_pi(self, monkeypatch):
        monkeypatch.setattr(hec, "_STATIONARITY_TOL", 1e-12)
        res = expand(lambda x: (math.cos(x), -math.sin(x), -math.cos(x), True), 3.0,
                     clip(0.0, 6.0))
        assert abs(res.x - math.pi) <= 1e-10

    def test_monotone_descent(self):
        values = []

        def fder(x):
            g = math.cos(x) + 0.1 * x * x
            values.append(g)
            return g, -math.sin(x) + 0.2 * x, -math.cos(x) + 0.2, True

        expand(fder, 2.5, clip(-10.0, 10.0))
        # every accepted value reported after the first is <= some earlier accepted one;
        # the raw call log may include rejected trial points, so check the running min
        running = np.minimum.accumulate(values)
        assert running[-1] <= values[0]


class TestHecSolve:
    def test_parabola_root_max(self):
        # g(eps, x) = eps - x^2 is a valid root-max instance from this data:
        # contraction 0.5 -> 0.09, expansion x -> 0, final contraction -> 0.
        p = make_problem(lambda e, x: e - x * x,
                         d_eps=lambda e, x: (e - x * x, 1.0, 0.0, True),
                         d_x=lambda e, x: (e - x * x, -2 * x, -2.0, True),
                         sense=RootSense.ROOT_MAX,
                         eps_lb=-1.0, x_domain=(-1.0, 1.0))
        pr = hec_solve(p, eps0=0.5, x0=0.3)
        assert pr.eps == pytest.approx(0.0, abs=1e-12)
        assert pr.x == pytest.approx(0.0, abs=1e-8)
        eps_seq = pr.contraction_eps_sequence()
        assert eps_seq[0] == pytest.approx(0.09, abs=1e-10)

    def test_parabola_data_invalid_as_root_min(self):
        p = make_problem(lambda e, x: e - x * x,
                         d_eps=lambda e, x: (e - x * x, 1.0, 0.0, True),
                         d_x=lambda e, x: (e - x * x, -2 * x, -2.0, True),
                         sense=RootSense.ROOT_MIN,
                         eps_lb=-1.0, x_domain=(-1.0, 1.0))
        with pytest.raises(ContractViolationError):
            hec_solve(p, eps0=0.5, x0=0.3)

    def test_positive_start_rejected_however_small(self):
        # g(0, 0.3) = +1e-14: a start on the wrong side by rounding alone
        def g(e, x):
            return (1e-14 - e) + (x - 0.3) ** 2

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), -1.0, 0.0, True),
                         d_x=lambda e, x: (g(e, x), 2 * (x - 0.3), 2.0, True))
        with pytest.raises(ContractViolationError):
            hec_solve(p, eps0=0.0, x0=0.3)

    @pytest.mark.parametrize("eps0, x0, eps_lb", [
        (math.inf, 0.3, -1.0), (math.nan, 0.3, -1.0), (0.5, math.nan, -1.0),
        (0.5, math.inf, -1.0), (0.5, 0.3, math.nan), (0.5, 0.3, -math.inf),
    ])
    def test_non_finite_data_rejected_before_any_evaluation(self, eps0, x0, eps_lb):
        calls = []

        def g(e, x):
            calls.append((e, x))
            return x * x - e

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), -1.0, 0.0, True),
                         d_x=lambda e, x: (g(e, x), 2 * x, 2.0, True),
                         eps_lb=eps_lb, x_domain=(-1.0, 1.0))
        with pytest.raises(ContractViolationError):
            hec_solve(p, eps0=eps0, x0=x0)
        assert calls == []

    def test_cosine_pseudoroot_near_pi(self):
        def g(e, x):
            return e + math.cos(x) - 2.0

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), 1.0, 0.0, True),
                         d_x=lambda e, x: (g(e, x), -math.sin(x), -math.cos(x), True),
                         eps_lb=3.5, x_domain=(-math.pi, math.pi))
        pr = hec_solve(p, eps0=2.5, x0=3.0)
        assert pr.eps == pytest.approx(3.0, abs=1e-10)
        assert abs(pr.x) == pytest.approx(math.pi, abs=1e-8)

    def test_cosine_stationary_only_pseudoroot_at_zero(self):
        def g(e, x):
            return e + math.cos(x) - 2.0

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), 1.0, 0.0, True),
                         d_x=lambda e, x: (g(e, x), -math.sin(x), -math.cos(x), True),
                         eps_lb=3.5, x_domain=(-math.pi, math.pi))
        pr = hec_solve(p, eps0=0.5, x0=0.0)
        assert pr.eps == pytest.approx(1.0, abs=1e-12)
        assert pr.x == 0.0
        assert pr.iterations == 1
        # the stationary point is a slice maximum, not a minimizer
        assert pr.x_second_derivative < 0

    def test_constant_in_x(self):
        p = make_problem(lambda e, x: e,
                         d_eps=lambda e, x: (e, 1.0, 0.0, True),
                         d_x=lambda e, x: (e, 0.0, 0.0, True),
                         eps_lb=1.0, x_domain=(0.0, 1.0))
        pr = hec_solve(p, eps0=-0.5, x0=0.4)
        assert pr.eps == pytest.approx(0.0, abs=1e-13)
        assert pr.x == 0.4
        assert pr.iterations == 1

    def test_monotone_eps_iterates(self):
        # canonical root-min orientation: g = x^2 - eps, f(eps) = -eps
        p = make_problem(lambda e, x: x * x - e,
                         d_eps=lambda e, x: (x * x - e, -1.0, 0.0, True),
                         d_x=lambda e, x: (x * x - e, 2 * x, 2.0, True),
                         eps_lb=-1.0, x_domain=(-1.0, 1.0))
        pr = hec_solve(p, eps0=0.5, x0=0.3)
        assert pr.eps == pytest.approx(0.0, abs=1e-12)
        seq = pr.contraction_eps_sequence()
        assert all(b <= a + 1e-15 for a, b in zip(seq, seq[1:]))

    def test_one_sided_convergence(self):
        # g(eps, x) = (x - c)^2 + d - eps has f(eps) = d - eps with exact root d.
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = float(rng.uniform(-2, 2))
            d = float(rng.uniform(0.1, 2.0))

            def g(e, x, c=c, d=d):
                return (x - c) ** 2 + d - e

            p = make_problem(g,
                             d_eps=lambda e, x: (g(e, x), -1.0, 0.0, True),
                             d_x=lambda e, x: (g(e, x), 2 * (x - c), 2.0, True),
                             eps_lb=0.0, x_domain=(-5.0, 5.0))
            x0 = c + float(rng.uniform(-0.3, 0.3))
            eps0 = d + (x0 - c) ** 2 + float(rng.uniform(0.2, 1.0))
            pr = hec_solve(p, eps0=eps0, x0=x0)
            assert pr.eps >= d - 1e-10
            assert pr.eps == pytest.approx(d, abs=1e-9)

    def test_quadratic_convergence_rate(self):
        # minimizer path x_p(eps) = eps couples the phases: the parameter error
        # obeys e_{k+1} ~ e_k^2 once the iterates lock onto the path.
        c = 0.31837

        def g(e, x):
            return (x - e) ** 2 + c - e

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), -2.0 * (x - e) - 1.0, 2.0, True),
                         d_x=lambda e, x: (g(e, x), 2.0 * (x - e), 2.0, True),
                         eps_lb=c - 1.0, x_domain=(-10.0, 10.0))
        pr = hec_solve(p, eps0=c + 0.9, x0=c + 0.5)
        assert pr.eps == pytest.approx(c, abs=1e-12)
        errs = [e - pr.eps for e in pr.contraction_eps_sequence()]
        errs = [e for e in errs if e > 1e-13 * (1.0 + abs(pr.eps))]
        assert len(errs) >= 4
        ratios = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
        tail = ratios[-3:]
        assert all(r <= 5.0 for r in tail)
        assert max(tail) / max(min(tail), 1e-3) <= 100.0

    def test_expansion_reuses_stationarity_check(self):
        # the expansion starts from the point the stationarity check just
        # evaluated, so no derivs_x call repeats the one before it
        c = 0.31837
        calls = []

        def g(e, x):
            return (x - e) ** 2 + c - e

        def d_x(e, x):
            calls.append((e, x))
            return g(e, x), 2.0 * (x - e), 2.0, True

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), -2.0 * (x - e) - 1.0, 2.0, True),
                         d_x=d_x, eps_lb=c - 1.0)
        pr = hec_solve(p, eps0=c + 0.9, x0=c + 0.5)
        assert sum(s.phase == "expand" for s in pr.trace) >= 3
        assert all(a != b for a, b in zip(calls, calls[1:]))

    def test_pseudoroot_certificate(self):
        p = make_problem(lambda e, x: (x - 1.0) ** 2 + 0.5 - e,
                         d_eps=lambda e, x: ((x - 1.0) ** 2 + 0.5 - e, -1.0, 0.0, True),
                         d_x=lambda e, x: ((x - 1.0) ** 2 + 0.5 - e, 2 * (x - 1), 2.0, True),
                         eps_lb=0.0, x_domain=(-4.0, 4.0))
        pr = hec_solve(p, eps0=1.7, x0=0.6)
        assert abs(pr.g_value) <= _ZERO_CONFIRM_TOL * (1.0 + abs(pr.g_value))
        assert abs(pr.x_derivative) <= hec._STATIONARITY_TOL * (1.0 + abs(pr.g_value))
        assert pr.stationary
        assert isinstance(pr, PseudoRoot)

    def test_outer_iteration_cap_carries_trace(self, monkeypatch):
        from ximargin.hec import ConvergenceError

        c = 0.31837

        def g(e, x):
            return (x - e) ** 2 + c - e

        p = make_problem(g,
                         d_eps=lambda e, x: (g(e, x), -2.0 * (x - e) - 1.0, 2.0, True),
                         d_x=lambda e, x: (g(e, x), 2.0 * (x - e), 2.0, True),
                         eps_lb=c - 1.0, x_domain=(-10.0, 10.0))
        monkeypatch.setattr(hec, "_MAX_OUTER", 1)
        with pytest.raises(ConvergenceError) as info:
            hec_solve(p, eps0=c + 0.9, x0=c + 0.5)
        assert len(info.value.trace) >= 2  # init plus at least one phase

    def test_expansion_stall_is_flagged(self):
        # derivative reported as never vanishing while no step improves the
        # value: the expansion must give up and flag stationarity not reached
        res = expand(lambda x: (1.0 + abs(x), 1.0, 0.0, False), x0=0.0,
                     project=lambda x: min(max(x, -1.0), 1.0))
        assert not res.stationary
        assert res.x == 0.0

    def test_root_min_residual_side(self):
        # contraction records must sit on the nonpositive side for root-min
        p = make_problem(lambda e, x: (x - 1.0) ** 2 + 0.5 - e,
                         d_eps=lambda e, x: ((x - 1.0) ** 2 + 0.5 - e, -1.0, 0.0, True),
                         d_x=lambda e, x: ((x - 1.0) ** 2 + 0.5 - e, 2 * (x - 1), 2.0, True),
                         eps_lb=0.0, x_domain=(-4.0, 4.0))
        pr = hec_solve(p, eps0=1.7, x0=0.6)
        for step in pr.trace:
            if step.phase == "contract":
                assert step.g <= 0.0
