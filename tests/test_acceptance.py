"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s / -rA); a criterion
that cannot meet its tolerance fails its assertions instead.
"""

import numpy as np
import pytest

from ximargin.drivers import Certificate, compute_xi_cont, compute_xi_disc
from ximargin.evaluation import (
    PoleError,
    build_cache,
    gamma,
    gamma_derivs_omega,
    gamma_derivs_xi,
)
from ximargin.generate import random_system
from ximargin.pencils import (
    build_hamiltonian_cont,
    build_pencil,
    build_symplectic_disc,
    gamma_zeros,
    negative_intervals,
    _finite_eigenvalues,
)
from ximargin.systems import TimeDomain, Tolerances, xi_bracket

from test_evaluation import fd_derivatives, gamma_and_gap
from test_systems import CONT_GAIN2, CONT_SCALAR, DISC_SCALAR


def _ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_oracle_equivalence(suite_results):
    rows = suite_results["rows"]
    assert len(rows) >= 20
    worst = 0.0
    for row in rows:
        if abs(row.oracle) >= 1e-6:
            err = abs(row.hec.xi - row.oracle) / abs(row.oracle)
        else:
            err = abs(row.hec.xi - row.oracle)
        worst = max(worst, err)
        assert err <= 1e-8, (row.name, err)
    elapsed = suite_results["oracle_equiv_seconds"]
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _ok(f"1 oracle equivalence on {len(rows)} systems "
        f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_three_way_agreement(suite_results):
    worst = 0.0
    for row in suite_results["rows"]:
        tau = row.hec.tolerance
        thr = max(10 * tau * (1 + abs(row.hec.xi)), 1e-10)
        d_mp = abs(row.hec.xi - row.mp.xi)
        d_bi = abs(row.hec.xi - row.bisection.xi)
        worst = max(worst, d_mp / thr, d_bi / thr)
        assert d_mp <= thr, (row.name, d_mp)
        assert d_bi <= thr, (row.name, d_bi)
    _ok(f"2 three-way agreement (worst {worst:.2e} of threshold)")


def test_criterion_3_closed_form_anchors():
    tau = 1e-10
    res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=tau))
    assert abs(res.xi - 0.0) <= 1e-10

    res = compute_xi_cont(CONT_SCALAR)
    assert res.bracket.xi_lb == pytest.approx(2.0, abs=1e-12)
    assert res.bracket.xi_ub == pytest.approx(2.0, abs=1e-14)
    assert res.xi == 2.0
    assert res.certificate is Certificate.BRACKET_DEGENERATE

    tau = 1e-14
    res = compute_xi_cont(CONT_GAIN2, tol=Tolerances(tau=tau))
    assert res.certificate is Certificate.NO_NEGATIVE_REGION
    assert res.xi == pytest.approx(2.0 * (1.0 - tau), abs=5e-15)
    _ok("3 closed-form anchors")


def _fd_oracle(f, x):
    """Richardson-extrapolated central differences with self-certification.

    Returns (d1, d2, certified); ``certified`` is False when the stencil has
    not converged well past the 1e-6 comparison tolerance (which happens
    close to resonances where high derivatives blow up).
    """
    e_h = [fd_derivatives(f, x, h) for h in (4e-3, 2e-3, 1e-3)]
    r1 = [(16.0 * b - a) / 15.0 for a, b in zip(e_h[0], e_h[1])]
    r2 = [(16.0 * c - b) / 15.0 for b, c in zip(e_h[1], e_h[2])]
    certified = all(abs(v2 - v1) <= 2e-7 * max(abs(v2), 1e-9)
                    for v1, v2 in zip(r1, r2))
    return r2[0], r2[1], certified


def test_criterion_4_derivative_correctness():
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 100 and attempts < 3000:
        attempts += 1
        domain = TimeDomain.CONTINUOUS if attempts % 2 else TimeDomain.DISCRETE
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        sys_ = random_system(n, m, domain, seed=int(rng.integers(0, 10_000)),
                             margin=0.3)
        cache = build_cache(sys_)
        xi = float(rng.uniform(-0.5, 0.5))
        omega = float(rng.uniform(-3.0, 3.0))
        try:
            val, gap = gamma_and_gap(cache, xi, omega)
        except PoleError:
            continue
        scale = 1.0 + abs(val)
        if gap <= 1e-6 * scale:
            continue
        dw = gamma_derivs_omega(cache, xi, omega)
        dx = gamma_derivs_xi(cache, xi, omega)
        if not (dw.d2_reliable and dx.d2_reliable):
            continue
        fw1, fw2, ok_w = _fd_oracle(lambda w: gamma(cache, xi, w), omega)
        fx1, fx2, ok_x = _fd_oracle(lambda x: gamma(cache, x, omega), xi)
        pairs = [(dw.d1, fw1), (dw.d2, fw2), (dx.d1, fx1), (dx.d2, fx2)]
        # only assert where (i) the FD oracle certified its own convergence
        # and (ii) the derivative is not vanishing against the function
        # scale, where a relative comparison is meaningless
        if not (ok_w and ok_x):
            continue
        if any(abs(an) < 1e-3 * scale for an, _ in pairs):
            continue
        for an, fd in pairs:
            rel = abs(an - fd) / max(abs(an), abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-6, (an, fd, rel)
        checked += 1
    assert checked >= 100
    _ok(f"4 derivative correctness at {checked} points (worst rel {worst:.2e})")


def test_criterion_5_pencil_certification():
    combos = 0
    for domain in (TimeDomain.CONTINUOUS, TimeDomain.DISCRETE):
        for seed in (101, 202):
            for n, m in ((2, 1), (4, 2)):
                sys_ = random_system(n, m, domain, seed=seed, margin=0.3,
                                     d_floor=1.0)
                br = xi_bracket(sys_)
                cache = build_cache(sys_)
                for frac in (0.5, 0.95):
                    xi = br.xi_lb + frac * (br.xi_ub - br.xi_lb)
                    zs = gamma_zeros(cache, xi)
                    assert len(zs) <= 2 * n
                    negs = negative_intervals(cache, zs, xi)
                    if domain is TimeDomain.CONTINUOUS:
                        w_hi = 2.0 * (np.abs(zs.omegas).max() if len(zs) else 1.0) + 5.0
                        ws = np.linspace(-w_hi, w_hi, 10_000)
                    else:
                        ws = np.linspace(-np.pi, np.pi, 10_000)
                    vals = np.array([gamma(cache, xi, w) for w in ws])
                    step = ws[1] - ws[0]
                    for i in np.where(vals[:-1] * vals[1:] < 0.0)[0]:
                        lo, hi = ws[i] - step, ws[i + 1] + step
                        inside = any(iv.omega_lo <= hi and lo <= iv.omega_hi
                                     for iv in negs)
                        if not inside and domain is TimeDomain.DISCRETE and negs:
                            # wrap-around interval may be recorded past +pi
                            inside = any(iv.omega_hi > np.pi and
                                         (lo + 2 * np.pi) <= iv.omega_hi and
                                         iv.omega_lo <= (hi + 2 * np.pi)
                                         for iv in negs)
                        assert inside, (domain, seed, n, m, xi, ws[i])
                    combos += 1
                # reduced-form cross-validation at a mid-bracket shift
                xi = br.xi_lb + 0.5 * (br.xi_ub - br.xi_lb)
                if domain is TimeDomain.CONTINUOUS:
                    Mx, N = build_pencil(cache, xi)
                    p_eigs = _finite_eigenvalues(Mx, N)
                    p_real = np.sort(p_eigs[np.abs(p_eigs.imag) <=
                                             1e-8 * np.maximum(1.0, np.abs(p_eigs))].real)
                    H = build_hamiltonian_cont(sys_, xi)
                    h_eigs = np.linalg.eigvals(H)
                    h_imag = np.sort(h_eigs[np.abs(h_eigs.real) <=
                                            1e-8 * np.maximum(1.0, np.abs(h_eigs))].imag)
                    assert len(p_real) == len(h_imag)
                    if len(p_real):
                        np.testing.assert_allclose(p_real, h_imag, atol=1e-8,
                                                   rtol=1e-8)
                else:
                    S, T = build_symplectic_disc(sys_, xi)
                    J = np.block([[np.zeros((n, n)), np.eye(n)],
                                  [-np.eye(n), np.zeros((n, n))]])
                    res = S.conj().T @ J @ S - T.conj().T @ J @ T
                    lhs = np.linalg.norm(S.conj().T @ J @ S)
                    assert np.linalg.norm(res) <= 1e-10 * max(1.0, lhs)
                    Mx, Nx = build_pencil(cache, xi)
                    p_eigs = _finite_eigenvalues(Mx, Nx)
                    s_eigs = _finite_eigenvalues(S, T)
                    p_uni = np.sort(np.angle(
                        p_eigs[np.abs(np.abs(p_eigs) - 1.0) <= 1e-8]))
                    s_uni = np.sort(np.angle(
                        s_eigs[np.abs(np.abs(s_eigs) - 1.0) <= 1e-8]))
                    assert len(p_uni) == len(s_uni)
                    if len(p_uni):
                        np.testing.assert_allclose(p_uni, s_uni, atol=1e-8)
    _ok(f"5 pencil certification on {combos} (system, shift) combinations")


def _quadratic_evidence(pr):
    """(qualifies, C tail) for one pseudoroot trace."""
    errs = [e - pr.eps for e in pr.contraction_eps_sequence()]
    errs = [e for e in errs if e > 1e-12 * (1.0 + abs(pr.eps))]
    converged = errs and errs[-1] <= max(1e-6 * errs[0], 1e-7 * (1.0 + abs(pr.eps)))
    if len(errs) < 4 or not converged:
        cs = []
    else:
        cs = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
    if len(cs) < 3:
        return False, []
    tail = cs[-3:]
    return max(tail) / min(tail) <= 25.0, tail


def test_criterion_6_convergence_rates(suite_results):
    qualifying = 0
    for row in suite_results["rows"]:
        found = False
        for pr in row.hec.pseudoroots:
            val, gap = gamma_and_gap(build_cache(row.system), pr.eps, pr.x)
            if gap <= 1e-8 * (1.0 + abs(val)):
                continue
            ok, _ = _quadratic_evidence(pr)
            found = found or ok
        if not found:
            continue
        # superlinear evidence for the midpoint baseline on the same instance
        errs = [x - row.mp.xi for x, _ in row.mp.iterates]
        errs = [e for e in errs if e > 1e-12 * (1.0 + abs(row.mp.xi))]
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        assert all(b <= a * 1.001 for a, b in zip(ratios, ratios[1:])), row.name
        qualifying += 1
    assert qualifying >= 5
    _ok(f"6 quadratic-rate evidence on {qualifying} instances")


def test_criterion_7_one_sided_convergence(suite_results):
    for row in suite_results["rows"]:
        floor = row.oracle - 1e-8 * (1.0 + abs(row.oracle))
        for pr in row.hec.pseudoroots:
            assert pr.eps >= floor, (row.name, pr.eps, row.oracle)
        seq = [pr.eps for pr in row.hec.pseudoroots]
        assert all(b < a for a, b in zip(seq, seq[1:])), row.name
    _ok("7 one-sided convergence and strictly decreasing restarts")


def test_criterion_8_robustness_reproductions(suite_results):
    # (a) tangential zero: double unimodular eigenvalue at the circle's far
    # point; the recheck relies on injecting the pseudoroot frequency
    tau = 1e-10
    res = compute_xi_disc(DISC_SCALAR, tol=Tolerances(tau=tau))
    assert abs(res.xi) <= tau * (1.0 + 1e-6)
    assert res.restarts == 1
    omega_t = res.pseudoroots[0].x
    assert abs(omega_t) == pytest.approx(np.pi, abs=1e-8)
    cache = build_cache(DISC_SCALAR)
    xi_recheck = res.xi
    zs_inj = gamma_zeros(cache, xi_recheck, injected=omega_t)
    assert any(zs_inj.injected)  # the injection path engaged at the recheck
    assert not negative_intervals(cache, zs_inj, xi_recheck)

    # (b) contraction sign-fix: counter is well-defined and the nonpositive
    # residual postcondition holds on every contraction record
    fixes = 0
    for row in suite_results["rows"]:
        for pr in row.hec.pseudoroots:
            fixes += pr.sign_corrections
            for step in pr.trace:
                if step.phase == "contract":
                    assert step.g <= 0.0, (row.name, step)
    assert fixes >= 0
    _ok(f"8 robustness reproductions (sign fixes engaged {fixes} times)")


def test_criterion_9_hec_efficiency(suite_results):
    for row in suite_results["rows"]:
        assert (row.hec.eig_counts.pencil_solves
                <= row.mp.eig_counts.pencil_solves), row.name
        assert row.hec.restarts <= 5, row.name
    _ok("9 eigensolve efficiency versus the midpoint baseline")
