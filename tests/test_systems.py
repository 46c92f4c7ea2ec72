import numpy as np
import pytest

from ximargin.systems import (
    DimensionError,
    InvalidParameterError,
    StateSpaceSystem,
    TimeDomain,
    Tolerances,
    balance_state,
    check_minimality,
    passivity_matrix_cont,
    passivity_matrix_disc,
    shifted_system,
    spectral_bounds,
    xi_bracket,
)


def cont(A, B, C, D):
    return StateSpaceSystem(A, B, C, D, TimeDomain.CONTINUOUS)


def disc(A, B, C, D):
    return StateSpaceSystem(A, B, C, D, TimeDomain.DISCRETE)


CONT_SCALAR = cont([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
DISC_SCALAR = disc([[0.0]], [[1.0]], [[1.0]], [[1.0]])
CONT_GAIN2 = cont([[-1.0]], [[1.0]], [[2.0]], [[2.0]])


def random_system(n, m, domain, seed, real=False):
    rng = np.random.default_rng(seed)
    def draw(r, c):
        M = rng.standard_normal((r, c))
        if not real:
            M = M + 1j * rng.standard_normal((r, c))
        return M
    A = draw(n, n)
    if domain is TimeDomain.CONTINUOUS:
        A = A - (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    else:
        A = 0.5 * A / np.abs(np.linalg.eigvals(A)).max()
    return StateSpaceSystem(A, draw(n, m), draw(m, n), draw(m, m) + 2 * np.eye(m), domain)


def diagonally_scaled(system, k=2.0):
    """x -> diag(d) x with d = logspace(-k, k, n): the same transfer function and margin."""
    d = np.logspace(-k, k, system.n)
    return StateSpaceSystem(d[:, None] * system.A / d[None, :], d[:, None] * system.B,
                            system.C / d[None, :], system.D, system.domain)


def transfer(system, s):
    return system.C @ np.linalg.solve(s * np.eye(system.n) - system.A, system.B) + system.D


class TestStateSpaceSystem:
    def test_dimensions_validated(self):
        with pytest.raises(DimensionError):
            StateSpaceSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)),
                             np.zeros((1, 1)), TimeDomain.CONTINUOUS)
        with pytest.raises(DimensionError):
            StateSpaceSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)),
                             np.zeros((1, 1)), TimeDomain.CONTINUOUS)
        with pytest.raises(DimensionError):
            StateSpaceSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)),
                             np.zeros((1, 1)), TimeDomain.CONTINUOUS)
        with pytest.raises(DimensionError):
            StateSpaceSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                             np.zeros((2, 2)), TimeDomain.CONTINUOUS)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            cont([[np.nan]], [[1.0]], [[1.0]], [[1.0]])

    def test_is_real_flag(self):
        assert CONT_SCALAR.is_real
        sys_c = cont([[-1.0 + 1e-300j]], [[1.0]], [[1.0]], [[1.0]])
        assert not sys_c.is_real

    def test_is_real_not_a_parameter(self):
        # derived from the matrices, so it is no constructor argument
        with pytest.raises(TypeError):
            StateSpaceSystem([[-1j]], [[1]], [[1]], [[1]], TimeDomain.CONTINUOUS, is_real=True)

    def test_matrices_read_only(self):
        with pytest.raises(ValueError):
            CONT_SCALAR.A[0, 0] = 5.0


class TestShiftedSystem:
    def test_zero_shift_is_identity(self):
        shifted = shifted_system(CONT_SCALAR, 0.0)
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(shifted, name), getattr(CONT_SCALAR, name))

    def test_continuous_shift_arithmetic(self):
        shifted = shifted_system(CONT_SCALAR, 2.0)
        assert shifted.A[0, 0] == 0.0
        assert shifted.D[0, 0] == 0.0
        assert shifted.B[0, 0] == 1.0 and shifted.C[0, 0] == 1.0

    def test_discrete_scaling(self):
        shifted = shifted_system(DISC_SCALAR, 0.5)
        np.testing.assert_allclose(shifted.A, [[0.0]])
        np.testing.assert_allclose(shifted.B, [[2.0]])
        np.testing.assert_allclose(shifted.C, [[2.0]])
        np.testing.assert_allclose(shifted.D, [[1.0]])

    def test_discrete_xi_at_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            shifted_system(DISC_SCALAR, 1.0)

    def test_continuous_shift_additivity(self):
        sys_r = random_system(4, 2, TimeDomain.CONTINUOUS, seed=7)
        once = shifted_system(shifted_system(sys_r, 0.3), -1.1)
        direct = shifted_system(sys_r, 0.3 - 1.1)
        for name in "ABCD":
            np.testing.assert_allclose(getattr(once, name), getattr(direct, name),
                                       rtol=0, atol=1e-14)


class TestPassivityMatrices:
    def test_cont_identity_example(self):
        W = passivity_matrix_cont(np.eye(1), CONT_SCALAR)
        np.testing.assert_allclose(W, [[2.0, 0.0], [0.0, 2.0]])

    def test_cont_gain2_example(self):
        W = passivity_matrix_cont(np.eye(1), CONT_GAIN2)
        np.testing.assert_allclose(W, [[2.0, 1.0], [1.0, 4.0]])

    def test_cont_zero_x(self):
        sys_r = random_system(3, 2, TimeDomain.CONTINUOUS, seed=3)
        W = passivity_matrix_cont(np.zeros((3, 3)), sys_r)
        np.testing.assert_allclose(W[:3, :3], np.zeros((3, 3)))
        np.testing.assert_allclose(W[:3, 3:], sys_r.C.conj().T)
        np.testing.assert_allclose(W[3:, :3], sys_r.C)
        np.testing.assert_allclose(W[3:, 3:], sys_r.D.conj().T + sys_r.D)

    def test_disc_twoI_example(self):
        W = passivity_matrix_disc(2.0 * np.eye(1), DISC_SCALAR)
        np.testing.assert_allclose(W, [[2.0, 0.0, 2.0], [0.0, 2.0, 1.0], [2.0, 1.0, 2.0]])

    def test_disc_zero_x_bordered(self):
        sys_r = random_system(3, 2, TimeDomain.DISCRETE, seed=5)
        W = passivity_matrix_disc(np.zeros((3, 3)), sys_r)
        assert np.all(W[:6, :3] == 0) and np.all(W[:3, :6] == 0)
        np.testing.assert_allclose(W[3:6, 6:], sys_r.C.conj().T)
        np.testing.assert_allclose(W[6:, 3:6], sys_r.C)
        np.testing.assert_allclose(W[6:, 6:], sys_r.D.conj().T + sys_r.D)

    def test_disc_matches_independent_assembly(self):
        sys_r = random_system(3, 2, TimeDomain.DISCRETE, seed=11)
        X = 2.0 * np.eye(3)
        W = passivity_matrix_disc(X, sys_r)
        n, m = 3, 2
        ref = np.zeros((2 * n + m, 2 * n + m), dtype=complex)
        ref[:n, :n] = X
        ref[:n, n:2 * n] = X @ sys_r.A
        ref[:n, 2 * n:] = X @ sys_r.B
        ref[n:2 * n, :n] = sys_r.A.conj().T @ X
        ref[n:2 * n, n:2 * n] = X
        ref[n:2 * n, 2 * n:] = sys_r.C.conj().T
        ref[2 * n:, :n] = sys_r.B.conj().T @ X
        ref[2 * n:, n:2 * n] = sys_r.C
        ref[2 * n:, 2 * n:] = sys_r.D.conj().T + sys_r.D
        np.testing.assert_allclose(W, ref, atol=1e-13)

    def test_hermitian_output(self):
        for seed in range(4):
            sys_r = random_system(4, 2, TimeDomain.CONTINUOUS, seed=seed)
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            X = 0.5 * (X + X.conj().T)
            W = passivity_matrix_cont(X, sys_r)
            assert np.linalg.norm(W - W.conj().T) <= 1e-12 * max(np.linalg.norm(W), 1.0)

    def test_shift_identity(self):
        # W_c(X, shifted(M, xi)) == W_c(X, M) - xi * blkdiag(X, I)
        sys_r = random_system(4, 2, TimeDomain.CONTINUOUS, seed=19)
        rng = np.random.default_rng(23)
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        X = 0.5 * (X + X.conj().T)
        for xi in (-1.5, 0.0, 0.7, 3.2):
            lhs = passivity_matrix_cont(X, shifted_system(sys_r, xi))
            blk = np.zeros((6, 6), dtype=complex)
            blk[:4, :4] = X
            blk[4:, 4:] = np.eye(2)
            rhs = passivity_matrix_cont(X, sys_r) - xi * blk
            scale = max(1.0, np.linalg.norm(rhs))
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


class TestSpectralBounds:
    def test_scalar(self):
        assert spectral_bounds(CONT_SCALAR) == (-1.0, 1.0)

    def test_rotation(self):
        sys_r = cont([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[1.0]])
        alpha, rho = spectral_bounds(sys_r)
        assert abs(alpha) < 1e-14 and abs(rho - 1.0) < 1e-14

    def test_random_against_full_scan(self):
        sys_r = random_system(5, 1, TimeDomain.CONTINUOUS, seed=2)
        alpha, rho = spectral_bounds(sys_r)
        eigs = np.linalg.eigvals(sys_r.A)
        assert alpha == pytest.approx(max(e.real for e in eigs), rel=1e-15)
        assert rho == pytest.approx(max(abs(e) for e in eigs), rel=1e-15)


class TestXiBracket:
    def test_cont_scalar_collapsed(self):
        br = xi_bracket(CONT_SCALAR)
        assert br.xi_lb == pytest.approx(2.0, abs=1e-12)
        assert br.xi_ub == pytest.approx(2.0, abs=1e-14)

    def test_disc_scalar(self):
        br = xi_bracket(DISC_SCALAR)
        assert br.xi_lb == pytest.approx(0.5 * (2.0 - np.sqrt(5.0)), abs=1e-12)
        assert br.xi_ub == pytest.approx(1.0, abs=1e-14)

    def test_cont_gain2(self):
        br = xi_bracket(CONT_GAIN2)
        assert br.xi_lb == pytest.approx(3.0 - np.sqrt(2.0), abs=1e-12)
        assert br.xi_ub == pytest.approx(2.0, abs=1e-14)

    def test_lower_bound_is_passive(self):
        # The shifted passivity matrix at xi_lb stays positive semidefinite.
        for seed in range(5):
            sys_c = random_system(4, 2, TimeDomain.CONTINUOUS, seed=seed)
            br = xi_bracket(sys_c)
            W = passivity_matrix_cont(np.eye(4), sys_c)
            shifted = W - br.xi_lb * np.eye(6)
            lam = np.linalg.eigvalsh(0.5 * (shifted + shifted.conj().T))[0]
            assert lam >= -1e-12 * np.linalg.norm(W)
            sys_d = random_system(4, 2, TimeDomain.DISCRETE, seed=seed)
            br = xi_bracket(sys_d)
            W = passivity_matrix_disc(2.0 * np.eye(4), sys_d)
            shifted = W - 2.0 * br.xi_lb * np.eye(10)
            lam = np.linalg.eigvalsh(0.5 * (shifted + shifted.conj().T))[0]
            assert lam >= -1e-12 * np.linalg.norm(W)

    def test_upper_bound_unitary_invariance(self):
        sys_r = random_system(5, 2, TimeDomain.CONTINUOUS, seed=31)
        rng = np.random.default_rng(37)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        rotated = StateSpaceSystem(Q.conj().T @ sys_r.A @ Q, Q.conj().T @ sys_r.B,
                                   sys_r.C @ Q, sys_r.D, sys_r.domain)
        ub0 = xi_bracket(sys_r).xi_ub
        ub1 = xi_bracket(rotated).xi_ub
        assert abs(ub0 - ub1) <= 1e-10 * max(1.0, abs(ub0))


class TestBalanceState:
    def test_balanced_model_comes_back_itself(self):
        assert balance_state(CONT_SCALAR) is CONT_SCALAR
        assert balance_state(DISC_SCALAR) is DISC_SCALAR

    @pytest.mark.parametrize("real", [False, True])
    def test_exact_diagonal_similarity(self, real):
        system = diagonally_scaled(random_system(6, 2, TimeDomain.CONTINUOUS, seed=7, real=real))
        bal = balance_state(system)
        assert bal is not system and bal.is_real == real and bal.domain is system.domain
        # powers of two, recovered exactly from B and applied exactly to A and C
        s = system.B[:, 0].real / bal.B[:, 0].real
        assert np.all(np.exp2(np.round(np.log2(s))) == s) and np.any(s != 1.0)
        np.testing.assert_array_equal(bal.A, system.A * (s[None, :] / s[:, None]))
        np.testing.assert_array_equal(bal.C, system.C * s[None, :])
        np.testing.assert_array_equal(bal.D, system.D)  # the ports stay unscaled
        # far better scaled than the input, with the same transfer function
        assert np.abs(bal.A).max() < 1e-2 * np.abs(system.A).max()
        for w in (0.0, 0.7, -3.1):
            np.testing.assert_allclose(transfer(bal, 1j * w), transfer(system, 1j * w),
                                       rtol=1e-12, atol=1e-12)


class TestCheckMinimality:
    def test_scalar_minimal(self):
        assert check_minimality(CONT_SCALAR) == (True, True)

    def test_uncontrollable_mode(self):
        sys_r = cont(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[1.0, 1.0]], [[1.0]])
        assert check_minimality(sys_r) == (False, True)

    def test_unobservable_mode(self):
        sys_r = cont(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[0.0, 1.0]], [[1.0]])
        assert check_minimality(sys_r) == (True, False)


class TestTolerances:
    def test_defaults_valid(self):
        tol = Tolerances()
        assert 0 < tol.tau < 1

    # Ids keep each case's position in the list from when Tolerances had more
    # fields (kwargs3-5 were the removed fields' cases).
    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"tau": 1.0}, {"tau": -1e-3}, {"tau": 1e-17},
    ], ids=["kwargs0", "kwargs1", "kwargs2", "kwargs6"])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Tolerances(**kwargs)
