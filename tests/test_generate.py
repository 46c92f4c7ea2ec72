import numpy as np
import pytest

from ximargin.evaluation import build_cache, gamma
from ximargin.generate import oracle_suite, random_system
from ximargin.pencils import gamma_zeros, negative_intervals
from ximargin.systems import (
    InvalidParameterError,
    TimeDomain,
    check_minimality,
    spectral_bounds,
    xi_bracket,
)


class TestRandomSystem:
    def test_deterministic(self):
        a = random_system(4, 2, TimeDomain.CONTINUOUS, seed=11)
        b = random_system(4, 2, TimeDomain.CONTINUOUS, seed=11)
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_output(self):
        a = random_system(3, 1, TimeDomain.DISCRETE, seed=1)
        b = random_system(3, 1, TimeDomain.DISCRETE, seed=2)
        assert not np.array_equal(a.A, b.A)

    @pytest.mark.parametrize("domain", [TimeDomain.CONTINUOUS, TimeDomain.DISCRETE])
    def test_minimal_and_strictly_passive(self, domain):
        for seed in (0, 5, 9):
            sys_ = random_system(4, 2, domain, seed=seed, margin=0.25)
            assert check_minimality(sys_) == (True, True)
            cache = build_cache(sys_)
            assert gamma(cache, 0.0, 0.0) > 0
            zs = gamma_zeros(cache, 0.0)
            assert not negative_intervals(cache, zs, 0.0)

    def test_discrete_spectral_radius_pinned(self):
        sys_ = random_system(6, 2, TimeDomain.DISCRETE, seed=3, margin=0.1)
        _, rho = spectral_bounds(sys_)
        assert rho == pytest.approx(0.9, abs=1e-10)

    def test_continuous_abscissa_pinned(self):
        sys_ = random_system(5, 1, TimeDomain.CONTINUOUS, seed=3, margin=0.3)
        alpha, _ = spectral_bounds(sys_)
        assert alpha == pytest.approx(-0.3, abs=1e-10)

    def test_real_flag(self):
        sys_ = random_system(3, 1, TimeDomain.CONTINUOUS, seed=4, complex_data=False)
        assert sys_.is_real

    def test_bad_margin_rejected(self):
        for margin in (1.5, "0.1"):
            with pytest.raises(InvalidParameterError, match="margin"):
                random_system(2, 1, TimeDomain.CONTINUOUS, seed=0, margin=margin)

    @pytest.mark.parametrize("n, m, name", [
        pytest.param(0, 1, "n", id="n-zero"),
        pytest.param(2, 0, "m", id="m-zero"),
        pytest.param(-3, 1, "n", id="n-negative"),
        pytest.param(2.5, 1, "n", id="n-fraction"),
        pytest.param(2, 1.0, "m", id="m-float"),
        pytest.param(True, 1, "n", id="n-bool"),
        pytest.param(2, "1", "m", id="m-string"),
    ])
    def test_bad_sizes_rejected(self, n, m, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an int >= 1"):
            random_system(n, m, TimeDomain.DISCRETE, seed=0)

    def test_bool_is_not_a_real_number(self):
        # as for the sizes (require_int), True is no stand-in for 1.0
        with pytest.raises(InvalidParameterError, match="^d_floor must be finite"):
            random_system(2, 1, TimeDomain.CONTINUOUS, seed=0, d_floor=True)
        cache = build_cache(random_system(2, 1, TimeDomain.CONTINUOUS, seed=0))
        with pytest.raises(InvalidParameterError, match="^xi must be finite"):
            gamma(cache, True, 0.3)

    def test_numpy_integers_accepted(self):
        a = random_system(np.int64(3), np.int32(1), TimeDomain.DISCRETE, seed=np.int64(2))
        b = random_system(3, 1, TimeDomain.DISCRETE, seed=2)
        assert a.n == 3
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3", -1], ids=repr)
    def test_bad_seed_rejected(self, seed):
        # a fractional seed used to give another seed's draw, and -1 numpy's untyped error
        with pytest.raises(InvalidParameterError, match="^seed must be an int >= 0"):
            random_system(2, 1, TimeDomain.CONTINUOUS, seed=seed)

    @pytest.mark.parametrize("d_floor", [float("nan"), float("inf"), 0.0, -0.5, "1.5"], ids=repr)
    def test_bad_d_floor_rejected(self, d_floor):
        with pytest.raises(InvalidParameterError, match="^d_floor must be finite and > 0"):
            random_system(2, 1, TimeDomain.CONTINUOUS, seed=0, d_floor=d_floor)


class TestOracleSuite:
    def test_shape_and_determinism(self):
        suite = oracle_suite()
        assert len(suite) == 24
        names = [name for name, _ in suite]
        assert len(set(names)) == 24
        again = oracle_suite()
        for (n1, s1), (n2, s2) in zip(suite, again):
            assert n1 == n2
            np.testing.assert_array_equal(s1.A, s2.A)

    def test_margins_interior(self):
        # every suite system loses passivity strictly inside its bracket
        from ximargin.generate import loses_passivity_inside_bracket
        for name, sys_ in oracle_suite():
            br = xi_bracket(sys_)
            assert br.xi_ub - br.xi_lb > 1e-6, name
            assert loses_passivity_inside_bracket(sys_), name
