"""The closed-form kernels of ``oracles`` against direct quadrature of the
defining integrals.  ``test_filters`` checks the library's prefix-sum
evaluations against these."""

import numpy as np
import pytest
from math import factorial
from numpy.testing import assert_allclose
from scipy.integrate import quad

from glppm.errors import ConfigError, DomainError
from glppm.kernel import SobolevKernel

from oracles import cross_eval, r0, r1, r1_double_integral, r1_time_integral, r_full


def r1_quad(m, s, r):
    """Adaptive quadrature of int_0^(s^r) (s-u)^(m-1)(r-u)^(m-1)/((m-1)!)^2 du."""
    w = min(s, r)
    if w == 0.0:
        return 0.0
    c = factorial(m - 1) ** 2
    val, _ = quad(lambda u: (s - u) ** (m - 1) * (r - u) ** (m - 1) / c, 0.0, w)
    return val


class TestR1Values:
    def test_m1_is_min(self):
        k = SobolevKernel(1, 5.0)
        assert r1(k, 2.0, 3.0) == 2.0
        assert r1(k, 3.0, 2.0) == 2.0

    def test_m2_unit_diagonal(self):
        k = SobolevKernel(2, 5.0)
        assert_allclose(r1(k, 1.0, 1.0), 1.0 / 3.0, rtol=1e-15)

    def test_zero_argument(self):
        k = SobolevKernel(2, 5.0)
        assert r1(k, 0.0, 5.0) == 0.0
        assert r1(k, 5.0, 0.0) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_quadrature(self, m):
        rng = np.random.default_rng(7)
        k = SobolevKernel(m, 4.0)
        for _ in range(40):
            s, r = rng.uniform(0.0, 4.0, size=2)
            assert_allclose(r1(k, s, r), r1_quad(m, s, r), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_fast_path_matches_expansion(self, m):
        rng = np.random.default_rng(11)
        k = SobolevKernel(m, 3.0)
        s = rng.uniform(0.0, 3.0, size=64)
        r = rng.uniform(0.0, 3.0, size=64)
        assert_allclose(r1(k, s, r), cross_eval(m, m, s, r), rtol=1e-13, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3):
            k = SobolevKernel(m, 2.0)
            s = rng.uniform(0.0, 2.0, size=30)
            r = rng.uniform(0.0, 2.0, size=30)
            assert_allclose(r1(k, s, r), r1(k, r, s), rtol=0, atol=1e-15)
            assert_allclose(r_full(k, s, r), r_full(k, r, s), rtol=0, atol=1e-14)

    def test_independent_of_horizon(self):
        a = SobolevKernel(2, 2.0)
        b = SobolevKernel(2, 50.0)
        s = np.linspace(0.0, 2.0, 17)
        assert np.array_equal(r1(a, s, 1.3), r1(b, s, 1.3))


class TestPositiveSemidefinite:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gram_psd(self, m):
        rng = np.random.default_rng(2024 + m)
        k = SobolevKernel(m, 3.0)
        pts = rng.uniform(0.0, 3.0, size=20)
        for kernel in (r1, r0, r_full):
            gram = kernel(k, pts[:, None], pts[None, :])
            gram = 0.5 * (gram + gram.T)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10


class TestH0Basis:
    def test_values(self):
        k = SobolevKernel(3, 4.0)
        got = k.h0_basis(2.0)
        assert_allclose(got, [1.0, 2.0, 2.0], rtol=1e-15)

    def test_r0_consistent_with_basis(self):
        k = SobolevKernel(3, 4.0)
        s, r = 1.7, 3.1
        assert_allclose(r0(k, s, r), k.h0_basis(s) @ k.h0_basis(r), rtol=1e-14)

    def test_reproduces_derivative_identity(self):
        # For m = 2 the H1 kernel satisfies R1(s, r) = int (s-u)+ (r-u)+ du,
        # i.e. its second derivative in the second slot is the hinge (s-u)+.
        k = SobolevKernel(2, 3.0)
        s, r = 1.2, 2.4
        val, _ = quad(lambda u: max(s - u, 0.0) * max(r - u, 0.0), 0.0, 3.0)
        assert_allclose(r1(k, s, r), val, rtol=1e-12)


class TestTimeIntegral:
    def test_m2_displayed_cases(self):
        k = SobolevKernel(2, 3.0)
        assert_allclose(r1_time_integral(k, 1.0, 2.0), 7.0 / 24.0, rtol=1e-15)
        assert_allclose(r1_time_integral(k, 2.0, 1.0), 17.0 / 24.0, rtol=1e-15)

    def test_branches_agree_on_diagonal(self):
        k = SobolevKernel(2, 3.0)
        r = 1.3
        below = r**3 * r / 6.0 - r**4 / 24.0
        above = r**4 / 24.0 + r**2 * r**2 / 4.0 - r**3 * r / 6.0
        assert_allclose(below, above, rtol=1e-15)
        assert_allclose(r1_time_integral(k, r, r), below, rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_quadrature(self, m):
        rng = np.random.default_rng(m)
        k = SobolevKernel(m, 3.0)
        for _ in range(25):
            a, r = rng.uniform(0.0, 3.0, size=2)
            want, _ = quad(lambda s: float(r1(k, s, r)), 0.0, a, points=[min(r, a)], limit=200)
            assert_allclose(r1_time_integral(k, a, r), want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_double_integral_matches_nested_quadrature(self, m):
        k = SobolevKernel(m, 2.0)
        rng = np.random.default_rng(5 + m)
        for _ in range(8):
            a, b = rng.uniform(0.1, 2.0, size=2)
            want, _ = quad(
                lambda s: float(r1_time_integral(k, b, s)), 0.0, a, points=[min(a, b)], limit=200
            )
            assert_allclose(r1_double_integral(k, a, b), want, rtol=1e-9, atol=1e-12)

    def test_double_integral_symmetry(self):
        k = SobolevKernel(2, 2.0)
        assert_allclose(
            r1_double_integral(k, 0.7, 1.9), r1_double_integral(k, 1.9, 0.7), rtol=1e-14
        )


class TestValidation:
    def test_domain_errors(self):
        k = SobolevKernel(2, 1.0)
        with pytest.raises(DomainError):
            r1(k, -0.1, 0.5)
        with pytest.raises(DomainError):
            r1(k, 0.5, 1.5)
        with pytest.raises(DomainError):
            r1_time_integral(k, 1.2, 0.5)

    @pytest.mark.parametrize("bad", [[1.5, np.nan], [np.nan, 1.5], [np.nan, -0.1, 0.5]])
    def test_nan_does_not_hide_an_out_of_range_value(self, bad):
        k = SobolevKernel(2, 1.0)
        out = 1.5 if 1.5 in bad else -0.1
        for call in (k.h0_basis, k.h0_antiderivative):
            with pytest.raises(DomainError) as exc:
                call(np.array(bad))
            assert exc.value.at == out

    def test_nan_alone_gives_nan(self):
        k = SobolevKernel(2, 1.0)
        got = k.h0_basis(np.array([0.5, np.nan]))
        assert np.isnan(got[1, 1]) and got[1, 0] == 0.5
        assert np.isnan(k.h0_basis(np.array([np.nan, np.nan]))[1]).all()

    def test_bad_construction(self):
        with pytest.raises(ConfigError):
            SobolevKernel(0, 1.0)
        with pytest.raises(ConfigError):
            SobolevKernel(2, -1.0)
        with pytest.raises(ConfigError):
            SobolevKernel(2.0, 1.0)  # type: ignore[arg-type]

    def test_order_is_any_integral_number_but_a_bool(self):
        # a NumPy integer is the kernel of its int, stored as an int; a
        # bool, a float and 0 are refused
        k = SobolevKernel(np.int64(2), 5.0)
        assert k == SobolevKernel(2, 5.0) and type(k.m) is int
        assert hash(k) == hash(SobolevKernel(2, 5.0))
        for bad in (True, np.bool_(True), 2.0, 0, np.int64(0)):
            with pytest.raises(ConfigError, match="kernel order m"):
                SobolevKernel(bad, 5.0)
