import math

import numpy as np
import pytest

from oracles import helstrom_decimal, qpsk_gram
from qpskrx.bounds import gram_eigenvalues, helstrom_qpsk, sql_heterodyne, sql_lossy


class TestSqlHeterodyne:
    def test_zero_signal(self):
        assert sql_heterodyne(0.0) == pytest.approx(0.75, abs=1e-15)

    def test_reference_value_at_one_photon(self):
        # erf(1/sqrt(2)) = 0.6826894921370859
        assert sql_heterodyne(1.0) == pytest.approx(0.29204, abs=1e-4)
        expected = 1 - 0.25 * (1 + 0.6826894921370859) ** 2
        assert sql_heterodyne(1.0) == pytest.approx(expected, abs=1e-12)

    def test_erf_against_quadrature(self):
        # validate the error function path against direct numerical integration
        from scipy.integrate import quad
        for a2 in (0.3, 1.0, 4.0, 9.0):
            x = math.sqrt(a2 / 2)
            erf_quad = 2 / math.sqrt(math.pi) * quad(lambda t: math.exp(-t * t), 0, x)[0]
            expected = 1 - 0.25 * (1 + erf_quad) ** 2
            assert sql_heterodyne(a2) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_to_zero(self):
        grid = np.linspace(0, 30, 200)
        vals = [sql_heterodyne(a) for a in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-7

    @pytest.mark.parametrize("alpha_sq", [-1e-3, float("nan")])
    def test_negative_and_nan_rejected(self, alpha_sq):
        with pytest.raises(ValueError, match="alpha_sq"):
            sql_heterodyne(alpha_sq)

    def test_infinite_signal_is_the_zero_limit(self):
        assert sql_heterodyne(math.inf) == 0.0


class TestSqlLossy:
    def test_unit_efficiency(self):
        assert sql_lossy(3.0, 1.0) == sql_heterodyne(3.0)

    def test_zero_efficiency(self):
        assert sql_lossy(5.0, 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_zero_efficiency_infinite_signal(self):
        # the limit of zero efficiency, not sql_heterodyne of the product 0 * inf
        assert sql_lossy(math.inf, 0.0) == 0.75

    @pytest.mark.parametrize("eta_total", [0.0, 0.5])
    @pytest.mark.parametrize("alpha_sq", [math.nan, -1.0])
    def test_bad_signal_named_as_given(self, alpha_sq, eta_total):
        # checked before the product, which would read -0.5, or pass as -0.0
        with pytest.raises(ValueError, match=f"alpha_sq must be >= 0, got {alpha_sq}$"):
            sql_lossy(alpha_sq, eta_total)

    @pytest.mark.parametrize("eta_total", [-0.1, 1.1, math.nan])
    def test_efficiency_outside_the_unit_interval_rejected(self, eta_total):
        message = f"^eta_total must be in \\[0, 1\\], got {eta_total}$"
        with pytest.raises(ValueError, match=message):
            sql_lossy(3.0, eta_total)

    def test_composition(self):
        assert sql_lossy(2.0, 0.65) == pytest.approx(sql_heterodyne(1.3), abs=1e-15)

    def test_never_below_ideal(self):
        for a2 in np.linspace(0, 12, 25):
            assert sql_lossy(a2, 0.65) >= sql_heterodyne(a2)


class TestHelstrom:
    def test_zero_signal(self):
        # the three zero eigenvalues are exact, so no roundoff enters through
        # a square root
        assert helstrom_qpsk(0.0) == 0.75

    def test_matches_decimal_reference(self):
        # the closed-form eigenvalues and pair differences cancel nowhere: the
        # old 1 - (sum of square roots)^2 / 16 was 2.8e-8 off at 9.4 and 0.0
        # from about 18 on; both branches meet at 1
        grid = [*np.geomspace(1e-12, 40.0, 200), math.nextafter(1.0, 0.0), 1.0, 9.4, 12.0]
        for a2 in grid:
            expected = helstrom_decimal(a2)
            assert abs(helstrom_qpsk(a2) - expected) <= 1e-14 * expected, a2

    @pytest.mark.parametrize("alpha_sq", [5e-324, 1e-300, 1e-160])
    def test_tiny_signal(self, alpha_sq):
        # two eigenvalues underflow to zero together; their pair adds nothing
        assert helstrom_qpsk(alpha_sq) == 0.75

    def test_huge_signal_is_finite(self):
        assert helstrom_qpsk(1e300) == 0.0
        assert 0.0 < helstrom_qpsk(60.0) < 1e-50

    def test_below_sql_pointwise(self):
        for a2 in np.linspace(0.05, 12, 60):
            assert helstrom_qpsk(a2) < sql_heterodyne(a2)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0, 12, 100)
        vals = [helstrom_qpsk(a) for a in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for a2 in np.linspace(0, 12, 50):
            assert 0.0 <= helstrom_qpsk(a2) <= 0.75

    @pytest.mark.parametrize("alpha_sq", [-1e-3, float("nan"), math.inf])
    def test_negative_and_non_finite_rejected(self, alpha_sq):
        with pytest.raises(ValueError, match="alpha_sq"):
            helstrom_qpsk(alpha_sq)

    def test_circulant_eigenvalues_match_dense_solver(self):
        for a2 in (0.0, 0.3, 1.0, 2.7, 6.0, 11.0):
            lam_closed = np.sort(gram_eigenvalues(a2))
            lam_dense = np.sort(np.linalg.eigvalsh(qpsk_gram(a2)))
            np.testing.assert_allclose(lam_closed, lam_dense, atol=1e-10)

    def test_gram_is_hermitian_psd(self):
        g = qpsk_gram(1.7)
        np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(g).min() > -1e-12
