"""Sine/cosine integrals and the auxiliary f, g pair against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vacpair import DomainError, aux, ci, si
from vacpair.specfun import EULER_GAMMA

# frozen oracle values (adaptive quadrature of the defining integrals)
SI_PI = 1.851937051982466          # int_0^pi sin(t)/t dt
SI_1 = 0.9460830703671831
CI_1 = 0.33740392290096816
F_1 = 0.6214496242358134           # int_0^inf exp(-t)/(1+t^2) dt
G_1 = 0.343377961556427            # int_0^inf t exp(-t)/(1+t^2) dt


def si_oracle(x):
    val, _ = quad(lambda t: np.sinc(t / np.pi), 0.0, x, limit=600)
    return val


def laplace_oracle(x, weight):
    val, _ = quad(lambda t: t**weight * np.exp(-x * t) / (1 + t * t),
                  0.0, np.inf, limit=600, epsabs=1e-14, epsrel=1e-13)
    return val


class TestSi:
    def test_zero(self):
        assert si(0.0) == 0.0

    def test_at_pi(self):
        assert si(math.pi) == pytest.approx(SI_PI, rel=1e-12)
        assert si(math.pi) == pytest.approx(si_oracle(math.pi), rel=1e-11)

    def test_large_argument_limit(self):
        assert abs(si(1e4) - math.pi / 2) < 1e-4

    @pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            si(x)

    @pytest.mark.parametrize("x", [0.3, 1.0, 3.0, 4.0, 7.0, 20.0])
    def test_against_quadrature(self, x):
        assert si(x) == pytest.approx(si_oracle(x), rel=1e-11, abs=1e-13)


class TestCi:
    def test_at_one(self):
        assert ci(1.0) == pytest.approx(CI_1, rel=1e-12)

    def test_small_argument_log_singularity(self):
        # Ci(x) - ln(x) -> gamma, with O(x^2) remainder from the series
        for x in (1e-6, 1e-4):
            assert ci(x) - math.log(x) == pytest.approx(EULER_GAMMA, abs=1e-8)

    def test_large_argument_asymptotics(self):
        # four-term asymptotic expansion, truncation ~ 1e-6 relative at x=100
        x = 100.0
        expansion = (math.sin(x) / x * (1 - 2.0 / x**2)
                     - math.cos(x) / x**2 * (1 - 6.0 / x**2))
        assert ci(x) == pytest.approx(expansion, rel=1e-4)

    @pytest.mark.parametrize("x", [0.0, -2.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ci(x)


class TestBranchSeam:
    def test_both_branches_agree_at_cutover(self):
        # evaluate the series and continued-fraction branches at the same x
        from vacpair.specfun import _fg_continued_fraction, _si_cin_series

        x = 4.0
        si_series, cin, _ = _si_cin_series(x)
        ci_series = EULER_GAMMA + math.log(x) - cin
        f_cf, g_cf, _ = _fg_continued_fraction(x)
        si_cf = math.pi / 2 - (f_cf * math.cos(x) + g_cf * math.sin(x))
        ci_cf = f_cf * math.sin(x) - g_cf * math.cos(x)
        assert si_series == pytest.approx(si_cf, abs=1e-13)
        assert ci_series == pytest.approx(ci_cf, abs=1e-13)


class TestAux:
    def test_small_argument_limit(self):
        assert aux(1e-8).f == pytest.approx(math.pi / 2, abs=1e-6)

    def test_frozen_values(self):
        v = aux(1.0)
        assert v.f == pytest.approx(F_1, abs=1e-12)
        assert v.g == pytest.approx(G_1, abs=1e-12)

    def test_large_argument_asymptotics(self):
        v = aux(50.0)
        assert v.f == pytest.approx(1.0 / 50.0, rel=0.05)
        assert v.g == pytest.approx(1.0 / 2500.0, rel=0.10)

    def test_derivative_fields_exact(self):
        v = aux(2.3)
        assert v.f_prime == -v.g
        assert v.f_double_prime == 1.0 / 2.3 - v.f

    def test_domain(self):
        with pytest.raises(DomainError):
            aux(0.0)
        with pytest.raises(DomainError):
            aux(-1.0)

    @pytest.mark.parametrize("x", np.geomspace(1e-2, 1e2, 13))
    def test_laplace_representation(self, x):
        v = aux(x)
        assert abs(v.f - laplace_oracle(x, 0)) <= 1e-10
        assert abs(v.g - laplace_oracle(x, 1)) <= 1e-10

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_derivative_identities_by_finite_differences(self, x):
        h = 1e-5 * max(1.0, x)
        fp = (aux(x + h).f - aux(x - h).f) / (2 * h)
        gp = (aux(x + h).g - aux(x - h).g) / (2 * h)
        v = aux(x)
        assert abs(fp + v.g) <= max(1e-8, 1e-6 * abs(v.g))
        assert abs(gp - (v.f - 1.0 / x)) <= max(1e-8, 1e-6 * abs(v.f - 1.0 / x))

    def test_monotone_and_positive(self):
        grid = np.geomspace(1e-3, 1e3, 40)
        fs = [aux(x).f for x in grid]
        assert all(b < a for a, b in zip(fs, fs[1:]))
        assert all(aux(x).g > 0 for x in grid)
        assert all(0 < f < math.pi / 2 for f in fs)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_trigonometric_reconstruction(self, x):
        v = aux(x)
        assert v.f * math.sin(x) - v.g * math.cos(x) == pytest.approx(ci(x), abs=1e-12)
        assert v.f * math.cos(x) + v.g * math.sin(x) == pytest.approx(
            math.pi / 2 - si(x), abs=1e-12)

    def test_continued_fraction_converges_up_to_1e12(self):
        # a stopping test tighter than rounding allows made some of these raise
        for x in np.geomspace(1.07e11, 1e12, 200):
            v = aux(x)
            assert abs(v.f * x - 1.0) <= 1e-12
            assert abs(v.g * x * x - 1.0) <= 1e-12

    def test_error_estimate_present(self):
        assert aux(1.0).abs_err_est >= 0
        assert aux(100.0).abs_err_est >= 0
