"""The auxiliary f, g pair and the derivatives f'' and h = g - 1/x^2 against
quadrature oracles and mpmath, directly and through the sine and cosine
integrals they rebuild, and the Si and Cin series behind them below x = 4 and
the Gauss-Laguerre rule from x = 4 on."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vacpair import DomainError, aux
from vacpair.specfun import (_LAGUERRE_REL_ERR, _NODES, _WEIGHTED_POWERS, _WEIGHTS,
                             EULER_GAMMA, _branch, _si_cin_series)

import mpref

# frozen oracle values (adaptive quadrature of the defining integrals)
SI_PI = 1.851937051982466          # int_0^pi sin(t)/t dt
CI_1 = 0.33740392290096816
F_1 = 0.6214496242358134           # int_0^inf exp(-t)/(1+t^2) dt
G_1 = 0.343377961556427            # int_0^inf t exp(-t)/(1+t^2) dt


def si_from_aux(x):
    """Si(x) = pi/2 - f cos(x) - g sin(x)."""
    v = aux(x)
    return math.pi / 2 - (v.f * math.cos(x) + v.g * math.sin(x))


def ci_from_aux(x):
    """Ci(x) = f sin(x) - g cos(x)."""
    v = aux(x)
    return v.f * math.sin(x) - v.g * math.cos(x)


def si_oracle(x):
    val, _ = quad(lambda t: np.sinc(t / np.pi), 0.0, x, limit=600)
    return val


def laplace_oracle(x, weight):
    val, _ = quad(lambda t: t**weight * np.exp(-x * t) / (1 + t * t),
                  0.0, np.inf, limit=600, epsabs=1e-14, epsrel=1e-13)
    return val


class TestSi:
    def test_zero(self):
        assert _si_cin_series(0.0)[:2] == (0.0, 0.0)
        assert si_from_aux(1e-8) == pytest.approx(1e-8, abs=1e-15)

    def test_at_pi(self):
        assert si_from_aux(math.pi) == pytest.approx(SI_PI, rel=1e-12)
        assert si_from_aux(math.pi) == pytest.approx(si_oracle(math.pi), rel=1e-11)

    def test_large_argument_limit(self):
        assert abs(si_from_aux(1e4) - math.pi / 2) < 1e-4

    @pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            si_from_aux(x)

    @pytest.mark.parametrize("x", [0.3, 1.0, 3.0, 4.0, 7.0, 20.0])
    def test_against_quadrature(self, x):
        assert si_from_aux(x) == pytest.approx(si_oracle(x), rel=1e-11, abs=1e-13)


def test_series_is_within_two_epsilon_of_mpmath():
    # 17 fixed terms by Horner's rule: 1.84 epsilon at worst on 20 000 x.  A
    # series stopped by an absolute test of 1e-18 left Si 1.8e-13 off at
    # x = 1.8e-6 and Cin 2.0e-10 off at 7.0e-5, which Ci = gamma + ln x - Cin
    # and so f and g absorb
    eps = sys.float_info.epsilon
    for x in np.geomspace(1e-6, 4.0, 321)[:-1].tolist():
        si, cin, _ = _si_cin_series(x)
        si_ref, cin_ref = mpref.si_cin(x)
        assert abs(si - si_ref) <= 2 * eps * si_ref, x
        assert abs(cin - cin_ref) <= 2 * eps * cin_ref, x


class TestCi:
    def test_at_one(self):
        assert ci_from_aux(1.0) == pytest.approx(CI_1, rel=1e-12)

    def test_small_argument_log_singularity(self):
        # Ci(x) - ln(x) -> gamma, with O(x^2) remainder from the series
        for x in (1e-6, 1e-4):
            assert ci_from_aux(x) - math.log(x) == pytest.approx(EULER_GAMMA, abs=1e-8)

    def test_large_argument_asymptotics(self):
        # four-term asymptotic expansion, truncation ~ 1e-6 relative at x=100
        x = 100.0
        expansion = (math.sin(x) / x * (1 - 2.0 / x**2)
                     - math.cos(x) / x**2 * (1 - 6.0 / x**2))
        assert ci_from_aux(x) == pytest.approx(expansion, rel=1e-4)

    @pytest.mark.parametrize("x", [0.0, -2.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ci_from_aux(x)


class TestBranchSeam:
    def test_both_branches_agree_at_cutover(self):
        # the series and Gauss-Laguerre branches at the same x around x = 4,
        # each of f, g, f'' and h within the two branches' estimates together
        for x in np.linspace(3.5, 4.5, 41).tolist():
            *series, err_series = _branch(x, True)
            *rule, err_rule = _branch(x, False)
            for summed, ruled in zip(series, rule):
                assert abs(summed - ruled) <= err_series + err_rule, x


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
        si, ci = mpref.si_ci(x)
        assert ci_from_aux(x) == pytest.approx(float(ci), abs=1e-12)
        assert si_from_aux(x) == pytest.approx(float(si), abs=1e-12)

    def test_far_zone_f_and_g_up_to_1e12(self):
        # a continued fraction's stopping test tighter than rounding allows
        # once made some of these raise
        for x in np.geomspace(1.07e11, 1e12, 200):
            v = aux(x)
            assert abs(v.f * x - 1.0) <= 1e-12
            assert abs(v.g * x * x - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", [1e165, 1e300])
    def test_underflowing_g_is_zero(self, x):
        # g ~ 1/x^2 is below the smallest float from x ~ 6.3e161: 0 is its
        # correctly rounded value, not an error
        v = aux(x)
        assert v.g == 0.0
        assert v.f == pytest.approx(1.0 / x, rel=1e-15)

    def test_error_estimate_present(self):
        assert aux(1.0).abs_err_est >= 0
        assert aux(100.0).abs_err_est >= 0

    def test_error_estimate_bounds_true_error(self):
        # over the CLI's domain and both branches: the estimate must count
        # every rounding of the series' products and sums that form f and g,
        # and the rule's error from x = 4 on.  Below x = 4, f'' = 1/x - f and
        # h = g - 1/x/x also round 1/x, 1/x/x and the difference: at most
        # epsilon/x and 1.5 epsilon/x^2
        eps = sys.float_info.epsilon
        for x in np.geomspace(1e-6, 1e12, 1000).tolist():
            v = aux(x)
            (f, _), (g, _) = mpref.fg(x)
            (f_double_prime, _), (h, _) = mpref.derivatives(x)
            series = x < 4.0
            assert abs(v.f - f) <= v.abs_err_est, x
            assert abs(v.g - g) <= v.abs_err_est, x
            assert abs(v.f_double_prime - f_double_prime) <= v.abs_err_est + series * eps / x, x
            assert abs(v.h - h) <= v.abs_err_est + series * 1.5 * eps / x / x, x

    def test_far_zone_derivatives_are_direct_sums(self):
        # from x = 4 on f'' and h are the rule's own sums, right to its stated
        # relative error where 1/x - f and g - 1/x^2 would keep none of it
        # (as f'', 1/x - f is 7.8e-5 off at x = 1e6 and 0.65 at 1e8)
        for x in np.geomspace(4.0, 1e12, 60).tolist():
            v = aux(x)
            for value, (ref, _) in zip((v.f_double_prime, v.h), mpref.derivatives(x)):
                assert abs(value - ref) <= _LAGUERRE_REL_ERR * abs(ref), x


def test_laguerre_table_is_the_correctly_rounded_rule():
    # every literal is its 80-digit value rounded to nearest, and the table is
    # shared read-only by every caller
    nodes, weights, total = mpref.laguerre_rule(60)
    assert _NODES.tolist() == [float(t) for t in nodes]
    assert _WEIGHTS.tolist() == [float(w) for w in weights]
    assert abs(total - 1) < 1e-60
    assert not (_NODES.flags.writeable or _WEIGHTED_POWERS.flags.writeable)
