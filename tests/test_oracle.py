"""Brute-force validators: self-consistency and the spotlight closed forms."""

import numpy as np
import pytest

from vacpair import DomainError, pair_from_alignment
from vacpair.entanglement import regularized_local_population
from vacpair.kernel import contracted_tensor
from vacpair.oracle import (_default_segments, angular_kernel,
                            aux_integral_rep, dispersion_integral_real_axis,
                            dispersion_integral_rotated,
                            field_correlator, local_population,
                            modesum_first_order, modesum_second_order)

from conftest import STANDARD_GRID, longitudinal_pair, transverse_pair

G_1 = 0.343377961556427
# exact antiderivative of k^3/(1+k)^2 on [0, L], times 2/(3 pi)
LOCAL_POP_RATIO_10_100 = 132.64183531800975
LOCAL_POP_RATIO_100_1000 = 103.47697989996128


class TestAngularKernel:
    def test_values_at_origin(self):
        s1, s2 = angular_kernel(np.array([1e-12]))
        assert s1[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert abs(s2[0]) < 1e-20

    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.299])
    def test_series_matches_direct_formula(self, rho):
        # below the switch the kernel comes from the series; compare with the
        # direct trigonometric form evaluated at the same point
        s1, s2 = (v[0] for v in angular_kernel(np.array([rho])))
        s, c = np.sin(rho), np.cos(rho)
        assert s1 == pytest.approx(s / rho - s / rho**3 + c / rho**2, abs=1e-12)
        assert s2 == pytest.approx(s / rho - 3 * s / rho**3 + 3 * c / rho**2,
                                   abs=1e-12)


class TestModesumFirstOrder:
    def test_transverse_at_one(self):
        rep = modesum_first_order(1.0, cfg=transverse_pair(1.0))
        assert rep.value == pytest.approx((1.0 + G_1) / np.pi, rel=1e-8)
        assert rep.accelerated

    def test_orthogonal_geometry_vanishes(self):
        cfg = pair_from_alignment(1.0, 1.0, 0.0, 0.0)
        assert abs(modesum_first_order(1.0, cfg=cfg).value) < 1e-9

    def test_near_zone_value(self):
        rep = modesum_first_order(0.01, cfg=transverse_pair(0.01))
        assert rep.value == pytest.approx((np.pi / 2) / 0.01**3 / np.pi, rel=1e-2)

    @pytest.mark.parametrize("x", STANDARD_GRID)
    def test_identity_against_closed_form(self, x):
        for a, b in ((1.0, 0.0), (1.0, 1.0)):
            cfg = pair_from_alignment(x, 1.0, a, b)
            rep = modesum_first_order(x, cfg=cfg)
            assert rep.value == pytest.approx(contracted_tensor(x, a, b) / np.pi,
                                              rel=1e-6)

    def test_deterministic(self):
        a = modesum_first_order(0.7, cfg=transverse_pair(0.7))
        b = modesum_first_order(0.7, cfg=transverse_pair(0.7))
        assert a.value == b.value
        assert a.abs_err_est == b.abs_err_est

    def test_domain(self):
        with pytest.raises(DomainError):
            modesum_first_order(-1.0, cfg=transverse_pair(1.0))


class TestModesumSecondOrder:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_finite_without_cutoff(self, x):
        rep = modesum_second_order(x, cfg=transverse_pair(x))
        assert np.isfinite(rep.value)
        assert rep.abs_err_est < 1e-6 * max(1.0, abs(rep.value))

    def test_far_zone_decay(self):
        v50 = modesum_second_order(50.0, cfg=transverse_pair(50.0)).value
        v100 = modesum_second_order(100.0, cfg=transverse_pair(100.0)).value
        assert abs(v50) >= 4.0 * abs(v100)

    def test_equals_resonance_derivative_of_first_order(self):
        x, h = 1.0, 1e-4
        cfg = transverse_pair(x)
        s2 = modesum_second_order(x, cfg=cfg).value
        up = modesum_first_order(x, cfg=cfg, resonance=1 + h).value
        dn = modesum_first_order(x, cfg=cfg, resonance=1 - h).value
        assert s2 == pytest.approx((up - dn) / (2 * h), rel=1e-5)


class TestLocalPopulation:
    def test_against_antiderivative(self):
        for cutoff in (2.0, 10.0, 100.0, 1000.0):
            assert local_population(cutoff).value == pytest.approx(
                regularized_local_population(cutoff), rel=1e-10)

    def test_quadratic_growth_in_asymptotic_regime(self):
        ratio = local_population(1000.0).value / local_population(100.0).value
        assert ratio == pytest.approx(LOCAL_POP_RATIO_100_1000, rel=1e-9)
        assert abs(ratio - 100.0) / 100.0 < 0.2
        # below the asymptotic regime the subleading terms still bite
        ratio_low = local_population(100.0).value / local_population(10.0).value
        assert ratio_low == pytest.approx(LOCAL_POP_RATIO_10_100, rel=1e-9)

    def test_shrinking_domain(self):
        v = local_population(1.001).value
        assert 0.0 < v < 1e-1

    def test_domain(self):
        with pytest.raises(DomainError):
            local_population(1.0)


class TestAuxIntegralRep:
    def test_frozen_value(self):
        assert aux_integral_rep(1.0, "f").value == pytest.approx(
            0.6214496242358134, abs=1e-12)

    def test_small_x_limit(self):
        # f(x) - pi/2 ~ x ln(1/x), about 2e-7 at x = 1e-8
        assert aux_integral_rep(1e-8, "f").value == pytest.approx(np.pi / 2,
                                                                  abs=1e-6)

    def test_g_asymptotics(self):
        assert aux_integral_rep(10.0, "g").value == pytest.approx(1e-2, rel=0.10)

    def test_domain(self):
        with pytest.raises(DomainError):
            aux_integral_rep(0.0, "g")
        with pytest.raises(DomainError):
            aux_integral_rep(1.0, "h")


class TestFieldCorrelator:
    @pytest.mark.parametrize("x", [0.5, 1.0, 10.0, 100.0])
    def test_transverse_closed_form(self, x):
        # Abel value of the radial integral: -4/x^4 transverse, +4/x^4 long
        assert field_correlator(x, 1.0, 0.0).value == pytest.approx(
            -4.0 / x**4, rel=1e-6)

    def test_longitudinal_closed_form(self):
        assert field_correlator(2.0, 1.0, 1.0).value == pytest.approx(
            4.0 / 2.0**4, rel=1e-6)


class TestHonestErrors:
    @pytest.mark.parametrize("x", [0.01, 0.5, 10.0, 100.0])
    def test_first_order_estimate_covers_refinement(self, x):
        for cfg in (transverse_pair(x), longitudinal_pair(x)):
            rep = modesum_first_order(x, cfg=cfg)
            hi = modesum_first_order(x, cfg=cfg,
                                     n_segments=2 * _default_segments(x),
                                     gauss_order=32)
            assert abs(rep.value - hi.value) <= rep.abs_err_est

    @pytest.mark.parametrize("x", [0.05, 1.0, 30.0])
    def test_second_order_estimate_covers_refinement(self, x):
        cfg = transverse_pair(x)
        rep = modesum_second_order(x, cfg=cfg)
        hi = modesum_second_order(x, cfg=cfg,
                                  n_segments=2 * _default_segments(x),
                                  gauss_order=32)
        assert abs(rep.value - hi.value) <= rep.abs_err_est


class TestDispersionRealAxis:
    def test_against_rotated_contour_reference(self):
        # J(1) for the transverse pattern, frozen from the imaginary-axis path
        rep = dispersion_integral_real_axis(1.0, 1.0, 1.0)
        assert rep.value == pytest.approx(0.8440557973344244, rel=1e-9)


class TestDispersionRotated:
    def test_frozen_value(self):
        # the same J(1) as the real-axis path's reference
        rep = dispersion_integral_rotated(1.0, 1.0, 1.0)
        assert rep.value == pytest.approx(0.8440557973344244, rel=1e-12)
        assert rep.abs_err_est <= 1e-12 * rep.value

    def test_agrees_with_real_axis_path(self):
        rot = dispersion_integral_rotated(2.0, 0.75, 0.25)
        real = dispersion_integral_real_axis(2.0, 0.75, 0.25)
        assert abs(rot.value - real.value) <= rot.abs_err_est + real.abs_err_est

    def test_domain(self):
        with pytest.raises(DomainError):
            dispersion_integral_rotated(0.0, 1.0, 1.0)
