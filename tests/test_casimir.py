"""Pair interaction energy: London limit, retardation scaling, the closed
form against mpmath and the quadrature oracle, fitting."""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vacpair import (AccuracyError, DomainError, PairConfiguration,
                     concurrence_far, concurrence_full, concurrence_near,
                     fit_powerlaw, pair_from_alignment, vdw_near, wcp)
from vacpair.oracle import dispersion_integral_rotated, field_correlator

import mpref
from conftest import transverse_pair, unit_vectors


def london_oracle(mu, kappa, x):
    """Second-order shift from diagonalizing the 4x4 static Hamiltonian.

    H = hbar w0 (Sz_A + Sz_B) + V sx_A sx_B with V = mu kappa / x^3 in
    reduced units (hbar w0 = 1); the ground-level shift is read off the
    exact spectrum.
    """
    v = mu * kappa / x**3
    sz = np.diag([0.5, -0.5])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    h = np.kron(sz, eye) + np.kron(eye, sz) + v * np.kron(sx, sx)
    return np.linalg.eigvalsh(h)[0] + 1.0


class TestVdwNear:
    def test_transverse_closed_form(self):
        cfg = transverse_pair(0.5, mu=2.0)
        assert vdw_near(cfg).energy == pytest.approx(-0.5 * 2.0**2 / 0.5**6,
                                                     rel=1e-14)

    def test_against_diagonalization_oracle(self):
        mu, x = 1e-5, 0.3
        for a, b in ((1.0, 0.0), (1.0, 1.0), (1.0, 0.25)):
            cfg = pair_from_alignment(x, mu, a, b)
            kappa = a - 3 * b
            exact = london_oracle(mu, kappa, x)
            # exact shift agrees with -V^2/(2 hbar w0) up to O(V^4)
            assert vdw_near(cfg).energy == pytest.approx(exact, rel=1e-6)

    def test_orthogonal_geometry_vanishes(self):
        assert vdw_near(pair_from_alignment(1.0, 1.0, 0.0, 0.0)).energy == 0.0

    @pytest.mark.parametrize("x, mu, expected", [(5e-54, 1e-10, -3.2e299),
                                                 (1e-60, 1e-170, -5e19),
                                                 (1e60, 1e170, -5e-21)])
    def test_powers_of_x_past_the_normal_range(self, x, mu, expected):
        # x^6 is subnormal at 5e-54 (W was 1.5e-4 off, with a bound of 0), and
        # mu^2 and x^6 underflow or overflow at the others, where W fits
        cfg = pair_from_alignment(x, mu)
        assert vdw_near(cfg).energy == pytest.approx(expected, rel=1e-12)
        check_energy(lambda: vdw_near(cfg),
                     mpref.london(cfg.x, cfg.mu, cfg.cos_ab, cfg.proj_product))

    def test_array_x_gives_the_float_values(self):
        # bit for bit, over more x than the 256 rows of one sweep chunk and
        # across wcp's seam at x = 2
        xs = np.geomspace(1e-6, 1e12, 301)
        for law in (vdw_near, wcp, functools.partial(wcp, isotropic=True)):
            array = law(pair_from_alignment(xs, 1e-3, 1.0, 0.25))
            floats = [law(pair_from_alignment(x, 1e-3, 1.0, 0.25)) for x in xs.tolist()]
            assert array.energy.tolist() == [v.energy for v in floats]
            assert array.abs_err_est.tolist() == [v.abs_err_est for v in floats]
        # W, about -3e353, overflows at 1e-60: both calls name that x, and
        # the array one gives no numpy warning
        for x in (1e-60, np.array([1.0, 1e-60])):
            with pytest.raises(AccuracyError, match=r"^out of floating-point range at "
                               r"x=1e-60 \(OverflowError\)$"):
                vdw_near(pair_from_alignment(x, 1e-3))

    def test_concurrence_relation(self, rng):
        # |W_near| = C_near^2 / 2 in units of hbar omega0, any orientations
        for _ in range(10):
            a = float(rng.uniform(-1, 1))
            b = float(rng.uniform(0.0, 0.4)) * a
            cfg = pair_from_alignment(float(rng.uniform(0.05, 2.0)),
                                      float(rng.uniform(0.0, 0.1)), a, b)
            c = concurrence_near(cfg).raw
            assert abs(vdw_near(cfg).energy) == pytest.approx(0.5 * c * c,
                                                              rel=1e-12)


class TestWcp:
    def test_near_zone_matches_london(self):
        cfg = transverse_pair(0.01)
        assert wcp(cfg).energy == pytest.approx(vdw_near(cfg).energy, rel=1e-2)

    def test_attractive_for_transverse_pairs(self):
        for x in (0.05, 0.5, 1.0, 5.0, 50.0):
            assert wcp(transverse_pair(x)).energy < 0.0

    def test_near_slope(self):
        xs = np.geomspace(0.005, 0.02, 9)
        curve = [(x, wcp(transverse_pair(x)).energy) for x in xs]
        fit = fit_powerlaw(curve, (0.005, 0.02))
        assert fit.slope == pytest.approx(-6.0, abs=0.1)

    def test_far_slope(self):
        xs = np.geomspace(50.0, 200.0, 9)
        curve = [(x, wcp(transverse_pair(x)).energy) for x in xs]
        fit = fit_powerlaw(curve, (50.0, 200.0))
        assert fit.slope == pytest.approx(-7.0, abs=0.1)

    def test_crossover_slope_monotone(self):
        # the transition from -6 to -7 happens through x = O(1) and the
        # local slope decreases monotonically across it
        xs = np.geomspace(0.5, 100.0, 25)
        ws = np.array([wcp(transverse_pair(x)).energy for x in xs])
        slopes = np.diff(np.log(np.abs(ws))) / np.diff(np.log(xs))
        assert slopes[0] > -6.1
        assert slopes[-1] < -6.97
        assert all(b < a + 1e-9 for a, b in zip(slopes, slopes[1:]))

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_principal_value_path_agrees(self, x):
        cfg = transverse_pair(x)
        rot = wcp(cfg, method="rotated_contour")
        pv = wcp(cfg, method="principal_value_oracle")
        assert pv.energy == pytest.approx(rot.energy, rel=1e-6)
        assert abs(pv.energy - rot.energy) <= pv.abs_err_est + rot.abs_err_est

    def test_unknown_method_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown method 'bogus'"):
            wcp(transverse_pair(1.0), method="bogus")

    def test_principal_value_longitudinal(self):
        cfg = pair_from_alignment(1.0, 1e-4, 1.0, 1.0)
        rot = wcp(cfg, method="rotated_contour").energy
        pv = wcp(cfg, method="principal_value_oracle").energy
        assert pv == pytest.approx(rot, rel=1e-6)

    def test_isotropic_near_zone(self):
        # orientation-averaged London limit: <kappa^2> = 2/3
        cfg = transverse_pair(0.01, mu=1e-4)
        iso = wcp(cfg, isotropic=True).energy
        assert iso == pytest.approx(-(1e-4) ** 2 / 3.0 / 0.01**6, rel=1e-2)
        pv = wcp(cfg, method="principal_value_oracle", isotropic=True).energy
        assert pv == pytest.approx(iso, rel=1e-6)


def check_energy(law, reference):
    """law() raises AccuracyError where the reference value overflows the
    floats.  Elsewhere abs_err_est bounds the true error, and where the
    reference is normal the conditioned error is at most 1e-12: below the
    normal range half a spacing of the floats can exceed it."""
    value, scale = reference
    if abs(value) > sys.float_info.max:
        with pytest.raises(AccuracyError, match="OverflowError"):
            law()
        return
    res = law()
    err = float(abs(res.energy - value))
    if abs(value) >= sys.float_info.min:
        assert err <= 1e-12 * float(scale), (err / float(scale), res)
    assert err <= res.abs_err_est, (err, res)


def check_against_mpmath(cfg, isotropic):
    check_energy(lambda: wcp(cfg, isotropic=isotropic),
                 mpref.wcp(cfg.x, cfg.mu, cfg.cos_ab, cfg.proj_product, isotropic))


class TestWcpClosedForm:
    @settings(max_examples=120, deadline=None)
    @given(log_x=st.floats(math.log(1e-6), math.log(1e12)), n_a=unit_vectors,
           n_b=unit_vectors, r_hat=unit_vectors, isotropic=st.booleans())
    def test_matches_mpmath(self, log_x, n_a, n_b, r_hat, isotropic):
        cfg = PairConfiguration(x=math.exp(log_x), n_a=n_a, n_b=n_b, r_hat=r_hat,
                                mu=1e-3)
        check_against_mpmath(cfg, isotropic)

    @pytest.mark.parametrize("x", [math.nextafter(2.0, 0.0), 2.0,
                                   math.nextafter(2.0, 3.0)])
    @pytest.mark.parametrize("geometry", [(1.0, 0.0, False), (1.0, 1.0, False),
                                          (1.0, 0.25, False), (1.0, 0.0, True)])
    def test_seam_between_reduction_and_laguerre(self, x, geometry):
        # below x = 2 the moments come from f, g at 2x, from x = 2 on from the
        # Laguerre rule
        a, b, isotropic = geometry
        cfg = pair_from_alignment(x, 1e-3, a, b)
        check_against_mpmath(cfg, isotropic)
        at_seam = wcp(pair_from_alignment(2.0, 1e-3, a, b), isotropic=isotropic).energy
        assert wcp(cfg, isotropic=isotropic).energy == pytest.approx(at_seam, rel=1e-13)

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.99, 2.01, 10.0, 100.0])
    def test_matches_rotated_contour_quadrature(self, x):
        cfg = pair_from_alignment(x, 1.0, 1.0, 0.25)
        j = dispersion_integral_rotated(x, 0.75, 0.25).value
        assert wcp(cfg).energy == pytest.approx(-(2.0 / np.pi) * j, rel=1e-10)

    def test_huge_x_underflows_to_zero(self):
        # the true |W| is below 1e-400; no power of x may overflow on the way,
        # and the bound holds the sum's roundings below the normal range
        res = wcp(transverse_pair(1e60))
        assert res.energy == 0.0
        assert 0.0 < res.abs_err_est <= 16 * math.ulp(0.0)

    # the factors mu^2 and (p, q) below the normal range keep their bits,
    # and the bound holds W's rounding below it
    def test_tiny_pattern_energy_is_not_zero(self):
        # point --mu 1e-3 --x 1e-5 --dipole-a 0,0,1 --dipole-b 0,1,0
        # --sep-dir 0,1,1e-162 printed wcp_energy = 0, against -4.5e-300
        cfg = PairConfiguration(x=1e-5, n_a=(0, 0, 1), n_b=(0, 1, 0),
                                r_hat=(0, 1, 1e-162), mu=1e-3)
        assert wcp(cfg).energy == pytest.approx(-4.5e-300, rel=1e-10)
        check_against_mpmath(cfg, False)

    def test_tiny_coupling_keeps_its_bits(self):
        # mu^2 = 1e-320 is subnormal: a relative error of 1.6e-6, bound 0
        check_against_mpmath(pair_from_alignment(1e-5, 1e-160), False)
        check_against_mpmath(pair_from_alignment(1e-5, 1e-160), True)

    def test_subnormal_energy_from_a_tiny_coupling(self):
        # mu^2 = 1e-340 underflowed to 0: W was 0 against -5e-311
        res = wcp(pair_from_alignment(1e-5, 1e-170))
        assert res.energy == pytest.approx(-5e-311, rel=1e-9)
        check_against_mpmath(pair_from_alignment(1e-5, 1e-170), False)

    def test_subnormal_energy_bound_holds_its_rounding(self):
        # found by test_matches_mpmath: an error of 5.98e-322 against a bound of 0
        cfg = PairConfiguration(x=0.3895385001989907, n_a=(0, 0, 1), n_b=(0, 1, 0),
                                r_hat=(0, 1, 7.232899620817668e-158), mu=1e-3)
        check_against_mpmath(cfg, False)

    def test_principal_value_path_scales_a_tiny_coupling(self):
        # its prefactor mu^2 = 1e-320 was subnormal too
        cfg = pair_from_alignment(1.0, 1e-160)
        pv = wcp(cfg, method="principal_value_oracle")
        rot = wcp(cfg)
        assert pv.energy == pytest.approx(rot.energy, rel=1e-12)
        assert abs(pv.energy - rot.energy) <= pv.abs_err_est + rot.abs_err_est

    @pytest.mark.parametrize("x, mu", [(1e-52, 1e-4), (1e-101, 1e-150)])
    def test_tiny_x_energy_that_fits_is_returned(self, x, mu):
        # x^-6 overflows at x = 1e-52, but mu^2 x^-6 does not; at 1e-101,
        # mu^2 = 1e-300 goes into the sum only as far as it stays finite
        london = -0.5 * (mu / x**3) ** 2
        assert wcp(transverse_pair(x, mu=mu)).energy == pytest.approx(london, rel=1e-12)

    def test_overflowing_energy_is_an_accuracy_error(self):
        with pytest.raises(AccuracyError) as info:
            wcp(transverse_pair(1e-60))
        assert str(info.value) == "out of floating-point range at x=1e-60 (OverflowError)"

    @pytest.mark.parametrize("x, mu, cos_ab, proj_product, isotropic", [
        (100.0, 5e153, 1.0, 1.0, False),  # longitudinal: (p, q) = (0, -2)
        (100.0, 1.3e154, 1.0, 0.0, True),
        (1.0, 1.2e154, 1.0, 0.0, False),  # mu^2 (2/pi) q^2 overflows, W does not
        (1e50, 1e200, 1.0, 0.0, False),  # mu^2 overflows, W does not
    ])
    def test_energy_near_the_overflow_fits(self, x, mu, cos_ab, proj_product, isotropic):
        # W is 2^600 times its value at mu / 2^300, bit for bit
        res = wcp(pair_from_alignment(x, mu, cos_ab, proj_product), isotropic=isotropic)
        small = wcp(pair_from_alignment(x, math.ldexp(mu, -300), cos_ab, proj_product),
                    isotropic=isotropic)
        assert res.energy == math.ldexp(small.energy, 600)
        assert res.abs_err_est == pytest.approx(math.ldexp(small.abs_err_est, 600), rel=1e-12)

    @pytest.mark.parametrize("x, mu", [(1.3e-103, 3.1e-160), (1.7e-104, 2.3e-170),
                                       (3e-105, 1e-172)])
    def test_bound_holds_terms_below_the_normal_range(self, x, mu):
        # mu^2 is far below the normal range and x^-6 far above it, while W,
        # about -1e298, -1e283 and -7e282, fits: no factor on the way may
        # leave the normal range
        check_against_mpmath(pair_from_alignment(x, mu), False)

    @pytest.mark.parametrize("x, mu, cos_ab, proj_product, expected", [
        (1e-120, 1e-206, 1.0, 0.0, -5e307),  # mu^2 = 1e-412, x^-6 = 1e720
        (1e100, 1e200, 1.0, 0.0, -2.069e-300),  # mu^2 = 1e400, x^-7 = 1e-700
        # q = 0: only the p^2 term enters, and the other four, whose powers
        # of x lie above its own, must not set the scale
        (1e-100, 1e-3, 0.75, 0.25, -7.9577e292),
    ])
    def test_energy_whose_factors_leave_the_float_range_fits(self, x, mu, cos_ab,
                                                             proj_product, expected):
        cfg = pair_from_alignment(x, mu, cos_ab, proj_product)
        assert wcp(cfg).energy == pytest.approx(expected, rel=1e-4)
        check_against_mpmath(cfg, False)

    @settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(log_x=st.floats(math.log(1e-300), math.log(1e300)),
           log_mu=st.floats(math.log(1e-300), math.log(1e300)), n_a=unit_vectors,
           n_b=unit_vectors, r_hat=unit_vectors, isotropic=st.booleans())
    def test_pair_energies_over_the_whole_domain(self, log_x, log_mu, n_a, n_b, r_hat,
                                                 isotropic):
        # x and mu log-uniform over the floats: each energy is returned where
        # its value fits, within its bound and within 1e-12 where it is normal
        cfg = PairConfiguration(x=math.exp(log_x), n_a=n_a, n_b=n_b, r_hat=r_hat,
                                mu=math.exp(log_mu))
        check_against_mpmath(cfg, isotropic)
        check_energy(lambda: vdw_near(cfg),
                     mpref.london(cfg.x, cfg.mu, cfg.cos_ab, cfg.proj_product))


class TestFarZoneCorrelatorForm:
    @pytest.mark.parametrize("x", [100.0, 200.0])
    def test_concurrence_from_field_correlator(self, x):
        # 2 mu |<E E>| / pi in reduced units reproduces the far-zone law
        cfg = transverse_pair(x, mu=1e-4)
        corr = field_correlator(x, cfg.cos_ab, cfg.proj_product).value
        c_corr = 2.0 * cfg.mu / np.pi * abs(corr)
        assert c_corr == pytest.approx(concurrence_far(cfg).raw, rel=1e-10)

    def test_matches_full_concurrence_at_large_x(self):
        cfg = transverse_pair(100.0, mu=1e-4)
        corr = field_correlator(100.0, 1.0, 0.0).value
        c_corr = 2.0 * cfg.mu / np.pi * abs(corr)
        assert c_corr == pytest.approx(concurrence_full(cfg).raw, rel=1e-2)


class TestFitPowerlaw:
    def test_exact_synthetic_law(self):
        rs = np.geomspace(0.1, 10.0, 12)
        curve = [(r, 5.0 * r**-3) for r in rs]
        fit = fit_powerlaw(curve, (0.1, 10.0))
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.stderr < 1e-12

    def test_concurrence_near_slope(self):
        xs = np.geomspace(0.005, 0.02, 9)
        curve = [(x, concurrence_full(transverse_pair(x)).raw) for x in xs]
        assert fit_powerlaw(curve, (0.005, 0.02)).slope == pytest.approx(-3.0,
                                                                         abs=0.1)

    def test_concurrence_far_slope(self):
        xs = np.geomspace(50.0, 200.0, 9)
        curve = [(x, concurrence_full(transverse_pair(x)).raw) for x in xs]
        assert fit_powerlaw(curve, (50.0, 200.0)).slope == pytest.approx(-4.0,
                                                                         abs=0.1)

    def test_sign_change_rejected(self):
        curve = [(r, np.cos(3 * r)) for r in np.linspace(1.0, 3.0, 10)]
        with pytest.raises(DomainError):
            fit_powerlaw(curve, (1.0, 3.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_value_rejected(self, bad):
        # a non-finite value in the window used to give a NaN slope
        curve = [(r, r**-2.0) for r in np.geomspace(1.0, 10.0, 9)]
        curve[3] = (curve[3][0], bad)
        with pytest.raises(DomainError, match="finite"):
            fit_powerlaw(curve, (1.0, 10.0))

    def test_too_few_points_rejected(self):
        curve = [(r, r**-2.0) for r in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(DomainError):
            fit_powerlaw(curve, (0.5, 5.0))
