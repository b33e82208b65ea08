"""Pair interaction energy: London limit, retardation scaling, the closed
form against mpmath and the quadrature oracle, fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacpair import (AccuracyError, DomainError, PairConfiguration,
                     concurrence_far, concurrence_full, concurrence_near,
                     fit_powerlaw, pair_from_alignment, vdw_near, wcp)
from vacpair.oracle import dispersion_integral_rotated, field_correlator

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


def mp_wcp(cfg, isotropic):
    """(W, the sum of the magnitudes of its terms) at 100 digits.

    J(x) = sum_n c_n I_n(2x) / x^(6-n), with c_n the coefficients of v^n in
    v^6 [p/(vx) + q/(vx)^2 + q/(vx)^3]^2 (p = a - b, q = a - 3b) or their
    rotational average, and the moments I_n(s) = int v^n e^(-sv)/(1+v^2)^2 dv
    reduced exactly to f and g at s, which come from the mpmath Si and Ci.
    The reduction loses about 4 log10(s) digits, 50 at x = 1e12.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(100):
        x = mp.mpf(cfg.x)
        s = 2 * x
        rest, c = mp.pi / 2 - mp.si(s), mp.ci(s)
        f = c * mp.sin(s) + rest * mp.cos(s)
        g = -c * mp.cos(s) + rest * mp.sin(s)
        i0, i1 = (f + s * g) / 2, (1 - s * f) / 2
        moments = (i0, i1, f - i0, g - i1, 1 / s - 2 * f + i0)

        def pattern(p, q):
            return (q * q, 2 * q * q, q * q + 2 * p * q, 2 * p * q, p * p)

        if isotropic:
            coeffs = [(2 * t + l) / 9 for t, l in zip(pattern(1, 1), pattern(0, -2))]
        else:
            a, b = mp.mpf(cfg.cos_ab), mp.mpf(cfg.proj_product)
            coeffs = pattern(a - b, a - 3 * b)
        terms = [c_n * moments[n] / x ** (6 - n) for n, c_n in enumerate(coeffs)]
        factor = 2 * mp.mpf(cfg.mu) ** 2 / mp.pi
        return -factor * mp.fsum(terms), factor * mp.fsum(abs(t) for t in terms)


def check_against_mpmath(cfg, isotropic):
    """The conditioned error is at most 1e-12 and abs_err_est bounds the true error."""
    res = wcp(cfg, isotropic=isotropic)
    value, scale = mp_wcp(cfg, isotropic)
    err = float(abs(res.energy - value))
    assert err <= 1e-12 * float(scale), (cfg.x, err / float(scale))
    assert err <= res.abs_err_est, (cfg.x, err, res.abs_err_est)


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
        # the true |W| is below 1e-400; no power of x may overflow on the way
        res = wcp(transverse_pair(1e60))
        assert res.energy == 0.0
        assert res.abs_err_est == 0.0

    def test_tiny_x_energy_that_fits_is_returned(self):
        # x^-6 overflows at x = 1e-52, but mu^2 x^-6 does not
        x, mu = 1e-52, 1e-4
        london = -0.5 * (mu / x**3) ** 2
        assert wcp(transverse_pair(x, mu=mu)).energy == pytest.approx(london, rel=1e-12)

    def test_overflowing_energy_is_an_accuracy_error(self):
        with pytest.raises(AccuracyError, match=r"wcp.*x=1e-60"):
            wcp(transverse_pair(1e-60))


class TestFarZoneCorrelatorForm:
    @pytest.mark.parametrize("x", [100.0, 200.0])
    def test_concurrence_from_field_correlator(self, x):
        # 2 mu |<E E>| / pi in reduced units reproduces the far-zone law
        cfg = transverse_pair(x, mu=1e-4)
        corr = field_correlator(x, cfg.cos_ab, cfg.proj_product).value
        c_corr = 2.0 * cfg.mu / np.pi * abs(corr)
        assert c_corr == pytest.approx(concurrence_far(cfg).raw, rel=1e-2)

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
