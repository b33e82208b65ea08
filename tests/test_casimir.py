"""Pair interaction energy: London limit, retardation scaling, fitting."""

import numpy as np
import pytest

from vacpair import (DomainError, PotentialMethod, concurrence_far,
                     concurrence_full, concurrence_near, fit_powerlaw,
                     pair_from_alignment, vdw_near, wcp)
from vacpair.oracle import field_correlator

from conftest import transverse_pair


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

    def test_near_closed_form_method_dispatch(self):
        cfg = transverse_pair(0.01)
        res = wcp(cfg, method="near_closed_form")
        assert res.method is PotentialMethod.NEAR_CLOSED_FORM
        assert res.energy == vdw_near(cfg).energy


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

    def test_too_few_points_rejected(self):
        curve = [(r, r**-2.0) for r in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(DomainError):
            fit_powerlaw(curve, (0.5, 5.0))
