"""Dipole tensor, oscillating dipole potential, polarizability and the mode
correlator, each validated against direct numerics."""

import numpy as np
import pytest
from scipy.integrate import dblquad

from vacpair import (DomainError, PoleError, TwoLevelAtom, contract,
                     contracted_tensor, dipole_potential_matrix, dipole_tensor,
                     polarizability, polarizability_imaginary,
                     vacuum_mode_correlator)
from vacpair.model import SPEED_OF_LIGHT
from vacpair.kernel import angular_kernel, tau_components
from vacpair.specfun import aux

from conftest import random_rotation, random_unit


def apply_radial_operator(func, r, h_scale=1e-2):
    """Numerically apply the radial operator to func(r) in the aligned frame.

    Returns (transverse, longitudinal) components using 4th-order central
    difference stencils.
    """
    h = h_scale * max(1.0, r)
    f = [func(r + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (8.0 * (f[3] - f[1]) - (f[4] - f[0])) / (12.0 * h)
    d2 = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h * h)
    common = f[2] / r**2 - d1 / r
    trans = (d2 + common) / r
    long_ = -2.0 * common / r
    return trans, long_


class TestDipoleTensor:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_matches_numeric_operator_application(self, x):
        trans, long_ = apply_radial_operator(lambda r: aux(r).f, x)
        tau_t, tau_l = tau_components(x)
        assert trans == pytest.approx(tau_t, rel=1e-7)
        assert long_ == pytest.approx(tau_l, rel=1e-7)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.5, 7.0, 100.0, 1e3, 1e6])
    def test_components_are_the_contracted_tensor(self, x):
        # one formula for T(x): the aligned-frame components are its values
        # at (cos_ab, proj_product) = (1, 0) and (1, 1), bit for bit
        assert tau_components(x) == (contracted_tensor(x, 1.0, 0.0),
                                     contracted_tensor(x, 1.0, 1.0))

    def test_near_zone_limits(self):
        tau_t, tau_l = tau_components(0.01)
        assert tau_t * 0.01**3 == pytest.approx(np.pi / 2, rel=1e-2)
        assert tau_l * 0.01**3 == pytest.approx(-np.pi, rel=1e-2)

    def test_far_zone_limits(self):
        tau_t, tau_l = tau_components(100.0)
        assert tau_t * 100.0**4 == pytest.approx(4.0, rel=1e-2)
        assert tau_l * 100.0**4 == pytest.approx(-4.0, rel=1e-2)

    def test_structure_in_aligned_frame(self):
        t = dipole_tensor(1.5)
        off = t.matrix - np.diag(np.diag(t.matrix))
        assert np.max(np.abs(off)) == 0.0
        assert t.matrix[0, 0] == t.matrix[1, 1] == t.tau_transverse
        assert t.matrix[2, 2] == t.tau_longitudinal

    def test_symmetric_for_any_axis(self, rng):
        for _ in range(5):
            t = dipole_tensor(0.7, random_unit(rng))
            assert np.allclose(t.matrix, t.matrix.T, atol=1e-15)

    def test_rotation_covariance(self, rng):
        rot = random_rotation(rng)
        base = dipole_tensor(2.0).matrix
        rotated = dipole_tensor(2.0, rot @ np.array([0.0, 0.0, 1.0])).matrix
        assert np.allclose(rotated, rot @ base @ rot.T, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dipole_tensor(0.0)
        with pytest.raises(DomainError):
            dipole_tensor(1.0, r_hat=[1.0, 1.0, 0.0])


class TestContract:
    def test_projections(self):
        t = dipole_tensor(1.0)
        assert contract(t, [1, 0, 0], [1, 0, 0]) == t.tau_transverse
        assert contract(t, [0, 0, 1], [0, 0, 1]) == t.tau_longitudinal
        assert contract(t, [0, 0, 1], [1, 0, 0]) == 0.0

    def test_transverse_value_at_one(self):
        # tau_trans(1) = 1 + g(1): the f terms cancel at x = 1
        assert dipole_tensor(1.0).tau_transverse == pytest.approx(
            1.0 + aux(1.0).g, rel=1e-14)

    def test_fast_path_equals_matrix_path(self, rng):
        for _ in range(10):
            n_a, n_b, r_hat = (random_unit(rng) for _ in range(3))
            x = float(rng.uniform(0.1, 20.0))
            t = contract(dipole_tensor(x, r_hat), n_a, n_b)
            fast = contracted_tensor(x, float(n_a @ n_b),
                                     float((n_a @ r_hat) * (n_b @ r_hat)))
            assert t == pytest.approx(fast, rel=1e-12)

    def test_unit_validation(self):
        with pytest.raises(DomainError):
            contract(dipole_tensor(1.0), [1, 1, 0], [1, 0, 0])


class TestDipolePotential:
    def test_matches_numeric_operator_on_cosine(self):
        k, r = 0.8, 2.5
        trans, long_ = apply_radial_operator(lambda s: np.cos(k * s), r,
                                             h_scale=1e-3)
        v = dipole_potential_matrix(k, [0.0, 0.0, r])
        assert v[0, 0] == pytest.approx(-trans, rel=1e-7)
        assert v[2, 2] == pytest.approx(-long_, rel=1e-7)

    def test_static_transverse_limit(self):
        # kR -> 0: the transverse component approaches -1/R^3
        r = 2.0
        v = dipole_potential_matrix(1e-6, [0.0, 0.0, r])
        assert v[0, 0] == pytest.approx(-1.0 / r**3, rel=1e-9)
        assert v[2, 2] == pytest.approx(2.0 / r**3, rel=1e-9)

    def test_off_diagonal_zero_on_axis(self):
        v = dipole_potential_matrix(1.3, [0.0, 0.0, 3.0])
        assert v[0, 1] == 0.0
        assert np.max(np.abs(v - np.diag(np.diag(v)))) == 0.0

    def test_symmetry_for_generic_direction(self, rng):
        for _ in range(5):
            r_vec = rng.normal(size=3) * 2.0
            k = float(rng.uniform(0.2, 3.0))
            v = dipole_potential_matrix(k, r_vec)
            assert np.allclose(v, v.T, atol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            dipole_potential_matrix(1.0, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            dipole_potential_matrix(-1.0, [0.0, 0.0, 1.0])


class TestPolarizability:
    def setup_method(self):
        self.atom = TwoLevelAtom(0.375, [0.5, 0.0, 0.0])

    def test_static_value(self):
        expected = 2.0 * 0.5**2 / (3.0 * 0.375)
        assert polarizability(0.0, self.atom) == pytest.approx(expected, rel=1e-14)

    def test_pole(self):
        k_res = self.atom.omega0 / SPEED_OF_LIGHT
        with pytest.raises(PoleError):
            polarizability(k_res, self.atom)

    def test_large_k_negative_tail(self):
        k = 100.0 * self.atom.omega0 / SPEED_OF_LIGHT
        wk = SPEED_OF_LIGHT * k
        expected = -2.0 * 0.5**2 * self.atom.omega0 / (3.0 * wk**2)
        assert polarizability(k, self.atom) == pytest.approx(expected, rel=1e-3)

    def test_imaginary_frequency_positive(self):
        for u in np.geomspace(1e-6, 10.0, 9):
            assert polarizability_imaginary(u, self.atom) > 0.0
        assert polarizability_imaginary(0.0, self.atom) == pytest.approx(
            polarizability(0.0, self.atom), rel=1e-14)


class TestVacuumModeCorrelator:
    def test_polarization_angle_sum_at_coincidence(self):
        # sum_j int dOmega (e_kj)_m (e_kj)_m = 8 pi / 3 for each m
        def diag_sum(m):
            def integrand(phi, theta):
                k = np.array([np.sin(theta) * np.cos(phi),
                              np.sin(theta) * np.sin(phi),
                              np.cos(theta)])
                total = sum(vacuum_mode_correlator(k, j, [0, 0, 0], [0, 0, 0])[m, m]
                            for j in (0, 1))
                scale = 2 * np.pi * SPEED_OF_LIGHT  # hbar = |k| = V = 1
                return float(total.real) / scale * np.sin(theta)
            val, _ = dblquad(integrand, 0.0, np.pi, 0.0, 2 * np.pi)
            return val

        for m in range(3):
            assert diag_sum(m) == pytest.approx(8 * np.pi / 3, rel=1e-8)

    def test_off_diagonal_angle_integral_vanishes(self):
        def integrand(phi, theta):
            k = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi),
                          np.cos(theta)])
            total = sum(vacuum_mode_correlator(k, j, [0, 0, 2.0], [0, 0, 0])[0, 2]
                        for j in (0, 1))
            return float(total.real) * np.sin(theta)

        val, _ = dblquad(integrand, 0.0, np.pi, 0.0, 2 * np.pi)
        assert abs(val) < 1e-10

    def test_conjugate_under_position_swap(self, rng):
        k = rng.normal(size=3)
        ra, rb = rng.normal(size=3), rng.normal(size=3)
        c1 = vacuum_mode_correlator(k, 0, ra, rb)
        c2 = vacuum_mode_correlator(k, 0, rb, ra)
        assert np.allclose(c1, np.conj(c2), atol=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            vacuum_mode_correlator([0, 0, 0], 0, [0, 0, 0], [0, 0, 1])
        with pytest.raises(DomainError):
            vacuum_mode_correlator([0, 0, 1], 2, [0, 0, 0], [0, 0, 1])


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
