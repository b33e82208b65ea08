"""The dipole coupling tensor T(x), in closed form and as a 3x3 matrix,
validated against direct numerics."""

import numpy as np
import pytest

from vacpair import DomainError, contract, contracted_tensor, dipole_tensor
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
        t = dipole_tensor(x)
        assert trans == pytest.approx(t.tau_transverse, rel=1e-7)
        assert long_ == pytest.approx(t.tau_longitudinal, rel=1e-7)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.5, 7.0, 100.0, 1e3, 1e6])
    def test_components_are_the_contracted_tensor(self, x):
        # one formula for T(x): the aligned-frame components are its values
        # at (cos_ab, proj_product) = (1, 0) and (1, 1), bit for bit
        t = dipole_tensor(x)
        assert (t.tau_transverse, t.tau_longitudinal) == (
            contracted_tensor(x, 1.0, 0.0), contracted_tensor(x, 1.0, 1.0))

    def test_near_zone_limits(self):
        t = dipole_tensor(0.01)
        tau_t, tau_l = t.tau_transverse, t.tau_longitudinal
        assert tau_t * 0.01**3 == pytest.approx(np.pi / 2, rel=1e-2)
        assert tau_l * 0.01**3 == pytest.approx(-np.pi, rel=1e-2)

    def test_far_zone_limits(self):
        t = dipole_tensor(100.0)
        tau_t, tau_l = t.tau_transverse, t.tau_longitudinal
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
