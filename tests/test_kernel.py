"""The dipole coupling tensor T(x) and the cross-coherence kernel in closed
form, validated against direct numerics, the 3x3 matrix that T contracts
(built here) and the second-order mode-sum oracle."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacpair import (AccuracyError, DomainError, PairConfiguration, amplitude_c_ee,
                     concurrence_far, concurrence_full, concurrence_near,
                     contracted_tensor, perturbative_validity, vdw_near, wcp)
from vacpair._record import Record
from vacpair.entanglement import cross_coherence
from vacpair.kernel import cross_coherence_kernel
from vacpair.oracle import modesum_second_order
from vacpair.specfun import aux

import mpref
from conftest import random_rotation, random_unit, unit_vectors

# unit to rounding and along no axis, so every entry of the matrix is nonzero
TILTED = np.array([1.0, 2.0, 2.0]) / 3.0
Z_HAT = np.array([0.0, 0.0, 1.0])


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


def tensor_matrix(x, r_hat):
    """tau_mn(x): entry (m, n) is T(x) for the dipoles e_m and e_n.

    T is bilinear in the two orientations, so these nine couplings of the
    coordinate axes are the matrix that n_a . tau . n_b contracts.
    """
    return np.array([[contracted_tensor(x, float(m == n), float(r_hat[m] * r_hat[n]))
                      for n in range(3)] for m in range(3)])


def aligned_components(x):
    """(tau_trans, tau_long): T(x) for parallel dipoles across and along r_hat."""
    return contracted_tensor(x, 1.0, 0.0), contracted_tensor(x, 1.0, 1.0)


class TestDipoleTensor:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_matches_numeric_operator_application(self, x):
        trans, long_ = apply_radial_operator(lambda r: aux(r).f, x)
        m = tensor_matrix(x, Z_HAT)
        assert trans == pytest.approx(m[0, 0], rel=1e-7)
        assert long_ == pytest.approx(m[2, 2], rel=1e-7)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.5, 7.0, 100.0, 1e3, 1e6])
    def test_components_are_the_contracted_tensor(self, x):
        # about a tilted axis the matrix is tau_trans (1 - r r) + tau_long r r
        tau_t, tau_l = aligned_components(x)
        proj = np.outer(TILTED, TILTED)
        expected = tau_t * (np.eye(3) - proj) + tau_l * proj
        scale = max(abs(tau_t), abs(tau_l))
        assert np.max(np.abs(tensor_matrix(x, TILTED) - expected)) <= 1e-14 * scale

    def test_near_zone_limits(self):
        tau_t, tau_l = aligned_components(0.01)
        assert tau_t * 0.01**3 == pytest.approx(np.pi / 2, rel=1e-2)
        assert tau_l * 0.01**3 == pytest.approx(-np.pi, rel=1e-2)

    def test_far_zone_limits(self):
        tau_t, tau_l = aligned_components(100.0)
        assert tau_t * 100.0**4 == pytest.approx(4.0, rel=1e-2)
        assert tau_l * 100.0**4 == pytest.approx(-4.0, rel=1e-2)

    def test_structure_in_aligned_frame(self):
        m = tensor_matrix(1.5, Z_HAT)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) == 0.0
        tau_t, tau_l = aligned_components(1.5)
        assert (m[0, 0], m[1, 1], m[2, 2]) == (tau_t, tau_t, tau_l)

    def test_symmetric_for_any_axis(self, rng):
        for _ in range(5):
            m = tensor_matrix(0.7, random_unit(rng))
            assert np.allclose(m, m.T, atol=1e-15)

    def test_rotation_covariance(self, rng):
        rot = random_rotation(rng)
        base = tensor_matrix(2.0, Z_HAT)
        rotated = tensor_matrix(2.0, rot @ Z_HAT)
        assert np.allclose(rotated, rot @ base @ rot.T, atol=1e-12)

    def test_domain(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                contracted_tensor(x, 1.0, 0.0)


class TestContract:
    def test_projections(self):
        # contracted with the axis and a direction across it, the matrix about
        # a tilted axis gives the longitudinal, transverse and no coupling
        across = np.cross(TILTED, [1.0, 0.0, 0.0])
        across /= np.linalg.norm(across)
        m = tensor_matrix(1.0, TILTED)
        tau_t, tau_l = aligned_components(1.0)
        assert TILTED @ m @ TILTED == pytest.approx(tau_l, rel=1e-14)
        assert across @ m @ across == pytest.approx(tau_t, rel=1e-14)
        assert abs(TILTED @ m @ across) <= 1e-15 * abs(tau_l)

    def test_transverse_value_at_one(self):
        # tau_trans(1) = 1 + g(1): the f terms cancel at x = 1
        assert aligned_components(1.0)[0] == pytest.approx(1.0 + aux(1.0).g, rel=1e-14)

    def test_fast_path_equals_matrix_path(self, rng):
        for _ in range(10):
            n_a, n_b, r_hat = (random_unit(rng) for _ in range(3))
            x = float(rng.uniform(0.1, 20.0))
            t = n_a @ tensor_matrix(x, r_hat) @ n_b
            fast = contracted_tensor(x, float(n_a @ n_b),
                                     float((n_a @ r_hat) * (n_b @ r_hat)))
            assert t == pytest.approx(fast, rel=1e-12)


class TestCrossCoherenceKernel:
    @settings(max_examples=40, deadline=None)
    @given(log_x=st.floats(math.log(0.01), math.log(30.0)), n_a=unit_vectors,
           n_b=unit_vectors, r_hat=unit_vectors)
    def test_matches_second_order_mode_sum(self, log_x, n_a, n_b, r_hat):
        x = math.exp(log_x)
        cfg = PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=1.0)
        a, b = cfg.cos_ab, cfg.proj_product
        rep = modesum_second_order(x, cfg=cfg)
        v = aux(x)
        # the closed form's rounding: a few ulps of each of its terms
        size = (abs(a - b) * (v.g + 1.0 / x**2 + 2.0 * v.f / x)
                + abs(a - 3.0 * b) * (v.f + 1.0 / x) / x) / math.pi
        rounding = 8.0 * sys.float_info.epsilon * size
        assert abs(cross_coherence_kernel(x, a, b) - rep.value) <= rep.abs_err_est + rounding

    @pytest.mark.parametrize("cos_ab, proj_product",
                             [(1.0, 0.0), (1.0, 1.0), (0.5, -0.25), (-0.3, 0.2)],
                             ids=["transverse", "longitudinal", "mixed", "opposed"])
    def test_matches_mpmath_down_to_tiny_x(self, rng, cos_ab, proj_product):
        # collected, no two terms of order 1/x^2 cancel: with g + 1/x^2 - 2 f/x
        # and (f - 1/x)/x the transverse kernel lost 15% at x = 1e-16 and was
        # exactly 0 at 1e-60
        for x in [1e-60, *(10.0 ** rng.uniform(-60.0, 0.0, 24)).tolist(), 1.0]:
            ref = float(mpref.x_over_mu(x, cos_ab, proj_product).value)
            assert cross_coherence_kernel(x, cos_ab, proj_product) == pytest.approx(
                ref, rel=1e-14, abs=0.0), x


@pytest.mark.parametrize("x", [1e4, 1e6, 1e8, 1e12])
@pytest.mark.parametrize("law, reference", [(contracted_tensor, mpref.tensor),
                                            (cross_coherence_kernel, mpref.x_over_mu)],
                         ids=["T", "X"])
@pytest.mark.parametrize("cos_ab, proj_product", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.25)],
                         ids=["transverse", "longitudinal", "mixed"])
def test_far_zone_matches_mpmath(cos_ab, proj_product, law, reference, x):
    # T and X of order 1/x^3 and 1/x^4 from aux's direct f'' and h: formed
    # from 1/x - f and g - 1/x^2 they missed by up to 0.5 and 1.0 here
    assert law(x, cos_ab, proj_product) == pytest.approx(
        float(reference(x, cos_ab, proj_product).value), rel=1e-12, abs=0.0)


# every law of one value per x, on a configuration
_LAWS = {
    "contracted_tensor": lambda cfg: contracted_tensor(cfg.x, cfg.cos_ab, cfg.proj_product),
    "cross_coherence_kernel":
        lambda cfg: cross_coherence_kernel(cfg.x, cfg.cos_ab, cfg.proj_product),
    **{law.__name__: law for law in (amplitude_c_ee, perturbative_validity, concurrence_full,
                                     concurrence_near, concurrence_far, cross_coherence,
                                     vdw_near, wcp)},
}


def _outcome(law, cfg):
    """The law's value at cfg, or the type and message of its DomainError or
    AccuracyError; any other exception escapes."""
    try:
        return law(cfg)
    except (DomainError, AccuracyError) as exc:
        return type(exc), str(exc)


def _floats(value):
    """Every float in a law's value: its float arrays and floats, in nested
    records too."""
    if isinstance(value, Record):
        return [v for name in value._fields for v in _floats(getattr(value, name))]
    if isinstance(value, np.ndarray):
        return value.tolist() if value.dtype.kind == "f" else []
    return [value] if isinstance(value, float) else []


class TestReportingContract:
    @pytest.mark.parametrize("mu", [1e-4, 1e200])
    # 5e-54: x**6 is subnormal but nonzero, so the London energy overflows
    @pytest.mark.parametrize("x", [1e-200, 1e-110, 1e-60, 5e-54, 1e100, 1e200, 1e300])
    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_a_law_returns_or_raises_domain_or_accuracy_error(self, name, x, mu):
        # far outside floating-point range at either end, and with mu**2
        # overflowing; a float call and its one-element array name the same
        # x, and every float a law returns is finite
        geometry = dict(n_a=TILTED, n_b=[0.0, 0.6, 0.8], r_hat=Z_HAT, mu=mu)
        at_float = _outcome(_LAWS[name], PairConfiguration(x=x, **geometry))
        at_array = _outcome(_LAWS[name], PairConfiguration(x=np.array([x]), **geometry))
        if isinstance(at_float, tuple):
            assert at_array == at_float
        else:
            assert not isinstance(at_array, tuple)
            # every law gives at least one float, so none of these passes vacuously
            assert _floats(at_float) and _floats(at_array)
            assert all(map(math.isfinite, _floats(at_float)))
            assert all(map(math.isfinite, _floats(at_array)))
