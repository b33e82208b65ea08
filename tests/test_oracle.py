"""Brute-force validators: self-consistency and the spotlight closed forms."""

import functools

import numpy as np
import pytest

from vacpair import AccuracyError, DomainError, oracle, pair_from_alignment, validate
from vacpair.entanglement import regularized_local_population
from vacpair.kernel import contracted_tensor
from vacpair.oracle import (_default_segments, _euler_average, _quad,
                            angular_kernel, aux_integral_rep,
                            dispersion_integral_real_axis,
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


@functools.cache
def _aux_references():
    """(x, "f" or "g", value) at 90 x in [1e-6, 1e12], 40 digits from mpmath's Si and Ci."""
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(40):
        for x in np.geomspace(1e-6, 1e12, 90):
            t = mp.mpf(float(x))
            rest, c = mp.pi / 2 - mp.si(t), mp.ci(t)
            out += [(x, "f", c * mp.sin(t) + rest * mp.cos(t)),
                    (x, "g", -c * mp.cos(t) + rest * mp.sin(t))]
    return out


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

    def test_against_mpmath_over_the_cli_domain(self):
        # for large x the integrand is a spike at theta = 0 that a partition
        # started on [0, pi/2] alone steps over (it returned 0 from x ~ 3e5 on)
        for x, which, ref in _aux_references():
            tol = 1e-12 if x >= 1e-3 else 1e-10
            rel = float(abs(aux_integral_rep(x, which).value - ref) / ref)
            assert rel <= tol, (which, x, rel)

    def test_estimate_bounds_the_error_over_the_cli_domain(self):
        # below x ~ 4e-5 the g error comes from the rounding of the nodes
        # near pi/2, which the rule difference does not see
        for x, which, ref in _aux_references():
            rep = aux_integral_rep(x, which)
            assert abs(rep.value - ref) <= rep.abs_err_est, (which, x)

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


class TestQuad:
    def test_half_line_and_breakpoints(self):
        val, err, _ = _quad(lambda v: np.exp(-v), 0.0, np.inf, epsrel=1e-13,
                            limit=100, where="test")
        assert abs(val - 1.0) <= err <= 1e-13
        # a kink at the breakpoint costs nothing once it is an edge
        val, err, used = _quad(lambda v: np.abs(v - 0.3), 0.0, 1.0, epsrel=1e-13,
                               limit=100, where="test", points=[0.3])
        assert val == pytest.approx(0.29, rel=1e-15)
        assert used == 2

    def test_rounding_floor(self):
        # both rules integrate 3 v^2 exactly, so the estimate is the floor of
        # 50 ulps of the integral of |f|, which still covers the rounding
        val, err, used = _quad(lambda v: 3.0 * v * v, 0.0, 1.0, epsrel=1e-13,
                               limit=100, where="test")
        assert err == pytest.approx(50 * np.finfo(float).eps, rel=1e-12)
        assert abs(val - 1.0) <= err
        assert used == 1

    def test_limit_raises_accuracy_error(self):
        # sqrt's derivative is unbounded at 0, so bisection gains a constant
        # factor per level and cannot reach 1e-15 in 20 intervals
        with pytest.raises(AccuracyError, match="test oracle at x=1.5.*20 intervals"):
            _quad(np.sqrt, 0.0, 1.0, epsrel=1e-15, limit=20,
                  where="test oracle at x=1.5")

    def test_agrees_with_quadpack_on_every_validate_integral(self, monkeypatch):
        # every _quad call of `validate --level full` is repeated by
        # scipy's QUADPACK at the same tolerances: the two results differ by
        # no more than the sum of the two error estimates
        quad = pytest.importorskip("scipy.integrate").quad
        seen = []

        def both(func, a, b, *, epsrel, limit, where, epsabs=0.0, points=()):
            value, err, used = _quad(func, a, b, epsrel=epsrel, limit=limit,
                                     where=where, epsabs=epsabs, points=points)
            ref, ref_err = quad(func, a, b, epsabs=epsabs, epsrel=epsrel,
                                limit=limit, points=points if len(points) else None)
            assert abs(value - ref) <= err + ref_err, (where, value, ref)
            seen.append(where.split(" at ")[0])
            return value, err, used

        monkeypatch.setattr(oracle, "_quad", both)
        assert all(r.passed for r in validate.run_validation("full"))
        counts = {name: seen.count(name) for name in set(seen)}
        assert counts == {
            # 10 grid x times 3 geometries, plus the second-order check's 2
            "oracle.modesum_first_order": 32,
            # 3 x times 3 geometries of the cross-coherence check, plus the
            # second-order check's 1
            "oracle.modesum_second_order": 10,
            "oracle.field_correlator": 1,
            "oracle.dispersion_integral_rotated": 6,
            # left of and right of the pole window, at 4 x
            "oracle.dispersion_integral_real_axis": 8,
            "oracle.local_population": 1,
            "oracle.aux_integral_rep('f')": 10,
            "oracle.aux_integral_rep('g')": 10,
        }


def _five_pass(terms, lengths):
    """The averaging loop run once on terms and once on each terms[:n]."""
    def average(t):
        s = np.cumsum(t)
        prev = s[-1]
        diff = np.inf
        while s.size > 3:
            s = 0.5 * (s[:-1] + s[1:])
            diff = abs(s[-1] - prev)
            prev = s[-1]
        return float(prev), float(diff)

    value, diff = average(terms)
    return value, diff, [average(terms[:n])[0] for n in lengths]


class TestEulerAverage:
    @pytest.mark.parametrize("n", [5, 8, 360, 401, 960, 3100])
    def test_one_pass_is_bit_identical_to_five(self, rng, n):
        # alternating terms growing like k^2, the way the mode-sum tails do
        k = np.arange(1, n + 1)
        terms = (-1.0) ** k * k**2 * (1.0 + 0.1 * rng.normal(size=n))
        lengths = [max(4, (n * frac) // 8) for frac in (4, 5, 6, 7)]
        assert _euler_average(terms, lengths) == _five_pass(terms, lengths)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lengths_repeated_or_past_the_end(self, rng, n):
        terms = rng.normal(size=n)
        lengths = [1, 3, 4, 4, 6, 6]
        assert _euler_average(terms, lengths) == _five_pass(terms, lengths)
