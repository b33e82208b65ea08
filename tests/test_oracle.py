"""Brute-force validators: self-consistency and the spotlight closed forms."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from vacpair import AccuracyError, DomainError, oracle, pair_from_alignment, validate, wcp
from vacpair.entanglement import regularized_local_population
from vacpair.kernel import contracted_tensor, cross_coherence_kernel
from vacpair.oracle import (_binomial_weights, _default_segments, _euler_average,
                            _gauss_pair, _gauss_rule, _quad,
                            aux_integral_rep,
                            dispersion_integral_real_axis,
                            dispersion_integral_rotated,
                            field_correlator, local_population,
                            modesum_first_order, modesum_second_order)

from conftest import STANDARD_GRID, longitudinal_pair, mp_fg, mp_x_over_mu, transverse_pair

G_1 = 0.343377961556427
# exact antiderivative of k^3/(1+k)^2 on [0, L], times 2/(3 pi)
LOCAL_POP_RATIO_10_100 = 132.64183531800975
LOCAL_POP_RATIO_100_1000 = 103.47697989996128


def _t_over_pi(x, cos_ab, proj_product, digits):
    """T(x)/pi from mpmath's Si and Ci at the given precision, with f'' = 1/x - f."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        t = mp.mpf(x)
        f, g = mp_fg(mp, t)
        return float(((cos_ab - proj_product) * (1 / t - f)
                      + (cos_ab - 3 * proj_product) * (f / t**2 + g / t)) / (t * mp.pi))


# the closed forms cancel like x^2 at large x and like 1/x at small x
def _digits(x):
    return 30 + int(2 * abs(math.log10(x)))


_GEOMETRIES = pytest.mark.parametrize(
    "cos_ab, proj_product", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.25)],
    ids=["transverse", "longitudinal", "mixed"])


def _assert_matches(rep, ref):
    err = abs(rep.value - ref)
    assert err <= 1e-10 * abs(ref)
    assert err <= rep.abs_err_est


class TestModesumFirstOrder:
    def test_transverse_at_one(self):
        rep = modesum_first_order(1.0, cfg=transverse_pair(1.0))
        assert rep.value == pytest.approx((1.0 + G_1) / np.pi, rel=1e-8)

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

    @pytest.mark.parametrize("x", [300.0, 1000.0, 3000.0])
    def test_estimate_covers_the_error_at_large_x(self, x):
        # the estimate is honest, and with the phases folded out of the tail
        # it is small too: the transverse estimate is 0.07% of the value at
        # x = 1000 and 2.0% at x = 3000
        for cfg in (transverse_pair(x), longitudinal_pair(x)):
            rep = modesum_first_order(x, cfg=cfg)
            ref = _t_over_pi(x, cfg.cos_ab, cfg.proj_product, digits=40)
            assert abs(rep.value - ref) <= rep.abs_err_est, (cfg.proj_product, x)
            if x == 3000.0 and cfg.proj_product == 0.0:
                assert rep.abs_err_est < 0.05 * abs(rep.value)

    @pytest.mark.parametrize("x", [0.01, 1.0, 100.0])
    @_GEOMETRIES
    def test_matches_mpmath(self, x, cos_ab, proj_product):
        # the head's integrand cancels at small rho (sin rho - rho cos rho);
        # each tail node takes its phase from the rule's own sin and cos, so
        # no term carries the rounding of sin(rho) at rho up to 3000
        rep = modesum_first_order(x, cfg=pair_from_alignment(x, 1.0, cos_ab, proj_product))
        _assert_matches(rep, _t_over_pi(x, cos_ab, proj_product, _digits(x)))

    @pytest.mark.parametrize("cos_ab, proj_product", [(1.0, 0.0), (1.0, 0.25)],
                             ids=["transverse", "mixed"])
    def test_folded_tail_terms_match_the_angular_kernel(self, monkeypatch,
                                                        cos_ab, proj_product):
        # the segment values the Euler averaging receives, against the same
        # segments integrated in k through the angular kernel
        # cos_ab S1(k x) - proj_product S2(k x), in closed form, as every node
        # lies at rho >= pi.  (Longitudinally the cos(rho)/rho^2 part
        # dominates, whose integral over a half period nearly cancels, so
        # there a per-term comparison would measure the rounding of sin(rho)
        # in the direct form, not the fold.)
        x = 1.0
        seen = []

        def spy(terms, lengths):
            seen.append(terms)
            return _euler_average(terms, lengths)

        monkeypatch.setattr(oracle, "_euler_average", spy)
        modesum_first_order(x, cfg=pair_from_alignment(x, 1.0, cos_ab, proj_product))
        (folded,) = seen

        def integrand(k):
            r = k * x
            s, c = np.sin(r), np.cos(r)
            s1 = s / r - s / r**3 + c / r**2
            s2 = s / r - 3.0 * s / r**3 + 3.0 * c / r**2
            return k**3 / (1.0 + k) * (cos_ab * s1 - proj_product * s2)

        j = np.arange(folded.size)
        direct, _, _ = _gauss_pair(integrand, np.pi * (j + 1) / x,
                                   np.pi * (j + 2) / x, (24, 16), where="test")
        assert np.all(np.abs(folded - direct) <= 1e-13 * np.abs(direct))

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

    def test_head_below_its_rounding_floor_converges(self):
        # the head integral over rho = k x in [0, pi] is -0.113 while the
        # integral of |f| there is 17.0, so 50 ulps of the latter (1.89e-13)
        # exceed the 1e-12 relative target; this used to raise AccuracyError
        x = 0.1294
        cfg = pair_from_alignment(x, 1.0, -0.274, 0.241)
        rep = modesum_second_order(x, cfg=cfg)
        closed = cross_coherence_kernel(x, cfg.cos_ab, cfg.proj_product)
        assert rep.value == pytest.approx(8.99368055388, rel=1e-11)
        assert abs(rep.value - closed) <= rep.abs_err_est < 1e-9

    @pytest.mark.parametrize("x", [0.01, 1.0, 100.0])
    @_GEOMETRIES
    def test_matches_mpmath(self, x, cos_ab, proj_product):
        rep = modesum_second_order(x, cfg=pair_from_alignment(x, 1.0, cos_ab, proj_product))
        _assert_matches(rep, mp_x_over_mu(x, cos_ab, proj_product, _digits(x)))


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
            f, g = mp_fg(mp, mp.mpf(float(x)))
            out += [(x, "f", f), (x, "g", g)]
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
        # the integrand varies at t ~ 1 and at t ~ 1/x, up to 12 decades
        # apart on this grid; a partition that misses either scale is wrong
        for x, which, ref in _aux_references():
            tol = 1e-12 if x >= 1e-3 else 1e-10
            rel = float(abs(aux_integral_rep(x, which).value - ref) / ref)
            assert rel <= tol, (which, x, rel)

    def test_estimate_bounds_the_error_over_the_cli_domain(self):
        # the estimate is the rule difference, floored at each interval's
        # rounding, with nothing added for the rounding of the nodes
        for x, which, ref in _aux_references():
            rep = aux_integral_rep(x, which)
            assert abs(rep.value - ref) <= rep.abs_err_est, (which, x)

    @pytest.mark.parametrize("x", [1e-16, 1e-50, 1e-140])
    def test_below_the_cli_domain(self, x):
        # the partition is graded from t ~ 1/x down to t ~ 1 in factors of
        # 4: without it f at 1e-16 came out 16% low, estimated at 5e-14
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            refs = dict(zip("fg", mp_fg(mp, mp.mpf(x))))
        for which, ref in refs.items():
            rep = aux_integral_rep(x, which)
            assert abs(rep.value - ref) <= min(rep.abs_err_est, 1e-13 * ref), which

    def test_domain(self):
        with pytest.raises(DomainError):
            aux_integral_rep(0.0, "g")
        # where 1 + t^2 overflows inside the integration range
        with pytest.raises(DomainError, match="out of range"):
            aux_integral_rep(1e-200, "f")
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


def _refined(monkeypatch):
    """Twice the segments, at Gauss order 32, for the mode sums run after it."""
    monkeypatch.setattr(oracle, "_default_segments", lambda x: 2 * _default_segments(x))
    monkeypatch.setattr(oracle, "_GAUSS_ORDER", 32)


class TestHonestErrors:
    @pytest.mark.parametrize("x", [0.01, 0.5, 10.0, 100.0])
    def test_first_order_estimate_covers_refinement(self, monkeypatch, x):
        cfgs = (transverse_pair(x), longitudinal_pair(x))
        reps = [modesum_first_order(x, cfg=cfg) for cfg in cfgs]
        _refined(monkeypatch)
        for cfg, rep in zip(cfgs, reps):
            hi = modesum_first_order(x, cfg=cfg)
            assert abs(rep.value - hi.value) <= rep.abs_err_est

    @pytest.mark.parametrize("x", [0.05, 1.0, 30.0])
    def test_second_order_estimate_covers_refinement(self, monkeypatch, x):
        cfg = transverse_pair(x)
        rep = modesum_second_order(x, cfg=cfg)
        _refined(monkeypatch)
        hi = modesum_second_order(x, cfg=cfg)
        assert abs(rep.value - hi.value) <= rep.abs_err_est


class TestSegmentBudget:
    def test_a_tail_past_the_budget_raises_before_it_allocates(self):
        # 9x + 60 segments of 40 node values would take 2.9 GB at x = 1e6, and
        # the real axis's 30x + 100 of them 9.6 GB; at 1e9 both are refused
        cfg = transverse_pair(1e9)
        with pytest.raises(DomainError, match="modesum_first_order at x=1000000000.0: "):
            modesum_first_order(1e9, cfg=cfg)
        with pytest.raises(DomainError,
                           match="dispersion_integral_real_axis at x=1000000000.0: "):
            wcp(cfg, method="principal_value_oracle")

    def test_the_budget_leaves_mode_sums_up_to_x_1e4(self):
        # the tests take mode sums up to x = 3000 and the real axis up to 50
        assert _default_segments(1.1e4) <= oracle._MAX_SEGMENTS < _default_segments(1.2e4)


class TestDispersionRealAxis:
    def test_against_rotated_contour_reference(self):
        # J(1) for the transverse pattern, frozen from the imaginary-axis path
        rep = dispersion_integral_real_axis(1.0, 1.0, 1.0)
        assert rep.value == pytest.approx(0.8440557973344244, rel=1e-9)

    @pytest.mark.parametrize("x", [10.0, 20.0, 50.0])
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.25)])
    def test_estimate_bounds_the_error_past_x_5(self, x, a, b):
        # N grows like exp(2 x r) on the Cauchy circle of radius r: at a fixed
        # r = 0.2 the error reached 6.4e3 times the estimate (a relative 4e2
        # for the transverse pattern at x = 50)
        real = dispersion_integral_real_axis(x, a - b, a - 3 * b)
        rot = dispersion_integral_rotated(x, a - b, a - 3 * b)
        assert abs(real.value - rot.value) <= 0.1 * real.abs_err_est


def _mp_dispersion(x, cos_ab, proj_product):
    """J(x) from its moments I_n(2x) = int v^n e^(-2xv)/(1+v^2)^2 dv, reduced
    exactly to f and g at 2x from mpmath's Si and Ci; the reduction loses
    about 4 log10(2x) digits, so the precision grows with x."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60 + 4 * max(0, int(math.log10(2 * x)))):
        s = 2 * mp.mpf(x)
        rest, c = mp.pi / 2 - mp.si(s), mp.ci(s)
        f = c * mp.sin(s) + rest * mp.cos(s)
        g = -c * mp.cos(s) + rest * mp.sin(s)
        i0, i1 = (f + s * g) / 2, (1 - s * f) / 2
        moments = (i0, i1, f - i0, g - i1, 1 / s - 2 * f + i0)
        a, b = mp.mpf(cos_ab), mp.mpf(proj_product)
        p, q = a - b, a - 3 * b
        coeffs = (q * q, 2 * q * q, q * q + 2 * p * q, 2 * p * q, p * p)
        return mp.fsum(c_n * moments[n] / (s / 2) ** (6 - n)
                       for n, c_n in enumerate(coeffs))


class TestDispersionRotated:
    def test_matches_mpmath_over_the_cli_domain(self):
        # it returned exactly 0 from x ~ 1.3e5 on, where the half-line map
        # put no node inside the integrand's e^(-2vx) peak
        for x in np.geomspace(1e-6, 1e12, 37):
            # transverse, longitudinal, mixed, and q = a - 3b near 0
            for a, b in ((1.0, 0.0), (1.0, 1.0), (1.0, 0.25), (1.0, 1.0 / 3.0)):
                # q as casimir._orientation_pq forms it: at b = 1/3, a - 3*b
                # rounds q = 5.6e-17 to 0, which moves J(1e-6) by 2.6e-10
                rep = dispersion_integral_rotated(float(x), a - b,
                                                  math.fsum((a, -b, -b, -b)))
                ref = _mp_dispersion(float(x), a, b)
                err = abs(rep.value - ref)
                assert err <= 1e-13 * ref, (x, a, b, float(err / ref))
                assert err <= rep.abs_err_est, (x, a, b)

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

    def test_nonfinite_integrand_is_an_accuracy_error(self):
        # at x = 1e-52 the squared pattern overflows to inf inside [0, 80]:
        # the first such interval raises, with no numpy warning before it
        with pytest.raises(AccuracyError,
                           match="dispersion_integral_rotated at x=1e-52: .*not finite"):
            dispersion_integral_rotated(1e-52, 0.75, 0.25)


class TestRules:
    @pytest.mark.parametrize("n", [10, 16, 21, 24])
    def test_gauss_rule_is_numpys_bit_for_bit(self, n):
        # built without numpy.polynomial: an equally accurate rule rounded
        # another way moves the mode sums past their mpmath tolerance
        t, w = _gauss_rule(n)
        expected = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(t, expected[0]) and np.array_equal(w, expected[1])
        assert not (t.flags.writeable or w.flags.writeable)

    def test_binomial_weights_are_shared_read_only(self):
        w = _binomial_weights(7)
        assert _binomial_weights(7) is w
        assert not w.flags.writeable
        assert w * 2**7 == pytest.approx([math.comb(7, i) for i in range(8)], rel=1e-15)


class TestQuad:
    def test_breakpoints_start_the_partition(self):
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

    def test_target_below_the_floor_returns_the_floor(self):
        # the integral of sin over a period is 0, so no estimate meets a
        # relative target; every interval at its floor ends the bisection
        val, err, used = _quad(np.sin, 0.0, 2 * np.pi, epsrel=1e-12, limit=100,
                               where="test")
        assert err == pytest.approx(50 * np.finfo(float).eps * 4.0, rel=1e-2)
        assert abs(val) <= err
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

        def both(func, a, b, *, epsrel, limit, where, points=()):
            value, err, used = _quad(func, a, b, epsrel=epsrel, limit=limit,
                                     where=where, points=points)
            ref, ref_err = quad(func, a, b, epsabs=0.0, epsrel=epsrel,
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
            # 3 x times 3 geometries of the cross-coherence check, whose
            # x = 1 transverse value the second-order check reuses
            "oracle.modesum_second_order": 9,
            "oracle.field_correlator": 1,
            "oracle.dispersion_integral_rotated": 10,
            # left of and right of the pole window, at 4 x
            "oracle.dispersion_integral_real_axis": 8,
            "oracle.local_population": 1,
            # the 10 grid x of the f and g checks, which hold the 4 x of the
            # Si and Ci reconstruction
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


def _assert_near_five_pass(terms, lengths):
    # the closed form sums in another order than the loop: value, diff and
    # every truncated value agree to 32 ulps of the largest partial sum
    got, ref = _euler_average(terms, lengths), _five_pass(terms, lengths)
    tol = 32 * np.finfo(float).eps * np.abs(np.cumsum(terms)).max()
    np.testing.assert_allclose([got[0], got[1], *got[2]], [ref[0], ref[1], *ref[2]],
                               rtol=0.0, atol=tol)


_K = np.arange(2000.0)
_SIZES = [5, 8, 360, 401, 960, 3100, _default_segments(1000.0)]


def _growing_alternating(rng, n):
    """Terms growing like k^2, the way the mode-sum tails do, and the
    truncation lengths _oscillatory asks for."""
    k = np.arange(1, n + 1)
    terms = (-1.0) ** k * k**2 * (1.0 + 0.1 * rng.normal(size=n))
    return terms, [max(4, (n * frac) // 8) for frac in (4, 5, 6, 7)]


class TestEulerAverage:
    @pytest.mark.parametrize("n", _SIZES)
    def test_closed_form_matches_the_loop(self, rng, n):
        _assert_near_five_pass(*_growing_alternating(rng, n))

    @pytest.mark.parametrize("n", _SIZES)
    def test_one_pass_is_bit_identical_to_five(self, rng, n):
        # each truncated value read off the one pass is, bit for bit, the
        # value of a pass over terms[:length]
        terms, lengths = _growing_alternating(rng, n)
        _, _, truncated = _euler_average(terms, lengths)
        assert truncated == [_euler_average(terms[:m], [])[0] for m in lengths]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lengths_repeated_or_past_the_end(self, rng, n):
        terms = rng.normal(size=n)
        _assert_near_five_pass(terms, [1, 3, 4, 4, 6, 6])

    @pytest.mark.parametrize("terms, total", [
        ((-1.0) ** _K, 0.5),
        ((-1.0) ** _K * (_K + 1.0), 0.25),  # Abel sum of a divergent series
        ((-1.0) ** _K / (_K + 1.0), math.log(2.0)),
    ], ids=["grandi", "abel", "log2"])
    def test_known_sums(self, terms, total):
        value, _, _ = _euler_average(terms, [])
        assert abs(value - total) <= 1e-14


def test_oracle_imports_no_production_closed_form():
    # the oracles check the closed forms, so they must not be built on them:
    # from the package, oracle.py imports its errors and PairConfiguration only
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "vacpair":
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.split(".")[0] == "vacpair")
    assert package == {".errors", ".model"}
