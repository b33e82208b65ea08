"""Dressed-state amplitudes, concurrence measures and their cross checks."""

import math
import re
import sys
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vacpair import (AccuracyError, DomainError, PairConfiguration, SpinCorrelators,
                     TwoQubitState, Validity, amplitude_c_ee,
                     c1_c2_from_amplitudes, concurrence_far, concurrence_full,
                     concurrence_near, correlators_from_state,
                     effective_density_matrix, entanglement_of_formation,
                     hydrogen_1s2p, pair_from_alignment, palma_concurrence,
                     perturbative_validity, reduce, wootters_concurrence)
from vacpair import kernel
from vacpair.entanglement import cross_coherence, regularized_local_population

import mpref
from conftest import (random_density_matrix, random_rotation, random_unit,
                      random_x_state, transverse_pair, unit_vectors)

G_1 = 0.343377961556427

BELL_PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


def eigensolver_concurrence(m):
    """Brute-force reference: dense eigenvalues of the 4x4 spin-flip product."""
    sy = np.array([[0, -1j], [1j, 0]])
    s = np.kron(sy, sy)
    lam = np.linalg.eigvals(m @ s @ m.conj() @ s)
    a = np.sqrt(np.sort(np.clip(lam.real, 0.0, None))[::-1])
    return max(0.0, a[0] - a[1] - a[2] - a[3])


class TestAmplitude:
    def test_decoupled(self):
        assert amplitude_c_ee(pair_from_alignment(1.0, 0.0, 1.0, 0.0)) == 0.0

    def test_transverse_at_one(self):
        # the f terms cancel at x = 1, leaving -(mu/pi)(1 + g(1))
        cfg = transverse_pair(1.0, mu=0.01)
        expected = -(0.01 / np.pi) * (1.0 + G_1)
        assert amplitude_c_ee(cfg) == pytest.approx(expected, rel=1e-10)
        assert amplitude_c_ee(cfg) == pytest.approx(-4.276e-3, rel=1e-3)

    def test_orthogonal_geometry(self):
        for x in (0.1, 1.0, 10.0):
            assert amplitude_c_ee(pair_from_alignment(x, 0.5, 0.0, 0.0)) == 0.0


class TestConcurrenceRegimes:
    def test_full_is_twice_amplitude(self):
        cfg = transverse_pair(1.0, mu=0.01)
        res = concurrence_full(cfg)
        assert res.raw == pytest.approx(2.0 * abs(amplitude_c_ee(cfg)), rel=1e-15)
        assert res.validity.flag is Validity.OK

    def test_full_evaluates_the_tensor_once(self, monkeypatch):
        calls = []
        original = kernel.contracted_tensor

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernel, "contracted_tensor", counted)
        concurrence_full(transverse_pair(1.0, mu=0.01))
        assert len(calls) == 1

    @pytest.mark.parametrize("x, mu, flag", [(1.0, 1e-4, Validity.OK),
                                             (1.0, 0.5, Validity.WARN),
                                             (0.01, 1.0, Validity.INVALID)])
    def test_full_validity_is_perturbative_validity(self, x, mu, flag):
        cfg = transverse_pair(x, mu=mu)
        validity = concurrence_full(cfg).validity
        assert validity.flag is flag
        assert validity == perturbative_validity(cfg)

    @pytest.mark.parametrize("x", [0.7, np.array([0.01, 0.7, 3.0, 40.0])],
                             ids=["float", "array"])
    def test_the_three_laws_share_one_validity_report(self, x):
        # C = 2 |c_ee| is the weak-coupling margin, so a configuration has one
        # report, which the near and far laws read as the full law does; the
        # array's flags are INVALID, WARN, OK and OK
        cfg = transverse_pair(x, mu=0.3)
        full = concurrence_full(cfg).validity
        for law in (concurrence_near, concurrence_far):
            validity = law(cfg).validity
            assert np.array_equal(validity.flag, full.flag)
            assert np.array_equal(validity.margin, full.margin)

    def test_the_shared_report_is_read_only(self):
        # every law of the configuration returns the same arrays, so none of
        # its callers may write into them
        cfg = transverse_pair(np.array([0.01, 0.7, 40.0]), mu=0.3)
        full = concurrence_full(cfg)
        assert concurrence_near(cfg).validity.margin is full.validity.margin
        for shared in (full.validity.flag, full.validity.margin, full.raw):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = shared[1]

    def test_near_zone_closed_forms(self):
        cfg = transverse_pair(0.5, mu=2.0)
        assert concurrence_near(cfg).raw == pytest.approx(2.0 / 0.5**3, rel=1e-15)
        cfg_l = pair_from_alignment(0.5, 2.0, 1.0, 1.0)
        assert concurrence_near(cfg_l).raw == pytest.approx(2 * 2.0 / 0.5**3,
                                                            rel=1e-15)

    def test_far_zone_closed_forms(self):
        cfg = transverse_pair(2.0, mu=3.0)
        assert concurrence_far(cfg).raw == pytest.approx(
            (8 / np.pi) * 3.0 / 2.0**4, rel=1e-15)
        cfg_l = pair_from_alignment(2.0, 3.0, 1.0, 1.0)
        assert concurrence_far(cfg_l).raw == pytest.approx(
            (8 / np.pi) * 3.0 / 2.0**4, rel=1e-15)

    @pytest.mark.parametrize("x", [0.005, 0.01, 0.02])
    def test_regime_matching_near(self, x):
        cfg = transverse_pair(x)
        full = concurrence_full(cfg).raw
        near = concurrence_near(cfg).raw
        assert abs(full - near) / full <= 0.01

    @pytest.mark.parametrize("x", [100.0, 300.0])
    def test_regime_matching_far(self, x):
        cfg = transverse_pair(x)
        full = concurrence_full(cfg).raw
        far = concurrence_far(cfg).raw
        assert abs(full - far) / full <= 0.01

    @pytest.mark.parametrize("cos_ab, proj_product", [(1.0, 0.0), (1.0, 1.0), (0.75, 0.25),
                                                      (0.3, -0.2)])
    def test_far_zone_full_is_the_far_law(self, cos_ab, proj_product):
        # the full law's relative correction, of order 1/x^2, is below the
        # rounding from x = 1e8 on
        cfg = pair_from_alignment(np.array([1e8, 1e12, 1e20]), 1e-4, cos_ab, proj_product)
        full, far = concurrence_full(cfg).raw, concurrence_far(cfg).raw
        assert np.all(np.abs(full - far) <= 1e-14 * far), np.abs(full / far - 1)

    def test_hydrogen_preset_near_zone(self):
        atom = hydrogen_1s2p()
        cfg = reduce(atom, atom, [0.0, 0.0, 10.0])
        full = concurrence_full(cfg)
        near = concurrence_near(cfg)
        assert abs(full.raw - near.raw) / full.raw <= 0.02
        assert near.raw == pytest.approx(1.48e-3, rel=1e-2)

    def test_clamping_preserves_raw(self):
        cfg = transverse_pair(0.01, mu=10.0)
        res = concurrence_full(cfg)
        assert res.value == 1.0
        assert res.raw > 1e5
        assert res.validity.flag is Validity.INVALID

    def test_sign_flip_invariance(self, rng):
        for _ in range(5):
            n_a, n_b, r_hat = (random_unit(rng) for _ in range(3))
            x = float(rng.uniform(0.1, 10.0))
            from vacpair import PairConfiguration
            cfg = PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=1e-3)
            flipped = PairConfiguration(x=x, n_a=-n_a, n_b=n_b, r_hat=r_hat,
                                        mu=1e-3)
            assert concurrence_full(cfg).raw == pytest.approx(
                concurrence_full(flipped).raw, rel=1e-14)

    def test_rigid_rotation_invariance(self, rng):
        from vacpair import PairConfiguration
        n_a, n_b, r_hat = (random_unit(rng) for _ in range(3))
        cfg = PairConfiguration(x=1.7, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=1e-3)
        rot = random_rotation(rng)
        rotated = PairConfiguration(x=1.7, n_a=rot @ n_a, n_b=rot @ n_b,
                                    r_hat=rot @ r_hat, mu=1e-3)
        assert concurrence_full(rotated).raw == pytest.approx(
            concurrence_full(cfg).raw, rel=1e-12)


def check_law(value, reference, rel):
    """value() within rel of the reference's scale where the reference fits
    the floats (and a few spacings of them below the normal range), and
    AccuracyError where it does not."""
    exact, scale = reference
    if abs(exact) > sys.float_info.max:
        with pytest.raises(AccuracyError, match="OverflowError"):
            value()
        return
    v = value()
    assert abs(v - exact) <= rel * scale + 4 * math.ulp(0.0), (v, float(exact))


def check_full_law(cfg):
    """concurrence_full, 2 mu |T| / pi, against mpmath's T."""
    tensor = mpref.tensor(cfg.x, cfg.cos_ab, cfg.proj_product)
    factor = 2 * cfg.mu / math.pi
    check_law(lambda: concurrence_full(cfg).raw,
              mpref.Ref(factor * abs(tensor.value), factor * tensor.scale), 1e-13)


log_floats = st.floats(math.log(1e-300), math.log(1e300))


class TestLawsOverTheWholeDomain:
    # each law raises only where a value of its result leaves the float
    # range; the power laws lose a few roundings, T a few 1e-14 to
    # cancellation near x = 10 and X/mu a few 1e-12
    @settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(log_x=log_floats, log_mu=log_floats, n_a=unit_vectors, n_b=unit_vectors,
           r_hat=unit_vectors)
    def test_power_laws(self, log_x, log_mu, n_a, n_b, r_hat):
        cfg = PairConfiguration(x=math.exp(log_x), n_a=n_a, n_b=n_b, r_hat=r_hat,
                                mu=math.exp(log_mu))
        invariants = cfg.x, cfg.mu, cfg.cos_ab, cfg.proj_product
        try:
            concurrence_full(cfg)
        except AccuracyError:  # the validity margin that all three laws carry
            for law in (concurrence_near, concurrence_far):
                with pytest.raises(AccuracyError, match="OverflowError"):
                    law(cfg)
            return
        check_law(lambda: concurrence_near(cfg).raw, mpref.concurrence_near(*invariants),
                  8 * sys.float_info.epsilon)
        check_law(lambda: concurrence_far(cfg).raw, mpref.concurrence_far(*invariants),
                  8 * sys.float_info.epsilon)

    @settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(log_x=st.floats(math.log(1e-300), math.log(10.0)), log_mu=log_floats,
           n_a=unit_vectors, n_b=unit_vectors, r_hat=unit_vectors)
    def test_full_law_and_cross_coherence(self, log_x, log_mu, n_a, n_b, r_hat):
        cfg = PairConfiguration(x=math.exp(log_x), n_a=n_a, n_b=n_b, r_hat=r_hat,
                                mu=math.exp(log_mu))
        check_full_law(cfg)
        x_over_mu = mpref.x_over_mu(cfg.x, cfg.cos_ab, cfg.proj_product)
        check_law(lambda: cross_coherence(cfg),
                  mpref.Ref(cfg.mu * x_over_mu.value, cfg.mu * x_over_mu.scale), 1e-11)

    @pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
        "mu |cos_ab| and mu |proj_product| both lie below the normal range, so "
        "model.coupled raises mu by a power of two to keep their bits, and T "
        "then overflows below x ~ 1e-205 although c_ee, about 5e284, fits"))
    def test_tiny_invariants_at_tiny_x(self):
        # found by test_full_law_and_cross_coherence with random draws
        n_b = np.array([-1.14487384e-221, -8.17116557e-001, 5.76472490e-001])
        n_b /= np.linalg.norm(n_b)
        cfg = PairConfiguration(x=3.4727e-219, mu=2.2124e-229, n_b=n_b, r_hat=n_b,
                                n_a=[1.0, -1.10489689e-226, -1.51871424e-142])
        check_full_law(cfg)


class TestWootters:
    def test_bell_state(self):
        assert wootters_concurrence(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == 0.0

    def test_werner_state(self):
        p = 0.5
        m = p * BELL_PHI_PLUS + (1 - p) * np.eye(4) / 4.0
        assert wootters_concurrence(m) == pytest.approx(0.25, abs=1e-12)
        assert wootters_concurrence(m) == pytest.approx(
            eigensolver_concurrence(m), abs=1e-12)

    def test_general_path_matches_eigensolver_oracle(self, rng):
        worst = 0.0
        for _ in range(200):
            m = random_density_matrix(rng)
            worst = max(worst, abs(wootters_concurrence(m, method="general")
                                   - eigensolver_concurrence(m)))
        assert worst < 2e-10

    def test_xstate_paths_agree(self, rng):
        for _ in range(200):
            m = random_x_state(rng)
            assert wootters_concurrence(m, method="general") == pytest.approx(
                wootters_concurrence(m, method="xstate"), abs=1e-10)

    def test_invalid_states_rejected(self):
        with pytest.raises(DomainError):
            wootters_concurrence(np.eye(4) / 2.0)  # trace 2
        bad = np.diag([0.7, 0.5, 0.0, -0.2])
        with pytest.raises(DomainError):
            wootters_concurrence(bad)  # negative eigenvalue
        with pytest.raises(DomainError):
            wootters_concurrence(np.triu(np.ones((4, 4))) / 4.0)  # not Hermitian

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            wootters_concurrence(BELL_PHI_PLUS, method="fancy")

    def test_stack_gives_the_per_state_values(self, rng):
        # half X states, half general ones, so "auto" takes both paths at once
        ms = np.array([random_x_state(rng) for _ in range(25)]
                      + [random_density_matrix(rng) for _ in range(25)])
        for method in ("general", "xstate", "auto"):
            single = [wootters_concurrence(m, method=method) for m in ms]
            assert all(type(c) is float for c in single)
            assert wootters_concurrence(ms, method=method).tolist() == single
            grid = wootters_concurrence(ms.reshape(5, 10, 4, 4), method=method)
            assert grid.shape == (5, 10)
            assert grid.ravel().tolist() == single

    def test_stack_with_one_bad_state_is_rejected(self, rng):
        ms = np.array([random_x_state(rng) for _ in range(50)])
        ms[17, 0, 1] = 0.1
        with pytest.raises(DomainError, match="Hermitian"):
            TwoQubitState(ms)
        with pytest.raises(DomainError, match="Hermitian"):
            wootters_concurrence(ms, method="xstate")


class TestStackEqualsSingle:
    """The one-state laws over a stack give their per-state values bit for bit."""

    def test_effective_state_over_an_array_x(self):
        xs = np.geomspace(0.05, 20.0, 9)
        cfg = pair_from_alignment(xs, 1e-4, -0.6, -0.15)
        stack = effective_density_matrix(cfg)
        assert isinstance(stack, TwoQubitState) and stack.matrix.shape == (9, 4, 4)
        for x, m in zip(xs.tolist(), stack.matrix):
            single = effective_density_matrix(pair_from_alignment(x, 1e-4, -0.6, -0.15))
            assert single.matrix.shape == (4, 4)
            assert np.array_equal(single.matrix, m)

    def test_correlators_and_palma_over_a_stack(self, rng):
        # X states and general ones; Palma reads the correlators of X states
        ms = np.array([random_x_state(rng) for _ in range(25)]
                      + [random_density_matrix(rng) for _ in range(25)])
        stack = correlators_from_state(TwoQubitState(ms))
        assert stack.g.shape == (50, 3, 3) and stack.m_z.shape == (50,)
        singles = [correlators_from_state(TwoQubitState(m)) for m in ms]
        for i, corr in enumerate(singles):
            assert corr.g.shape == (3, 3) and type(corr.m_z) is np.float64
            assert np.array_equal(corr.g, stack.g[i])
            assert (corr.m_z, corr.delta_s_z) == (stack.m_z[i], stack.delta_s_z[i])
        x_stack = correlators_from_state(TwoQubitState(ms[:25]))
        single = [palma_concurrence(corr) for corr in singles[:25]]
        assert all(type(c) is float for c in single)
        assert palma_concurrence(x_stack).tolist() == single
        grid = correlators_from_state(TwoQubitState(ms[:25].reshape(5, 5, 4, 4)))
        assert palma_concurrence(grid).ravel().tolist() == single

    def test_an_invalid_x_in_a_stack_is_a_domain_error(self):
        # weak coupling fails at the smallest separations, x = 0.01 first
        cfg = transverse_pair(np.array([1.0, 0.01, 0.005, 2.0]), mu=1e-3)
        with pytest.raises(DomainError, match=r"weak-coupling regime .* at x=0\.01\)"):
            effective_density_matrix(cfg)

    def test_an_inconsistent_state_in_a_stack_is_a_domain_error(self):
        g = np.zeros((4, 3, 3))
        g[:, 2, 2] = 0.25
        m_z = np.array([-0.5, -0.5, 0.9, 0.9])
        with pytest.raises(DomainError, match="negative radicand.* at state 2"):
            palma_concurrence(SpinCorrelators(g=g, m_z=m_z, delta_s_z=np.zeros(4)))


class TestEntanglementOfFormation:
    def test_endpoints_exact(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert entanglement_of_formation(1.0) == 1.0

    def test_half_against_high_precision_arithmetic(self):
        getcontext().prec = 45
        c = Decimal("0.5")
        x = (1 + (1 - c * c).sqrt()) / 2
        ln2 = Decimal(2).ln()
        ef = -(x * x.ln() + (1 - x) * (1 - x).ln()) / ln2
        assert entanglement_of_formation(0.5) == pytest.approx(float(ef),
                                                               rel=1e-14)
        assert entanglement_of_formation(0.5) == pytest.approx(0.3546, abs=1e-4)

    def test_against_mpmath_down_to_tiny_concurrence(self, rng):
        # 1 - x with x = (1 + sqrt(1 - c^2))/2 used to cancel: E_F was 8.2e-9
        # off at c = 1e-4, 2% at 1e-7 and 0 from 1e-8 down
        cs = np.concatenate((10.0 ** rng.uniform(-150.0, 0.0, 200), [1e-4, 1e-7, 1e-8]))
        for c, value in zip(cs.tolist(), entanglement_of_formation(cs).tolist()):
            ref = mpref.eof(c).value
            assert abs(value - ref) <= 1e-15 * ref, c

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [entanglement_of_formation(c) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", [-0.1, 1.1, float("nan")])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            entanglement_of_formation(c)


class TestPalma:
    def test_ground_product_state(self):
        gg = np.zeros((4, 4), dtype=complex)
        gg[3, 3] = 1.0
        corr = correlators_from_state(TwoQubitState(gg))
        assert corr.g[2, 2] == pytest.approx(0.25, abs=1e-14)
        assert corr.g[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert corr.m_z == pytest.approx(-0.5, abs=1e-14)
        assert corr.delta_s_z == pytest.approx(0.0, abs=1e-14)
        assert palma_concurrence(corr) == 0.0
        assert wootters_concurrence(gg) == 0.0

    def test_bell_state_correlators(self):
        corr = correlators_from_state(TwoQubitState(BELL_PHI_PLUS))
        assert corr.g[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert corr.g[1, 1] == pytest.approx(-0.25, abs=1e-14)
        assert corr.g[2, 2] == pytest.approx(0.25, abs=1e-14)
        assert corr.m_z == pytest.approx(0.0, abs=1e-14)
        assert palma_concurrence(corr) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_wootters_on_x_states(self, rng):
        for _ in range(100):
            m = random_x_state(rng)
            state = TwoQubitState(m)
            assert palma_concurrence(correlators_from_state(state)) == \
                pytest.approx(wootters_concurrence(state), abs=1e-11)

    def test_cached_operators_match_the_per_call_kron_form(self, rng):
        paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]]),
                  np.array([[1, 0], [0, -1]], dtype=complex))
        eye = np.eye(2, dtype=complex)
        for _ in range(20):
            state = TwoQubitState(random_density_matrix(rng))
            m = state.matrix
            corr = correlators_from_state(state)
            g = [[0.25 * np.trace(m @ np.kron(si, sj)).real for sj in paulis]
                 for si in paulis]
            sz_a = 0.5 * np.trace(m @ np.kron(paulis[2], eye)).real
            sz_b = 0.5 * np.trace(m @ np.kron(eye, paulis[2])).real
            assert corr.g.tolist() == g
            assert (corr.m_z, corr.delta_s_z) == (0.5 * (sz_a + sz_b), sz_a - sz_b)

    def test_inconsistent_correlators_rejected(self):
        g = np.zeros((3, 3))
        g[2, 2] = 0.25
        with pytest.raises(DomainError):
            palma_concurrence(SpinCorrelators(g=g, m_z=0.9, delta_s_z=0.0))

    def test_correlator_bound_enforced(self):
        with pytest.raises(DomainError):
            SpinCorrelators(g=np.full((3, 3), 0.3), m_z=0.0, delta_s_z=0.0)


class TestEffectiveState:
    def test_decoupled_gives_ground_state(self):
        state = effective_density_matrix(pair_from_alignment(1.0, 0.0, 1.0, 0.0))
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.allclose(state.matrix, expected, atol=1e-15)

    def test_purity(self):
        for x in (0.1, 1.0, 5.0):
            state = effective_density_matrix(transverse_pair(x, mu=1e-3))
            m = state.matrix
            assert np.linalg.norm(m @ m - m) <= 1e-14

    def test_concurrence_consistency(self):
        cfg = transverse_pair(0.5, mu=1e-3)
        cee = amplitude_c_ee(cfg)
        w = wootters_concurrence(effective_density_matrix(cfg))
        assert w == pytest.approx(2 * abs(cee) / (1 + cee * cee), rel=1e-12)
        full = concurrence_full(cfg).raw
        assert abs(w - full) / full <= cee * cee + 1e-12

    def test_invalid_regime_rejected(self):
        with pytest.raises(DomainError):
            effective_density_matrix(transverse_pair(0.01, mu=10.0))


class TestConsistencyTriangle:
    def test_three_routes_agree(self, rng):
        for _ in range(10):
            x = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            a = float(rng.uniform(-1.0, 1.0))
            b = float(rng.uniform(0.0, 0.4)) * a
            cfg = pair_from_alignment(x, 10 ** rng.uniform(-4, -3), a, b)
            cee = amplitude_c_ee(cfg)
            if abs(cee) < 1e-15:
                continue
            direct = 2.0 * abs(cee)
            state = effective_density_matrix(cfg)
            w = wootters_concurrence(state)
            p = palma_concurrence(correlators_from_state(state))
            # quadratic-order agreement plus a floor for eigensolver noise
            tol = direct * cee * cee + 1e-13
            assert abs(w - direct) <= tol
            assert abs(p - direct) <= tol
            assert abs(p - w) <= tol


class TestCutoffStructure:
    def test_c2_negative_on_grid(self):
        for x in (0.1, 1.0, 10.0):
            for cutoff in (10.0, 100.0, 1000.0):
                cfg = transverse_pair(x, mu=1e-3)
                _, c2 = c1_c2_from_amplitudes(cfg, cutoff)
                assert c2 < 0.0

    def test_c1_reduces_to_amplitude_without_local_terms(self):
        # c1 + mu L(cutoff) = |c_ee|, to the rounding of the subtraction
        cfg = transverse_pair(1.0, mu=1e-3)
        c1, _ = c1_c2_from_amplitudes(cfg, 100.0)
        local = 1e-3 * regularized_local_population(100.0)
        assert c1 + local == pytest.approx(abs(amplitude_c_ee(cfg)),
                                           abs=4 * sys.float_info.epsilon * local)

    def test_c2_finite_where_its_radicand_overflows(self):
        # (mu L)^2 overflows from a cutoff of about 3.5e79 at mu = 1e-4, while
        # c2 itself is about -mu L = -1.06e155; this used to return -inf
        # with a RuntimeWarning
        cfg = pair_from_alignment(1.0, 1e-4)
        _, c2 = c1_c2_from_amplitudes(cfg, 1e80)
        assert math.isfinite(c2)
        assert c2 == pytest.approx(-1e-4 * regularized_local_population(1e80),
                                   rel=1e-15)
        assert c2 == pytest.approx(-1.06e155, rel=1e-2)

    def test_local_population_diverges_with_cutoff(self):
        lo = regularized_local_population(100.0)
        hi = regularized_local_population(1000.0)
        assert hi > 50.0 * lo

    def test_cutoff_domain(self):
        with pytest.raises(DomainError):
            c1_c2_from_amplitudes(transverse_pair(1.0), 1.0)
        with pytest.raises(DomainError):
            regularized_local_population(0.5)

    @pytest.mark.parametrize("cutoff", [2e154, 4e154])
    def test_local_population_up_to_its_overflow(self, cutoff):
        # the 2/(3 pi) goes in before the cutoff is squared: cutoff**2 used to
        # raise from 1.34e154 on, below the population's own overflow
        assert regularized_local_population(cutoff) == pytest.approx(
            float(mpref.local_population(cutoff)), rel=1e-15)

    @pytest.mark.parametrize("cutoff", [4.2e154, 1e155, 1e200, 1e308])
    def test_cutoff_out_of_range_is_an_accuracy_error(self, cutoff):
        # the population overflows; this used to be a bare OverflowError
        with pytest.raises(AccuracyError, match=re.escape(f"cutoff={cutoff!r}")):
            regularized_local_population(cutoff)
        with pytest.raises(AccuracyError, match="regularized_local_population"):
            c1_c2_from_amplitudes(transverse_pair(1.0), cutoff)

    def test_one_state_functions_refuse_an_array_x(self):
        cfg = transverse_pair(np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match="c1_c2_from_amplitudes .* float x"):
            c1_c2_from_amplitudes(cfg, 100.0)

    def test_overflowing_local_population_is_an_accuracy_error(self):
        # mu L(1e100) = 1e200 * 1.06e199 overflows though L itself does not;
        # this used to return (-inf, -inf) with a RuntimeWarning on stderr
        cfg = pair_from_alignment(1.0, 1e200)
        with pytest.raises(AccuracyError, match=re.escape(
                "c1_c2_from_amplitudes: out of floating-point range at mu=1e+200, "
                "cutoff=1e+100")):
            c1_c2_from_amplitudes(cfg, 1e100)

    def test_cross_coherence_scales_with_mu(self):
        x1 = cross_coherence(transverse_pair(1.0, mu=1e-3))
        x2 = cross_coherence(transverse_pair(1.0, mu=2e-3))
        assert x2 == pytest.approx(2.0 * x1, rel=1e-12)


class TestTwoQubitStateValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            TwoQubitState(np.eye(3))
        with pytest.raises(DomainError):
            TwoQubitState(np.eye(4))  # trace 4
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(DomainError):
            TwoQubitState(m)  # not Hermitian

    def test_x_structure_detection(self):
        assert TwoQubitState(BELL_PHI_PLUS).is_x_structured()
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        assert not TwoQubitState(m).is_x_structured()

    def test_x_structure_of_each_state_in_a_stack(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        stack = TwoQubitState(np.array([BELL_PHI_PLUS, m, np.eye(4) / 4.0]))
        assert stack.is_x_structured().tolist() == [True, False, True]
        assert TwoQubitState(BELL_PHI_PLUS).is_x_structured() is True
