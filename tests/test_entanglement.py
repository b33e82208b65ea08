"""Dressed-state amplitudes, concurrence measures and their cross checks."""

import re
from decimal import Decimal, getcontext

import numpy as np
import pytest

from vacpair import (AccuracyError, DomainError, Regime, SpinCorrelators,
                     TwoQubitState, Validity, amplitude_c_ee,
                     c1_c2_from_amplitudes, concurrence_far, concurrence_full,
                     concurrence_near, correlators_from_state,
                     effective_density_matrix, entanglement_of_formation,
                     hydrogen_1s2p, pair_from_alignment, palma_concurrence,
                     perturbative_validity, reduce, wootters_concurrence)
from vacpair import kernel
from vacpair.entanglement import cross_coherence, regularized_local_population

from conftest import (random_density_matrix, random_rotation, random_unit,
                      random_x_state, transverse_pair)

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
        assert res.regime is Regime.FULL
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
        cfg = transverse_pair(1.0, mu=1e-3)
        c1, _ = c1_c2_from_amplitudes(cfg, 100.0, include_local=False)
        assert c1 == pytest.approx(abs(amplitude_c_ee(cfg)), rel=1e-14)

    def test_local_population_diverges_with_cutoff(self):
        lo = regularized_local_population(100.0)
        hi = regularized_local_population(1000.0)
        assert hi > 50.0 * lo

    def test_cutoff_domain(self):
        with pytest.raises(DomainError):
            c1_c2_from_amplitudes(transverse_pair(1.0), 1.0)
        with pytest.raises(DomainError):
            regularized_local_population(0.5)

    @pytest.mark.parametrize("cutoff", [1e155, 1e200, 1e308])
    def test_cutoff_out_of_range_is_an_accuracy_error(self, cutoff):
        # cutoff^2 overflows; this used to be a bare OverflowError
        with pytest.raises(AccuracyError, match=re.escape(f"cutoff={cutoff!r}")):
            regularized_local_population(cutoff)
        with pytest.raises(AccuracyError, match="regularized_local_population"):
            c1_c2_from_amplitudes(transverse_pair(1.0), cutoff)

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
