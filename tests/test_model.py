"""Constants, atom records and the dimensionless reduction."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from vacpair import (AccuracyError, DomainError, FrequencyMismatchError,
                     PairConfiguration, TwoLevelAtom, Validity, concurrence_full,
                     hydrogen_1s2p, pair_from_alignment, perturbative_validity,
                     reduce)
from vacpair.model import FINE_STRUCTURE, SPEED_OF_LIGHT

HYDROGEN_DIPOLE = 128.0 * np.sqrt(2.0) / 243.0
HYDROGEN_K0 = 0.0027365072134875002  # 0.375 * alpha, alpha = 7.2973525693e-3


class TestConstants:
    def test_fine_structure_identity(self):
        # alpha = e^2/(hbar c) with e = hbar = 1 in the internal convention
        assert FINE_STRUCTURE == pytest.approx(1.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert FINE_STRUCTURE == pytest.approx(1.0 / 137.036, rel=1e-5)


class TestTwoLevelAtom:
    def test_validation(self):
        with pytest.raises(DomainError):
            TwoLevelAtom(omega0=-1.0, dipole=[1, 0, 0])
        with pytest.raises(DomainError):
            TwoLevelAtom(omega0=1.0, dipole=[1, 0])

    def test_hydrogen_dipole_against_radial_quadrature(self):
        # <1s| z |2p_z> = (1/sqrt(3)) int_0^inf R_10 R_21 r^3 dr with
        # R_10 = 2 exp(-r) and R_21 = r exp(-r/2) / (2 sqrt(6))
        radial, _ = quad(lambda r: 2.0 * np.exp(-r)
                         * r * np.exp(-r / 2) / (2 * np.sqrt(6.0)) * r**3,
                         0.0, 60.0, limit=300)
        oracle = radial / np.sqrt(3.0)
        atom = hydrogen_1s2p()
        assert atom.dipole_magnitude == pytest.approx(oracle, rel=1e-10)
        assert atom.dipole_magnitude == pytest.approx(HYDROGEN_DIPOLE, rel=1e-14)

    def test_hydrogen_wavenumber(self):
        assert hydrogen_1s2p().wavenumber() == pytest.approx(HYDROGEN_K0, rel=1e-12)


class TestReduce:
    def test_hydrogen_at_ten_bohr(self):
        a = hydrogen_1s2p()
        b = hydrogen_1s2p()
        cfg = reduce(a, b, [0.0, 0.0, 10.0])
        assert cfg.x == pytest.approx(10 * HYDROGEN_K0, rel=1e-12)
        assert cfg.x == pytest.approx(2.737e-2, rel=1e-3)

    def test_decoupled_atoms(self):
        a = TwoLevelAtom(1.0, [0.0, 0.0, 0.0])
        cfg = reduce(a, a, [0.0, 0.0, 5.0])
        assert cfg.mu == 0.0

    def test_geometry_passthrough(self):
        a = TwoLevelAtom(1.0, [0.3, 0.0, 0.0])
        cfg = reduce(a, a, [0.0, 0.0, 2.0])
        assert np.allclose(cfg.r_hat, [0, 0, 1])
        assert np.allclose(cfg.n_a, [1, 0, 0])
        assert np.allclose(cfg.n_b, [1, 0, 0])

    def test_frequency_mismatch(self):
        a = TwoLevelAtom(1.0, [1.0, 0, 0])
        b = TwoLevelAtom(1.0 + 1e-6, [1.0, 0, 0])
        with pytest.raises(FrequencyMismatchError):
            reduce(a, b, [0, 0, 1.0])

    def test_zero_separation(self):
        a = TwoLevelAtom(1.0, [1.0, 0, 0])
        with pytest.raises(DomainError):
            reduce(a, a, [0.0, 0.0, 0.0])

    def test_overflowing_mu_is_accuracy_error(self):
        # k0**3 overflows: OverflowError from the power, inf from a product
        for omega0, d in ((1e300, 1.0), (1e100, 1e120)):
            a = TwoLevelAtom(omega0, [d, 0, 0])
            with pytest.raises(AccuracyError, match=re.escape(
                    f"mu is out of floating-point range at omega0={omega0!r}, "
                    f"|d_A|={d!r}, |d_B|={d!r}")):
                reduce(a, a, [0.0, 0.0, 1.0])

    def test_dipole_scaling(self):
        # scaling both dipoles by s multiplies mu by s^2, x unchanged
        a = TwoLevelAtom(2.0, [0.4, 0, 0])
        b = TwoLevelAtom(2.0, [0.0, 0.7, 0])
        s = 3.0
        a2 = TwoLevelAtom(2.0, s * a.dipole)
        b2 = TwoLevelAtom(2.0, s * b.dipole)
        sep = [1.0, 2.0, 2.0]
        cfg = reduce(a, b, sep)
        cfg2 = reduce(a2, b2, sep)
        assert cfg2.mu == pytest.approx(s**2 * cfg.mu, rel=1e-14)
        assert cfg2.x == cfg.x
        assert np.allclose(cfg2.n_a, cfg.n_a)

    def test_reduce_then_unreduce_matches_dimensional_path(self):
        a = TwoLevelAtom(0.5, [0.2, 0.1, 0.0])
        b = TwoLevelAtom(0.5, [0.0, 0.3, 0.1])
        sep = np.array([3.0, -1.0, 2.0])
        cfg = reduce(a, b, sep)
        via_reduction = concurrence_full(cfg).raw
        # dimensional evaluation, spelled out in dimensional quantities
        from vacpair import contracted_tensor
        k0 = a.omega0 / SPEED_OF_LIGHT
        r = np.linalg.norm(sep)
        rhat = sep / r
        na, nb = a.orientation, b.orientation
        t = contracted_tensor(k0 * r, float(na @ nb),
                              float((na @ rhat) * (nb @ rhat)))
        dimensional = (2.0 / (np.pi * a.omega0)  # hbar = 1
                       * a.dipole_magnitude * b.dipole_magnitude * k0**3 * abs(t))
        assert via_reduction == pytest.approx(dimensional, rel=1e-12)


class TestPairConfiguration:
    def test_unit_vector_enforced(self):
        with pytest.raises(DomainError):
            PairConfiguration(x=1.0, n_a=[1, 1, 0], n_b=[1, 0, 0],
                              r_hat=[0, 0, 1], mu=1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_from_alignment(-1.0, 1.0)
        with pytest.raises(DomainError):
            pair_from_alignment(1.0, -1.0)
        # an invariant no pair of unit vectors has names itself
        for a, b, name in ((1.0, 2.0, "proj_product"), (1.0, -1.5, "proj_product"),
                           (1.0, float("nan"), "proj_product"),
                           (float("nan"), 0.0, "cos_ab"), (1.5, 0.0, "cos_ab")):
            with pytest.raises(DomainError, match=name):
                pair_from_alignment(1.0, 1e-4, a, b)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.25),
                                     (0.0, 0.0), (-0.5, 0.2)])
    def test_alignment_helper_realizes_invariants(self, a, b):
        cfg = pair_from_alignment(2.0, 1.0, a, b)
        assert cfg.cos_ab == pytest.approx(a, abs=1e-12)
        assert cfg.proj_product == pytest.approx(b, abs=1e-12)

    def test_invariants_computed_once(self):
        cfg = pair_from_alignment(2.0, 1.0, 0.5, 0.2)
        assert cfg.cos_ab is cfg.cos_ab
        assert cfg.proj_product is cfg.proj_product


class TestPerturbativeValidity:
    def test_weak_coupling_ok(self):
        rep = perturbative_validity(pair_from_alignment(1.0, 1e-4, 1.0, 0.0))
        assert rep.flag is Validity.OK

    def test_near_zone_breakdown(self):
        rep = perturbative_validity(pair_from_alignment(0.01, 1.0, 1.0, 0.0))
        assert rep.flag is Validity.INVALID
        assert rep.margin > 1e5  # ~ mu/x^3

    def test_decoupled(self):
        rep = perturbative_validity(pair_from_alignment(1.0, 0.0, 1.0, 0.0))
        assert rep.flag is Validity.OK
        assert rep.margin == 0.0
