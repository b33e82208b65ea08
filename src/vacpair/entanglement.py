"""Entanglement of the dressed two-atom ground state.

Everything here works in the product basis ordered (ee, eg, ge, gg).  The
central quantity is the double-excitation amplitude

    c_ee = -(mu / pi) T(x)

with T(x) the contracted dipole coupling tensor; the concurrence induced by
the vacuum coupling is C = 2 |c_ee|; model defines both, as its
weak-coupling margin is that concurrence.  The general Wootters concurrence,
the entanglement of formation, and the spin-correlator (Palma-form)
concurrence for two-diagonal density matrices are provided for cross
validation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
# contracted_tensor is bound here for perfbench's span tracer, which wraps it
from .kernel import contracted_tensor, cross_coherence_kernel
from .model import (PairConfiguration, Validity, ValidityReport,
                    _validity_from_margin, amplitude_c_ee, concurrence_raw,
                    perturbative_validity)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


class Regime(enum.Enum):
    FULL = "full"
    NEAR = "near"
    FAR = "far"


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """4x4 density matrix of the atom pair in the (ee, eg, ge, gg) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"density matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("density matrix must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise DomainError("density matrix must be Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise DomainError("density matrix must have unit trace to 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise DomainError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def is_x_structured(self) -> bool:
        """True when only the main and anti diagonal carry weight."""
        mask = np.zeros((4, 4), dtype=bool)
        mask[np.arange(4), np.arange(4)] = True
        mask[np.arange(4), 3 - np.arange(4)] = True
        return float(np.abs(self.matrix[~mask]).sum()) < 1e-12


@dataclass(frozen=True, eq=False)
class SpinCorrelators:
    """Two-atom spin expectation values.

    g[i, j] = <S_i^A S_j^B> for i, j in (x, y, z); m_z = <S_z^A + S_z^B>/2;
    delta_s_z = <S_z^A - S_z^B>.  Spin-1/2 convention, eigenvalues +-1/2.
    """

    g: np.ndarray
    m_z: float
    delta_s_z: float

    def __post_init__(self):
        m = np.asarray(self.g, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"correlator matrix must be 3x3, got {m.shape}")
        if np.max(np.abs(m)) > 0.25 + 1e-10:
            raise DomainError("spin-1/2 correlators are bounded by 1/4")
        m.setflags(write=False)
        object.__setattr__(self, "g", m)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence with its regime tag and weak-coupling validity flag.

    value is raw clamped to [0, 1]; raw is preserved so a perturbative
    breakdown stays visible.
    """

    raw: float
    value: float
    regime: Regime
    validity: ValidityReport


def _result(raw: float, regime: Regime, validity: ValidityReport) -> ConcurrenceResult:
    return ConcurrenceResult(raw=raw, value=min(max(raw, 0.0), 1.0),
                             regime=regime, validity=validity)


def concurrence_full(cfg: PairConfiguration) -> ConcurrenceResult:
    """Vacuum-induced concurrence C = 2 |c_ee|, valid at any separation."""
    raw = concurrence_raw(cfg)  # also the validity margin, so classify it here
    return _result(raw, Regime.FULL, _validity_from_margin(raw))


def concurrence_near(cfg: PairConfiguration) -> ConcurrenceResult:
    """Near-zone law mu |n_a.n_b - 3 (n_a.r)(n_b.r)| / x^3 (for x << 1)."""
    raw = cfg.mu * abs(cfg.cos_ab - 3.0 * cfg.proj_product) / cfg.x**3
    return _result(raw, Regime.NEAR, perturbative_validity(cfg))


def concurrence_far(cfg: PairConfiguration) -> ConcurrenceResult:
    """Far-zone law (8 mu / pi) |n_a.n_b - 2 (n_a.r)(n_b.r)| / x^4 (for x >> 1)."""
    raw = (8.0 * cfg.mu / np.pi) * abs(cfg.cos_ab - 2.0 * cfg.proj_product) / cfg.x**4
    return _result(raw, Regime.FAR, perturbative_validity(cfg))


# ---------------------------------------------------------------------------
# General two-qubit measures
# ---------------------------------------------------------------------------

def _xstate_concurrence(m: np.ndarray) -> float:
    c1 = abs(m[0, 3]) - np.sqrt(max(0.0, m[1, 1].real * m[2, 2].real))
    c2 = abs(m[1, 2]) - np.sqrt(max(0.0, m[0, 0].real * m[3, 3].real))
    return float(max(0.0, 2.0 * c1, 2.0 * c2))


def _matrix_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_concurrence(state: TwoQubitState | np.ndarray,
                         method: str = "auto") -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    C = max(0, a1 - a2 - a3 - a4) where the a_i are the decreasingly ordered
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    method: "auto" takes the closed form when the state is X structured and
    the general path otherwise; "xstate" and "general" force one path.  The
    general path computes the a_i as the singular values of
    sqrt(rho) (sy x sy) sqrt(rho*), which carries no square-root error
    amplification when an eigenvalue of the product is close to zero;
    sqrt(rho*) is conj(sqrt(rho)) since rho is Hermitian.
    """
    if not isinstance(state, TwoQubitState):
        state = TwoQubitState(np.asarray(state))
    m = state.matrix
    if method not in ("auto", "xstate", "general"):
        raise DomainError(f"unknown method {method!r}")
    if method == "xstate" or (method == "auto" and state.is_x_structured()):
        return _xstate_concurrence(m)
    root = _matrix_sqrt(m)
    core = root @ _SY_SY @ root.conj()
    a = np.linalg.svd(core, compute_uv=False)
    return float(max(0.0, a[0] - a[1] - a[2] - a[3]))


def entanglement_of_formation(c: float) -> float:
    """Entanglement of formation of a two-qubit state with concurrence c.

    E_F = H((1 + sqrt(1 - c^2))/2) with H the binary entropy in bits;
    monotone increasing on [0, 1] with E_F(0) = 0 and E_F(1) = 1.
    """
    if not (np.isfinite(c) and 0.0 <= c <= 1.0):
        raise DomainError(f"concurrence must lie in [0, 1], got {c}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    if x >= 1.0:
        return 0.0
    if x <= 0.5:
        return 1.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


# ---------------------------------------------------------------------------
# Spin-correlator (Palma) form
# ---------------------------------------------------------------------------

def correlators_from_state(state: TwoQubitState) -> SpinCorrelators:
    """Extract <S_i^A S_j^B>, <S_z^A + S_z^B>/2 and <S_z^A - S_z^B>."""
    m = state.matrix
    paulis = (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)
    eye = np.eye(2, dtype=complex)
    g = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            g[i, j] = 0.25 * np.trace(m @ np.kron(si, sj)).real
    sz_a = 0.5 * np.trace(m @ np.kron(_SIGMA_Z, eye)).real
    sz_b = 0.5 * np.trace(m @ np.kron(eye, _SIGMA_Z)).real
    return SpinCorrelators(g=g, m_z=0.5 * (sz_a + sz_b), delta_s_z=sz_a - sz_b)


def palma_concurrence(corr: SpinCorrelators) -> float:
    """Concurrence from spin correlators, for two-diagonal density matrices.

    C = 2 max(0, C1, C2) with
    C1 = sqrt((g_xx - g_yy)^2 + (g_xy + g_yx)^2) - sqrt((1/4 - g_zz)^2 - (dSz/2)^2)
    C2 = sqrt((g_xx + g_yy)^2 + (g_xy - g_yx)^2) - sqrt((1/4 + g_zz)^2 - Mz^2)

    Both z-axis expectation values enter with the same 1/2 normalization:
    that is what reduces the radicands to the population products
    rho_eg,eg * rho_ge,ge and rho_ee,ee * rho_gg,gg of a two-diagonal state,
    so the expression reproduces the Wootters value exactly on that class.
    A negative radicand means the correlators are inconsistent with such a
    state and raises DomainError.
    """
    g = corr.g
    rad1 = (0.25 - g[2, 2]) ** 2 - (0.5 * corr.delta_s_z) ** 2
    rad2 = (0.25 + g[2, 2]) ** 2 - corr.m_z**2
    if rad1 < -1e-12 or rad2 < -1e-12:
        raise DomainError("inconsistent spin correlators (negative radicand)")
    c1 = np.hypot(g[0, 0] - g[1, 1], g[0, 1] + g[1, 0]) - np.sqrt(max(0.0, rad1))
    c2 = np.hypot(g[0, 0] + g[1, 1], g[0, 1] - g[1, 0]) - np.sqrt(max(0.0, rad2))
    return float(max(0.0, 2.0 * c1, 2.0 * c2))


# ---------------------------------------------------------------------------
# Cutoff-regularized single-photon structure
# ---------------------------------------------------------------------------

def regularized_local_population(cutoff: float) -> float:
    """Closed form of the local one-photon population per unit coupling.

    (2/3pi) * [L^2/2 - 2L + 3 ln(1+L) + 1/(1+L) - 1]: the exact antiderivative
    of the oracle's cutoff integral.  Diverges like cutoff^2, which raises
    AccuracyError where it overflows (cutoff above about 1.3e154).
    """
    if not (np.isfinite(cutoff) and cutoff > 1):
        raise DomainError(f"cutoff must exceed 1, got {cutoff}")
    try:
        ell = (0.5 * float(cutoff)**2 - 2.0 * cutoff + 3.0 * np.log1p(cutoff)
               + 1.0 / (1.0 + cutoff) - 1.0)
    except OverflowError:  # cutoff**2
        raise AccuracyError(f"regularized_local_population: the population is out "
                            f"of floating-point range at cutoff={cutoff!r}") from None
    return 2.0 / (3.0 * np.pi) * ell


def cross_coherence(cfg: PairConfiguration) -> float:
    """Finite cross term X = sum_k c_eg,k c*_ge,k = mu (3 T + x T') / pi."""
    return cfg.mu * cross_coherence_kernel(cfg.x, cfg.cos_ab, cfg.proj_product)


def c1_c2_from_amplitudes(cfg: PairConfiguration, cutoff: float,
                          include_local: bool = True) -> tuple[float, float]:
    """The two competing concurrence branches before renormalization.

    c1 = |c_ee| - sqrt(L_A L_B) and c2 = |X| - sqrt(P_ee P_gg), with the
    local one-photon populations L_i regularized at k = cutoff * k0 and
    P_ee = |c_ee|^2 + L_A L_B + X^2 (the two-photon population), P_gg = 1.
    c2 is negative by construction; c1 reduces to |c_ee| (so C = 2 |c_ee|)
    when the divergent local terms are dropped via include_local=False.
    """
    if not (np.isfinite(cutoff) and cutoff > 1):
        raise DomainError(f"cutoff must exceed 1, got {cutoff}")
    cee = amplitude_c_ee(cfg)
    x_coh = cross_coherence(cfg)
    local = cfg.mu * regularized_local_population(cutoff) if include_local else 0.0
    c1 = abs(cee) - local
    c2 = abs(x_coh) - np.sqrt(cee * cee + local * local + x_coh * x_coh)
    return float(c1), float(c2)


def effective_density_matrix(cfg: PairConfiguration) -> TwoQubitState:
    """Pure effective state (|gg> + c_ee |ee>)/sqrt(1 + c_ee^2).

    This is the near-zone description with the local dressing terms dropped:
    the field degrees of freedom are eliminated and the pair is left in a
    pure superposition, so rho^2 = rho exactly.
    """
    cee = amplitude_c_ee(cfg)
    validity = perturbative_validity(cfg)
    if validity.flag is Validity.INVALID:
        raise DomainError(
            f"effective state undefined outside the weak-coupling regime "
            f"(margin {validity.margin:.3g})")
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    psi[0] = cee
    psi /= np.linalg.norm(psi)
    return TwoQubitState(np.outer(psi, psi.conj()))
