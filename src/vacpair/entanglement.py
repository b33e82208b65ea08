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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
# contracted_tensor and perturbative_validity are bound here for perfbench's
# span tracer, which wraps them
from .kernel import checked_power, contracted_tensor, cross_coherence_kernel, per_x
from .model import (PairConfiguration, Validity, ValidityReport, amplitude_c_ee,
                    perturbative_validity)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)
# the entries an X state leaves empty: all but the main and the anti diagonal
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _per_state(values: np.ndarray):
    """values over a stack of states; one state gives a Python scalar."""
    return values.item() if values.ndim == 0 else values


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """4x4 density matrix of the atom pair in the (ee, eg, ge, gg) basis, or a
    stack of them with shape (..., 4, 4); every check holds for each one."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2:] != (4, 4):
            raise DomainError(f"density matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("density matrix must be finite")
        if np.abs(m - m.conj().swapaxes(-1, -2)).max() > 1e-12:
            raise DomainError("density matrix must be Hermitian to 1e-12")
        if np.abs(m.trace(axis1=-2, axis2=-1).real - 1.0).max() > 1e-12:
            raise DomainError("density matrix must have unit trace to 1e-12")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise DomainError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def is_x_structured(self):
        """True when only the main and anti diagonal carry weight; one bool
        per state of a stack."""
        off = np.abs(self.matrix[..., _OFF_X]).sum(axis=-1)
        return _per_state(off < 1e-12)


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
    """Concurrence with its weak-coupling validity flag, one value per x.

    value is raw clamped to [0, 1]; raw is preserved so a perturbative
    breakdown stays visible.
    """

    raw: float | np.ndarray
    value: float | np.ndarray
    validity: ValidityReport


def _result(raw: np.ndarray, validity: ValidityReport) -> ConcurrenceResult:
    return ConcurrenceResult(raw=raw, value=np.minimum(np.maximum(raw, 0.0), 1.0),
                             validity=validity)


@per_x
def concurrence_full(cfg: PairConfiguration) -> ConcurrenceResult:
    """Vacuum-induced concurrence C = 2 |c_ee|, valid at any separation."""
    return _result(cfg._validity.margin, cfg._validity)  # its margin is this concurrence


@per_x
def concurrence_near(cfg: PairConfiguration) -> ConcurrenceResult:
    """Near-zone law mu |n_a.n_b - 3 (n_a.r)(n_b.r)| / x^3 (for x << 1)."""
    raw = cfg.mu * abs(cfg.cos_ab - 3.0 * cfg.proj_product) / checked_power(cfg.x, 3)
    return _result(raw, cfg._validity)


@per_x
def concurrence_far(cfg: PairConfiguration) -> ConcurrenceResult:
    """Far-zone law (8 mu / pi) |n_a.n_b - 2 (n_a.r)(n_b.r)| / x^4 (for x >> 1)."""
    raw = ((8.0 * cfg.mu / np.pi) * abs(cfg.cos_ab - 2.0 * cfg.proj_product)
           / checked_power(cfg.x, 4))
    return _result(raw, cfg._validity)


# ---------------------------------------------------------------------------
# General two-qubit measures
# ---------------------------------------------------------------------------

def _xstate_concurrence(m: np.ndarray) -> np.ndarray:
    d = m.diagonal(axis1=-2, axis2=-1).real
    anti = m[..., [0, 1], [3, 2]]  # rho_ee,gg and rho_eg,ge
    # hypot gives |z| to within half an ulp, which numpy's complex abs does not
    c = (np.hypot(anti.real, anti.imag)
         - np.sqrt(np.maximum(0.0, d[..., [1, 0]] * d[..., [2, 3]])))
    return np.maximum(0.0, 2.0 * c.max(axis=-1))


def _general_concurrence(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    a = np.linalg.svd(root @ _SY_SY @ root.conj(), compute_uv=False)
    return np.maximum(0.0, a[..., 0] - a[..., 1] - a[..., 2] - a[..., 3])


def wootters_concurrence(state: TwoQubitState | np.ndarray, method: str = "auto"):
    """Concurrence of a two-qubit density matrix, or of each in a stack.

    C = max(0, a1 - a2 - a3 - a4) where the a_i are the decreasingly ordered
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    method: "auto" takes the closed form for each X-structured state and
    the general path for the others; "xstate" and "general" force one path.
    The general path computes the a_i as the singular values of
    sqrt(rho) (sy x sy) sqrt(rho*), which carries no square-root error
    amplification when an eigenvalue of the product is close to zero;
    sqrt(rho*) is conj(sqrt(rho)) since rho is Hermitian.

    Both paths work over the last two axes, so a (..., 4, 4) stack costs
    one batched LAPACK call per step and gives an array of shape (...);
    a single 4x4 matrix gives a Python float.
    """
    if not isinstance(state, TwoQubitState):
        state = TwoQubitState(np.asarray(state))
    if method not in ("auto", "xstate", "general"):
        raise DomainError(f"unknown method {method!r}")
    m = state.matrix
    closed = np.asarray(state.is_x_structured() if method == "auto"
                        else method == "xstate")
    if closed.all():
        c = _xstate_concurrence(m)
    elif not closed.any():
        c = _general_concurrence(m)
    else:  # a stack with states of both kinds
        c = np.where(closed, _xstate_concurrence(m), _general_concurrence(m))
    return _per_state(c)


@per_x  # log2(0) in the branches np.where discards is no warning
def entanglement_of_formation(c):
    """Entanglement of formation of a two-qubit state with concurrence c,
    a float or a 1-d array; one value per c.

    E_F = H((1 + sqrt(1 - c^2))/2) with H the binary entropy in bits;
    monotone increasing on [0, 1] with E_F(0) = 0 and E_F(1) = 1.
    """
    bad = ~((c >= 0.0) & (c <= 1.0))  # NaN too; inf lies outside
    if np.count_nonzero(bad):
        raise DomainError(f"concurrence must lie in [0, 1], got {c[bad][0]}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    entropy = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x >= 1.0, 0.0, np.where(x <= 0.5, 1.0, entropy))


# ---------------------------------------------------------------------------
# Spin-correlator (Palma) form
# ---------------------------------------------------------------------------

@functools.cache
def _correlator_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_i x sigma_j for i, j in (x, y, z), then sigma_z x 1 and 1 x sigma_z."""
    paulis = (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)
    eye = np.eye(2, dtype=complex)
    operators = (np.array([[np.kron(si, sj) for sj in paulis] for si in paulis]),
                 np.kron(_SIGMA_Z, eye), np.kron(eye, _SIGMA_Z))
    for a in operators:
        a.setflags(write=False)  # shared by every caller
    return operators


def correlators_from_state(state: TwoQubitState) -> SpinCorrelators:
    """Extract <S_i^A S_j^B>, <S_z^A + S_z^B>/2 and <S_z^A - S_z^B>."""
    m = state.matrix
    if m.ndim != 2:
        raise DomainError(f"correlators take one 4x4 state, got a stack {m.shape}")
    pairs, z_a, z_b = _correlator_operators()
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            g[i, j] = 0.25 * np.trace(m @ pairs[i, j]).real
    sz_a = 0.5 * np.trace(m @ z_a).real
    sz_b = 0.5 * np.trace(m @ z_b).real
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


def _one_state(cfg: PairConfiguration, name: str) -> None:
    if np.ndim(cfg.x):
        raise DomainError(f"{name} describes one state and takes a float x, "
                          f"got an array of {np.size(cfg.x)}")


@per_x
def cross_coherence(cfg: PairConfiguration):
    """Finite cross term X = sum_k c_eg,k c*_ge,k = mu (3 T + x T') / pi,
    one value per x."""
    return cfg.mu * cross_coherence_kernel(cfg.x, cfg.cos_ab, cfg.proj_product)


def c1_c2_from_amplitudes(cfg: PairConfiguration,
                          cutoff: float) -> tuple[float, float]:
    """The two competing concurrence branches before renormalization.

    c1 = |c_ee| - sqrt(L_A L_B) and c2 = |X| - sqrt(P_ee P_gg), with the
    local one-photon populations L_A = L_B = mu L(cutoff) regularized at
    k = cutoff * k0 and P_ee = |c_ee|^2 + L_A L_B + X^2 (the two-photon
    population), P_gg = 1.  c2 is negative by construction, and c1 + mu L
    is |c_ee|, the amplitude behind C = 2 |c_ee|.  The root is a hypot, so
    c2 stays finite wherever its value does; where mu L or the root
    overflows, AccuracyError is raised.  It describes one state, so cfg's x
    must be a float.
    """
    _one_state(cfg, "c1_c2_from_amplitudes")
    with np.errstate(over="ignore"):  # an overflow raises below
        local = cfg.mu * regularized_local_population(cutoff)  # checks the cutoff
    cee = amplitude_c_ee(cfg)
    x_coh = cross_coherence(cfg)
    c1 = abs(cee) - local
    c2 = abs(x_coh) - math.hypot(cee, local, x_coh)
    if not math.isfinite(c2):  # so c1 is finite too
        raise AccuracyError(f"c1_c2_from_amplitudes: out of floating-point range "
                            f"at mu={cfg.mu!r}, cutoff={cutoff!r}")
    return float(c1), float(c2)


def effective_density_matrix(cfg: PairConfiguration) -> TwoQubitState:
    """Pure effective state (|gg> + c_ee |ee>)/sqrt(1 + c_ee^2).

    This is the near-zone description with the local dressing terms dropped:
    the field degrees of freedom are eliminated and the pair is left in a
    pure superposition, so rho^2 = rho exactly.  cfg's x must be a float.
    """
    _one_state(cfg, "effective_density_matrix")
    column = cfg.column  # caches c_ee and its validity report, so c_ee is made once
    if column._validity.flag[0] is Validity.INVALID:
        raise DomainError(
            f"effective state undefined outside the weak-coupling regime "
            f"(margin {column._validity.margin[0]:.3g})")
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    psi[0] = column._amplitude[0]
    psi /= np.linalg.norm(psi)
    return TwoQubitState(np.outer(psi, psi.conj()))
