"""Tensor machinery: the dipole coupling tensor, the classical oscillating
dipole-dipole potential, the atomic polarizability and the vacuum mode
correlator.

The radial differential operator

    D_mn = (1/R) [ (delta_mn - Rhat_m Rhat_n) d^2/dR^2
                   + (delta_mn - 3 Rhat_m Rhat_n) (1/R^2 - (1/R) d/dR) ]

applied to f(k0 R) defines the dimensionless tensor tau via
D_mn f(k0 R) = k0^3 tau_mn(x) with x = k0 R.  Substituting f' = -g and
f'' = 1/x - f gives the closed forms

    tau_trans(x) = (x - x^2 f + f + x g) / x^3
    tau_long(x)  = -2 (f + x g) / x^3

for the components transverse and longitudinal to Rhat.  The same operator
applied to cos(kR) yields the classical dipole-dipole potential V_lm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .model import SPEED_OF_LIGHT, TwoLevelAtom, _as_unit3, _as_vec3
from .specfun import aux


def tau_components(x: float) -> tuple[float, float]:
    """(tau_trans, tau_long) at dimensionless separation x > 0."""
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    # the transverse pair has cos_ab = 1, proj_product = 0; the longitudinal 1, 1
    return contracted_tensor(x, 1.0, 0.0), contracted_tensor(x, 1.0, 1.0)


@dataclass(frozen=True, eq=False)
class DipoleTensor:
    """Symmetric 3x3 tensor tau_mn(x) for a given separation direction."""

    x: float
    r_hat: np.ndarray
    matrix: np.ndarray
    tau_transverse: float
    tau_longitudinal: float


def dipole_tensor(x: float, r_hat=(0.0, 0.0, 1.0)) -> DipoleTensor:
    """Dimensionless dipole coupling tensor at separation x along r_hat."""
    r = _as_unit3(r_hat, "r_hat")
    tau_t, tau_l = tau_components(x)
    proj = np.outer(r, r)
    m = tau_t * (np.eye(3) - proj) + tau_l * proj
    m.setflags(write=False)
    r.setflags(write=False)
    return DipoleTensor(x=float(x), r_hat=r, matrix=m,
                        tau_transverse=tau_t, tau_longitudinal=tau_l)


def contract(tensor: DipoleTensor, n_a, n_b) -> float:
    """T(x) = sum_mn (n_a)_m tau_mn (n_b)_n; bilinear in both orientations."""
    return float(_as_unit3(n_a, "n_a") @ tensor.matrix @ _as_unit3(n_b, "n_b"))


def contracted_tensor(x: float, cos_ab: float, proj_product: float) -> float:
    """T(x) directly from the orientation invariants.

    cos_ab = n_a.n_b and proj_product = (n_a.r_hat)(n_b.r_hat); equivalent to
    contract(dipole_tensor(x), n_a, n_b) without building the matrix.
    """
    v = aux(x)
    f, g = v.f, v.g
    fpp = 1.0 / x - f
    return ((cos_ab - proj_product) * fpp
            + (cos_ab - 3.0 * proj_product) * (f / x**2 + g / x)) / x


def dipole_potential_matrix(k: float, r_vec) -> np.ndarray:
    """Full 3x3 potential tensor V_lm(k, R) between dipoles oscillating at ck.

    V_lm = k^3 [ (delta_lm - Rhat_l Rhat_m) cos(kR)/(kR)
                 - (delta_lm - 3 Rhat_l Rhat_m) (sin(kR)/(kR)^2 + cos(kR)/(kR)^3) ]
    """
    if not (np.isfinite(k) and k > 0):
        raise DomainError(f"k must be finite and positive, got {k}")
    r = _as_vec3(r_vec, "r_vec")
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        raise DomainError("separation must be nonzero")
    rhat = r / rnorm
    rho = k * rnorm
    a_coef = np.cos(rho) / rho
    b_coef = np.sin(rho) / rho**2 + np.cos(rho) / rho**3
    proj = np.outer(rhat, rhat)
    return k**3 * (a_coef * (np.eye(3) - proj) - b_coef * (np.eye(3) - 3.0 * proj))


def polarizability(k: float, atom: TwoLevelAtom) -> float:
    """Dynamic isotropic polarizability alpha(k) = 2 w0 d^2 / (3 hbar (w0^2 - w_k^2)).

    hbar = 1 in the package's units.  Raises PoleError at the resonance
    w_k = ck = w0; use the imaginary-frequency form for pole-free integrations.
    """
    if not (np.isfinite(k) and k >= 0):
        raise DomainError(f"k must be finite and nonnegative, got {k}")
    w0 = atom.omega0
    wk = SPEED_OF_LIGHT * k
    denom = w0 * w0 - wk * wk
    if abs(denom) < 1e-12 * w0 * w0:
        raise PoleError(f"polarizability pole at ck = omega0 (k = {k})")
    d2 = atom.dipole_magnitude**2
    return 2.0 * w0 * d2 / (3.0 * denom)


def polarizability_imaginary(u: float, atom: TwoLevelAtom) -> float:
    """alpha(i u): the polarizability continued to imaginary wavenumber.

    Positive for all real u, which is what makes rotated-contour dispersion
    integrals well conditioned.
    """
    if not np.isfinite(u):
        raise DomainError(f"u must be finite, got {u}")
    w0 = atom.omega0
    d2 = atom.dipole_magnitude**2
    return 2.0 * w0 * d2 / (3.0 * (w0 * w0 + (SPEED_OF_LIGHT * u) ** 2))


def _polarization_basis(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([0.0, 0.0, 1.0])
    if abs(k_hat @ ref) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(k_hat, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(k_hat, e1)
    return e1, e2


def vacuum_mode_correlator(k_vec, j: int, r_a, r_b) -> np.ndarray:
    """Equal-time field correlator of one vacuum mode, as a 3x3 matrix.

    Entry (m, l) is (2 pi hbar c / V) (e_kj)_m (e_kj)_l k exp(i k.(r_a - r_b))
    for polarization j in {0, 1}, with hbar = 1 and the quantization volume
    V = 1: V is a formal parameter that cancels in mode sums.
    """
    k = _as_vec3(k_vec, "k_vec")
    knorm = float(np.linalg.norm(k))
    if knorm == 0.0:
        raise DomainError("k_vec must be nonzero")
    if j not in (0, 1):
        raise DomainError("polarization index must be 0 or 1")
    ra = _as_vec3(r_a, "r_a")
    rb = _as_vec3(r_b, "r_b")
    e = _polarization_basis(k / knorm)[j]
    phase = np.exp(1j * float(k @ (ra - rb)))
    return 2.0 * np.pi * SPEED_OF_LIGHT * knorm * phase * np.outer(e, e)


# ---------------------------------------------------------------------------
# Polarization-summed, angle-integrated kernel of exp(+-i k.R).
#
# (1/4pi) int dOmega sum_j (e_kj)_m (e_kj)_n exp(i k.R)
#     = delta_mn S1(rho) - Rhat_m Rhat_n S2(rho),   rho = k R,
# with S1 = sin(rho)/rho - sin(rho)/rho^3 + cos(rho)/rho^2 and
# S2 = sin(rho)/rho - 3 sin(rho)/rho^3 + 3 cos(rho)/rho^2.  Power series are
# used below rho = 0.3 where the closed forms cancel catastrophically.
# ---------------------------------------------------------------------------

_RHO_SERIES = 0.3


def angular_kernel(rho):
    """(S1, S2) of the polarization-and-angle integrated mode kernel."""
    rho = np.asarray(rho, dtype=float)
    s1 = np.empty_like(rho)
    s2 = np.empty_like(rho)
    small = np.abs(rho) < _RHO_SERIES
    r2 = rho[small] ** 2
    s1[small] = (2.0 / 3.0 - 2.0 * r2 / 15.0 + r2 * r2 / 140.0
                 - r2**3 / 5670.0 + r2**4 / 399168.0)
    s2[small] = (-r2 / 15.0 + r2 * r2 / 210.0
                 - r2**3 / 7560.0 + r2**4 / 498960.0)
    r = rho[~small]
    s, c = np.sin(r), np.cos(r)
    s1[~small] = s / r - s / r**3 + c / r**2
    s2[~small] = s / r - 3.0 * s / r**3 + 3.0 * c / r**2
    return s1, s2


def angular_kernel_contracted(rho, cos_ab: float, proj_product: float):
    """cos_ab * S1(rho) - proj_product * S2(rho)."""
    s1, s2 = angular_kernel(rho)
    return cos_ab * s1 - proj_product * s2
