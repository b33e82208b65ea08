"""Casimir-Polder interaction energy of the atom pair and power-law fitting.

The energy is evaluated as the radial vacuum-mode integral in reduced
variables,

    W(x) = -(2 mu^2 / pi) * hbar omega0 * J(x),
    J(x) = int_0^inf dv  P(v) exp(-2 v x) / (1 + v^2)^2,

where the contour has been rotated to imaginary wavenumbers so the
polarizability resonance never appears and the integrand decays
exponentially.  P(v) is the square of the orientation-contracted radiation
pattern

    v^6 [p/(vx) + q/(vx)^2 + q/(vx)^3]^2,
    p = n_a.n_b - (n_a.r)(n_b.r),  q = n_a.n_b - 3 (n_a.r)(n_b.r),

for dipoles with fixed orientations; the conventional isotropic form replaces
the orientation tensors by their rotational average (a flag below).  The
x -> 0 limit reproduces the London energy -(mu^2 q^2 / 2) hbar omega0 / x^6
and the x -> infinity tail falls off one power faster (x^-7).

A cross-check path re-evaluates the same integral on the real wavenumber
axis through the resonance pole (see oracle.dispersion_integral_real_axis).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import oracle
from .errors import AccuracyError, DomainError
from .model import PairConfiguration


class PotentialMethod(enum.Enum):
    ROTATED_CONTOUR = "rotated_contour"
    PRINCIPAL_VALUE_ORACLE = "principal_value_oracle"
    NEAR_CLOSED_FORM = "near_closed_form"


@dataclass(frozen=True)
class PotentialResult:
    """Interaction energy at one separation.

    r is the dimensionless separation x = k0 R; energy is in units of
    hbar omega0.
    """

    r: float
    energy: float
    method: PotentialMethod
    abs_err_est: float


def _orientation_pq(cfg: PairConfiguration) -> tuple[float, float]:
    a, b = cfg.cos_ab, cfg.proj_product
    return a - b, a - 3.0 * b


def _pattern_coefficients(p: float, q: float) -> np.ndarray:
    """Coefficients of v^6 M(vx)^2 as a polynomial in v (powers 4 down to 0),
    before the 1/x^k scaling."""
    return np.array([p * p, 2 * p * q, q * q + 2 * p * q, 2 * q * q, q * q])


def _channels(cfg: PairConfiguration, isotropic: bool):
    """The overall weight and the (weight, p, q) channels summed under it."""
    if isotropic:
        # rotational average: 2 transverse channels (p = q = 1) and one
        # longitudinal (p = 0, q = -2), each polarizability carrying a 1/3
        return 1.0 / 9.0, ((2.0, 1.0, 1.0), (1.0, 0.0, -2.0))
    return 1.0, ((1.0, *_orientation_pq(cfg)),)


def _radial_integral(x: float, coeffs: np.ndarray) -> tuple[float, float]:
    scaled = coeffs / x ** np.arange(2, 7)

    def integrand(v):
        return np.polyval(scaled, v) * np.exp(-2.0 * v * x) / (1.0 + v * v) ** 2

    val, err = quad(integrand, 0.0, np.inf, limit=400,
                    epsabs=1e-300, epsrel=1e-11)
    if not np.isfinite(val):
        raise AccuracyError(f"dispersion integral failed at x={x}")
    return val, err


def wcp(cfg: PairConfiguration, method: str | PotentialMethod = "rotated_contour",
        isotropic: bool = False) -> PotentialResult:
    """Casimir-Polder energy of the configured pair.

    method "rotated_contour" is the production path (imaginary-wavenumber
    integral, relative accuracy ~1e-10); "principal_value_oracle" evaluates
    the equivalent real-axis finite-part integral as an independent check.
    isotropic=True uses rotationally averaged polarizabilities instead of the
    fixed dipole orientations.  The energy is in units of hbar omega0.
    """
    method = PotentialMethod(method)
    if method is PotentialMethod.NEAR_CLOSED_FORM:
        return vdw_near(cfg)
    prefactor = -(2.0 / np.pi) * cfg.mu**2
    weight, channels = _channels(cfg, isotropic)
    if method is PotentialMethod.ROTATED_CONTOUR:
        coeffs = sum(w * _pattern_coefficients(p, q) for w, p, q in channels)
        j, err = _radial_integral(cfg.x, weight * coeffs)
    else:
        reps = [(w, oracle.dispersion_integral_real_axis(cfg.x, p, q))
                for w, p, q in channels]
        j = weight * sum(w * rep.value for w, rep in reps)
        err = weight * sum(w * rep.abs_err_est for w, rep in reps)
    return PotentialResult(r=cfg.x, energy=prefactor * j, method=method,
                           abs_err_est=abs(prefactor) * err)


def vdw_near(cfg: PairConfiguration) -> PotentialResult:
    """Electrostatic (London) limit of the pair energy.

    Second-order perturbation theory on the static dipole-dipole coupling
    V = d_A d_B (n_a.n_b - 3 (n_a.r)(n_b.r)) / R^3 through the single
    doubly-excited intermediate state at energy 2 hbar omega0 gives
    W = -V^2 / (2 hbar omega0), i.e. -(mu^2 kappa^2 / 2) hbar omega0 / x^6
    in reduced variables.
    """
    kappa = _orientation_pq(cfg)[1]
    energy = -0.5 * (cfg.mu * kappa) ** 2 / cfg.x**6
    return PotentialResult(r=cfg.x, energy=energy,
                           method=PotentialMethod.NEAR_CLOSED_FORM,
                           abs_err_est=0.0)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    stderr: float
    n_points: int


def fit_powerlaw(curve, window: tuple[float, float]) -> PowerLawFit:
    """Least-squares slope of log|value| against log r inside a window.

    curve is a sequence of (r, value) pairs.  All windowed values must share
    one sign and be nonzero, otherwise a power law does not apply and a
    DomainError is raised; fewer than 5 points in the window is likewise an
    error.
    """
    pts = np.asarray(list(curve), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("curve must be a sequence of (r, value) pairs")
    lo, hi = window
    sel = pts[(pts[:, 0] >= lo) & (pts[:, 0] <= hi)]
    if len(sel) < 5:
        raise DomainError(f"need at least 5 points in window, got {len(sel)}")
    vals = sel[:, 1]
    if np.any(vals == 0.0) or (np.max(vals) > 0) != (np.min(vals) > 0):
        raise DomainError("values change sign or vanish inside the window")
    lx = np.log(sel[:, 0])
    ly = np.log(np.abs(vals))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(sel) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum((lx - lx.mean()) ** 2)))
    return PowerLawFit(slope=float(slope), stderr=stderr, n_points=len(sel))
