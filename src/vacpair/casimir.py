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

P is a polynomial in v, so J(x) = sum_n c_n I_n(2x) / x^(6-n) in closed form
with the moments

    I_n(s) = int_0^inf v^n exp(-s v) / (1 + v^2)^2 dv,   n = 0..4.

Below s = 4 they reduce exactly to the auxiliary functions f, g at s
(DLMF 6.2; differentiate int exp(-s v)/(a + v^2) dv with respect to a):

    I_0 = (f + s g)/2,  I_1 = (1 - s f)/2,  I_2 = f - I_0,
    I_3 = g - I_1,      I_4 = 1/s - 2 f + I_0,

which specfun.aux evaluates on its power-series branch.  The subtractions
cancel like s^4, so from s = 4 on a 60-node Gauss-Laguerre rule in t = s v
(A&S 25.4.45) takes over: the integrand's poles at t = +-i s are far from
its nodes there.  Against 120-digit mpmath over 300 log-spaced x in
[1e-6, 1e12], three random geometries and the isotropic average, the worst
relative error is 2.2e-14.  The sum is formed by Horner's rule in 1/x, so
no power of x is formed and W overflows only where its value does.

Independent checks re-evaluate J by adaptive quadrature on the rotated
contour (oracle.dispersion_integral_rotated) and on the real wavenumber axis
through the resonance pole (oracle.dispersion_integral_real_axis).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import AccuracyError, DomainError
from .model import PairConfiguration


class PotentialMethod(enum.Enum):
    ROTATED_CONTOUR = "rotated_contour"
    PRINCIPAL_VALUE_ORACLE = "principal_value_oracle"


@dataclass(frozen=True)
class PotentialResult:
    """Interaction energy at one separation.

    r is the dimensionless separation x = k0 R; energy is in units of
    hbar omega0.
    """

    r: float
    energy: float
    abs_err_est: float


def _orientation_pq(cfg: PairConfiguration) -> tuple[float, float]:
    a, b = cfg.cos_ab, cfg.proj_product
    # q correctly rounded: a - 3b can cancel, and 3b alone would round
    return a - b, math.fsum((a, -b, -b, -b))


def _pattern_coefficients(p: float, q: float) -> tuple[float, ...]:
    """Coefficients of v^6 M(vx)^2 as a polynomial in v (powers 0 up to 4),
    before the 1/x^(6-n) scaling."""
    return (q * q, 2 * q * q, q * q + 2 * p * q, 2 * p * q, p * p)


def _channel_sum(scale: float, channels) -> list[float]:
    """scale * sum over (w, p, q) of w * _pattern_coefficients(p, q)."""
    total = [0.0] * 5
    for w, p, q in channels:
        total = [t + w * c for t, c in zip(total, _pattern_coefficients(p, q))]
    return [scale * t for t in total]


def _channels(cfg: PairConfiguration, isotropic: bool):
    """The overall weight and the (weight, p, q) channels summed under it."""
    if isotropic:
        # rotational average: 2 transverse channels (p = q = 1) and one
        # longitudinal (p = 0, q = -2), each polarizability carrying a 1/3
        return 1.0 / 9.0, ((2.0, 1.0, 1.0), (1.0, 0.0, -2.0))
    return 1.0, ((1.0, *_orientation_pq(cfg)),)


_EPS = sys.float_info.epsilon
# worst relative error of the 60-node Laguerre moments against 120-digit
# mpmath on 400 log-spaced s in [4, 1e13], half of them in [4, 8], is 3.7e-14
# (node and weight rounding; the truncation error is smaller); the stated
# bound keeps a factor 2.7 over it
_LAGUERRE_REL_ERR = 1e-13


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(60)


def _moments(s: float) -> tuple[list[float], list[float]]:
    """I_n(s) = int_0^inf v^n exp(-s v)/(1+v^2)^2 dv for n = 0..4, and error bounds.

    Below the specfun series/continued-fraction seam the moments follow
    exactly from f and g at s; above it from the Gauss-Laguerre rule in
    t = s v.  Every moment is positive.
    """
    if s < specfun._BRANCH_CUTOVER:
        fg = specfun.aux(s)
        f, g = fg.f, fg.g
        i0 = 0.5 * (f + s * g)
        i1 = 0.5 * (1.0 - s * f)
        moments = [i0, i1, f - i0, g - i1, 1.0 / s - 2.0 * f + i0]
        # aux's error in f and g enters each moment with a weight of at most
        # (5 + s)/2; the rounding is a few ulps of its terms before they cancel
        m1 = 0.5 * (1.0 + s * f)
        magnitudes = [i0, m1, f + i0, g + m1, 1.0 / s + 2.0 * f + i0]
        return moments, [0.5 * (5.0 + s) * fg.abs_err_est + 4.0 * _EPS * m
                         for m in magnitudes]
    t, w = _laguerre_rule()
    v = t / s
    weights = w / (s * (1.0 + v * v) ** 2)
    moments = (np.vander(v, 5, increasing=True).T @ weights).tolist()
    return moments, [_LAGUERRE_REL_ERR * m for m in moments]


def _radial_integral(x: float, coeffs: list[float],
                     sizes: list[float]) -> tuple[float, float]:
    """sum_n coeffs[n] I_n(2x) / x^(6-n) and a bound on its error.

    Horner in 1/x, so no power of x is formed and the sum overflows only
    when its value does.  sizes[n] >= |coeffs[n]| bounds the terms the
    coefficient was summed from, for the rounding made in forming it.
    """
    moments, errors = _moments(2.0 * x)
    u = 1.0 / x
    total = err = 0.0
    for c, size, i_n, e_n in zip(coeffs, sizes, moments, errors):
        total = total * u + c * i_n
        err = err * u + size * (e_n + 8.0 * _EPS * i_n)
    return total * u * u, err * u * u


def wcp(cfg: PairConfiguration, method: str | PotentialMethod = "rotated_contour",
        isotropic: bool = False) -> PotentialResult:
    """Casimir-Polder energy of the configured pair.

    method "rotated_contour" is the production path: the closed form of the
    imaginary-wavenumber integral through the moments I_n (module
    docstring), reduced to f and g below x = 2 and by Gauss-Laguerre from
    x = 2 on; its worst measured relative error is 2.2e-14 for x in
    [1e-6, 1e12].  abs_err_est carries aux's error through the reduction,
    or the rule's stated bound of 1e-13 per moment, plus the rounding.
    "principal_value_oracle" evaluates the equivalent real-axis finite-part
    integral as an independent check.  isotropic=True uses rotationally
    averaged polarizabilities instead of the fixed dipole orientations.
    The energy is in units of hbar omega0; AccuracyError is raised where it
    overflows the floating-point range.
    """
    method = PotentialMethod(method)
    prefactor = -(2.0 / np.pi) * cfg.mu**2
    weight, channels = _channels(cfg, isotropic)
    if method is PotentialMethod.ROTATED_CONTOUR:
        # the prefactor goes in before the 1/x^(6-n) scaling, so W stays finite
        # wherever it is representable
        scale = prefactor * weight
        sizes = _channel_sum(abs(scale), [(w, abs(p), abs(q)) for w, p, q in channels])
        energy, err = _radial_integral(cfg.x, _channel_sum(scale, channels), sizes)
    else:
        from . import oracle  # loaded only for this independent check

        reps = [(w, oracle.dispersion_integral_real_axis(cfg.x, p, q))
                for w, p, q in channels]
        energy = prefactor * (weight * sum(w * rep.value for w, rep in reps))
        err = abs(prefactor) * (weight * sum(w * rep.abs_err_est for w, rep in reps))
    if not math.isfinite(energy):
        raise AccuracyError(f"wcp: the energy overflows at x={cfg.x!r}")
    return PotentialResult(r=cfg.x, energy=energy, abs_err_est=err)


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
    return PotentialResult(r=cfg.x, energy=energy, abs_err_est=0.0)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    stderr: float
    n_points: int


def fit_powerlaw(curve, window: tuple[float, float]) -> PowerLawFit:
    """Least-squares slope of log|value| against log r inside a window.

    curve is a sequence of (r, value) pairs.  All windowed values must be
    finite, share one sign and be nonzero, otherwise a power law does not
    apply and a DomainError is raised; fewer than 5 points in the window is
    likewise an error.
    """
    pts = np.asarray(list(curve), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("curve must be a sequence of (r, value) pairs")
    lo, hi = window
    sel = pts[(pts[:, 0] >= lo) & (pts[:, 0] <= hi)]
    if len(sel) < 5:
        raise DomainError(f"need at least 5 points in window, got {len(sel)}")
    if not np.all(np.isfinite(sel)):
        raise DomainError("r and value must be finite inside the window")
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
