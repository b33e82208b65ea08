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
cancel like s^4, so from s = 4 on the 60-node Gauss-Laguerre rule that aux
sums from x = 4 on takes over (A&S 25.4.45; t = s v): specfun's table of
w t^n over (1 + t^2/s^2)^2, summed, is s^(n+1) I_n, and the integrand's
poles at t = +-i s are far from the nodes.  Against mpmath over 600 x in
[1e-6, 1e12], six geometries and the isotropic average, the worst relative
error is 7.8e-16 from x = 2 on, 1.4e-15 at x = 2 (I_4's truncation at s = 4).
Below, where the I_4 term dominates (|q| << |p|), it peaks just below
s = 4, where I_4 cancels most: 5.0e-14 for q = p/3 and 2.0e-13 for q = 0.

Each term is a float mantissa times a power of two: with x = m 2^k
(np.frexp), x^(n-6) is m^(n-6) 2^((n-6)k), and from s = 4 on every term
shares the one power x^-7.  mu and (p, q) enter as mantissas too, the terms
are scaled to the largest power among them and summed, and np.ldexp applies
the power once at the end.  So no factor on the way leaves the normal range,
and W overflows or underflows only where its value does.

Independent checks re-evaluate J by adaptive quadrature on the rotated
contour (oracle.dispersion_integral_rotated) and on the real wavenumber axis,
indented above the resonance pole by a small arc
(oracle.dispersion_integral_real_axis).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import specfun
from ._record import Record
from .errors import DomainError
from .kernel import _aux_columns, per_x, power_law
from .model import PairConfiguration


class PotentialResult(Record):
    """Interaction energy of one configuration, in units of hbar omega0, one
    value per x: floats for a float x, arrays for an array x."""

    energy: float | np.ndarray
    abs_err_est: float | np.ndarray


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


def _terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms I_n(2x) x^(n-6), n = 0..4, at every x as a 2^e: an array of
    shape (5, 2, x.size) of the mantissas a and bounds on their errors, and
    one of shape (5, x.size) of the integer exponents e.  Every a is positive.

    With x = m 2^k (np.frexp), below specfun's series/Gauss-Laguerre seam
    the moments follow exactly from f and g at s = 2x (kernel._aux_columns),
    and x^(n-6) = m^(n-6) 2^((n-6)k).  From x = 2 on row n of specfun's table
    gives s^(n+1) I_n = sum w t^n / (1 + t^2/s^2)^2, which no x can
    underflow, so each term is that sum times 2^-(n+1) m^-7 2^(-7k).
    """
    m, k = np.frexp(x)
    s = 2.0 * x
    rows = np.empty((5, 2, x.size))
    low = s < specfun._BRANCH_CUTOVER
    powers = np.where(low, np.arange(-6, -1)[:, None], -7)
    if np.count_nonzero(low):
        s_low = s[low]
        f, g, _, _, aux_err = _aux_columns(s_low)
        i0 = 0.5 * (f + s_low * g)
        i1 = 0.5 * (1.0 - s_low * f)
        rows[:, 0, low] = i0, i1, f - i0, g - i1, 1.0 / s_low - 2.0 * f + i0
        # aux's error in f and g enters each moment with a weight of at most
        # (5 + s)/2; the rounding is a few ulps of its terms before they cancel
        m1 = 0.5 * (1.0 + s_low * f)
        magnitudes = np.array((i0, m1, f + i0, g + m1, 1.0 / s_low + 2.0 * f + i0))
        rows[:, 1, low] = 0.5 * (5.0 + s_low) * aux_err + 4.0 * _EPS * magnitudes
    high = ~low
    if np.count_nonzero(high):
        v = specfun._NODES / s[high, None]
        weight = (1.0 + v * v) ** 2
        # one table row at a time, no (x, 5, 60) array; elementwise quotients
        # summed along each row, so that a row's sums do not depend on how
        # many rows share the call, as a matrix product's can
        for n, wt in enumerate(specfun._WEIGHTED_POWERS):
            rows[n, 0, high] = np.ldexp((wt / weight).sum(axis=-1), -n - 1)
        rows[:, 1, high] = specfun._LAGUERRE_REL_ERR * rows[:, 0, high]
    rows *= (m ** powers)[:, None]
    return rows, powers * k


@per_x
def wcp(cfg: PairConfiguration, method: str = "rotated_contour",
        isotropic: bool = False) -> PotentialResult:
    """Casimir-Polder energy of the configured pair, one value per x.

    method "rotated_contour" is the production path: the closed form of the
    imaginary-wavenumber integral through the moments I_n (module
    docstring), reduced to f and g below x = 2 and by Gauss-Laguerre from
    x = 2 on; its worst measured relative error is 1.4e-15 for x in
    [2, 1e12], and 2.0e-13 below, for q = 0.  abs_err_est carries aux's
    error through the reduction, or the rule's stated bound of 4e-15 per
    moment, plus the rounding, which below the normal range is a few of the
    floats' spacings there.
    "principal_value_oracle" evaluates the equivalent real-axis integral, on
    a contour indented above the resonance pole, as an independent check
    (relative 1e-6 up to x = 50); another method raises DomainError.
    isotropic=True uses rotationally averaged polarizabilities instead of
    the fixed dipole orientations.  The energy is in units of hbar omega0;
    where it is not finite, per_x raises AccuracyError.
    """
    if method not in ("rotated_contour", "principal_value_oracle"):
        raise DomainError(f"unknown method {method!r}")
    # mu and (p, q) as mantissas and powers of two (math.frexp), and W as a
    # value times 2^exponent, applied once at the end
    mantissa, exponent = math.frexp(cfg.mu)
    prefactor = -(2.0 / np.pi) * (mantissa * mantissa)
    weight, channels = _channels(cfg, isotropic)
    largest, pq_exponent = math.frexp(max(abs(v) for _, p, q in channels for v in (p, q)))
    exponent *= 2
    # the floats' spacing below the normal range, where W is not exactly 0
    spacing = math.ulp(0.0) if mantissa and largest else 0.0
    if method == "rotated_contour":
        channels = [(w, math.ldexp(p, -pq_exponent), math.ldexp(q, -pq_exponent))
                    for w, p, q in channels]
        coeffs = _channel_sum(prefactor * weight, channels)
        sizes = _channel_sum(abs(prefactor * weight),
                             [(w, abs(p), abs(q)) for w, p, q in channels])
        rows, exponents = _terms(cfg.x)
        # every term scaled to the largest power among those that enter: a
        # zero coefficient's term may lie above it, and is kept finite there
        # (0 * inf is nan)
        enter = [n for n, c in enumerate(coeffs) if c]
        top = exponents[enter].max(axis=0) if enter else 0
        rows[:, 1] += 8.0 * _EPS * rows[:, 0]  # its coefficient, product and sum
        rows = np.ldexp(rows, np.minimum(exponents - top, 0)[:, None])
        # summed elementwise, so that a row's sums do not depend on how many
        # rows share the call
        energy, err = sum(rows * np.array((coeffs, sizes)).T[..., None])
        # below the normal range each of the 5 terms, shifted and multiplied
        # by a coefficient of at most 2, errs by up to 1.5 spacings, and as
        # much again in the bound's own row: under 16 in all
        err = err + 16 * spacing
        exponent = exponent + 2 * pq_exponent + top
    else:
        from . import oracle  # loaded only for this independent check

        # one call per channel over every x
        reps = [(w, oracle.dispersion_integral_real_axis(cfg.x, p, q)) for w, p, q in channels]
        energy = prefactor * (weight * sum(w * rep.value for w, rep in reps))
        err = abs(prefactor) * (weight * sum(w * rep.abs_err_est for w, rep in reps))
    # W and its bound each round by less than a spacing below the normal range
    return PotentialResult(energy=np.ldexp(energy, exponent),
                           abs_err_est=np.ldexp(err, exponent) + 2 * spacing)


@per_x
def vdw_near(cfg: PairConfiguration) -> PotentialResult:
    """Electrostatic (London) limit of the pair energy, one value per x.

    Second-order perturbation theory on the static dipole-dipole coupling
    V = d_A d_B (n_a.n_b - 3 (n_a.r)(n_b.r)) / R^3 through the single
    doubly-excited intermediate state at energy 2 hbar omega0 gives
    W = -V^2 / (2 hbar omega0), i.e. -(mu^2 kappa^2 / 2) hbar omega0 / x^6
    in reduced variables.  As in wcp, mu, kappa and x enter as mantissas and
    one power of two (kernel.power_law), so W leaves the floats' range only
    where its value does; abs_err_est holds its roundings, kappa's and the
    power's among them, and below the normal range a spacing of the floats.
    """
    kappa = _orientation_pq(cfg)[1]
    energy = power_law((-0.5, cfg.mu, kappa, cfg.mu, kappa), cfg.x, 6)
    spacing = math.ulp(0.0) if cfg.mu and kappa else 0.0
    return PotentialResult(energy=energy, abs_err_est=4.0 * _EPS * abs(energy) + spacing)


class PowerLawFit(Record):
    slope: float
    stderr: float


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
    return PowerLawFit(slope=float(slope), stderr=stderr)
