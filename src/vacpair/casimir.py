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
(A&S 25.4.45; numpy's laggauss to the bit, built without numpy.polynomial
by _laguerre_rule) takes over: the integrand's poles at t = +-i s are far
from its nodes there.  Against 120-digit mpmath over 300 log-spaced x in
[1e-6, 1e12], three random geometries and the isotropic average, the worst
relative error is 2.2e-14.  The sum is formed by Horner's rule in 1/x, so
no power of x is formed and W overflows only where its value does; mu and
(p, q) enter as mantissas and powers of two, so no factor loses bits below
the normal range, and the bound counts what the sum's terms lose there.

Independent checks re-evaluate J by adaptive quadrature on the rotated
contour (oracle.dispersion_integral_rotated) and on the real wavenumber axis,
indented above the resonance pole by a small arc
(oracle.dispersion_integral_real_axis).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import specfun
from ._record import Record
from .errors import DomainError
from .kernel import checked_power, per_x
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
# wcp's power of two goes into the Horner sum down to 2^-960: the sum's
# largest coefficient, at least 2^-8 before it, stays 54 bits above subnormal
_EXP_FLOOR = -960
# worst relative error of the 60-node Laguerre moments against 120-digit
# mpmath on 400 log-spaced s in [4, 1e13], half of them in [4, 8], is 3.7e-14
# (node and weight rounding; the truncation error is smaller); the stated
# bound keeps a factor 2.7 over it
_LAGUERRE_REL_ERR = 1e-13


def _laguerre_series(t: np.ndarray, c: list[float]) -> np.ndarray:
    """sum_k c[k] L_k(t) by the Clenshaw recurrence of numpy's lagval."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - (c1 * (nd - 1)) / nd, c0 + (c1 * ((2 * nd - 1) - t)) / nd
    return c0 + c1 * (1 - t)


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 60-point Gauss-Laguerre rule (A&S 25.4.45), by numpy's laggauss
    steps: eigenvalues of the symmetric companion matrix, one Newton step
    (L_60' = -sum_{k<60} L_k), weights 1/(L_59 L_60') from max-scaled
    factors, normalised.  It matches numpy's rule bit for bit, which the
    errors quoted above and every printed energy were measured with; a rule
    as accurate but rounded otherwise (Golub-Welsch) would move them.
    """
    n = 60
    k = np.arange(1.0, n)
    t = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) - np.diag(k, 1) - np.diag(k, -1))
    c = [0.0] * n + [1.0]
    dy, df = _laguerre_series(t, c), _laguerre_series(t, [-1.0] * n)
    t -= dy / df
    fm = _laguerre_series(t, c[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w /= w.sum()
    for a in (t, w):
        a.setflags(write=False)  # shared by every caller
    return t, w


def _moments(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I_n(s) = int_0^inf v^n exp(-s v)/(1+v^2)^2 dv for n = 0..4, and error
    bounds, at every s: two arrays of shape (5, s.size).

    Below the specfun series/continued-fraction seam the moments follow
    exactly from f and g at s; above it from the Gauss-Laguerre rule in
    t = s v.  Every moment is positive.
    """
    moments, errors = np.empty((5, s.size)), np.empty((5, s.size))
    low = s < specfun._BRANCH_CUTOVER
    if np.count_nonzero(low):
        s_low = s[low]
        fg = [specfun.aux(v) for v in s_low.tolist()]
        f, g, aux_err = np.array([(v.f, v.g, v.abs_err_est) for v in fg]).T
        i0 = 0.5 * (f + s_low * g)
        i1 = 0.5 * (1.0 - s_low * f)
        moments[:, low] = i0, i1, f - i0, g - i1, 1.0 / s_low - 2.0 * f + i0
        # aux's error in f and g enters each moment with a weight of at most
        # (5 + s)/2; the rounding is a few ulps of its terms before they cancel
        m1 = 0.5 * (1.0 + s_low * f)
        magnitudes = np.array((i0, m1, f + i0, g + m1, 1.0 / s_low + 2.0 * f + i0))
        errors[:, low] = 0.5 * (5.0 + s_low) * aux_err + 4.0 * _EPS * magnitudes
    high = ~low
    if np.count_nonzero(high):
        t, w = _laguerre_rule()
        s_high = s[high, None]
        v = t / s_high
        term = w / (s_high * (1.0 + v * v) ** 2)
        # elementwise products summed along each row, so that a row's sums do
        # not depend on how many rows share the call, as a matrix product's can
        for n in range(5):
            moments[n, high] = term.sum(axis=-1)
            term *= v
        errors[:, high] = _LAGUERRE_REL_ERR * moments[:, high]
    return moments, errors


def _radial_integral(x: np.ndarray, coeffs: list, sizes: list,
                     floor: float | np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] I_n(2x) / x^(6-n) at every x, and a bound on its error.

    Horner in 1/x, so no power of x is formed and the sum overflows only
    when its value does.  sizes[n] >= |coeffs[n]| bounds the terms the
    coefficient was summed from, for the rounding made in forming it; each
    coefficient and size is a float or an array of one per x.  floor bounds
    the rounding below the normal range in each coefficient, term and Horner
    step, per unit of 1 + I_n, where no share of a size bounds it.
    """
    moments, errors = _moments(2.0 * x)
    # the sum's terms and their error bounds, shape (5, 2, x.size), so that
    # one Horner step advances both
    terms = np.stack((np.array(coeffs).reshape(5, -1) * moments,
                      np.array(sizes).reshape(5, -1) * (errors + 8.0 * _EPS * moments)
                      + floor * (moments + 1.0)), axis=1)
    u = 1.0 / x
    total = 0.0
    for term in terms:
        total = total * u + term
    return total * u * u  # its two rows: the sum and its error bound


@per_x
def wcp(cfg: PairConfiguration, method: str = "rotated_contour",
        isotropic: bool = False) -> PotentialResult:
    """Casimir-Polder energy of the configured pair, one value per x.

    method "rotated_contour" is the production path: the closed form of the
    imaginary-wavenumber integral through the moments I_n (module
    docstring), reduced to f and g below x = 2 and by Gauss-Laguerre from
    x = 2 on; its worst measured relative error is 2.2e-14 for x in
    [1e-6, 1e12].  abs_err_est carries aux's error through the reduction,
    or the rule's stated bound of 1e-13 per moment, plus the rounding, which
    below the normal range is a share of the floats' spacing there.
    "principal_value_oracle" evaluates the equivalent real-axis integral, on
    a contour indented above the resonance pole, as an independent check
    (relative 1e-6 up to x = 50); another method raises DomainError.
    isotropic=True uses rotationally averaged polarizabilities instead of
    the fixed dipole orientations.  The energy is in units of hbar omega0;
    where it or its bound is not finite, per_x raises AccuracyError.  The
    bound overflows where the sum's terms fall below the floats' range, as
    for mu = 1e-206 at x = 1e-120.
    """
    if method not in ("rotated_contour", "principal_value_oracle"):
        raise DomainError(f"unknown method {method!r}")
    # mu and (p, q) as mantissas and powers of two (math.frexp), and W as a
    # value times 2^exponent, which is exact wherever W is normal
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
        exponent += 2 * pq_exponent
        # the part of the power that goes in before the 1/x^(6-n) scaling:
        # all of it up to 2^1000, so that no coefficient overflows, and at
        # least 2^_EXP_FLOOR, which keeps the sum's terms normal, unless
        # x = m 2^e < 1, where the normalised terms sum to under 2^(11 - 6e)
        # and 2^before times that must stay under 2^1011.  The rest, applied
        # after, grows the sum only where all of it fits and otherwise
        # shrinks it: W overflows only where its value does
        before = min(exponent, 1000)
        if before < _EXP_FLOOR:  # an array only here, so a float call stays scalar
            room = 1000 + 6 * np.minimum(0, np.frexp(cfg.x)[1])
            before = np.maximum(before, np.minimum(_EXP_FLOOR, room))
        scale = np.ldexp(prefactor * weight, before)
        exponent = exponent - before
        sizes = _channel_sum(abs(scale), [(w, abs(p), abs(q)) for w, p, q in channels])
        # below the normal range a rounding errs by up to half a spacing
        # rather than a share of its size: in each coefficient up to
        # 1 + 11 |scale| of them (the pattern products and the scaling), 3 in
        # its term and Horner step, 1 + 1/x in the last two products, and as
        # many again in the bound's own row
        floor = (4.0 + 11.0 * abs(scale)) * spacing
        energy, err = _radial_integral(cfg.x, _channel_sum(scale, channels), sizes, floor)
        err = err + 2 * spacing
    else:
        from . import oracle  # loaded only for this independent check

        # one call per channel over every x
        reps = [(w, oracle.dispersion_integral_real_axis(cfg.x, p, q)) for w, p, q in channels]
        energy = prefactor * (weight * sum(w * rep.value for w, rep in reps))
        err = abs(prefactor) * (weight * sum(w * rep.abs_err_est for w, rep in reps))
    if np.count_nonzero(exponent):
        energy, err = np.ldexp(energy, exponent), np.ldexp(err, exponent)
    below = abs(energy) < sys.float_info.min
    if np.count_nonzero(below):
        # W and its bound each round by less than a spacing there
        err = err + 2 * spacing * below
    return PotentialResult(energy=energy, abs_err_est=err)


@per_x
def vdw_near(cfg: PairConfiguration) -> PotentialResult:
    """Electrostatic (London) limit of the pair energy, one value per x.

    Second-order perturbation theory on the static dipole-dipole coupling
    V = d_A d_B (n_a.n_b - 3 (n_a.r)(n_b.r)) / R^3 through the single
    doubly-excited intermediate state at energy 2 hbar omega0 gives
    W = -V^2 / (2 hbar omega0), i.e. -(mu^2 kappa^2 / 2) hbar omega0 / x^6
    in reduced variables.
    """
    kappa = _orientation_pq(cfg)[1]
    energy = -0.5 * (cfg.mu * kappa) ** 2 / checked_power(cfg.x, 6)
    return PotentialResult(energy=energy, abs_err_est=np.zeros_like(energy))


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
