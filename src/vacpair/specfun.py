"""Sine and cosine integrals and their auxiliary functions.

Evaluation uses the standard two-regime scheme: power series below the
crossover at x = 4, a modified-Lentz continued fraction for the exponential
integral of imaginary argument above it.  Both branches agree at the seam to
better than 1e-13.

The auxiliary pair is

    f(x) = Ci(x) sin(x) + (pi/2 - Si(x)) cos(x)
    g(x) = -Ci(x) cos(x) + (pi/2 - Si(x)) sin(x)

with f' = -g, g' = f - 1/x and the Laplace representations
f(x) = int_0^inf exp(-x t)/(1+t^2) dt, g(x) = int_0^inf t exp(-x t)/(1+t^2) dt.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import AccuracyError, DomainError

EULER_GAMMA = 0.5772156649015329

_BRANCH_CUTOVER = 4.0
_SERIES_MAX_TERMS = 100
_CF_MAX_ITER = 400
# the Lentz factor cannot settle closer to 1 than a rounding step or two
_CF_TOL = 2 * sys.float_info.epsilon


@dataclass(frozen=True)
class AuxFunValue:
    """f, g and the derivatives of f at one argument.

    The derivative fields are filled from the identities f' = -g and
    f'' = 1/x - f, so they hold exactly as stored.
    """

    x: float
    f: float
    g: float
    f_prime: float
    f_double_prime: float
    abs_err_est: float


def _check_arg(x: float, name: str, allow_zero: bool) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} requires a finite argument, got {x}")
    if x < 0 or (x == 0 and not allow_zero):
        raise DomainError(f"{name} requires x {'>=' if allow_zero else '>'} 0, got {x}")
    return x


def _si_cin_series(x: float) -> tuple[float, float, float]:
    """Power series for Si(x) and Cin(x) = int_0^x (1-cos t)/t dt."""
    x2 = x * x
    # Si(x) = sum_{n>=0} (-1)^n x^{2n+1} / ((2n+1)(2n+1)!)
    si = 0.0
    term = x
    n = 0
    while True:
        si += term / (2 * n + 1)
        term *= -x2 / ((2 * n + 2) * (2 * n + 3))
        n += 1
        if abs(term) < 1e-18 * max(1.0, abs(si)) or n > _SERIES_MAX_TERMS:
            break
    # Cin(x) = sum_{n>=1} (-1)^{n+1} x^{2n} / (2n (2n)!)
    cin = 0.0
    t = 0.5 * x2  # x^2 / 2!
    sign = 1.0
    n = 1
    while True:
        cin += sign * t / (2 * n)
        t *= x2 / ((2 * n + 1) * (2 * n + 2))
        sign = -sign
        n += 1
        if t < 1e-18 * max(1.0, abs(cin)) or n > _SERIES_MAX_TERMS:
            break
    err = 1e-16 * (abs(si) + abs(cin) + 1.0) * 4.0
    return si, cin, err


def _fg_continued_fraction(x: float) -> tuple[float, float, float]:
    """f and g for large x via the continued fraction for e^{ix} E1(ix).

    Modified Lentz iteration on
        E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(...))))
    at z = ix; then g + i f = e^{ix} E1(ix) conjugated appropriately.
    """
    z = complex(0.0, x)
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    delta = 0.0
    for i in range(1, _CF_MAX_ITER):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            break
    else:
        raise AccuracyError(f"continued fraction failed to converge at x={x}")
    f = -h.imag
    g = h.real
    err = (abs(delta - 1.0) + 1e-16) * abs(h) * 4.0
    return f, g, err


def _branch(x: float, series: bool) -> tuple[float, float, float, float, float]:
    """(Si, Ci, f, g, abs_err) at x > 0 from one branch, the others by conversion."""
    if series:
        si_v, cin, err = _si_cin_series(x)
        ci_v = EULER_GAMMA + math.log(x) - cin
        s, c = math.sin(x), math.cos(x)
        rest = math.pi / 2 - si_v
        f = ci_v * s + rest * c
        g = -ci_v * c + rest * s
        return si_v, ci_v, f, g, err + 2e-16 * (abs(ci_v) + abs(rest))
    f, g, err = _fg_continued_fraction(x)
    s, c = math.sin(x), math.cos(x)
    return math.pi / 2 - (f * c + g * s), f * s - g * c, f, g, err


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt for x >= 0."""
    x = _check_arg(x, "si", allow_zero=True)
    if x == 0.0:
        return 0.0
    return _branch(x, x < _BRANCH_CUTOVER)[0]


def ci(x: float) -> float:
    """Cosine integral Ci(x) = gamma + ln(x) + int_0^x (cos t - 1)/t dt for x > 0."""
    x = _check_arg(x, "ci", allow_zero=False)
    return _branch(x, x < _BRANCH_CUTOVER)[1]


def aux(x: float) -> AuxFunValue:
    """Auxiliary functions f and g with derivatives of f, for x > 0."""
    x = _check_arg(x, "aux", allow_zero=False)
    _, _, f, g, err = _branch(x, x < _BRANCH_CUTOVER)
    if not (0.0 < f < math.pi / 2) or g <= 0.0:
        raise AccuracyError(f"auxiliary function out of theoretical range at x={x}",
                            value=(f, g))
    return AuxFunValue(
        x=x,
        f=f,
        g=g,
        f_prime=-g,
        f_double_prime=1.0 / x - f,
        abs_err_est=err,
    )
