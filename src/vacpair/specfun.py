"""The auxiliary functions f and g of the sine and cosine integrals, and the
derivatives f'' and h = g - 1/x^2 that the dipole laws read.

The pair is

    f(x) = Ci(x) sin(x) + (pi/2 - Si(x)) cos(x)
    g(x) = -Ci(x) cos(x) + (pi/2 - Si(x)) sin(x)

with f' = -g, g' = f - 1/x and the Laplace representations (DLMF 6.7)
f(x) = int_0^inf exp(-x u)/(1+u^2) du, g(x) = int_0^inf u exp(-x u)/(1+u^2) du.
Below x = 4 the power series of Si and Cin (DLMF 6.6), 17 fixed terms in
x^2, give f and g.  From x = 4 on a 60-node Gauss-Laguerre rule
(A&S 25.4.45) sums S_k = sum w t^k / (1 + (t/x)^2), k = 0..3, in t = x u:
f = S_0/x, g = S_1/x^2, f'' = S_2/x^3 and h = -S_3/x^4, each a sum of
positive terms, so the far-zone f'' and h do not cancel terms of order 1/x
and 1/x^2.  casimir's moments sum the same table of w t^k, k = 0..4.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from ._record import Record
from .errors import AccuracyError, DomainError

EULER_GAMMA = 0.5772156649015329

_BRANCH_CUTOVER = 4.0
# (a_n, b_n), n = 16 down to 0, of Si(x) = x sum a_n x^(2n) and
# Cin(x) = x^2 sum b_n x^(2n), each correctly rounded, for Horner's rule;
# below x = 4 the first term left out, n = 17, is under 2e-21 of either sum
_SERIES = tuple(((-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)),
                 (-1) ** n / ((2 * n + 2) * math.factorial(2 * n + 2)))
                for n in range(16, -1, -1))
# worst relative error of the table's sums against mpmath (node and weight
# rounding; the truncation error is smaller): 3.7e-14 for casimir's moments
# on 400 log-spaced s in [4, 1e13], half of them in [4, 8], and 3.5e-14 for
# f, g, f'' and h on as many x in [4, 1e12]; the bound keeps a factor 2.7
_LAGUERRE_REL_ERR = 1e-13


class AuxFunValue(Record):
    """f, g, f'' and h = g - 1/x^2 at one argument, f' being -g.

    abs_err_est bounds the error of all four from x = 4 on.  Below it bounds
    f's and g's, and f'' = 1/x - f and h = g - 1/x/x, exact as stored, add
    the rounding of 1/x, 1/x/x and the difference."""

    f: float
    g: float
    f_double_prime: float
    h: float
    abs_err_est: float


def _si_cin_series(x: float) -> tuple[float, float, float]:
    """Si(x), Cin(x) = int_0^x (1-cos t)/t dt and a bound on their errors."""
    x2 = x * x
    si = cin = 0.0
    for a, b in _SERIES:
        si = si * x2 + a
        cin = cin * x2 + b
    si, cin = si * x, cin * x2
    err = 1e-16 * (abs(si) + abs(cin) + 1.0) * 4.0
    return si, cin, err


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


@functools.cache
def _weighted_powers() -> tuple[np.ndarray, np.ndarray]:
    """The rule's nodes t, and a read-only (5, 60) table of w t^k, k = 0..4."""
    t, w = _laguerre_rule()
    table = w * t ** np.arange(5.0)[:, None]
    table.setflags(write=False)
    return t, table


def _branch(x: float, series: bool) -> tuple[float, float, float, float, float]:
    """(f, g, f'', h, abs_err) at x > 0 from one branch: the series' Si and
    Ci combined into f and g, or the Gauss-Laguerre sums S_0..S_3."""
    if not series:
        t, table = _weighted_powers()
        v = t / x
        # one row sum per k, each divided by x one step at a time, so that
        # no power of x leaves the floating-point range on the way
        s0, s1, s2, s3, _ = np.add.reduce(table / (1.0 + v * v), axis=-1).tolist()
        f = s0 / x
        return f, s1 / x / x, s2 / x / x / x, -s3 / x / x / x / x, _LAGUERRE_REL_ERR * f
    si_v, cin, err = _si_cin_series(x)
    ci_v = EULER_GAMMA + math.log(x) - cin
    s, c = math.sin(x), math.cos(x)
    rest = math.pi / 2 - si_v
    f = ci_v * s + rest * c
    g = -ci_v * c + rest * s
    # four roundings, each at most half an epsilon of S = |Ci| + |pi/2 - Si|
    # as |sin|, |cos| <= 1: of Ci and pi/2 - Si, of sin and cos, of the two
    # products and of the sum; so 2 epsilon S (against mpmath, f and g use
    # at most 0.7 of the whole estimate from x = 1e-6 to 4)
    err += 2 * sys.float_info.epsilon * (abs(ci_v) + abs(rest))
    return f, g, 1.0 / x - f, g - 1.0 / x / x, err


def aux(x: float) -> AuxFunValue:
    """Auxiliary functions f and g, f'' and h = g - 1/x^2, for x > 0; g ~ 1/x^2
    underflows to 0, its correctly rounded value, from x ~ 6.3e161."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"aux requires a finite argument, got {x}")
    if x <= 0:
        raise DomainError(f"aux requires x > 0, got {x}")
    f, g, f_double_prime, h, err = _branch(x, x < _BRANCH_CUTOVER)
    # f = pi/2 - O(x ln x), so below x ~ 1e-17 it rounds to fl(pi/2) itself
    if not (0.0 < f <= math.pi / 2) or g < 0.0:
        raise AccuracyError(f"auxiliary function out of theoretical range at x={x}")
    return AuxFunValue(f=f, g=g, f_double_prime=f_double_prime, h=h, abs_err_est=err)
