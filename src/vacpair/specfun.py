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
# the 60-node Gauss-Laguerre rule (A&S 25.4.45): each node t and weight w
# correctly rounded from 80 digits (tests/mpref.py regenerates them)
_NODES = np.array((
    0.023897977262724995, 0.12593471888169075, 0.3095789343267899, 0.5749955420928052,
    0.9223694821166638, 1.351938360008168, 1.8639963442992056, 2.4588958438224284,
    3.137049009785896, 3.898929387204992, 4.745073800125889, 5.676084508246917,
    6.6926316627865745, 7.795456089031012, 8.985372425657657, 10.263272655037909,
    11.630130063841872, 13.087003679350245, 14.635043234018347, 16.27549471920941,
    18.009706598857115, 19.839136765434034, 21.765360334373536, 23.79007838949418,
    25.9151278116049, 28.142492346079813, 30.47431509373951, 32.91291264408037,
    35.46079111232241, 38.12066439392713, 40.89547501481293, 43.78841803594064,
    46.80296857185648, 49.94291361031775, 53.21238898258831, 56.615922542696985,
    60.15848488450043, 63.84554927953224, 67.68316298705955, 71.67803271444741,
    75.83762785465706, 80.17030629260789, 84.68546919450928, 89.39375349025279,
    94.30727406611886, 99.43993254288986, 104.80781680747747, 110.42972668651629,
    116.32787889753133, 122.52887338413981, 129.06505218529827, 135.9764686041132,
    143.31384526024607, 151.1432166956151, 159.55362523885103, 168.67080654892223,
    178.6839250131464, 189.90524696213376, 202.93398795040068, 219.31811577379972))
_WEIGHTS = np.array((
    0.05988361152373338, 0.12591096707540106, 0.16473078908210712, 0.1723911873267475,
    0.15442926800152204, 0.12180351302605123, 0.0858079768798467, 0.05443536722648375,
    0.03125278975222337, 0.016290259047635154, 0.007724745660508857, 0.003336689494307682,
    0.0013138658634496516, 0.00047178872610582553, 0.0001545007363460515,
    4.613363029151373e-05, 1.2555541586433208e-05, 3.1126536116671386e-06,
    7.023892316922956e-07, 1.441394233872203e-07, 2.687115538247874e-08,
    4.5453240465711695e-09, 6.966746087053994e-10, 9.66111905164919e-11,
    1.2101372902012551e-11, 1.3666508971830879e-12, 1.3887583568740823e-13,
    1.2670440927349748e-14, 1.0354183850146324e-15, 7.55907205833705e-17,
    4.9160556832367865e-18, 2.839331595776198e-19, 1.4514379644950184e-20,
    6.542735020092926e-22, 2.590251909683306e-23, 8.966427843541492e-25, 2.700678009275022e-26,
    7.039889491562141e-28, 1.5787547853764472e-29, 3.0258776894584833e-31,
    4.920167355256639e-33, 6.731664116050511e-35, 7.678096538827627e-37, 7.224669424010355e-39,
    5.541500398361133e-41, 3.417660127908143e-43, 1.6681495220378453e-45,
    6.325573271600759e-48, 1.8231396385814367e-50, 3.8906596692228005e-53,
    5.955161545767698e-56, 6.285449226147311e-59, 4.3523952400430156e-62,
    1.8533564849869103e-65, 4.448273483037403e-69, 5.322566314955769e-73,
    2.641206780522461e-77, 4.016505842550547e-82, 1.0516941039201472e-87,
    1.0909419486248201e-94))
# read-only, shared by every caller: t, and the (5, 60) table of w t^k, k = 0..4
_WEIGHTED_POWERS = _WEIGHTS * _NODES ** np.arange(5.0)[:, None]
_NODES.setflags(write=False)
_WEIGHTED_POWERS.setflags(write=False)
# worst relative error of the table's sums against mpmath: 1.33e-15 for
# casimir's moments, I_4 at s = 4 (the rule's truncation), on 400 s = 2x with
# x in [2, 1e12], half of them in [2, 4], and 3.8e-16 for f, g, f'' and h on
# as many x in [4, 1e12]; the bound keeps a factor 3
_LAGUERRE_REL_ERR = 4e-15


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


def _branch(x: float, series: bool) -> tuple[float, float, float, float, float]:
    """(f, g, f'', h, abs_err) at x > 0 from one branch: the series' Si and
    Ci combined into f and g, or the Gauss-Laguerre sums S_0..S_3."""
    if not series:
        v = _NODES / x
        # one row sum per k, each divided by x one step at a time, so that
        # no power of x leaves the floating-point range on the way
        s0, s1, s2, s3, _ = np.add.reduce(_WEIGHTED_POWERS / (1.0 + v * v), axis=-1).tolist()
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
