"""The test suite's one mpmath reference and only importer of mpmath: Si, Ci
and Cin, f and g from Si and Ci, f'' and h = g - 1/x^2, and T(x), X/mu, the moments
I_n(2x) and the pair energy W from them, the London energy, the near- and
far-zone concurrence laws and the entanglement of formation, each a Ref of
the value and the sum of its terms' magnitudes, in mpf; the local one-photon
population and the coupling mu of two dimensional atoms; and the 60-node
Gauss-Laguerre rule."""

import functools
import math
from collections import namedtuple

import numpy as np
import pytest

Ref = namedtuple("Ref", "value scale")
# the mpmath module, or a skip of the calling test
mpmath = functools.partial(pytest.importorskip, "mpmath")


def digits(x):
    """Si and Ci lose about 2 log10(s) digits to f and g at s = 2x, the moment
    reduction 4 log10(s) more, and X cancels like 1/x^2 as x -> 0: at least 31
    digits of f, g, f'', h, T, X and W stay correct on [1e-300, 1e300]."""
    return math.ceil(30 + 6 * max(0.0, math.log10(2 * x)) + 2 * max(0.0, -math.log10(x)))


def _at_digits(reference):
    """reference(mp, x as an mpf, *args), called at digits(x) digits."""
    @functools.wraps(reference)
    def at_digits(x, *args, **kwargs):
        mp = mpmath()
        with mp.workdps(digits(x)):
            return reference(mp, mp.mpf(float(x)), *args, **kwargs)
    return at_digits


def _sum(mp, *terms):
    return Ref(mp.fsum(terms), mp.fsum(abs(t) for t in terms))


def _fg(mp, t):
    """f(t) and g(t)."""
    rest, c, sin, cos = mp.pi / 2 - mp.si(t), mp.ci(t), mp.sin(t), mp.cos(t)
    return _sum(mp, c * sin, rest * cos), _sum(mp, -c * cos, rest * sin)


fg = _at_digits(_fg)


@_at_digits
def derivatives(mp, t):
    """f''(t) = 1/t - f and h(t) = g - 1/t^2."""
    (f, _), (g, _) = _fg(mp, t)
    return _sum(mp, 1 / t, -f), _sum(mp, g, -1 / t**2)


@_at_digits
def si_ci(mp, t):
    """Si(t) and Ci(t)."""
    return mp.si(t), mp.ci(t)


@_at_digits
def si_cin(mp, t):
    """Si(t) and Cin(t) = gamma + ln t - Ci(t), which cancels like t^2 as
    t -> 0: the digit rule keeps at least 27 of its digits on [1e-300, 4)."""
    return mp.si(t), mp.euler + mp.log(t) - mp.ci(t)


@_at_digits
def tensor(mp, t, cos_ab, proj_product):
    """T(x) = [(a - b) f'' + (a - 3b)(f/x^2 + g/x)] / x, with f'' = 1/x - f."""
    (f, _), (g, _) = _fg(mp, t)
    p, q = mp.mpf(cos_ab) - proj_product, mp.mpf(cos_ab) - 3 * mp.mpf(proj_product)
    return _sum(mp, p * (1 / t - f) / t, q * (f / t**2 + g / t) / t)


@_at_digits
def x_over_mu(mp, t, cos_ab, proj_product):
    """X/mu = (3T + xT')/pi, before cross_coherence_kernel collects its terms."""
    (f, _), (g, _) = _fg(mp, t)
    p, q = mp.mpf(cos_ab) - proj_product, mp.mpf(cos_ab) - 3 * mp.mpf(proj_product)
    return _sum(mp, p * (g + 1 / t**2 - 2 * f / t) / mp.pi, q * (f - 1 / t) / (t * mp.pi))


@_at_digits
def moments(mp, t):
    """[I_0, ..., I_4], I_n = int_0^inf v^n e^(-sv) / (1 + v^2)^2 dv at s = 2x,
    reduced exactly to f and g at s."""
    s = 2 * t
    (f, _), (g, _) = _fg(mp, s)
    i0, i1 = _sum(mp, f / 2, s * g / 2), _sum(mp, mp.mpf(1) / 2, -s * f / 2)
    return [i0, i1, _sum(mp, f, -i0.value), _sum(mp, g, -i1.value),
            _sum(mp, 1 / s, -2 * f, i0.value)]


@_at_digits
def dispersion(mp, t, cos_ab, proj_product, isotropic=False):
    """J(x) = sum_n c_n I_n / x^(6-n), c_n the coefficient of v^n in x^(6-n) v^6
    [p/(vx) + q/(vx)^2 + q/(vx)^3]^2 with p = a - b, q = a - 3b; or averaged, 1/9
    on two transverse channels (p = q = 1) and one longitudinal (p = 0, q = -2)."""
    def pattern(p, q):
        return [q * q, 2 * q * q, q * q + 2 * p * q, 2 * p * q, p * p]
    if isotropic:
        c = [(2 * tr + lo) / 9 for tr, lo in zip(pattern(mp.mpf(1), 1), pattern(0, -2))]
    else:
        c = pattern(mp.mpf(cos_ab) - proj_product, mp.mpf(cos_ab) - 3 * mp.mpf(proj_product))
    return _sum(mp, *(c_n * i_n.value / t ** (6 - n)
                      for n, (c_n, i_n) in enumerate(zip(c, moments(t)))))


@_at_digits
def wcp(mp, t, mu, cos_ab, proj_product, isotropic=False):
    """W(x) = -(2 mu^2 / pi) J(x), in units of hbar omega0."""
    j, factor = dispersion(t, cos_ab, proj_product, isotropic), 2 * mp.mpf(mu) ** 2 / mp.pi
    return Ref(-factor * j.value, factor * j.scale)


@_at_digits
def london(mp, t, mu, cos_ab, proj_product):
    """-(mu kappa)^2 / (2 x^6), kappa = a - 3b, in units of hbar omega0."""
    w = -(mp.mpf(mu) * (mp.mpf(cos_ab) - 3 * mp.mpf(proj_product))) ** 2 / (2 * t**6)
    return Ref(w, abs(w))


def _power_law(mp, t, coefficient, cos_ab, proj_product, weight, power):
    """coefficient |a - weight b| / x^power, in mpf."""
    law = _sum(mp, coefficient * mp.mpf(cos_ab), -coefficient * weight * mp.mpf(proj_product))
    return Ref(abs(law.value) / t**power, law.scale / t**power)


@_at_digits
def concurrence_near(mp, t, mu, cos_ab, proj_product):
    """mu |a - 3b| / x^3."""
    return _power_law(mp, t, mp.mpf(mu), cos_ab, proj_product, 3, 3)


@_at_digits
def concurrence_far(mp, t, mu, cos_ab, proj_product):
    """(8 mu / pi) |a - 2b| / x^4."""
    return _power_law(mp, t, 8 * mp.mpf(mu) / mp.pi, cos_ab, proj_product, 2, 4)


@_at_digits
def eof(mp, c):
    """E_F(c) = H(x) in bits, x = (1 + sqrt(1 - c^2))/2, with 1 - x formed as
    y = c^2 / (2 (1 + sqrt(1 - c^2))) and x log x as x log1p(-y), so that x
    does not round to 1 at small c."""
    y = c * c / (2 * (1 + mp.sqrt(1 - c * c)))
    return _sum(mp, -(1 - y) * mp.log1p(-y) / mp.log(2), -y * mp.log(y, 2))


def local_population(cutoff):
    """(2/(3 pi)) [L^2/2 - 2L + 3 ln(1 + L) + 1/(1 + L) - 1] at L = cutoff, the
    local one-photon population per unit coupling, in mpf."""
    mp = mpmath()
    with mp.workdps(30):
        ell = mp.mpf(float(cutoff))
        return 2 * (ell**2 / 2 - 2 * ell + 3 * mp.log1p(ell) + 1 / (1 + ell) - 1) / (3 * mp.pi)


def coupling(omega0, d_a, d_b, speed_of_light):
    """mu = |d_A||d_B| k0^3 / omega0 with k0 = omega0 / c, exact products of
    the given floats, in mpf (whose exponent range has no limit)."""
    mp = mpmath()
    with mp.workdps(30):
        return mp.mpf(d_a) * mp.mpf(d_b) * (mp.mpf(omega0) / speed_of_light) ** 3 / omega0


@functools.cache
def laguerre_rule(n):
    """The n-node Gauss-Laguerre rule (A&S 25.4.45) at 80 digits, in mpf: the
    nodes t by Newton on L_n, started from numpy's, with the recurrence
    (k + 1) L_(k+1) = (2k + 1 - t) L_k - k L_(k-1) and t L_n' = n (L_n - L_(n-1));
    the weights t / ((n + 1)^2 L_(n+1)(t)^2); and the weights' sum."""
    mp = mpmath()
    with mp.workdps(80):
        def laguerre(t):
            """L_(n-1)(t), L_n(t) and L_(n+1)(t)."""
            before, now = mp.mpf(0), mp.mpf(1)
            for k in range(n):
                before, now = now, ((2 * k + 1 - t) * now - k * before) / (k + 1)
            return before, now, ((2 * n + 1 - t) * now - n * before) / (n + 1)

        nodes = []
        for t in np.polynomial.laguerre.laggauss(n)[0].tolist():
            t = mp.mpf(t)
            for _ in range(5):  # from numpy's 13 digits, each step doubling them
                l_prev, l_n, _ = laguerre(t)
                t -= t * l_n / (n * (l_n - l_prev))
            nodes.append(t)
        weights = [t / ((n + 1) ** 2 * laguerre(t)[2] ** 2) for t in nodes]
        return nodes, weights, mp.fsum(weights)
