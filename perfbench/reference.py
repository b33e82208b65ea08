"""mpmath references for the values the benchmark checks.

Both references are built from the auxiliary functions f and g, evaluated
through Si and Ci at a working precision high enough to absorb every
cancellation on the benchmark's x range:

* T(x), the contracted dipole tensor, uses f'' = 1/x - f, which loses about
  2 log10(x) digits;
* the Casimir-Polder integral J(x) = int_0^inf P(v) exp(-2 x v)/(1+v^2)^2 dv
  is reduced exactly to f and g at s = 2x through

      I_n(s) = int_0^inf v^n exp(-s v)/(1+v^2)^2 dv
      I_0 = (f + s g)/2,  I_1 = (1 - s f)/2,  I_2 = f - I_0,
      I_3 = g - I_1,      I_4 = 1/s - 2 f + I_0,

  whose subtractions lose about 4 log10(s) digits.

At 120 digits both keep more than 60 correct digits up to x = 1e12.  The
pattern polynomial P and the isotropic average follow the definitions in
the vacpair documentation of `casimir.wcp`, not its code.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

DPS = 120

# CODATA 2018, the values the vacpair unit conversions are defined by.
FINE_STRUCTURE = "7.2973525693e-3"
BOHR_RADIUS_SI = "5.29177210903e-11"


def _mpf(v) -> mp.mpf:
    # a binary float converts exactly; a decimal string rounds at DPS digits
    return mp.mpf(v if isinstance(v, (str, mp.mpf)) else float(v))


def aux_fg(x) -> tuple[mp.mpf, mp.mpf]:
    """f(x) and g(x) at DPS digits."""
    with mp.workdps(DPS):
        x = _mpf(x)
        si, ci = mp.si(x), mp.ci(x)
        s, c = mp.sin(x), mp.cos(x)
        rest = mp.pi / 2 - si
        return ci * s + rest * c, -ci * c + rest * s


def tensor_terms(x, cos_ab, proj_product) -> list[mp.mpf]:
    """The two terms of T(x) = [(a - b) f'' + (a - 3b)(f/x^2 + g/x)] / x.

    a = cos_ab and b = proj_product.
    """
    with mp.workdps(DPS):
        x, a, b = _mpf(x), _mpf(cos_ab), _mpf(proj_product)
        f, g = aux_fg(x)
        fpp = 1 / x - f
        return [(a - b) * fpp / x, (a - 3 * b) * (f / x**2 + g / x) / x]


def contracted_tensor(x, cos_ab, proj_product) -> mp.mpf:
    with mp.workdps(DPS):
        return mp.fsum(tensor_terms(x, cos_ab, proj_product))


def laplace_moments(x) -> list[mp.mpf]:
    """[I_0, ..., I_4] at s = 2x."""
    with mp.workdps(DPS):
        s = 2 * _mpf(x)
        f, g = aux_fg(s)
        i0 = (f + s * g) / 2
        i1 = (1 - s * f) / 2
        return [i0, i1, f - i0, g - i1, 1 / s - 2 * f + i0]


def _pattern(p, q) -> list[mp.mpf]:
    """Coefficients of v^0 .. v^4 in v^6 [p/(vx) + q/(vx)^2 + q/(vx)^3]^2, times x^(6-n)."""
    return [q * q, 2 * q * q, q * q + 2 * p * q, 2 * p * q, p * p]


def wcp_terms(x, cos_ab, proj_product, isotropic=False) -> list[mp.mpf]:
    """The five moment terms of J(x), for fixed orientations or the rotational average.

    The average puts weight 1/9 on two transverse channels (p = q = 1) and one
    longitudinal channel (p = 0, q = -2).
    """
    with mp.workdps(DPS):
        x = _mpf(x)
        moments = laplace_moments(x)
        if isotropic:
            c = [(2 * t + l) / 9 for t, l in zip(_pattern(1, 1), _pattern(0, -2))]
        else:
            a, b = _mpf(cos_ab), _mpf(proj_product)
            c = _pattern(a - b, a - 3 * b)
        return [c[n] * moments[n] / x ** (6 - n) for n in range(5)]


@dataclass(frozen=True)
class Expected:
    """A reference value and the sum of the magnitudes of the terms it sums.

    scale >= |value|.  An error over scale is the error that the terms'
    own rounding explains, whatever the orientations cancel in the sum.
    """

    value: mp.mpf
    scale: mp.mpf


def expected_sum(factor, terms) -> Expected:
    with mp.workdps(DPS):
        return Expected(factor * mp.fsum(terms), abs(factor) * mp.fsum(abs(t) for t in terms))


def wcp_energy(x, mu, cos_ab, proj_product, isotropic=False) -> Expected:
    """W(x) = -(2 mu^2 / pi) J(x) in units of hbar omega0."""
    with mp.workdps(DPS):
        return expected_sum(-2 * _mpf(mu) ** 2 / mp.pi,
                            wcp_terms(x, cos_ab, proj_product, isotropic))


def concurrence(x, mu, cos_ab, proj_product) -> Expected:
    """C = (2 mu / pi) |T(x)|."""
    with mp.workdps(DPS):
        e = expected_sum(2 * _mpf(mu) / mp.pi, tensor_terms(x, cos_ab, proj_product))
        return Expected(abs(e.value), e.scale)


def hydrogen_pair(r, units: str) -> tuple[mp.mpf, mp.mpf]:
    """(x, mu) of two hydrogen 1s-2p atoms at separation r (atomic or SI units)."""
    with mp.workdps(DPS):
        omega0 = mp.mpf(3) / 8
        k0 = omega0 * mp.mpf(FINE_STRUCTURE)
        d = 128 * mp.sqrt(2) / 243
        r = _mpf(r) if units == "atomic" else _mpf(r) / mp.mpf(BOHR_RADIUS_SI)
        return k0 * r, d * d * k0**3 / omega0


def orientation_invariants(n_a, n_b, r_hat) -> tuple[mp.mpf, mp.mpf]:
    """(n_a.n_b, (n_a.r)(n_b.r)) of three vectors, normalised exactly."""
    with mp.workdps(DPS):
        a, b, r = ([_mpf(c) for c in v] for v in (n_a, n_b, r_hat))
        na, nb, nr = (mp.sqrt(mp.fsum(c * c for c in v)) for v in (a, b, r))
        dot = lambda u, v: mp.fsum(p * q for p, q in zip(u, v))
        return dot(a, b) / (na * nb), dot(a, r) * dot(b, r) / (na * nb * nr * nr)


def relative_error(observed: float, expected: Expected) -> float:
    with mp.workdps(DPS):
        if expected.value == 0:
            return 0.0 if observed == 0 else float("inf")
        return float(abs((_mpf(observed) - expected.value) / expected.value))


def conditioned_error(observed: float, expected: Expected) -> float:
    """|observed - value| / scale: the relative error without the orientations' cancellation."""
    with mp.workdps(DPS):
        if expected.scale == 0:
            return 0.0 if observed == 0 else float("inf")
        return float(abs((_mpf(observed) - expected.value) / expected.scale))
