"""The dipole coupling tensor T(x) and the cross-coherence kernel, in closed
form from the orientation invariants.

The radial differential operator

    D_mn = (1/R) [ (delta_mn - Rhat_m Rhat_n) d^2/dR^2
                   + (delta_mn - 3 Rhat_m Rhat_n) (1/R^2 - (1/R) d/dR) ]

applied to f(k0 R) defines the dimensionless tensor tau via
D_mn f(k0 R) = k0^3 tau_mn(x) with x = k0 R.  Substituting f' = -g and
f'' = 1/x - f gives the closed forms

    tau_trans(x) = (x - x^2 f + f + x g) / x^3
    tau_long(x)  = -2 (f + x g) / x^3

for the components transverse and longitudinal to Rhat.  Contracted with
the unit dipole orientations, T(x) = n_a . tau . n_b depends on them only
through cos_ab = n_a.n_b and proj_product = (n_a.r_hat)(n_b.r_hat).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AccuracyError
from .specfun import _BRANCH_CUTOVER, aux


def per_x(law):
    """Decorator for a law that gives one value per x, written over arrays only.

    The law's first argument is x, a float or a 1-d array, or a
    configuration that carries one as its x.  The law receives x as a 1-d
    float array, of size 1 for a float, or the configuration as its
    `column` (the same configuration with such an x), and returns an array
    of one value per x or a Record of them.  numpy's floating-point
    warnings are off inside it.  A law raises DomainError or AccuracyError
    only: a float of its result that is not finite raises AccuracyError at
    its x (the first such, fields in order).  No law forms a power of x, so
    this happens where a value itself leaves the floating-point range.  A
    float call is the size-1 array call, checked alike, with each array then
    as its scalar.
    """
    @functools.wraps(law)
    def one_value_per_x(first, *args, **kwargs):
        if hasattr(first, "column"):  # a configuration
            x, column = first.x, first.column
        else:
            x, column = first, np.atleast_1d(np.asarray(first, dtype=float))
        with np.errstate(all="ignore"):
            result = law(column, *args, **kwargs)
        return _finite(result, getattr(column, "x", column), scalar=not np.ndim(x))
    return one_value_per_x


def _finite(result, xs: np.ndarray, scalar: bool):
    """result with its float arrays checked finite at xs, as scalars for a float call."""
    if isinstance(result, np.ndarray):
        if result.dtype.kind == "f":  # not the object arrays of validity flags
            bad = ~np.isfinite(result)
            if np.count_nonzero(bad):
                raise out_of_range(xs[np.flatnonzero(bad)[0]])
        return result.item() if scalar else result
    fields = {name: _finite(getattr(result, name), xs, scalar) for name in result._fields}
    return result.replace(**fields) if scalar else result


def out_of_range(x) -> AccuracyError:
    """The AccuracyError of a value out of floating-point range at x."""
    return AccuracyError(f"out of floating-point range at x={float(x)!r} (OverflowError)")


def power_law(factors, x: np.ndarray, power: int) -> np.ndarray:
    """The product of factors over x^power at every x, from their mantissas
    (math.frexp, np.frexp) and one power of two (np.ldexp) applied last: it
    leaves the floating-point range only where its value does."""
    mantissas, exponents = zip(*map(math.frexp, factors))
    m, k = np.frexp(x)
    return np.ldexp(math.prod(mantissas) * m ** -float(power), sum(exponents) - power * k)


def _aux_columns(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """f, g, f'', h = g - 1/x^2 and abs_err_est at every x, one aux call each."""
    values = [aux(v) for v in x.tolist()]
    return np.array([(v.f, v.g, v.f_double_prime, v.h, v.abs_err_est)
                     for v in values]).reshape(-1, 5).T


@per_x
def contracted_tensor(x, cos_ab: float, proj_product: float):
    """T(x) = n_a . tau(x) . n_b from the orientation invariants, one value per x.

    cos_ab = n_a.n_b and proj_product = (n_a.r_hat)(n_b.r_hat); x is a
    float or a 1-d numpy array.  T is linear in the two, and x enters by
    division only, never as a power; a term with a zero coefficient is 0.
    """
    f, g, f_double_prime, _, _ = _aux_columns(x)
    return ((cos_ab - proj_product) * f_double_prime
            + (cos_ab - 3.0 * proj_product) * (f / x + g) / x) / x


@per_x
def cross_coherence_kernel(x, cos_ab: float, proj_product: float):
    """Cross coherence per unit coupling, X / mu = (3 T + x T') / pi, one
    value per x of a float or a 1-d numpy array.

    The one-photon cross term (1/pi) int dk k^3 K(k x) / (1 + k)^2 is the
    derivative at omega = 1 of the first-order mode sum
    -(1/pi) int dk k^3 K(k x) / (omega + k), which the scaling k = omega u
    turns into omega^3 T(omega x) / pi.  With f' = -g, g' = f - 1/x,
    a = cos_ab and b = proj_product, collected so that no two terms of
    order 1/x^2 cancel as x -> 0:

        X / mu = [ (a - b) g - (a + b) f/x + 2 b/x^2 ] / pi

    and from x = 4 on, in aux's direct f'' = 1/x - f and h = g - 1/x^2, so
    that none cancel as x -> infinity: X / mu = [ (a - b) h + (a + b) f''/x ] / pi
    """
    f, g, f_double_prime, h, _ = _aux_columns(x)
    near = ((cos_ab - proj_product) * g - (cos_ab + proj_product) * f / x
            + 2.0 * proj_product / x / x)
    far = (cos_ab - proj_product) * h + (cos_ab + proj_product) * f_double_prime / x
    return np.where(x < _BRANCH_CUTOVER, near, far) / math.pi
