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

import math

from .specfun import aux


def contracted_tensor(x: float, cos_ab: float, proj_product: float) -> float:
    """T(x) = n_a . tau(x) . n_b from the orientation invariants.

    cos_ab = n_a.n_b and proj_product = (n_a.r_hat)(n_b.r_hat).
    """
    v = aux(x)
    f, g = v.f, v.g
    return ((cos_ab - proj_product) * v.f_double_prime
            + (cos_ab - 3.0 * proj_product) * (f / x**2 + g / x)) / x


def cross_coherence_kernel(x: float, cos_ab: float, proj_product: float) -> float:
    """Cross coherence per unit coupling, X / mu = (3 T + x T') / pi.

    The one-photon cross term (1/pi) int dk k^3 K(k x) / (1 + k)^2 is the
    derivative at omega = 1 of the first-order mode sum
    -(1/pi) int dk k^3 K(k x) / (omega + k), which the scaling k = omega u
    turns into omega^3 T(omega x) / pi.  With f' = -g and g' = f - 1/x:

        X / mu = [ (cos_ab - proj_product) (g + 1/x^2 - 2 f/x)
                   + (cos_ab - 3 proj_product) (f - 1/x) / x ] / pi
    """
    v = aux(x)
    f, g = v.f, v.g
    return ((cos_ab - proj_product) * (g + 1.0 / x**2 - 2.0 * f / x)
            + (cos_ab - 3.0 * proj_product) * (f - 1.0 / x) / x) / math.pi
