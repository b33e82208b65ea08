"""The dipole coupling tensor T(x): a closed form from the orientation
invariants, and the 3x3 matrix form it contracts.

The radial differential operator

    D_mn = (1/R) [ (delta_mn - Rhat_m Rhat_n) d^2/dR^2
                   + (delta_mn - 3 Rhat_m Rhat_n) (1/R^2 - (1/R) d/dR) ]

applied to f(k0 R) defines the dimensionless tensor tau via
D_mn f(k0 R) = k0^3 tau_mn(x) with x = k0 R.  Substituting f' = -g and
f'' = 1/x - f gives the closed forms

    tau_trans(x) = (x - x^2 f + f + x g) / x^3
    tau_long(x)  = -2 (f + x g) / x^3

for the components transverse and longitudinal to Rhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _as_unit3
from .specfun import aux


@dataclass(frozen=True, eq=False)
class DipoleTensor:
    """Symmetric 3x3 tensor tau_mn(x) for a given separation direction."""

    x: float
    r_hat: np.ndarray
    matrix: np.ndarray
    tau_transverse: float
    tau_longitudinal: float


def dipole_tensor(x: float, r_hat=(0.0, 0.0, 1.0)) -> DipoleTensor:
    """Dimensionless dipole coupling tensor at separation x along r_hat."""
    r = _as_unit3(r_hat, "r_hat")
    # the transverse pair has cos_ab = 1, proj_product = 0; the longitudinal 1, 1
    tau_t, tau_l = contracted_tensor(x, 1.0, 0.0), contracted_tensor(x, 1.0, 1.0)
    proj = np.outer(r, r)
    m = tau_t * (np.eye(3) - proj) + tau_l * proj
    m.setflags(write=False)
    r.setflags(write=False)
    return DipoleTensor(x=float(x), r_hat=r, matrix=m,
                        tau_transverse=tau_t, tau_longitudinal=tau_l)


def contract(tensor: DipoleTensor, n_a, n_b) -> float:
    """T(x) = sum_mn (n_a)_m tau_mn (n_b)_n; bilinear in both orientations."""
    return float(_as_unit3(n_a, "n_a") @ tensor.matrix @ _as_unit3(n_b, "n_b"))


def contracted_tensor(x: float, cos_ab: float, proj_product: float) -> float:
    """T(x) directly from the orientation invariants.

    cos_ab = n_a.n_b and proj_product = (n_a.r_hat)(n_b.r_hat); equivalent to
    contract(dipole_tensor(x), n_a, n_b) without building the matrix.
    """
    v = aux(x)
    f, g = v.f, v.g
    return ((cos_ab - proj_product) * v.f_double_prime
            + (cos_ab - 3.0 * proj_product) * (f / x**2 + g / x)) / x
