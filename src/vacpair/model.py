"""Atom/geometry records, the dimensionless reduction, and the weak-coupling
validity of the amplitude c_ee that a configuration carries.

The unit system is fixed: Hartree atomic units with the Gaussian
electromagnetic convention (hbar = e = m_e = 1, c = 1/alpha).  In these
units the Bohr radius is 1 and all quantities of interest stay within a few
orders of magnitude of unity; hbar = 1 drops out of every formula.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from .errors import AccuracyError, DomainError, FrequencyMismatchError

FINE_STRUCTURE = 7.2973525693e-3  # CODATA 2018
SPEED_OF_LIGHT = 1.0 / FINE_STRUCTURE  # alpha = e^2/(hbar c) with e = hbar = 1

_UNIT_TOL = 1e-12
_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max


def _as_vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise DomainError(f"{name} must be finite")
    return arr


def _as_unit3(v, name: str) -> np.ndarray:
    arr = _as_vec3(v, name)
    if abs(math.hypot(*arr.tolist()) - 1.0) > _UNIT_TOL:
        raise DomainError(f"{name} must be a unit vector to 1e-12")
    return arr


def _scaled_for_norm(v: np.ndarray) -> tuple[float, np.ndarray]:
    """(scale, s) with v = scale * s, for a finite real 3-vector v.

    s is v itself, and scale 1, wherever the sum of squares of v is a normal
    float, so np.linalg.norm(s) and s / np.linalg.norm(s) are the plain ones
    there.  Where that sum overflows or falls below the normal range
    (components beyond about 1e154, or all below about 1e-154), s is v over
    its largest |component|, whose norm numpy takes without overflow or
    underflow.  A zero vector is returned as it is.
    """
    comps = v.tolist()
    if _NORMAL_MIN <= sum(c * c for c in comps) <= _NORMAL_MAX:
        return 1.0, v
    big = max(map(abs, comps))
    return (big, v / big) if big else (1.0, v)


@dataclass(frozen=True, eq=False)
class TwoLevelAtom:
    """A two-level atom: transition frequency and a real transition dipole."""

    omega0: float
    dipole: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and self.omega0 > 0):
            raise DomainError(f"omega0 must be finite and positive, got {self.omega0}")
        d = _as_vec3(self.dipole, "dipole")
        d.setflags(write=False)
        object.__setattr__(self, "dipole", d)

    @property
    def dipole_magnitude(self) -> float:
        scale, s = _scaled_for_norm(self.dipole)
        return scale * float(np.linalg.norm(s))

    @property
    def orientation(self) -> np.ndarray:
        """Unit dipole direction; x-hat by convention for a vanishing dipole."""
        s = _scaled_for_norm(self.dipole)[1]
        d = float(np.linalg.norm(s))
        if d == 0.0:
            return np.array([1.0, 0.0, 0.0])
        return s / d

    def wavenumber(self) -> float:
        """Transition wavenumber k0 = omega0 / c."""
        return self.omega0 / SPEED_OF_LIGHT


def hydrogen_1s2p(orientation=(1.0, 0.0, 0.0)) -> TwoLevelAtom:
    """Hydrogen 1s-2p preset: Lyman-alpha frequency and the textbook dipole.

    omega0 = 3/8 Hartree/hbar, |d| = 2^7 sqrt(2)/3^5 e*a0 (the 1s->2p matrix
    element of the position operator).
    """
    n = _scaled_for_norm(_as_vec3(orientation, "orientation"))[1]
    norm = np.linalg.norm(n)
    if norm == 0:
        raise DomainError("orientation must be nonzero")
    d = 128.0 * np.sqrt(2.0) / 243.0
    return TwoLevelAtom(omega0=0.375, dipole=d * n / norm)


@dataclass(frozen=True, eq=False)
class PairConfiguration:
    """Dimensionless description of the two-atom geometry.

    x     : k0 * R, separation in units of the inverse transition wavenumber
    n_a   : unit dipole orientation of atom A
    n_b   : unit dipole orientation of atom B
    r_hat : unit vector from B to A
    mu    : coupling strength |d_A| |d_B| k0^3 / (hbar omega0)
    """

    x: float
    n_a: np.ndarray
    n_b: np.ndarray
    r_hat: np.ndarray
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and self.x > 0):
            raise DomainError(f"x must be finite and positive, got {self.x}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise DomainError(f"mu must be finite and nonnegative, got {self.mu}")
        for name in ("n_a", "n_b", "r_hat"):
            v = _as_unit3(getattr(self, name), name)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def cos_ab(self) -> float:
        """n_a . n_b"""
        return float(self.n_a @ self.n_b)

    @cached_property
    def proj_product(self) -> float:
        """(n_a . r_hat)(n_b . r_hat)"""
        return float((self.n_a @ self.r_hat) * (self.n_b @ self.r_hat))

    @cached_property
    def _tensor(self) -> float:
        """T(x), evaluated once per configuration for all the laws that need it."""
        return kernel.contracted_tensor(self.x, self.cos_ab, self.proj_product)


def pair_from_alignment(x: float, mu: float, cos_ab: float = 1.0,
                        proj_product: float = 0.0) -> PairConfiguration:
    """Build a configuration realizing given orientation invariants.

    Convenience for sweeps: places the separation along z and chooses
    coplanar dipoles with the requested n_a.n_b and projection product.
    Requires a geometry consistent with unit vectors.
    """
    for name, v in (("cos_ab", cos_ab), ("proj_product", proj_product)):
        if not abs(v) <= 1:  # also rejects NaN
            raise DomainError(f"{name} must lie in [-1, 1], got {v}")
    r_hat = np.array([0.0, 0.0, 1.0])
    ca = np.sqrt(abs(proj_product))
    cb = np.sign(proj_product) * ca
    sa = np.sqrt(1 - ca * ca)
    sb = np.sqrt(1 - cb * cb)
    n_a = np.array([sa, 0.0, ca])
    if sa * sb == 0:
        if abs(cos_ab - ca * cb) > 1e-12:
            raise DomainError("requested alignment is not realizable")
        n_b = np.array([sb, 0.0, cb])
    else:
        cphi = (cos_ab - ca * cb) / (sa * sb)
        if abs(cphi) > 1 + 1e-12:
            raise DomainError("requested alignment is not realizable")
        cphi = float(np.clip(cphi, -1.0, 1.0))
        sphi = np.sqrt(1 - cphi * cphi)
        n_b = np.array([sb * cphi, sb * sphi, cb])
    return PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=mu)


def reduce(atom_a: TwoLevelAtom, atom_b: TwoLevelAtom, separation) -> PairConfiguration:
    """Reduce a dimensional two-atom setup to its dimensionless configuration.

    The reduction is exact: x = k0 |R|, mu = |d_A||d_B| k0^3/(hbar omega0),
    orientations are passed through unchanged.

    Raises FrequencyMismatchError unless the atoms share omega0 to a relative
    1e-9, DomainError for zero separation, and AccuracyError where mu falls
    outside the floating-point range.
    """
    if abs(atom_a.omega0 - atom_b.omega0) > 1e-9 * abs(atom_a.omega0):
        raise FrequencyMismatchError(
            f"atoms must share one transition frequency "
            f"(got {atom_a.omega0} and {atom_b.omega0})")
    scale, sep = _scaled_for_norm(_as_vec3(separation, "separation"))
    norm = float(np.linalg.norm(sep))
    if norm == 0.0:
        raise DomainError("separation must be nonzero")
    k0 = atom_a.wavenumber()
    d_a, d_b = atom_a.dipole_magnitude, atom_b.dipole_magnitude
    try:
        mu = d_a * d_b * k0**3 / atom_a.omega0
    except OverflowError:  # k0**3
        mu = math.inf
    if not math.isfinite(mu):
        raise AccuracyError(f"reduce: mu is out of floating-point range at "
                            f"omega0={atom_a.omega0!r}, |d_A|={d_a!r}, |d_B|={d_b!r}")
    return PairConfiguration(
        x=k0 * (scale * norm),
        n_a=atom_a.orientation,
        n_b=atom_b.orientation,
        r_hat=sep / norm,
        mu=mu,
    )


class Validity(enum.Enum):
    """Status of the second-order (weak-coupling) expansion."""

    OK = "OK"
    WARN = "WARN"
    INVALID = "INVALID"


@dataclass(frozen=True)
class ValidityReport:
    flag: Validity
    margin: float


# Expansion-parameter thresholds; a predicted concurrence above 1 certifies
# breakdown since concurrence is bounded by 1.
_MARGIN_OK = 0.1
_MARGIN_WARN = 1.0


def _validity_from_margin(margin: float) -> ValidityReport:
    if margin <= _MARGIN_OK:
        flag = Validity.OK
    elif margin <= _MARGIN_WARN:
        flag = Validity.WARN
    else:
        flag = Validity.INVALID
    return ValidityReport(flag=flag, margin=margin)


def amplitude_c_ee(cfg: PairConfiguration) -> float:
    """Double-excitation amplitude of the dressed ground state.

    c_ee = -(mu/pi) T(x), real and sign carrying; the local (separation
    independent) dressing terms do not enter.
    """
    return -cfg.mu / np.pi * cfg._tensor


def concurrence_raw(cfg: PairConfiguration) -> float:
    """Unclamped full-formula concurrence 2 |c_ee| = (2 mu / pi) |T(x)|."""
    return 2.0 * abs(amplitude_c_ee(cfg))


def perturbative_validity(cfg: PairConfiguration) -> ValidityReport:
    """Check whether the weak-coupling expansion is trustworthy.

    The margin is the predicted concurrence magnitude from the full formula;
    OK for margin <= 0.1, WARN up to 1, INVALID above 1.
    """
    return _validity_from_margin(concurrence_raw(cfg))
