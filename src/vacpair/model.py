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
from functools import cached_property

import numpy as np

from . import kernel
from ._record import Record
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


def _norm_and_direction(v: np.ndarray, name: str | None = None,
                        length: float = 1.0) -> tuple[float, np.ndarray]:
    """(|v|, length * v/|v|) for a finite real 3-vector v, at any finite scale.

    Wherever the sum of squares of v is a normal float these are the plain
    np.linalg.norm(v) and (length * v) / np.linalg.norm(v).  Where that sum
    overflows or falls below the normal range (components beyond about
    1e154, or all below about 1e-154), v is first divided by its largest
    |component|, whose norm numpy takes without overflow or underflow.  A
    zero vector raises DomainError naming `name` if one is given, and
    otherwise comes back as (0.0, v).
    """
    comps = v.tolist()
    scale, s = 1.0, v
    if not _NORMAL_MIN <= sum(c * c for c in comps) <= _NORMAL_MAX:
        big = max(map(abs, comps))
        if big:
            scale, s = big, v / big
    norm = float(np.linalg.norm(s))
    if norm == 0.0:
        if name is not None:
            raise DomainError(f"{name} must be nonzero")
        return 0.0, v
    return scale * norm, length * s / norm


class TwoLevelAtom(Record, eq=False):
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
        return _norm_and_direction(self.dipole)[0]

    @property
    def orientation(self) -> np.ndarray:
        """Unit dipole direction; x-hat by convention for a vanishing dipole."""
        d, n = _norm_and_direction(self.dipole)
        return n if d else np.array([1.0, 0.0, 0.0])

    def wavenumber(self) -> float:
        """Transition wavenumber k0 = omega0 / c."""
        return self.omega0 / SPEED_OF_LIGHT


def hydrogen_1s2p(orientation=(1.0, 0.0, 0.0)) -> TwoLevelAtom:
    """Hydrogen 1s-2p preset: Lyman-alpha frequency and the textbook dipole.

    omega0 = 3/8 Hartree/hbar, |d| = 2^7 sqrt(2)/3^5 e*a0 (the 1s->2p matrix
    element of the position operator).
    """
    d = 128.0 * np.sqrt(2.0) / 243.0
    # (d v) / |v|, as length gives it: d (v / |v|) rounds differently
    dipole = _norm_and_direction(_as_vec3(orientation, "orientation"),
                                 "orientation", length=d)[1]
    return TwoLevelAtom(omega0=0.375, dipole=dipole)


class PairConfiguration(Record, eq=False):
    """Dimensionless description of the two-atom geometry.

    x     : k0 * R, separation in units of the inverse transition wavenumber,
            a float or a read-only 1-d array of separations
    n_a   : unit dipole orientation of atom A
    n_b   : unit dipole orientation of atom B
    r_hat : unit vector from B to A
    mu    : coupling strength |d_A| |d_B| k0^3 / (hbar omega0)

    Every law of a configuration gives one value per x: an array for an
    array x, a float for a float x (kernel.per_x).  The orientations and mu
    are checked once, however many separations share them.
    """

    x: float | np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    r_hat: np.ndarray
    mu: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float, ndmin=1)  # a copy, made read-only below
        if x.ndim != 1:
            raise DomainError(f"x must be a float or a 1-d array, got shape {x.shape}")
        bad = ~(np.isfinite(x) & (x > 0))
        if np.count_nonzero(bad):
            raise DomainError(f"x must be finite and positive, got {x[bad][0]}")
        x.setflags(write=False)
        object.__setattr__(self, "x", x if np.ndim(self.x) else x.item())
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
    def column(self) -> PairConfiguration:
        """This configuration with x as a 1-d array, of size 1 for a float x:
        the form the laws compute with, so that they share its c_ee."""
        return self if np.ndim(self.x) else self.replace(x=np.array([self.x]))

    @cached_property
    def _amplitude(self):
        """The signed c_ee, amplitude_c_ee(self), made once for its validity
        report and the one-state laws."""
        return amplitude_c_ee(self)

    @cached_property
    def _validity(self):
        """perturbative_validity(self), made once for the laws that share it."""
        return perturbative_validity(self)


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
    1e-9, DomainError for zero separation, and AccuracyError where mu
    overflows.
    """
    if abs(atom_a.omega0 - atom_b.omega0) > 1e-9 * abs(atom_a.omega0):
        raise FrequencyMismatchError(
            f"atoms must share one transition frequency "
            f"(got {atom_a.omega0} and {atom_b.omega0})")
    distance, r_hat = _norm_and_direction(_as_vec3(separation, "separation"),
                                          "separation")
    k0 = atom_a.wavenumber()
    d_a, d_b = atom_a.dipole_magnitude, atom_b.dipole_magnitude
    # mantissas and one power of two: mu leaves the float range only where it does
    (ma, ea), (mb, eb), (mk, ek), (mw, ew) = map(math.frexp, (d_a, d_b, k0, atom_a.omega0))
    try:
        mu = math.ldexp(ma * mb * mk**3 / mw, ea + eb + 3 * ek - ew)
    except OverflowError:
        raise AccuracyError(f"reduce: mu is out of floating-point range at omega0="
                            f"{atom_a.omega0!r}, |d_A|={d_a!r}, |d_B|={d_b!r}") from None
    return PairConfiguration(
        x=k0 * distance,
        n_a=atom_a.orientation,
        n_b=atom_b.orientation,
        r_hat=r_hat,
        mu=mu,
    )


class Validity(enum.Enum):
    """Status of the second-order (weak-coupling) expansion."""

    OK = "OK"
    WARN = "WARN"
    INVALID = "INVALID"


class ValidityReport(Record):
    """One flag and margin per x: floats for a float x, arrays for an array x."""

    flag: Validity | np.ndarray
    margin: float | np.ndarray


# Expansion-parameter thresholds; a predicted concurrence above 1 certifies
# breakdown since concurrence is bounded by 1.
_MARGIN_OK = 0.1
_MARGIN_WARN = 1.0


def coupled(law, cfg: PairConfiguration):
    """mu law(x, cos_ab, proj_product) for a law linear in the invariants, which
    mu 2^lift scales before any division by x, and 2^-lift after: lift = -2, so
    that law values up to 4 times the result fit, or more where mu max(|a|, |b|)
    (at least 2^(e_mu + e_size - 2)) would lose bits below the normal range; the
    law may then overflow first, at x below about 1e-205."""
    size = max(abs(cfg.cos_ab), abs(cfg.proj_product))
    lift = max(-2, -1020 - math.frexp(cfg.mu)[1] - math.frexp(size)[1])
    mu = math.ldexp(cfg.mu, lift)
    return np.ldexp(law(cfg.x, mu * cfg.cos_ab, mu * cfg.proj_product), -lift)


@kernel.per_x
def amplitude_c_ee(cfg: PairConfiguration):
    """Double-excitation amplitude of the dressed ground state, one value per x.

    c_ee = -(mu/pi) T(x), real and sign carrying; the local (separation
    independent) dressing terms do not enter.
    """
    return coupled(lambda x, a, b: kernel.contracted_tensor(x, a, b) / -np.pi, cfg)


@kernel.per_x
def perturbative_validity(cfg: PairConfiguration) -> ValidityReport:
    """Check whether the weak-coupling expansion is trustworthy at each x.

    The margin is the full formula's concurrence 2 |c_ee|, unclamped; OK for
    margin <= 0.1, WARN up to 1, INVALID above 1.  kernel.per_x keeps it
    finite; its arrays are read-only, as a configuration's laws share them.
    """
    margin = 2.0 * abs(cfg._amplitude)
    level = 2 - (margin <= _MARGIN_WARN) - (margin <= _MARGIN_OK)
    flags = np.array(list(Validity), dtype=object)[level]  # OK, WARN, INVALID
    for shared in (flags, margin):
        shared.setflags(write=False)
    return ValidityReport(flag=flags, margin=margin)
