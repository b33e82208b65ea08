"""Independent brute-force validators for every closed form in the package.

These evaluators work directly on the defining radial integrals, using
zero-partitioned segment quadrature with iterated averaging of the
alternating partial sums (an Euler-type acceleration).  That machinery sums
the conditionally convergent and Abel-summable oscillatory tails that arise
from vacuum mode sums, where naive truncation fails.

Oracle code is allowed to be slow compared to the closed-form production
paths; its job is to be simple, direct and independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import PairConfiguration


@dataclass(frozen=True)
class QuadratureReport:
    """Result of one oracle quadrature."""

    value: float
    abs_err_est: float
    intervals_used: int
    accelerated: bool


# Gauss-Legendre order of the oscillatory-tail segments
_GAUSS_ORDER = 24


def _quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use: the production modules
    import this one, and they need only numpy."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _gauss_segments(func, edges: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre integrals of func over consecutive [edges[i], edges[i+1]]."""
    gx, gw = _gauss_rule(order)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * gx[None, :]
    vals = np.asarray(func(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ gw)


def _euler_average(terms: np.ndarray) -> tuple[float, float]:
    """Sum an (eventually) alternating series by iterated averaging.

    Repeated pairwise means of the partial sums converge to the Abel value
    even when term magnitudes grow polynomially.  Returns (value, diff_est)
    where diff_est is the last averaging increment.
    """
    s = np.cumsum(terms)
    prev = s[-1]
    diff = np.inf
    while s.size > 3:
        s = 0.5 * (s[:-1] + s[1:])
        diff = abs(s[-1] - prev)
        prev = s[-1]
    return float(prev), float(diff)


def _oscillatory_tail(func, start: float, half_period: float, n_segments: int,
                      order: int) -> tuple[float, float, int]:
    """Integrate func from start to infinity by half-period partitioning."""
    edges = start + half_period * np.arange(n_segments + 1)
    terms = _gauss_segments(func, edges, order)
    value, diff = _euler_average(terms)
    # error estimate, three components: spread of the accelerated value over
    # several truncation lengths (tail truncation), an embedded lower-order
    # rule on each segment (quadrature truncation), and round-off accumulated
    # over the (possibly huge) alternating terms
    truncations = [_euler_average(terms[: max(4, (n_segments * frac) // 8)])[0]
                   for frac in (4, 5, 6, 7)]
    spread = max(abs(value - t) for t in truncations)
    embedded = _gauss_segments(func, edges, max(8, order - 8))
    quad_err = float(np.abs(terms - embedded).sum())
    noise = 1e-15 * float(np.abs(terms).sum())
    err = 4.0 * diff + 2.0 * spread + quad_err + noise
    return value, err, n_segments


def _default_segments(x: float) -> int:
    # the tail must reach past kappa ~ 25 before asymptotic alternation is
    # clean, which costs ~ x/pi segments per unit kappa
    return max(360, int(60 + 9.0 * x))


# ---------------------------------------------------------------------------
# Polarization-summed, angle-integrated kernel of exp(+-i k.R).
#
# (1/4pi) int dOmega sum_j (e_kj)_m (e_kj)_n exp(i k.R)
#     = delta_mn S1(rho) - Rhat_m Rhat_n S2(rho),   rho = k R,
# with S1 = sin(rho)/rho - sin(rho)/rho^3 + cos(rho)/rho^2 and
# S2 = sin(rho)/rho - 3 sin(rho)/rho^3 + 3 cos(rho)/rho^2.  Power series are
# used below rho = 0.3 where the closed forms cancel catastrophically.
# ---------------------------------------------------------------------------

_RHO_SERIES = 0.3


def angular_kernel(rho):
    """(S1, S2) of the polarization-and-angle integrated mode kernel."""
    rho = np.asarray(rho, dtype=float)
    s1 = np.empty_like(rho)
    s2 = np.empty_like(rho)
    small = np.abs(rho) < _RHO_SERIES
    r2 = rho[small] ** 2
    s1[small] = (2.0 / 3.0 - 2.0 * r2 / 15.0 + r2 * r2 / 140.0
                 - r2**3 / 5670.0 + r2**4 / 399168.0)
    s2[small] = (-r2 / 15.0 + r2 * r2 / 210.0
                 - r2**3 / 7560.0 + r2**4 / 498960.0)
    r = rho[~small]
    s, c = np.sin(r), np.cos(r)
    s1[~small] = s / r - s / r**3 + c / r**2
    s2[~small] = s / r - 3.0 * s / r**3 + 3.0 * c / r**2
    return s1, s2


def _modesum(x: float, cos_ab: float, proj_product: float, power: int,
             resonance: float, n_segments: int | None, order: int):
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if resonance <= 0:
        raise DomainError("resonance parameter must be positive")
    if n_segments is None:
        n_segments = _default_segments(x)

    def integrand(k):
        k = np.asarray(k, dtype=float)
        s1, s2 = angular_kernel(k * x)
        return k**3 / (resonance + k) ** power * (cos_ab * s1 - proj_product * s2)

    half_period = np.pi / x
    head, head_err = _quad(integrand, 0.0, half_period,
                           limit=400, epsabs=0.0, epsrel=1e-12)
    tail, tail_err, used = _oscillatory_tail(integrand, half_period,
                                             half_period, n_segments, order)
    return head + tail, head_err + tail_err, used + 1


def modesum_first_order(x: float, *, cfg: PairConfiguration,
                        resonance: float = 1.0,
                        n_segments: int | None = None,
                        gauss_order: int = _GAUSS_ORDER) -> QuadratureReport:
    """Direct quadrature of the first-order vacuum mode sum, per unit coupling.

    Evaluates -(1/pi) * int_0^inf dk k^3/(resonance + k) K(k x) where K is the
    polarization-and-angle integrated kernel contracted with the dipole
    orientations.  When the closed-form identity holds this equals
    (1/pi) T(x) from the kernel module.
    """
    raw, err, used = _modesum(x, cfg.cos_ab, cfg.proj_product, power=1,
                              resonance=resonance, n_segments=n_segments,
                              order=gauss_order)
    return QuadratureReport(value=-raw / np.pi, abs_err_est=err / np.pi,
                            intervals_used=used, accelerated=True)


def modesum_second_order(x: float, *, cfg: PairConfiguration,
                         n_segments: int | None = None,
                         gauss_order: int = _GAUSS_ORDER) -> QuadratureReport:
    """Cross-coherence kernel with squared denominator, per unit coupling.

    Evaluates (1/pi) * int_0^inf dk k^3/(1 + k)^2 K(k x): the one-photon
    cross term between the two atoms.  Finite without any cutoff, and equal
    to the derivative of the first-order sum with respect to its resonance
    parameter.
    """
    raw, err, used = _modesum(x, cfg.cos_ab, cfg.proj_product, power=2,
                              resonance=1.0, n_segments=n_segments,
                              order=gauss_order)
    return QuadratureReport(value=raw / np.pi, abs_err_est=err / np.pi,
                            intervals_used=used, accelerated=True)


def local_population(cutoff: float) -> QuadratureReport:
    """Cutoff-regularized single-atom photon population per unit coupling.

    (2/3pi) * int_0^cutoff dk k^3/(1+k)^2; separation independent and growing
    like cutoff^2, which is the ultraviolet divergence of the local terms.
    """
    if not (np.isfinite(cutoff) and cutoff > 1):
        raise DomainError(f"cutoff must exceed 1, got {cutoff}")
    val, err = _quad(lambda k: k**3 / (1.0 + k) ** 2, 0.0, cutoff,
                     limit=200, epsabs=0.0, epsrel=1e-12)
    scale = 2.0 / (3.0 * np.pi)
    return QuadratureReport(value=scale * val, abs_err_est=scale * err,
                            intervals_used=1, accelerated=False)


def aux_integral_rep(x: float, which: str) -> QuadratureReport:
    """Laplace-representation oracle for the auxiliary functions.

    f: int_0^inf exp(-x t)/(1+t^2) dt;  g: int_0^inf t exp(-x t)/(1+t^2) dt.
    The substitution t = tan(theta) maps the half line onto [0, pi/2) with a
    bounded integrand (exp(-x tan theta), resp. tan(theta) exp(-x tan theta)),
    so one adaptive pass handles every x > 0.
    """
    if which not in ("f", "g"):
        raise DomainError(f"which must be 'f' or 'g', got {which!r}")
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if which == "f":
        integrand = lambda th: np.exp(-x * np.tan(th))
    else:
        integrand = lambda th: np.tan(th) * np.exp(-x * np.tan(th))
    val, err, info = _quad(integrand, 0.0, np.pi / 2, limit=800,
                           epsabs=1e-14, epsrel=1e-13, full_output=True)[:3]
    return QuadratureReport(value=val, abs_err_est=err,
                            intervals_used=int(info["last"]), accelerated=False)


def field_correlator(x: float, cos_ab: float = 1.0,
                     proj_product: float = 0.0) -> QuadratureReport:
    """Equal-time vacuum field correlator contracted with two orientations.

    Evaluates the Abel-summed radial integral int_0^inf dk k^3 K(k x), in
    units of hbar c k0^4 / pi: the mode sum without its resonance
    denominator.  The closed-form value is (-4 cos_ab + 8 proj_product) / x^4.
    """
    value, err, used = _modesum(x, cos_ab, proj_product, power=0, resonance=1.0,
                                n_segments=None, order=_GAUSS_ORDER)
    return QuadratureReport(value=value, abs_err_est=err, intervals_used=used,
                            accelerated=True)


# ---------------------------------------------------------------------------
# The dispersion-energy radial integral J(x), on the rotated contour and on
# the real wavenumber axis.
# ---------------------------------------------------------------------------

def dispersion_integral_rotated(x: float, p: float, q: float) -> QuadratureReport:
    """The dispersion-energy integral J(x) by adaptive quadrature on the rotated contour.

    J(x) = int_0^inf (p v^2/x + q v/x^2 + q/x^3)^2 exp(-2 v x) / (1 + v^2)^2 dv,
    the square of v^3 times the radiation pattern p/(vx) + q/(vx)^2 + q/(vx)^3
    at imaginary wavenumber i v.  The integrand decays exponentially and
    has no pole on the half line, so one adaptive pass handles it.
    """
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")

    def integrand(v):
        pattern = p * v * v / x + q * v / x**2 + q / x**3
        return pattern * pattern * np.exp(-2.0 * v * x) / (1.0 + v * v) ** 2

    val, err, info = _quad(integrand, 0.0, np.inf, limit=400, epsabs=0.0,
                           epsrel=1e-13, full_output=True)[:3]
    return QuadratureReport(value=val, abs_err_est=err,
                            intervals_used=int(info["last"]), accelerated=False)


def _pi_coefficients(p: float, q: float, x: float) -> np.ndarray:
    """Coefficients (kappa^4 .. kappa^0) of the outgoing-wave polynomial.

    kappa^6 G(kappa x)^2 with G(y) = p/y + i q/y^2 - q/y^3 expands to the
    polynomial p^2 k^4/x^2 + 2ipq k^3/x^3 - (q^2+2pq) k^2/x^4 - 2iq^2 k/x^5
    + q^2/x^6.
    """
    return np.array([
        p * p / x**2,
        2j * p * q / x**3,
        -(q * q + 2 * p * q) / x**4,
        -2j * q * q / x**5,
        q * q / x**6,
    ])


def dispersion_integral_real_axis(x: float, p: float, q: float) -> QuadratureReport:
    """The dispersion-energy integral J(x) evaluated on the real wavenumber axis.

    The integrand Im[N(kappa)] / (kappa - 1)^2, with
    N(kappa) = kappa^6 G(kappa x)^2 exp(2 i kappa x) / (1 + kappa)^2,
    has a second-order resonance pole at kappa = 1.  It is integrated as a
    Hadamard finite part over a symmetric window, with the window handled
    through the Taylor coefficients of N (computed spectrally on a Cauchy
    circle), and the outgoing-wave residue term pi * Re N'(1) subtracted.
    That subtraction is exact for the ground-state (no real photon exchange)
    prescription and makes the result identical to the rotated-contour
    integral.
    """
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    delta = 0.005  # half width of the finite-part window around the pole
    n_segments = max(400, int(100 + 30 * x))
    pi_c = _pi_coefficients(p, q, x)

    def n_complex(kappa):
        kappa = np.asarray(kappa, dtype=complex)
        poly = np.polyval(pi_c, kappa)
        return poly * np.exp(2j * kappa * x) / (1.0 + kappa) ** 2

    def w(kappa):
        kappa = np.asarray(kappa, dtype=float)
        return np.imag(n_complex(kappa)) / (kappa - 1.0) ** 2

    # Taylor coefficients of N around kappa = 1 from a Cauchy circle
    m_nodes = 128
    radius = 0.2
    theta = 2.0 * np.pi * np.arange(m_nodes) / m_nodes
    ring = n_complex(1.0 + radius * np.exp(1j * theta))
    coef = np.array([(ring * np.exp(-1j * k * theta)).mean() / radius**k
                     for k in range(12)])

    left, left_err = _quad(w, 0.0, 1.0 - delta, limit=800,
                           epsabs=0.0, epsrel=1e-12)
    # the first stretch right of the window still feels the pole spike, so it
    # gets adaptive treatment before the fixed-order oscillatory partition
    half_period = np.pi / (2.0 * x)
    spike, spike_err = _quad(w, 1.0 + delta, 1.0 + delta + half_period,
                             limit=800, epsabs=0.0, epsrel=1e-12)
    tail, tail_err, used = _oscillatory_tail(w, 1.0 + delta + half_period,
                                             half_period, n_segments,
                                             _GAUSS_ORDER)
    left += spike
    left_err += spike_err
    window = sum(2.0 * np.imag(coef[k]) * delta ** (k - 1) / (k - 1)
                 for k in range(2, 12, 2))
    finite_part = left + tail + window - 2.0 * np.imag(coef[0]) / delta
    value = finite_part - np.pi * np.real(coef[1])
    err = left_err + tail_err + abs(coef[11]) * delta**10
    return QuadratureReport(value=value, abs_err_est=err,
                            intervals_used=used + 1, accelerated=True)
