"""Independent brute-force validators for every closed form in the package.

These evaluators work directly on the defining integrals, with numpy alone
and nothing from the production closed forms.  Two engines do the work:

* a globally adaptive Gauss-Legendre quadrature over a finite interval
  (`_quad`: the 21-point rule, with the 10-point one for its error
  estimate, as QUADPACK's QAG pairs Gauss and Kronrod rules) for the smooth
  integrals; breakpoints start its partition where an integrand has a
  narrow peak.  f, g and the rotated-contour dispersion integral are
  Laplace integrals, each one `_quad` pass of `_laplace` in u = s v over
  [0, 80];
* `_oscillatory` for the mode sums and the real-axis dispersion integral,
  each written once as phased(u, sin u, cos u) in its phase u >= 0: one
  `_quad` pass on the head [0, pi], then the segments [pi (j+1), pi (j+2)]
  phase-folded (sin u = (-1)^(j+1) sin phi at u = pi (j+1) + phi, with
  the rule's phi cached, so no node calls sin or cos or rounds sin(u) at
  large u) and summed by iterated averaging of the alternating partial
  sums, which sums the conditionally convergent and Abel-summable tails of
  vacuum mode sums where naive truncation fails.  The m rounds of pairwise
  means are binomial means 2^-m sum_i C(m, i) s_(j+i) of the partial sums,
  so a tail of n segments costs O(n) work.

Oracle code is allowed to be slow compared to the closed-form production
paths; its job is to be simple, direct and independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .model import PairConfiguration


@dataclass(frozen=True)
class QuadratureReport:
    """Value of one oracle quadrature and a bound on its error."""

    value: float
    abs_err_est: float


# Gauss-Legendre order of the phase-folded segments of _oscillatory
_GAUSS_ORDER = 24
# most segments of an oscillatory tail, at 40 node values (320 B) each 32 MB:
# a mode sum reaches it near x = 1.1e4, the real-axis integral near 3.3e3
_MAX_SEGMENTS = 100_000
# the orders of _quad's rule and of its embedded error estimate
_QUAD_ORDERS = (21, 10)
# _quad's rounding floor per interval, in ulps of the integral of |f|
_QUAD_ROUNDING = 50.0 * np.finfo(float).eps
# func sees at most this many nodes per call, which bounds the memory its
# temporaries take on a long oscillatory tail
_FUNC_BLOCK = 1 << 14


def _legendre_series(t: np.ndarray, c: list[float]) -> np.ndarray:
    """sum_k c[k] P_k(t) by the Clenshaw recurrence of numpy's legval."""
    nd, c0, c1 = len(c), c[-2], c[-1]
    for ck in c[-3::-1]:
        nd -= 1
        c0, c1 = ck - c1 * ((nd - 1) / nd), c0 + c1 * t * ((2 * nd - 1) / nd)
    return c0 + c1 * t


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule, n >= 2 (A&S 25.4.29), by numpy's
    leggauss steps: eigenvalues of the scaled companion matrix, one Newton
    step (P_n' = sum (2k + 1) P_k, k = n-1, n-3, ...), weights
    1/(P_(n-1) P_n') from max-scaled factors, symmetrised and normalised.
    It matches numpy's rule bit for bit: a Golub-Welsch rule as accurate
    moved modesum_first_order at x = 100 from 2.9e-11 to 1.3e-10 relative
    error, past the mpmath tests' 1e-10.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * n + [1.0]
    derivative = [2.0 * k + 1.0 if (n - 1 - k) % 2 == 0 else 0.0 for k in range(n)]
    dy, df = _legendre_series(t, c), _legendre_series(t, derivative)
    t -= dy / df
    fm = _legendre_series(t, c[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w, t = (w + w[::-1]) / 2, (t - t[::-1]) / 2
    w *= 2.0 / w.sum()
    for a in (t, w):
        a.setflags(write=False)  # shared by every caller
    return t, w


def _gauss_pair(func, lo: np.ndarray, hi: np.ndarray,
                orders: tuple[int, int] = _QUAD_ORDERS, *, where: str
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, error estimates and rounding floors of func's integrals over
    [lo[i], hi[i]] by the Gauss-Legendre rules of two orders, as in _quad.

    func sees the nodes a block of intervals at a time, one row per interval:
    the nodes of the orders[0] rule, then those of the orders[1] rule.  A
    value that is not finite raises AccuracyError naming `where`, before
    numpy warns of it.
    """
    (x_hi, w_hi), (x_lo, w_lo) = (_gauss_rule(n) for n in orders)
    t = np.concatenate((x_hi, x_lo))
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)
    rows = max(1, _FUNC_BLOCK // t.size)
    n = x_hi.size
    with np.errstate(all="ignore"):
        vals = np.concatenate([
            np.asarray(func(mid[i:i + rows] + half[i:i + rows, None] * t), dtype=float)
            for i in range(0, lo.size, rows)])
        value = half * (vals[:, :n] @ w_hi)
        diff = np.abs(value - half * (vals[:, n:] @ w_lo))
    if not np.isfinite(diff).all():  # a value that is not finite makes its diff so
        raise AccuracyError(f"{where}: the integrand is not finite")
    rounding = _QUAD_ROUNDING * half * (np.abs(vals[:, :n]) @ w_hi)
    return value, np.maximum(diff, rounding), rounding


def _quad(func, a: float, b: float, *, where: str, epsrel: float,
          limit: int, points=()) -> tuple[float, float, int]:
    """Globally adaptive Gauss-Legendre quadrature of func over the finite [a, b].

    It serves the smooth integrals and the head [0, pi] of each phase
    integrand of _oscillatory.  func takes and returns 1-d arrays.  Each
    interval's value is the 21-point Gauss-Legendre rule (A&S 25.4.29); its
    error estimate is the difference from the 10-point rule, floored at 50
    ulps of the 21-point integral of |f|, the rounding QUADPACK (Piessens et
    al., 1983) allows for.
    While the summed estimate exceeds epsrel |I|, each pass bisects the
    intervals of largest error that together hold the excess and evaluates
    all the new halves in one _gauss_pair call.  Once every interval's
    estimate is its floor, bisection cannot lower the sum, and the result
    returns with that sum as its estimate, as QUADPACK stops on detecting
    round-off.  The interior breakpoints `points` (ascending, inside
    (a, b)) start the partition.  Returns (value, abs_err_est, intervals);
    needing more than `limit` intervals, or an integrand value that is not
    finite, raises AccuracyError naming `where`, the oracle and its x.
    """
    edges = np.array([a, *points, b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    value, err, floor = _gauss_pair(func, lo, hi, where=where)
    while True:
        total, total_err = value.sum(), err.sum()
        excess = total_err - epsrel * abs(total)
        if excess <= 0.0 or np.array_equal(err, floor):
            return float(total), float(total_err), lo.size
        worst = np.argsort(err)[::-1]
        n_split = min(int(np.searchsorted(np.cumsum(err[worst]), excess)) + 1,
                      lo.size)
        if lo.size + n_split > limit:
            raise AccuracyError(
                f"{where}: the adaptive quadrature needs more than {limit} "
                f"intervals (estimate {total_err:.3g} for {total:.17g})")
        split, keep = worst[:n_split], worst[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        # the kept intervals, then the new halves with their rule values
        added = (new_lo, new_hi, *_gauss_pair(func, new_lo, new_hi, where=where))
        lo, hi, value, err, floor = (np.concatenate((old[keep], new)) for old, new
                                     in zip((lo, hi, value, err, floor), added))


# a full validate run reads 18 distinct m; the bound keeps the weights of
# many long tails (m of 9x at separation x) from piling up
@functools.lru_cache(maxsize=64)
def _binomial_weights(m: int) -> np.ndarray:
    """C(m, i) / 2^m for i = 0..m, the weights of m rounds of pairwise means.

    The ratios C(m, k) / C(m, k - 1) = (m + 1 - k) / k multiply outward from
    the centre, so the weights that matter never underflow; the lower half
    mirrors the upper, and the sum is normalised to 1.
    """
    k = np.arange(m // 2 + 1, m + 1)
    upper = np.cumprod((m + 1 - k) / k)  # C(m, k) / C(m, m // 2)
    centre = [1.0] if m % 2 == 0 else []
    w = np.concatenate((upper[::-1], centre, upper))
    w /= w.sum()
    w.setflags(write=False)  # shared by every caller
    return w


def _euler_average(terms: np.ndarray, lengths) -> tuple[float, float, list[float]]:
    """Sum an (eventually) alternating series by iterated averaging.

    Repeated pairwise means of the partial sums converge to the Abel value
    even when term magnitudes grow polynomially.  Returns (value, diff_est,
    truncated) where diff_est is the last averaging increment and
    truncated[i] is the value for terms[:lengths[i]].

    The rounds run in closed form, the Euler transformation (DLMF 3.9):
    m rounds of pairwise means of the partial sums s leave
    s^(m)_j = 2^-m sum_i C(m, i) s_(j+i), and the first round taken
    explicitly, a = s^(1), gives s^(m)_j = 2^-(m-1) sum_i C(m-1, i) a_(j+i).
    So each read-out is one dot product with binomial weights, O(n) work
    in all.  The explicit round cancels the alternation of s, so the dot
    product rounds like the averages, not like max |s|.  The rounds shrink
    s to three entries: the value of n terms is s^(n-3)_2, diff_est is its
    distance from the last entry of the round before, s^(n-4)_3, and
    truncated[i] is s^(L-3)_2 for L = lengths[i], which uses the first L
    partial sums only.  A length of at most 3 takes no round: its value is
    its last partial sum.
    """
    s = np.cumsum(terms)
    a = 0.5 * (s[:-1] + s[1:])

    def after(rounds: int, j: int) -> float:
        if rounds == 0:
            return float(s[j])
        return float(_binomial_weights(rounds - 1) @ a[j:j + rounds])

    def averaged(length: int) -> float:
        return float(s[length - 1]) if length <= 3 else after(length - 3, 2)

    value = averaged(s.size)
    diff = abs(value - after(s.size - 4, 3)) if s.size > 3 else np.inf
    return value, diff, [averaged(min(n, s.size)) for n in lengths]


@functools.cache
def _rule_phases(order: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of phi = (pi/2)(1 + t) at the nodes t of the order-point rule."""
    phi = 0.5 * np.pi * (1.0 + _gauss_rule(order)[0])
    phases = np.sin(phi), np.cos(phi)
    for a in phases:
        a.setflags(write=False)  # shared by every caller
    return phases


def _oscillatory(phased, n_segments: int, where: str) -> tuple[float, float]:
    """(value, abs_err_est) of the integral over u >= 0 of an integrand that
    oscillates like sin u and cos u, given as phased(u, sin u, cos u).

    The head [0, pi] is one _quad pass on phased(u, sin u, cos u).  Past it,
    segment j = 0 .. n_segments - 1 is [pi (j+1), pi (j+2)] and its nodes
    are u = pi (j+1) + phi, phi = (pi/2)(1 + t) for the rule nodes t, where
    sin u = (-1)^(j+1) sin phi and cos u = (-1)^(j+1) cos phi.  The
    integrand there is (-1)^(j+1) phased(u, sin phi, cos phi), with sin phi
    and cos phi from the cached rule phases, so no node rounds a sine or
    cosine of a large u.  _gauss_pair takes each segment at
    (_GAUSS_ORDER, max(8, _GAUSS_ORDER - 8)); the sign multiplies whole
    segment values, which leaves their error estimates and floors as they are.
    """
    if n_segments > _MAX_SEGMENTS:
        raise DomainError(f"{where}: {n_segments} tail segments exceed {_MAX_SEGMENTS}")
    head, head_err, _ = _quad(lambda u: phased(u, np.sin(u), np.cos(u)), 0.0, np.pi,
                              limit=800, epsrel=1e-12, where=where)
    orders = (_GAUSS_ORDER, max(8, _GAUSS_ORDER - 8))
    (sin_hi, cos_hi), (sin_lo, cos_lo) = (_rule_phases(n) for n in orders)
    sin_phi, cos_phi = np.concatenate((sin_hi, sin_lo)), np.concatenate((cos_hi, cos_lo))
    # in units of pi the edges are the integers j + 1, so every segment is
    # exactly one unit wide, with no rounding in hi - lo to perturb its weight
    j = np.arange(n_segments)
    values, seg_err, _ = _gauss_pair(lambda v: phased(np.pi * v, sin_phi, cos_phi),
                                     j + 1.0, j + 2.0, orders, where=where)
    terms = np.pi * np.where(j % 2 == 0, -values, values)
    # error estimate, three components: spread of the accelerated value over
    # several truncation lengths (tail truncation), the segments' estimates
    # (quadrature truncation, floored at their rounding), and round-off
    # accumulated over the (possibly huge) alternating terms
    value, diff, truncations = _euler_average(
        terms, [max(4, (n_segments * frac) // 8) for frac in (4, 5, 6, 7)])
    spread = max(abs(value - t) for t in truncations)
    noise = 1e-15 * float(np.abs(terms).sum())
    return (head + value, head_err + 4.0 * diff + 2.0 * spread
            + np.pi * float(seg_err.sum()) + noise)


def _default_segments(x: float) -> int:
    # the tail must reach past kappa ~ 25 before asymptotic alternation is
    # clean, which costs ~ x/pi segments per unit kappa
    return max(360, int(60 + 9.0 * x))


def _modesum(name: str, x: float, cos_ab: float, proj_product: float, power: int,
             resonance: float):
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    if resonance <= 0:
        raise DomainError("resonance parameter must be positive")

    # the phase is rho = k x.  The polarization-summed, angle-integrated
    # kernel of exp(i k.R) is K = cos_ab S1(rho) - proj_product S2(rho), with
    # S1 = sin/rho - sin/rho^3 + cos/rho^2 and S2 = sin/rho - 3 sin/rho^3
    # + 3 cos/rho^2.  With p = cos_ab - proj_product and
    # q = cos_ab - 3 proj_product, rho K is
    # pattern = sin(rho) (p - q/rho^2) + q cos(rho)/rho, and the integrand
    # k^3/(resonance + k)^power K dk becomes
    # rho^2 pattern / ((resonance x + rho)^power x^(4 - power)) drho
    p, q = cos_ab - proj_product, cos_ab - 3.0 * proj_product

    def phased(rho, sin_rho, cos_rho):
        pattern = sin_rho * (p - q / (rho * rho)) + q * cos_rho / rho
        return rho * rho / (resonance * x + rho) ** power * pattern / x ** (4 - power)

    return _oscillatory(phased, _default_segments(x), where=f"oracle.{name} at x={x!r}")


def modesum_first_order(x: float, *, cfg: PairConfiguration,
                        resonance: float = 1.0) -> QuadratureReport:
    """Direct quadrature of the first-order vacuum mode sum, per unit coupling.

    Evaluates -(1/pi) * int_0^inf dk k^3/(resonance + k) K(k x) where K is the
    polarization-and-angle integrated kernel contracted with the dipole
    orientations.  When the closed-form identity holds this equals
    (1/pi) T(x) from the kernel module.
    """
    raw, err = _modesum("modesum_first_order", x, cfg.cos_ab, cfg.proj_product,
                        power=1, resonance=resonance)
    return QuadratureReport(value=-raw / np.pi, abs_err_est=err / np.pi)


def modesum_second_order(x: float, *, cfg: PairConfiguration) -> QuadratureReport:
    """Cross-coherence kernel with squared denominator, per unit coupling.

    Evaluates (1/pi) * int_0^inf dk k^3/(1 + k)^2 K(k x): the one-photon
    cross term between the two atoms.  Finite without any cutoff, and equal
    to the derivative of the first-order sum with respect to its resonance
    parameter.
    """
    raw, err = _modesum("modesum_second_order", x, cfg.cos_ab, cfg.proj_product,
                        power=2, resonance=1.0)
    return QuadratureReport(value=raw / np.pi, abs_err_est=err / np.pi)


def local_population(cutoff: float) -> QuadratureReport:
    """Cutoff-regularized single-atom photon population per unit coupling.

    (2/3pi) * int_0^cutoff dk k^3/(1+k)^2; separation independent and growing
    like cutoff^2, which is the ultraviolet divergence of the local terms.
    """
    if not (np.isfinite(cutoff) and cutoff > 1):
        raise DomainError(f"cutoff must exceed 1, got {cutoff}")
    val, err, _ = _quad(lambda k: k**3 / (1.0 + k) ** 2, 0.0, cutoff,
                        limit=200, epsrel=1e-12,
                        where=f"oracle.local_population at cutoff={cutoff!r}")
    scale = 2.0 / (3.0 * np.pi)
    return QuadratureReport(value=scale * val, abs_err_est=scale * err)


# exp(-80) = 1.8e-35: _laplace's integrand is below every tolerance past it
_LAPLACE_END = 80.0


def _laplace(s: float, weight, power: int, where: str) -> QuadratureReport:
    """int_0^inf exp(-s v) weight(v)/(1 + v^2)^power dv, with its error estimate.

    One _quad pass in u = s v over [0, 80].  1/(1 + v^2) falls off from u = s
    on and exp(-u) on u of order 1, so the partition starts at u = s/4 times
    the powers of 4 and at u = 2, 6, 14, 30, those below 80: no scale is
    stepped over (f came out 16% low below x = 1e-15 with s/4, s, 4s alone),
    and a moderate s needs no bisection.  Below s = 1e-150, 1 + v^2 overflows.
    """
    if s < 1e-150:
        raise DomainError(f"{where}: out of range, 1 + (u/s)^2 overflows")

    def integrand(u):
        v = u / s
        return np.exp(-u) * weight(v) / (1.0 + v * v) ** power

    graded = s * 4.0 ** np.arange(-1.0, math.log(_LAPLACE_END / s, 4))
    points = sorted({u for u in (*graded, 2.0, 6.0, 14.0, 30.0) if u < _LAPLACE_END})
    val, err, _ = _quad(integrand, 0.0, _LAPLACE_END, limit=800, epsrel=1e-13,
                        points=points, where=where)
    return QuadratureReport(value=val / s, abs_err_est=err / s)


def aux_integral_rep(x: float, which: str) -> QuadratureReport:
    """Laplace-representation oracle for the auxiliary functions.

    f: int_0^inf exp(-x t)/(1+t^2) dt;  g: int_0^inf t exp(-x t)/(1+t^2) dt,
    each one _laplace pass.
    """
    if which not in ("f", "g"):
        raise DomainError(f"which must be 'f' or 'g', got {which!r}")
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")
    weight = (lambda t: 1.0) if which == "f" else (lambda t: t)
    return _laplace(x, weight, 1,
                    where=f"oracle.aux_integral_rep({which!r}) at x={x!r}")


def field_correlator(x: float, cos_ab: float, proj_product: float) -> QuadratureReport:
    """Equal-time vacuum field correlator contracted with two orientations.

    Evaluates the Abel-summed radial integral int_0^inf dk k^3 K(k x), in
    units of hbar c k0^4 / pi: the mode sum without its resonance
    denominator.  The closed-form value is (-4 cos_ab + 8 proj_product) / x^4.
    """
    value, err = _modesum("field_correlator", x, cos_ab, proj_product, power=0,
                          resonance=1.0)
    return QuadratureReport(value=value, abs_err_est=err)


# ---------------------------------------------------------------------------
# The dispersion-energy radial integral J(x), on the rotated contour and on
# the real wavenumber axis.
# ---------------------------------------------------------------------------

def dispersion_integral_rotated(x: float, p: float, q: float) -> QuadratureReport:
    """The dispersion-energy integral J(x) by adaptive quadrature on the rotated contour.

    J(x) = int_0^inf (p v^2/x + q v/x^2 + q/x^3)^2 exp(-2 v x) / (1 + v^2)^2 dv,
    the square of v^3 times the radiation pattern p/(vx) + q/(vx)^2 + q/(vx)^3
    at imaginary wavenumber i v: one _laplace pass at s = 2x, which holds
    its accuracy from x = 1e-6 to 1e12.
    """
    if not (np.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and positive, got {x}")

    def pattern_squared(v):
        pattern = p * v * v / x + q * v / x**2 + q / x**3
        return pattern * pattern

    return _laplace(2.0 * x, pattern_squared, 2,
                    where=f"oracle.dispersion_integral_rotated at x={x!r}")


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

    # Taylor coefficients of N around kappa = 1 from a Cauchy circle; N grows
    # like exp(2 x r) on a circle of radius r, so a radius that shrinks as
    # 1/x from x = 5 on keeps the coefficients' rounding below the window's
    m_nodes = 128
    radius = 0.2 * min(1.0, 5.0 / x)
    theta = 2.0 * np.pi * np.arange(m_nodes) / m_nodes
    ring = n_complex(1.0 + radius * np.exp(1j * theta))
    coef = np.array([(ring * np.exp(-1j * k * theta)).mean() / radius**k
                     for k in range(12)])

    # the phase u = 2 x (kappa - 1 - delta), so that
    # exp(2 i kappa x) = exp(2 i x (1 + delta)) exp(i u); u >= 0 is right of
    # the window, and its head [0, pi] holds the pole spike
    base_phase = np.exp(2j * x * (1.0 + delta))

    def phased(u, sin_u, cos_u):
        kappa = 1.0 + delta + u / (2.0 * x)
        phase = base_phase * (cos_u + 1j * sin_u)
        n_kappa = np.polyval(pi_c, kappa) * phase / (1.0 + kappa) ** 2
        return np.imag(n_kappa) / (kappa - 1.0) ** 2 / (2.0 * x)

    where = f"oracle.dispersion_integral_real_axis at x={x!r}"
    right, right_err = _oscillatory(phased, n_segments, where)  # checks the budget first
    # left of the window: kappa in [0, 1 - delta] is u in [-2x (1 + delta), -4x delta]
    left, left_err, _ = _quad(lambda u: phased(u, np.sin(u), np.cos(u)),
                              -2.0 * x * (1.0 + delta), -4.0 * x * delta,
                              limit=800, epsrel=1e-12, where=where)
    window = sum(2.0 * np.imag(coef[k]) * delta ** (k - 1) / (k - 1)
                 for k in range(2, 12, 2))
    finite_part = left + right + window - 2.0 * np.imag(coef[0]) / delta
    err = left_err + right_err + abs(coef[11]) * delta**10
    return QuadratureReport(value=finite_part - np.pi * np.real(coef[1]),
                            abs_err_est=err)
