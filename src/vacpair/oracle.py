"""Independent brute-force validators for every closed form in the package.

These evaluators work directly on the defining integrals, with numpy alone
and nothing from the production closed forms.  Two engines do the work:

* a globally adaptive Gauss-Legendre quadrature over a finite interval
  (`_quad`: the 21-point rule, with the 10-point one for its error
  estimate, as QUADPACK's QAG pairs Gauss and Kronrod rules) for the smooth
  integrals.  One call takes many integrals, one per row: each starts on a
  partition graded by its integrand's own feature scale (a + scale 4^k,
  with breakpoints where an integrand has a narrow peak), stops once its
  estimate less its rounding floors meets the target, and each pass
  evaluates the new halves of every open row in one integrand call.  f, g
  and the rotated-contour dispersion integral are Laplace integrals, one
  `_quad` row of `_laplace` each, in u = s v over [0, 80];
* `_oscillatory` for the mode sums and the real-axis dispersion integral,
  each written once as phased(u, sin u, cos u) in its phase u >= 0: one
  `_quad` call on the heads [0, pi], then the segments [pi (j+1), pi (j+2)]
  of every row in one integrand call, phase-folded (sin u = (-1)^(j+1)
  sin phi at u = pi (j+1) + phi, with the rule's phi cached, so no node
  calls sin or cos or rounds sin(u) at large u) and summed row by row by
  iterated averaging of the alternating partial sums, which sums the
  conditionally convergent and Abel-summable tails of vacuum mode sums
  where naive truncation fails.  The m rounds of pairwise means are
  binomial means 2^-m sum_i C(m, i) s_(j+i) of the partial sums, so a tail
  of n segments costs O(n) work.  Every tail is _TAIL_SEGMENTS = 40
  segments at every x: the Euler transformation (DLMF 3.9) sums a smooth
  alternating tail from any length, and a longer tail only adds round-off
  over terms that grow like u^2.  So from x = 1e-6 to 1e12 the first-order
  mode sum and the field correlator hold 1e-10 of their exact values, and
  every mode sum's estimate bounds its error.

The mode sums, `aux_integral_rep` and `dispersion_integral_rotated` take x
as a float or a 1-d array, one row per x, and each entry of an array call
is its float call bit for bit: a row's partition, stop and sums never
depend on the rows beside it.

Oracle code is allowed to be slow compared to the closed-form production
paths; its job is to be simple, direct and independent.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._record import Record
from .errors import AccuracyError, DomainError
from .model import PairConfiguration


class QuadratureReport(Record):
    """Value of an oracle quadrature and a bound on its error: floats, or
    arrays of one entry per x for an array x."""

    value: float | np.ndarray
    abs_err_est: float | np.ndarray


# Gauss-Legendre order of the phase-folded segments of _oscillatory
_GAUSS_ORDER = 24
# half-period segments of every oscillatory tail past its head [0, pi], at
# every x
_TAIL_SEGMENTS = 40
# rows whose tails share one _gauss_pair call: a long x array holds the
# segment edges, values and estimates of this many tails at a time
_TAIL_ROWS = 256
# the orders of _quad's rule and of its embedded error estimate
_QUAD_ORDERS = (21, 10)
# _quad's rounding floor per interval, in ulps of the integral of |f|
_QUAD_ROUNDING = 50.0 * np.finfo(float).eps
# func sees at most this many nodes per call, and _gauss_pair sums them
# before the next call, which bounds the memory a call over many intervals takes
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
                orders: tuple[int, int] = _QUAD_ORDERS, *, where, rows=None, args=()
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, error estimates and rounding floors of func's integrals over
    [lo[i], hi[i]] by the Gauss-Legendre rules of two orders, as in _quad.

    func sees the nodes a block of intervals at a time, one row per interval:
    the nodes of the orders[0] rule, then those of the orders[1] rule, and
    after them one column for each array in args, whose entry rows[i] goes
    with interval i.  Each rule sums its row elementwise, so an interval's
    bits do not depend on the other intervals of the call, and block by
    block, so a call holds one block's values at a time.  A value that is
    not finite raises AccuracyError naming `where` (or where[rows[i]] for
    the first such interval i), before numpy warns of it.
    """
    (x_hi, w_hi), (x_lo, w_lo) = (_gauss_rule(n) for n in orders)
    t = np.concatenate((x_hi, x_lo))
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)
    cols = [np.asarray(arg)[rows, None] for arg in args]
    block = max(1, _FUNC_BLOCK // t.size)
    n = x_hi.size

    def rule_sums(i):
        # both rules and the rule of |f|, summed row by row within the block;
        # the weights are positive, so |f w| rounds as |f| w does
        vals = np.asarray(func(mid[i:i + block] + half[i:i + block, None] * t,
                               *(c[i:i + block] for c in cols)), dtype=float)
        terms = vals[:, :n] * w_hi
        return [terms.sum(axis=1), (vals[:, n:] * w_lo).sum(axis=1),
                np.abs(terms, out=terms).sum(axis=1)]

    with np.errstate(all="ignore"):
        high, low, magnitude = np.concatenate(
            [rule_sums(i) for i in range(0, lo.size, block)], axis=1)
        value = half * high
        diff = np.abs(value - half * low)
    bad = ~np.isfinite(diff)  # a value that is not finite makes its diff so
    if np.count_nonzero(bad):
        i = np.flatnonzero(bad)[0]
        raise AccuracyError(f"{where if rows is None else where[rows[i]]}: "
                            "the integrand is not finite")
    rounding = _QUAD_ROUNDING * half * magnitude
    return value, np.maximum(diff, rounding), rounding


def _start_partition(a: float, b: float, scale: float, points=()) -> list[float]:
    """The edges _quad starts an integral on: a, then a + scale 4^k for
    k >= -1 and the breakpoints `points`, those inside (a, b), then b."""
    graded = []
    # scale 4^k by ldexp, with no power of 4 to overflow; 4^1049 takes the
    # least subnormal scale past the largest float
    for k in range(-1, 1050):
        u = a + math.ldexp(scale, 2 * k)
        if not u < b:
            break
        graded.append(u)
    return [a, *sorted({u for u in (*graded, *points) if a < u < b}), b]


def _quad(func, a, b, *, scale, where, epsrel: float, limit: int, points=(), args=()
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Globally adaptive Gauss-Legendre quadrature of integrals over finite
    [a, b], one per entry of a, b and scale, floats or 1-d arrays broadcast
    together.

    It serves the smooth integrals and the head [0, pi] of each phase
    integrand of _oscillatory.  func takes the nodes as a 2-d array, one row
    per interval, then one column for each array in args (one entry per
    integral), and returns its values in the nodes' shape.  Each interval's
    value is the 21-point Gauss-Legendre rule (A&S 25.4.29); its error
    estimate is the difference from the 10-point rule, floored at 50 ulps of
    the 21-point integral of |f|, the rounding QUADPACK (Piessens et al.,
    1983) allows for.
    Integral r starts on the graded partition a[r] + scale[r] 4^k, k >= -1,
    below b[r], where scale[r] is the distance of its integrand's feature
    (a pole, a peak) from a[r], with the breakpoints `points` added
    (_start_partition): each interval then sees the feature from a few of
    its own widths away, and one pass usually meets the target.  An
    integral is done once its estimates less their floors sum to at most
    epsrel |I|: bisection lowers only that part, so an integral whose floor
    exceeds the target returns with the floor in its estimate, as QUADPACK
    stops on detecting round-off.  While any is open, each pass bisects,
    in every open integral, the intervals of largest reducible error that
    together hold its excess, and evaluates all the new halves in one
    _gauss_pair call.  An integral's intervals keep one order whatever
    others share its passes, and its sums run in that order, so each
    integral's bits are those of its call alone.  Returns (value,
    abs_err_est, intervals), arrays of one entry per integral; needing more
    than `limit` intervals, or an integrand value that is not finite,
    raises AccuracyError naming `where` (one str, or one per integral), and
    an args array of other than one entry per integral raises ValueError.
    """
    bounds = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in (a, b, scale)))
    n = bounds[0].size
    if any(np.shape(arg) != (n,) for arg in args):
        raise ValueError(f"{n} integrals, but args of shapes {[np.shape(v) for v in args]}")
    names = [where] * n if isinstance(where, str) else where
    edges = [_start_partition(*row_bounds, points)
             for row_bounds in zip(*(v.tolist() for v in bounds))]
    row = np.repeat(np.arange(n), [len(e) - 1 for e in edges])
    lo = np.array([u for e in edges for u in e[:-1]])
    hi = np.array([u for e in edges for u in e[1:]])
    value, err, floor = _gauss_pair(func, lo, hi, where=names, rows=row, args=args)
    total, total_err, used = np.empty(n), np.empty(n), np.empty(n, dtype=int)
    is_open = np.ones(n, dtype=bool)
    while True:
        key = err - floor  # the part of each estimate that bisection can lower
        count = np.bincount(row, minlength=n)
        sums, sums_err, reducible = (np.bincount(row, w, minlength=n)
                                     for w in (value, err, key))
        excess = reducible - epsrel * np.abs(sums)
        done = is_open & (excess <= 0.0)
        total[done], total_err[done], used[done] = sums[done], sums_err[done], count[done]
        is_open &= ~done
        if not np.count_nonzero(is_open):
            return total, total_err, used
        # the open integrals' intervals, each integral's by descending key,
        # and in each the keys before it, summed in that order
        order = np.lexsort((-key, row))
        order = order[is_open[row[order]]]
        lo, hi, row, value, err, floor, key = (
            v[order] for v in (lo, hi, row, value, err, floor, key))
        pos = np.arange(row.size) - np.searchsorted(row, row)
        before = np.zeros((n, pos.max() + 2))
        before[row, pos + 1] = key
        split = np.cumsum(before, axis=1)[row, pos] < excess[row]
        over = count + np.bincount(row[split], minlength=n) > limit
        if np.count_nonzero(over):
            r = np.flatnonzero(over)[0]
            raise AccuracyError(
                f"{names[r]}: the adaptive quadrature needs more than {limit} "
                f"intervals (estimate {sums_err[r]:.3g} for {sums[r]:.17g})")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_row = np.tile(row[split], 2)
        # the kept intervals, then the new halves with their rule values
        added = (new_lo, new_hi, new_row,
                 *_gauss_pair(func, new_lo, new_hi, where=names, rows=new_row, args=args))
        lo, hi, row, value, err, floor = (
            np.concatenate((old[~split], new)) for old, new
            in zip((lo, hi, row, value, err, floor), added))


@functools.cache
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


def _oscillatory(phased, where, *, scale, args=()) -> tuple[np.ndarray, np.ndarray]:
    """(value, abs_err_est), arrays of one entry per integral, of integrals
    over u >= 0 of integrands that oscillate like sin u and cos u, given as
    phased(u, sin u, cos u, *columns of args), as _quad hands func its args.

    where (the names for errors) and scale hold one entry per integral, as
    does each array in args.  The heads [0, pi] are one _quad call on
    phased(u, sin u, cos u), graded from 0 by scale, with a breakpoint at
    pi/2, where sin u turns (without it one of 660 mode-sum heads at x in
    [1e-3, 300] took a second pass, its last interval [0.8, pi] at
    x = 0.05).  Past the head, segment j = 0 .. _TAIL_SEGMENTS - 1 is
    [pi (j+1), pi (j+2)] and its nodes are u = pi (j+1) + phi,
    phi = (pi/2)(1 + t) for the rule nodes t, where
    sin u = (-1)^(j+1) sin phi and cos u = (-1)^(j+1) cos phi.  The
    integrand there is (-1)^(j+1) phased(u, sin phi, cos phi), with sin phi
    and cos phi from the cached rule phases, so no node rounds a sine or
    cosine of a large u.  One _gauss_pair call takes the segments of
    _TAIL_ROWS consecutive integrals at (_GAUSS_ORDER,
    max(8, _GAUSS_ORDER - 8)); the sign multiplies whole segment values,
    which leaves their error estimates and floors as they are.  Each
    integral's tail has its own Euler average.
    """
    value, err, _ = _quad(lambda u, *cols: phased(u, np.sin(u), np.cos(u), *cols),
                          0.0, np.pi, scale=scale, limit=800, epsrel=1e-12,
                          points=(0.5 * np.pi,), where=where, args=args)
    orders = (_GAUSS_ORDER, max(8, _GAUSS_ORDER - 8))
    (sin_hi, cos_hi), (sin_lo, cos_lo) = (_rule_phases(n) for n in orders)
    sin_phi, cos_phi = np.concatenate((sin_hi, sin_lo)), np.concatenate((cos_hi, cos_lo))
    n = _TAIL_SEGMENTS
    for start in range(0, value.size, _TAIL_ROWS):
        block = np.arange(start, min(start + _TAIL_ROWS, value.size))
        rows = np.repeat(block, n)
        # in units of pi the edges are the integers j + 1, so every segment
        # is exactly one unit wide, with no rounding in hi - lo to perturb
        # its weight
        j = np.arange(rows.size) % n
        values, seg_err, _ = _gauss_pair(
            lambda v, *cols: phased(np.pi * v, sin_phi, cos_phi, *cols),
            j + 1.0, j + 2.0, orders, where=where, rows=rows, args=args)
        terms = np.pi * np.where(j % 2 == 0, -values, values)
        for r, tail_terms, tail_seg_err in zip(block.tolist(), terms.reshape(-1, n),
                                               seg_err.reshape(-1, n)):
            tail_value, tail_err = _tail(tail_terms, tail_seg_err)
            value[r] += tail_value
            err[r] += tail_err
    return value, err


def _tail(terms: np.ndarray, seg_err: np.ndarray) -> tuple[float, float]:
    """The Euler sum of one integral's signed segment values, and its error
    estimate, of three components: the spread of the accelerated value over
    several truncation lengths (tail truncation), the segments' estimates
    (quadrature truncation, floored at their rounding), and round-off
    accumulated over the (possibly huge) alternating terms."""
    n = terms.size
    value, diff, truncations = _euler_average(
        terms, [max(4, (n * frac) // 8) for frac in (4, 5, 6, 7)])
    spread = max(abs(value - t) for t in truncations)
    noise = 1e-15 * float(np.abs(terms).sum())
    return value, 4.0 * diff + 2.0 * spread + np.pi * float(seg_err.sum()) + noise


def _rows(x) -> np.ndarray:
    """x, a float or a nonempty 1-d array, as a 1-d float array, each entry
    finite and positive."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or not xs.size:
        raise DomainError(f"x must be a float or a nonempty 1-d array, got shape {xs.shape}")
    bad = ~(np.isfinite(xs) & (xs > 0))
    if np.count_nonzero(bad):
        raise DomainError(f"x must be finite and positive, got {xs[bad][0].item()}")
    return xs


def _report(x, value: np.ndarray, err: np.ndarray) -> QuadratureReport:
    """One report of arrays, or of floats for a float x."""
    if np.ndim(x):
        return QuadratureReport(value=value, abs_err_est=err)
    return QuadratureReport(value=value.item(), abs_err_est=err.item())


def _modesum(name: str, x, cos_ab: float, proj_product: float, power: int,
             resonance: float):
    xs = _rows(x)
    if resonance <= 0:
        raise DomainError("resonance parameter must be positive")

    # the phase is rho = k x.  The polarization-summed, angle-integrated
    # kernel of exp(i k.R) is K = cos_ab S1(rho) - proj_product S2(rho), with
    # S1 = sin/rho - sin/rho^3 + cos/rho^2 and S2 = sin/rho - 3 sin/rho^3
    # + 3 cos/rho^2.  With p = cos_ab - proj_product and
    # q = cos_ab - 3 proj_product, rho K is
    # pattern = sin(rho) (p - q/rho^2) + q cos(rho)/rho, and the integrand
    # k^3/(resonance + k)^power K dk becomes
    # rho^2 pattern / ((resonance x + rho)^power x^(4 - power)) drho, whose
    # pole at rho = -resonance x grades the head
    p, q = cos_ab - proj_product, cos_ab - 3.0 * proj_product

    def phased(rho, sin_rho, cos_rho, x):
        # rho^2 pattern = (p rho^2 - q) sin rho + q rho cos rho
        numerator = (p * rho * rho - q) * sin_rho + rho * (q * cos_rho)
        return numerator / ((resonance * x + rho) ** power * x ** (4 - power))

    return _oscillatory(phased, [f"oracle.{name} at x={v!r}" for v in xs.tolist()],
                        scale=resonance * xs, args=(xs,))


def modesum_first_order(x: float, *, cfg: PairConfiguration,
                        resonance: float = 1.0) -> QuadratureReport:
    """Direct quadrature of the first-order vacuum mode sum, per unit coupling.

    Evaluates -(1/pi) * int_0^inf dk k^3/(resonance + k) K(k x) where K is the
    polarization-and-angle integrated kernel contracted with the dipole
    orientations.  When the closed-form identity holds this equals
    (1/pi) T(x) from the kernel module.  x is a float or a 1-d array, with
    one value per x, each the bits of its float call.
    """
    raw, err = _modesum("modesum_first_order", x, cfg.cos_ab, cfg.proj_product,
                        power=1, resonance=resonance)
    return _report(x, -raw / np.pi, err / np.pi)


def modesum_second_order(x: float, *, cfg: PairConfiguration) -> QuadratureReport:
    """Cross-coherence kernel with squared denominator, per unit coupling.

    Evaluates (1/pi) * int_0^inf dk k^3/(1 + k)^2 K(k x): the one-photon
    cross term between the two atoms.  Finite without any cutoff, and equal
    to the derivative of the first-order sum with respect to its resonance
    parameter.  x is a float or a 1-d array, as in modesum_first_order.
    """
    raw, err = _modesum("modesum_second_order", x, cfg.cos_ab, cfg.proj_product,
                        power=2, resonance=1.0)
    return _report(x, raw / np.pi, err / np.pi)


def local_population(cutoff: float) -> QuadratureReport:
    """Cutoff-regularized single-atom photon population per unit coupling.

    (2/3pi) * int_0^cutoff dk k^3/(1+k)^2; separation independent and growing
    like cutoff^2, which is the ultraviolet divergence of the local terms.
    """
    if not (np.isfinite(cutoff) and cutoff > 1):
        raise DomainError(f"cutoff must exceed 1, got {cutoff}")
    # the integrand's pole at k = -1 grades the partition from 0 by 1
    val, err, _ = _quad(lambda k: k**3 / (1.0 + k) ** 2, 0.0, cutoff, scale=1.0,
                        limit=200, epsrel=1e-12,
                        where=f"oracle.local_population at cutoff={cutoff!r}")
    scale = 2.0 / (3.0 * np.pi)
    return QuadratureReport(value=scale * val.item(), abs_err_est=scale * err.item())


# exp(-80) = 1.8e-35: _laplace's integrand is below every tolerance past it
_LAPLACE_END = 80.0


def _laplace(s: np.ndarray, weight, power: int, where: list[str], args=()
             ) -> tuple[np.ndarray, np.ndarray]:
    """int_0^inf exp(-s v) weight(v, *args)/(1 + v^2)^power dv, with its
    error estimate, at each s of the 1-d array s: two arrays.

    One _quad call in u = s v over [0, 80], each s a row whose entry of
    each array in args reaches weight as a column.  1/(1 + v^2) falls off
    from u = s on and exp(-u) on u of order 1, so each partition starts
    graded by s (at s/4 times the powers of 4) with the breakpoints
    u = 2, 6, 14, 30: no scale is stepped over (f came out 16% low below
    x = 1e-15 with s/4, s, 4s alone), and a moderate s needs no bisection.
    Below s = 1e-150, 1 + v^2 overflows.
    """
    low = s < 1e-150
    if np.count_nonzero(low):
        raise DomainError(f"{where[np.flatnonzero(low)[0]]}: out of range, "
                          "1 + (u/s)^2 overflows")

    def integrand(u, s, *cols):
        v = u / s
        return np.exp(-u) * weight(v, *cols) / (1.0 + v * v) ** power

    val, err, _ = _quad(integrand, 0.0, _LAPLACE_END, scale=s, limit=800, epsrel=1e-13,
                        points=(2.0, 6.0, 14.0, 30.0), where=where, args=(s, *args))
    return val / s, err / s


def aux_integral_rep(x: float, which: str) -> QuadratureReport:
    """Laplace-representation oracle for the auxiliary functions.

    f: int_0^inf exp(-x t)/(1+t^2) dt;  g: int_0^inf t exp(-x t)/(1+t^2) dt,
    one _laplace call for every x of a float or a 1-d array.
    """
    if which not in ("f", "g"):
        raise DomainError(f"which must be 'f' or 'g', got {which!r}")
    xs = _rows(x)
    weight = (lambda t: 1.0) if which == "f" else (lambda t: t)
    return _report(x, *_laplace(xs, weight, 1, [
        f"oracle.aux_integral_rep({which!r}) at x={v!r}" for v in xs.tolist()]))


def field_correlator(x: float, cos_ab: float, proj_product: float) -> QuadratureReport:
    """Equal-time vacuum field correlator contracted with two orientations.

    Evaluates the Abel-summed radial integral int_0^inf dk k^3 K(k x), in
    units of hbar c k0^4 / pi: the mode sum without its resonance
    denominator.  The closed-form value is (-4 cos_ab + 8 proj_product) / x^4.
    """
    value, err = _modesum("field_correlator", x, cos_ab, proj_product, power=0,
                          resonance=1.0)
    return _report(x, value, err)


# ---------------------------------------------------------------------------
# The dispersion-energy radial integral J(x), on the rotated contour and on
# the real wavenumber axis.
# ---------------------------------------------------------------------------

def dispersion_integral_rotated(x: float, p: float, q: float) -> QuadratureReport:
    """The dispersion-energy integral J(x) by adaptive quadrature on the rotated contour.

    J(x) = int_0^inf (p v^2/x + q v/x^2 + q/x^3)^2 exp(-2 v x) / (1 + v^2)^2 dv,
    the square of v^3 times the radiation pattern p/(vx) + q/(vx)^2 + q/(vx)^3
    at imaginary wavenumber i v: one _laplace call at s = 2x for every x of
    a float or a 1-d array, which holds its accuracy from x = 1e-6 to 1e12.
    """
    xs = _rows(x)

    def pattern_squared(v, x):
        pattern = p * v * v / x + q * v / x**2 + q / x**3
        return pattern * pattern

    return _report(x, *_laplace(2.0 * xs, pattern_squared, 2, [
        f"oracle.dispersion_integral_rotated at x={v!r}" for v in xs.tolist()],
        args=(xs,)))


def _pi_coefficients(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """Coefficients (kappa^4 .. kappa^0) of the outgoing-wave polynomial, a
    row each, with one column per x of the 1-d x.

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

    J(x) = Im int N(kappa) / (kappa - 1)^2 dkappa over kappa >= 0, with
    N(kappa) = kappa^6 G(kappa x)^2 exp(2 i kappa x) / (1 + kappa)^2, on a
    contour indented above the resonance pole at kappa = 1 by the arc
    kappa = 1 + delta e^(i theta), theta from pi to 0.  On the arc
    N(1)/(kappa - 1)^2 gives -2 N(1)/delta, the Hadamard finite part, and
    N'(1)/(kappa - 1) gives -i pi N'(1), the outgoing-wave residue term of
    the ground-state (no real photon exchange) prescription, so the result
    equals the rotated-contour integral.  The real axis left and right of
    the arc is graded toward the pole, 2 x delta in the phase u beyond each
    end.  x is a float or a 1-d array, as in the mode sums.

    Against the rotated contour, in the transverse, longitudinal and mixed
    geometries: a relative error of at most 2e-14 for x <= 1, 2e-11 at 5,
    1e-6 at 50 and 2e-3 at 300, within the estimate up to x = 1000.  At and
    below x = 5e-3 (transverse), 6e-3 (longitudinal) or 2e-3 (mixed), and
    from about x = 1.9e3 (2.5e3 transverse) on, where the real axis left of
    the arc holds more periods of the phase than it resolves, the adaptive
    quadrature needs more than 800 intervals: AccuracyError.
    """
    xs = _rows(x)
    names = [f"oracle.dispersion_integral_real_axis at x={v!r}" for v in xs.tolist()]
    delta = 0.05  # radius of the arc around the pole
    with np.errstate(all="ignore"):  # a power of x out of range raises in _quad
        pi_c = _pi_coefficients(p, q, xs)

    # the phase u = 2 x (kappa - 1 - delta), so that exp(2 i kappa x) =
    # exp(i (b + u)) with b = 2 x (1 + delta); u >= 0 is right of the arc,
    # and its head [0, pi] holds the pole spike
    base = 2.0 * xs * (1.0 + delta)

    def phased(u, sin_u, cos_u, x, sin_b, cos_b, c0, c1, c2, c3, c4):
        # the polynomial's even powers have real coefficients and its odd
        # ones imaginary, so Im[N] (1 + kappa)^2 is its even part times
        # sin(b + u) plus its odd part over i times cos(b + u)
        kappa = 1.0 + delta + u / (2.0 * x)
        k2 = kappa * kappa
        sin_phase = sin_b * cos_u + cos_b * sin_u
        cos_phase = cos_b * cos_u - sin_b * sin_u
        im_n = ((c0 * k2 + c2) * k2 + c4) * sin_phase + (c1 * k2 + c3) * kappa * cos_phase
        return im_n / (((1.0 + kappa) * (kappa - 1.0)) ** 2 * (2.0 * x))

    args = (xs, np.sin(base), np.cos(base), pi_c[0].real, pi_c[1].imag, pi_c[2].real,
            pi_c[3].imag, pi_c[4].real)
    pole = 2.0 * xs * delta
    right, right_err = _oscillatory(phased, names, scale=pole, args=args)
    # left of the arc: kappa in [0, 1 - delta] is u in [-2x (1 + delta),
    # -2 pole], integrated in w = -u from 2 pole so as to grade toward the pole
    left, left_err, _ = _quad(lambda w, *cols: phased(-w, -np.sin(w), np.cos(w), *cols),
                              2.0 * pole, base, scale=pole,
                              limit=800, epsrel=1e-12, where=names, args=args)

    def on_arc(theta, x, *c):
        # Im[F dkappa/dtheta] = Im[N(kappa) / (i delta e^(i theta))]
        step = delta * np.exp(1j * theta)
        n = np.polyval(c, 1.0 + step) * np.exp(2j * (1.0 + step) * x) / (2.0 + step) ** 2
        return np.imag(n / (1j * step))

    arc, arc_err, _ = _quad(on_arc, 0.0, np.pi, scale=np.full(xs.size, np.pi),
                            limit=800, epsrel=1e-12, where=names, args=(xs, *pi_c))
    return _report(x, left + arc + right, left_err + arc_err + right_err)
