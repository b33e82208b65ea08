"""Paired closed-form/oracle comparisons runnable from the command line.

Every closed form in the package has a brute-force counterpart in the oracle
module; this suite evaluates both sides of each pair and reports the
disagreement against a pinned tolerance.  It also states the paper's laws:
the near- and far-zone concurrence, the x^-3, x^-4, x^-6 and x^-7 slopes,
|W_near| = C_near^2 / 2 and the Wootters/Palma/2|c_ee| triangle.

The checks are one table, `_checks`: every family in report order, with
its fast and its full grid side by side, and one oracle call per family and
geometry over its whole grid.  The fast level runs in about 10 ms, the full
level, which adds the two independent Casimir-Polder evaluations, in about
40 ms (in process, 2 vCPUs).  The acceptance tests read criteria 1-8 from
the full level's checks by name.

The random X states and pair configurations come from the standard
library's seeded `random.Random`, which numpy's import has already loaded,
so no run loads `numpy.random`.  The X states take all their uniforms from
one `randbytes` call.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import casimir, entanglement, kernel, oracle, specfun
from ._record import Record
from .model import pair_from_alignment

_STANDARD_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)
_FAR_GRID = (1e3, 1e6, 1e9, 1e12)  # up to the CLI's largest x
_GEOMETRIES = {
    "transverse": (1.0, 0.0),
    "longitudinal": (1.0, 1.0),
    "mixed": (1.0, 0.25),
}


class CheckResult(Record):
    name: str
    observed: float
    expected: float
    tolerance: float
    relative: bool
    passed: bool


def _compare(name, observed, expected, tol, relative=True):
    if relative:
        denom = max(abs(expected), 1e-300)
        passed = abs(observed - expected) / denom <= tol
    else:
        passed = abs(observed - expected) <= tol
    return CheckResult(name=name, observed=float(observed),
                       expected=float(expected), tolerance=tol,
                       relative=relative, passed=passed)


def _check_true(name, condition, observed, expected):
    return CheckResult(name=name, observed=float(observed),
                       expected=float(expected), tolerance=0.0,
                       relative=False, passed=bool(condition))


def _pairs(names, observed, expected, tol, relative=True):
    """One check per name, of observed against expected entry by entry."""
    return [_compare(name, o, e, tol, relative) for name, o, e in
            zip(names, np.asarray(observed).tolist(), np.asarray(expected).tolist())]


def _modesum(name, closed_form, modesum, tol, grid, geometries):
    # one call of each side per geometry, the oracle looked up by its name
    xs = np.array(grid)
    for gname in geometries:
        a, b = _GEOMETRIES[gname]
        direct = getattr(oracle, modesum)(xs, cfg=pair_from_alignment(xs, 1.0, a, b)).value
        yield from _pairs([f"{name} vs oracle.{modesum} x={x} {gname}" for x in grid],
                          direct, closed_form(xs, a, b), tol)


def _slopes(name, law, near, far):
    # a transverse law's log-log slope over 9 points of each window, one call each
    for window, expected in (((0.005, 0.02), near), ((50.0, 200.0), far)):
        xs = np.geomspace(window[0], window[1], 9)
        values = law(pair_from_alignment(xs, 1e-4, 1.0, 0.0))
        fit = casimir.fit_powerlaw(zip(xs, values), window)
        yield _compare(f"{name} log-log slope on {window}", fit.slope, expected, 0.1,
                       relative=False)


def _random_x_states(rng: random.Random, n):
    """n random physical X states, shape (n, 4, 4): Dirichlet(1, 1, 1, 1)
    populations (four exponential draws over their sum), and coherences
    uniform fractions of their positivity bounds with uniform phases.

    The 8 n uniforms in [0, 1) are the top 53 bits of the 64-bit words of
    one rng.randbytes call, and an exponential draw is -log1p(-u)."""
    words = np.frombuffer(rng.randbytes(64 * n), dtype="<u8").reshape(n, 8)
    u = (words >> np.uint64(11)) * 2.0**-53
    exponential = -np.log1p(-u[:, :4])
    diag = exponential / exponential.sum(axis=1, keepdims=True)
    coherence = u[:, 4:6] * np.sqrt(diag[:, [0, 1]] * diag[:, [3, 2]])
    phases = 2 * np.pi * u[:, 6:]
    m = np.zeros((n, 4, 4), dtype=complex)
    m[:, range(4), range(4)] = diag
    m[:, [0, 1], [3, 2]] = coherence * np.exp(1j * phases)
    m[:, [3, 2], [0, 1]] = np.conj(m[:, [0, 1], [3, 2]])
    return m


def _triangle(n_geometries, seed=11):
    # 5 random separations for each random geometry and coupling: one
    # configuration and one stack of effective states per geometry, then
    # each route to the concurrence once over all of them
    rng = random.Random(seed)
    cee, states = [], []
    for _ in range(n_geometries):
        a = rng.uniform(-1, 1)
        b = rng.uniform(0.0, 0.4) * a
        mu = 10 ** rng.uniform(-4, -3)
        xs = [math.exp(rng.uniform(math.log(0.05), math.log(20.0))) for _ in range(5)]
        cfg = pair_from_alignment(np.array(xs), mu, a, b)
        cee.append(entanglement.amplitude_c_ee(cfg))
        states.append(entanglement.effective_density_matrix(cfg).matrix)
    cee = np.concatenate(cee)
    state = entanglement.TwoQubitState(np.concatenate(states))
    w = entanglement.wootters_concurrence(state)
    p = entanglement.palma_concurrence(entanglement.correlators_from_state(state))
    direct = 2.0 * np.abs(cee)
    tol = direct * cee * cee + 1e-13
    kept = np.abs(cee) >= 1e-14
    worst = max((np.abs(lhs - rhs) - tol)[kept].max(initial=0.0)
                for lhs, rhs in ((w, direct), (p, direct), (w, p)))
    return _check_true(f"consistency triangle ({cee.size} configurations)",
                       worst <= 0.0, worst, 0.0)


def _checks(full):
    """Every check of a level, family by family in report order.  A family's
    grid reads (fast, full)[full]: its fast and its full grid side by side.
    Each function is looked up on its module as the family runs, never
    stored, so that a wrapper installed after import is the one called."""
    # the oracle's f and g, one call each over the whole grid
    grid = ((0.05, 0.1, 1.0, 10.0, 100.0), _STANDARD_GRID)[full]
    f, g = (oracle.aux_integral_rep(np.array(grid), which).value for which in "fg")
    for x, fx, gx in zip(grid, f.tolist(), g.tolist()):
        v = specfun.aux(x)
        yield from _pairs([f"specfun.{which} vs oracle.aux_integral_rep x={x}"
                           for which in "fg"], (v.f, v.g), (fx, gx), 1e-10, relative=False)

    for x in ((0.5, 2.0), (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0))[full]:
        h = 1e-5 * max(1.0, x)
        up, dn, v = specfun.aux(x + h), specfun.aux(x - h), specfun.aux(x)
        yield _compare(f"f' = -g by finite differences x={x}",
                       (up.f - dn.f) / (2 * h), -v.g, 1e-6)
        yield _compare(f"g' = f - 1/x by finite differences x={x}",
                       (up.g - dn.g) / (2 * h), v.f - 1.0 / x, 1e-6)

    yield from _modesum("kernel.contracted_tensor",
                        lambda xs, a, b: kernel.contracted_tensor(xs, a, b) / np.pi,
                        "modesum_first_order", 1e-6,
                        ((0.1, 1.0, 10.0), _STANDARD_GRID + _FAR_GRID)[full],
                        (("transverse", "longitudinal"), _GEOMETRIES)[full])
    second_order = list(_modesum("cross_coherence_kernel", kernel.cross_coherence_kernel,
                                 "modesum_second_order", 1e-8,
                                 ((1.0,), (0.1, 1.0, 10.0, *_FAR_GRID))[full],
                                 (("transverse",), _GEOMETRIES)[full]))
    yield from second_order

    for zone, law, grid in (("near", entanglement.concurrence_near, (0.005, 0.01, 0.02)),
                            ("far", entanglement.concurrence_far, (100.0, 150.0, 200.0))):
        cfg = pair_from_alignment(np.array(grid), 1e-4, 1.0, 0.0)
        yield from _pairs([f"{zone}-zone law at x={x:g}" for x in grid],
                          entanglement.concurrence_full(cfg).raw, law(cfg).raw, 1e-2)
    yield from _slopes("concurrence", lambda cfg: entanglement.concurrence_full(cfg).raw,
                       -3.0, -4.0)

    # one stack of X states, checked once, then shared by both paths
    n_states = (50, 300)[full]
    state = entanglement.TwoQubitState(_random_x_states(random.Random(7), n_states))
    closed = entanglement.wootters_concurrence(state, method="xstate")
    general = entanglement.wootters_concurrence(state, method="general")
    yield _compare(f"wootters general vs x-state closed form ({n_states} states)",
                   np.max(np.abs(closed - general)), 0.0, 1e-10, relative=False)

    yield from _pairs(("E_F(0)", "E_F(1)"),
                      [entanglement.entanglement_of_formation(c) for c in (0.0, 1.0)],
                      (0.0, 1.0), 0.0, relative=False)
    steps = np.diff(entanglement.entanglement_of_formation(np.linspace(0.0, 1.0, 201)))
    yield _check_true("E_F monotone on grid", bool(np.all(steps > 0)),
                      float(np.min(steps)), 0.0)

    yield _triangle((1, 4)[full])

    for x, cutoff in ([(1.0, 100.0)], [(x, c) for x in (0.1, 1.0, 10.0)
                                       for c in (10.0, 100.0, 1000.0)])[full]:
        _, c2 = entanglement.c1_c2_from_amplitudes(pair_from_alignment(x, 1e-3, 1.0, 0.0),
                                                   cutoff)
        yield _check_true(f"c2 < 0 at x={x} cutoff={cutoff}", c2 < 0.0, c2, 0.0)

    cfg = pair_from_alignment(0.01, 1e-4, 1.0, 0.0)
    w_london = casimir.vdw_near(cfg).energy
    yield _compare("wcp vs London limit at x=0.01", casimir.wcp(cfg).energy, w_london, 1e-2)
    yield _compare("|W_near| = C_near^2 / 2 (reduced units)",
                   abs(w_london), 0.5 * entanglement.concurrence_near(cfg).raw**2, 1e-12)
    yield _compare("local population quadrature vs closed form (cutoff=100)",
                   oracle.local_population(100.0).value,
                   entanglement.regularized_local_population(100.0), 1e-9)
    if full:
        # each grid below is one wcp call.  This one crosses the x = 2 seam
        # between the f, g reduction and the Laguerre rule; mixed
        # orientations, so every moment enters
        a, b = _GEOMETRIES["mixed"]
        grid = (0.01, 0.5, 1.99, 2.01, 10.0, 100.0, 1e3, 1e6, 1e9, 1e12)
        xs = np.array(grid)
        yield from _pairs([f"wcp closed form vs oracle.dispersion_integral_rotated x={x}"
                           for x in grid],
                          casimir.wcp(pair_from_alignment(xs, 1.0, a, b)).energy,
                          -(2.0 / np.pi) * oracle.dispersion_integral_rotated(
                              xs, a - b, a - 3 * b).value, 1e-10)
        grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
        cfg = pair_from_alignment(np.array(grid), 1e-4, 1.0, 0.0)
        rotated = casimir.wcp(cfg, method="rotated_contour").energy
        yield from _pairs([f"wcp rotated vs principal value x={x}" for x in grid],
                          casimir.wcp(cfg, method="principal_value_oracle").energy,
                          rotated, 1e-6)
        yield from _slopes("wcp", lambda cfg: casimir.wcp(cfg).energy, -6.0, -7.0)

    # the x = 1 transverse mode sum, as its cross-coherence check computed it
    s2 = next(r.observed for r in second_order if r.name.endswith(" x=1.0 transverse"))
    cfg = pair_from_alignment(1.0, 1.0, 1.0, 0.0)
    h = 1e-4
    up = oracle.modesum_first_order(1.0, cfg=cfg, resonance=1 + h).value
    dn = oracle.modesum_first_order(1.0, cfg=cfg, resonance=1 - h).value
    yield _compare("second-order kernel vs resonance derivative x=1",
                   s2, (up - dn) / (2 * h), 1e-5)

    if full:
        cfg = pair_from_alignment(100.0, 1e-4, 1.0, 0.0)
        corr = oracle.field_correlator(100.0, cfg.cos_ab, cfg.proj_product).value
        c_from_corr = 2.0 * cfg.mu / np.pi * abs(corr)
        yield _compare("far-zone correlator form vs concurrence_far x=100",
                       c_from_corr, entanglement.concurrence_far(cfg).raw, 1e-10)
        yield _compare("far-zone correlator form vs concurrence_full x=100",
                       c_from_corr, entanglement.concurrence_full(cfg).raw, 1e-2)
        # both evaluation branches at the cutover point itself: f and g, and
        # the f'' and h that the laws read
        yield from _pairs([f"{name} branch seam at x=4" for name in ("f", "g", "f''", "h")],
                          specfun._branch(4.0, False), specfun._branch(4.0, True), 1e-13,
                          relative=False)


def run_validation(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return list(_checks(level == "full"))


def format_report(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        kind = "rel" if r.relative else "abs"
        lines.append(f"[{status}] {r.name:<{width}}  observed={r.observed:.12g}"
                     f"  expected={r.expected:.12g}  tol={r.tolerance:g} ({kind})")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
