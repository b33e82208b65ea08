"""Paired closed-form/oracle comparisons runnable from the command line.

Every closed form in the package has a brute-force counterpart in the oracle
module; this suite evaluates both sides of each pair and reports the
disagreement against a pinned tolerance.  The fast level runs a subset grid
in about 10 ms, the full level the complete grid including the two
independent Casimir-Polder evaluations in about 30 ms (in process, 2 vCPUs).
It also states the paper's laws: the near- and far-zone concurrence, the
x^-3, x^-4, x^-6 and x^-7 slopes and the Wootters/Palma/2|c_ee| triangle.
The acceptance tests read criteria 1-8 from the full level's checks by name.

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


def _aux_checks(grid):
    # the oracle's f and g, one call each over the whole grid
    f, g = (oracle.aux_integral_rep(np.array(grid), which).value.tolist()
            for which in "fg")
    out = []
    for x, fx, gx in zip(grid, f, g):
        v = specfun.aux(x)
        for which, observed, expected in zip("fg", (v.f, v.g), (fx, gx)):
            out.append(_compare(f"specfun.{which} vs oracle.aux_integral_rep x={x}",
                                observed, expected, 1e-10, relative=False))
    return out


def _derivative_checks(grid):
    out = []
    for x in grid:
        h = 1e-5 * max(1.0, x)
        up, dn = specfun.aux(x + h), specfun.aux(x - h)
        v = specfun.aux(x)
        out.append(_compare(f"f' = -g by finite differences x={x}",
                            (up.f - dn.f) / (2 * h), -v.g, 1e-6))
        out.append(_compare(f"g' = f - 1/x by finite differences x={x}",
                            (up.g - dn.g) / (2 * h), v.f - 1.0 / x, 1e-6))
    return out


def _modesum_checks(name, closed_form, modesum, tol, grid, geometries):
    out = []
    xs = np.array(grid)
    for gname, (a, b) in geometries.items():
        # one call of each side per geometry
        closed = closed_form(xs, a, b)
        direct = modesum(xs, cfg=pair_from_alignment(xs, 1.0, a, b)).value
        for x, observed, expected in zip(grid, direct.tolist(), closed.tolist()):
            out.append(_compare(f"{name} vs oracle.{modesum.__name__} x={x} {gname}",
                                observed, expected, tol))
    return out


def _slope_check(name, law, window, expected):
    # the log-log slope of a transverse law over 9 points of window, one call
    xs = np.geomspace(window[0], window[1], 9)
    values = law(pair_from_alignment(xs, 1e-4, 1.0, 0.0))
    fit = casimir.fit_powerlaw(zip(xs, values), window)
    return _compare(f"{name} log-log slope on {window}", fit.slope, expected, 0.1,
                    relative=False)


def _zone_checks():
    out = []
    for zone, law, grid in (("near", entanglement.concurrence_near, (0.005, 0.01, 0.02)),
                            ("far", entanglement.concurrence_far, (100.0, 150.0, 200.0))):
        cfg = pair_from_alignment(np.array(grid), 1e-4, 1.0, 0.0)
        full = entanglement.concurrence_full(cfg).raw
        for x, observed, expected in zip(grid, full.tolist(), law(cfg).raw.tolist()):
            out.append(_compare(f"{zone}-zone law at x={x:g}", observed, expected, 1e-2))
    concurrence = lambda cfg: entanglement.concurrence_full(cfg).raw
    out.append(_slope_check("concurrence", concurrence, (0.005, 0.02), -3.0))
    out.append(_slope_check("concurrence", concurrence, (50.0, 200.0), -4.0))
    return out


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


def _wootters_checks(n_states, seed=7):
    # one stack, checked once, then shared by both paths
    state = entanglement.TwoQubitState(_random_x_states(random.Random(seed), n_states))
    closed = entanglement.wootters_concurrence(state, method="xstate")
    general = entanglement.wootters_concurrence(state, method="general")
    worst = np.max(np.abs(closed - general))
    return [_compare(f"wootters general vs x-state closed form ({n_states} states)",
                     worst, 0.0, 1e-10, relative=False)]


def _eof_checks():
    out = []
    out.append(_compare("E_F(0)", entanglement.entanglement_of_formation(0.0),
                        0.0, 0.0, relative=False))
    out.append(_compare("E_F(1)", entanglement.entanglement_of_formation(1.0),
                        1.0, 0.0, relative=False))
    vals = entanglement.entanglement_of_formation(np.linspace(0.0, 1.0, 201))
    out.append(_check_true("E_F monotone on grid",
                           bool(np.all(np.diff(vals) > 0)),
                           float(np.min(np.diff(vals))), 0.0))
    return out


def _triangle_checks(n_geometries, seed=11):
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
    return [_check_true(f"consistency triangle ({cee.size} configurations)",
                        worst <= 0.0, worst, 0.0)]


def _c2_checks(points):
    out = []
    for x, cutoff in points:
        cfg = pair_from_alignment(x, 1e-3, 1.0, 0.0)
        _, c2 = entanglement.c1_c2_from_amplitudes(cfg, cutoff)
        out.append(_check_true(f"c2 < 0 at x={x} cutoff={cutoff}",
                               c2 < 0.0, c2, 0.0))
    return out


def _casimir_checks(fast=True):
    out = []
    cfg = pair_from_alignment(0.01, 1e-4, 1.0, 0.0)
    w_full = casimir.wcp(cfg).energy
    w_london = casimir.vdw_near(cfg).energy
    out.append(_compare("wcp vs London limit at x=0.01", w_full, w_london, 1e-2))
    c_near = entanglement.concurrence_near(cfg).raw
    out.append(_compare("|W_near| = C_near^2 / 2 (reduced units)",
                        abs(w_london), 0.5 * c_near**2, 1e-12))
    out.append(_compare("local population quadrature vs closed form (cutoff=100)",
                        oracle.local_population(100.0).value,
                        entanglement.regularized_local_population(100.0), 1e-9))
    if fast:
        return out
    # each grid below is one wcp call.  This one crosses the x = 2 seam
    # between the f, g reduction and the Laguerre rule; mixed orientations,
    # so every moment enters
    a, b = _GEOMETRIES["mixed"]
    grid = (0.01, 0.5, 1.99, 2.01, 10.0, 100.0, 1e3, 1e6, 1e9, 1e12)
    closed = casimir.wcp(pair_from_alignment(np.array(grid), 1.0, a, b)).energy
    direct = oracle.dispersion_integral_rotated(np.array(grid), a - b, a - 3 * b).value
    for x, energy, integral in zip(grid, closed.tolist(), direct.tolist()):
        out.append(_compare(f"wcp closed form vs oracle.dispersion_integral_rotated "
                            f"x={x}", energy, -(2.0 / np.pi) * integral, 1e-10))
    grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    cfgx = pair_from_alignment(np.array(grid), 1e-4, 1.0, 0.0)
    rot = casimir.wcp(cfgx, method="rotated_contour").energy
    pv = casimir.wcp(cfgx, method="principal_value_oracle").energy
    for x, pv_x, rot_x in zip(grid, pv.tolist(), rot.tolist()):
        out.append(_compare(f"wcp rotated vs principal value x={x}", pv_x, rot_x, 1e-6))
    energy = lambda cfg: casimir.wcp(cfg).energy
    out.append(_slope_check("wcp", energy, (0.005, 0.02), -6.0))
    out.append(_slope_check("wcp", energy, (50.0, 200.0), -7.0))
    return out


def _second_order_checks(s2):
    # s2: oracle.modesum_second_order at x = 1, transverse
    x = 1.0
    cfg = pair_from_alignment(x, 1.0, 1.0, 0.0)
    h = 1e-4
    up = oracle.modesum_first_order(x, cfg=cfg, resonance=1 + h).value
    dn = oracle.modesum_first_order(x, cfg=cfg, resonance=1 - h).value
    fd = (up - dn) / (2 * h)
    return [_compare("second-order kernel vs resonance derivative x=1",
                     s2, fd, 1e-5)]


def _far_correlator_checks():
    x = 100.0
    cfg = pair_from_alignment(x, 1e-4, 1.0, 0.0)
    corr = oracle.field_correlator(x, cfg.cos_ab, cfg.proj_product).value
    c_from_corr = 2.0 * cfg.mu / np.pi * abs(corr)
    return [
        _compare("far-zone correlator form vs concurrence_far x=100",
                 c_from_corr, entanglement.concurrence_far(cfg).raw, 1e-10),
        _compare("far-zone correlator form vs concurrence_full x=100",
                 c_from_corr, entanglement.concurrence_full(cfg).raw, 1e-2),
    ]


def _seam_checks():
    # evaluate both evaluation branches at the cutover point itself: f and
    # g, and the f'' and h that the laws read
    series = specfun._branch(4.0, True)
    rule = specfun._branch(4.0, False)
    return [_compare(f"{name} branch seam at x=4", ruled, summed, 1e-13, relative=False)
            for name, ruled, summed in zip(("f", "g", "f''", "h"), rule, series)]


def run_validation(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    fast = level == "fast"
    results = []
    results += _aux_checks((0.05, 0.1, 1.0, 10.0, 100.0) if fast else _STANDARD_GRID)
    results += _derivative_checks((0.5, 2.0) if fast else (0.1, 0.5, 1.0, 2.0,
                                                           5.0, 10.0, 50.0))
    results += _modesum_checks(
        "kernel.contracted_tensor",
        lambda x, a, b: kernel.contracted_tensor(x, a, b) / np.pi,
        oracle.modesum_first_order, 1e-6,
        (0.1, 1.0, 10.0) if fast else _STANDARD_GRID + _FAR_GRID,
        _GEOMETRIES if not fast else {"transverse": (1.0, 0.0),
                                      "longitudinal": (1.0, 1.0)})
    second_order = _modesum_checks(
        "cross_coherence_kernel", kernel.cross_coherence_kernel,
        oracle.modesum_second_order, 1e-8, (1.0,) if fast else (0.1, 1.0, 10.0, *_FAR_GRID),
        {"transverse": (1.0, 0.0)} if fast else _GEOMETRIES)
    results += second_order
    results += _zone_checks()
    results += _wootters_checks(50 if fast else 300)
    results += _eof_checks()
    results += _triangle_checks(1 if fast else 4)
    results += _c2_checks([(1.0, 100.0)] if fast else
                          [(x, c) for x in (0.1, 1.0, 10.0)
                           for c in (10.0, 100.0, 1000.0)])
    results += _casimir_checks(fast=fast)
    # the x = 1 transverse mode sum, as its cross-coherence check computed it
    results += _second_order_checks(next(r.observed for r in second_order
                                         if r.name.endswith(" x=1.0 transverse")))
    if not fast:
        results += _far_correlator_checks()
        results += _seam_checks()
    return results


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
