"""Paired closed-form/oracle comparisons runnable from the command line.

Every closed form in the package has a brute-force counterpart in the oracle
module; this suite evaluates both sides of each pair and reports the
disagreement against a pinned tolerance.  The fast level runs a subset grid
in well under a minute; the full level covers the complete grid including the
two independent Casimir-Polder evaluations.

The random X states and pair configurations come from the standard
library's seeded `random.Random`, which numpy's import has already loaded,
so no run loads `numpy.random`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import casimir, entanglement, kernel, oracle, specfun
from .model import pair_from_alignment

_STANDARD_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)
_GEOMETRIES = {
    "transverse": (1.0, 0.0),
    "longitudinal": (1.0, 1.0),
    "mixed": (1.0, 0.25),
}


@dataclass(frozen=True)
class CheckResult:
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
    out = []
    for x in grid:
        v = specfun.aux(x)
        out.append(_compare(f"specfun.f vs oracle.aux_integral_rep x={x}",
                            v.f, oracle.aux_integral_rep(x, "f").value,
                            1e-10, relative=False))
        out.append(_compare(f"specfun.g vs oracle.aux_integral_rep x={x}",
                            v.g, oracle.aux_integral_rep(x, "g").value,
                            1e-10, relative=False))
    return out


def _derivative_checks(grid):
    out = []
    for x in grid:
        h = 1e-5 * max(1.0, x)
        up, dn = specfun.aux(x + h), specfun.aux(x - h)
        fp = (up.f - dn.f) / (2 * h)
        gp = (up.g - dn.g) / (2 * h)
        v = specfun.aux(x)
        tol = max(1e-8, 1e-6 * abs(v.g))
        out.append(_compare(f"f' = -g by finite differences x={x}",
                            fp, -v.g, tol, relative=False))
        tol = max(1e-8, 1e-6 * abs(v.f - 1 / x))
        out.append(_compare(f"g' = f - 1/x by finite differences x={x}",
                            gp, v.f - 1.0 / x, tol, relative=False))
    return out


def _trig_reconstruction(grid):
    # specfun's f and g against the oracle's, as its own ci and si share them
    out = []
    for x in grid:
        v = specfun.aux(x)
        f, g = (oracle.aux_integral_rep(x, which).value for which in "fg")
        c, s = np.cos(x), np.sin(x)
        out.append(_compare(f"Ci reconstruction x={x}", v.f * s - v.g * c,
                            f * s - g * c, 1e-12, relative=False))
        out.append(_compare(f"Si reconstruction x={x}", np.pi / 2 - (v.f * c + v.g * s),
                            np.pi / 2 - (f * c + g * s), 1e-12, relative=False))
    return out


def _modesum_checks(name, closed_form, modesum, tol, grid, geometries):
    out = []
    for gname, (a, b) in geometries.items():
        closed = closed_form(np.array(grid), a, b)  # one call per geometry
        for x, value in zip(grid, closed.tolist()):
            direct = modesum(x, cfg=pair_from_alignment(x, 1.0, a, b)).value
            out.append(_compare(f"{name} vs oracle.{modesum.__name__} x={x} {gname}",
                                direct, value, tol))
    return out


def _zone_checks():
    out = []
    near_cfg = pair_from_alignment(0.01, 1e-4, 1.0, 0.0)
    out.append(_compare("near-zone law at x=0.01",
                        entanglement.concurrence_full(near_cfg).raw,
                        entanglement.concurrence_near(near_cfg).raw, 1e-2))
    far_cfg = pair_from_alignment(100.0, 1e-4, 1.0, 0.0)
    out.append(_compare("far-zone law at x=100",
                        entanglement.concurrence_full(far_cfg).raw,
                        entanglement.concurrence_far(far_cfg).raw, 1e-2))
    return out


def _random_x_states(rng: random.Random, n):
    """n random physical X states, shape (n, 4, 4): Dirichlet(1, 1, 1, 1)
    populations (four exponential draws over their sum), and coherences
    uniform fractions of their positivity bounds with uniform phases."""
    draws = np.array([[rng.expovariate(1.0) for _ in range(4)]
                      + [rng.random() for _ in range(4)] for _ in range(n)])
    diag = draws[:, :4] / draws[:, :4].sum(axis=1, keepdims=True)
    coherence = draws[:, 4:6] * np.sqrt(diag[:, [0, 1]] * diag[:, [3, 2]])
    phases = 2 * np.pi * draws[:, 6:]
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


def _triangle_checks(n_cfg, seed=11):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_cfg):
        x = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        a = rng.uniform(-1, 1)
        b = rng.uniform(0.0, 0.4) * a
        cfg = pair_from_alignment(x, 10 ** rng.uniform(-4, -3), a, b)
        cee = entanglement.amplitude_c_ee(cfg)
        if abs(cee) < 1e-14:
            continue
        state = entanglement.effective_density_matrix(cfg)
        w = entanglement.wootters_concurrence(state)
        p = entanglement.palma_concurrence(
            entanglement.correlators_from_state(state))
        direct = 2.0 * abs(cee)
        tol = direct * cee * cee + 1e-13
        for other in (w, p):
            worst = max(worst, abs(other - direct) - tol)
    return [_check_true(f"consistency triangle ({n_cfg} configurations)",
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
    for x, energy in zip(grid, closed.tolist()):
        direct = oracle.dispersion_integral_rotated(x, a - b, a - 3 * b).value
        out.append(_compare(f"wcp closed form vs oracle.dispersion_integral_rotated "
                            f"x={x}", energy, -(2.0 / np.pi) * direct, 1e-10))
    grid = (0.5, 1.0, 2.0, 5.0)
    cfgx = pair_from_alignment(np.array(grid), 1e-4, 1.0, 0.0)
    rot = casimir.wcp(cfgx, method="rotated_contour").energy
    pv = casimir.wcp(cfgx, method="principal_value_oracle").energy
    for x, pv_x, rot_x in zip(grid, pv.tolist(), rot.tolist()):
        out.append(_compare(f"wcp rotated vs principal value x={x}", pv_x, rot_x, 1e-6))
    for window, expected in (((0.005, 0.02), -6.0), ((50.0, 200.0), -7.0)):
        xs = np.geomspace(window[0], window[1], 9)
        energy = casimir.wcp(pair_from_alignment(xs, 1e-4, 1.0, 0.0)).energy
        fit = casimir.fit_powerlaw(zip(xs, energy), window)
        out.append(_compare(f"wcp log-log slope on {window}", fit.slope,
                            expected, 0.1, relative=False))
    return out


def _second_order_checks():
    x = 1.0
    cfg = pair_from_alignment(x, 1.0, 1.0, 0.0)
    s2 = oracle.modesum_second_order(x, cfg=cfg).value
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
                 c_from_corr, entanglement.concurrence_far(cfg).raw, 1e-2),
        _compare("far-zone correlator form vs concurrence_full x=100",
                 c_from_corr, entanglement.concurrence_full(cfg).raw, 1e-2),
    ]


def _seam_checks():
    # evaluate both evaluation branches at the cutover point itself
    si_series, ci_series, *_ = specfun._branch(4.0, True)
    si_cf, ci_cf, *_ = specfun._branch(4.0, False)
    return [
        _compare("si branch seam at x=4", si_cf, si_series, 1e-13, relative=False),
        _compare("ci branch seam at x=4", ci_cf, ci_series, 1e-13, relative=False),
    ]


def run_validation(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    fast = level == "fast"
    results = []
    results += _aux_checks((0.05, 1.0, 10.0) if fast else _STANDARD_GRID)
    results += _derivative_checks((0.5, 2.0) if fast else (0.1, 0.5, 1.0, 2.0,
                                                           5.0, 10.0, 50.0))
    results += _trig_reconstruction((0.1, 1.0, 10.0, 100.0))
    results += _modesum_checks(
        "kernel.contracted_tensor",
        lambda x, a, b: kernel.contracted_tensor(x, a, b) / np.pi,
        oracle.modesum_first_order, 1e-6,
        (0.1, 1.0, 10.0) if fast else _STANDARD_GRID,
        _GEOMETRIES if not fast else {"transverse": (1.0, 0.0),
                                      "longitudinal": (1.0, 1.0)})
    results += _modesum_checks(
        "cross_coherence_kernel", kernel.cross_coherence_kernel,
        oracle.modesum_second_order, 1e-8, (1.0,) if fast else (0.1, 1.0, 10.0),
        {"transverse": (1.0, 0.0)} if fast else _GEOMETRIES)
    results += _zone_checks()
    results += _wootters_checks(50 if fast else 300)
    results += _eof_checks()
    results += _triangle_checks(5 if fast else 20)
    results += _c2_checks([(1.0, 100.0)] if fast else
                          [(x, c) for x in (0.1, 1.0, 10.0)
                           for c in (10.0, 100.0, 1000.0)])
    results += _casimir_checks(fast=fast)
    results += _second_order_checks()
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
