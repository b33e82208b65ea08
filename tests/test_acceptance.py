"""End-to-end acceptance suite.

Each test pins one headline contract of the library at its stated tolerance
and prints a PASS/FAIL line, so `pytest -s tests/test_acceptance.py` doubles
as a human-readable acceptance report.  Criterion 9 (far zone) is an
expected failure: the literature estimate it encodes is dimensionally
inconsistent with the implemented far-zone law (see the assertion message).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from vacpair import (concurrence_full, concurrence_near, entanglement_of_formation,
                     fit_powerlaw, hydrogen_1s2p, pair_from_alignment, reduce,
                     vdw_near, wcp, wootters_concurrence)
from vacpair.entanglement import (amplitude_c_ee, c1_c2_from_amplitudes,
                                  correlators_from_state,
                                  effective_density_matrix, palma_concurrence)
from vacpair.kernel import contracted_tensor
from vacpair.model import FINE_STRUCTURE
from vacpair.oracle import aux_integral_rep, modesum_first_order
from vacpair.specfun import aux

from conftest import STANDARD_GRID, random_x_state, transverse_pair

GEOMETRIES = {
    "transverse-parallel": (1.0, 0.0),
    "longitudinal": (1.0, 1.0),
    "mixed": (1.0, 0.25),
    "orthogonal-zero": (0.0, 0.0),
}


def report(criterion, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {criterion}: {label} {detail}".rstrip())
    assert passed, f"acceptance {criterion} failed: {label} {detail}"


def test_c01_mode_sum_identity():
    t0 = time.time()
    worst_rel, worst_abs = 0.0, 0.0
    for name, (a, b) in GEOMETRIES.items():
        for x in STANDARD_GRID:
            cfg = pair_from_alignment(x, 1.0, a, b)
            direct = modesum_first_order(x, cfg=cfg).value
            closed = contracted_tensor(x, a, b) / np.pi
            if name == "orthogonal-zero":
                worst_abs = max(worst_abs, abs(direct - closed))
            else:
                worst_rel = max(worst_rel, abs(direct - closed) / abs(closed))
    elapsed = time.time() - t0
    report(1, "mode-sum identity on 10 x 4 grid",
           worst_rel <= 1e-6 and worst_abs <= 1e-9 and elapsed < 60.0,
           f"(worst rel {worst_rel:.2e}, zero-geometry abs {worst_abs:.2e}, "
           f"{elapsed:.1f}s)")


def test_c02_near_zone_law():
    worst = 0.0
    for x in (0.005, 0.01, 0.02):
        cfg = transverse_pair(x)
        full = concurrence_full(cfg).raw
        near = cfg.mu * abs(cfg.cos_ab - 3 * cfg.proj_product) / x**3
        worst = max(worst, abs(full - near) / near)
    xs = np.geomspace(0.005, 0.02, 9)
    curve = [(x, concurrence_full(transverse_pair(x)).raw) for x in xs]
    slope = fit_powerlaw(curve, (0.005, 0.02)).slope
    report(2, "near-zone law and x^-3 slope",
           worst <= 0.01 and abs(slope + 3.0) <= 0.1,
           f"(worst rel {worst:.2e}, slope {slope:.4f})")


def test_c03_far_zone_law():
    worst = 0.0
    for x in (100.0, 150.0, 200.0):
        cfg = transverse_pair(x)
        full = concurrence_full(cfg).raw
        far = (8 * cfg.mu / np.pi) * abs(cfg.cos_ab - 2 * cfg.proj_product) / x**4
        worst = max(worst, abs(full - far) / far)
    xs = np.geomspace(50.0, 200.0, 9)
    curve = [(x, concurrence_full(transverse_pair(x)).raw) for x in xs]
    slope = fit_powerlaw(curve, (50.0, 200.0)).slope
    report(3, "far-zone law and x^-4 slope",
           worst <= 0.01 and abs(slope + 4.0) <= 0.1,
           f"(worst rel {worst:.2e}, slope {slope:.4f})")


def test_c04_auxiliary_function_core():
    worst = 0.0
    for x in STANDARD_GRID:
        v = aux(x)
        worst = max(worst, abs(v.f - aux_integral_rep(x, "f").value),
                    abs(v.g - aux_integral_rep(x, "g").value))
    worst_deriv = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        h = 1e-5 * max(1.0, x)
        v = aux(x)
        fp = (aux(x + h).f - aux(x - h).f) / (2 * h)
        gp = (aux(x + h).g - aux(x - h).g) / (2 * h)
        worst_deriv = max(worst_deriv,
                          abs(fp + v.g) / abs(v.g),
                          abs(gp - (v.f - 1 / x)) / abs(v.f - 1 / x))
    report(4, "auxiliary functions vs integral representation",
           worst <= 1e-10 and worst_deriv <= 1e-6,
           f"(worst abs {worst:.2e}, worst derivative rel {worst_deriv:.2e})")


def test_c05_casimir_polder_scaling():
    cfg = transverse_pair(0.01)
    london_rel = abs(wcp(cfg).energy - vdw_near(cfg).energy) / abs(vdw_near(cfg).energy)
    slopes = {}
    for window, target in (((0.005, 0.02), -6.0), ((50.0, 200.0), -7.0)):
        xs = np.geomspace(window[0], window[1], 9)
        curve = [(x, wcp(transverse_pair(x)).energy) for x in xs]
        slopes[target] = fit_powerlaw(curve, window).slope
    report(5, "pair-energy scaling (x^-6 near, x^-7 far, London limit)",
           london_rel <= 0.01 and abs(slopes[-6.0] + 6.0) <= 0.1
           and abs(slopes[-7.0] + 7.0) <= 0.1,
           f"(London rel {london_rel:.2e}, slopes {slopes[-6.0]:.4f} / "
           f"{slopes[-7.0]:.4f})")


def test_c06_entanglement_algebra():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        m = random_x_state(rng)
        worst = max(worst, abs(wootters_concurrence(m, method="general")
                               - wootters_concurrence(m, method="xstate")))
    endpoints = (entanglement_of_formation(0.0) == 0.0
                 and entanglement_of_formation(1.0) == 1.0)
    grid = np.linspace(0.0, 1.0, 1000)
    vals = [entanglement_of_formation(c) for c in grid]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    report(6, "Wootters paths on 1000 X-states; E_F endpoints and monotonicity",
           worst <= 1e-10 and endpoints and monotone,
           f"(worst path difference {worst:.2e})")


def test_c07_consistency_triangle():
    # pairwise agreement within relative c_ee^2, with a 1e-13 absolute floor
    # covering the double-precision noise of the eigenvalue paths
    rng = np.random.default_rng(77)
    count, worst = 0, -np.inf
    while count < 20:
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(0.0, 0.4)) * a
        cfg = pair_from_alignment(x, 10 ** rng.uniform(-4, -3), a, b)
        cee = amplitude_c_ee(cfg)
        if abs(cee) < 1e-14:
            continue
        count += 1
        direct = 2.0 * abs(cee)
        state = effective_density_matrix(cfg)
        w = wootters_concurrence(state)
        p = palma_concurrence(correlators_from_state(state))
        tol = direct * cee * cee + 1e-13
        for lhs, rhs in ((w, direct), (p, direct), (w, p)):
            worst = max(worst, abs(lhs - rhs) - tol)
    report(7, "consistency triangle on 20 weak-coupling configurations",
           worst <= 0.0, f"(worst tolerance excess {worst:.2e})")


def test_c08_c2_negativity():
    all_negative = True
    worst = -np.inf
    for x in (0.1, 1.0, 10.0):
        for cutoff in (10.0, 100.0, 1000.0):
            _, c2 = c1_c2_from_amplitudes(transverse_pair(x, mu=1e-3), cutoff)
            all_negative &= c2 < 0.0
            worst = max(worst, c2)
    report(8, "c2 branch negative on the {x} x {cutoff} grid",
           all_negative, f"(largest c2 {worst:.3e})")


def _hydrogen_near_far_ratios():
    atom = hydrogen_1s2p()
    k0 = atom.wavenumber()
    r_near = 10.0  # a0, deep in the near zone
    cfg_near = reduce(atom, atom, [0.0, 0.0, r_near])
    near_ratio = concurrence_near(cfg_near).raw / r_near**-3
    x_far = 150.0
    r_far = x_far / k0
    cfg_far = reduce(atom, atom, [0.0, 0.0, r_far])
    from vacpair.entanglement import concurrence_far
    far_ratio = concurrence_far(cfg_far).raw / (FINE_STRUCTURE * r_far**-4)
    return near_ratio, far_ratio


def test_c09a_hydrogen_near_zone_estimate():
    near_ratio, _ = _hydrogen_near_far_ratios()
    report("9 (near)", "hydrogen C / (R/a0)^-3 of order one",
           0.3 <= near_ratio <= 3.0, f"(ratio {near_ratio:.3f})")


@pytest.mark.xfail(strict=True, reason=(
    "the quoted far-zone magnitude estimate alpha*(R/a0)^-4 is dimensionally "
    "inconsistent with the implemented far-zone law: the law gives "
    "C = (8 d^2 / (pi (hbar w0 / Eh)^2)) * alpha^-1 * (R/a0)^-4, a factor "
    "~1.9e5 larger for the hydrogen preset; see notes in the repository docs"))
def test_c09b_hydrogen_far_zone_estimate():
    _, far_ratio = _hydrogen_near_far_ratios()
    report("9 (far)", "hydrogen C / (alpha (R/a0)^-4) of order one",
           0.3 <= far_ratio <= 3.0, f"(ratio {far_ratio:.4g})")


def test_c10_cli_contract(tmp_path):
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-m", "vacpair.cli", "validate",
                           "--level", "fast"], capture_output=True, text=True)
    validate_ok = proc.returncode == 0 and (time.time() - t0) < 60.0

    path = tmp_path / "roundtrip.csv"
    subprocess.run([sys.executable, "-m", "vacpair.cli", "sweep",
                    "--mu", "1e-4", "--xmin", "0.1", "--xmax", "10",
                    "--points", "5", "--output", str(path)], check=True)
    round_trip_ok = True
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("x,"):
            continue
        cells = line.split(",")
        x = float(cells[0])
        cfg = pair_from_alignment(x, 1e-4, 1.0, 0.0)
        round_trip_ok &= concurrence_full(cfg).raw == float(cells[2])

    bad = subprocess.run([sys.executable, "-m", "vacpair.cli", "point",
                          "--x", "-1", "--mu", "1e-4"], capture_output=True)
    usage_ok = bad.returncode == 2
    bad2 = subprocess.run([sys.executable, "-m", "vacpair.cli", "point",
                           "--nonsense"], capture_output=True)
    usage_ok &= bad2.returncode == 2
    report(10, "CLI contract (validate exit 0, bit-exact CSV, usage errors)",
           validate_ok and round_trip_ok and usage_ok,
           f"(validate rc {proc.returncode}, {time.time() - t0:.0f}s)")
