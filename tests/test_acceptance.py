"""End-to-end acceptance suite.

Each test pins one headline contract of the library and prints a PASS/FAIL
line, so `pytest -s tests/test_acceptance.py` doubles as a human-readable
acceptance report.  Criteria 1-8 read the checks of `vacpair validate
--level full` that state them, one run shared by the module, and print the
worst |observed - expected| over its tolerance among them.  Criterion 9
(far zone) is an expected failure: the literature estimate it encodes is
dimensionally inconsistent with the implemented far-zone law (see the
assertion message).
"""

import subprocess
import sys
import time

import pytest

from vacpair import (concurrence_far, concurrence_full, concurrence_near,
                     hydrogen_1s2p, pair_from_alignment, reduce)
from vacpair.model import FINE_STRUCTURE
from vacpair.validate import run_validation

# criterion -> (label, the name prefixes of its `validate --level full`
# checks, how many checks they select)
CRITERIA = {
    1: ("mode-sum identity on the 10 x 3 grid",
        ("kernel.contracted_tensor vs oracle.modesum_first_order",), 30),
    2: ("near-zone law and x^-3 slope",
        ("near-zone law", "concurrence log-log slope on (0.005"), 4),
    3: ("far-zone law and x^-4 slope",
        ("far-zone law", "concurrence log-log slope on (50.0"), 4),
    4: ("auxiliary functions vs integral representation and derivatives",
        ("specfun.f vs", "specfun.g vs", "f' = -g", "g' = f - 1/x"), 34),
    5: ("pair-energy scaling (x^-6 near, x^-7 far, London limit)",
        ("wcp vs London limit", "wcp log-log slope"), 3),
    6: ("Wootters paths on 300 X states; E_F endpoints and monotonicity",
        ("wootters general vs x-state", "E_F"), 4),
    7: ("consistency triangle on 20 weak-coupling configurations",
        ("consistency triangle",), 1),
    8: ("c2 branch negative on the {x} x {cutoff} grid", ("c2 < 0",), 9),
}


def report(criterion, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {criterion}: {label} {detail}".rstrip())
    assert passed, f"acceptance {criterion} failed: {label} {detail}"


@pytest.fixture(scope="module")
def full_report():
    return run_validation("full")


def _checks(full_report, criterion):
    prefixes = CRITERIA[criterion][1]
    return [r for r in full_report if r.name.startswith(prefixes)]


def _excess(check):
    """|observed - expected| over the tolerance, None for a pass/fail condition."""
    if check.tolerance == 0.0:
        return None
    scale = max(abs(check.expected), 1e-300) if check.relative else 1.0
    return abs(check.observed - check.expected) / scale / check.tolerance


def test_every_criterion_reads_its_checks(full_report):
    # a renamed check would leave a criterion reading fewer checks, or none
    assert ({c: len(_checks(full_report, c)) for c in CRITERIA}
            == {c: count for c, (_, _, count) in CRITERIA.items()})


@pytest.mark.parametrize("criterion", sorted(CRITERIA), ids="c{:02d}".format)
def test_criterion(full_report, criterion):
    checks = _checks(full_report, criterion)
    failed = [r.name for r in checks if not r.passed]
    ratios = [e for e in map(_excess, checks) if e is not None]
    detail = f"{len(checks)} check{'s' * (len(checks) != 1)}"
    if ratios:
        detail += f", worst |observed - expected| / tol {max(ratios):.2e}"
    if failed:
        detail += f"; {len(failed)} failed, the first {failed[0]}"
    report(criterion, CRITERIA[criterion][0], bool(checks) and not failed,
           f"({detail})")


def _hydrogen_near_far_ratios():
    atom = hydrogen_1s2p()
    k0 = atom.wavenumber()
    r_near = 10.0  # a0, deep in the near zone
    cfg_near = reduce(atom, atom, [0.0, 0.0, r_near])
    near_ratio = concurrence_near(cfg_near).raw / r_near**-3
    x_far = 150.0
    r_far = x_far / k0
    cfg_far = reduce(atom, atom, [0.0, 0.0, r_far])
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
