"""Correctness checks on the outputs of timed `vacpair` invocations.

Three kinds of check, all made outside the timed region:

* contract: exit code 0, every `validate` check passes, and sampled sweep
  rows re-evaluate bit-exactly through the public library API (the README
  round-trip contract).  A miss is a failed operation.
* accuracy: `concurrence_full` and `wcp_energy` (and the closed-form T(x)
  that `validate` prints) against the mpmath reference, at a relative
  tolerance of 1e-10, the accuracy `casimir.wcp` documents.  A miss counts
  toward wrong_frac, and so does a `point` that exits with an accuracy
  failure: both of its values are missing.
* gross error: a value at x <= TRUSTED_X[quantity] whose conditioned error
  (reference.conditioned_error) exceeds GROSS_TOL, or that is missing.
  Such a value makes the run incorrect.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

ACCURACY_TOL = 1e-10
GROSS_TOL = 1e-8
# Where the seed meets GROSS_TOL with a margin of 5 or more, in conditioned
# error over random orientations: T(x) loses accuracy as x^2 (1e-11 at
# x = 100, 1e-9 at 1e3, 1e-8 near 5e3), and wcp is within 2e-9 up to 1e4 but
# off by 1e-5 or more from about 3e4 on.
TRUSTED_X = {"concurrence_full": 1e3, "contracted_tensor": 1e3, "wcp_energy": 1e4}
SAMPLED_ROWS = 24
ACCURACY_FAILURE = "vacpair: accuracy failure"

_FLAGS_WITHOUT_VALUE = {"--isotropic"}


@dataclass
class Tally:
    """Operations and checked values of one run.

    An operation is one point, one sweep row, or one validate check.
    """

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    gross: int = 0
    wrong_x: list[float] = field(default_factory=list)
    worst_trusted_error: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def accuracy(self, quantity: str, x: float, observed: float,
                 expected: reference.Expected, label: str = "") -> None:
        self.checked += 1
        if x <= TRUSTED_X[quantity]:
            err = reference.conditioned_error(observed, expected)
            self.worst_trusted_error = max(self.worst_trusted_error, err)
            if err > GROSS_TOL:
                self.gross += 1
                self.problems.append(f"{label or quantity} at x={x!r}: error {err:.2e}")
        if reference.relative_error(observed, expected) > ACCURACY_TOL:
            self.wrong += 1
            self.wrong_x.append(x)

    def missing(self, quantity: str, x: float) -> None:
        """A value the program could not give: wrong, and gross in the trusted range."""
        self.checked += 1
        self.wrong += 1
        self.wrong_x.append(x)
        if x <= TRUSTED_X[quantity]:
            self.gross += 1
            self.problems.append(f"{quantity} at x={x!r}: accuracy failure")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.gross == 0


def parse_argv(argv: list[str]) -> dict[str, str]:
    """Flags of one generated argv (after the subcommand) as a dict."""
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        if eq or flag in _FLAGS_WITHOUT_VALUE:
            opts[flag] = value if eq else "1"
            i += 1
        else:
            opts[flag] = argv[i + 1]
            i += 2
    return opts


def _vector(text: str) -> list[float]:
    return [float(c) for c in text.split(",")]


def _orientations(opts: dict[str, str]):
    a = _vector(opts.get("--dipole-a", "1,0,0"))
    b = _vector(opts["--dipole-b"]) if "--dipole-b" in opts else a
    return a, b, _vector(opts.get("--sep-dir", "0,0,1"))


def rows_of(argv: list[str]) -> int:
    """Rows one invocation evaluates: 1 for point, --points for sweep, 0 otherwise."""
    if argv[0] == "point":
        return 1
    if argv[0] == "sweep":
        return int(parse_argv(argv)["--points"])
    return 0


def check_point(tally: Tally, argv: list[str], returncode: int, stdout: str,
                stderr: str) -> None:
    tally.attempted += 1
    opts = parse_argv(argv)
    if "--x" in opts:
        x, mu = opts["--x"], opts["--mu"]
    else:
        x, mu = reference.hydrogen_pair(opts["--r"], opts.get("--units", "atomic"))
    xf = float(x)
    if returncode == 1 and ACCURACY_FAILURE in stderr:
        tally.missing("concurrence_full", xf)
        tally.missing("wcp_energy", xf)
        return
    if returncode != 0:
        tally.fail(1, f"exit {returncode}: {' '.join(argv)}")
        return
    values = {k.strip(): v for k, _, v in (line.partition(" = ") for line in stdout.splitlines())
              if v and not k.startswith("#")}
    cos_ab, proj = reference.orientation_invariants(*_orientations(opts))
    try:
        conc = float(values["concurrence_full"].split()[0])
        energy = float(values["wcp_energy"].split()[0])
    except (KeyError, ValueError):
        tally.fail(1, f"unparsable point output for {' '.join(argv)}")
        return
    tally.accuracy("concurrence_full", xf, conc, reference.concurrence(x, mu, cos_ab, proj))
    tally.accuracy("wcp_energy", xf, energy,
                   reference.wcp_energy(x, mu, cos_ab, proj, "--isotropic" in opts))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_sweep(tally: Tally, argv: list[str], returncode: int,
                rng: np.random.Generator) -> None:
    # imported here so that only the checking side, not the generator, needs vacpair
    from vacpair import (PairConfiguration, concurrence_far, concurrence_full,
                         concurrence_near, entanglement_of_formation, wcp)

    opts = parse_argv(argv)
    n = int(opts["--points"])
    tally.attempted += n
    path = Path(opts["--output"])
    if returncode != 0 or not path.exists():
        tally.fail(n, f"exit {returncode}: {' '.join(argv)}")
        return
    header, rows = _read_csv(path)
    path.unlink()
    if len(rows) != n:
        tally.fail(n, f"sweep wrote {len(rows)} rows, expected {n}")
        return
    xs = [float(r[header.index("x")]) for r in rows]
    lo, hi = float(opts["--xmin"]), float(opts["--xmax"])
    if not (all(a < b for a, b in zip(xs, xs[1:]))
            and math.isclose(xs[0], lo, rel_tol=1e-12)
            and math.isclose(xs[-1], hi, rel_tol=1e-12)):
        tally.fail(n, f"sweep x column is not a grid over [{lo}, {hi}]")
        return

    vec = lambda v: np.asarray(v) / np.linalg.norm(v)
    n_a, n_b, r_hat = (vec(v) for v in _orientations(opts))
    mu = float(opts["--mu"])
    isotropic = "--isotropic" in opts
    cos_ab, proj = reference.orientation_invariants(n_a, n_b, r_hat)
    # one row drawn from each of SAMPLED_ROWS equal strata, so every decade is hit
    edges = np.linspace(0, n, min(SAMPLED_ROWS, n) + 1).astype(int)
    for i in (int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])):
        row = dict(zip(header, rows[i]))
        x = float(row["x"])
        cfg = PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=mu)
        full = concurrence_full(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the child already reported them on its stderr
            energy = wcp(cfg, isotropic=isotropic).energy
        again = {
            "concurrence_full": full.raw,
            "concurrence_near": concurrence_near(cfg).raw,
            "concurrence_far": concurrence_far(cfg).raw,
            "eof": entanglement_of_formation(full.value),
            "wcp_energy": energy,
        }
        stored = {k: float(row[k]) for k in again}
        if stored != again or row["validity"] != full.validity.flag.value:
            tally.fail(1, f"sweep row x={row['x']} does not re-evaluate bit-exactly")
        tally.accuracy("concurrence_full", x, stored["concurrence_full"],
                       reference.concurrence(x, mu, cos_ab, proj))
        tally.accuracy("wcp_energy", x, stored["wcp_energy"],
                       reference.wcp_energy(x, mu, cos_ab, proj, isotropic))


_REPORT_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*?)\s+observed=(\S+)\s+expected=(\S+)")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")
_TENSOR_CHECK = re.compile(r"kernel\.contracted_tensor vs .* x=(\S+) (transverse|longitudinal)$")
# orientation invariants (n_a.n_b, (n_a.r)(n_b.r)) of the two named geometries
_GEOMETRY = {"transverse": ("1", "0"), "longitudinal": ("1", "1")}


def check_validate(tally: Tally, returncode: int, stdout: str) -> None:
    lines = stdout.splitlines()
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if summary is None:
        tally.attempted += 1
        tally.fail(1, f"validate exit {returncode} without a report")
        return
    passed, total = int(summary[1]), int(summary[2])
    tally.attempted += total
    if passed != total or returncode != 0:
        tally.fail(max(total - passed, 1), f"validate: {passed}/{total} passed, exit {returncode}")
    for line in lines[:-1]:
        m = _REPORT_LINE.match(line)
        t = _TENSOR_CHECK.search(m[2]) if m else None
        if t:
            x = float(t[1])
            expected = reference.expected_sum(1 / reference.mp.pi,
                                              reference.tensor_terms(t[1], *_GEOMETRY[t[2]]))
            # printed at 12 significant digits, far inside the tolerance
            tally.accuracy("contracted_tensor", x, float(m[4]), expected, m[2])
