"""Seeded argv streams for the benchmark workloads.

Every stream is an endless iterator of `vacpair` argv lists drawn from one
seed, so the same seed always yields the same sequence and the program sees
nothing but the generated arguments.

`point` draws x from [1e-6, 1e12], the domain the CLI accepts.  `sweep`
stops at 1e11: at the seed commit `specfun.aux` raises AccuracyError
(exit 1) for about 15% of the x in (1.07e11, 1e12], because its continued
fraction cannot meet a 1e-16 stopping test, and one such row aborts the
whole sweep.  A point that hits it is a missing value in wrong_frac (see
checks.py); every silent wrong-answer zone (x >= 1e3 for T(x), x >= 3e4
for wcp) lies inside both ranges.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

X_MIN = 1e-6
X_MAX = 1e12
SWEEP_X_MAX = 1e11
MU_RANGE = (1e-8, 1e-2)
SWEEP_POINTS = 600
# the angle of (p, q) of every sweep job but SWEEP_ISOTROPIC_JOB, which is --isotropic;
# both cost about 2.0e5 wcp integrand evaluations per 600-row job
SWEEP_ANGLE = 7 * math.pi / 16
SWEEP_ISOTROPIC_JOB = 1
VALIDATE_ARGV = ("validate", "--level", "full")

# hydrogen 1s-2p: k0 = omega0 / c in inverse Bohr radii, and the Bohr radius
_HYDROGEN_K0 = 0.375 * 7.2973525693e-3
_BOHR_RADIUS_SI = 5.29177210903e-11


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _vec(flag: str, rng: np.random.Generator) -> str:
    # one token, so that argparse does not take a leading minus for a flag
    return f"{flag}=" + ",".join(repr(float(c)) for c in rng.normal(size=3))


def _orientation_args(rng: np.random.Generator) -> list[str]:
    args = [_vec("--dipole-a", rng), _vec("--sep-dir", rng)]
    if rng.uniform() < 0.75:
        args.append(_vec("--dipole-b", rng))
    return args


def point_stream(seed: int):
    """Cold `point` invocations: half --mu/--x, half the hydrogen preset at --r."""
    rng = np.random.default_rng([seed, 1])
    while True:
        x = _log_uniform(rng, X_MIN, X_MAX)
        if rng.uniform() < 0.5:
            argv = ["point", "--mu", repr(_log_uniform(rng, *MU_RANGE)),
                    "--x", repr(x)]
        else:
            r = x / _HYDROGEN_K0
            units = "atomic" if rng.uniform() < 0.5 else "si"
            if units == "si":
                r *= _BOHR_RADIUS_SI
            argv = ["point", "--preset", "hydrogen-1s2p", "--r", repr(r),
                    "--units", units]
        argv += _orientation_args(rng)
        if rng.uniform() < 0.25:
            argv.append("--isotropic")
        yield argv


def _pattern_geometry(angle: float, rotation: np.ndarray) -> list[str]:
    """Orientation flags whose pattern (p, q) is proportional to (sin angle, cos angle).

    p = n_a.n_b - (n_a.r)(n_b.r) and q = n_a.n_b - 3 (n_a.r)(n_b.r).  The
    vectors are built in a frame with r along z, then rotated as a whole.
    """
    p, q = 0.5 * math.sin(angle), 0.5 * math.cos(angle)
    b = (p - q) / 2  # (n_a.r)(n_b.r)
    ca, cb = math.sqrt(abs(b)), math.copysign(math.sqrt(abs(b)), b)
    sa, sb = math.sqrt(1 - ca * ca), math.sqrt(1 - cb * cb)
    cphi = p / (sa * sb)  # n_a.n_b - (n_a.r)(n_b.r) = sa sb cos(phi)
    vectors = (np.array([sa, 0.0, ca]),
               np.array([sb * cphi, sb * math.sqrt(1 - cphi * cphi), cb]),
               np.array([0.0, 0.0, 1.0]))
    return [f"{flag}=" + ",".join(repr(float(c)) for c in rotation @ v)
            for flag, v in zip(("--dipole-a", "--dipole-b", "--sep-dir"), vectors)]


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def sweep_stream(seed: int, workdir: Path, points: int = SWEEP_POINTS):
    """Cold `sweep` jobs over [X_MIN, SWEEP_X_MAX], each writing its CSV to workdir.

    Every job has the same orientations and the seed draws each job's mu.
    The adaptive wcp quadrature makes a job's cost depend on the last bits
    of its orientations: a rotation that leaves p and q unchanged changes
    the integrand evaluations of a sweep by up to a factor of 2, so seeded
    orientations would make the fastest job of a run a lottery.  mu scales
    the result after the quadrature and costs nothing.
    """
    rng = np.random.default_rng([seed, 2])
    geometry = _pattern_geometry(SWEEP_ANGLE, _rotation(np.random.default_rng(0)))
    for job in itertools.count():
        argv = ["sweep", "--mu", repr(_log_uniform(rng, *MU_RANGE)),
                "--xmin", repr(X_MIN), "--xmax", repr(SWEEP_X_MAX), "--points", str(points),
                *geometry]
        if job == SWEEP_ISOTROPIC_JOB:
            argv.append("--isotropic")
        argv += ["--output", str(workdir / f"sweep_{job}.csv")]
        yield argv


def validate_stream(seed: int):
    """Cold `validate --level full`; it takes no input, so the seed is unused."""
    del seed
    return itertools.repeat(list(VALIDATE_ARGV))


def stream(workload: str, seed: int, workdir: Path, sweep_points: int = SWEEP_POINTS):
    if workload == "point_cold":
        return point_stream(seed)
    if workload == "sweep_domain":
        return sweep_stream(seed, workdir, sweep_points)
    if workload == "validate_full":
        return validate_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("point_cold", "sweep_domain", "validate_full")
