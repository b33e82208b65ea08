import os
from pathlib import Path

import numpy as np
import pytest

import vacpair
from vacpair import pair_from_alignment

# the CLI tests that start `python -m vacpair.cli` in a child process need the
# child to import the package these tests import, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(vacpair.__file__).parents[1]), os.environ.get("PYTHONPATH"))))

# the standard separation grid used by the oracle-equivalence suites
STANDARD_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)


def transverse_pair(x, mu=1e-4):
    """Parallel dipoles perpendicular to the separation axis."""
    return pair_from_alignment(x, mu, cos_ab=1.0, proj_product=0.0)


def longitudinal_pair(x, mu=1e-4):
    """Both dipoles along the separation axis."""
    return pair_from_alignment(x, mu, cos_ab=1.0, proj_product=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_x_state(rng):
    """Random positive-semidefinite X-structured density matrix."""
    diag = rng.dirichlet(np.ones(4))
    m = np.diag(diag).astype(complex)
    m[0, 3] = rng.uniform() * np.sqrt(diag[0] * diag[3]) * np.exp(2j * np.pi * rng.uniform())
    m[3, 0] = np.conj(m[0, 3])
    m[1, 2] = rng.uniform() * np.sqrt(diag[1] * diag[2]) * np.exp(2j * np.pi * rng.uniform())
    m[2, 1] = np.conj(m[1, 2])
    return m


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real
