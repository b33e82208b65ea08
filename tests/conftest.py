import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import vacpair
from vacpair import pair_from_alignment
# the tests draw X states and use the standard separation grid the way
# `vacpair validate` does
from vacpair.validate import _STANDARD_GRID as STANDARD_GRID
from vacpair.validate import _random_x_states

# the CLI tests that start `python -m vacpair.cli` in a child process need the
# child to import the package these tests import, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(vacpair.__file__).parents[1]), os.environ.get("PYTHONPATH"))))


def pytest_configure(config):
    # a library warning fails the test that raised it instead of leaking into
    # the summary; set here, not in pyproject.toml, so that it holds for this
    # suite only (the benchmark self-tests count wcp's warnings as data)
    config.addinivalue_line("filterwarnings", "error")
    # except hypothesis's own deprecation warning from inside its report hook:
    # as an error it is an INTERNALERROR that ends the session at the first
    # failing property test
    config.addinivalue_line(
        "filterwarnings",
        r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning")


def transverse_pair(x, mu=1e-4):
    """Parallel dipoles perpendicular to the separation axis."""
    return pair_from_alignment(x, mu, cos_ab=1.0, proj_product=0.0)


def longitudinal_pair(x, mu=1e-4):
    """Both dipoles along the separation axis."""
    return pair_from_alignment(x, mu, cos_ab=1.0, proj_product=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_x_state(rng):
    # the stdlib generator `vacpair validate` draws from, seeded from rng
    return _random_x_states(random.Random(int(rng.integers(2**63))), 1)[0]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# hypothesis strategy for unit 3-vectors
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.asarray(v) / np.linalg.norm(v))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real
