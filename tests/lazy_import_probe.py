"""What a cold interpreter loads to run the CLI.

Run it as a script in an interpreter that has imported neither vacpair nor
scipy, with warnings as errors:

    python -W error tests/lazy_import_probe.py

It exits 0, with nothing on stderr, when importing the CLI loads no scipy,
`point` and `sweep` load neither the validation suite nor the oracles, no
command loads scipy, `numpy.polynomial` or `numpy.random`, and neither the
import nor any command loads `dataclasses`; scipy is blocked before the
first command.  Its stdout holds three `point` reports, a 50-row sweep and
both `validate` reports.  The file name keeps pytest from collecting it;
tests/test_cli.py runs it in one child process.
"""

import sys

from vacpair.cli import main


def run(argv):
    # vacpair's records are built without `dataclasses`: importing it (and
    # `inspect`) and decorating the classes took about half the import time
    assert main(argv) == 0, argv
    assert "dataclasses" not in sys.modules, argv


assert "scipy" not in sys.modules, "importing the CLI loads scipy"
assert "vacpair.validate" not in sys.modules
assert "dataclasses" not in sys.modules, "importing the CLI loads dataclasses"
sys.modules["scipy"] = None  # every import of scipy now raises ImportError

run(["point", "--mu", "1e-4", "--x", "1.5"])
run(["point", "--mu", "1e-4", "--x", "1.5", "--isotropic"])
run(["point", "--mu", "1e-4", "--x", "30"])
run(["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e6", "--points", "50"])
# point and sweep need no oracle suite, nor any oracle
assert "vacpair.validate" not in sys.modules
assert "vacpair.oracle" not in sys.modules

# the oracles need numpy alone
run(["validate", "--level", "full"])
run(["validate", "--level", "fast"])
assert sys.modules["scipy"] is None
# the quadrature rules are built with numpy.linalg and validate draws from
# the standard library's random, so neither lazy numpy submodule loads
loaded = [name for name in sys.modules if name.startswith("scipy.")
          or name in ("numpy.polynomial", "numpy.random")]
assert not loaded, loaded
