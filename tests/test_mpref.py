"""The mpmath reference checks itself, and stays the suite's one importer of mpmath."""

import ast
from pathlib import Path

import pytest

import mpref


@pytest.mark.parametrize("x", [1e-2, 0.3, 7.0, 100.0, 1e4])
def test_fg_match_their_laplace_integrals(x):
    # a second representation: f = int_0^inf e^(-u) / (1 + (u/x)^2) du / x and
    # g the same with u / x^2 in place of 1 / x, in u = x t (DLMF 6.7)
    mp = mpref.mpmath()
    (f, _), (g, _) = mpref.fg(x)
    with mp.workdps(35):
        t = mp.mpf(x)
        for n, ref in enumerate((f, g)):
            value = mp.quad(lambda u: u**n * mp.exp(-u) / (1 + (u / t) ** 2),
                            [0, t, mp.inf]) / t ** (n + 1)
            assert abs(value - ref) <= 1e-25 * ref, (n, x)


@pytest.mark.parametrize("x", [1e-300, 1e-60, 1e-6, 1.0, 1e6, 1e12, 1e300])
def test_digit_rule_holds_against_40_more_digits(monkeypatch, x):
    mp = mpref.mpmath()
    references = (lambda: mpref.derivatives(x)[0], lambda: mpref.derivatives(x)[1],
                  lambda: mpref.tensor(x, 1.0, 0.0), lambda: mpref.x_over_mu(x, 1.0, 0.0),
                  lambda: mpref.wcp(x, 1.0, 1.0, 0.25),
                  lambda: mpref.wcp(x, 1.0, 1.0, 0.0, isotropic=True))
    values = [ref().value for ref in references]
    rule = mpref.digits
    monkeypatch.setattr(mpref, "digits", lambda x: rule(x) + 40)
    for value, ref in zip(values, references):
        exact = ref().value
        with mp.workdps(rule(x) + 40):
            assert abs(value - exact) <= 1e-25 * abs(exact), x


def test_only_mpref_imports_mpmath():
    # one precision rule: every other test module asks mpref for its values;
    # importorskip called, or passed to a call such as functools.partial
    importers = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and any(
                    getattr(n, "attr", getattr(n, "id", "")) == "importorskip"
                    for n in (node.func, *node.args)):
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
            else:
                continue
            if any(str(name).split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == {"mpref.py"}
