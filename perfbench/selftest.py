"""Tests of the benchmark itself (not of vacpair).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of a plain `pytest` run of the
repository; the smoke tests start cold interpreters and take about a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import checks
import reference
import run
import workloads
from spans import Span, Tracer, self_times, summarize

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
STREAMED = ("point_cold", "sweep_domain")


def _take(workload: str, seed: int, n: int = 12) -> list[list[str]]:
    return list(itertools.islice(workloads.stream(workload, seed, Path("out")), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _take(workload, 5) == _take(workload, 5)


@pytest.mark.parametrize("workload", STREAMED)
def test_other_seed_other_argv(workload):
    assert _take(workload, 5) != _take(workload, 6)


def test_point_inputs_cover_the_domain_and_both_input_modes():
    argvs = _take("point_cold", 3, 400)
    xs = [float(a[a.index("--x") + 1]) for a in argvs if "--x" in a]
    assert min(xs) < 1e-4 and max(xs) > 1e9
    assert all(workloads.X_MIN <= x <= workloads.X_MAX for x in xs)
    assert any("--preset" in a for a in argvs) and any("si" in a for a in argvs)
    assert any("--isotropic" in a for a in argvs)


def test_reference_london_limit():
    # W x^6 -> -(mu^2 q^2 / 2) with q = n_a.n_b - 3 (n_a.r)(n_b.r)
    for cos_ab, proj in ((1, 0), (1, 1), (0.3, 0.2)):
        q = mp.mpf(cos_ab) - 3 * mp.mpf(proj)
        x, mu = mp.mpf("1e-5"), mp.mpf("1e-3")
        w = reference.wcp_energy(x, mu, cos_ab, proj).value * x**6
        assert abs(w / (-(mu * q) ** 2 / 2) - 1) < 1e-8


def test_reference_far_zone_casimir_polder():
    # transverse pair, mu = 1: W x^7 -> -(2/pi)(3/4 + 5/4 + 5/4) = -6.5/pi = -2.069
    w = reference.wcp_energy(mp.mpf("1e9"), 1, 1, 0).value * mp.mpf("1e9") ** 7
    assert abs(w / (-6.5 / mp.pi) - 1) < 1e-8
    assert abs(w + 2.069) < 5e-4


def test_reference_tensor_limits():
    for cos_ab, proj in ((1, 0), (0.5, 0.1)):
        # near zone: T x^3 -> (pi/2)(n_a.n_b - 3 (n_a.r)(n_b.r)), the C ~ x^-3 law
        near = reference.contracted_tensor("1e-6", cos_ab, proj) * mp.mpf("1e-6") ** 3
        assert abs(near / (mp.pi / 2 * (cos_ab - 3 * mp.mpf(proj))) - 1) < 1e-5
        # far zone: |T| x^4 -> 4 |n_a.n_b - 2 (n_a.r)(n_b.r)|, the C ~ x^-4 law
        far = reference.contracted_tensor("1e8", cos_ab, proj) * mp.mpf("1e8") ** 4
        assert abs(abs(far) / (4 * abs(cos_ab - 2 * mp.mpf(proj))) - 1) < 1e-6


def test_conditioned_error_ignores_orientation_cancellation():
    # the two terms of T cancel to 1e-6 of their size; an error of 1e-12 of
    # that size is relative error 1e-6 but conditioned error 1e-12
    expected = reference.expected_sum(1, [mp.mpf(1) + mp.mpf("1e-6"), mp.mpf(-1)])
    observed = float(expected.value + mp.mpf("2e-12"))
    assert reference.relative_error(observed, expected) == pytest.approx(2e-6, rel=1e-3)
    assert reference.conditioned_error(observed, expected) == pytest.approx(1e-12, rel=1e-3)


def test_laplace_reduction_matches_quadrature():
    x = mp.mpf("0.7")
    for n, moment in enumerate(reference.laplace_moments(x)):
        with mp.workdps(30):
            direct = mp.quad(lambda v: v**n * mp.exp(-2 * x * v) / (1 + v * v) ** 2,
                             [0, 1, 10, mp.inf])
            assert abs(moment / direct - 1) < 1e-25


def test_self_time_is_duration_minus_child_cover():
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 3.0, 0), Span("a.1", 1.5, 2.5, 1),
             Span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])
    assert summarize(spans)["a"] == (1, pytest.approx(1.0))


def test_tracer_records_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, lambda args, kwargs: "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, lambda args, kwargs: "outer")
    assert tracer.call("root", outer, 1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("root", -1), ("outer", 0), ("inner", 1)]
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_tracer_install_restores_originals():
    from vacpair import entanglement, kernel

    before = (kernel.aux, entanglement.contracted_tensor)
    tracer = Tracer()
    tracer.install()
    assert kernel.aux is not before[0]
    tracer.uninstall()
    assert (kernel.aux, entanglement.contracted_tensor) == before


def test_tracer_install_raises_on_a_missing_binding():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([("vacpair.kernel", "no_such_function", lambda args, kwargs: "x")])
    tracer.uninstall()


def test_accuracy_failure_is_a_missing_value_not_a_failed_operation():
    tally = checks.Tally()
    argv = ["point", "--mu", "1e-4", "--x", "5e11"]
    checks.check_point(tally, argv, 1, "", f"{checks.ACCURACY_FAILURE}: aux did not converge\n")
    assert (tally.attempted, tally.failed, tally.checked, tally.wrong) == (1, 0, 2, 2)
    assert tally.correct
    checks.check_point(tally, ["point", "--mu", "1e-4", "--x", "50"], 1, "",
                       f"{checks.ACCURACY_FAILURE}: aux did not converge\n")
    assert not tally.correct  # inside the trusted range


def test_tail_latency():
    assert run.tail_latency([float(i) for i in range(20)]) is None
    value, pct = run.tail_latency([float(i) for i in range(30)])
    assert (value, round(pct)) == (19.0, 67)


def test_import_profile_parsing():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   numpy.core\n"
            "import time:       200 |        300 | numpy\n"
            "import time:       400 |        400 |     scipy.integrate\n"
            "import time:        50 |        950 | vacpair\n"
            "import time:        30 |         30 | vacpair.cli\n")
    assert run.import_profile(text) == pytest.approx(
        {"import.total_s": 980e-6, "import.scipy_s": 400e-6, "import.numpy_s": 300e-6})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload, tmp_path):
    names = lambda kind: {m["name"] for m in SPEC[kind]}
    result = run.end_to_end(workload, 1, 0.0, tmp_path, setup_slots=1, sweep_points=12)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    suite = workload == "validate_full"
    result = run.traced(workload, 1, 0.0, tmp_path, sweep_points=12, profile_reps=1,
                        suite=suite)
    assert result["correct"] and result["failed"] == 0
    got = set(result["metrics"])
    assert got == names("per_layer") if suite else got < names("per_layer")
    if workload != "validate_full":
        per_row = {k: result["metrics"][k]["value"] for k in
                   ("kernel.contracted_tensor.calls_per_row", "specfun.aux.calls_per_row",
                    "model.perturbative_validity.calls_per_row")}
        assert per_row == {"kernel.contracted_tensor.calls_per_row": 4.0,
                           "specfun.aux.calls_per_row": 4.0,
                           "model.perturbative_validity.calls_per_row": 3.0}


def test_traced_run_fails_when_a_layer_records_no_span(tmp_path, monkeypatch):
    required = dict(run.REQUIRED_SPANS, point_cold=run.REQUIRED_SPANS["point_cold"] + ("gone",))
    monkeypatch.setattr(run, "REQUIRED_SPANS", required)
    with pytest.raises(SystemExit, match="gone"):
        run.traced("point_cold", 1, 0.0, tmp_path, profile_reps=1, suite=False)


def test_benchmark_spec_names_match_the_program():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point_cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
