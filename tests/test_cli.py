"""Command-line contract: flags, exit codes, CSV emission, validation runner."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacpair import PairConfiguration, cli, fit_powerlaw, validate
from vacpair.entanglement import concurrence_full, effective_density_matrix
from vacpair.errors import AccuracyError
from vacpair.model import pair_from_alignment

from conftest import unit_vectors

HYDROGEN_NEAR_10A0 = 0.0014798105528177165
LAZY_IMPORT_PROBE = Path(__file__).with_name("lazy_import_probe.py")


def run_cli(args):
    return cli.main(list(args))


def exit_code(args):
    """run_cli's return value, or the status an argparse error exits with."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def parse_point_report(text):
    values = {}
    for ln in text.splitlines():
        if "=" in ln and not ln.startswith("#"):
            key, _, val = ln.partition("=")
            values[key.strip()] = val.strip()
    return values


class TestPoint:
    def test_hydrogen_preset(self, capsys):
        code = run_cli(["point", "--preset", "hydrogen-1s2p", "--r", "10",
                        "--units", "atomic"])
        out = capsys.readouterr().out
        assert code == 0
        values = parse_point_report(out)
        near = float(values["concurrence_near"].split()[0])
        assert near == pytest.approx(HYDROGEN_NEAR_10A0, rel=1e-10)
        assert near == pytest.approx(1.48e-3, rel=1e-2)
        assert values["validity"].split()[0] == "OK"

    def test_decoupled_pair(self, capsys):
        code = run_cli(["point", "--mu", "0", "--x", "1"])
        out = capsys.readouterr().out
        assert code == 0
        values = parse_point_report(out)
        for key in ("concurrence_full", "concurrence_near", "concurrence_far",
                    "eof"):
            assert float(values[key].split()[0]) == 0.0

    def test_negative_x_is_usage_error(self, capsys):
        assert run_cli(["point", "--mu", "1e-4", "--x", "-1"]) == 2
        assert capsys.readouterr().err != ""

    def test_missing_coupling_is_usage_error(self):
        assert run_cli(["point", "--x", "1"]) == 2

    def test_conflicting_coupling_is_usage_error(self):
        assert run_cli(["point", "--x", "1", "--mu", "1e-4",
                        "--preset", "hydrogen-1s2p"]) == 2

    def test_invalid_regime_still_reports(self, capsys):
        code = run_cli(["point", "--mu", "1", "--x", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "INVALID" in out

    def test_si_units(self, capsys):
        bohr_m = 5.29177210903e-11
        code = run_cli(["point", "--preset", "hydrogen-1s2p",
                        "--r", str(10 * bohr_m), "--units", "si"])
        out = capsys.readouterr().out
        assert code == 0
        values = parse_point_report(out)
        assert float(values["r_over_a0"]) == pytest.approx(10.0, rel=1e-12)

    def test_mu_with_preset_at_r_is_usage_error(self, capsys):
        assert run_cli(["point", "--mu", "1e-4", "--preset", "hydrogen-1s2p",
                        "--r", "10"]) == 2
        assert "give either --mu or dimensional atoms" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["0.3", "10", "2500", "3e5"])
    def test_r_prints_what_its_x_prints(self, capsys, r):
        geometry = ["--preset", "hydrogen-1s2p", "--dipole-a=0.3,-0.4,1.1",
                    "--dipole-b=-0.2,0.9,0.5", "--sep-dir=1,2,3"]
        assert run_cli(["point", "--r", r, *geometry]) == 0
        by_r = capsys.readouterr().out
        x = parse_point_report(by_r)["x"]
        assert run_cli(["point", "--x", x, *geometry]) == 0
        assert capsys.readouterr().out == by_r


class TestSweep:
    def test_two_point_degenerate(self, capsys):
        code = run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "2",
                        "--points", "2"])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_monotone_concurrence_on_log_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--mu", "1e-4", "--xmin", "1e-2",
                        "--xmax", "1e2", "--points", "81",
                        "--output", str(path)])
        assert code == 0
        _, rows = parse_csv(path.read_text())
        assert len(rows) == 81
        values = [float(r["concurrence_full"]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_near_zone_slope_from_emitted_csv(self, tmp_path):
        path = tmp_path / "near.csv"
        run_cli(["sweep", "--mu", "1e-4", "--xmin", "0.005", "--xmax", "0.02",
                 "--points", "9", "--output", str(path)])
        _, rows = parse_csv(path.read_text())
        curve = [(float(r["x"]), float(r["concurrence_full"])) for r in rows]
        fit = fit_powerlaw(curve, (0.005, 0.02))
        assert fit.slope == pytest.approx(-3.0, abs=0.1)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "rt.csv"
        run_cli(["sweep", "--mu", "3e-4", "--xmin", "0.1", "--xmax", "30",
                 "--points", "7", "--output", str(path)])
        _, rows = parse_csv(path.read_text())
        for row in rows:
            x = float(row["x"])
            cfg = pair_from_alignment(x, 3e-4, 1.0, 0.0)
            assert concurrence_full(cfg).raw == float(row["concurrence_full"])
            assert cfg.mu * 1.0 / x**3 == float(row["concurrence_near"])

    def test_column_subset(self, capsys):
        code = run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "2",
                        "--points", "2", "--columns", "x,eof"])
        out = capsys.readouterr().out
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "eof"]
        assert set(rows[0]) == {"x", "eof"}

    def test_unknown_column_is_usage_error(self):
        assert run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "2",
                        "--points", "2", "--columns", "x,bogus"]) == 2

    def test_bad_range_is_usage_error(self):
        assert run_cli(["sweep", "--mu", "1e-4", "--xmin", "2", "--xmax", "1",
                        "--points", "5"]) == 2
        assert run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "2",
                        "--points", "1"]) == 2


def _count_calls(monkeypatch):
    """The names called, one entry per call, of the layers a row evaluates:
    T(x), aux, c_ee and the validity report, at every name a caller binds."""
    from vacpair import entanglement, kernel, model, specfun

    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(kernel, "contracted_tensor")
    count(kernel, "aux")
    count(specfun, "aux")
    for module in (model, entanglement):
        count(module, "amplitude_c_ee")
        count(module, "perturbative_validity")
    return calls


class TestSweepStreaming:
    @pytest.mark.parametrize("x, aux_calls", [(0.5, 2), (1.99, 2), (2.0, 1), (10.0, 1)])
    def test_a_row_evaluates_the_tensor_once(self, monkeypatch, capsys, x, aux_calls):
        # T(x) calls aux once; wcp calls it again, at 2x, below x = 2; the
        # three concurrence laws share one c_ee and one validity report
        calls = _count_calls(monkeypatch)
        assert run_cli(["point", "--mu", "1e-4", "--x", repr(x)]) == 0
        assert calls.count("contracted_tensor") == 1
        assert calls.count("aux") == aux_calls
        assert calls.count("amplitude_c_ee") == 1
        assert calls.count("perturbative_validity") == 1

    def test_the_effective_state_evaluates_c_ee_once(self, monkeypatch):
        # the state and its validity check read the configuration's one c_ee
        calls = _count_calls(monkeypatch)
        effective_density_matrix(pair_from_alignment(1.0, 1e-4))
        assert calls.count("amplitude_c_ee") == 1
        assert calls.count("perturbative_validity") == 1

    def test_a_sweep_chunk_evaluates_the_tensor_once(self, monkeypatch, capsys):
        # 256 rows are one chunk, one configuration with an array x
        calls = _count_calls(monkeypatch)
        assert run_cli(["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e3",
                        "--points", "256"]) == 0
        assert len(parse_csv(capsys.readouterr().out)[1]) == 256
        assert calls.count("contracted_tensor") == 1
        assert calls.count("amplitude_c_ee") == 1
        assert calls.count("perturbative_validity") == 1

    def test_memory_stays_flat(self, tmp_path):
        # the real evaluator: rows are computed and written a chunk at a
        # time, and no chunk is kept once it is written
        argv = ["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e6",
                "--points", "20000", "--output", str(tmp_path / "long.csv")]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("before", [None, "# an earlier sweep\n"])
    def test_failed_sweep_leaves_the_output_as_it_was(self, tmp_path, capsys, before):
        # a power of x overflows from x ~ 1e77, several rows into the sweep
        path = tmp_path / "out.csv"
        if before is not None:
            path.write_text(before)
        assert run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "1e300",
                        "--points", "50", "--output", str(path)]) == 1
        assert capsys.readouterr().err.startswith("vacpair: accuracy failure: ")
        assert os.listdir(tmp_path) == ([] if before is None else ["out.csv"])
        assert before is None or path.read_text() == before

    def test_stdout_and_file_get_the_same_bytes(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        argv = ["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e3",
                "--points", "30", "--isotropic"]
        assert run_cli(argv) == 0
        assert run_cli([*argv, "--output", str(path)]) == 0
        assert path.read_bytes() == capsys.readouterr().out.encode()


def _bits(values):
    """Floats by their bits (float.hex tells -0.0 and nan apart), strings as they are."""
    return [v if isinstance(v, str) else float(v).hex() for v in values]


# both sides of the x = 2 seam of wcp's moments (aux at 2x) and of the x = 4
# seam of aux's branches
_SEAMS = [math.nextafter(2.0, 0.0), 2.0, 3.99, 4.0, math.nextafter(4.0, 5.0)]


class TestBatchEqualsScalar:
    @settings(max_examples=60, deadline=None)
    @given(log_x=st.lists(st.floats(math.log(1e-6), math.log(1e12)), min_size=1,
                          max_size=40),
           n_a=unit_vectors, n_b=unit_vectors, r_hat=unit_vectors,
           mu=st.floats(0.0, 1e-2), isotropic=st.booleans())
    def test_every_column_of_an_array_call_is_its_float_call(self, log_x, n_a, n_b, r_hat,
                                                             mu, isotropic):
        xs = np.array(_SEAMS + [math.exp(v) for v in log_x])
        k0 = 0.375 / 137.035999084

        def evaluate(x):
            cfg = PairConfiguration(x=x, n_a=n_a, n_b=n_b, r_hat=r_hat, mu=mu)
            return cli._evaluate(cfg, x / k0, isotropic)

        batch = evaluate(xs)
        singles = [evaluate(x) for x in xs.tolist()]
        assert set(batch) == set(cli.CSV_COLUMNS + cli.EXTRA_COLUMNS)
        for name, values in batch.items():
            assert len(values) == len(xs)
            assert _bits(values) == _bits(row[name][0] for row in singles), name

    def test_overflowing_sweep_prints_the_rows_before_then_what_point_prints(self, capsys):
        # a power of x overflows from x ~ 1e77, several rows into the sweep
        argv = ["--mu", "1e-4", "--dipole-a=0.3,-0.4,1.1", "--sep-dir=1,2,3"]
        assert run_cli(["sweep", *argv, "--xmin", "1", "--xmax", "1e300",
                        "--points", "50"]) == 1
        out, err = capsys.readouterr()
        _, rows = parse_csv(out)
        assert 0 < len(rows) < 50
        failing = float(np.geomspace(1.0, 1e300, 50)[len(rows)])
        assert run_cli(["point", *argv, "--x", repr(failing)]) == 1
        assert capsys.readouterr() == ("", err)
        assert err.count("\n") == 1
        for row in rows:
            assert run_cli(["point", *argv, "--x", row["x"]]) == 0
            report = parse_point_report(capsys.readouterr().out)
            assert report["concurrence_far"] == row["concurrence_far"]
            assert report["wcp_energy"].split()[0] == row["wcp_energy"]

    def test_a_chunk_that_fails_where_no_row_does_is_an_internal_error(self, monkeypatch,
                                                                        capsys):
        evaluate = cli._evaluate

        def chunks_fail(cfg, r_over_a0, isotropic):
            if np.ndim(cfg.x):
                raise AccuracyError("wcp_energy: a chunk-only failure")
            return evaluate(cfg, r_over_a0, isotropic)

        monkeypatch.setattr(cli, "_evaluate", chunks_fail)
        with pytest.raises(RuntimeError, match="none of its rows did: wcp_energy"):
            run_cli(["sweep", "--mu", "1e-4", "--xmin", "1", "--xmax", "10",
                     "--points", "5"])
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 5

    def test_a_failing_chunk_names_its_first_bad_x_in_one_line(self):
        cfg = pair_from_alignment(np.array([1.0, 1e50, 1e120, 1e150]), 1e-4)
        with pytest.raises(AccuracyError) as info:
            cli._evaluate(cfg, cfg.x, False)
        assert str(info.value) == ("concurrence_near: out of floating-point range at "
                                   "x=1e+120 (OverflowError)")


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1e-4\ndipole-a = 0,1,0\n")
        code = run_cli(["point", "--x", "1", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_point_report(out)["mu"].startswith("0.0001")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1e-4\n")
        code = run_cli(["point", "--x", "1", "--mu", "5e-4",
                        "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert float(parse_point_report(out)["mu"]) == 5e-4

    def test_environment_default(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("mu = 2e-4\n")
        monkeypatch.setenv("VACPAIR_CONFIG", str(cfg))
        code = run_cli(["point", "--x", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(parse_point_report(out)["mu"]) == 2e-4

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu 1e-4\n")
        assert run_cli(["point", "--x", "1", "--config", str(cfg)]) == 2

    def test_abbreviated_config_flag_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 3e-4\n")
        assert run_cli(["point", "--x", "1", "--conf", str(cfg)]) == 0
        assert float(parse_point_report(capsys.readouterr().out)["mu"]) == 3e-4

    def test_negative_vector_component(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1e-4\ndipole-a = -1,0,0\n")
        assert run_cli(["point", "--x", "1", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("line, argv", [
        ("mu = abc", ["point", "--x", "1"]),
        ("preset = bogus", ["point", "--r", "10"]),
        ("units = Atomic", ["point", "--preset", "hydrogen-1s2p", "--r", "10"]),
        ("isotropic = maybe", ["point", "--mu", "1e-4", "--x", "1"]),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, line, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert exit_code([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_sweep_range_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mu = 1e-4\nxmin = 1\nxmax = 2\npoints = 3\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [float(r["x"]) for r in rows] == pytest.approx([1.0, 2**0.5, 2.0])

    def test_one_file_serves_point_and_sweep(self, tmp_path, capsys,
                                             monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("mu = 1e-4\nx = 0.5\nxmin = 1\nxmax = 2\npoints = 2\n")
        monkeypatch.setenv("VACPAIR_CONFIG", str(cfg))
        assert run_cli(["point"]) == 0
        assert float(parse_point_report(capsys.readouterr().out)["x"]) == 0.5
        assert run_cli(["sweep", "--points", "4"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4

    def test_one_dimensional_file_serves_point_and_sweep(self, tmp_path, capsys):
        # r and units are point's flags; sweep ignores them like any other key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = hydrogen-1s2p\nr = 10\nunits = atomic\n"
                       "xmin = 0.01\nxmax = 0.1\npoints = 3\n")
        assert run_cli(["point", "--config", str(cfg)]) == 0
        report = parse_point_report(capsys.readouterr().out)
        assert float(report["r_over_a0"]) == pytest.approx(10.0, rel=1e-12)
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [float(r["x"]) for r in rows] == pytest.approx([0.01, 0.1**1.5, 0.1])

    @pytest.mark.parametrize("flag", ["--r=10", "--units=si"])
    def test_sweep_rejects_separation_flags(self, flag):
        assert exit_code(["sweep", "--preset", "hydrogen-1s2p", "--xmin", "0.01",
                          "--xmax", "0.1", "--points", "3", flag]) == 2

    def test_command_and_help_keys_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1e-4\ncommand = sweep\nhelp = yes\n")
        assert run_cli(["point", "--x", "1", "--config", str(cfg)]) == 0
        assert "concurrence_full" in capsys.readouterr().out


class TestArgparseContract:
    # in process: argparse exits through SystemExit, whose code is the status
    # the process would end with (test_c10 checks that status end to end)
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["point", "--bogus", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip() != ""

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip() != ""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0


class TestExtremeSeparation:
    def test_tiny_x_reports_invalid_row(self, capsys):
        # f(1e-18) rounds to pi/2 exactly, a correct value
        assert run_cli(["point", "--mu", "1e-4", "--x", "1e-18"]) == 0
        assert "validity            = INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize("x", ["1e100", "1e-200"])
    def test_overflow_and_underflow_are_accuracy_failures(self, capsys, x):
        # x**4 overflows at 1e100 in the far-zone law; x**2 underflows to 0 at
        # 1e-200 in T(x), which concurrence_full evaluates first
        column = {"1e100": "concurrence_far", "1e-200": "concurrence_full"}[x]
        assert run_cli(["point", "--mu", "1e-4", "--x", x]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"vacpair: accuracy failure: {column}: ")
        assert f"x={float(x)!r}" in err

    def test_huge_x_prints_its_row_without_warnings(self, capsys):
        # |W| < 1e-400 underflows to 0; no power of x may overflow on the way
        assert run_cli(["point", "--mu", "1e-4", "--x", "1e60"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert parse_point_report(captured.out)["wcp_energy"].startswith("-0 ")

    def test_overflowing_energy_names_wcp_and_x(self, capsys):
        assert run_cli(["point", "--mu", "1e-4", "--x", "1e-60"]) == 1
        assert capsys.readouterr().err == (
            "vacpair: accuracy failure: wcp_energy: out of floating-point range "
            "at x=1e-60 (OverflowError)\n")

    def test_overflowing_concurrence_names_concurrence_full_and_x(self, capsys):
        # T(x) ~ 1/x^3 overflows where x**2 is still normal; the far-zone
        # law's x**4 underflows to 0 there, but concurrence_full runs first
        assert run_cli(["point", "--mu", "1e-4", "--x", "1e-105"]) == 1
        assert capsys.readouterr().err == (
            "vacpair: accuracy failure: concurrence_full: out of floating-point "
            "range at x=1e-105 (OverflowError)\n")

    def test_overflowing_coupling_names_mu_and_omega0(self, capsys):
        # mu = |d_A||d_B| k0^3 / omega0: k0^3 overflows before any row
        assert run_cli(["point", "--omega0", "1e300", "--dmag-a", "1",
                        "--dmag-b", "1", "--x", "1"]) == 1
        assert capsys.readouterr().err == (
            "vacpair: accuracy failure: reduce: mu is out of floating-point "
            "range at omega0=1e+300, |d_A|=1.0, |d_B|=1.0\n")

    def test_overflowing_r_over_a0_names_its_x(self, capsys):
        # k0 = 7.3e-303 puts R = x / k0 past 1.8e308 from x = 1.4e6 on, where
        # every law holds (mu underflows to 0); the sweep's array division
        # used to warn on stderr and print inf, and point left the line out
        atoms = ["--omega0", "1e-300", "--dmag-a", "1", "--dmag-b", "1"]
        expected = ("vacpair: accuracy failure: r_over_a0: out of floating-point "
                    "range at x=10000000.0 (OverflowError)\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["point", *atoms, "--x", "1e7"]) == 1
            assert capsys.readouterr() == ("", expected)
            assert run_cli(["sweep", *atoms, "--xmin", "1", "--xmax", "1e7",
                            "--points", "3"]) == 1
        out, err = capsys.readouterr()
        assert err == expected
        assert [row["r_over_a0"] for row in parse_csv(out)[1]] == [
            "1.3703599908369579e+302", "4.3334587854122568e+305"]


def _log_uniform(lo, hi):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# a vector component: 0, or of either sign with magnitude 1e-320 to 1e300
_COMPONENT = st.one_of(st.just(0.0), st.builds(lambda sign, m: sign * m,
                                               st.sampled_from((-1.0, 1.0)),
                                               _log_uniform(-320.0, 300.0)))
_X = _log_uniform(-323.3, 308.0)  # 5e-324 to 1e308


@st.composite
def _cli_argv(draw):
    """A point or sweep argv that parses, from the whole range of each flag."""
    command = draw(st.sampled_from(("point", "sweep")))
    coupling = draw(st.sampled_from(("mu", "preset", "atoms")))
    argv = [command]
    if coupling == "mu":
        argv += ["--mu", repr(draw(st.one_of(st.just(0.0), _log_uniform(-300.0, 300.0))))]
    elif coupling == "preset":
        argv += ["--preset", "hydrogen-1s2p"]
    else:
        for flag in ("--omega0", "--dmag-a", "--dmag-b"):
            argv += [flag, repr(draw(_log_uniform(-300.0, 300.0)))]
    for flag in ("--dipole-a", "--dipole-b", "--sep-dir"):
        if draw(st.booleans()):
            argv.append(f"{flag}=" + ",".join(map(repr, draw(st.tuples(*[_COMPONENT] * 3)))))
    if draw(st.booleans()):
        argv.append("--isotropic")
    if command == "sweep":
        lo, hi = sorted((draw(_X), draw(_X)))
        argv += ["--xmin", repr(lo), "--xmax", repr(hi),
                 "--points", str(draw(st.integers(2, 20))),
                 "--scale", draw(st.sampled_from(("log", "linear")))]
    elif coupling != "mu" and draw(st.booleans()):
        argv += ["--r", repr(draw(_X)), "--units", draw(st.sampled_from(("atomic", "si")))]
    else:
        argv += ["--x", repr(draw(_X))]
    return argv


class TestExitContractOverTheDomain:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(argv=_cli_argv())
    def test_exit_code_and_one_stderr_line(self, argv):
        # whatever the inputs, main returns 0, 1 or 2 with no exception and no
        # warning, and a failure is its one `vacpair:` line on stderr
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = run_cli(argv)
        assert code in (0, 1, 2)
        message = err.getvalue()
        if code == 0:
            assert message == ""
        else:
            assert message.startswith("vacpair: ") and message.count("\n") == 1
            assert message.endswith("\n")


class TestUnitVectorRange:
    @pytest.mark.parametrize("flag, value", [("--dipole-a", "1e200,0,0"),
                                             ("--dipole-a", "1e-320,0,0"),
                                             ("--sep-dir", "0,0,1e200")])
    def test_scaled_vector_prints_what_the_unit_one_prints(self, capsys, flag, value):
        # the sum of squares of the vector overflows or underflows
        unit = value.replace("1e200", "1").replace("1e-320", "1")
        assert run_cli(["point", "--mu", "1e-4", "--x", "1", f"{flag}={unit}"]) == 0
        expected = capsys.readouterr().out
        assert run_cli(["point", "--mu", "1e-4", "--x", "1", f"{flag}={value}"]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_huge_dipole_magnitude_names_the_overflowing_column(self, capsys):
        # |d_A| = 1e200 gives mu ~ 4e193, whose square the energy overflows
        assert run_cli(["point", "--omega0", "1", "--dmag-a", "1e200",
                        "--dmag-b", "1", "--x", "1"]) == 1
        assert capsys.readouterr().err == (
            "vacpair: accuracy failure: wcp_energy: out of floating-point range "
            "at x=1.0 (OverflowError)\n")

    def test_nonfinite_vector_is_usage_error(self, capsys):
        assert run_cli(["point", "--mu", "1e-4", "--x", "1", "--sep-dir=inf,0,0"]) == 2
        assert capsys.readouterr().err == "vacpair: error: sep-dir must be finite\n"


class TestLazyImports:
    def test_cli_paths_load_no_scipy_oracle_or_lazy_numpy_module(self):
        # in one cold child: point, sweep and validate with scipy blocked,
        # no oracle on the point and sweep paths, and neither numpy.polynomial
        # nor numpy.random on any path (the probe's docstring has the list)
        proc = subprocess.run([sys.executable, "-W", "error", str(LAZY_IMPORT_PROBE)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        out = proc.stdout
        assert "127/127 checks passed" in out
        assert "43/43 checks passed" in out
        _, rows = parse_csv(out[out.index("# vacpair sweep"):out.index("[PASS]")])
        assert len(rows) == 50


class TestValidateCommand:
    def test_fast_level_passes(self, capsys):
        code = run_cli(["validate", "--level", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_perturbed_kernel_is_caught(self, capsys, monkeypatch):
        from vacpair import kernel

        original = kernel.contracted_tensor

        def perturbed(x, cos_ab, proj_product):
            return original(x, cos_ab, proj_product) * (1.0 + 1e-3)

        monkeypatch.setattr(kernel, "contracted_tensor", perturbed)
        code = run_cli(["validate", "--level", "fast"])
        out = capsys.readouterr().out
        assert code == 1
        failing = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
        assert any("contracted_tensor" in ln and "modesum" in ln
                   for ln in failing)
