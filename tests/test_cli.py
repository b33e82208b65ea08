"""Command-line contract: flags, exit codes, CSV emission, validation runner."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vacpair import cli, fit_powerlaw, validate
from vacpair.entanglement import concurrence_full
from vacpair.model import pair_from_alignment

HYDROGEN_NEAR_10A0 = 0.0014798105528177165


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


class TestSweepStreaming:
    @pytest.mark.parametrize("x, aux_calls", [(0.5, 2), (1.99, 2), (2.0, 1), (10.0, 1)])
    def test_a_row_evaluates_the_tensor_once(self, monkeypatch, capsys, x, aux_calls):
        # T(x) calls aux once; wcp calls it again, at 2x, below x = 2
        from vacpair import kernel, specfun

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
        assert run_cli(["point", "--mu", "1e-4", "--x", repr(x)]) == 0
        assert calls.count("contracted_tensor") == 1
        assert calls.count("aux") == aux_calls

    def test_memory_stays_flat(self, tmp_path, monkeypatch):
        # rows are written as they are computed, none kept; every row is a
        # fresh copy of one evaluated row, which keeps tracemalloc's cost small
        row = cli._evaluate_row(pair_from_alignment(1.0, 1e-4), float("nan"), False)
        monkeypatch.setattr(cli, "_evaluate_row", lambda *args: dict(row))
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
        err = capsys.readouterr().err
        assert err.startswith("vacpair: accuracy failure: wcp_energy: wcp")
        assert "x=1e-60" in err

    def test_overflowing_coupling_names_mu_and_omega0(self, capsys):
        # mu = |d_A||d_B| k0^3 / omega0: k0^3 overflows before any row
        assert run_cli(["point", "--omega0", "1e300", "--dmag-a", "1",
                        "--dmag-b", "1", "--x", "1"]) == 1
        assert capsys.readouterr().err == (
            "vacpair: accuracy failure: reduce: mu is out of floating-point "
            "range at omega0=1e+300, |d_A|=1.0, |d_B|=1.0\n")


# run in a child, where nothing has imported scipy yet
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from vacpair.cli import main
assert main(["point", "--mu", "1e-4", "--x", "1.5"]) == 0
assert main(["point", "--mu", "1e-4", "--x", "1.5", "--isotropic"]) == 0
assert main(["validate", "--level", "full"]) == 0
assert main(["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e3",
             "--points", "50"]) == 0
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


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


class TestScipyFreePath:
    def test_point_and_sweep_run_with_scipy_blocked(self):
        # and validate, whose oracles need numpy alone too
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "117/117 checks passed" in proc.stdout
        _, rows = parse_csv(proc.stdout[proc.stdout.index("# vacpair sweep"):])
        assert len(rows) == 50

    def test_cli_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, vacpair.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# run in a child, where nothing has imported vacpair yet
_WITHOUT_VALIDATE = """
import sys
from vacpair.cli import main
assert "vacpair.validate" not in sys.modules
assert main(["point", "--mu", "1e-4", "--x", "1.5"]) == 0
assert main(["point", "--mu", "1e-4", "--x", "1.5", "--isotropic"]) == 0
assert main(["sweep", "--mu", "1e-4", "--xmin", "1e-3", "--xmax", "1e3",
             "--points", "5"]) == 0
assert "vacpair.validate" not in sys.modules
assert "vacpair.oracle" not in sys.modules
"""


class TestLazyValidate:
    def test_point_and_sweep_leave_validate_unloaded(self):
        # nor the oracles: no production path calls or loads them
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_VALIDATE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


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
