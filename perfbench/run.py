"""The vacpair benchmark.

    python3 perfbench/run.py --workload point_cold|sweep_domain|validate_full \
        --seed N --seconds S --trace 0|1

--trace 0 times the `vacpair` CLI as cold child processes in a closed loop
(one client, one child at a time, each between two reference children) for
S seconds, with set-up probes spread over the same S seconds, checks every
output it timed, and prints the end-to-end metrics.  --trace 1 prints the
per-layer metrics instead: an import profile of a cold child, a traced
in-process replay of the same argv stream for S seconds, and fixed-input
layer measurements.

The program is run from src/ of the checkout this file sits in.  Report
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import ORACLES, Tracer, summarize  # noqa: E402

SETUP_SLOTS = 5
IMPORT_PROFILE_REPS = 3
SWEEP_PEAK_ROWS = 200
ENTRY = "import sys; from vacpair.cli import main; sys.exit(main())"
# A cold child that vacpair cannot make faster or slower: the import of the stack
# vacpair is built on, then adaptive quadratures of the kind wcp runs.  Every
# workload child is timed against its two neighbours.
REFERENCE_CHILD = ["-c", "import numpy as np, scipy.integrate as si; c = np.arange(1.0, 6.0); "
                   "[si.quad(lambda v: np.polyval(c, v) * np.exp(-2 * v * x) / (1 + v * v) ** 2, "
                   "0, np.inf, limit=400, epsabs=1e-300, epsrel=1e-11) "
                   "for x in np.geomspace(1e-3, 1e3, 100)]"]
# A set-up probe is a cold `import vacpair.cli` child between two children that
# only import the stack vacpair is built on.  setup_s is its wall time over
# theirs, in seconds at the host speed where they take IMPORT_REFERENCE_S.
IMPORT_REFERENCE = ["-c", "import numpy, scipy.integrate"]
IMPORT_REFERENCE_S = 0.75


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("VACPAIR_CONFIG", None)  # the program gets the generated argv and nothing else
    return env


def run_child(python_args: list[str], workdir: Path, argv: list[str] = ()) -> Child:
    """Run one cold interpreter to completion; wall time and max RSS from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(list(argv), wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def cold_import(workdir: Path, profile: bool = False) -> Child:
    """A cold child that only imports vacpair.cli."""
    child = run_child((["-X", "importtime"] if profile else []) + ["-c", "import vacpair.cli"],
                      workdir)
    if child.returncode != 0:
        raise SystemExit(f"perfbench: `import vacpair.cli` failed:\n{child.stderr}")
    return child


def setup_probe(workdir: Path) -> tuple[Child, float]:
    """(an import child, its wall time over the mean of its two neighbours')."""
    before = run_child(IMPORT_REFERENCE, workdir).wall_s
    child = cold_import(workdir)
    after = run_child(IMPORT_REFERENCE, workdir).wall_s
    return child, child.wall_s / ((before + after) / 2)


def tail_latency(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    k = len(samples) - 10
    if k <= len(samples) / 2:
        return None
    return sorted(samples)[k - 1], 100.0 * k / len(samples)


def check(tally: checks.Tally, argv: list[str], returncode: int, stdout: str, stderr: str,
          rng: np.random.Generator) -> None:
    if argv[0] == "point":
        checks.check_point(tally, argv, returncode, stdout, stderr)
    elif argv[0] == "sweep":
        checks.check_sweep(tally, argv, returncode, rng)
    else:
        checks.check_validate(tally, returncode, stdout)


def _report(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def _accuracy_report(workload: str, tally: checks.Tally) -> None:
    wrong_frac = tally.wrong / tally.checked if tally.checked else 0.0
    where = f", smallest wrong x {min(tally.wrong_x):.3g}" if tally.wrong_x else ""
    _report(workload, "fail_frac", tally.failed / max(tally.attempted, 1), "ratio",
            f"{tally.failed} of {tally.attempted} operations")
    _report(workload, "wrong_frac", wrong_frac, "ratio",
            f"{tally.wrong} of {tally.checked} values off mpmath by > {checks.ACCURACY_TOL:g}"
            f"{where}; worst conditioned error in the trusted ranges: "
            f"{tally.worst_trusted_error:.2e}")
    for problem in tally.problems:
        print(f"{workload} problem: {problem}", file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               setup_slots: int = SETUP_SLOTS, sweep_points: int = workloads.SWEEP_POINTS) -> dict:
    cold_import(workdir)  # untimed: byte-compiles src/ once, as an installed package would be

    reference = [run_child(REFERENCE_CHILD, workdir).wall_s]

    def timed(python_args: list[str], argv: list[str] = ()) -> tuple[Child, float]:
        """A child, then a reference child: (the child, its wall time over its neighbours')."""
        child = run_child(python_args, workdir, argv)
        reference.append(run_child(REFERENCE_CHILD, workdir).wall_s)
        return child, child.wall_s / ((reference[-2] + reference[-1]) / 2)

    done: list[tuple[Child, float]] = []
    probes: list[tuple[Child, float]] = []
    start = perf_counter()
    probe_due = [start + seconds * k / setup_slots for k in range(setup_slots)]
    for argv in workloads.stream(workload, seed, workdir, sweep_points):
        if probe_due and perf_counter() >= probe_due[0]:
            probe_due.pop(0)
            probes.append(setup_probe(workdir))
        done.append(timed(["-c", ENTRY], argv))
        if perf_counter() >= start + seconds:
            break
    probes += [setup_probe(workdir) for _ in probe_due]

    tally = checks.Tally()
    rng = np.random.default_rng([seed, 3])
    for c, _ in done:
        check(tally, c.argv, c.returncode, c.stdout, c.stderr, rng)

    unit = units("end_to_end")
    latencies = [c.wall_s for c, _ in done]
    metrics = {"latency_p50_rel": statistics.median(r for _, r in done),
               "peak_rss_mb": statistics.median(c.rss_mb for c, _ in done),
               "setup_s": IMPORT_REFERENCE_S * statistics.median(r for _, r in probes)}
    notes = {"latency_p50_rel": f"median of {len(done)} children, each over the mean of "
                                f"the reference children before and after it",
             "peak_rss_mb": f"median of {len(done)} children",
             "setup_s": f"median of {len(probes)} `import vacpair.cli` children, each over "
                        f"the `import numpy, scipy.integrate` children before and after it, "
                        f"times {IMPORT_REFERENCE_S:g} s"}
    for name, value in metrics.items():
        _report(workload, name, value, unit[name], notes[name])
    import_rss = statistics.median(c.rss_mb for c, _ in probes)
    _report(workload, "setup_wall_s", statistics.median(c.wall_s for c, _ in probes), "s",
            f"median of {len(probes)} cold `import vacpair.cli` children")
    _report(workload, "rss_above_import_mb", metrics["peak_rss_mb"] - import_rss, "MB",
            f"peak_rss_mb over the median max RSS of the import children, {import_rss:.6g} MB")
    _report(workload, "latency_p50_s", statistics.median(latencies), "s",
            f"median of {len(done)} children")
    _report(workload, "latency_min_s", min(latencies), "s", f"fastest of {len(done)} children")
    _report(workload, "reference_p50_s", statistics.median(reference), "s",
            f"median of {len(reference)} reference children")
    tail = tail_latency(latencies)
    if tail:
        _report(workload, "latency_tail_s", tail[0], "s", f"p{tail[1]:.0f} of {len(done)}")
    else:
        print(f"{workload} latency_tail_s omitted: {len(done)} samples, fewer than 21")
    rows = sum(checks.rows_of(c.argv) for c, _ in done)
    if workload == "sweep_domain":
        _report(workload, "rows_per_s", rows / sum(latencies), "1/s",
                f"{rows} rows in {sum(latencies):.2f} s of cold sweep wall time")
    _accuracy_report(workload, tally)
    stderr_lines = sum(len(c.stderr.splitlines()) for c, _ in done)
    warned = sum(c.stderr.count("IntegrationWarning") for c, _ in done)
    _report(workload, "stderr_lines", stderr_lines, "count",
            f"{warned} IntegrationWarning, over {len(done)} children")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}


def import_profile(text: str) -> dict[str, float]:
    """Seconds spent importing vacpair in total, and in scipy and numpy modules.

    total is the cumulative time of the top-level vacpair entries; scipy and
    numpy are the summed self times of their modules.
    """
    total = scipy = numpy = 0.0
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line, or not an import line
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2]
        package = name.strip().split(".")[0]
        if package == "vacpair" and not name.startswith("  "):  # top level: one space
            total += cum_us * 1e-6
        if package == "scipy":
            scipy += self_us * 1e-6
        elif package == "numpy":
            numpy += self_us * 1e-6
    return {"import.total_s": total, "import.scipy_s": scipy, "import.numpy_s": numpy}


_ROW_SPANS = ("cli.main", "model.pair_configuration", "model.perturbative_validity",
              "kernel.contracted_tensor", "entanglement.concurrence_full",
              "entanglement.concurrence_near", "entanglement.concurrence_far",
              "entanglement.eof", "casimir.wcp")
# Spans each workload's replay records at the seed.  A layer that records
# none has been renamed or moved, and its metrics would read as 0.
REQUIRED_SPANS = {
    "point_cold": _ROW_SPANS,
    "sweep_domain": _ROW_SPANS + ("specfun.aux.series", "specfun.aux.cf"),
    "validate_full": ("cli.main", "validate.run_validation", "kernel.contracted_tensor",
                      "casimir.wcp", "casimir.wcp.pv", "entanglement.wootters.general",
                      "entanglement.wootters.xstate") + tuple(f"oracle.{f}" for f in ORACLES),
}


def _invoke(cli, argv: list[str], tracer: Tracer | None = None) -> tuple[int, float, str, str]:
    """cli.main(argv) in-process with fresh warning state, as a cold child would have."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        start = perf_counter()
        rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        wall = perf_counter() - start
    return rc, wall, out.getvalue(), err.getvalue()


def _per_call(fn, reps: int) -> float:
    """Median seconds per call of fn over reps calls, after one warm-up call."""
    fn()
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _x_state(rng: np.random.Generator) -> np.ndarray:
    """A random physical two-qubit X state."""
    p = rng.dirichlet(np.ones(4))
    m = np.diag(p).astype(complex)
    m[0, 3] = rng.uniform() * math.sqrt(p[0] * p[3]) * np.exp(2j * math.pi * rng.uniform())
    m[1, 2] = rng.uniform() * math.sqrt(p[1] * p[2]) * np.exp(2j * math.pi * rng.uniform())
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def sweep_peak_per_row(workdir: Path, rows: int = SWEEP_PEAK_ROWS) -> float:
    """Peak memory allocated during one in-process sweep, in KiB per row (tracemalloc)."""
    from vacpair import cli

    argv = ["sweep", "--mu", "1e-4", "--xmin", "1e-2", "--xmax", "1e2", "--points", str(rows),
            "--output", str(workdir / "peak.csv")]
    tracemalloc.start()
    try:
        rc = _invoke(cli, argv)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if rc != 0:
        raise SystemExit(f"perfbench: `vacpair {' '.join(argv)}` exited {rc}")
    return peak / 1024 / rows


def layer_suite(workdir: Path) -> dict[str, float]:
    """Fixed-input measurements, untraced: median seconds per call, reported in µs."""
    from vacpair import casimir, entanglement, oracle, pair_from_alignment, validate

    transverse = {x: pair_from_alignment(x, 1e-4, 1.0, 0.0) for x in (0.01, 1.0, 10.0, 100.0)}
    states = [_x_state(np.random.default_rng([7, i])) for i in range(50)]
    timings = {
        "casimir.wcp.x0.01.us": _per_call(lambda: casimir.wcp(transverse[0.01]), 15),
        "casimir.wcp.x1.us": _per_call(lambda: casimir.wcp(transverse[1.0]), 15),
        "casimir.wcp.x100.us": _per_call(lambda: casimir.wcp(transverse[100.0]), 15),
        "casimir.wcp.iso.us": _per_call(lambda: casimir.wcp(transverse[1.0], isotropic=True), 15),
        "casimir.wcp.pv.us": _per_call(
            lambda: casimir.wcp(transverse[1.0], method="principal_value_oracle"), 5),
        "oracle.modesum_first_order.x1.us": _per_call(
            lambda: oracle.modesum_first_order(1.0, cfg=transverse[1.0]), 5),
        "oracle.modesum_first_order.x10.us": _per_call(
            lambda: oracle.modesum_first_order(10.0, cfg=transverse[10.0]), 5),
        "oracle.modesum_second_order.us": _per_call(
            lambda: oracle.modesum_second_order(1.0, cfg=transverse[1.0]), 5),
        "oracle.aux_integral_rep.us": _per_call(lambda: oracle.aux_integral_rep(1.0, "f"), 15),
        "entanglement.wootters.general.us": _per_call(
            lambda: [entanglement.wootters_concurrence(m, method="general") for m in states],
            5) / len(states),
        "entanglement.wootters.xstate.us": _per_call(
            lambda: [entanglement.wootters_concurrence(m, method="xstate") for m in states],
            5) / len(states),
    }
    out = {k: v * 1e6 for k, v in timings.items()}
    out["validate.fast_s"] = _per_call(lambda: validate.run_validation("fast"), 3)
    out["validate.full_s"] = _per_call(lambda: validate.run_validation("full"), 2)
    out["cli.sweep_peak_kib_per_row"] = sweep_peak_per_row(workdir)
    return out


def traced(workload: str, seed: int, seconds: float, workdir: Path,
           sweep_points: int = workloads.SWEEP_POINTS, profile_reps: int = IMPORT_PROFILE_REPS,
           suite: bool = True) -> dict:
    profiles = [import_profile(cold_import(workdir, profile=True).stderr)
                for _ in range(profile_reps)]
    metrics = {k: statistics.median(p[k] for p in profiles) for k in profiles[0]}

    from vacpair import cli

    argvs = workloads.stream(workload, seed, workdir, sweep_points)
    _invoke(cli, next(argvs))  # untimed warm-up of lazy imports and caches
    tracer, tally, rng = Tracer(), checks.Tally(), np.random.default_rng([seed, 3])
    plain = traced_s = 0.0
    invocations = rows = stderr_lines = warned = 0
    deadline = perf_counter() + seconds
    for argv in argvs:
        plain += _invoke(cli, argv)[1]
        try:
            tracer.install()
            rc, wall, out, err = _invoke(cli, argv, tracer)
        finally:
            tracer.uninstall()
        traced_s += wall
        invocations += 1
        rows += checks.rows_of(argv)
        stderr_lines += len(err.splitlines())
        warned += err.count("IntegrationWarning")
        check(tally, argv, rc, out, err, rng)
        if perf_counter() >= deadline:
            break

    stats = summarize(tracer.spans)
    silent = [name for name in REQUIRED_SPANS[workload] if name not in stats]
    if silent:
        raise SystemExit(f"perfbench: the traced {workload} replay recorded no span of "
                         f"{', '.join(silent)}; spans.LAYERS no longer matches vacpair")
    calls = lambda name: stats.get(name, (0, 0.0))[0]
    self_s = lambda name: stats.get(name, (0, 0.0))[1]
    us = lambda name: 1e6 * self_s(name) / calls(name) if calls(name) else 0.0
    per_row = lambda n: n / rows if rows else 0.0
    aux_calls = calls("specfun.aux.series") + calls("specfun.aux.cf")
    metrics.update({
        "specfun.aux.series.us": us("specfun.aux.series"),
        "specfun.aux.cf.us": us("specfun.aux.cf"),
        "specfun.aux.calls_per_row": per_row(aux_calls),
        "specfun.aux.series_share": calls("specfun.aux.series") / aux_calls if aux_calls else 0.0,
        "kernel.contracted_tensor.us": us("kernel.contracted_tensor"),
        "kernel.contracted_tensor.calls_per_row": per_row(calls("kernel.contracted_tensor")),
        "model.pair_configuration.us": us("model.pair_configuration"),
        "model.perturbative_validity.calls_per_row": per_row(calls("model.perturbative_validity")),
        "entanglement.concurrence_full.us": us("entanglement.concurrence_full"),
        "entanglement.concurrence_near.us": us("entanglement.concurrence_near"),
        "entanglement.concurrence_far.us": us("entanglement.concurrence_far"),
        "entanglement.eof.us": us("entanglement.eof"),
        "casimir.wcp.self_share": self_s("casimir.wcp") / traced_s,
        "casimir.wcp.warnings": warned / invocations,
        "oracle.self_share": sum(t for k, (_, t) in stats.items() if k.startswith("oracle."))
        / traced_s,
        "cli.self_us_per_row": per_row(1e6 * self_s("cli.main")),
        "cli.stderr_lines": stderr_lines / invocations,
        "trace.overhead_frac": traced_s / plain - 1.0,
        "src.lines": float(sum(len(p.read_text(encoding="utf-8").splitlines())
                               for p in SRC.rglob("*.py"))),
    })
    if suite:
        metrics.update(layer_suite(workdir))
    unit = units("per_layer")
    for name in sorted(metrics):
        _report(workload, name, metrics[name], unit[name])
    print(f"{workload} traced {invocations} invocations, {rows} rows, {len(tracer.spans)} spans")
    _accuracy_report(workload, tally)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vacpair" / "cli.py").is_file():
        print(f"perfbench: no vacpair source under {SRC}", file=sys.stderr)
        return 2
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / "_work"))
    try:
        run = traced if args.trace else end_to_end
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
