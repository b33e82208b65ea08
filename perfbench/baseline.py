"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--seeds N] [--first-seed S] [--workload NAME ...]
                                  [--output perfbench/baseline.json]

Runs run.py once per seed and workload with --trace 0, and once per workload
with --trace 1.  For every end-to-end metric it prints the median and the
quartile spread (q3 - q1) / median over the seeds, with the quartiles from
statistics.quantiles(values, n=4), next to a third of the metric's bound.
With --output it writes those figures, the per-layer values, the machine
and a map from each per-layer metric to the end-to-end metric it should
move to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# per-layer metric prefix -> (end-to-end metric, workload) it should move
MOVES = {
    "import.": ("setup_s and latency_p50_rel", "point_cold"),
    "specfun.": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "kernel.": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "model.": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "entanglement.concurrence_": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "entanglement.eof": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "entanglement.wootters.": ("latency_p50_rel", "validate_full"),
    "casimir.wcp.pv": ("latency_p50_rel", "validate_full"),
    "casimir.": ("latency_p50_rel, rows_per_s and wrong_frac", "sweep_domain"),
    "oracle.": ("latency_p50_rel", "validate_full"),
    "validate.": ("latency_p50_rel", "validate_full"),
    "cli.sweep_peak": ("peak_rss_mb and rss_above_import_mb", "sweep_domain"),
    "cli.": ("latency_p50_rel and rows_per_s", "sweep_domain"),
    "trace.": ("none, reported only", "all"),
    "src.": ("none, reported only", "all"),
}


def moves(name: str) -> dict[str, str]:
    metric, workload = next(v for k, v in MOVES.items() if name.startswith(k))
    return {"metric": metric, "workload": workload}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run.py run: its JSON result, with the run's wall time added, and its report lines."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result, lines[:-1]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _version(module: str) -> str:
    return __import__(module).__version__


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _version("numpy"), "scipy": _version("scipy"),
                    "mpmath": _version("mpmath"), "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(seeds),
        "workloads": {},
        "per_layer_moves": {m["name"]: moves(m["name"]) for m in spec["per_layer"]},
    }
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
                 "correct": all(r["correct"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs),
                 "elapsed_s": [r["elapsed_s"] for r, _ in runs],
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            s = spread(values)
            entry["end_to_end"][m["name"]] = {
                "median": statistics.median(values), "spread": s, "values": values}
            flag = "ok" if s < m["bound"] / 3 else "WIDE"
            print(f"{name} {m['name']}: median {statistics.median(values):.6g} {m['unit']}, "
                  f"spread {s:.4f} (bound/3 {m['bound'] / 3:.4f}) {flag}; "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
        entry["report"] = [ln for _, lines in runs[:1] for ln in lines]
        result, lines = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["trace_elapsed_s"] = result["elapsed_s"]
        entry["trace_report"] = lines
        print(f"{name}: runs took {min(entry['elapsed_s']):.1f} to "
              f"{max(entry['elapsed_s']):.1f} s, the traced run {result['elapsed_s']:.1f} s",
              flush=True)
        record["workloads"][name] = entry
    if args.output:
        args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
