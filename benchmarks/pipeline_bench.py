#!/usr/bin/env python3
"""Run the pipeline benchmark several times and write ``BENCH_pipeline.json``.

Each of the ``RUNS`` runs is ``python3 pipebench/run.py --workload all
--seed 7 --seconds 30`` (the run length of BENCHMARK.json), whose last
line of output is one JSON object with every end-to-end metric of every
workload.  The file keeps, per workload
and metric, the unit, the median and quartiles over the runs and each
run's value, next to the command, the runs' operation counts and the
environment (Python and numpy versions, CPU count, git revision).

Usage:
    python3 benchmarks/pipeline_bench.py                    # 5 runs of 30 s
    python3 benchmarks/pipeline_bench.py --smoke --out /tmp/bench.json   # seconds
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
SEED = 7
#: the run length of BENCHMARK.json
SECONDS = 30
#: ``--smoke``: one run of the benchmark's smoke inputs, 1 s per workload
SMOKE_RUNS = 1
SMOKE_SECONDS = 1


def run_args(smoke: bool) -> list[str]:
    """The arguments of ``python3`` for one benchmark run."""
    args = ["pipebench/run.py", "--workload", "all", "--seed", str(SEED),
            "--seconds", str(SMOKE_SECONDS if smoke else SECONDS)]
    return args + ["--smoke"] if smoke else args


def run_once(args: list[str]) -> dict:
    """The JSON object on the last line of one benchmark run."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"pipeline_bench: {sys.executable} {' '.join(args)} exited "
                         f"{done.returncode}:\n" + done.stderr[-2000:])
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "git_revision": git_revision()}


def summarize(results: list[dict]) -> dict:
    """``{workload: {metric: {unit, median, q1, q3, runs}}}`` over the runs."""
    workloads: dict = {}
    for name, metric in results[0]["metrics"].items():
        workload, _, key = name.partition(".")
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        workloads.setdefault(workload, {})[key] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "runs": values}
    return workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_RUNS} run of the benchmark's smoke inputs for {SMOKE_SECONDS} s "
                         f"per workload, in place of {RUNS} runs of {SECONDS} s, "
                         "to check that it runs")
    ap.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"),
                    help="file to write (default BENCH_pipeline.json at the repo root)")
    opts = ap.parse_args()
    runs = SMOKE_RUNS if opts.smoke else RUNS
    args = run_args(opts.smoke)
    env = environment()  # the revision that is measured
    results = []
    for i in range(runs):
        results.append(run_once(args))
        print(f"run {i + 1}/{runs}: correct {results[-1]['correct']}, "
              f"failed {results[-1]['failed']}/{results[-1]['attempted']}", file=sys.stderr)
    bench = {
        "command": " ".join(["python3", *args]),
        "runs": runs,
        "environment": env,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "workloads": summarize(results),
    }
    Path(opts.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {opts.out}", file=sys.stderr)
    return 0 if bench["correct"] and not bench["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
