"""End-to-end benchmark: four workloads, both clocks, one command.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace {0,1}] [--smoke] [--out FILE]

Each named workload (default: all four) runs in a fresh single-threaded
subprocess (``worker.py``). ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
gives the per-layer metrics. Every metric is printed by name and unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (one such line
per workload). ``--out FILE`` appends the full reports, with the
machine's description, to a JSON file ``compare.py`` reads. The exit
code is nonzero if a workload failed its correctness gate or crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_TIMEOUT_S = 170
CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")


def catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git_rev": rev}


def run_workload(name: str, args) -> tuple:
    """(exit code, report or None) of one workload subprocess."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {WORKLOAD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        return done.returncode or 1, None
    return done.returncode, report


def show(report: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    verdict = "correct" if report["correct"] else "INCORRECT"
    print(f"== {report['workload']}  seed {report['seed']}  {mode}"
          f"{'  smoke' if report['smoke'] else ''}  {verdict}  "
          f"({report['attempted']} attempted, {report['failed']} failed)")
    for error in report["errors"]:
        print(f"   gate failed: {error}")
    width = max(len(n) for n in report["metrics"])
    for name, m in report["metrics"].items():
        print(f"   {name:<{width}}  {m['value']:>16.6g}  {m['unit']}")
    print(f"   result_digest {report['digest']}")
    print(f"   samples {json.dumps(report['samples'])}")


def main(argv=None) -> int:
    spec = catalogue()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds model init, dataset and traffic")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "from BENCHMARK.json; 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="step and request counts / 20; "
                             "never comparable")
    parser.add_argument("--out", help="append the full reports to FILE")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])

    reports, status = [], 0
    for name in args.workload or names:
        code, report = run_workload(name, args)
        status = status or code
        if report is not None:
            show(report)
            reports.append(report)

    if args.out and reports:
        doc = {"env": environment(), "runs": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc["runs"] = json.load(f)["runs"]
        doc["runs"].extend(reports)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    for report in reports:
        print(json.dumps({key: report[key] for key in CONTRACT_KEYS}))
    return status


if __name__ == "__main__":
    sys.exit(main())
