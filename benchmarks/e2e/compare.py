"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` (base) and ``B.json`` (new) are files written by
``run.py --out``; each may hold several untraced runs of a workload.
Bounds and directions come from ``BENCHMARK.json``. One row is printed
per workload x end-to-end metric: the base and new medians, their ratio
and a verdict:

* ``regressed``  — the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` — not regressed, but the run-to-run spread of either
  side (interquartile range over median) is wider than the bound, so
  "unchanged" cannot be claimed;
* ``ok``         — neither.

When both sides ran the same seeds, the result digests are compared too:
equal digests mean every loss, served probability, wire byte and routing
count is bit-identical. The exit code is 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict:
    """{workload: [untraced runs]} of one ``--out`` file."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    by_workload: dict = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(xs) -> float:
    """Interquartile range over the median (0 for fewer than 2 runs)."""
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / abs(statistics.median(xs))


def verdict(base, new, better: str, bound: float) -> tuple:
    """(base median, new median, ratio, verdict) of one metric."""
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (b - n) / abs(b) if better == "higher" else (n - b) / abs(b)
    if worse_by > bound:
        word = "regressed"
    elif max(spread(base), spread(new)) > bound:
        word = "unresolved"
    else:
        word = "ok"
    return b, n, n / b, word


def values(runs, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in runs]


def compare(base: dict, new: dict, spec: dict) -> list:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            continue
        sizes = {r["smoke"] for r in base[workload] + new[workload]}
        if len(sizes) > 1:
            raise SystemExit(f"{workload}: --smoke runs are never "
                             f"comparable with full runs")
        for m in spec["end_to_end"]:
            rows.append((workload, m["name"], m["unit"]) + verdict(
                values(base[workload], m["name"]),
                values(new[workload], m["name"]), m["better"], m["bound"]))
    return rows


def digests(base: dict, new: dict) -> list:
    """(workload, seed, equal?) for every seed both sides ran."""
    out = []
    for workload in base:
        theirs = {r["seed"]: r["digest"] for r in new.get(workload, ())}
        for run in base[workload]:
            if run["seed"] in theirs:
                out.append((workload, run["seed"],
                            run["digest"] == theirs[run["seed"]]))
    return sorted(set(out))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    base, new = load(argv[0]), load(argv[1])
    rows = compare(base, new, spec)
    print(f"{'workload':<13} {'metric':<18} {'unit':<5} {'base':>12} "
          f"{'new':>12} {'ratio':>7}  verdict")
    for workload, metric, unit, b, n, ratio, word in rows:
        print(f"{workload:<13} {metric:<18} {unit:<5} {b:>12.6g} "
              f"{n:>12.6g} {ratio:>7.3f}  {word}")
    for workload, seed, equal in digests(base, new):
        print(f"{workload:<13} seed {seed}: result_digest "
              f"{'identical' if equal else 'DIFFERS'}")
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
