"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Auto-marked ``bench`` by ``benchmarks/conftest.py`` and outside
``testpaths``, so it is not part of tier 1. Runs all four workloads at
1/20 of their step and request counts, once untraced and once traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(script, *args):
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    for trace in ("0", "1"):
        done = run("run.py", "--smoke", "--trace", trace, "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return out, json.loads(out.read_text())


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(reports, trace, kind):
    _, doc = reports
    assert {"nproc", "python", "numpy", "git_rev"} <= set(doc["env"])
    runs = [r for r in doc["runs"] if r["trace"] == trace]
    assert [r["workload"] for r in runs] == WORKLOADS
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for r in runs:
        assert r["smoke"] and r["correct"] and r["failed"] == 0, r["errors"]
        assert {n: m["unit"] for n, m in r["metrics"].items()} == expected
        assert len(r["digest"]) == 64


def test_layers_cover_the_root_span(reports):
    _, doc = reports
    traced = {r["workload"]: r for r in doc["runs"] if r["trace"]}
    for name, r in traced.items():
        assert r["detail"]["attributed_frac"] >= 0.9, name
        assert r["metrics"]["obs.unattributed_frac"]["value"] <= 0.10, name
    assert traced["serve_day"]["metrics"]["core.train_steps"]["value"] == 0
    assert traced["train_sparse"]["metrics"]["core.train_steps"]["value"] > 0


def test_same_seed_same_digest(reports):
    _, doc = reports
    for name in WORKLOADS:
        digests = {r["digest"] for r in doc["runs"] if r["workload"] == name}
        assert len(digests) == 1, name


def test_compare_with_itself_is_all_ok(reports):
    out, _ = reports
    done = run("compare.py", str(out), str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]
            if "result_digest" not in line]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(row[-1] == "ok" for row in rows)
    assert "DIFFERS" not in done.stdout
