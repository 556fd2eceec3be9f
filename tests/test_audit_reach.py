"""The call-reachability audit (``tools/audit_reach.py``): its collector
and report, run on one entry point, the CLI selfcheck."""

import importlib.util
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "audit_reach", os.path.join(REPO_ROOT, "tools", "audit_reach.py"))
audit_reach = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = audit_reach  # dataclasses look the module up
_spec.loader.exec_module(audit_reach)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    work_dir = str(tmp_path_factory.mktemp("audit_reach"))
    reached, failed = audit_reach.collect(
        [("python -m repro", [sys.executable, "-m", "repro"])], work_dir)
    assert failed == []
    return audit_reach.audit(reached)


def unreached(report, module):
    return {fn.qualname for fn in report[module][1]}


def test_selfcheck_callees_reported_reached(report):
    assert "selfcheck" not in unreached(report, "repro/__main__.py")
    assert "capacity_ladder" not in unreached(report, "repro/perf/capacity.py")
    assert "EmbeddingShardingPlanner.plan" not in unreached(
        report, "repro/sharding/planner.py")
    # the other subcommand does not run
    assert "trace_command" in unreached(report, "repro/__main__.py")


def test_unreached_module_reported_whole(report):
    assert "repro/baselines/zion.py" in audit_reach.whole_module_misses(report)
    assert "repro/baselines/zion.py" in audit_reach.KEEP
    text = audit_reach.render(report)
    assert "whole-module miss: repro/baselines/zion.py -- kept:" in text


def test_failed_entry_point_logs_its_stdout(tmp_path):
    """pytest reports failures on stdout, so a failed entry point's log
    carries the tail of its stdout, not only of its stderr."""
    lines = []
    _, failed = audit_reach.collect(
        [("stdout only", [sys.executable, "-c",
                          "print('report on stdout'); raise SystemExit(1)"])],
        str(tmp_path), log=lines.append)
    assert failed == ["stdout only"]
    assert any("exit 1" in line and "report on stdout" in line
               for line in lines)


def test_failed_gate_line_survives_a_long_stdout(tmp_path):
    """A gate failure printed before more than 1 000 characters of JSON
    falls out of the stdout tail; the log still carries it, and every
    ``== `` headline."""
    script = ("import json; print('== train_sparse'); "
              "print('gate failed: digest mismatch'); "
              "print(json.dumps({'pad': 'x' * 2000})); raise SystemExit(1)")
    lines = []
    _, failed = audit_reach.collect(
        [("long report", [sys.executable, "-c", script])],
        str(tmp_path), log=lines.append)
    assert failed == ["long report"]
    log = "\n".join(lines)
    assert "    == train_sparse\n" in log
    assert "    gate failed: digest mismatch\n" in log
