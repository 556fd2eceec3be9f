"""Tests for the ASCII timeline renderer and the DAG latency engine."""

import pytest

from repro.comms import PROTOTYPE_TOPOLOGY
from repro.core import ComponentTimes, PipelineSchedule, Task, \
    dlrm_iteration_tasks, steady_state_iteration_time
from repro.models import full_spec
from repro.perf import (TrainingSetup, component_times, iteration_time,
                        render_timeline)


class TestRenderTimeline:
    def make_schedule(self):
        return PipelineSchedule([
            Task("alpha", 2.0, "compute"),
            Task("beta", 1.0, "comm", ("alpha",)),
        ])

    def test_one_line_per_stream(self):
        out = render_timeline(self.make_schedule())
        lines = out.splitlines()
        assert len(lines) == 3  # header + 2 streams
        assert lines[1].startswith("compute")
        assert lines[2].startswith("comm")

    def test_task_names_appear(self):
        out = render_timeline(self.make_schedule(), width=60)
        assert "alph" in out or "alpha" in out

    def test_ordering_respected(self):
        """beta's span starts after alpha's ends on the rendered rows."""
        out = render_timeline(self.make_schedule(), width=60)
        compute_row = out.splitlines()[1]
        comm_row = out.splitlines()[2]
        # comm row must be blank in the first third (beta starts at 2/3)
        bar = comm_row.split("|")[1]
        assert bar[: len(bar) // 3].strip() == ""
        assert compute_row.split("|")[1][:5].strip() != ""

    def test_dlrm_dag_renders(self):
        t = ComponentTimes(1.0, 1.0, 1.0, 0.5, 2.0, 1.0, 1.0, 2.0, h2d=0.5)
        out = render_timeline(PipelineSchedule(dlrm_iteration_tasks(t)))
        assert "h2d" in out and "compute" in out and "comm" in out

    def test_empty_schedule(self):
        assert "empty" in render_timeline(PipelineSchedule([]))

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            render_timeline(self.make_schedule(), width=5)


class TestDagEngine:
    def test_engines_agree_closely(self):
        """Eq. 1 (``iteration_time``) and the steady-state DAG schedule
        model the same step."""
        setup = TrainingSetup(spec=full_spec("A2"),
                              topology=PROTOTYPE_TOPOLOGY(16),
                              global_batch=65536, load_imbalance=1.15)
        dag = steady_state_iteration_time(component_times(setup)) + \
            setup.framework_overhead
        assert dag == pytest.approx(iteration_time(setup), rel=0.35)
