"""Span -> layer attribution for the traced benchmark run.

The benchmark measures layers from outside the product. It has two
sources of spans, recorded into one :class:`repro.obs.Tracer`:

* spans the product already emits when handed a tracer through its
  public constructor arguments (``trainer.*``, ``loop.*``, ``comms.*``,
  ``serving.*``);
* the benchmark's own ``bench.*`` spans around calls into public
  functions that have no span of their own (:func:`wrap_method`,
  :func:`timed_perf_model`, and plain ``with tracer.span(...)`` blocks
  in ``workloads.py``).

``SPAN_LAYER`` is the one table that says which layer metric each
span's *self time* belongs to. Every span name lands in exactly one
layer, so the layer times partition the root span. A span name missing
from the table, and the root's own self time, count as unattributed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.serving import ServingPerfModel

ROOT = "bench.timed"

# span name -> the layer metric that receives the span's self time.
# ``comms.`` is matched as a prefix (one span name per collective kind).
SPAN_LAYER: Dict[str, str] = {
    # data: the reader tier inside TrainingLoop
    "loop.ingest": "data.ingest_s",
    # core: loop/trainer glue, evaluation, checkpoints
    "loop.iteration": "core.glue_self_s",
    "trainer.iteration": "core.glue_self_s",
    "bench.train": "core.glue_self_s",
    "loop.eval": "core.eval_s",
    "loop.checkpoint": "core.ckpt_save_s",
    "bench.ckpt_load": "core.ckpt_load_s",
    # embedding: per-table dispatch, shard lookups, backward + sparse update
    "trainer.embedding_fwd": "embedding.fwd_s",
    "trainer.table_fwd": "embedding.fwd_s",
    "trainer.embedding_lookup": "embedding.fwd_s",
    "trainer.embedding_bwd": "embedding.bwd_update_s",
    "trainer.table_bwd": "embedding.bwd_update_s",
    "trainer.embedding_update": "embedding.bwd_update_s",
    # nn: dense forward/backward and the dense optimizer
    "trainer.bottom_mlp_fwd": "nn.mlp_fwd_s",
    "trainer.top_mlp_fwd": "nn.mlp_fwd_s",
    "trainer.interaction_fwd": "nn.interaction_s",
    "trainer.dense_bwd": "nn.dense_bwd_s",
    "trainer.optimizer": "nn.optimizer_s",
    # comms: bucket flatten plus every simulated collective
    "trainer.allreduce": "comms.host_s",
    "comms.": "comms.host_s",
    # planner / export
    "bench.plan": "planner.plan_s",
    "bench.freeze": "serving.freeze_s",
    # serving: scheduling, pricing, real forwards, reporting
    "bench.server_serve": "serving.schedule_s",
    "bench.perf_model": "serving.perf_model_s",
    "serving.batch": "serving.forward_s",
    "serving.forward": "serving.forward_s",
    "bench.fleet_serve": "serving.report_s",
    "bench.report": "serving.report_s",
    # fleet
    "bench.traffic_gen": "fleet.traffic_gen_s",
    "bench.route": "fleet.route_s",
    # online
    "serving.swap": "online.swap_s",
}


def layer_of(span_name: str) -> str:
    """The layer metric a span's self time belongs to ('' = unmapped)."""
    if span_name.startswith("comms."):
        return SPAN_LAYER["comms."]
    return SPAN_LAYER.get(span_name, "")


def wrap_method(obj, method: str, tracer, span_name: str) -> None:
    """Run ``obj.method`` under a benchmark-owned span from now on.

    Shadows the bound method on the *instance*; the class and every
    other instance are untouched.
    """
    inner = getattr(obj, method)

    def traced(*args, **kwargs):
        with tracer.span(span_name, cat="bench"):
            return inner(*args, **kwargs)

    setattr(obj, method, traced)


def timed_perf_model(tracer, **fields) -> ServingPerfModel:
    """A :class:`ServingPerfModel` whose every pricing call is one
    ``bench.perf_model`` span (self time = cost) and one tick of the
    ``calls`` counter, which the workloads read at their horizon."""
    calls = [0]

    class TimedPerfModel(ServingPerfModel):
        def service_time(self, model, batch_size, nnz):
            calls[0] += 1
            with tracer.span("bench.perf_model", cat="bench"):
                return super().service_time(model, batch_size, nnz)

    TimedPerfModel.calls = calls
    return TimedPerfModel(**fields)


class LayerTimes:
    """Self time and span counts of one trace, grouped by layer.

    Everything is restricted to the tree under the ``bench.timed``
    root, where the layer self times partition the root's duration;
    ``outside_s`` holds the layer self times of spans recorded outside
    it (the traced set-up: traffic generation, the serve-only freeze).
    """

    def __init__(self, trace) -> None:
        events = [e for e in trace.events if e.closed]
        child_s: Dict[int, float] = {}
        for e in events:
            if e.parent >= 0:
                child_s[e.parent] = child_s.get(e.parent, 0.0) + e.duration
        in_timed: Dict[int, bool] = {}
        self.root_s = 0.0
        self.layer_s: Dict[str, float] = {}
        self.outside_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.unmapped_names: List[str] = []
        for e in events:  # parents precede children in trace order
            timed = e.name == ROOT if e.parent < 0 \
                else in_timed.get(e.parent, False)
            in_timed[e.index] = timed
            if e.name == ROOT:
                self.root_s += e.duration
                continue
            layer = layer_of(e.name)
            if timed:
                self.durations.setdefault(e.name, []).append(e.duration)
                if not layer and e.name not in self.unmapped_names:
                    self.unmapped_names.append(e.name)
            if layer:
                into = self.layer_s if timed else self.outside_s
                into[layer] = into.get(layer, 0.0) \
                    + e.duration - child_s.get(e.index, 0.0)

    def seconds(self, layer: str, with_setup: bool = False) -> float:
        """Self time attributed to ``layer`` under the timed root
        (plus the traced set-up when ``with_setup``)."""
        extra = self.outside_s.get(layer, 0.0) if with_setup else 0.0
        return self.layer_s.get(layer, 0.0) + extra

    def count(self, span_name: str) -> int:
        return len(self.durations.get(span_name, ()))

    def inclusive(self, span_name: str) -> float:
        return sum(self.durations.get(span_name, ()))

    @property
    def attributed_frac(self) -> float:
        """Share of the timed root covered by mapped layer self times."""
        return sum(self.layer_s.values()) / self.root_s \
            if self.root_s else 0.0

    @property
    def unattributed_frac(self) -> float:
        """Root self time plus unmapped spans, over the root duration."""
        return 1.0 - self.attributed_frac

    def missing(self, expected: Iterable[str]) -> List[str]:
        """Expected span names that never appeared — a renamed or
        removed product span must fail loudly, not read as zero."""
        return sorted(n for n in expected if self.count(n) == 0)
