"""One workload, one process: set up, measure, check, report.

``run.py`` starts this file once per workload so every measurement gets
a fresh single-threaded interpreter. The last line of standard output is
one JSON object: the contract keys (``correct``, ``attempted``,
``failed``, ``metrics``) plus ``digest``, ``errors``, ``detail`` and the
run's parameters.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one BLAS thread, so that host times
# measure the simulator and not the thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SETUPS = 3          # set-ups per run; setup_s is their median


def _build(cls, args, tracer=None):
    workload = cls(args.seed, args.smoke, tracer)
    t0 = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - t0


def _end_to_end(out, setups) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "host_items_per_s": out.items / out.wall_s,
        "host_unit_ms_p50": statistics.median(out.unit_s) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
        "served_ne": out.served_ne,
        "serve_p50_ms": out.report.p50_s * 1e3,
        "serve_p99_ms": out.report.p99_s * 1e3,
        "serve_goodput_qps": out.report.goodput_qps,
    }


def _per_layer(out, layers, overhead: float) -> dict:
    c = out.counts
    horizon_steps = c.get("steps", 0)
    traced_steps = layers.count("trainer.iteration")

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    step_ms = sorted(d * 1e3 for d in
                     layers.durations.get("trainer.iteration", ()))
    embedding_s = layers.seconds("embedding.fwd_s") \
        + layers.seconds("embedding.bwd_update_s")
    rows_per_step = per(c.get("lookup_rows", 0), horizon_steps)
    return {
        "data.ingest_s": layers.seconds("data.ingest_s"),
        "data.ingest_batches": c.get("ingest_batches", 0),
        "data.ingest_mb": c.get("ingest_bytes", 0) / 1e6,
        "core.train_step_s": layers.inclusive("trainer.iteration"),
        "core.train_steps": traced_steps,
        "core.step_ms_p95":
            step_ms[int(0.95 * (len(step_ms) - 1))] if step_ms else 0.0,
        "core.glue_self_s": layers.seconds("core.glue_self_s"),
        "core.eval_s": layers.seconds("core.eval_s"),
        "core.ckpt_save_s": layers.seconds("core.ckpt_save_s"),
        "core.ckpt_load_s": layers.seconds("core.ckpt_load_s"),
        "core.ckpt_mb": c.get("ckpt_bytes", 0) / 1e6,
        "core.loss_final": c.get("loss_final", 0.0),
        "embedding.fwd_s": layers.seconds("embedding.fwd_s"),
        "embedding.bwd_update_s": layers.seconds("embedding.bwd_update_s"),
        "embedding.lookup_calls_per_step": per(
            layers.count("trainer.embedding_lookup"), traced_steps),
        "embedding.update_calls_per_step": per(
            layers.count("trainer.embedding_update"), traced_steps),
        "embedding.kernel_launches_per_step": per(
            c.get("kernel_launches", 0), horizon_steps),
        "embedding.rows_per_step": rows_per_step,
        "embedding.ns_per_row": per(embedding_s * 1e9,
                                    rows_per_step * traced_steps),
        "nn.mlp_fwd_s": layers.seconds("nn.mlp_fwd_s"),
        "nn.interaction_s": layers.seconds("nn.interaction_s"),
        "nn.dense_bwd_s": layers.seconds("nn.dense_bwd_s"),
        "nn.optimizer_s": layers.seconds("nn.optimizer_s"),
        "comms.host_s": layers.seconds("comms.host_s"),
        "comms.calls_per_step": per(c.get("comm_calls", 0), horizon_steps),
        "comms.wire_mb_per_step": per(c.get("wire_bytes", 0) / 1e6,
                                      horizon_steps),
        "comms.modeled_ms_per_step": per(c.get("modeled_s", 0.0) * 1e3,
                                         horizon_steps),
        "planner.plan_s": layers.seconds("planner.plan_s"),
        "planner.hot_kb": c.get("hot_bytes", 0) / 1e3,
        "serving.freeze_s": layers.seconds("serving.freeze_s",
                                           with_setup=True),
        "serving.artifact_mb": c.get("artifact_bytes", 0) / 1e6,
        # InferenceServer.serve minus its serving.batch spans: queueing,
        # admission and pricing (perf_model_s is the pricing part of it)
        "serving.schedule_s": layers.inclusive("bench.server_serve")
        - layers.inclusive("serving.batch"),
        "serving.perf_model_calls": c.get("perf_calls", 0),
        "serving.perf_model_s": layers.seconds("serving.perf_model_s"),
        "serving.forward_s": layers.seconds("serving.forward_s"),
        "serving.requests": c.get("requests", 0),
        "serving.batches": c.get("batches", 0),
        "serving.mean_batch": c.get("mean_batch", 0.0),
        "serving.dedup_read_ratio": per(c.get("dedup_read", 0),
                                        c.get("dedup_requested", 0)),
        "serving.report_s": layers.seconds("serving.report_s"),
        "serving.max_rate_x": c.get("max_rate_x", 0.0),
        "serving.shed_late_frac": c.get("shed_late_frac", 0.0),
        "fleet.traffic_gen_s": layers.seconds("fleet.traffic_gen_s",
                                              with_setup=True),
        "fleet.route_s": layers.seconds("fleet.route_s"),
        "fleet.route_imbalance": c.get("route_imbalance", 0.0),
        "cache.accesses": c.get("cache_accesses", 0),
        "cache.hit_rate": per(c.get("cache_hits", 0),
                              c.get("cache_accesses", 0)),
        "cache.fills": c.get("cache_fills", 0),
        "online.swaps": c.get("swaps", 0),
        "online.swap_s": layers.seconds("online.swap_s"),
        "obs.trace_overhead_frac": overhead,
        "obs.unattributed_frac": layers.unattributed_frac,
    }


def _untraced(cls, args):
    """Measure on the first set-up, so that peak_rss_mb is one system's
    in a heap no earlier one has touched; then set up again so that
    setup_s is the median of SETUPS."""
    workload, seconds = _build(cls, args)
    setups = [seconds]
    try:
        out = workload.run(args.seconds)
    finally:
        workload.close()
    while len(setups) < SETUPS:
        workload = None          # free the old system, cycles too,
        gc.collect()             # before the next one is built
        workload, seconds = _build(cls, args)
        workload.close()
        setups.append(seconds)
    return out, _end_to_end(out, setups)


def _traced(cls, args):
    """A quarter of the time untraced for the overhead reference, the
    rest under one in-memory tracer; spans are reduced at the end."""
    from repro.obs import Tracer
    from trace import ROOT as ROOT_SPAN, LayerTimes

    reference, _ = _build(cls, args)
    try:
        ref_out = reference.run(args.seconds * 0.25)
    finally:
        reference.close()
    del reference
    gc.collect()

    tracer = Tracer()
    with tracer.span("bench.setup", cat="bench"):
        workload, _ = _build(cls, args, tracer)
    try:
        with tracer.span(ROOT_SPAN, cat="bench"):
            out = workload.run(args.seconds * 0.75)
    finally:
        workload.close()
    layers = LayerTimes(tracer.trace)
    missing = layers.missing(cls.expected_spans)
    out.gate(not missing, f"expected spans never appeared: {missing}")
    out.gate(not layers.unmapped_names,
             f"spans missing from trace.SPAN_LAYER: {layers.unmapped_names}")
    out.gate(layers.unattributed_frac <= 0.10,
             f"unattributed share {layers.unattributed_frac:.3f} > 0.10")
    out.attempted += ref_out.attempted
    out.failed += ref_out.failed
    out.errors.extend(ref_out.errors)
    out.gate(ref_out.digest == out.digest,
             "tracing changed the result digest")
    overhead = statistics.median(out.unit_s) \
        / statistics.median(ref_out.unit_s) - 1.0
    out.detail.update(
        spans=len(tracer.trace), root_s=layers.root_s,
        attributed_frac=layers.attributed_frac,
        # each layer's self time under the root, as a share of the root
        shares={layer: seconds / layers.root_s
                for layer, seconds in sorted(layers.layer_s.items())})
    return out, _per_layer(out, layers, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the checkout's own sources, never an installed copy
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json") as f:
        catalogue = json.load(f)
    cls = WORKLOADS[args.workload]
    out, values = (_traced if args.trace else _untraced)(cls, args)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[kind]}
    if set(units) != set(values):
        raise SystemExit(
            f"BENCHMARK.json {kind} and worker.py disagree: "
            f"{sorted(set(units) ^ set(values))}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "digest": out.digest, "errors": out.errors,
        "samples": {"units": len(out.unit_s),
                    "setups": 1 if args.trace else SETUPS,
                    "serve_requests": out.report.num_completed},
        "detail": out.detail,
    }, default=float))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
