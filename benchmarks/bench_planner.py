"""Planner benchmark: mixed-representation memory wins and multi-tenant
SLO isolation.

Two gates, both deterministic (same seed, same JSON, any machine):

* **mixed vs uniform** — a planted six-table DLRM with one
  quality-sensitive table (weights amplified 50x, so bf16/int8 breach
  the element-error floor), two exactly-TT-structured history tables
  (rank-2 cores materialized back into the weights) and three ordinary
  tables. The planner gets a 25% hot-memory budget plus the quality
  floor and a measured-NE floor; every uniform single-path baseline
  (full/fp16/bf16/int8) is scored against the same floor. The gate:
  the mixed plan must satisfy budget + floors AND use strictly fewer
  hot bytes than *every* floor-feasible uniform baseline;
* **tenant isolation** — three tenants (serving-zoo small/medium/large)
  with skewed traffic shares and per-tenant SLOs, served on a
  scaled-down platform whose per-node HBM fits any single tenant's
  frozen artifact but not all three together. The planner-partitioned
  fleet (demand-weighted replica subsets, one tenant per replica) must
  hold every SLO where the naive tenant-blind shared fleet — every
  replica co-hosting all three models, HBM overflowing into the DRAM
  link — misses at least one.

Run standalone to write ``BENCH_planner.json``::

    PYTHONPATH=src python benchmarks/bench_planner.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, TTEmbeddingTable
from repro.fleet import MultiTenantFleet, TenantSpec
from repro.models import DLRM, DLRMConfig, zoo_config
from repro.online.report import render_table
from repro.perf import PlatformSpec
from repro.planner import (PlanBudget, PlannerCostModel, plan_representation,
                           uniform_plan)
from repro.serving import (BatchingPolicy, PoissonLoadGen, RequestTrace,
                           ServingPerfModel, freeze)
from repro.serving.loadgen import requests_from_arrivals

FULL_CONFIG = dict(
    mode="full", seed=0,
    # planted planner workload: the floor sits between the sensitive
    # table's fp16 error (~1e-3) and its bf16/int8 errors (~8e-3/1.2e-2)
    sensitive_scale=50.0, tt_ranks=(2, 2), budget_frac=0.25,
    quality_floor=2e-3, ne_floor=2e-3, eval_batch=256,
    uniform_kinds=("full", "fp16", "bf16", "int8"),
    # tenancy: per-node HBM = hbm_scale x the largest tenant's frozen
    # artifact, so any tenant fits solo but the shared co-residency
    # spills onto the 100x-slower DRAM link
    tenant_sizes=("small", "medium", "large"),
    tenant_shares=(0.6, 0.3, 0.1), tenant_slo_ms=(4.0, 8.0, 30.0),
    tenant_max_batch=(8, 8, 16), tenant_max_wait_ms=(1.0, 2.0, 5.0),
    hbm_scale=1.05, hbm_bw=900e9, dram_link_bw=9e9, overhead_s=1e-3,
    total_qps=2000.0, trace_s=0.25, num_replicas=6)
QUICK_CONFIG = dict(FULL_CONFIG, mode="quick", eval_batch=128,
                    trace_s=0.1)

ZOO_SEEDS = {"small": 0, "medium": 1, "large": 2}


# ----------------------------------------------------------------------
# gate 1: mixed representation vs uniform baselines
# ----------------------------------------------------------------------
def planted_config():
    """Six tables spanning the planner's whole search space: one
    quality-sensitive, two TT-structured, three ordinary."""
    tables = (
        EmbeddingTableConfig("user_profile", 256, 16, avg_pooling=2.0),
        EmbeddingTableConfig("page_ctx", 512, 16, avg_pooling=4.0),
        EmbeddingTableConfig("history_a", 1024, 16, avg_pooling=8.0),
        EmbeddingTableConfig("history_b", 1024, 16, avg_pooling=8.0),
        EmbeddingTableConfig("misc_0", 384, 16, avg_pooling=3.0),
        EmbeddingTableConfig("misc_1", 384, 16, avg_pooling=3.0),
    )
    return DLRMConfig(dense_dim=8, bottom_mlp=(16, 16), tables=tables,
                      top_mlp=(16,))


def build_planted_model(config):
    """A DLRM whose weights make the representation choice *matter*."""
    cfg = planted_config()
    model = DLRM(cfg, seed=config["seed"])
    sensitive = model.embeddings.table("user_profile")
    sensitive.weight[...] = sensitive.weight * config["sensitive_scale"]
    for name in ("history_a", "history_b"):
        table = model.embeddings.table(name)
        tt = TTEmbeddingTable.from_weight(name, table.weight,
                                          ranks=config["tt_ranks"])
        table.weight[...] = tt.materialize()
    return cfg, model


def measure_planner(config):
    """Plan the planted model under budget + floors; score every uniform
    baseline against the same quality floor."""
    cfg, model = build_planted_model(config)
    cost = PlannerCostModel(tt_rank_options=(config["tt_ranks"],))
    full_bytes = sum(t.num_parameters * 4 for t in cfg.tables)
    floor = config["quality_floor"]
    budget = PlanBudget(hot_bytes=full_bytes * config["budget_frac"],
                        quality_floor=floor, ne_floor=config["ne_floor"])
    eval_batch = SyntheticCTRDataset(
        cfg.tables, dense_dim=cfg.dense_dim,
        seed=config["seed"] + 1).batch(config["eval_batch"], 0)
    mixed = plan_representation(model, budget, cost=cost,
                                eval_batch=eval_batch)
    mixed.validate()

    uniforms = {}
    for kind in config["uniform_kinds"]:
        plan = uniform_plan(model, kind, cost=cost)
        uniforms[kind] = {
            "hot_bytes": plan.hot_bytes(),
            "max_error": plan.max_error(),
            "feasible": plan.max_error() <= floor,
        }
    feasible = {k: v for k, v in uniforms.items() if v["feasible"]}
    beats_all = all(mixed.hot_bytes() < v["hot_bytes"]
                    for v in feasible.values())
    servable = freeze(model, plan=mixed)
    return {
        "full_bytes": full_bytes,
        "budget_bytes": budget.hot_bytes,
        "mixed": mixed,
        "servable_bytes": servable.embedding_storage_bytes(),
        "uniforms": uniforms,
        "feasible_uniforms": sorted(feasible),
        "mixed_beats_feasible_uniforms": beats_all and len(feasible) >= 2,
        "some_uniform_infeasible": len(feasible) < len(uniforms),
        "tt_selected": "tt" in mixed.counts_by_kind(),
        "ne_gap_within_floor": (mixed.measured_ne_gap is not None
                                and mixed.measured_ne_gap
                                <= config["ne_floor"]),
    }


# ----------------------------------------------------------------------
# gate 2: planner-partitioned vs naive shared tenancy
# ----------------------------------------------------------------------
def build_tenancy(config):
    """Three zoo tenants, their datasets, and the scaled-down platform
    whose HBM fits any one frozen artifact but not all of them."""
    sizes = config["tenant_sizes"]
    configs = {s: zoo_config(s, seed=ZOO_SEEDS[s]) for s in sizes}
    models = {s: freeze(DLRM(configs[s], seed=ZOO_SEEDS[s])) for s in sizes}
    biggest = max(m.embedding_storage_bytes() for m in models.values())
    platform = PlatformSpec(
        name="bench-planner-mini",
        hbm_per_node_bytes=biggest * config["hbm_scale"],
        dram_per_node_bytes=1e9,
        hbm_bw_per_node=config["hbm_bw"],
        dram_link_bw_per_node=config["dram_link_bw"])
    perf = ServingPerfModel(platform=platform,
                            overhead_s=config["overhead_s"])
    tenants = [
        TenantSpec(
            name=s, model=models[s],
            slo_s=config["tenant_slo_ms"][i] * 1e-3,
            traffic_share=config["tenant_shares"][i],
            policy=BatchingPolicy(
                max_batch_size=config["tenant_max_batch"][i],
                max_wait_s=config["tenant_max_wait_ms"][i] * 1e-3))
        for i, s in enumerate(sizes)]
    datasets = {s: SyntheticCTRDataset(configs[s].tables,
                                       dense_dim=configs[s].dense_dim,
                                       seed=ZOO_SEEDS[s])
                for s in sizes}
    return tenants, datasets, perf


def tenancy_trace(config, datasets):
    """One interleaved Poisson trace across all tenants, request ids
    disambiguated per tenant."""
    traces, offered_qps = [], {}
    for j, size in enumerate(config["tenant_sizes"]):
        qps = config["total_qps"] * config["tenant_shares"][j]
        offered_qps[size] = qps
        gen = PoissonLoadGen(qps=qps,
                             num_requests=int(qps * config["trace_s"]),
                             seed=config["seed"] + j)
        traces.append(requests_from_arrivals(
            datasets[size], gen.arrival_times(), batch_index=gen.seed,
            start_id=j * 1_000_000))
    return (RequestTrace.merge(traces, tenants=config["tenant_sizes"]),
            offered_qps)


def measure_tenancy(config):
    """The same trace through both deployment modes."""
    tenants, datasets, perf = build_tenancy(config)
    requests, offered_qps = tenancy_trace(config, datasets)
    out = {"num_requests": len(requests), "offered_qps": offered_qps,
           "hbm_per_node_bytes": perf.platform.hbm_per_node_bytes,
           "combined_model_bytes": sum(
               t.model.embedding_storage_bytes() for t in tenants)}
    for mode in ("partitioned", "shared"):
        fleet = MultiTenantFleet(tenants,
                                 num_replicas=config["num_replicas"],
                                 mode=mode, perf=perf)
        out[mode] = {"partition": dict(fleet.partition),
                     "report": fleet.serve(requests,
                                           offered_qps=offered_qps)}
    part = out["partitioned"]["report"]
    shared = out["shared"]["report"]
    out["partitioned_holds_all_slos"] = part.all_slos_held
    out["shared_misses_a_slo"] = len(shared.violations()) >= 1
    return out


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def measure(config):
    return {"planner": measure_planner(config),
            "tenancy": measure_tenancy(config)}


def tenancy_dict(mode_result):
    report = mode_result["report"]
    return {
        "partition": mode_result["partition"],
        "all_slos_held": report.all_slos_held,
        "violations": report.violations(),
        "tenants": {
            name: {"replicas": s.replicas, "slo_s": s.slo_s,
                   "slo_held": s.slo_held,
                   "p99_s": s.report.p99_s,
                   "goodput_qps": s.report.goodput_qps,
                   "shed_fraction": s.report.shed_fraction}
            for name, s in report.per_tenant.items()},
    }


def as_json(config, results):
    planner, tenancy = results["planner"], results["tenancy"]
    return {
        "benchmark": "planner",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in config.items()},
        "planner": {
            "full_bytes": planner["full_bytes"],
            "budget_bytes": planner["budget_bytes"],
            "mixed": planner["mixed"].as_dict(),
            "servable_bytes": planner["servable_bytes"],
            "uniforms": planner["uniforms"],
            "feasible_uniforms": planner["feasible_uniforms"],
        },
        "tenancy": {
            "num_requests": tenancy["num_requests"],
            "offered_qps": tenancy["offered_qps"],
            "hbm_per_node_bytes": tenancy["hbm_per_node_bytes"],
            "combined_model_bytes": tenancy["combined_model_bytes"],
            "partitioned": tenancy_dict(tenancy["partitioned"]),
            "shared": tenancy_dict(tenancy["shared"]),
        },
        "mixed_beats_feasible_uniforms":
            planner["mixed_beats_feasible_uniforms"],
        "some_uniform_infeasible": planner["some_uniform_infeasible"],
        "tt_selected": planner["tt_selected"],
        "ne_gap_within_floor": planner["ne_gap_within_floor"],
        "partitioned_holds_all_slos": tenancy["partitioned_holds_all_slos"],
        "shared_misses_a_slo": tenancy["shared_misses_a_slo"],
    }


PLAN_HEADER = ["table", "kind", "hot KiB", "error"]
UNIFORM_HEADER = ["plan", "hot KiB", "max error", "floor ok"]
TENANCY_HEADER = ["mode", "tenant", "replicas", "SLO ms", "p99 ms", "held"]


def plan_rows(results):
    mixed = results["planner"]["mixed"]
    return [[name, a.kind, f"{a.hot_bytes / 1024:.1f}", f"{a.error:.2g}"]
            for name, a in sorted(mixed.assignments.items())]


def uniform_rows(results):
    planner = results["planner"]
    rows = [["mixed", f"{planner['mixed'].hot_bytes() / 1024:.1f}",
             f"{planner['mixed'].max_error():.2g}", "yes"]]
    for kind, u in planner["uniforms"].items():
        rows.append([kind, f"{u['hot_bytes'] / 1024:.1f}",
                     f"{u['max_error']:.2g}",
                     "yes" if u["feasible"] else "NO"])
    return rows


def tenancy_rows(results):
    rows = []
    for mode in ("partitioned", "shared"):
        report = results["tenancy"][mode]["report"]
        for name, s in report.per_tenant.items():
            rows.append([mode, name, str(s.replicas),
                         f"{s.slo_s * 1e3:.1f}",
                         f"{s.report.p99_s * 1e3:.2f}",
                         "yes" if s.slo_held else "NO"])
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_planner.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    config = dict(QUICK_CONFIG if args.quick else FULL_CONFIG)
    results = measure(config)
    doc = as_json(config, results)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    mixed = results["planner"]["mixed"]
    print(f"mixed plan under {config['budget_frac']:.0%} budget, "
          f"floor {config['quality_floor']:g}:")
    print(render_table(PLAN_HEADER, plan_rows(results)))
    print(f"\nmeasured NE gap: {mixed.measured_ne_gap:.2e} "
          f"(floor {config['ne_floor']:g})")
    print("\nmixed vs uniform baselines at the same floor:")
    print(render_table(UNIFORM_HEADER, uniform_rows(results)))
    print("\ntenant isolation (same trace, both deployment modes):")
    print(render_table(TENANCY_HEADER, tenancy_rows(results)))
    print(f"wrote {args.out}")

    failures = []
    if not doc["mixed_beats_feasible_uniforms"]:
        failures.append("mixed plan did not beat every floor-feasible "
                        "uniform baseline on hot memory")
    if not doc["some_uniform_infeasible"]:
        failures.append("no uniform baseline breached the quality floor "
                        "— the planted workload lost its tension")
    if not doc["tt_selected"]:
        failures.append("planner never chose TT for the TT-structured "
                        "tables")
    if not doc["ne_gap_within_floor"]:
        failures.append("planned export's measured NE gap exceeded the "
                        "floor")
    if not doc["partitioned_holds_all_slos"]:
        failures.append("planner-partitioned fleet missed a tenant SLO")
    if not doc["shared_misses_a_slo"]:
        failures.append("naive shared fleet held every SLO — the "
                        "isolation gate has no contrast")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def test_mixed_beats_uniform_baselines(benchmark, report):
    """Mixed plan: fewer hot bytes than every floor-feasible uniform."""
    config = dict(QUICK_CONFIG)
    results = benchmark.pedantic(lambda: {"planner": measure_planner(config)},
                                 rounds=1, iterations=1)
    report("planner: mixed vs uniform at equal quality floor",
           UNIFORM_HEADER, uniform_rows(results))
    planner = results["planner"]
    assert planner["mixed_beats_feasible_uniforms"]
    assert planner["some_uniform_infeasible"]
    assert planner["tt_selected"]
    assert planner["ne_gap_within_floor"]
    # the frozen artifact's storage is what the plan promised
    assert planner["servable_bytes"] == planner["mixed"].total_bytes()


def test_partitioned_isolates_where_shared_misses(benchmark, report):
    """Partitioned tenancy holds every SLO; naive shared misses >= 1."""
    config = dict(QUICK_CONFIG)
    results = benchmark.pedantic(lambda: {"tenancy": measure_tenancy(config)},
                                 rounds=1, iterations=1)
    report("planner: tenant isolation, partitioned vs shared",
           TENANCY_HEADER, tenancy_rows(results))
    tenancy = results["tenancy"]
    assert tenancy["partitioned_holds_all_slos"]
    assert tenancy["shared_misses_a_slo"]
    # no tenant silently starved: every offered request is accounted for
    for mode in ("partitioned", "shared"):
        rep = tenancy[mode]["report"]
        served = sum(s.report.num_completed + s.report.num_shed
                     for s in rep.per_tenant.values())
        assert served == tenancy["num_requests"]


if __name__ == "__main__":
    sys.exit(main())
