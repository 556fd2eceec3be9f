"""Integration tests for the observability layer: golden wire-byte
values, tracer-vs-legacy accounting consistency, the column-wise
uneven-split byte audit, and the ``python -m repro trace`` CLI."""

import json

import numpy as np
import pytest

from repro import nn
from repro.comms import (AlltoAllKind, ClusterTopology,
                         QuantizedCommsConfig, SimProcessGroup)
from repro.comms import perf_model
from repro.comms.quantization import wire_bytes
from repro.core import NeoTrainer
from repro.core.pipeline import LatencyBreakdown
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRMConfig
from repro.obs import (MetricRegistry, Tracer, compare_to_model,
                       render_summary)
from repro.sharding import (Shard, ShardingPlan, ShardingScheme,
                            TableShardingPlan, shard_table)

WORLD = 2
LOCAL_BATCH = 4
GLOBAL_BATCH = WORLD * LOCAL_BATCH
DIM = 8
ITERS = 3


def _mixed_plan(config):
    """t0 table-wise on rank 0, t1 row-wise across both ranks."""
    plan = ShardingPlan(world_size=WORLD)
    t0, t1 = config.tables
    plan.tables[t0.name] = shard_table(t0, ShardingScheme.TABLE_WISE, [0])
    plan.tables[t1.name] = shard_table(t1, ShardingScheme.ROW_WISE,
                                       list(range(WORLD)))
    plan.validate()
    return plan


def _run_traced(comms_config=None):
    tables = (EmbeddingTableConfig("t0", 64, DIM, avg_pooling=2.0),
              EmbeddingTableConfig("t1", 64, DIM, avg_pooling=2.0))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8,), tables=tables,
                        top_mlp=(8,))
    topo = ClusterTopology(num_nodes=1, gpus_per_node=WORLD)
    tracer = Tracer(clock="logical")
    registry = MetricRegistry()
    trainer = NeoTrainer(
        config, _mixed_plan(config), topo,
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseSGD(lr=0.1), comms_config=comms_config,
        seed=0, trace=tracer, metrics=registry)
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    batches = ds.batches(GLOBAL_BATCH, ITERS)
    for b in batches:
        trainer.train_step(b.split(WORLD))
    return trainer, tracer, batches, topo


class TestGoldenWireBytes:
    """Traced per-collective wire bytes for a tiny TW + RW model match
    both the legacy CommsLog accounting and hand-computed predictions."""

    def test_float_collectives_match_analytic_bytes(self):
        trainer, _, _, _ = _run_traced()
        got = trainer.pg.log.wire_bytes

        # TW t0: one pooled AlltoAll each way, global_batch x dim fp32
        pooled = wire_bytes(GLOBAL_BATCH * DIM, "fp32")
        assert got["all_to_all/forward_alltoall"] == ITERS * pooled
        assert got["all_to_all/backward_alltoall"] == ITERS * pooled
        # RW t1 forward: ReduceScatter of one partial-sum matrix per rank
        assert got["reduce_scatter"] == ITERS * GLOBAL_BATCH * DIM * 4 * \
            WORLD // WORLD * WORLD  # per_gpu = global x dim, x world ranks
        assert got["reduce_scatter"] == ITERS * GLOBAL_BATCH * DIM * 4 * WORLD
        # RW t1 backward: AllGather of each rank's local gradient slab
        assert got["all_gather"] == ITERS * LOCAL_BATCH * DIM * 4 * WORLD

    def test_index_bytes_match_batch_contents(self):
        trainer, _, batches, _ = _run_traced()
        got = trainer.pg.log.wire_bytes

        # both schemes ship every local id to exactly one owner (ids are
        # int64). Lengths arrays ride along: one entry per sample for the
        # TW table, one per (sample, row shard) bucket for the RW table.
        total_ids = sum(len(b.sparse[t][0]) for b in batches
                        for t in ("t0", "t1"))
        total_lengths = ITERS * GLOBAL_BATCH + ITERS * GLOBAL_BATCH * WORLD
        assert got["all_to_all/index"] == (total_ids + total_lengths) * 8

    def test_span_attribution_matches_legacy_log(self):
        trainer, tracer, _, _ = _run_traced()
        log = trainer.pg.log
        for name, want in log.wire_bytes.items():
            spans = tracer.trace.find(f"comms.{name}")
            assert len(spans) == log.calls[name]
            assert sum(s.args["wire_bytes"] for s in spans) == want
        for name, want in log.modeled_seconds.items():
            spans = tracer.trace.find(f"comms.{name}")
            got = sum(s.args["modeled_seconds"] for s in spans)
            assert got == pytest.approx(want)

    def test_modeled_seconds_match_perf_model(self):
        trainer, _, _, topo = _run_traced()
        log = trainer.pg.log
        pooled = wire_bytes(GLOBAL_BATCH * DIM, "fp32")
        assert log.modeled_seconds["all_to_all/forward_alltoall"] == \
            pytest.approx(
                ITERS * perf_model.all_to_all_time(pooled / WORLD, topo))
        assert log.modeled_seconds["reduce_scatter"] == pytest.approx(
            ITERS * perf_model.reduce_scatter_time(
                GLOBAL_BATCH * DIM * 4, topo))

    def test_quantized_wire_halves_forward_bytes(self):
        full, _, _, _ = _run_traced()
        quant, _, _, _ = _run_traced(QuantizedCommsConfig.paper_recipe())
        assert quant.pg.log.wire_bytes["all_to_all/forward_alltoall"] * 2 \
            == full.pg.log.wire_bytes["all_to_all/forward_alltoall"]
        # index traffic is integer data: never quantized
        assert quant.pg.log.wire_bytes["all_to_all/index"] == \
            full.pg.log.wire_bytes["all_to_all/index"]


class TestEmbeddingSpanRanks:
    """A lookup or update span names every owner rank its one call
    serves: all replicas of a data-parallel table, every row shard of a
    row-wise table, the one owner of a table-wise table or a column
    slice."""

    def test_each_span_names_the_ranks_its_call_serves(self):
        tables = tuple(EmbeddingTableConfig(f"t{i}", 64, DIM,
                                            avg_pooling=2.0)
                       for i in range(4))
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8,), tables=tables,
                            top_mlp=(8,))
        plan = ShardingPlan(world_size=WORLD)
        for table, scheme, ranks in (
                (tables[0], ShardingScheme.DATA_PARALLEL, [0, 1]),
                (tables[1], ShardingScheme.ROW_WISE, [1, 0]),
                (tables[2], ShardingScheme.TABLE_WISE, [1]),
                (tables[3], ShardingScheme.COLUMN_WISE, [1, 0])):
            plan.tables[table.name] = shard_table(table, scheme, ranks)
        plan.validate()
        tracer = Tracer(clock="logical")
        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), seed=0, trace=tracer)
        batch = SyntheticCTRDataset(tables, dense_dim=4, seed=1).batches(
            GLOBAL_BATCH, 1)[0]
        trainer.train_step(batch.split(WORLD))
        want = {"t0": [[0, 1]], "t1": [[0, 1]], "t2": [[1]],
                "t3": [[0], [1]]}
        for name in ("trainer.embedding_lookup", "trainer.embedding_update"):
            got = {}
            for span in tracer.trace.find(name):
                got.setdefault(span.args["table"], []).append(
                    span.args["ranks"])
            assert {t: sorted(r) for t, r in got.items()} == want, name


class TestColumnWiseByteAudit:
    """Sliced-gradient AlltoAll accounting for column-wise sharding:
    bytes == sum(shard_cols) * batch * 4, no matter how uneven the cut
    or how shards map onto ranks."""

    @pytest.mark.parametrize("col_cuts,ranks", [
        ((0, 5, 10), (0, 1)),         # even split
        ((0, 3, 10), (0, 1)),         # uneven split
        ((0, 2, 5, 10), (0, 1, 0)),   # three shards, shared owner rank
    ])
    def test_bytes_independent_of_split(self, col_cuts, ranks):
        dim = col_cuts[-1]
        table = EmbeddingTableConfig("t0", 64, dim, avg_pooling=2.0)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, dim),
                            tables=(table,), top_mlp=(8,))
        plan = ShardingPlan(world_size=WORLD)
        shards = [Shard("t0", rank, (0, 64), (lo, hi))
                  for rank, (lo, hi) in zip(ranks, zip(col_cuts,
                                                       col_cuts[1:]))]
        plan.tables["t0"] = TableShardingPlan(
            config=table, scheme=ShardingScheme.COLUMN_WISE, shards=shards)
        plan.validate()
        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), seed=0)
        ds = SyntheticCTRDataset((table,), dense_dim=4, seed=1)
        for b in ds.batches(GLOBAL_BATCH, ITERS):
            trainer.train_step(b.split(WORLD))

        want = ITERS * GLOBAL_BATCH * dim * 4
        got = trainer.pg.log.wire_bytes
        assert got["all_to_all/forward_alltoall"] == want
        assert got["all_to_all/backward_alltoall"] == want

    def test_index_bytes_scale_with_owner_count(self):
        """Column-wise replicates ids to every owner rank; an int32 id
        stream must be billed at 4 bytes, not a hardcoded 8."""
        topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
        pg = SimProcessGroup(topo)
        ids32 = np.tile(np.arange(6, dtype=np.int32), 4)
        pg.all_to_all(ids32, np.full((2, 2), 6), kind=AlltoAllKind.INDEX)
        assert pg.log.wire_bytes["all_to_all/index"] == 4 * 6 * 4


class TestCompareToModel:

    def test_share_normalization(self):
        tracer = Tracer(clock="logical")
        with tracer.span("trainer.bottom_mlp_fwd"):
            pass  # 1 tick
        with tracer.span("trainer.allreduce"):
            with tracer.span("pad"):
                pass  # 3 ticks inclusive
        model = LatencyBreakdown(
            t_fwd=1.0, t_bwd=1.0,
            serialized={"bottom_mlp_fwd": 0.25, "allreduce": 0.75})
        rows = {r.component: r
                for r in compare_to_model(tracer.trace, model)}
        assert rows["trainer.bottom_mlp_fwd"].measured_share == \
            pytest.approx(0.25)
        assert rows["trainer.allreduce"].measured_share == pytest.approx(0.75)
        assert rows["trainer.bottom_mlp_fwd"].model_share == \
            pytest.approx(0.25)
        assert rows["trainer.allreduce"].delta_share == pytest.approx(0.0)
        # unmapped model components are excluded from normalization
        assert sum(r.measured_share for r in rows.values()) == \
            pytest.approx(1.0)

    def test_trained_run_summary_renders(self):
        _, tracer, _, _ = _run_traced()
        model = LatencyBreakdown(
            t_fwd=1.0, t_bwd=2.0,
            serialized={"bottom_mlp_fwd": 0.2, "allreduce": 0.8})
        text = render_summary(tracer.trace, model=model)
        assert "## Spans" in text
        assert "trainer.iteration" in text
        assert "Measured vs analytical model" in text


class TestTraceCLI:
    """The exact invocation the issue pins down must produce loadable
    Chrome trace JSON and a model-comparison summary."""

    def test_cli_trace_output(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "trace.json"
        rc = main(["trace", "--model", "A2", "--ranks", "4", "--iters", "3",
                   "--clock", "logical", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert len(events) > 10
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            assert e["ph"] in ("M", "X")
            assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        names = {e["name"] for e in events}
        assert "trainer.iteration" in names
        assert any(n.startswith("comms.all_to_all") for n in names)

        printed = capsys.readouterr().out
        assert "Measured vs analytical model" in printed
        assert "trainer.embedding_fwd" in printed
