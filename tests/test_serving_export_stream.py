"""The streaming export: ``freeze`` against the whole-model oracle.

``freeze`` reads each table from its source once (a trainer's stored
table in place, a column-wise table's slices joined) and writes it
straight into its tier's storage. ``tests/reference_serving.py`` keeps
the export as it was, through ``to_local_model`` and three more copies
of every table. The suites below hold the two artifacts equal bit for
bit on every tier and sharding scheme, and bound the export's memory.
"""

import pickle
import tracemalloc

import pytest

from repro import nn
from repro.cache import CACHE_KINDS
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.data.freq import FrequencyStats
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRM, DLRMConfig
from repro.planner import RepresentationPlan, TableAssignment
from repro.serving import FreezeConfig, freeze
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .reference_serving import freeze_reference

WORLD = 4
# one table per scheme, plus a second column-wise table on two ranks
SCHEMES = (
    (ShardingScheme.ROW_WISE, [0, 1, 2, 3]),
    (ShardingScheme.TABLE_WISE, [1]),
    (ShardingScheme.COLUMN_WISE, [0, 1, 2, 3]),
    (ShardingScheme.DATA_PARALLEL, [0, 1, 2, 3]),
    (ShardingScheme.TABLE_WISE, [2]),
    (ShardingScheme.COLUMN_WISE, [1, 3]),
)


def config_of(rows: int, dim: int = 8) -> DLRMConfig:
    tables = tuple(EmbeddingTableConfig(f"t{i}", rows + 7 * i, dim,
                                        avg_pooling=3.0)
                   for i in range(len(SCHEMES)))
    return DLRMConfig(dense_dim=4, bottom_mlp=(16, dim), tables=tables,
                      top_mlp=(16,))


def trainer_of(config: DLRMConfig, representation_plan=None,
               steps: int = 2) -> NeoTrainer:
    """An R=4 trainer over every scheme, trained ``steps`` steps so its
    tables differ from any fresh model's."""
    plan = ShardingPlan(world_size=WORLD)
    for t, (scheme, ranks) in zip(config.tables, SCHEMES):
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    plan.validate()
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseSGD(lr=0.5), seed=4,
        representation_plan=representation_plan)
    data = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=2)
    for step in range(steps):
        trainer.train_step([data.batch(8, batch_index=step * WORLD + r)
                            for r in range(WORLD)])
    return trainer


def frequency_stats(config: DLRMConfig) -> FrequencyStats:
    stats = FrequencyStats()
    data = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=5)
    for i in range(4):
        stats.update(data.batch(32, batch_index=i))
    return stats


def a_plan(config: DLRMConfig) -> RepresentationPlan:
    """Every plan kind once, over the six tables."""
    kinds = ("full", "fp16", "int8", "bf16", "cold", "tt")
    return RepresentationPlan(assignments={
        t.name: TableAssignment(table=t.name, kind=kind, hot_bytes=0,
                                total_bytes=0, error=0.0, lookup_s=0.0,
                                tt_ranks=(4, 4) if kind == "tt" else None)
        for t, kind in zip(config.tables, kinds)})


def assert_same_artifact(got, want) -> None:
    """Every stored bit, every recorded figure and the read-only flags."""
    assert got.precision == want.precision
    assert got.source_step == want.source_step
    assert got.representation == want.representation
    assert list(got.quantization_error.items()) == \
        list(want.quantization_error.items())
    assert list(got.table_storage_bytes.items()) == \
        list(want.table_storage_bytes.items())
    for a, b in zip(got.bottom.parameters() + got.top.parameters(),
                    want.bottom.parameters() + want.top.parameters()):
        assert a.data.tobytes() == b.data.tobytes()
        assert not a.data.flags.writeable
    assert got.hot_table_names == want.hot_table_names
    if want.hot_tables is not None:
        for ga, wa in zip(got.hot_tables.arena.groups,
                          want.hot_tables.arena.groups):
            assert ga.dim == wa.dim
            assert ga.bases.tolist() == wa.bases.tolist()
            assert ga.storage.tobytes() == wa.storage.tobytes()
            assert not ga.storage.flags.writeable
            for t, view in zip(ga.tables, ga.views):
                assert t.weight is view and view.base is ga.storage
                assert not view.flags.writeable
    assert got.cold_table_names == want.cold_table_names
    for name, table in want.cold_tables.items():
        mine = got.cold_tables[name]
        assert mine.backing.rows.tobytes() == table.backing.rows.tobytes()
        assert not mine.backing.rows.flags.writeable
        assert mine.backing.bytes_read == table.backing.bytes_read
        # the whole cache state after warm-up: slots, tags, scores, stats
        assert pickle.dumps(mine.cache) == pickle.dumps(table.cache)
    assert sorted(got.tt_tables) == sorted(want.tt_tables)
    for name, tt in want.tt_tables.items():
        for a, b in zip(got.tt_tables[name].table.cores, tt.table.cores):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable


def assert_same_predictions(got, want, config: DLRMConfig) -> None:
    data = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=9)
    batch = data.batch(16, batch_index=3)
    assert got.predict(batch).tobytes() == want.predict(batch).tobytes()


ARENA_CONFIGS = [FreezeConfig(precision=p)
                 for p in ("fp32", "fp16", "bf16", "int8")]
# a budget that fits some tables: arena and cache tiers side by side
COLD_CONFIGS = [FreezeConfig(hot_bytes=3 * 120 * 8 * 4, cache_kind=kind)
                for kind in CACHE_KINDS] \
    + [FreezeConfig(precision="int8", hot_bytes=0.0)]


class TestStreamingParity:
    CONFIG = config_of(rows=120)

    @pytest.fixture(scope="class")
    def trainer(self):
        return trainer_of(self.CONFIG)

    @pytest.mark.parametrize("cfg", ARENA_CONFIGS + COLD_CONFIGS,
                             ids=lambda c: f"{c.precision}-{c.hot_bytes}-"
                                           f"{c.cache_kind}")
    def test_trainer_every_tier_and_scheme(self, trainer, cfg):
        stats = frequency_stats(self.CONFIG)
        got = freeze(trainer, cfg, frequency_stats=stats)
        want = freeze_reference(trainer, cfg, frequency_stats=stats)
        assert_same_artifact(got, want)
        assert_same_predictions(got, want, self.CONFIG)

    @pytest.mark.parametrize("cfg", ARENA_CONFIGS + COLD_CONFIGS[:1],
                             ids=lambda c: f"{c.precision}-{c.hot_bytes}")
    def test_dlrm_source(self, cfg):
        model = DLRM(self.CONFIG, seed=6)
        got = freeze(model, cfg, step=11)
        want = freeze_reference(model, cfg, step=11)
        assert_same_artifact(got, want)
        assert_same_predictions(got, want, self.CONFIG)

    def test_plan_with_quantized_training_shards(self):
        """The plan's fp16/bf16/int8 tables train on quantized shards;
        every kind, TT included, exports as the oracle exports it."""
        plan = a_plan(self.CONFIG)
        trainer = trainer_of(self.CONFIG, representation_plan=plan)
        for kind in ("set_associative", "freq_aware"):
            cfg = FreezeConfig(cache_kind=kind)
            stats = frequency_stats(self.CONFIG)
            got = freeze(trainer, cfg, plan=plan, frequency_stats=stats)
            want = freeze_reference(trainer, cfg, plan=plan,
                                    frequency_stats=stats)
            assert got.representation == {
                t.name: plan.kind_of(t.name) for t in self.CONFIG.tables}
            assert_same_artifact(got, want)
            assert_same_predictions(got, want, self.CONFIG)

    def test_source_left_untouched(self, trainer):
        """Reading a trainer's stored tables in place writes nothing back:
        they are read through read-only views."""
        before = {t.name: trainer.gather_table(t.name)
                  for t in self.CONFIG.tables}
        freeze(trainer, FreezeConfig(precision="int8"))
        for name, weight in before.items():
            assert trainer.gather_table(name).tobytes() == weight.tobytes()

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            freeze(object())


class TestExportMemory:
    def test_peak_within_twice_the_embedding_bytes(self):
        """The export holds one copy of each table and one table in
        flight: its traced peak stays under 2x the embedding bytes (the
        whole-model export peaked at ~4.2x)."""
        config = config_of(rows=3000, dim=16)
        trainer = trainer_of(config, steps=1)
        embedding_bytes = config.num_embedding_parameters() * 4
        tracemalloc.start()
        try:
            servable = freeze(trainer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert servable.embedding_storage_bytes() == embedding_bytes
        assert peak <= 2 * embedding_bytes, peak / embedding_bytes
