"""Tests for serving export: freeze parity, quantization, immutability.

The headline guarantee is bitwise: an fp32 ``ServableModel.forward`` must
equal the source model's eval forward exactly — against the reference
DLRM and against the distributed trainer's ``eval_forward`` (with
summation-order-preserving sharding schemes). Quantized paths get
measured error bounds, and everything frozen must refuse writes.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.data import MiniBatch
from repro.data.freq import FrequencyStats
from repro.embedding import SparseSGD
from repro.embedding.kernels import segment_sum
from repro.models import DLRM, ZOO_SIZES, zoo_config
from repro.serving import FreezeConfig, ServableModel, freeze

from .helpers import tiny_config, tiny_dataset, tiny_trainer
from .reference_batch import from_features, to_features


def make_config(num_tables=3, rows=150, dim=8, dense_dim=6):
    """This suite's tiny DLRM (fewer rows than the shared default)."""
    return tiny_config(num_tables, rows, dim, dense_dim)


class TestFp32Parity:
    def test_bitwise_vs_reference_dlrm(self):
        config = make_config()
        model = DLRM(config, seed=3)
        servable = freeze(model)
        batch = tiny_dataset(config).batch(32, 7)
        np.testing.assert_array_equal(servable.forward(batch),
                                      model.forward(batch))

    def test_bitwise_vs_trainer_eval_forward(self):
        config = make_config(num_tables=4)
        trainer = tiny_trainer(config, world=2, seed=5)
        ds = tiny_dataset(config, seed=9)
        for i in range(3):
            trainer.train_step(ds.batch(8, i).split(2))
        batch = ds.batch(8, 50)
        per_rank = trainer.eval_forward(batch.split(2))
        servable = freeze(trainer)
        np.testing.assert_array_equal(servable.forward(batch),
                                      np.concatenate(per_rank))

    def test_eval_forward_does_not_mutate(self):
        config = make_config()
        trainer = tiny_trainer(config)
        ds = tiny_dataset(config)
        trainer.train_step(ds.batch(8, 0).split(2))
        shards = {t.name: trainer.plan.tables[t.name].shards[0]
                  for t in config.tables}
        before = {n: trainer.exchange.shard_tables[s].weight.copy()
                  for n, s in shards.items()}
        dense_before = [p.data.copy()
                        for p in trainer.ranks[0].bottom.parameters()]
        trainer.eval_forward(ds.batch(8, 1).split(2))
        for n, s in shards.items():
            np.testing.assert_array_equal(
                trainer.exchange.shard_tables[s].weight, before[n])
        for p, w in zip(trainer.ranks[0].bottom.parameters(), dense_before):
            np.testing.assert_array_equal(p.data, w)

    def test_eval_forward_validates_batches(self):
        config = make_config()
        trainer = tiny_trainer(config)
        b = tiny_dataset(config).batch(8, 0)
        with pytest.raises(ValueError):
            trainer.eval_forward([b])  # wrong count for world=2

    def test_predict_is_sigmoid_of_forward(self):
        config = make_config()
        model = DLRM(config, seed=1)
        servable = freeze(model)
        batch = tiny_dataset(config).batch(16, 0)
        logits = servable.forward(batch)
        np.testing.assert_allclose(servable.predict(batch),
                                   1.0 / (1.0 + np.exp(-logits)), rtol=1e-6)


class TestZooRoundTrip:
    """Every serving-zoo tier must freeze and serve bitwise-identically
    to its source model — the invariant the multi-tenant fleet builds
    on (one frozen artifact per tenant, no tier-specific drift)."""

    @pytest.mark.parametrize("size", ZOO_SIZES)
    def test_zoo_config_freeze_forward_bitwise(self, size):
        config = zoo_config(size)
        model = DLRM(config, seed=11)
        servable = freeze(model)
        batch = tiny_dataset(config, seed=3).batch(16, 2)
        np.testing.assert_array_equal(servable.forward(batch),
                                      model.forward(batch))
        # round-trip bookkeeping: fp32 artifact, every table hot
        assert servable.precision == "fp32"
        assert not servable.cold_table_names

    @pytest.mark.parametrize("size", ZOO_SIZES)
    def test_zoo_config_is_trainable_shape(self, size):
        config = zoo_config(size)
        assert len(config.tables) >= 2
        assert all(t.num_embeddings <= 2048 for t in config.tables)

    def test_zoo_sizes_are_ordered_by_cost(self):
        params = [sum(t.num_parameters for t in zoo_config(s).tables)
                  for s in ZOO_SIZES]
        assert params == sorted(params)
        assert params[0] < params[-1]

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            zoo_config("huge")


class TestQuantizedFreeze:
    @pytest.mark.parametrize("precision,bound", [
        ("fp16", 1e-3), ("bf16", 8e-3), ("int8", 1e-2)])
    def test_bounded_logit_error(self, precision, bound):
        config = make_config()
        model = DLRM(config, seed=3)
        batch = tiny_dataset(config).batch(64, 2)
        reference = model.forward(batch)
        servable = freeze(model, FreezeConfig(precision=precision))
        err = np.max(np.abs(servable.forward(batch) - reference))
        assert 0 < err < bound

    @pytest.mark.parametrize("precision", ["fp16", "bf16", "int8"])
    def test_quantization_error_recorded(self, precision):
        config = make_config()
        servable = freeze(DLRM(config, seed=3),
                          FreezeConfig(precision=precision))
        assert set(servable.quantization_error) == \
            {t.name for t in config.tables}
        assert servable.max_quantization_error() > 0

    def test_fp32_has_zero_recorded_error(self):
        config = make_config()
        servable = freeze(DLRM(config, seed=3))
        assert servable.max_quantization_error() == 0.0

    def test_storage_bytes_shrink_with_precision(self):
        # dim wide enough that int8's per-row scale/offset overhead
        # (8 bytes) stays below the payload saving vs fp16
        config = make_config(dim=32)
        model = DLRM(config, seed=0)
        by_prec = {p: freeze(model, FreezeConfig(precision=p))
                   .embedding_storage_bytes()
                   for p in ("fp32", "fp16", "int8")}
        assert by_prec["fp16"] == by_prec["fp32"] // 2
        assert by_prec["int8"] < by_prec["fp16"]
        emb_params = sum(t.num_parameters for t in config.tables)
        rows = sum(t.num_embeddings for t in config.tables)
        assert by_prec["int8"] == emb_params + rows * 8  # scale/offset pairs

    def test_rejects_unknown_precision(self):
        with pytest.raises(ValueError):
            FreezeConfig(precision="fp8")


class TestHotColdPlacement:
    def test_all_hot_by_default(self):
        config = make_config()
        servable = freeze(DLRM(config, seed=0))
        assert len(servable.hot_table_names) == len(config.tables)
        assert servable.cold_table_names == []

    def test_budget_splits_hot_cold(self):
        config = make_config(num_tables=3, rows=150, dim=8)
        table_bytes = 150 * 8 * 4
        servable = freeze(DLRM(config, seed=0),
                          FreezeConfig(hot_bytes=table_bytes * 1.5))
        assert len(servable.hot_table_names) == 1
        assert len(servable.cold_table_names) == 2

    def test_cold_path_is_bitwise_exact(self):
        config = make_config()
        model = DLRM(config, seed=4)
        servable = freeze(model, FreezeConfig(hot_bytes=0.0))
        assert servable.hot_tables is None
        assert len(servable.cold_table_names) == len(config.tables)
        batch = tiny_dataset(config).batch(32, 3)
        np.testing.assert_array_equal(servable.forward(batch),
                                      model.forward(batch))

    def test_cold_tables_count_cache_traffic(self):
        # cache_fraction=1.0 so every row fits: with serve-path dedup the
        # cache only sees each unique id once per dispatch, so hits come
        # from Zipf ids recurring *across* dispatches
        config = make_config()
        servable = freeze(DLRM(config, seed=4),
                          FreezeConfig(hot_bytes=0.0, cache_fraction=1.0))
        ds = tiny_dataset(config)
        for i in range(3):
            servable.forward(ds.batch(32, i))
        for name in servable.cold_table_names:
            table = servable.cold_tables[name]
            stats = table.cache.stats
            assert stats.accesses > 0
            assert stats.hits > 0  # Zipf ids revisit hot rows
            # within-dispatch repeats were absorbed by dedup
            assert table.rows_read < table.rows_requested

    # table t0's (fills, misses, rows read) after serving one batch
    COLD_TRAFFIC = {"freq_aware": (39, 39, 39),
                    "set_associative": (70, 70, 70),
                    "uvm": (4, 4, 200)}

    @pytest.mark.parametrize("cache_kind", sorted(COLD_TRAFFIC))
    def test_warm_traffic_is_excluded_from_both_counters(self, cache_kind):
        """Regression: warming a ``freq_aware`` cold table reset the
        backing store's bytes but not the cache's stats, so ``fills``
        read 50 after warm-up and 89 against 39 misses after serving.
        Now warm traffic counts in neither, and a row cache's fills
        equal its misses and the rows it read (a ``uvm`` fill is one
        page of 50 rows)."""
        config = tiny_config()
        data = tiny_dataset(config)
        stats = FrequencyStats()
        for i in range(4):
            stats.update(data.batch(64, i))
        servable = freeze(DLRM(config, seed=4),
                          FreezeConfig(hot_bytes=0, cache_kind=cache_kind),
                          frequency_stats=stats)
        t0 = servable.cold_tables["t0"]
        row_bytes = t0.backing.rows[0].nbytes
        assert (t0.cache.stats.fills, t0.backing.bytes_read) == (0, 0)
        servable.predict(data.batch(64, 100))
        s = t0.cache.stats
        assert (s.fills, s.misses, t0.backing.bytes_read // row_bytes) \
            == self.COLD_TRAFFIC[cache_kind]

    def test_cold_dedup_matches_undeduped_path(self):
        """A cold table's deduplicated cache read pools the bits a plain
        read of every id from its backing rows pools, in fewer reads."""
        config = make_config()
        servable = freeze(DLRM(config, seed=4), FreezeConfig(hot_bytes=0.0))
        batch = tiny_dataset(config).batch(32, 3)
        for name in servable.cold_table_names:
            table = servable.cold_tables[name]
            indices, offsets = batch.feature(name)
            plain = segment_sum(table.backing.rows[indices], offsets)
            np.testing.assert_array_equal(
                table.forward(indices, offsets), plain)
            assert table.rows_read < table.rows_requested == len(indices)

    @pytest.mark.parametrize("cache_kind", ["freq_aware", "set_associative"])
    @pytest.mark.parametrize("bad_id", [-1, 150])
    def test_out_of_range_id_raises_before_the_cache(self, cache_kind,
                                                     bad_id):
        """Regression: a cold table passed its ids straight to the
        cache, so ``-1`` came back as row ``H-1`` (and was admitted
        under key ``-1``) on ``freq_aware`` and as zeros on
        ``set_associative``. Cold ids are validated like hot ones now,
        and a rejected lookup leaves no trace in the cache."""
        servable = freeze(DLRM(make_config(rows=150), seed=0),
                          FreezeConfig(hot_bytes=0.0, cache_kind=cache_kind))
        table = servable.cold_tables[servable.cold_table_names[0]]
        stats = dataclasses.asdict(table.cache.stats)
        bytes_read = table.backing.bytes_read
        indices = np.array([3, bad_id, 7], dtype=np.int64)
        offsets = np.array([0, 2, 3], dtype=np.int64)
        with pytest.raises(IndexError, match=f"table {table.name} with "
                                             f"H=150"):
            table.forward(indices, offsets)
        assert dataclasses.asdict(table.cache.stats) == stats
        assert table.backing.bytes_read == bytes_read


BAD_OFFSETS = {"non_monotone": [0, 3, 1, 3], "past_the_end": [0, 2, 5],
               "not_from_zero": [1, 2, 3]}


class TestBagValidation:
    """Regression: the hot table accepted non-monotone offsets (``[0, 3,
    1, 3]`` pooled bag 0 as ``ids[0]`` alone), and cold and TT tables
    checked no offsets at all, returning values and counting cache
    traffic. Every table kind now runs the one ``validate_bags`` check
    before it reads a row."""

    @staticmethod
    def servable():
        plan = SimpleNamespace(assignments={
            "t0": SimpleNamespace(kind="full", tt_ranks=None),
            "t1": SimpleNamespace(kind="cold", tt_ranks=None),
            "t2": SimpleNamespace(kind="tt", tt_ranks=(4, 4))})
        return freeze(DLRM(make_config(rows=150), seed=0), plan=plan)

    @staticmethod
    def traffic(servable):
        table = servable.cold_tables["t1"]
        return (dataclasses.asdict(table.cache.stats),
                table.backing.bytes_read, table.rows_requested,
                table.rows_read, servable.dedup_rows_read)

    @pytest.mark.parametrize("case", sorted(BAD_OFFSETS))
    @pytest.mark.parametrize("kind", ["hot", "cold", "tt"])
    def test_every_table_kind_rejects_malformed_offsets(self, kind, case):
        servable = self.servable()
        table = {"hot": servable.hot_tables.table("t0"),
                 "cold": servable.cold_tables["t1"],
                 "tt": servable.tt_tables["t2"]}[kind]
        before = self.traffic(servable)
        with pytest.raises(ValueError, match="offsets"):
            table.forward(np.array([3, 4, 5], dtype=np.int64),
                          np.array(BAD_OFFSETS[case], dtype=np.int64))
        assert self.traffic(servable) == before

    @pytest.mark.parametrize("kind", ["hot", "cold", "tt"])
    def test_every_table_kind_rejects_out_of_range_ids(self, kind):
        servable = self.servable()
        table = {"hot": servable.hot_tables.table("t0"),
                 "cold": servable.cold_tables["t1"],
                 "tt": servable.tt_tables["t2"]}[kind]
        with pytest.raises(IndexError, match="H=150"):
            table.forward(np.array([3, 150], dtype=np.int64),
                          np.array([0, 1, 2], dtype=np.int64))

    def test_predict_rejects_a_non_monotone_cold_bag(self):
        servable = self.servable()
        batch = tiny_dataset(make_config(rows=150)).batch(3, 0)
        features = to_features(batch)
        features["t1"] = (np.array([3, 4, 5], dtype=np.int64),
                          np.array([0, 3, 1, 3], dtype=np.int64))
        before = self.traffic(servable)
        # the bag of length -2 is refused when the batch is built
        with pytest.raises(ValueError, match="non-negative"):
            servable.predict(from_features(batch.dense, features,
                                           batch.labels))
        assert self.traffic(servable) == before

    @pytest.mark.parametrize("fault", ["bags", "start", "end"])
    def test_concat_rejects_a_malformed_batch(self, fault):
        """A malformed batch would re-bag a neighbour's ids in
        ``concat``: an extra bag, a start past 0 or an end short of the
        ids is refused when the batch is built, before it can be
        joined."""
        ds = tiny_dataset(make_config(rows=150))
        good, bad = ds.batch(2, 0), ds.batch(2, 1)
        features = to_features(bad)
        ids, offsets = features["t1"]
        if fault == "start":
            offsets[0] = 1
        elif fault == "end":
            features["t1"] = (np.append(ids, 7), offsets)
        match = {"bags": r"needs \(3, 2\) lengths"}.get(fault,
                                                         "lengths sum to")
        with pytest.raises(ValueError, match=match):
            if fault == "bags":
                extra = np.zeros((len(bad.keys), 1), dtype=np.int64)
                bad = MiniBatch(dense=bad.dense, keys=bad.keys,
                                lengths=np.hstack([bad.lengths, extra]),
                                ids=bad.ids, labels=bad.labels)
            else:
                bad = from_features(bad.dense, features, bad.labels)
            MiniBatch.concat([good, bad])


class TestImmutability:
    def test_dense_weights_frozen(self):
        servable = freeze(DLRM(make_config(), seed=0))
        with pytest.raises(ValueError):
            servable.bottom.parameters()[0].data[0, 0] = 1.0
        with pytest.raises(ValueError):
            servable.top.parameters()[-1].data[...] = 0.0

    def test_arena_storage_and_views_frozen(self):
        servable = freeze(DLRM(make_config(), seed=0))
        arena = servable.hot_tables.arena
        for group in arena.groups:
            with pytest.raises(ValueError):
                group.storage[0, 0] = 1.0
            for view in group.views:
                with pytest.raises(ValueError):
                    view[0, 0] = 1.0

    def test_cold_backing_frozen(self):
        servable = freeze(DLRM(make_config(), seed=0),
                          FreezeConfig(hot_bytes=0.0))
        for name in servable.cold_table_names:
            backing = servable.cold_tables[name].backing
            with pytest.raises(ValueError):
                backing.rows[0, 0] = 1.0

    def test_source_model_stays_trainable(self):
        config = make_config()
        model = DLRM(config, seed=0)
        freeze(model)
        ds = tiny_dataset(config)
        opt = nn.SGD(model.dense_parameters(), lr=0.1)
        model.train_step(ds.batch(8, 0), opt, SparseSGD(lr=0.1))  # no raise


class TestFreezeValidation:
    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            freeze(object())

    @pytest.mark.parametrize("hot_bytes", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_budgets(self, hot_bytes):
        """Regression: a NaN budget was accepted and, failing every
        ``table_bytes <= budget`` test, sent every table cold."""
        with pytest.raises(ValueError, match="hot_bytes"):
            FreezeConfig(hot_bytes=hot_bytes)

    def test_infinite_budget_keeps_every_table_hot(self):
        config = make_config()
        servable = freeze(DLRM(config, seed=0),
                          FreezeConfig(hot_bytes=float("inf")))
        assert len(servable.hot_table_names) == len(config.tables)

    def test_servable_is_dataclass_with_footprint(self):
        config = make_config()
        servable = freeze(DLRM(config, seed=0))
        assert isinstance(servable, ServableModel)
        assert servable.storage_bytes() == \
            servable.embedding_storage_bytes() + \
            servable.dense_storage_bytes()
        assert servable.dense_storage_bytes() == \
            config.num_dense_parameters() * 4

    def test_nnz_counts_all_features(self):
        config = make_config()
        servable = freeze(DLRM(config, seed=0))
        batch = tiny_dataset(config).batch(16, 0)
        expected = sum(len(ids) for ids, _ in to_features(batch).values())
        assert servable.nnz(batch) == expected
