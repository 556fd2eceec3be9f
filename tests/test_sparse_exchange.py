"""The sparse exchange: what the trainer puts on the wire, pinned.

A trainer's ``SparseExchange`` prepares every table's index exchange in
one pass (every table's bag lengths read off the ranks' stacked
lengths matrices, one sort of every row-wise table's ids by table,
source and owner rank) and then issues
one collective per table per kind, in table order, each over one send
buffer and a split matrix. These tests hold that pass to the exchange
it replaced, whose ``[src][dst]`` slices the recorded inputs are
rebuilt as:

* a recorded run of a hybrid-sharded trainer (row-, table-, column-wise
  and data-parallel tables; uneven row splits with a single-row shard; a
  row-wise table that skips a rank; an empty bag on every rank) must
  issue the same collectives, in the same order, with the same inputs,
  wire bytes and modeled seconds as the per-table exchange did;
* the one-pass row-wise payloads, cut into their ``[src][dst]`` slices,
  must equal the per-(table, source rank) bucketize oracle of
  ``tests/reference_trainer.py``, and a rank without a shard must
  receive nothing;
* a table-wise table must train exactly as one full-width column-wise
  shard does, which is how the exchange runs it;
* ids outside their table must fail as a per-table bucketize did, even
  where the combined id space would hide them in a neighbour's bucket,
  and a batch without some table's feature, or of another local batch
  size, must fail before any collective;
* a plan with a shard outside the world, or a data-parallel table
  missing from some rank, must fail when the trainer is built;
* the comms log's cached counters must survive registry resets.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import ClusterTopology, CommsLog, SimProcessGroup
from repro.core import NeoTrainer
from repro.core.exchange import SparseExchange
from repro.data import MiniBatch, SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.models import DLRMConfig
from repro.obs import NULL_TRACER, MetricRegistry
from repro.sharding import (Shard, ShardingPlan, ShardingScheme,
                            TableShardingPlan, shard_table)

from .reference_batch import from_features, to_features
from .reference_comms import to_slices
from .reference_trainer import looped_row_wise_payloads

WORLD = 4
DIM = 4
LOCAL_BATCH = 3
# sha256 of the collective record of `recorded_run()`, taken from the
# per-table exchange this pass replaced; any change to a collective's
# name, order, inputs, wire bytes or modeled seconds changes it
PINNED_EXCHANGE = \
    "f94227020d7694c6348c403a6d8536481ed356e620d1c12e621ce0f747bb4b22"


def _array_digest(h, value) -> None:
    if isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _array_digest(h, item)
        h.update(b"]")
        return
    array = np.asarray(value)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).tobytes())


def _slices(name, send, splits):
    """A collective's inputs as the per-rank lists the record was pinned
    on: AlltoAll ``[src][dst]`` slices, ReduceScatter ``[src][chunk]``
    chunks, and one array per rank otherwise."""
    if splits is not None:
        return to_slices(send, splits)
    if name == "reduce_scatter":
        w = len(send)
        return [list(np.split(chunks, w)) for chunks in send]
    return list(send)


class RecordingProcessGroup(SimProcessGroup):
    """Records every collective: name, sha256 of its inputs, wire bytes
    and modeled seconds (exactly, as a float hex string)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.record = []

    def _execute(self, name, send, total_wire, seconds, fn, splits=None):
        h = hashlib.sha256()
        _array_digest(h, _slices(name, send, splits))
        self.record.append([name, h.hexdigest(), int(total_wire),
                            float(seconds).hex()])
        return super()._execute(name, send, total_wire, seconds, fn,
                                splits)


def hybrid_plan(tables, tw_scheme=ShardingScheme.TABLE_WISE) -> ShardingPlan:
    """rw_a: four uneven row shards (one a single row) placed out of rank
    order; rw_b: three row shards, none on rank 0; tw on rank 2; cw in
    three uneven column slices; dp on every rank."""
    by_name = {t.name: t for t in tables}
    plan = ShardingPlan(world_size=WORLD)

    def rows(name, placed):
        t = by_name[name]
        return TableShardingPlan(t, ShardingScheme.ROW_WISE, [
            Shard(name, rank, interval, (0, DIM))
            for rank, interval in placed])

    plan.tables["rw_a"] = rows("rw_a", [(2, (0, 5)), (0, (5, 20)),
                                        (3, (20, 21)), (1, (21, 37))])
    plan.tables["rw_b"] = rows("rw_b", [(3, (0, 10)), (1, (10, 11)),
                                        (2, (11, 23))])
    plan.tables["tw"] = TableShardingPlan(by_name["tw"], tw_scheme, [
        Shard("tw", 2, (0, 29), (0, DIM))])
    plan.tables["cw"] = TableShardingPlan(
        by_name["cw"], ShardingScheme.COLUMN_WISE, [
            Shard("cw", rank, (0, 31), interval)
            for rank, interval in ((3, (0, 2)), (0, (2, 3)), (1, (3, 4)))])
    plan.tables["dp"] = shard_table(by_name["dp"],
                                    ShardingScheme.DATA_PARALLEL,
                                    list(range(WORLD)))
    plan.validate()
    return plan


def hybrid_trainer(process_group_factory=None,
                   tw_scheme=ShardingScheme.TABLE_WISE) -> NeoTrainer:
    tables = tuple(EmbeddingTableConfig(name, rows, DIM, avg_pooling=3.0)
                   for name, rows in (("rw_a", 37), ("tw", 29), ("rw_b", 23),
                                      ("cw", 31), ("dp", 13)))
    config = DLRMConfig(dense_dim=3, bottom_mlp=(8, DIM), tables=tables,
                        top_mlp=(8,))
    return NeoTrainer(config, hybrid_plan(tables, tw_scheme),
                      ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
                      dense_optimizer=lambda params: nn.SGD(params, lr=0.1),
                      sparse_optimizer=SparseAdaGrad(lr=0.1), seed=3,
                      process_group_factory=process_group_factory)


def without_bag(batch: MiniBatch, bag: int) -> MiniBatch:
    """``batch`` with bag ``bag`` of every table emptied."""
    sparse = {}
    for name, (ids, offsets) in to_features(batch).items():
        lengths = np.diff(offsets)
        lengths[bag] = 0
        keep = np.ones(len(ids), dtype=bool)
        keep[offsets[bag]:offsets[bag + 1]] = False
        sparse[name] = (ids[keep], np.concatenate([[0], np.cumsum(lengths)]))
    return from_features(batch.dense, sparse, batch.labels)


def with_features(batch: MiniBatch, edit) -> MiniBatch:
    """``batch`` rebuilt from its features after ``edit`` changed them
    in place."""
    features = to_features(batch)
    edit(features)
    return from_features(batch.dense, features, batch.labels)


def hybrid_batches(trainer: NeoTrainer, step: int):
    dataset = SyntheticCTRDataset(trainer.config.tables, dense_dim=3, seed=5)
    shards = dataset.batch(WORLD * LOCAL_BATCH, step).split(WORLD)
    return [without_bag(b, r % LOCAL_BATCH) for r, b in enumerate(shards)]


def recorded_run():
    trainer = hybrid_trainer(RecordingProcessGroup)
    for step in range(3):
        trainer.train_step(hybrid_batches(trainer, step))
    return trainer


class TestPinnedExchange:
    def test_collective_record_matches_the_per_table_exchange(self):
        trainer = recorded_run()
        record = trainer.pg.record
        # 3 steps x (forward: 2 rw x 3 + tw 3 + cw 2 + 3; backward:
        # 2 rw + tw + 3 cw + dp; one dense bucket)
        assert len(record) == 3 * (6 + 3 + 5 + 2 + 1 + 3 + 1 + 1)
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert digest == PINNED_EXCHANGE

    def test_table_wise_is_one_full_width_column_wise_shard(self):
        """Three steps with ``tw`` planned table-wise and as one
        full-width column-wise shard on the same rank: the same
        collectives, losses and tables."""
        runs = []
        for scheme in (ShardingScheme.TABLE_WISE, ShardingScheme.COLUMN_WISE):
            trainer = hybrid_trainer(RecordingProcessGroup, scheme)
            assert trainer.plan.scheme_of("tw") == scheme
            runs.append((trainer, [
                trainer.train_step(hybrid_batches(trainer, step))
                for step in range(3)]))
        (tw, tw_losses), (cw, cw_losses) = runs
        assert tw.pg.record == cw.pg.record
        assert tw_losses == cw_losses
        for t in tw.config.tables:
            np.testing.assert_array_equal(tw.gather_table(t.name),
                                          cw.gather_table(t.name))

    def test_every_rank_ships_an_empty_bag(self):
        trainer = hybrid_trainer()
        for r, batch in enumerate(hybrid_batches(trainer, 0)):
            assert not batch.lengths[:, r % LOCAL_BATCH].any()


@st.composite
def row_wise_case(draw):
    """Row-wise tables of 1..12 rows cut into 1..W shards at random
    points and placed on random ranks, with bags of 0..4 ids drawn to
    favour shard boundaries."""
    world = draw(st.integers(min_value=1, max_value=WORLD))
    batch = draw(st.integers(min_value=1, max_value=4))
    tables, placements = [], []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        rows = draw(st.integers(min_value=1, max_value=12))
        cuts = sorted(draw(st.sets(st.integers(min_value=1,
                                               max_value=max(rows - 1, 1)),
                                   max_size=min(world, rows) - 1))) \
            if rows > 1 else []
        edges = [0] + cuts + [rows]
        ranks = draw(st.permutations(range(world)))[:len(edges) - 1]
        tables.append(EmbeddingTableConfig(f"t{i}", rows, DIM))
        placements.append(list(zip(ranks, zip(edges[:-1], edges[1:]))))
    boundary_ids = {t.name: sorted({e for _, (a, b) in placed
                                    for e in (a, b - 1)})
                    for t, placed in zip(tables, placements)}
    local = []
    for _ in range(world):
        sparse = {}
        for t in tables:
            bags = draw(st.lists(
                st.lists(st.one_of(
                    st.sampled_from(boundary_ids[t.name]),
                    st.integers(min_value=0,
                                max_value=t.num_embeddings - 1)),
                    max_size=4),
                min_size=batch, max_size=batch))
            ids = np.array([i for bag in bags for i in bag], dtype=np.int64)
            offsets = np.concatenate(
                [[0], np.cumsum([len(bag) for bag in bags])]).astype(np.int64)
            sparse[t.name] = (ids, offsets)
        local.append(sparse)
    return world, batch, tables, placements, local


def row_wise_exchange(world, tables, placements) -> SparseExchange:
    plan = ShardingPlan(world_size=world)
    for t, placed in zip(tables, placements):
        plan.tables[t.name] = TableShardingPlan(
            t, ShardingScheme.ROW_WISE,
            [Shard(t.name, rank, interval, (0, DIM))
             for rank, interval in placed])
    config = DLRMConfig(dense_dim=2, bottom_mlp=(DIM,), tables=tuple(tables),
                        top_mlp=(4,))
    metrics = MetricRegistry()
    pg = SimProcessGroup(ClusterTopology(num_nodes=1, gpus_per_node=world),
                         registry=metrics)
    return SparseExchange(config, plan, np.random.default_rng(0), pg,
                          SparseAdaGrad(lr=0.1), NULL_TRACER, metrics)


class TestRowWisePayloads:
    @given(row_wise_case())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_one_pass_equals_per_table_source_oracle(self, case):
        world, batch, tables, placements, local = case
        exchange = row_wise_exchange(world, tables, placements)
        inputs = {t.name: [local[r][t.name] for r in range(world)]
                  for t in tables}
        lengths = np.array([[np.diff(offsets) for _, offsets in inputs[t.name]]
                            for t in tables], dtype=np.int64).reshape(
                                len(tables), world, batch)
        got = exchange._row_wise_payloads(inputs, lengths)
        want = looped_row_wise_payloads(exchange, inputs)
        assert list(got) == list(want)
        for name, (shards, ids, lengths) in got.items():
            want_shards, want_ids, want_lengths = want[name]
            assert shards == want_shards
            for got_rows, want_rows in ((to_slices(*ids), want_ids),
                                        (to_slices(*lengths), want_lengths)):
                for src in range(world):
                    for dst in range(world):
                        g, w = got_rows[src][dst], want_rows[src][dst]
                        assert g.dtype == w.dtype == np.int64
                        np.testing.assert_array_equal(g, w)

    def test_rank_without_a_shard_receives_no_rows(self):
        trainer = hybrid_trainer()
        exchange = trainer.exchange
        batches = hybrid_batches(trainer, 0)
        inputs = {t.name: [b.feature(t.name) for b in batches]
                  for t in trainer.config.tables}
        payloads = exchange._row_wise_payloads(
            inputs, np.stack([b.lengths for b in batches], axis=1))
        _, ids, lengths = payloads["rw_b"]   # no shard on rank 0
        for send, splits in (ids, lengths):
            assert splits.shape == (WORLD, WORLD)
            assert not splits[:, 0].any()
            assert int(splits.sum()) == len(send)
        # every owner receives every source's bag lengths
        np.testing.assert_array_equal(lengths[1][:, 1:], LOCAL_BATCH)


class TestBoundaries:
    @pytest.mark.parametrize("table, bad", [("rw_a", 37), ("rw_b", -1),
                                            ("rw_b", 23), ("rw_a", -1)])
    def test_id_outside_its_table_raises(self, table, bad):
        """37 is past rw_a but inside rw_b's part of the combined id
        space; -1 in rw_b would land in rw_a's last shard."""
        trainer = hybrid_trainer()
        batches = hybrid_batches(trainer, 0)
        batches[1] = with_features(
            batches[1], lambda features: features[table][0].put(0, bad))
        with pytest.raises(IndexError):
            trainer.train_step(batches)

    def test_row_wise_shards_must_tile_the_table(self):
        tables = (EmbeddingTableConfig("t0", 10, DIM),)
        plan = ShardingPlan(world_size=2)
        plan.tables["t0"] = TableShardingPlan(
            tables[0], ShardingScheme.ROW_WISE,
            [Shard("t0", 0, (0, 4), (0, DIM)),
             Shard("t0", 1, (5, 10), (0, DIM))])
        config = DLRMConfig(dense_dim=2, bottom_mlp=(DIM,), tables=tables,
                            top_mlp=(4,))
        with pytest.raises(ValueError, match="tile rows"):
            NeoTrainer(config, plan,
                       ClusterTopology(num_nodes=1, gpus_per_node=2),
                       dense_optimizer=lambda params: nn.SGD(params, lr=0.1),
                       sparse_optimizer=SparseAdaGrad(lr=0.1))

    @pytest.mark.parametrize("scheme, ranks, match", [
        (ShardingScheme.TABLE_WISE, [7], "rank 7 outside world size 4"),
        (ShardingScheme.DATA_PARALLEL, [0, 1],
         r"data-parallel table t0 needs one replica on every rank in "
         r"\[0, 4\), got ranks \[0, 1\]")],
        ids=["table_wise_on_rank_7", "data_parallel_on_2_of_4"])
    def test_plan_off_the_world_raises_before_any_collective(
            self, scheme, ranks, match):
        """A shard outside the world, or a data-parallel table missing
        from some rank, is refused when the trainer is built."""
        tables = (EmbeddingTableConfig("t0", 10, DIM),)
        plan = ShardingPlan(world_size=WORLD)
        plan.tables["t0"] = shard_table(tables[0], scheme, ranks)
        config = DLRMConfig(dense_dim=2, bottom_mlp=(DIM,), tables=tables,
                            top_mlp=(4,))
        groups = []

        def recording(*args, **kwargs):
            groups.append(RecordingProcessGroup(*args, **kwargs))
            return groups[-1]

        with pytest.raises(ValueError, match=match):
            NeoTrainer(config, plan,
                       ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
                       dense_optimizer=lambda params: nn.SGD(params, lr=0.1),
                       sparse_optimizer=SparseAdaGrad(lr=0.1),
                       process_group_factory=recording)
        assert groups[0].record == []

    @pytest.mark.parametrize("forward", ["train_step", "eval_forward"])
    @pytest.mark.parametrize("table", ["rw_b", "dp"])
    def test_missing_feature_raises_before_any_collective(self, forward,
                                                          table):
        trainer = hybrid_trainer()
        batches = hybrid_batches(trainer, 0)
        batches[2] = with_features(batches[2],
                                   lambda features: features.pop(table))
        with pytest.raises(ValueError,
                           match=f"rank 2.* table {table}$"):
            getattr(trainer, forward)(batches)
        assert trainer.pg.log.calls == {}

    @pytest.mark.parametrize("edit, error, match", [
        # rank 2's last bag is its empty one: a short end makes it
        # negative
        ("short_end", ValueError, "non-negative"),
        ("late_start", ValueError, "lengths sum to"),
        ("end_in_next_rank", ValueError, "non-negative"),
        ("decreasing", ValueError, "non-negative"),
        ("id_past_table", IndexError, "out of range"),
        ("short_batch", ValueError, "local batch")])
    def test_data_parallel_bags_are_checked_per_rank(self, edit, error,
                                                     match):
        """One rank's malformed bags are refused instead of shifting
        into its neighbour's: bags that do not hold exactly the rank's
        ids when its batch is built, an id past the table by the one
        lookup of every rank's bags, and a local batch of another size
        before any collective."""
        trainer = hybrid_trainer()
        batches = hybrid_batches(trainer, 0)
        features = to_features(batches[2])
        ids, offsets = features["dp"]
        if edit == "short_end":
            offsets[-1] -= 1
        elif edit == "end_in_next_rank":
            # the global batch still adds up: only a per-rank check sees
            # rank 3's bags start one id early
            offsets[-1] -= 1
            next_features = to_features(batches[3])
            next_features["dp"][1][-1] += 1
        elif edit == "late_start":
            offsets[0] = 1
        elif edit == "decreasing":
            offsets[1], offsets[2] = offsets[2] + 1, offsets[1]
        elif edit == "id_past_table":
            ids[-1] = 13
        with pytest.raises(error, match=match):
            if edit == "short_batch":
                batches[2] = batches[2].slice(0, LOCAL_BATCH - 1)
            else:
                batches[2] = from_features(batches[2].dense, features,
                                           batches[2].labels)
            if edit == "end_in_next_rank":
                batches[3] = from_features(batches[3].dense, next_features,
                                           batches[3].labels)
            trainer.train_step(batches)
        assert trainer.pg.log.calls == {} or edit == "id_past_table"

    def test_offsets_of_the_wrong_batch_size_raise(self):
        """A feature cannot hold another sample count than its batch:
        its bags are a row of the one ``(F, B)`` lengths matrix, and a
        matrix of another width is refused when the batch is built."""
        batch = hybrid_batches(hybrid_trainer(), 0)[2]
        with pytest.raises(ValueError, match=f"{LOCAL_BATCH} samples"):
            MiniBatch(dense=batch.dense, keys=batch.keys,
                      lengths=batch.lengths[:, :-1], ids=batch.ids,
                      labels=batch.labels)


def _feed(log: CommsLog) -> None:
    for name, wire, seconds in (("all_reduce", 64, 1e-6),
                                ("all_to_all/index", 24, 2e-6),
                                ("all_reduce", 32, 5e-7)):
        log.record(name, wire, seconds)


def _values(log: CommsLog):
    return (log.calls, log.wire_bytes, log.modeled_seconds,
            log.total_bytes, log.total_seconds)


class TestCommsLogCounters:
    def fresh(self):
        log = CommsLog()
        _feed(log)
        return _values(log)

    def test_reset_log_then_record_equals_a_fresh_log(self):
        registry = MetricRegistry()
        log = CommsLog(registry.scope("comms"))
        _feed(log)
        log.reset()
        _feed(log)
        assert _values(log) == self.fresh()

    @pytest.mark.parametrize("prefix", [None, "comms."])
    def test_registry_reset_then_record_equals_a_fresh_log(self, prefix):
        registry = MetricRegistry()
        log = CommsLog(registry.scope("comms"))
        _feed(log)
        registry.reset(prefix)
        _feed(log)
        assert _values(log) == self.fresh()
        # the log increments the registry's current counters, not the
        # ones the reset dropped
        assert registry.counter("comms.calls",
                                collective="all_reduce").value == 2

    def test_process_group_reset_log(self):
        trainer = hybrid_trainer()
        batches = hybrid_batches(trainer, 0)
        trainer.train_step(batches)
        first = _values(trainer.pg.log)
        trainer.pg.reset_log()
        assert trainer.pg.log.calls == {}
        trainer.train_step(hybrid_batches(trainer, 1))
        assert trainer.pg.log.calls == first[0]
