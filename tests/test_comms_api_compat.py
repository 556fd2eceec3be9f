"""API-stability tests for the comms surface.

The removed forms must stay removed: string AlltoAll dispatch raises,
the smashed-together perf-model names are gone from the module and its
``__all__``, and a collective's result is one array, not a sequence of
per-rank outputs. Plus golden wire-byte values proving the nbytes
billing fix: fp16 payloads are billed at 2 bytes/element, never a
hard-coded 4.
"""

from collections.abc import Sequence


import numpy as np
import pytest

from repro.comms import (AlltoAllKind, ClusterTopology, CollectiveResult,
                         SimProcessGroup, perf_model)

WORLD = 4
TOPO = ClusterTopology(num_nodes=1, gpus_per_node=WORLD)


def _alltoall_payload(dtype=np.float32):
    """Three rows from every rank to every rank: a send buffer and its
    split matrix."""
    send = np.repeat(np.arange(WORLD * WORLD), 3).astype(dtype)
    return send, np.full((WORLD, WORLD), 3)


class TestRemovedAlltoAllForms:
    """The pre-v2 string dispatch was removed after its deprecation
    window: ``direction=`` is no longer a parameter and string kinds
    raise instead of warning."""

    def test_direction_keyword_removed(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(TypeError):
            pg.all_to_all(*_alltoall_payload(),
                          direction="forward_alltoall")

    def test_string_kind_removed(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(ValueError, match="removed after its"):
            pg.all_to_all(*_alltoall_payload(), "backward_alltoall")

    def test_every_enum_kind_still_dispatches(self):
        for kind in AlltoAllKind:
            pg = SimProcessGroup(TOPO)
            payload = _alltoall_payload(
                np.int64 if kind is AlltoAllKind.INDEX else np.float32)
            result = pg.all_to_all(*payload, kind=kind)
            assert result.collective == f"all_to_all/{kind.value}"

    def test_unknown_string_rejected(self):
        pg = SimProcessGroup(TOPO)
        with pytest.raises(ValueError):
            pg.all_to_all(*_alltoall_payload(), "sideways")


class TestRemovedPerfModelNames:
    """The pre-v2 perf-model names were removed after their deprecation
    window: only the v2 names remain, in the module and in ``__all__``."""

    OLD_TO_NEW = [
        ("alltoall_time", "all_to_all_time"),
        ("allreduce_time", "all_reduce_time"),
        ("allgather_time", "all_gather_time"),
        ("achieved_alltoall_bw", "achieved_all_to_all_bw"),
        ("achieved_allreduce_bw", "achieved_all_reduce_bw"),
    ]

    @pytest.mark.parametrize("old_name,new_name", OLD_TO_NEW)
    def test_alias_removed(self, old_name, new_name):
        assert not hasattr(perf_model, old_name)
        assert callable(getattr(perf_model, new_name))

    def test_aliases_not_exported(self):
        for old_name, new_name in self.OLD_TO_NEW:
            assert old_name not in perf_model.__all__
            assert new_name in perf_model.__all__


class TestGoldenFp16WireBytes:
    """nbytes billing: fp16 payloads cost exactly half of fp32 — the
    hard-coded 4-bytes/element bug these collectives used to have."""

    def test_reduce_scatter_fp16(self):
        pg = SimProcessGroup(TOPO)
        result = pg.reduce_scatter(np.ones((WORLD, WORLD * 3),
                                           dtype=np.float16))
        # per-GPU contribution: 4 chunks x 3 elements x 2 bytes = 24
        assert result.wire_bytes == 24 * WORLD
        assert pg.log.wire_bytes["reduce_scatter"] == 96
        assert result.modeled_seconds == pytest.approx(
            perf_model.reduce_scatter_time(24, TOPO))

    def test_all_gather_fp16(self):
        pg = SimProcessGroup(TOPO)
        result = pg.all_gather(np.ones((WORLD, 5), dtype=np.float16))
        assert result.wire_bytes == 5 * 2 * WORLD
        assert result.modeled_seconds == pytest.approx(
            perf_model.all_gather_time(10, TOPO))

    def test_fp32_costs_double_fp16(self):
        for dtype, factor in ((np.float16, 1), (np.float32, 2)):
            pg = SimProcessGroup(TOPO)
            pg.all_gather(np.ones((WORLD, 8), dtype=dtype))
            assert pg.log.wire_bytes["all_gather"] == 8 * 2 * factor * WORLD


class TestBroadcastPerfModel:
    """Broadcast has its own perf-model entry — no longer billed as an
    AllGather."""

    def test_broadcast_time_differs_from_all_gather_time(self):
        topo = ClusterTopology(num_nodes=4, gpus_per_node=8)
        payload = 2 ** 24
        bcast = perf_model.broadcast_time(payload, topo)
        agather = perf_model.all_gather_time(payload, topo)
        assert bcast > 0
        # broadcast ships the full payload across the scale-out ring;
        # all_gather only moves per-GPU chunks between nodes
        assert bcast != agather

    def test_single_gpu_broadcast_is_free(self):
        topo = ClusterTopology(num_nodes=1, gpus_per_node=1)
        assert perf_model.broadcast_time(2 ** 20, topo) == 0.0


class TestCollectiveResult:
    def test_fields_and_sequence_protocol(self):
        """The result carries the one result array and its accounting;
        the per-rank sequence shim is gone."""
        pg = SimProcessGroup(TOPO)
        result = pg.all_reduce(np.arange(WORLD, dtype=np.float32)[:, None]
                               * np.ones((WORLD, 4), dtype=np.float32))
        assert isinstance(result, CollectiveResult)
        assert result.collective == "all_reduce"
        assert isinstance(result.wire_bytes, int)
        assert result.wire_bytes == 4 * 4 * WORLD
        assert result.modeled_seconds > 0
        expected = np.full((WORLD, 4), sum(range(WORLD)), dtype=np.float32)
        np.testing.assert_array_equal(result.output, expected)
        assert not isinstance(result, Sequence)
        with pytest.raises(TypeError):
            len(result)
        with pytest.raises(TypeError):
            result[0]

    def test_all_collectives_return_collective_result(self):
        pg = SimProcessGroup(TOPO)
        ones = np.ones((WORLD, 4), dtype=np.float32)
        for result in (pg.all_reduce(ones),
                       pg.all_to_all(*_alltoall_payload(),
                                     kind=AlltoAllKind.FORWARD),
                       pg.reduce_scatter(ones),
                       pg.all_gather(ones)):
            assert isinstance(result, CollectiveResult)
            assert isinstance(result.output, np.ndarray)
        assert not hasattr(pg, "broadcast")


class TestExplicitExports:
    def test_comms_all_is_importable(self):
        import repro.comms as comms
        for name in comms.__all__:
            assert hasattr(comms, name), name
        for name in ("AlltoAllKind", "CollectiveResult", "SimProcessGroup",
                     "CommsLog"):
            assert name in comms.__all__

    def test_process_group_module_all(self):
        from repro.comms import process_group
        assert set(process_group.__all__) == {
            "AlltoAllKind", "CollectiveResult", "CommsLog",
            "SimProcessGroup"}
