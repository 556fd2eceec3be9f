"""Tests for the comms latency model, topology, and process group facade."""

import numpy as np
import pytest

from repro.comms import (PROTOTYPE_TOPOLOGY, ZION_TOPOLOGY, AlltoAllKind,
                         ClusterTopology, QuantizedCommsConfig,
                         SimProcessGroup)
from repro.comms import perf_model as pm


class TestTopology:
    def test_world_size(self):
        topo = PROTOTYPE_TOPOLOGY(num_nodes=16)
        assert topo.world_size == 128

    def test_achievable_scaleout(self):
        """Paper: 12.5 GB/s peak, 10.5 GB/s achievable on V100 RoCE."""
        topo = PROTOTYPE_TOPOLOGY()
        assert topo.achievable_scaleout_bw == pytest.approx(10.5e9, rel=0.01)

    def test_zion_is_worse(self):
        """Zion's host-mediated TCP networking underperforms ZionEX RDMA."""
        zion = ZION_TOPOLOGY()
        zionex = PROTOTYPE_TOPOLOGY()
        assert zion.achievable_scaleout_bw < zionex.achievable_scaleout_bw / 2
        assert not zion.rdma and zionex.rdma

    def test_invalid(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_nodes=0)


class TestAlltoallModel:
    def test_paper_calibration_7gbps(self):
        """Fig 20 / Sec 5.1: 256 MB AlltoAll at 128 GPUs -> ~7 GB/s."""
        topo = PROTOTYPE_TOPOLOGY(num_nodes=16)
        bw = pm.achieved_all_to_all_bw(256e6, topo)
        assert bw == pytest.approx(7e9, rel=0.15)

    def test_bandwidth_rises_with_message_size(self):
        """Small messages are alpha-bound: the Fig 20 curve shape."""
        topo = PROTOTYPE_TOPOLOGY(num_nodes=16)
        sizes = [2 ** k for k in range(10, 28, 2)]
        bws = [pm.achieved_all_to_all_bw(s, topo) for s in sizes]
        assert all(b1 <= b2 * 1.001 for b1, b2 in zip(bws, bws[1:]))
        assert bws[0] < bws[-1] / 100

    def test_single_node_uses_nvlink(self):
        """Intra-node AlltoAll is NVLink-speed, far faster than RoCE."""
        one = ClusterTopology(num_nodes=1)
        sixteen = PROTOTYPE_TOPOLOGY(num_nodes=16)
        assert pm.all_to_all_time(64e6, one) < pm.all_to_all_time(64e6, sixteen) / 5

    def test_single_gpu_is_free(self):
        topo = ClusterTopology(num_nodes=1, gpus_per_node=1)
        assert pm.all_to_all_time(1e6, topo) == 0.0

    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            pm.all_to_all_time(-1, PROTOTYPE_TOPOLOGY())


class TestAllreduceModel:
    def test_paper_calibration_60gbps(self):
        """Sec 5.1: 256 MB AllReduce at 128 GPUs -> ~60 GB/s bus bandwidth."""
        topo = PROTOTYPE_TOPOLOGY(num_nodes=16)
        bw = pm.achieved_all_reduce_bw(256e6, topo)
        assert bw == pytest.approx(60e9, rel=0.15)

    def test_allreduce_faster_than_alltoall(self):
        """AllReduce rides NVLink for intra-node phases (Sec 5.1)."""
        topo = PROTOTYPE_TOPOLOGY(num_nodes=16)
        ar = pm.achieved_all_reduce_bw(256e6, topo)
        a2a = pm.achieved_all_to_all_bw(256e6, topo)
        assert ar > 5 * a2a

    def test_scaling_with_nodes(self):
        """More nodes -> longer AllReduce for the same buffer."""
        t2 = pm.all_reduce_time(64e6, PROTOTYPE_TOPOLOGY(num_nodes=2))
        t16 = pm.all_reduce_time(64e6, PROTOTYPE_TOPOLOGY(num_nodes=16))
        assert t16 > t2

    def test_reduce_scatter_half_of_allreduce(self):
        topo = PROTOTYPE_TOPOLOGY(num_nodes=4)
        rs = pm.reduce_scatter_time(128e6, topo)
        ar = pm.all_reduce_time(128e6, topo)
        assert rs == pytest.approx(ar / 2, rel=0.05)

    def test_zion_much_slower(self):
        """The Sec 3.1 scaling argument: Zion networking bottlenecks."""
        t_zionex = pm.all_reduce_time(256e6, PROTOTYPE_TOPOLOGY(num_nodes=16))
        t_zion = pm.all_reduce_time(256e6, ZION_TOPOLOGY(num_nodes=16))
        assert t_zion > 2 * t_zionex


class TestSimProcessGroup:
    def make_pg(self, nodes=1, gpus=4, config=None):
        topo = ClusterTopology(num_nodes=nodes, gpus_per_node=gpus)
        return SimProcessGroup(topo, comms_config=config)

    def test_all_reduce_records_log(self):
        pg = self.make_pg()
        out = pg.all_reduce(np.ones((4, 8), dtype=np.float32))
        np.testing.assert_array_equal(out.output[0], np.full(8, 4.0))
        assert pg.log.calls["all_reduce"] == 1
        assert pg.log.wire_bytes["all_reduce"] == 8 * 4 * 4
        assert pg.log.total_seconds > 0

    def test_wrong_world_size_raises(self):
        pg = self.make_pg()
        with pytest.raises(ValueError):
            pg.all_reduce(np.ones((3, 2)))

    def test_quantized_alltoall_halves_wire_bytes(self):
        cfg = QuantizedCommsConfig.paper_recipe()
        pg_fp32 = self.make_pg()
        pg_q = self.make_pg(config=cfg)
        send = np.ones((16 * 16, 1), dtype=np.float32)
        splits = np.full((4, 4), 16)
        pg_fp32.all_to_all(send, splits, kind=AlltoAllKind.FORWARD)
        pg_q.all_to_all(send, splits, kind=AlltoAllKind.FORWARD)
        key = "all_to_all/forward_alltoall"
        assert pg_q.log.wire_bytes[key] == pg_fp32.log.wire_bytes[key] // 2
        assert pg_q.log.modeled_seconds[key] <= \
            pg_fp32.log.modeled_seconds[key]

    def test_quantized_alltoall_rounds_payload(self):
        cfg = QuantizedCommsConfig.paper_recipe()
        pg = self.make_pg(config=cfg)
        value = 1.0 + 2 ** -12  # not representable in fp16
        out = pg.all_to_all(np.full(16, value, dtype=np.float32),
                            np.ones((4, 4), dtype=np.int64),
                            kind=AlltoAllKind.FORWARD)
        assert out.output[0] == np.float32(1.0)

    def test_index_alltoall_not_quantized(self):
        cfg = QuantizedCommsConfig.paper_recipe()
        pg = self.make_pg(config=cfg)
        out = pg.all_to_all(np.full(16, 123456789, dtype=np.int64),
                            np.ones((4, 4), dtype=np.int64),
                            kind=AlltoAllKind.INDEX)
        assert out.output[0] == 123456789

    def test_unknown_kind_raises(self):
        pg = self.make_pg()
        with pytest.raises(ValueError):
            pg.all_to_all(np.zeros(16), np.ones((4, 4), dtype=np.int64),
                          "sideways")

    def test_reduce_scatter_and_gather(self):
        pg = self.make_pg()
        stack = np.repeat(np.arange(4, dtype=np.float32), 4 * 2).reshape(4, 8)
        rs = pg.reduce_scatter(stack).output
        np.testing.assert_array_equal(rs[0], np.full(2, 0 + 1 + 2 + 3))
        ag = pg.all_gather(rs).output
        assert ag.shape == (4, 2)

    def test_reset_log(self):
        pg = self.make_pg()
        pg.all_reduce(np.ones((4, 2), dtype=np.float32))
        pg.reset_log()
        assert pg.log.total_bytes == 0


class TestQuantizedCommsConfig:
    def test_paper_recipe(self):
        cfg = QuantizedCommsConfig.paper_recipe()
        assert cfg.forward_alltoall == "fp16"
        assert cfg.backward_alltoall == "bf16"
        assert cfg.allreduce == "fp32"

    def test_volume_factor(self):
        cfg = QuantizedCommsConfig.paper_recipe()
        assert cfg.volume_factor("forward_alltoall") == 0.5
        assert cfg.volume_factor("allreduce") == 1.0

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            QuantizedCommsConfig(forward_alltoall="fp8")
