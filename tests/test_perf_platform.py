"""Tests for the shared platform spec (Table 2 memory hierarchy).

The spec is the single source of truth for per-node HBM/DRAM capacity
and bandwidth, consumed by both training capacity sizing
(:mod:`repro.perf.online`) and serving placement
(:mod:`repro.serving.server`) — these tests pin the Table 2 numbers and
the hierarchy arithmetic both sides rely on.
"""

import pytest

from repro.perf import PlatformSpec, ZIONEX_PLATFORM


class TestZionexNumbers:
    def test_table2_capacities(self):
        assert ZIONEX_PLATFORM.hbm_per_node_bytes == pytest.approx(256e9)
        assert ZIONEX_PLATFORM.dram_per_node_bytes == pytest.approx(1.5e12)
        assert ZIONEX_PLATFORM.gpus_per_node == 8
        assert ZIONEX_PLATFORM.node_memory_bytes == pytest.approx(
            256e9 + 1.5e12)

    def test_bandwidths(self):
        assert ZIONEX_PLATFORM.hbm_bw_per_node == pytest.approx(850e9 * 8)
        assert ZIONEX_PLATFORM.dram_link_bw_per_node == pytest.approx(
            12e9 * 8)


class TestCapacityArithmetic:
    def test_fits(self):
        assert ZIONEX_PLATFORM.fits(100e9, nodes=1)
        assert ZIONEX_PLATFORM.fits(1.7e12, nodes=1)
        assert not ZIONEX_PLATFORM.fits(2e12, nodes=1)
        assert ZIONEX_PLATFORM.fits(2e12, nodes=2)

    def test_hbm_fraction_clamps(self):
        assert ZIONEX_PLATFORM.hbm_fraction(100e9, nodes=1) == 1.0
        assert ZIONEX_PLATFORM.hbm_fraction(512e9, nodes=1) == \
            pytest.approx(0.5)
        assert ZIONEX_PLATFORM.hbm_fraction(512e9, nodes=2) == 1.0
        assert ZIONEX_PLATFORM.hbm_fraction(0.0, nodes=4) == 1.0

    def test_hierarchy_bw_all_hbm_is_unity(self):
        assert ZIONEX_PLATFORM.hierarchy_bw_fraction(1.0) == 1.0

    def test_hierarchy_bw_degrades_with_spill(self):
        full = ZIONEX_PLATFORM.hierarchy_bw_fraction(1.0)
        half = ZIONEX_PLATFORM.hierarchy_bw_fraction(0.5)
        none = ZIONEX_PLATFORM.hierarchy_bw_fraction(0.0)
        assert full > half > none > 0.0

    def test_cache_hit_boost_helps(self):
        cold = ZIONEX_PLATFORM.hierarchy_bw_fraction(0.5, cache_hit_boost=0.0)
        warm = ZIONEX_PLATFORM.hierarchy_bw_fraction(0.5, cache_hit_boost=0.9)
        assert warm > cold


class TestCustomSpec:
    def test_roundtrip_fields(self):
        spec = PlatformSpec(name="lab", hbm_per_node_bytes=64e9,
                            dram_per_node_bytes=512e9,
                            hbm_bw_per_node=400e9,
                            dram_link_bw_per_node=10e9, gpus_per_node=4)
        assert spec.name == "lab"
        assert spec.node_memory_bytes == pytest.approx(576e9)
        assert not spec.fits(600e9, nodes=1)
        assert spec.fits(600e9, nodes=2)
