"""Tests for online-training cluster sizing with hierarchical memory."""

import pytest

from repro.models import full_spec
from repro.perf import ZIONEX_PLATFORM, min_nodes_for, model_footprint

hierarchy_bw_fraction = ZIONEX_PLATFORM.hierarchy_bw_fraction


class TestHierarchyBwFraction:
    def test_all_hbm_is_one(self):
        assert hierarchy_bw_fraction(1.0) == pytest.approx(1.0)

    def test_monotone_in_residency(self):
        fracs = [hierarchy_bw_fraction(f) for f in (0.1, 0.5, 0.9, 1.0)]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))

    def test_cache_softens_the_cliff(self):
        """A better cache hit rate recovers bandwidth at low residency."""
        cold = hierarchy_bw_fraction(0.2, cache_hit_boost=0.0)
        warm = hierarchy_bw_fraction(0.2, cache_hit_boost=0.9)
        assert warm > 3 * cold

    def test_validation(self):
        with pytest.raises(ValueError):
            hierarchy_bw_fraction(1.5)
        with pytest.raises(ValueError):
            hierarchy_bw_fraction(0.5, cache_hit_boost=1.0)


class TestSizing:
    def test_f1_needs_many_nodes_for_capacity(self):
        """F1 (24 TB in fp16+rowwise) cannot fit on 8 nodes but fits on
        16 — the capacity wall is independent of throughput."""
        result = min_nodes_for(full_spec("F1"), target_qps=1e3)
        assert result is not None and result.fits
        assert 8 < result.nodes <= 16

    def test_a1_fits_one_node(self):
        """A1 in fp16 (~190 GB) fits a single node's HBM+DRAM — the
        online-training scenario of Section 1."""
        result = min_nodes_for(full_spec("A1"), target_qps=1e3)
        assert result is not None and result.nodes == 1
        assert result.fits
        assert result.achieved_qps > 0

    def test_min_nodes_monotone_in_target(self):
        """A higher throughput target never needs fewer nodes."""
        spec = full_spec("A1")
        low = min_nodes_for(spec, target_qps=50e3)
        high = min_nodes_for(spec, target_qps=800e3)
        assert low is not None and high is not None
        assert high.nodes >= low.nodes

    def test_min_nodes_result_is_minimal(self):
        spec = full_spec("A1")
        result = min_nodes_for(spec, target_qps=500e3)
        assert result is not None and result.meets_target
        if result.nodes > 1:
            assert min_nodes_for(spec, target_qps=500e3,
                                 max_nodes=result.nodes - 1) is None

    def test_unreachable_target_returns_none(self):
        assert min_nodes_for(full_spec("A1"), target_qps=1e12,
                             max_nodes=2) is None

    def test_hbm_fraction_grows_with_nodes(self):
        model_bytes = model_footprint(full_spec("F1"), "fp16",
                                      "rowwise_adagrad").total_bytes
        fracs = [ZIONEX_PLATFORM.hbm_fraction(model_bytes, n)
                 for n in (16, 32, 64)]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            min_nodes_for(full_spec("A1"), target_qps=0)
