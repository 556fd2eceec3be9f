"""Tests for learning-rate schedules (large-batch training support)."""

import numpy as np
import pytest

from repro import nn
from repro.embedding import SparseSGD
from repro.nn import WarmupLinearDecay, linear_scaled_lr


def make_opt(lr=0.1):
    return nn.SGD([nn.Parameter(np.zeros(2))], lr=lr)


class TestLinearScaling:
    def test_rule(self):
        """64K -> 256K batch quadruples the LR (Section 5.3.2 regime)."""
        assert linear_scaled_lr(0.01, 262144, 65536) == pytest.approx(0.04)

    def test_identity(self):
        assert linear_scaled_lr(0.01, 100, 100) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_scaled_lr(0.0, 1, 1)
        with pytest.raises(ValueError):
            linear_scaled_lr(0.1, 0, 1)


class TestWarmupLinearDecay:
    def test_starts_at_warmup_init(self):
        opt = make_opt()
        WarmupLinearDecay(opt, base_lr=1.0, warmup_steps=10,
                          total_steps=100, warmup_init=0.1)
        assert opt.lr == pytest.approx(0.1)

    def test_reaches_base_at_warmup_end(self):
        opt = make_opt()
        sched = WarmupLinearDecay(opt, base_lr=1.0, warmup_steps=10,
                                  total_steps=100)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(1.0)

    def test_decays_to_final(self):
        opt = make_opt()
        sched = WarmupLinearDecay(opt, base_lr=1.0, warmup_steps=5,
                                  total_steps=20, final_lr=0.2)
        for _ in range(25):
            sched.step()
        assert opt.lr == pytest.approx(0.2)

    def test_monotone_phases(self):
        opt = make_opt()
        sched = WarmupLinearDecay(opt, base_lr=1.0, warmup_steps=10,
                                  total_steps=50)
        lrs = [sched.step() for _ in range(50)]
        warm, decay = lrs[:10], lrs[10:]
        assert all(a <= b + 1e-9 for a, b in zip(warm, warm[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(decay, decay[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupLinearDecay(make_opt(), base_lr=1.0, warmup_steps=10,
                              total_steps=10)
        with pytest.raises(ValueError):
            WarmupLinearDecay(make_opt(), base_lr=0.0, warmup_steps=1,
                              total_steps=10)


class TestSchedulerWithSparseOptimizer:
    def test_drives_sparse_optimizer_lr(self):
        """Schedulers work on sparse optimizers too (shared lr attr)."""
        sparse = SparseSGD(lr=0.1)
        sched = WarmupLinearDecay(sparse, base_lr=0.5, warmup_steps=5,
                                  total_steps=10)
        for _ in range(5):
            sched.step()
        assert sparse.lr == pytest.approx(0.5)

    def test_warmup_damps_early_parameter_movement(self):
        """The mechanism warmup provides for large-batch stability: early
        steps move parameters much less than jumping straight to the
        scaled LR."""
        from repro.data import SyntheticCTRDataset
        from repro.embedding import EmbeddingTableConfig
        from repro.models import DLRM, DLRMConfig

        tables = (EmbeddingTableConfig("t0", 64, 8, avg_pooling=3.0),)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                            top_mlp=(8,))
        ds = SyntheticCTRDataset(tables, dense_dim=4, seed=2)
        big_lr = 2.0

        def movement(use_warmup):
            model = DLRM(config, seed=0)
            initial = [p.data.copy() for p in model.dense_parameters()]
            opt = nn.SGD(model.dense_parameters(), lr=big_lr)
            sched = WarmupLinearDecay(opt, base_lr=big_lr, warmup_steps=20,
                                      total_steps=40) if use_warmup else None
            sparse = SparseSGD(lr=0.1)
            for i in range(4):
                model.train_step(ds.batch(64, i), opt, sparse)
                if sched:
                    sched.step()
            return sum(float(np.linalg.norm(p.data - q))
                       for p, q in zip(model.dense_parameters(), initial))

        assert movement(True) < 0.5 * movement(False)
