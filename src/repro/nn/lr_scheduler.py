"""Learning-rate schedules for large-batch DLRM training.

Section 5.3.2 scales the global batch from 64K to 256K "with
appropriately tuned optimizer/hyper-parameters". The standard toolkit:

* **linear scaling rule** — LR proportional to batch size;
* **warmup** — ramp from a small LR to the target over the first steps
  (large-batch training diverges without it), then linear decay.

Schedulers wrap any :class:`repro.nn.Optimizer` (or sparse optimizer —
anything with an ``lr`` attribute) and mutate its ``lr`` per step.
"""

from __future__ import annotations

from .. import check

__all__ = ["linear_scaled_lr", "LRScheduler", "WarmupLinearDecay"]


def linear_scaled_lr(base_lr: float, batch_size: int,
                     base_batch_size: int) -> float:
    """The linear scaling rule: lr = base_lr * batch / base_batch."""
    check.positive("base_lr", base_lr)
    check.count("batch_size", batch_size)
    check.count("base_batch_size", base_batch_size)
    return base_lr * batch_size / base_batch_size


class LRScheduler:
    """Base: owns the target LR and the step counter."""

    def __init__(self, optimizer, base_lr: float) -> None:
        check.positive("base_lr", base_lr)
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.step_count = 0
        self.optimizer.lr = self.lr_at(0)

    def lr_at(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one step; returns the LR now set on the optimizer."""
        self.step_count += 1
        lr = self.lr_at(self.step_count)
        self.optimizer.lr = lr
        return lr

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class WarmupLinearDecay(LRScheduler):
    """Linear warmup from ``warmup_init`` to ``base_lr``, then linear
    decay to ``final_lr`` by ``total_steps``."""

    def __init__(self, optimizer, base_lr: float, warmup_steps: int,
                 total_steps: int, warmup_init: float = 0.0,
                 final_lr: float = 0.0) -> None:
        check.count("warmup_steps", warmup_steps, low=0)
        check.count("total_steps", total_steps, low=warmup_steps + 1)
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.warmup_init = warmup_init
        self.final_lr = final_lr
        super().__init__(optimizer, base_lr)

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            frac = step / max(self.warmup_steps, 1)
            return self.warmup_init + frac * (self.base_lr
                                              - self.warmup_init)
        frac = min(1.0, (step - self.warmup_steps)
                   / (self.total_steps - self.warmup_steps))
        return self.base_lr + frac * (self.final_lr - self.base_lr)
