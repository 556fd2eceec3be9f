"""Retry policy and rank-health tracking for collectives.

Production collective libraries wrap every operation in a timeout:
a lost message is retried with exponential backoff, and a rank that
keeps timing out is declared dead so the job can fail fast instead of
hanging (the ZionEX deployment leans on exactly this detect-and-restart
discipline). This module reproduces both pieces over the *modeled*
clock: :class:`RetryPolicy` is pure arithmetic (deterministic penalty
seconds per failed attempt), :class:`HealthTracker` folds per-rank
modeled latencies into an EWMA to flag stragglers and counts timeout
strikes until a rank crosses its death threshold.

Nothing here sleeps or spawns threads — the simulation stays
single-process and bitwise deterministic; only the latency accounting
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from .. import check

__all__ = ["RetryPolicy", "HealthTracker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + exponential-backoff schedule for one collective call.

    Attempt ``i`` (0-based) that fails costs ``timeout_seconds`` (the
    watchdog window that had to elapse) plus ``backoff(i)`` before the
    next attempt starts. After ``max_attempts`` consecutive failures the
    caller records a timeout *strike* against the offending rank and —
    in the simulation, where the fault schedule says when the link heals
    — starts a fresh attempt window.
    """

    timeout_seconds: float = 0.5
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        check.positive("timeout_seconds", self.timeout_seconds)
        check.nonnegative("backoff_seconds", self.backoff_seconds)
        check.nonnegative("backoff_multiplier", self.backoff_multiplier,
                          low=1)
        check.count("max_attempts", self.max_attempts)

    def backoff(self, attempt: int) -> float:
        """Backoff wait after failed attempt ``attempt`` (0-based)."""
        check.count("attempt", attempt, low=0)
        return self.backoff_seconds * self.backoff_multiplier ** attempt

    def penalty(self, failed_attempts: int) -> float:
        """Total modeled seconds lost to ``failed_attempts`` failures.

        Each failure burns one timeout window plus its backoff wait;
        the backoff exponent resets every ``max_attempts`` failures
        (a fresh retry window after a strike).
        """
        check.count("failed_attempts", failed_attempts, low=0)
        total = 0.0
        for i in range(failed_attempts):
            total += self.timeout_seconds + self.backoff(i % self.max_attempts)
        return total

    def strikes(self, failed_attempts: int) -> int:
        """How many exhausted retry windows ``failed_attempts`` implies."""
        return failed_attempts // self.max_attempts


class HealthTracker:
    """Per-rank health from modeled collective latencies.

    Keeps an exponential moving average of each rank's per-collective
    latency. A rank is a *straggler* when its EWMA exceeds
    ``straggler_factor`` times the median EWMA; a rank is *dead* after
    ``dead_after`` timeout strikes. Both judgments are deterministic
    functions of the observation stream.
    """

    def __init__(self, world_size: int, alpha: float = 0.2,
                 straggler_factor: float = 2.0, dead_after: int = 2) -> None:
        check.count("world_size", world_size)
        check.fraction("alpha", alpha, zero=False)
        check.positive("straggler_factor", straggler_factor, low=1)
        check.count("dead_after", dead_after)
        self.world_size = world_size
        self.alpha = alpha
        self.straggler_factor = straggler_factor
        self.dead_after = dead_after
        self.ewma: List[float] = [0.0] * world_size
        self._seen = [False] * world_size
        self.timeout_strikes: Dict[int, int] = {}
        self._dead: Set[int] = set()

    def observe(self, per_rank_seconds: Sequence[float]) -> None:
        """Fold one collective's per-rank modeled latencies into the EWMA."""
        if len(per_rank_seconds) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} latencies, "
                f"got {len(per_rank_seconds)}")
        for rank, sec in enumerate(per_rank_seconds):
            if self._seen[rank]:
                self.ewma[rank] = (self.alpha * sec
                                   + (1.0 - self.alpha) * self.ewma[rank])
            else:
                self.ewma[rank] = float(sec)
                self._seen[rank] = True

    def observe_uniform(self, seconds: float) -> None:
        """Shortcut for the common all-ranks-equal case.

        This is the zero-fault hot path (once per collective), so it
        skips the length check and list allocation of :meth:`observe`.
        """
        sec = float(seconds)
        one_minus = 1.0 - self.alpha
        ewma, seen = self.ewma, self._seen
        for rank in range(self.world_size):
            if seen[rank]:
                ewma[rank] = self.alpha * sec + one_minus * ewma[rank]
            else:
                ewma[rank] = sec
                seen[rank] = True

    def stragglers(self) -> List[int]:
        """Ranks whose EWMA latency exceeds factor x median (live ranks)."""
        live = [r for r in range(self.world_size)
                if self._seen[r] and r not in self._dead]
        if len(live) < 2:
            return []
        vals = sorted(self.ewma[r] for r in live)
        mid = len(vals) // 2
        median = vals[mid] if len(vals) % 2 \
            else 0.5 * (vals[mid - 1] + vals[mid])
        if median <= 0.0:
            return []
        return [r for r in live
                if self.ewma[r] > self.straggler_factor * median]

    def record_timeout(self, rank: int, count: int = 1) -> bool:
        """Register timeout strike(s); returns True if the rank is now dead."""
        check.count("count", count)
        self.timeout_strikes[rank] = self.timeout_strikes.get(rank, 0) + count
        if self.timeout_strikes[rank] >= self.dead_after:
            self._dead.add(rank)
        return rank in self._dead

    def mark_dead(self, rank: int) -> None:
        """Declare a rank dead outright (e.g. a crash fault)."""
        self._dead.add(rank)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    @property
    def dead_ranks(self) -> List[int]:
        return sorted(self._dead)
