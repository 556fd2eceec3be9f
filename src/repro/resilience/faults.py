"""Deterministic fault specification and scheduling.

Synchronous training at 128 GPUs means a single slow or failed rank
stalls the whole job (Acun et al.; Naumov et al. motivate designing the
scale-out system around failure domains). This module is the *what and
when* of the resilience layer: a :class:`FaultSpec` names one fault —
straggle, drop, bit-corrupt or crash a rank on a chosen iteration and
collective — and a :class:`FaultSchedule` is a seedable, replayable
collection of them. The *how* (injection into collectives, retries,
recovery) lives in :mod:`repro.resilience.process_group` and
:mod:`repro.resilience.recovery`.

Determinism contract: a schedule is a pure function of its constructor
arguments (including the seed for :meth:`FaultSchedule.random`), and
consuming faults is ordered — so a faulty run is exactly replayable,
which is what lets the recovery tests assert *bitwise* equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import check

__all__ = ["FaultKind", "FaultSpec", "FaultSchedule", "RankFailure"]


class FaultKind(Enum):
    """The four modeled failure modes of a rank."""

    #: the rank is slow: its contribution to one collective takes
    #: ``delay_seconds`` longer (a straggler)
    DELAY = "delay"
    #: the rank's message is lost: the collective attempt times out and
    #: is retried under the :class:`repro.resilience.RetryPolicy`
    DROP = "drop"
    #: the rank's payload is bit-flipped on the wire: detected by the
    #: link checksum, the attempt is discarded and retried
    CORRUPT = "corrupt"
    #: the rank dies: the collective raises :class:`RankFailure` and the
    #: training loop must recover
    CRASH = "crash"


class RankFailure(RuntimeError):
    """A rank was declared dead during a collective.

    Raised out of :class:`repro.resilience.FaultyProcessGroup` — either
    immediately (a :attr:`FaultKind.CRASH` fault) or after the
    :class:`repro.resilience.HealthTracker` saw too many timeouts.
    ``TrainingLoop`` catches it and runs checkpoint recovery when a
    :class:`repro.resilience.RecoveryManager` is configured.
    """

    def __init__(self, rank: int, iteration: int,
                 collective: str = "") -> None:
        super().__init__(
            f"rank {rank} declared dead at iteration {iteration}"
            + (f" during {collective}" if collective else ""))
        self.rank = rank
        self.iteration = iteration
        self.collective = collective


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        What happens (:class:`FaultKind`).
    rank:
        The affected rank.
    iteration:
        The training iteration the fault fires on. ``None`` means *every*
        iteration (a persistent straggler); persistent faults are never
        consumed, one-shot faults fire exactly once.
    collective:
        Restrict the fault to one collective — either a base name
        (``"all_reduce"``, ``"all_to_all"``) or a full metric name
        (``"all_to_all/forward_alltoall"``). ``None`` matches the first
        collective issued in the matching iteration.
    delay_seconds:
        For :attr:`FaultKind.DELAY`: added modeled latency of the rank.
    failures:
        For :attr:`FaultKind.DROP` / :attr:`FaultKind.CORRUPT`: how many
        consecutive attempts fail before one succeeds. If this exceeds
        the retry policy's ``max_attempts``, each exhausted policy window
        counts one timeout strike against the rank.
    """

    kind: FaultKind
    rank: int
    iteration: Optional[int] = None
    collective: Optional[str] = None
    delay_seconds: float = 0.0
    failures: int = 1

    def __post_init__(self) -> None:
        check.count("rank", self.rank, low=0)
        if self.iteration is not None:
            check.count("iteration", self.iteration, low=0)
        # a DELAY fault must add some latency
        delay = check.positive if self.kind is FaultKind.DELAY \
            else check.nonnegative
        delay("delay_seconds", self.delay_seconds)
        check.count("failures", self.failures)

    def matches(self, iteration: int, collective: str) -> bool:
        """Does this fault fire for (iteration, collective name)?"""
        if self.iteration is not None and self.iteration != iteration:
            return False
        if self.collective is None:
            return True
        base = collective.split("/")[0]
        return self.collective in (collective, base)


class FaultSchedule:
    """An ordered, consumable set of :class:`FaultSpec`.

    One-shot faults (``iteration`` set) are consumed the first time they
    fire; persistent faults (``iteration=None``) fire every matching
    collective. The schedule object is shared between the pre-failure
    and post-recovery process groups, so a crash consumed before
    recovery does not re-fire when the replayed iteration comes around
    again — modeling "the broken host was replaced".
    """

    def __init__(self, faults: Iterable[FaultSpec] = (),
                 seed: int = 0) -> None:
        self.faults: List[FaultSpec] = list(faults)
        self.seed = seed
        self._pending = [True] * len(self.faults)

    @classmethod
    def random(cls, seed: int, num_iterations: int, world_size: int,
               num_faults: int = 4,
               kinds: Sequence[FaultKind] = (FaultKind.DELAY,
                                             FaultKind.DROP,
                                             FaultKind.CORRUPT),
               max_delay_seconds: float = 1.0) -> "FaultSchedule":
        """A seed-deterministic random schedule (chaos testing).

        Crashes are excluded by default because they need a recovery
        manager to be survivable; pass ``kinds`` explicitly to include
        :attr:`FaultKind.CRASH`.
        """
        check.count("num_iterations", num_iterations)
        check.count("world_size", world_size)
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(num_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            faults.append(FaultSpec(
                kind=kind,
                rank=int(rng.integers(world_size)),
                iteration=int(rng.integers(num_iterations)),
                delay_seconds=float(rng.uniform(0.05, max_delay_seconds))
                if kind is FaultKind.DELAY else 0.0,
                failures=int(rng.integers(1, 3))
                if kind in (FaultKind.DROP, FaultKind.CORRUPT) else 1))
        # deterministic firing order: by iteration, then rank
        faults.sort(key=lambda f: (f.iteration, f.rank, f.kind.value))
        return cls(faults, seed=seed)

    @property
    def pending(self) -> int:
        """Number of faults that can still fire (persistent count as 1)."""
        return sum(self._pending)

    def take(self, iteration: int,
             collective: str) -> Tuple[FaultSpec, ...]:
        """Faults firing for this collective call; one-shots are consumed."""
        if not any(self._pending):
            return ()
        out = []
        for i, spec in enumerate(self.faults):
            if self._pending[i] and spec.matches(iteration, collective):
                out.append(spec)
                if spec.iteration is not None:
                    self._pending[i] = False
        return tuple(out)

    def reset(self) -> None:
        """Re-arm every consumed fault (for replaying a schedule)."""
        self._pending = [True] * len(self.faults)

    def __len__(self) -> int:
        return len(self.faults)
