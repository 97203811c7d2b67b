"""Engine-lifecycle hooks: one telemetry tap for every engine.

Engines call :meth:`EngineHooks.on_batch` after each kernel batch and
:meth:`EngineHooks.on_shell_complete` when a Hamming-distance shell
finishes. The serving layer, the chaos harness, and the analysis code
all observe searches through this one interface instead of each
inventing its own counters.

``on_amortization``, ``on_schedule``, and ``on_fleet`` are *optional*
extensions: amortized-pipeline engines (plan cache / warm pool) call
``on_amortization`` once per search with that search's
:class:`~repro.engines.result.AmortizationStats`, and the dispatcher
behind ``sched:`` and ``fleet:`` (:mod:`repro.fleet`) calls
``on_schedule`` once per request — at retirement — with its
:class:`~repro.engines.result.SchedulingStats`, and ``on_fleet`` once
per request with its :class:`~repro.engines.result.FleetStats`. All three are discovered
via ``getattr`` so third-party hook objects implementing only the two
required methods keep working unchanged.

Hook discipline:

* hooks must be cheap — they run inside the search hot loop;
* hooks see *backend* activity: a distributed engine reports every
  rank's shells (duplicate distances are expected), a multiprocessing
  engine reports merged per-distance shells from the parent process
  (hooks do not cross process boundaries);
* a hook that raises aborts the search — don't raise.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.engines.result import (
    AmortizationStats,
    FleetStats,
    SchedulingStats,
    ShellStats,
)
from repro.obs import Counters

__all__ = ["EngineHooks", "NullHooks", "TelemetryHooks"]


@runtime_checkable
class EngineHooks(Protocol):
    """What an engine tells the world while it searches."""

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        """One kernel batch of ``seeds_hashed`` candidates finished."""
        ...

    def on_shell_complete(self, shell: ShellStats) -> None:
        """One Hamming-distance shell finished (found, exhausted, or cut)."""
        ...


class NullHooks:
    """The do-nothing default."""

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        return None

    def on_shell_complete(self, shell: ShellStats) -> None:
        return None

    def on_amortization(self, stats: AmortizationStats) -> None:
        return None

    def on_schedule(self, stats: SchedulingStats) -> None:
        return None

    def on_fleet(self, stats: FleetStats) -> None:
        return None


class TelemetryHooks:
    """Thread-safe accumulating hooks — the standard telemetry consumer.

    Safe to share across engines and across the serving layer's worker
    threads; ``snapshot()`` returns a consistent copy. Batches are also
    counted per Hamming distance, reported as ``seeds_by_distance``.
    """

    def __init__(self) -> None:
        self._counters = Counters[int](
            **dict.fromkeys(
                (
                    "batches", "seeds_hashed", "shells_completed",
                    "plan_hits", "plan_misses", "pool_reuses",
                    "scheduled", "shared_batches", "preemptions",
                    "fleet_requests", "redispatched_chunks", "hedged_batches",
                ),
                int,
            ),
            shell_seconds=float,
            queue_seconds=float,
        )

    def on_batch(self, distance: int, seeds_hashed: int) -> None:
        self._counters.add(distance, batches=1, seeds_hashed=seeds_hashed)

    def on_shell_complete(self, shell: ShellStats) -> None:
        self._counters.add(shells_completed=1, shell_seconds=shell.seconds)

    def on_amortization(self, stats: AmortizationStats) -> None:
        self._counters.add(
            plan_hits=stats.plan_hits,
            plan_misses=stats.plan_misses,
            pool_reuses=int(stats.pool_reused),
        )

    def on_schedule(self, stats: SchedulingStats) -> None:
        self._counters.add(
            scheduled=1,
            shared_batches=stats.shared_batches,
            preemptions=stats.preemptions,
            queue_seconds=stats.queue_seconds,
        )

    def on_fleet(self, stats: FleetStats) -> None:
        self._counters.add(
            fleet_requests=1,
            redispatched_chunks=stats.redispatched_chunks,
            hedged_batches=stats.hedged_batches,
        )

    def snapshot(self) -> dict[str, object]:
        """A consistent copy of every counter."""
        totals, by_distance = self._counters.snapshot()
        snapshot: dict[str, object] = dict(totals)
        snapshot["seeds_by_distance"] = {
            distance: int(row["seeds_hashed"])
            for distance, row in by_distance.items()
        }
        return snapshot
