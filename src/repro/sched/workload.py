"""Mixed-depth serving workloads for the scheduler CLI and benchmark.

The scheduler's value proposition is a *tail-latency* story: when
shallow (d <= 2) authentications share a device with deep stragglers,
FIFO makes the shallow requests wait out every deep search queued ahead
of them, while the continuous batcher serves all of them from the same
device batches. Both the ``repro sched`` CLI and
``benchmarks/bench_scheduler.py`` need the same apparatus to show that:
a deterministic mixed-depth request fleet, a FIFO reference run and a
scheduled run (both through :func:`repro.storm.drive`), per-depth
latency summaries, the shallow-p99 gate and the rendering
(:func:`compare_fifo_and_scheduled`, :func:`comparison_gates`,
:func:`render_comparison`). It lives here so the two entry points cannot
drift apart.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro._bitutils import SEED_BITS
from repro.engines.registry import build_engine
from repro.gates import Gate, render_verdict
from repro.hashes.registry import get_hash
from repro.storm import Outcome, drive, plant, summarize

__all__ = [
    "WorkloadRequest",
    "mixed_workload",
    "compare_fifo_and_scheduled",
    "comparison_gates",
    "render_comparison",
]

#: "Shallow" for reporting purposes: the interactive request depths the
#: paper's threshold comfortably covers on a single device.
SHALLOW_DISTANCE = 2

#: Latency classes the summaries and the rendering report, in order.
_CLASSES = ("shallow", "deep", "all")


@dataclass(frozen=True)
class WorkloadRequest:
    """One client's authentication request in a synthetic storm."""

    client_id: str
    base_seed: bytes
    target_digest: bytes
    #: How deep this request's search may go; the answer is planted
    #: exactly this many bit flips from the base seed.
    max_distance: int
    deadline_seconds: float | None = None


def mixed_workload(
    algo,
    requests: int = 16,
    depths: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
    deadline_seconds: float | None = None,
) -> list[WorkloadRequest]:
    """A deterministic mixed-depth request fleet.

    Depths cycle round-robin so every run carries the same shallow/deep
    mix; each client's seed is planted at a distinct random location in
    its shell. ``deadline_seconds``, when given, is attached to the
    shallow (d <= 2) requests only — the interactive clients are the
    ones with latency expectations.
    """
    if requests < 1:
        raise ValueError("requests must be positive")
    if not depths or any(d < 0 for d in depths):
        raise ValueError("depths must be non-negative")
    rng = np.random.default_rng(seed)
    fleet = []
    for index in range(requests):
        distance = depths[index % len(depths)]
        base_seed = rng.bytes(SEED_BITS // 8)
        fleet.append(
            WorkloadRequest(
                client_id=f"wl-{index:04d}",
                base_seed=base_seed,
                target_digest=plant(algo, base_seed, distance, rng),
                max_distance=distance,
                deadline_seconds=(
                    deadline_seconds
                    if distance <= SHALLOW_DISTANCE
                    else None
                ),
            )
        )
    return fleet


def _by_class(outcomes: list[Outcome[WorkloadRequest]]) -> dict:
    """:func:`~repro.storm.summarize` per latency class."""
    shallow = [o for o in outcomes if o.request.max_distance <= SHALLOW_DISTANCE]
    deep = [o for o in outcomes if o.request.max_distance > SHALLOW_DISTANCE]
    return {
        "all": summarize(outcomes),
        "shallow": summarize(shallow),
        "deep": summarize(deep),
    }


def _shallow_p99(classes: dict) -> float | None:
    """The shallow p99, or ``None`` (a failing gate) unless every shallow
    request was served: a percentile over the survivors of a shed, lost
    or raising request would hide exactly the failure the gate is for."""
    shallow = classes["shallow"]
    if shallow["served"] < shallow["count"]:
        return None
    return shallow["p99_seconds"]


def compare_fifo_and_scheduled(
    hash_name: str = "sha1",
    requests: int = 16,
    depths: tuple[int, ...] = (1, 2, 3, 4),
    time_budget: float = 3.0,
    batch_size: int = 16384,
    seed: int = 0,
    deadline_seconds: float | None = None,
) -> dict:
    """Serve one mixed fleet FIFO, then scheduled; return the record.

    FIFO runs on a cached ``batch`` engine behind one worker, so every
    request, all arriving at once, waits out the searches submitted
    before it; the scheduled run admits every request at once into a
    ``sched:`` engine.
    """
    algo = get_hash(hash_name)
    workload = mixed_workload(
        algo,
        requests=requests,
        depths=depths,
        seed=seed,
        deadline_seconds=deadline_seconds,
    )
    fifo_engine = build_engine(
        "batch", hash_name=hash_name, batch_size=batch_size, cache=True
    )
    with ThreadPoolExecutor(max_workers=1) as worker:
        fifo = _by_class(
            drive(
                lambda r: worker.submit(
                    fifo_engine.search,
                    r.base_seed,
                    r.target_digest,
                    r.max_distance,
                    time_budget=time_budget,
                ),
                workload,
            )
        )

    sched_engine = build_engine(
        "sched", hash_name=hash_name, batch_size=batch_size
    )
    try:
        sched = _by_class(
            drive(
                lambda r: sched_engine.submit(
                    r.base_seed,
                    r.target_digest,
                    r.max_distance,
                    time_budget=time_budget,
                    deadline_seconds=r.deadline_seconds,
                    client_id=r.client_id,
                ),
                workload,
            )
        )
        snapshot = sched_engine.scheduler.snapshot()
    finally:
        sched_engine.close()

    fifo_p99 = _shallow_p99(fifo)
    sched_p99 = _shallow_p99(sched)
    return {
        "config": {
            "hash_name": hash_name,
            "requests": requests,
            "depths": list(depths),
            "time_budget": time_budget,
            "batch_size": batch_size,
            "seed": seed,
            "deadline_seconds": deadline_seconds,
        },
        "fifo": fifo,
        "scheduled": sched,
        "shallow_p99_fifo_seconds": fifo_p99,
        "shallow_p99_scheduled_seconds": sched_p99,
        "shallow_p99_speedup": (
            fifo_p99 / sched_p99 if fifo_p99 and sched_p99 else None
        ),
        "scheduler": {
            "batches": snapshot["batches"],
            "shared_batches": snapshot["shared_batches"],
            "shed": snapshot["shed"],
            "preempted": snapshot["preempted"],
            "peak_queue_depth": snapshot["peak_queue_depth"],
            "batches_by_lane": snapshot["batches_by_lane"],
        },
    }


def comparison_gates(record: dict) -> list[Gate]:
    """The scheduler must not serve shallow requests worse than FIFO.

    A fleet without shallow requests has no shallow p99, so no gate. A
    shallow request that either run left unserved fails the gate.
    """
    if record["fifo"]["shallow"]["count"] == 0:
        return []
    return [
        Gate(
            "shallow_p99_scheduled_seconds",
            record["shallow_p99_scheduled_seconds"],
            record["shallow_p99_fifo_seconds"],
            "<=",
        )
    ]


def render_comparison(record: dict, gates: list[Gate]) -> str:
    """The comparison as text, ending in the verdict over ``gates``."""
    config = record["config"]

    def row(label: str, stats: dict) -> str:
        if stats["count"] == 0:
            return f"    {label:<8} (no requests)"
        tail = (
            f"p50={stats['p50_seconds']:.3f}s "
            f"p99={stats['p99_seconds']:.3f}s "
            f"max={stats['max_seconds']:.3f}s "
            if stats["served"]
            else "(nothing served) "
        )
        return (
            f"    {label:<8} n={stats['count']:<3} {tail}"
            f"found={stats['found']} timed_out={stats['timed_out']} "
            f"shed={stats['shed']} lost={stats['lost']} "
            f"errors={stats['errors']}"
        )

    lines = [
        "Scheduler — shallow tail latency on a mixed-depth fleet",
        f"  {config['requests']} requests, depths {config['depths']}, "
        f"T={config['time_budget']}s, hash={config['hash_name']}, "
        f"bs={config['batch_size']}",
        "  FIFO (submission order, one device):",
        *(row(label, record["fifo"][label]) for label in _CLASSES),
        "  scheduled (continuous batching, EDF lanes):",
        *(row(label, record["scheduled"][label]) for label in _CLASSES),
    ]
    sched = record["scheduler"]
    lines.append(
        f"  scheduler: batches={sched['batches']} "
        f"shared={sched['shared_batches']} shed={sched['shed']} "
        f"preempted={sched['preempted']} "
        f"peak_queue={sched['peak_queue_depth']}"
    )
    speedup = record["shallow_p99_speedup"]
    fifo_p99 = record["shallow_p99_fifo_seconds"]
    sched_p99 = record["shallow_p99_scheduled_seconds"]
    if fifo_p99 is not None and sched_p99 is not None:
        lines.append(
            f"  shallow p99: FIFO {fifo_p99:.3f}s -> scheduled {sched_p99:.3f}s"
            + (f"  ({speedup:.1f}x)" if speedup is not None else "")
        )
    lines.append(render_verdict(gates))
    return "\n".join(lines)

