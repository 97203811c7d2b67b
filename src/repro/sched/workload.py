"""Mixed-depth serving workloads for the scheduler CLI and benchmark.

The scheduler's value proposition is a *tail-latency* story: when
shallow (d <= 2) authentications share a device with deep stragglers,
FIFO makes the shallow requests wait out every deep search queued ahead
of them, while the continuous batcher serves all of them from the same
device batches. Both the ``repro sched`` CLI and
``benchmarks/bench_scheduler.py`` need the same apparatus to show that:
a deterministic mixed-depth request fleet, a FIFO reference run, a
scheduled run, per-depth latency summaries, the shallow-p99 gate and the
rendering (:func:`compare_fifo_and_scheduled`, :func:`comparison_gates`,
:func:`render_comparison`). It lives here so the two entry points cannot
drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._bitutils import SEED_BITS, flip_bits
from repro.analysis.metrics import percentile
from repro.engines.registry import build_engine
from repro.engines.result import SearchEngine
from repro.gates import Gate, render_verdict
from repro.hashes.registry import get_hash
from repro.sched.errors import RequestShed

if TYPE_CHECKING:
    from repro.fleet.engine import FleetSearchEngine

__all__ = [
    "WorkloadRequest",
    "RequestOutcome",
    "mixed_workload",
    "run_fifo",
    "run_scheduled",
    "summarize_latencies",
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
    #: Where the answer actually lies (bits flipped from the base seed).
    planted_distance: int
    #: How deep this request's search is allowed to go.
    max_distance: int
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request, on either serving path."""

    client_id: str
    planted_distance: int
    max_distance: int
    latency_seconds: float
    found: bool
    timed_out: bool
    shed: bool
    shed_reason: str = ""


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
        flips = rng.choice(SEED_BITS, size=distance, replace=False)
        client_seed = flip_bits(base_seed, [int(b) for b in flips])
        fleet.append(
            WorkloadRequest(
                client_id=f"wl-{index:04d}",
                base_seed=base_seed,
                target_digest=algo.hash_seed(client_seed),
                planted_distance=distance,
                max_distance=distance,
                deadline_seconds=(
                    deadline_seconds
                    if distance <= SHALLOW_DISTANCE
                    else None
                ),
            )
        )
    return fleet


def run_fifo(
    engine: SearchEngine,
    workload: list[WorkloadRequest],
    time_budget: float,
) -> list[RequestOutcome]:
    """Serve the fleet in submission order on one device (the baseline).

    All requests arrive at t=0; each one's latency includes the time it
    spent queued behind everything submitted before it — exactly what a
    FIFO worker over a single device does to a shallow request stuck
    behind a deep straggler.
    """
    start = time.perf_counter()
    outcomes = []
    for request in workload:
        result = engine.search(
            request.base_seed,
            request.target_digest,
            request.max_distance,
            time_budget=time_budget,
        )
        outcomes.append(
            RequestOutcome(
                client_id=request.client_id,
                planted_distance=request.planted_distance,
                max_distance=request.max_distance,
                latency_seconds=time.perf_counter() - start,
                found=result.found,
                timed_out=result.timed_out,
                shed=False,
            )
        )
    return outcomes


def run_scheduled(
    engine: FleetSearchEngine,
    workload: list[WorkloadRequest],
    time_budget: float,
) -> list[RequestOutcome]:
    """Serve the same fleet through the continuous-batching scheduler."""
    start = time.perf_counter()
    tickets = []
    for request in workload:
        try:
            ticket = engine.submit(
                request.base_seed,
                request.target_digest,
                request.max_distance,
                time_budget=time_budget,
                deadline_seconds=request.deadline_seconds,
                client_id=request.client_id,
            )
        except RequestShed as exc:
            tickets.append((request, None, exc))
            continue
        tickets.append((request, ticket, None))
    outcomes = []
    for request, ticket, admission_error in tickets:
        if ticket is None:
            outcomes.append(
                RequestOutcome(
                    client_id=request.client_id,
                    planted_distance=request.planted_distance,
                    max_distance=request.max_distance,
                    latency_seconds=time.perf_counter() - start,
                    found=False,
                    timed_out=False,
                    shed=True,
                    shed_reason=admission_error.reason,
                )
            )
            continue
        try:
            result = ticket.result()
        except RequestShed as exc:
            outcomes.append(
                RequestOutcome(
                    client_id=request.client_id,
                    planted_distance=request.planted_distance,
                    max_distance=request.max_distance,
                    latency_seconds=time.perf_counter() - start,
                    found=False,
                    timed_out=False,
                    shed=True,
                    shed_reason=exc.reason,
                )
            )
            continue
        scheduling = result.scheduling
        finished = time.perf_counter() - start
        if scheduling is not None:
            # The ticket settled on the dispatcher thread; use its own
            # clock (queue + service) rather than when we happened to
            # collect it.
            finished = min(
                finished, scheduling.queue_seconds + scheduling.service_seconds
            )
        outcomes.append(
            RequestOutcome(
                client_id=request.client_id,
                planted_distance=request.planted_distance,
                max_distance=request.max_distance,
                latency_seconds=finished,
                found=result.found,
                timed_out=result.timed_out,
                shed=False,
            )
        )
    return outcomes


def summarize_latencies(outcomes: list[RequestOutcome]) -> dict:
    """Per-class latency percentiles plus outcome counts."""

    def stats(group: list[RequestOutcome]) -> dict:
        if not group:
            return {"count": 0}
        latencies = [o.latency_seconds for o in group]
        return {
            "count": len(group),
            "found": sum(1 for o in group if o.found),
            "timed_out": sum(1 for o in group if o.timed_out),
            "shed": sum(1 for o in group if o.shed),
            "p50_seconds": round(percentile(latencies, 50), 6),
            "p95_seconds": round(percentile(latencies, 95), 6),
            "p99_seconds": round(percentile(latencies, 99), 6),
            "max_seconds": round(max(latencies), 6),
        }

    shallow = [o for o in outcomes if o.max_distance <= SHALLOW_DISTANCE]
    deep = [o for o in outcomes if o.max_distance > SHALLOW_DISTANCE]
    return {
        "all": stats(outcomes),
        "shallow": stats(shallow),
        "deep": stats(deep),
    }


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

    FIFO runs on a cached ``batch`` engine in submission order; the
    scheduled run admits every request at once into a ``sched:`` engine.
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
    fifo = summarize_latencies(run_fifo(fifo_engine, workload, time_budget))

    sched_engine = build_engine(
        "sched", hash_name=hash_name, batch_size=batch_size
    )
    try:
        sched = summarize_latencies(
            run_scheduled(sched_engine, workload, time_budget)
        )
        snapshot = sched_engine.scheduler.snapshot()
    finally:
        sched_engine.close()

    fifo_p99 = fifo["shallow"].get("p99_seconds")
    sched_p99 = sched["shallow"].get("p99_seconds")
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

    A fleet without shallow requests has no shallow p99, so no gate.
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
        return (
            f"    {label:<8} n={stats['count']:<3} "
            f"p50={stats['p50_seconds']:.3f}s "
            f"p99={stats['p99_seconds']:.3f}s "
            f"max={stats['max_seconds']:.3f}s "
            f"found={stats['found']} timed_out={stats['timed_out']} "
            f"shed={stats['shed']}"
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
    if record["shallow_p99_fifo_seconds"] is not None:
        lines.append(
            f"  shallow p99: FIFO {record['shallow_p99_fifo_seconds']:.3f}s "
            f"-> scheduled {record['shallow_p99_scheduled_seconds']:.3f}s"
            + (f"  ({speedup:.1f}x)" if speedup is not None else "")
        )
    lines.append(render_verdict(gates))
    return "\n".join(lines)

