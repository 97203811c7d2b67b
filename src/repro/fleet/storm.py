"""Device-loss chaos storm: kill a fleet device mid-run, prove nothing broke.

The scenario the fleet layer exists for: a multi-client serving burst is
in flight when one device abruptly dies (at 25% of completions), stays
dark, and comes back (at 75%). The storm then asserts the protocol-level
invariants:

* **zero lost requests** — every submission resolves to a result or a
  typed :class:`~repro.sched.errors.RequestShed`, never hangs;
* **zero false authentications** — every ``found`` seed re-hashes to its
  client's digest;
* **byte equivalence** — every fleet outcome (found flag, seed bytes,
  distance) matches a single-device
  :class:`~repro.runtime.executor.BatchSearchExecutor` reference run;
* **recovery really happened** — re-dispatched chunks > 0 (orphaned work
  was replayed on survivors) and the killed device is reinstated by the
  health monitor before the fleet closes.

Deterministic by construction: the workload is seeded, the kill/revive
points are completion *counts* (not wall-clock), and the single surviving
host device makes the candidate order the single-engine order.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from repro.engines.registry import build_engine
from repro.gates import Gate, render_verdict
from repro.hashes.registry import get_hash

from repro.sched.errors import RequestShed
from repro.sched.workload import WorkloadRequest, mixed_workload

from repro.fleet.engine import FleetSearchEngine

__all__ = ["DeviceLossStormReport", "run_device_loss_storm"]


@dataclass
class DeviceLossStormReport:
    """Outcome of one device-loss storm, renderable and assertable."""

    seed: int
    requests: int
    devices: tuple[str, ...]
    victim: str
    killed_after: int
    revived_after: int
    resolved: int = 0
    found: int = 0
    shed: int = 0
    lost_requests: int = 0
    false_authentications: int = 0
    byte_mismatches: int = 0
    redispatched_chunks: int = 0
    reassigned_requests: int = 0
    hedges_launched: int = 0
    quarantines: int = 0
    reinstatements: int = 0
    victim_reinstated: bool = False
    wall_seconds: float = 0.0
    snapshot: dict = field(default_factory=dict)

    @property
    def gates(self) -> list[Gate]:
        """The storm's hard invariants, one named gate each."""
        return [
            Gate("lost_requests", self.lost_requests, 0),
            Gate("false_authentications", self.false_authentications, 0),
            Gate("byte_mismatches", self.byte_mismatches, 0),
            Gate("redispatched_chunks", self.redispatched_chunks, 0, ">"),
            Gate("victim_reinstated", self.victim_reinstated, True),
        ]

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)

    def render(self) -> str:
        lines = [
            f"device-loss storm  seed={self.seed}  devices={','.join(self.devices)}",
            f"  requests: {self.requests}  resolved: {self.resolved}  "
            f"found: {self.found}  shed: {self.shed}",
            f"  victim {self.victim!r}: killed after {self.killed_after} "
            f"completions, revived after {self.revived_after}",
            f"  re-dispatched chunks: {self.redispatched_chunks}  "
            f"reassigned requests: {self.reassigned_requests}  "
            f"hedges: {self.hedges_launched}",
            f"  quarantines: {self.quarantines}  "
            f"reinstatements: {self.reinstatements}  "
            f"victim reinstated: {self.victim_reinstated}",
            f"  lost: {self.lost_requests}  "
            f"false auths: {self.false_authentications}  "
            f"byte mismatches: {self.byte_mismatches}",
            f"  wall: {self.wall_seconds:.2f}s",
            render_verdict(self.gates),
        ]
        return "\n".join(lines)


def _reference_outcomes(
    workload: list[WorkloadRequest], hash_name: str, batch_size: int
) -> dict[str, tuple[bool, bytes | None, int | None]]:
    """Single-device byte-truth: what each search must return."""
    engine = build_engine("batch", hash_name=hash_name, batch_size=batch_size)
    truth = {}
    for request in workload:
        result = engine.search(
            request.base_seed, request.target_digest, request.max_distance
        )
        truth[request.client_id] = (result.found, result.seed, result.distance)
    return truth


def run_device_loss_storm(
    seed: int = 0,
    requests: int = 10,
    depths: tuple[int, ...] = (1, 2, 2, 3),
    hash_name: str = "sha1",
    batch_size: int = 4096,
    devices: tuple[str, ...] = ("host", "host"),
    kill_fraction: float = 0.25,
    revive_fraction: float = 0.75,
    heartbeat_seconds: float = 0.01,
    recovery_seconds: float = 0.1,
    reinstate_timeout: float = 3.0,
) -> DeviceLossStormReport:
    """Kill ``devices[-1]`` at 25% of completions, revive at 75%, verify.

    Kill/revive points are completion counts so the storm is seeded and
    repeatable; the victim is the *last* device so device 0 always
    survives to replay orphaned chunks.
    """
    if len(devices) < 2:
        raise ValueError("the storm needs at least two devices (one survives)")
    algo = get_hash(hash_name)
    workload = mixed_workload(algo, requests, depths, seed)
    truth = _reference_outcomes(workload, hash_name, batch_size)

    engine = FleetSearchEngine(
        *devices,
        hash_name=hash_name,
        batch_size=batch_size,
        heartbeat_seconds=heartbeat_seconds,
        recovery_seconds=recovery_seconds,
        fault_seed=seed,
    )
    fleet = engine.scheduler
    victim = fleet.devices[-1].name
    kill_after = max(1, math.ceil(kill_fraction * requests))
    revive_after = max(kill_after + 1, math.ceil(revive_fraction * requests))
    report = DeviceLossStormReport(
        seed=seed,
        requests=requests,
        devices=tuple(devices),
        victim=victim,
        killed_after=kill_after,
        revived_after=revive_after,
    )

    completions = 0
    switch_lock = threading.Lock()

    def _on_done(_ticket) -> None:
        nonlocal completions
        with switch_lock:
            completions += 1
            count = completions
        if count == kill_after:
            fleet.kill_device(victim)
        elif count == revive_after:
            fleet.revive_device(victim)

    start = time.perf_counter()
    tickets = []
    for request in workload:
        ticket = engine.submit(
            request.base_seed,
            request.target_digest,
            request.max_distance,
            client_id=request.client_id,
        )
        ticket.add_done_callback(_on_done)
        tickets.append((request, ticket))

    for request, ticket in tickets:
        try:
            result = ticket.result(timeout=120.0)
        except RequestShed:
            report.resolved += 1
            report.shed += 1
            continue
        except TimeoutError:
            report.lost_requests += 1
            continue
        report.resolved += 1
        if result.found:
            report.found += 1
            assert result.seed is not None
            if algo.hash_seed(result.seed) != request.target_digest:
                report.false_authentications += 1
        expected = truth[request.client_id]
        if (result.found, result.seed, result.distance) != expected:
            report.byte_mismatches += 1

    # The storm may finish before 75% of completions (all resolved while
    # the victim was dark) — make sure the revive switch has flipped,
    # then give the monitor a bounded window to reinstate the victim.
    fleet.revive_device(victim)
    deadline = time.perf_counter() + reinstate_timeout
    while time.perf_counter() < deadline:
        if fleet.device(victim).health == "healthy":
            break
        time.sleep(heartbeat_seconds)
    report.victim_reinstated = fleet.device(victim).health == "healthy"
    report.wall_seconds = time.perf_counter() - start

    snapshot = fleet.snapshot()
    engine.close()
    report.snapshot = snapshot
    report.redispatched_chunks = int(snapshot["redispatched_chunks"])
    report.reassigned_requests = int(snapshot["reassigned_requests"])
    report.hedges_launched = int(snapshot["hedges_launched"])
    report.quarantines = int(snapshot["quarantines"])
    report.reinstatements = int(snapshot["reinstatements"])
    return report
