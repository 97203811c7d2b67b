"""Authentication storms under a named fault plan.

This is the integration layer the rest of :mod:`repro.reliability`
exists for: enroll a fleet, put every client behind a
:class:`~repro.reliability.transport.FaultyTransport`, serve them from a
:class:`~repro.net.concurrent.ConcurrentCAServer` whose backend is a
:class:`~repro.reliability.failover.FailoverSearchService` (flaky fast
engine behind a circuit breaker, CPU baseline behind it), and report
what happened as a deterministic
:class:`~repro.analysis.metrics.ResilienceReport`.

Clients run back-to-back on one storm timeline: each client's virtual
link time advances the shared :class:`VirtualClock` that the breaker's
recovery timer reads. That serialization is what makes the whole report
— including the breaker's transition history — a pure function of
(fault spec, seed).

Every authenticated result is *re-verified* against the submitted digest
(`H(found seed) == M1`), so a false authentication cannot hide: the
acceptance bar for every fault plan is ``false_authentications == 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.metrics import ResilienceReport, percentile
from repro.core import (
    CertificateAuthority,
    RegistrationAuthority,
)
from repro.core.authentication import VerifyingAuthority
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.keygen.interface import get_keygen
from repro.net.client import NetworkClient
from repro.net.concurrent import ConcurrentCAServer
from repro.net.errors import ServerBusy
from repro.net.messages import (
    AuthenticationResult,
    DigestSubmission,
    HandshakeRequest,
    HandshakeResponse,
)
from repro.net.transport import US_LINK, InProcessTransport
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.failover import FailoverSearchService
from repro.reliability.faults import FaultPlan, FaultSpec, VirtualClock
from repro.reliability.retry import DeadlineExceeded, RetriesExhausted, RetryPolicy
from repro.reliability.transport import FaultyTransport
from repro.engines import TelemetryHooks, build_engine
from repro.devices.flaky import DeviceFailure, FlakyEngine
from repro.sched.errors import RequestShed

__all__ = [
    "StormConfig",
    "NAMED_PLANS",
    "run_storm",
    "run_named_storm",
]


@dataclass(frozen=True)
class StormConfig:
    """Shape of one authentication storm (independent of the fault spec)."""

    clients: int = 100
    workers: int = 4
    max_queue: int = 64
    #: Serve the storm through the deadline-aware continuous-batching
    #: scheduler instead of the FIFO worker pool. The transport-level
    #: fault plan still applies in full; device-failure episodes do not
    #: (the scheduler owns its device and has no failover behind it).
    scheduler: bool = False
    hash_name: str = "sha1"
    max_distance: int = 1
    noise_target_distance: int = 1
    num_cells: int = 2048
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 5.0
    retry: RetryPolicy = RetryPolicy(
        max_attempts=6,
        base_backoff_seconds=0.25,
        backoff_multiplier=2.0,
        max_backoff_seconds=2.0,
        jitter_fraction=0.2,
        attempt_deadline_seconds=None,
        deadline_seconds=45.0,
    )

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be positive")


#: Named fault plans the CLI and CI smoke runs refer to.
NAMED_PLANS: dict[str, tuple[FaultSpec, StormConfig]] = {
    "clean": (FaultSpec(name="clean"), StormConfig()),
    # The acceptance-criteria plan: a lossy WAN plus one device-failure
    # episode long enough to walk the breaker through open -> half-open
    # (re-open on a sick probe) -> closed.
    "lossy-wan": (
        FaultSpec(
            name="lossy-wan",
            drop_rate=0.20,
            corrupt_rate=0.05,
            duplicate_rate=0.02,
            reorder_rate=0.02,
            latency_spike_rate=0.03,
            latency_spike_seconds=1.0,
            device_failure_episodes=1,
            device_failure_length=6,
        ),
        StormConfig(clients=100),
    ),
    "flaky-device": (
        FaultSpec(
            name="flaky-device",
            device_failure_episodes=2,
            device_failure_length=5,
            device_slow_rate=0.2,
        ),
        StormConfig(clients=60),
    ),
    # Small and fast: CI's deterministic smoke run.
    "smoke": (
        FaultSpec(
            name="smoke",
            drop_rate=0.15,
            corrupt_rate=0.05,
            device_failure_episodes=1,
            device_failure_length=4,
        ),
        StormConfig(clients=12, breaker_recovery_seconds=3.0),
    ),
}


class _StormFrontend:
    """CAServer-shaped facade over the concurrent server for NetworkClient."""

    def __init__(
        self, authority: VerifyingAuthority, concurrent: ConcurrentCAServer
    ):
        self.authority = authority
        self.concurrent = concurrent

    def handle_handshake(self, request: HandshakeRequest) -> HandshakeResponse:
        challenge = self.authority.issue_challenge(request.client_id)
        return HandshakeResponse(
            client_id=challenge.client_id,
            address=challenge.address,
            window=challenge.window,
            usable_mask=HandshakeResponse.pack_usable(challenge.usable),
            bit_count=challenge.bit_count,
            hash_name=challenge.hash_name,
        )

    def handle_digest(self, submission: DigestSubmission) -> AuthenticationResult:
        self.authority.record_digest(submission.client_id, submission.digest)
        try:
            future = self.concurrent.submit(
                submission.client_id,
                submission.digest,
                deadline_seconds=submission.deadline_seconds,
            )
        except (RuntimeError, RequestShed) as exc:
            raise ServerBusy(str(exc)) from exc
        try:
            return future.result(timeout=300)
        except (RequestShed, DeviceFailure):
            # The scheduler gave up on the request at runtime (deadline
            # or shutdown), or the backend died with no failover in
            # place: a clean, observable rejection; the client's retry
            # policy decides what's next.
            return AuthenticationResult(
                client_id=submission.client_id,
                authenticated=False,
                distance=None,
                public_key=None,
                search_seconds=0.0,
                timed_out=True,
            )


def _enroll_fleet(spec_seed: int, config: StormConfig):
    """Build a CA with ``config.clients`` enrolled PUF devices."""
    authority = CertificateAuthority(
        search_service=None,  # installed by run_storm
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=EncryptedImageDatabase(b"chaos-master-key"),
        hash_name=config.hash_name,
    )
    clients = []
    for index in range(config.clients):
        puf = SRAMPuf(
            num_cells=config.num_cells,
            stable_error=0.001,
            seed=spec_seed * 1_000_003 + index,
        )
        mask = enroll_with_masking(
            puf, address=0, window=config.num_cells, reads=48,
            instability_threshold=0.02,
        )
        client_id = f"client-{index:04d}"
        authority.enroll(client_id, mask)
        device = ClientDevice(
            client_id,
            puf,
            noise_target_distance=config.noise_target_distance,
            rng=np.random.default_rng((spec_seed, index)),
        )
        clients.append((client_id, device, mask))
    return authority, clients


def run_storm(
    spec: FaultSpec, seed: int, config: StormConfig | None = None
) -> ResilienceReport:
    """Run one deterministic authentication storm and report on it."""
    config = config if config is not None else StormConfig()
    plan = FaultPlan(spec, seed)
    clock = VirtualClock()

    authority, clients = _enroll_fleet(seed, config)
    device_injector = plan.device_injector(horizon=max(40, config.clients))
    # One telemetry tap across both backends: the report's engine
    # counters cover every batch either engine actually ran.
    telemetry = TelemetryHooks()
    primary = FlakyEngine(
        build_engine(
            "batch", hash_name=config.hash_name, batch_size=16384,
            hooks=telemetry,
        ),
        device_injector,
        name="accelerator",
    )
    fallback = build_engine(
        "batch", hash_name=config.hash_name, batch_size=4096, hooks=telemetry
    )
    breaker = CircuitBreaker(
        failure_threshold=config.breaker_failure_threshold,
        recovery_seconds=config.breaker_recovery_seconds,
        clock=clock.now,
    )
    service = FailoverSearchService(
        primary,
        fallback,
        breaker,
        max_distance=config.max_distance,
    )
    authority.search_service = service
    verifying = VerifyingAuthority(authority)

    scheduler_engine = None
    if config.scheduler:
        scheduler_engine = build_engine(
            "sched",
            hash_name=config.hash_name,
            batch_size=16384,
            hooks=telemetry,
            max_queue=config.max_queue,
        )

    outcomes: dict[str, int] = {}
    fault_counts: dict[str, int] = {}
    latencies: list[float] = []
    attempts_total = 0
    max_attempts = 0

    with ConcurrentCAServer(
        verifying,
        workers=config.workers,
        max_queue=config.max_queue,
        scheduler=scheduler_engine,
    ) as server:
        frontend = _StormFrontend(verifying, server)
        for index, (client_id, device, mask) in enumerate(clients):
            transport = FaultyTransport(
                InProcessTransport(latency=US_LINK),
                plan.transport_injector(index),
            )
            network_client = NetworkClient(
                device,
                transport,
                reference_mask=mask,
                retry_policy=config.retry,
                rng=plan.client_rng(index),
            )
            try:
                result = network_client.authenticate(frontend)
                outcome = "authenticated" if result.authenticated else "rejected"
            except DeadlineExceeded:
                outcome = "deadline_exceeded"
            except RetriesExhausted:
                outcome = "retries_exhausted"
            except ServerBusy:
                outcome = "server_busy"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            for _index, _label, kind in transport.fault_log:
                fault_counts[kind] = fault_counts.get(kind, 0) + 1
            latencies.append(transport.elapsed_seconds)
            attempts_total += network_client.last_attempts
            max_attempts = max(max_attempts, network_client.last_attempts)
            # The next client arrives after this one's round completed.
            clock.advance(transport.elapsed_seconds)

    succeeded = outcomes.get("authenticated", 0)
    engine_counts = telemetry.snapshot()
    return ResilienceReport(
        plan=spec.name,
        seed=seed,
        clients=config.clients,
        succeeded=succeeded,
        failed_clean=config.clients - succeeded,
        false_authentications=verifying.false_authentications,
        outcomes=tuple(sorted(outcomes.items())),
        faults_injected=tuple(sorted(fault_counts.items())),
        attempts_total=attempts_total,
        max_attempts_single_client=max_attempts,
        latency_p50=round(percentile(latencies, 50), 6),
        latency_p95=round(percentile(latencies, 95), 6),
        latency_max=round(max(latencies), 6),
        breaker_transitions=breaker.transition_names(),
        primary_searches=service.primary_searches,
        fallback_searches=service.fallback_searches,
        device_failures=primary.failures_injected,
        engine_seeds_hashed=engine_counts["seeds_hashed"],
        engine_shells_completed=engine_counts["shells_completed"],
    )


def run_named_storm(
    name: str, seed: int = 0, clients: int | None = None, workers: int | None = None
) -> ResilienceReport:
    """Run one of :data:`NAMED_PLANS`, optionally resizing the fleet."""
    if name not in NAMED_PLANS:
        raise KeyError(
            f"unknown fault plan {name!r}; choices: {sorted(NAMED_PLANS)}"
        )
    spec, config = NAMED_PLANS[name]
    if clients is not None:
        config = replace(config, clients=clients)
    if workers is not None:
        config = replace(config, workers=workers)
    return run_storm(spec, seed, config)
