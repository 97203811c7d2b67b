"""Concurrent CA front end: many clients, one search backend.

The capacity model (:mod:`repro.analysis.workload`) predicts what a CA
can sustain; this module is the serving layer that actually does it:
a bounded worker pool over the authority's search service, per-client
serialization (two in-flight searches for the same identity make no
sense — the second would race the RA update), admission control, an
optional circuit breaker guarding the search backend, and service
metrics the operator can read off.

Two serving modes share the front door:

* **FIFO mode** (default) — a bounded :class:`ThreadPoolExecutor`, one
  worker per in-flight search, requests served in submission order.
* **Scheduler mode** — pass a
  :class:`~repro.fleet.engine.FleetSearchEngine` (a ``sched:`` or
  ``fleet:`` spec) and submissions flow into its continuous-batching
  work stream instead: many requests share the device batches, client
  deadlines are honored (EDF lanes, shedding), and the queue-depth /
  shed / preemption counters below light up. Over several devices the
  ``redispatched`` / ``hedged`` counters also record its recoveries.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.authentication import CertificateAuthority
from repro.directory.errors import DirectoryUnavailable
from repro.directory.prefetch import DirectoryPrefetcher
from repro.engines.result import DirectoryStats
from repro.net.errors import ServerClosed
from repro.net.messages import AuthenticationResult
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.runtime.pool import PooledSearchExecutor
from repro.sched.errors import (
    SHED_DIRECTORY_UNAVAILABLE,
    SHED_TENANT_QUOTA,
    RequestShed,
)
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key
from repro.tenancy.ledger import TenantLedger
from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:
    from repro.fleet.dispatcher import FleetSearch
    from repro.fleet.engine import FleetSearchEngine

__all__ = ["ServerMetrics", "ConcurrentCAServer"]


@dataclass
class ServerMetrics:
    """Operational counters (thread-safe snapshots via the server)."""

    submitted: int = 0
    completed: int = 0
    authenticated: int = 0
    failed: int = 0
    rejected_busy: int = 0
    rejected_duplicate: int = 0
    rejected_open: int = 0
    total_search_seconds: float = 0.0
    #: Engine-level telemetry read off each unified search result:
    #: candidate seeds hashed and Hamming shells completed.
    seeds_hashed: int = 0
    shells_completed: int = 0
    #: Amortized-pipeline telemetry (searches served by engines with a
    #: mask-plan cache and/or warm worker pool; zero otherwise).
    plan_hits: int = 0
    plan_misses: int = 0
    pool_reuses: int = 0
    #: Scheduler-mode telemetry: requests shed (deadline or shutdown),
    #: primary-request preemptions, and the deepest queue observed.
    shed: int = 0
    preempted: int = 0
    queue_depth_peak: int = 0
    #: Fleet-mode telemetry (zero unless the backend is a
    #: :class:`~repro.fleet.engine.FleetSearchEngine`): chunks replayed
    #: on a survivor after a device failure, and batches that were
    #: hedge-duplicated onto an idle device.
    redispatched: int = 0
    hedged: int = 0
    #: Enrollment-directory telemetry (zero unless the authority's image
    #: store is a sharded directory): hot-cache hits/misses on the
    #: serving path, reads served by a replica after the primary shard
    #: was lost, stale/missing replica copies repaired in passing, and
    #: requests shed because a key's whole replica set was down.
    directory_hot_hits: int = 0
    directory_hot_misses: int = 0
    directory_failovers: int = 0
    directory_read_repairs: int = 0
    shed_directory: int = 0
    #: Requests refused because their tenant's admission budget (token
    #: bucket) or enrollment quota was exhausted.
    shed_tenant_quota: int = 0
    #: Durability telemetry (zero unless the enrollment store is a
    #: WAL-backed :class:`~repro.durability.store.DurableImageStore`):
    #: enrollments acknowledged durable over the wire, records recovered
    #: at startup, and how long that recovery took.
    enrollments: int = 0
    recovered_records: int = 0
    recovery_seconds: float = 0.0
    #: Per-reason shed counts. Written only by :meth:`record_shed`, which
    #: also increments ``shed`` — the two can never drift apart.
    shed_reasons: dict[str, int] = field(default_factory=dict)
    #: Per-tenant counters (submitted / shed / quota hits / latency
    #: percentiles); fed by the same ``record`` / ``record_shed`` calls.
    tenants: TenantLedger = field(default_factory=TenantLedger, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self,
        *,
        submitted: int = 0,
        completed: int = 0,
        authenticated: int = 0,
        failed: int = 0,
        rejected_busy: int = 0,
        rejected_duplicate: int = 0,
        rejected_open: int = 0,
        search_seconds: float = 0.0,
        seeds_hashed: int = 0,
        shells_completed: int = 0,
        plan_hits: int = 0,
        plan_misses: int = 0,
        pool_reuses: int = 0,
        preempted: int = 0,
        queue_depth: int = 0,
        redispatched: int = 0,
        hedged: int = 0,
        directory_hot_hits: int = 0,
        directory_hot_misses: int = 0,
        directory_failovers: int = 0,
        directory_read_repairs: int = 0,
        tenant_id: str | None = None,
    ) -> None:
        """Atomically increment counters — the one write path callers use.

        ``queue_depth`` is a gauge observation, not an increment: the
        peak-so-far is kept (max-merge), so callers report the depth they
        saw and the snapshot exposes the high-water mark. ``tenant_id``
        mirrors the per-request counters into the per-tenant ledger.

        Sheds are deliberately *not* recordable here: every shed goes
        through :meth:`record_shed`, which keeps the ``shed`` total and
        the per-reason counts in lockstep.
        """
        with self._lock:
            self.submitted += submitted
            self.completed += completed
            self.authenticated += authenticated
            self.failed += failed
            self.rejected_busy += rejected_busy
            self.rejected_duplicate += rejected_duplicate
            self.rejected_open += rejected_open
            self.total_search_seconds += search_seconds
            self.seeds_hashed += seeds_hashed
            self.shells_completed += shells_completed
            self.plan_hits += plan_hits
            self.plan_misses += plan_misses
            self.pool_reuses += pool_reuses
            self.preempted += preempted
            self.redispatched += redispatched
            self.hedged += hedged
            self.directory_hot_hits += directory_hot_hits
            self.directory_hot_misses += directory_hot_misses
            self.directory_failovers += directory_failovers
            self.directory_read_repairs += directory_read_repairs
            if queue_depth > self.queue_depth_peak:
                self.queue_depth_peak = queue_depth
        if tenant_id is not None:
            self.tenants.record(
                tenant_id,
                submitted=submitted,
                completed=completed,
                authenticated=authenticated,
                failed=failed,
                search_seconds=search_seconds,
                directory_lookups=directory_hot_hits + directory_hot_misses,
                latency_seconds=search_seconds if completed else None,
            )

    def record_shed(
        self,
        reason: str,
        *,
        failed: int = 0,
        search_seconds: float = 0.0,
        tenant_id: str | None = None,
    ) -> None:
        """The one write path for sheds: total + per-reason, atomically.

        Every shed increments ``shed`` and ``shed_reasons[reason]`` in
        the same critical section, so ``sum(shed_reasons.values()) ==
        shed`` holds at every instant. Reason-specific convenience
        counters (``shed_directory``, ``shed_tenant_quota``) are derived
        here too, never written directly by callers.
        """
        with self._lock:
            self.shed += 1
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
            if reason == SHED_DIRECTORY_UNAVAILABLE:
                self.shed_directory += 1
            elif reason == SHED_TENANT_QUOTA:
                self.shed_tenant_quota += 1
            self.failed += failed
            self.total_search_seconds += search_seconds
        if tenant_id is not None:
            self.tenants.record(
                tenant_id,
                shed=1,
                failed=failed,
                search_seconds=search_seconds,
                quota_hits=1 if reason == SHED_TENANT_QUOTA else 0,
            )

    def record_enrollment(self) -> None:
        """One enrollment acknowledged (durably, when the store has a WAL)."""
        with self._lock:
            self.enrollments += 1

    def record_recovery(self, records: int, seconds: float) -> None:
        """Startup recovery outcome (records replayed, wall-clock cost)."""
        with self._lock:
            self.recovered_records = records
            self.recovery_seconds = seconds

    def snapshot(self) -> dict[str, float]:
        """A consistent copy of the counters."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "authenticated": self.authenticated,
                "failed": self.failed,
                "rejected_busy": self.rejected_busy,
                "rejected_duplicate": self.rejected_duplicate,
                "rejected_open": self.rejected_open,
                "total_search_seconds": self.total_search_seconds,
                "seeds_hashed": self.seeds_hashed,
                "shells_completed": self.shells_completed,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "pool_reuses": self.pool_reuses,
                "shed": self.shed,
                "preempted": self.preempted,
                "queue_depth_peak": self.queue_depth_peak,
                "redispatched": self.redispatched,
                "hedged": self.hedged,
                "directory_hot_hits": self.directory_hot_hits,
                "directory_hot_misses": self.directory_hot_misses,
                "directory_failovers": self.directory_failovers,
                "directory_read_repairs": self.directory_read_repairs,
                "shed_directory": self.shed_directory,
                "shed_tenant_quota": self.shed_tenant_quota,
                "enrollments": self.enrollments,
                "recovered_records": self.recovered_records,
                "recovery_seconds": self.recovery_seconds,
            }

    def shed_breakdown(self) -> dict[str, int]:
        """Per-reason shed counts (sums exactly to ``snapshot()['shed']``)."""
        with self._lock:
            return dict(self.shed_reasons)

    def tenant_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters (see :class:`~repro.tenancy.ledger.TenantLedger`)."""
        return self.tenants.snapshot()


def _directory_record_kwargs(stats: DirectoryStats | None) -> dict[str, int]:
    """ServerMetrics increments for one lookup's directory telemetry."""
    if stats is None:
        return {}
    return {
        "directory_hot_hits": 1 if stats.hot_hit else 0,
        "directory_hot_misses": 0 if stats.hot_hit else 1,
        "directory_failovers": 1 if stats.source == "replica" else 0,
        "directory_read_repairs": stats.read_repairs,
    }


class ConcurrentCAServer:
    """Bounded-concurrency authentication service over one authority."""

    def __init__(
        self,
        authority: CertificateAuthority,
        workers: int = 4,
        max_queue: int = 64,
        breaker: CircuitBreaker | None = None,
        scheduler: FleetSearchEngine | None = None,
        prefetch: bool = True,
        tenants: TenantRegistry | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.authority = authority
        self.max_queue = max_queue
        #: The tenant registry every admission decision consults. Without
        #: one, a quota-free registry is created: every request resolves
        #: to the default tenant and behaves exactly as before tenancy.
        self.tenants = tenants if tenants is not None else TenantRegistry()
        #: Optional breaker guarding the search backend: when open,
        #: searches are refused instantly instead of queued onto a
        #: backend that is known to be failing.
        self.breaker = breaker
        #: Optional scheduler backend: submissions bypass the worker
        #: pool and join the continuous-batching work stream instead.
        self.scheduler = scheduler
        if scheduler is not None:
            # Share one registry with the scheduler's admission policy so
            # token buckets are charged exactly once per submission —
            # by the policy in scheduler mode, by the front door in FIFO
            # mode. A policy that already has its own registry keeps it.
            policy = scheduler.scheduler.policy
            if policy.tenants is None:
                policy.tenants = self.tenants
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="rbc-search"
        )
        # Reentrant on purpose: a SIGTERM handler (which Python runs on
        # the main thread, possibly while submit() holds this lock) that
        # reaches close() must not deadlock against the interrupted
        # frame. With an RLock the nested acquire succeeds and close()
        # only flips the flag; the interrupted submit then observes
        # _closed and refuses typed.
        self._lock = threading.RLock()
        self._in_flight_clients: set[str] = set()
        self._pending = 0
        self.metrics = ServerMetrics()
        self._closed = False
        #: When the authority's image store is a sharded directory,
        #: admitted requests queue their client ids here so the hot cache
        #: is warm by the time a worker picks the search up.
        self.prefetcher: DirectoryPrefetcher | None = None
        image_db = getattr(authority, "image_db", None)
        if prefetch and hasattr(image_db, "prefetch"):
            self.prefetcher = DirectoryPrefetcher(image_db)

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None = None,
        tenant_id: str | None = None,
    ) -> Future:
        """Queue one authentication; returns a Future[AuthenticationResult].

        Raises :class:`~repro.net.errors.ServerClosed` once the server is
        shut down, ``RuntimeError`` on admission-control rejection
        (saturated queue, duplicate in-flight client), and — in scheduler
        mode — :class:`~repro.sched.errors.RequestShed` when the
        scheduler's admission controller refuses the request outright
        (including an exhausted tenant budget, reason ``tenant_quota``).

        ``deadline_seconds`` is the client's own latency bound. In
        scheduler mode it routes the request into the express lane and
        arms deadline shedding; in FIFO mode it tightens the search's
        time budget to ``min(T, deadline)``.

        ``tenant_id`` attributes the request to a registered tenant
        (``None`` rides the default tenant): it selects the directory
        namespace the enrollment record is resolved in, charges the
        tenant's admission budget, and keys the per-tenant telemetry.
        """
        tenant = self.tenants.resolve(tenant_id).tenant_id
        in_flight_key = namespaced_key(tenant, client_id)
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            if self._pending >= self.max_queue:
                self.metrics.record(rejected_busy=1)
                raise RuntimeError("server saturated; retry later")
            if in_flight_key in self._in_flight_clients:
                self.metrics.record(rejected_duplicate=1)
                raise RuntimeError(
                    f"client {client_id!r} already has a search in flight"
                )
            self._in_flight_clients.add(in_flight_key)
            self._pending += 1
        if self.prefetcher is not None:
            self.prefetcher.note(in_flight_key)
        if self.scheduler is not None:
            try:
                return self._submit_scheduled(
                    client_id, digest, deadline_seconds, tenant
                )
            except BaseException:
                self._release(in_flight_key)
                raise
        # FIFO mode has no admission policy, so the front door charges
        # the tenant's token bucket itself (in scheduler mode the
        # policy's admission check charges it — exactly once either way).
        if not self.tenants.try_admit(tenant):
            self._release(in_flight_key)
            self.metrics.record_shed(SHED_TENANT_QUOTA, tenant_id=tenant)
            raise RequestShed(
                SHED_TENANT_QUOTA, f"tenant {tenant!r} over its lookup budget"
            )
        self.metrics.record(submitted=1, tenant_id=tenant)
        future = self._pool.submit(
            self._run, client_id, digest, deadline_seconds, tenant
        )
        future.add_done_callback(lambda _f: self._release(in_flight_key))
        return future

    def _submit_scheduled(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None,
        tenant: str,
    ) -> Future:
        """Scheduler-mode admission: one ticket in the shared work stream."""
        assert self.scheduler is not None
        service = self.authority.search_service
        start = time.perf_counter()
        try:
            seed, directory_stats = self._enrolled_seed(client_id, tenant)
        except DirectoryUnavailable as exc:
            # The whole replica set for this key is down: degraded-mode
            # serving sheds the request with a typed reason instead of
            # surfacing the directory's internal error.
            self.metrics.record_shed(
                SHED_DIRECTORY_UNAVAILABLE, tenant_id=tenant
            )
            raise RequestShed(SHED_DIRECTORY_UNAVAILABLE, str(exc)) from exc
        try:
            ticket = self.scheduler.submit(
                seed,
                digest,
                service.max_distance,
                time_budget=service.time_threshold,
                deadline_seconds=deadline_seconds,
                client_id=client_id,
                tenant=tenant,
            )
        except RequestShed as exc:
            # Refused at the door (unmeetable deadline / saturated lanes /
            # exhausted tenant budget): observable as a typed shed, not a
            # pool rejection.
            self.metrics.record_shed(exc.reason, tenant_id=tenant)
            raise
        self.metrics.record(
            submitted=1,
            queue_depth=int(self.scheduler.scheduler.snapshot()["queue_depth"]),
            tenant_id=tenant,
            **_directory_record_kwargs(directory_stats),
        )
        future: Future = Future()
        future.set_running_or_notify_cancel()
        ticket.add_done_callback(
            lambda t: self._on_ticket_done(t, client_id, start, future, tenant)
        )
        future.add_done_callback(
            lambda _f: self._release(namespaced_key(tenant, client_id))
        )
        return future

    def _on_ticket_done(
        self,
        ticket: FleetSearch,
        client_id: str,
        start: float,
        future: Future,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Runs on the dispatcher thread when a scheduled request settles."""
        elapsed = time.perf_counter() - start
        try:
            result = ticket.result(timeout=0.0)
        except RequestShed as exc:
            self.metrics.record_shed(
                exc.reason, failed=1, search_seconds=elapsed, tenant_id=tenant
            )
            future.set_exception(exc)
            return
        except BaseException as exc:  # pragma: no cover - defensive
            self.metrics.record(failed=1, search_seconds=elapsed)
            future.set_exception(exc)
            return
        try:
            public_key = None
            if result.found:
                assert result.seed is not None
                public_key = self._issue_public_key(
                    client_id, result.seed, tenant
                )
            scheduling = result.scheduling
            fleet = result.fleet
            self.metrics.record(
                completed=1,
                authenticated=1 if result.found else 0,
                search_seconds=elapsed,
                seeds_hashed=result.seeds_hashed,
                shells_completed=len(result.shells),
                preempted=scheduling.preemptions if scheduling else 0,
                redispatched=fleet.redispatched_chunks if fleet else 0,
                hedged=fleet.hedged_batches if fleet else 0,
                tenant_id=tenant,
            )
            future.set_result(
                AuthenticationResult(
                    client_id=client_id,
                    authenticated=result.found,
                    distance=result.distance,
                    public_key=public_key,
                    search_seconds=result.elapsed_seconds,
                    timed_out=result.timed_out,
                )
            )
        except BaseException as exc:  # pragma: no cover - defensive
            future.set_exception(exc)

    def _release(self, in_flight_key: str) -> None:
        with self._lock:
            self._in_flight_clients.discard(in_flight_key)
            self._pending -= 1

    def _enrolled_seed(self, client_id: str, tenant: str = DEFAULT_TENANT):
        """S_init plus directory telemetry; tolerates minimal doubles."""
        # Positional for default-tenant calls so authority doubles
        # (tests, adapters) predating the tenant parameter keep working.
        args = (
            (client_id,)
            if tenant == DEFAULT_TENANT
            else (client_id, tenant)
        )
        with_stats = getattr(self.authority, "enrolled_seed_with_stats", None)
        if with_stats is not None:
            return with_stats(*args)
        return self.authority.enrolled_seed(*args), None

    def _issue_public_key(
        self, client_id: str, seed: bytes, tenant: str
    ) -> bytes:
        """Key issuance, omitting the tenant for legacy authority doubles."""
        if tenant == DEFAULT_TENANT:
            return self.authority.issue_public_key(client_id, seed)
        return self.authority.issue_public_key(
            client_id, seed, tenant_id=tenant
        )

    def _search(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ):
        # Only pass the deadline/tenant when set: authority doubles
        # (tests, adapters) predating the parameters keep working.
        kwargs = (
            {"deadline_seconds": deadline_seconds}
            if deadline_seconds is not None
            else {}
        )
        if tenant != DEFAULT_TENANT:
            kwargs["tenant_id"] = tenant
        if self.breaker is None:
            return self.authority.run_search(client_id, digest, **kwargs)
        # A directory outage is the *directory's* failure, not the search
        # backend's: it must not count against the breaker guarding the
        # search engine (that would convert typed degraded-mode sheds
        # into blanket CircuitOpenError refusals). Smuggle it past the
        # breaker's failure accounting and re-raise outside.
        smuggled: list[DirectoryUnavailable] = []

        def guarded():
            try:
                return self.authority.run_search(client_id, digest, **kwargs)
            except DirectoryUnavailable as exc:
                smuggled.append(exc)
                return None

        result = self.breaker.call(guarded)
        if smuggled:
            raise smuggled[0]
        return result

    def _run(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> AuthenticationResult:
        start = time.perf_counter()
        try:
            result = self._search(client_id, digest, deadline_seconds, tenant)
        except CircuitOpenError:
            self.metrics.record(rejected_open=1, failed=1, tenant_id=tenant)
            raise
        except DirectoryUnavailable as exc:
            # Every replica of this client's enrollment record is down.
            # Shed with a typed reason: the caller can tell "the
            # directory is degraded, retry later" apart from "your
            # authentication failed".
            self.metrics.record_shed(
                SHED_DIRECTORY_UNAVAILABLE,
                failed=1,
                search_seconds=time.perf_counter() - start,
                tenant_id=tenant,
            )
            raise RequestShed(SHED_DIRECTORY_UNAVAILABLE, str(exc)) from exc
        except Exception:
            # A failed search is still a finished search: account for it
            # so `submitted == completed + failed + pending` stays true.
            self.metrics.record(
                failed=1,
                search_seconds=time.perf_counter() - start,
                tenant_id=tenant,
            )
            raise
        public_key = None
        if result.found:
            assert result.seed is not None
            public_key = self._issue_public_key(client_id, result.seed, tenant)
        amortized = getattr(result, "amortized", None)
        self.metrics.record(
            completed=1,
            authenticated=1 if result.found else 0,
            search_seconds=time.perf_counter() - start,
            seeds_hashed=result.seeds_hashed,
            shells_completed=len(result.shells),
            plan_hits=amortized.plan_hits if amortized is not None else 0,
            plan_misses=amortized.plan_misses if amortized is not None else 0,
            pool_reuses=(
                1 if amortized is not None and amortized.pool_reused else 0
            ),
            tenant_id=tenant,
            **_directory_record_kwargs(getattr(result, "directory", None)),
        )
        return AuthenticationResult(
            client_id=client_id,
            authenticated=result.found,
            distance=result.distance,
            public_key=public_key,
            search_seconds=result.elapsed_seconds,
            timed_out=result.timed_out,
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and settle every queued request.

        Deterministic and idempotent. New submissions raise
        :class:`~repro.net.errors.ServerClosed` from the moment the close
        begins. With ``wait=True`` (default) queued and in-flight
        searches drain to completion; with ``wait=False`` queued work is
        cancelled (FIFO mode) or shed with reason ``"shutdown"``
        (scheduler mode) — either way every outstanding future settles
        before this method returns.

        If the authority's search backend is a persistent-pool engine,
        its worker processes are released too — the server was the thing
        keeping them warm. The engine re-spawns its pool transparently if
        the authority is used again afterwards.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.prefetcher is not None:
            self.prefetcher.close()
        # Always wait for *running* searches — a search thread mid-batch
        # holds the executor; tearing the backend down under it would be
        # nondeterministic. ``wait=False`` only cancels the queued tail.
        self._pool.shutdown(wait=True, cancel_futures=not wait)
        if self.scheduler is not None:
            self.scheduler.close(drain=wait)
        service = getattr(self.authority, "search_service", None)
        engine = getattr(service, "engine", None)
        if isinstance(engine, PooledSearchExecutor):
            engine.close()

    def __enter__(self) -> "ConcurrentCAServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
