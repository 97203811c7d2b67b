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
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.analysis.metrics import percentile
from repro.core.authentication import CertificateAuthority
from repro.directory.errors import DirectoryUnavailable
from repro.directory.prefetch import DirectoryPrefetcher
from repro.engines.result import DirectoryStats
from repro.net.errors import ServerClosed
from repro.net.messages import AuthenticationResult
from repro.obs import Counters
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.runtime.pool import PooledSearchExecutor
from repro.sched.errors import (
    SHED_DIRECTORY_UNAVAILABLE,
    SHED_TENANT_QUOTA,
    RequestShed,
)
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key
from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:
    from repro.fleet.dispatcher import FleetSearch
    from repro.fleet.engine import FleetSearchEngine

__all__ = ["ServerMetrics", "ConcurrentCAServer"]


#: Most recent latency observations kept per tenant for percentiles.
_LATENCY_WINDOW = 1024

#: Every stored ServerMetrics counter, declared once. ``shed``,
#: ``shed_directory`` and ``shed_tenant_quota`` are not stored: a
#: snapshot derives them from the per-reason shed counts.
_COUNTERS: dict[str, type[int] | type[float]] = {
    **dict.fromkeys(
        (
            # Requests admitted, finished, and refused at the door.
            "submitted", "completed", "authenticated", "failed",
            "rejected_busy", "rejected_duplicate", "rejected_open",
            # Engine telemetry off each search result, and the mask-plan
            # cache and warm pool of amortized engines.
            "seeds_hashed", "shells_completed",
            "plan_hits", "plan_misses", "pool_reuses",
            # Scheduler and fleet modes: preemptions, deepest queue seen,
            # chunks replayed after a device loss, hedged batches.
            "preempted", "queue_depth_peak", "redispatched", "hedged",
            # Sharded directory: hot-cache hits/misses, replica
            # failovers, stale or missing replica copies repaired.
            "directory_hot_hits", "directory_hot_misses",
            "directory_failovers", "directory_read_repairs",
            # WAL-backed store: durable enrollments, records recovered.
            "enrollments", "recovered_records",
        ),
        int,
    ),
    "total_search_seconds": float,
    "recovery_seconds": float,
}


class ServerMetrics:
    """Operational counters, in total and per tenant (thread-safe).

    The tenant is a label on one :class:`~repro.obs.Counters`. Sheds are
    counted per ``(reason, tenant)`` and every shed total is derived from
    those counts, so ``sum(shed_breakdown().values()) ==
    snapshot()["shed"]`` holds by construction.
    """

    def __init__(self) -> None:
        self._counters = Counters[str](**_COUNTERS)
        self._sheds = Counters[tuple[str, str | None]](shed=int)
        self._latencies: dict[str, deque[float]] = {}
        self._latency_lock = threading.Lock()

    def record(
        self,
        *,
        search_seconds: float = 0.0,
        queue_depth: int = 0,
        tenant_id: str | None = None,
        **counts: int,
    ) -> None:
        """Atomically add to declared counters — the one write path.

        ``search_seconds`` adds to ``total_search_seconds`` and, for a
        completed request, joins the tenant's latency window.
        ``queue_depth`` is a gauge observation kept as the
        ``queue_depth_peak`` high-water mark. Sheds are not recordable
        here (``record(shed=1)`` is a ``TypeError``): every shed goes
        through :meth:`record_shed`.
        """
        self._counters.add(
            tenant_id, total_search_seconds=search_seconds, **counts
        )
        if queue_depth:
            self._counters.peak(queue_depth_peak=queue_depth)
        if tenant_id is not None and counts.get("completed"):
            with self._latency_lock:
                self._latencies.setdefault(
                    tenant_id, deque(maxlen=_LATENCY_WINDOW)
                ).append(search_seconds)

    def record_directory(
        self, stats: DirectoryStats | None, tenant_id: str | None = None
    ) -> None:
        """One lookup's enrollment-directory telemetry, if it has any."""
        if stats is not None:
            self._counters.add(
                tenant_id,
                directory_hot_hits=int(stats.hot_hit),
                directory_hot_misses=int(not stats.hot_hit),
                directory_failovers=int(stats.source == "replica"),
                directory_read_repairs=stats.read_repairs,
            )

    def record_shed(
        self,
        reason: str,
        *,
        failed: int = 0,
        search_seconds: float = 0.0,
        tenant_id: str | None = None,
    ) -> None:
        """The one write path for sheds: one count for ``reason``."""
        self._counters.add(
            tenant_id, failed=failed, total_search_seconds=search_seconds
        )
        self._sheds.add((reason, tenant_id), shed=1)

    def record_enrollment(self) -> None:
        """One enrollment acknowledged (durably, when the store has a WAL)."""
        self._counters.add(enrollments=1)

    def record_recovery(self, records: int, seconds: float) -> None:
        """Startup recovery outcome (records replayed, wall-clock cost)."""
        self._counters.set(recovered_records=records, recovery_seconds=seconds)

    def snapshot(self) -> dict[str, float]:
        """A copy of the counters, shed totals included."""
        counters, _ = self._counters.snapshot()
        sheds = self.shed_breakdown()
        counters["shed"] = sum(sheds.values())
        counters["shed_directory"] = sheds.get(SHED_DIRECTORY_UNAVAILABLE, 0)
        counters["shed_tenant_quota"] = sheds.get(SHED_TENANT_QUOTA, 0)
        return counters

    def shed_breakdown(self) -> dict[str, int]:
        """Per-reason shed counts (sums exactly to ``snapshot()['shed']``)."""
        breakdown: dict[str, int] = {}
        for (reason, _), row in self._sheds.snapshot()[1].items():
            breakdown[reason] = breakdown.get(reason, 0) + int(row["shed"])
        return breakdown

    def tenant_snapshot(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters, with latency percentiles once completed."""
        rows = self._counters.snapshot()[1]
        sheds = self._sheds.snapshot()[1]
        with self._latency_lock:
            windows = {t: list(w) for t, w in self._latencies.items()}
        report: dict[str, dict[str, float]] = {}
        for tenant in sorted(rows):
            row = rows[tenant]
            shed = {r: n["shed"] for (r, t), n in sheds.items() if t == tenant}
            entry = {
                name: row[name]
                for name in ("submitted", "completed", "authenticated", "failed")
            }
            entry["shed"] = sum(shed.values())
            entry["quota_hits"] = shed.get(SHED_TENANT_QUOTA, 0)
            entry["directory_lookups"] = (
                row["directory_hot_hits"] + row["directory_hot_misses"]
            )
            entry["search_seconds"] = row["total_search_seconds"]
            if tenant in windows:
                entry["p50_seconds"] = round(percentile(windows[tenant], 50), 6)
                entry["p99_seconds"] = round(percentile(windows[tenant], 99), 6)
            report[tenant] = entry
        return report


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
            seed, directory_stats = self.authority.enrolled_seed_with_stats(
                client_id, tenant
            )
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
        )
        self.metrics.record_directory(directory_stats, tenant)
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
                public_key = self.authority.issue_public_key(
                    client_id, result.seed, tenant_id=tenant
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

    def _search(
        self,
        client_id: str,
        digest: bytes,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ):
        def search():
            return self.authority.run_search(
                client_id,
                digest,
                deadline_seconds=deadline_seconds,
                tenant_id=tenant,
            )

        if self.breaker is None:
            return search()
        # A directory outage is the *directory's* failure, not the search
        # backend's: it must not count against the breaker guarding the
        # search engine (that would convert typed degraded-mode sheds
        # into blanket CircuitOpenError refusals). Smuggle it past the
        # breaker's failure accounting and re-raise outside.
        smuggled: list[DirectoryUnavailable] = []

        def guarded():
            try:
                return search()
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
            public_key = self.authority.issue_public_key(
                client_id, result.seed, tenant_id=tenant
            )
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
        )
        self.metrics.record_directory(getattr(result, "directory", None), tenant)
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
