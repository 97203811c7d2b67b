"""Concurrent CA server: pooling, admission control, metrics."""

import numpy as np
import pytest

from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.keygen.interface import get_keygen
from repro.net.concurrent import ConcurrentCAServer, ServerMetrics
from repro.net.errors import ServerClosed
from repro.net.messages import MetricsSnapshot
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.runtime.executor import BatchSearchExecutor


@pytest.fixture
def fleet_authority():
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            BatchSearchExecutor("sha1", batch_size=8192), max_distance=1
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=EncryptedImageDatabase(b"concurrent-mastr"),
        hash_name="sha1",
    )
    clients = []
    for i in range(6):
        puf = SRAMPuf(num_cells=2048, stable_error=0.001, seed=9000 + i)
        mask = enroll_with_masking(puf, 0, 2048, reads=48,
                                   instability_threshold=0.02)
        client_id = f"c{i}"
        authority.enroll(client_id, mask)
        device = ClientDevice(client_id, puf, noise_target_distance=1,
                              rng=np.random.default_rng(i))
        clients.append((client_id, device, mask))
    return authority, clients


def _digest_for(authority, client_id, device, mask):
    challenge = authority.issue_challenge(client_id)
    return device.respond(challenge, reference_mask=mask)


class TestConcurrentServer:
    def test_parallel_fleet_authenticates(self, fleet_authority):
        authority, clients = fleet_authority
        with ConcurrentCAServer(authority, workers=3) as server:
            futures = []
            for client_id, device, mask in clients:
                digest = _digest_for(authority, client_id, device, mask)
                futures.append(server.submit(client_id, digest))
            results = [f.result(timeout=60) for f in futures]
        assert all(r.authenticated for r in results)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == 6
        assert snapshot["authenticated"] == 6

    def test_duplicate_in_flight_rejected(self, fleet_authority):
        import threading

        authority, clients = fleet_authority
        client_id, device, mask = clients[0]
        digest = _digest_for(authority, client_id, device, mask)
        other_digest = _digest_for(
            authority, clients[1][0], clients[1][1], clients[1][2]
        )
        gate = threading.Event()
        original = authority.run_search

        def gated(cid, d, **kwargs):
            gate.wait(timeout=30)
            return original(cid, d, **kwargs)

        authority.run_search = gated
        try:
            with ConcurrentCAServer(authority, workers=1) as server:
                first = server.submit(clients[1][0], other_digest)
                second = server.submit(client_id, digest)  # queued behind
                with pytest.raises(RuntimeError, match="in flight"):
                    server.submit(client_id, digest)
                gate.set()
                assert first.result(timeout=60) is not None
                assert second.result(timeout=60).authenticated
        finally:
            authority.run_search = original
        assert server.metrics.snapshot()["rejected_duplicate"] == 1

    def test_saturation_rejects(self, fleet_authority):
        import threading

        authority, clients = fleet_authority
        gate = threading.Event()
        original = authority.run_search

        def gated(client_id, digest, **kwargs):
            gate.wait(timeout=30)
            return original(client_id, digest, **kwargs)

        authority.run_search = gated
        try:
            with ConcurrentCAServer(authority, workers=1, max_queue=2) as server:
                submitted = []
                rejected = 0
                for client_id, device, mask in clients[:4]:
                    digest = _digest_for(authority, client_id, device, mask)
                    try:
                        submitted.append(server.submit(client_id, digest))
                    except RuntimeError:
                        rejected += 1
                gate.set()  # unblock the worker
                for future in submitted:
                    future.result(timeout=60)
        finally:
            authority.run_search = original
        assert rejected >= 1
        assert server.metrics.snapshot()["rejected_busy"] >= 1

    def test_closed_server_rejects(self, fleet_authority):
        authority, clients = fleet_authority
        server = ConcurrentCAServer(authority, workers=1)
        server.close()
        server.close()  # idempotent
        client_id, device, mask = clients[0]
        with pytest.raises(ServerClosed, match="closed"):
            server.submit(client_id, b"\x00" * 20)

    def test_failed_auth_counted_but_not_authenticated(self, fleet_authority):
        authority, clients = fleet_authority
        from repro.hashes.sha1 import sha1

        with ConcurrentCAServer(authority, workers=2) as server:
            future = server.submit("c0", sha1(b"not the right seed" + b"\x00" * 14))
            result = future.result(timeout=60)
        assert not result.authenticated
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == 1 and snapshot["authenticated"] == 0

    def test_validation(self, fleet_authority):
        authority, _clients = fleet_authority
        with pytest.raises(ValueError):
            ConcurrentCAServer(authority, workers=0)
        with pytest.raises(ValueError):
            ConcurrentCAServer(authority, max_queue=0)

    def test_backend_exception_recorded_as_failed(self, fleet_authority):
        authority, clients = fleet_authority
        original = authority.run_search

        def exploding(client_id, digest, **kwargs):
            raise RuntimeError("backend died")

        authority.run_search = exploding
        try:
            with ConcurrentCAServer(authority, workers=1) as server:
                future = server.submit("c0", b"\x00" * 20)
                with pytest.raises(RuntimeError, match="backend died"):
                    future.result(timeout=60)
        finally:
            authority.run_search = original
        snapshot = server.metrics.snapshot()
        # The failed search is accounted, not silently dropped:
        # submitted == completed + failed.
        assert snapshot["failed"] == 1
        assert snapshot["completed"] == 0
        assert snapshot["submitted"] == 1


class TestServerMetricsRecord:
    def test_record_is_the_single_write_path(self):
        metrics = ServerMetrics()
        metrics.record(submitted=2, completed=1, authenticated=1,
                       failed=1, search_seconds=0.5)
        metrics.record(rejected_busy=1, rejected_duplicate=2,
                       rejected_open=3, seeds_hashed=257, shells_completed=2)
        metrics.record(plan_hits=4, plan_misses=1, pool_reuses=1)
        metrics.record(preempted=1, queue_depth=5)
        metrics.record(queue_depth=3)  # gauge: peak is kept, not summed
        metrics.record(redispatched=3, hedged=2)
        metrics.record(directory_hot_hits=4, directory_hot_misses=2,
                       directory_failovers=1, directory_read_repairs=2)
        metrics.record_shed("deadline_expired")
        metrics.record_shed("deadline_expired")
        metrics.record_shed("directory_unavailable")
        metrics.record_shed("tenant_quota")
        metrics.record_enrollment()
        metrics.record_enrollment()
        metrics.record_recovery(records=7, seconds=0.25)
        snapshot = metrics.snapshot()
        assert snapshot == {
            "submitted": 2,
            "completed": 1,
            "authenticated": 1,
            "failed": 1,
            "rejected_busy": 1,
            "rejected_duplicate": 2,
            "rejected_open": 3,
            "total_search_seconds": 0.5,
            "seeds_hashed": 257,
            "shells_completed": 2,
            "plan_hits": 4,
            "plan_misses": 1,
            "pool_reuses": 1,
            "shed": 4,
            "preempted": 1,
            "queue_depth_peak": 5,
            "redispatched": 3,
            "hedged": 2,
            "directory_hot_hits": 4,
            "directory_hot_misses": 2,
            "directory_failovers": 1,
            "directory_read_repairs": 2,
            "shed_directory": 1,
            "shed_tenant_quota": 1,
            "enrollments": 2,
            "recovered_records": 7,
            "recovery_seconds": 0.25,
        }

    def test_shed_reasons_can_never_drift_from_the_total(self):
        """record_shed is the only shed path: per-reason counts sum to it."""
        metrics = ServerMetrics()
        # record() deliberately has no shed kwarg anymore.
        with pytest.raises(TypeError):
            metrics.record(shed=1)
        for reason in ("saturated", "deadline_expired", "saturated",
                       "tenant_quota", "directory_unavailable"):
            metrics.record_shed(reason)
        snapshot = metrics.snapshot()
        breakdown = metrics.shed_breakdown()
        assert sum(breakdown.values()) == snapshot["shed"] == 5
        assert breakdown == {
            "saturated": 2,
            "deadline_expired": 1,
            "tenant_quota": 1,
            "directory_unavailable": 1,
        }
        # Derived convenience counters follow the typed reasons exactly.
        assert snapshot["shed_directory"] == 1
        assert snapshot["shed_tenant_quota"] == 1

    def test_record_is_thread_safe(self):
        import threading

        metrics = ServerMetrics()

        def hammer():
            for _ in range(500):
                metrics.record(submitted=1, search_seconds=0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == 4000
        assert snapshot["total_search_seconds"] == pytest.approx(4.0)

    def test_concurrent_record_from_many_threads_loses_nothing(self):
        """Mixed record/record_shed hammering from many threads stays exact."""
        import threading

        metrics = ServerMetrics()
        workers, rounds = 12, 300

        def hammer(worker: int):
            tenant = f"tenant-{worker % 3}"
            for i in range(rounds):
                metrics.record(
                    submitted=1,
                    completed=1,
                    search_seconds=0.001,
                    tenant_id=tenant,
                )
                if i % 3 == 0:
                    metrics.record_shed(
                        "tenant_quota" if i % 2 else "saturated",
                        tenant_id=tenant,
                    )

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = metrics.snapshot()
        assert snapshot["submitted"] == workers * rounds
        assert snapshot["completed"] == workers * rounds
        sheds_each = len([i for i in range(rounds) if i % 3 == 0])
        assert snapshot["shed"] == workers * sheds_each
        assert sum(metrics.shed_breakdown().values()) == snapshot["shed"]
        per_tenant = metrics.tenant_snapshot()
        assert set(per_tenant) == {"tenant-0", "tenant-1", "tenant-2"}
        assert sum(t["submitted"] for t in per_tenant.values()) == (
            workers * rounds
        )
        assert sum(t["shed"] for t in per_tenant.values()) == snapshot["shed"]
        quota_hits = sum(t["quota_hits"] for t in per_tenant.values())
        assert quota_hits == metrics.shed_breakdown()["tenant_quota"]
        for stats in per_tenant.values():
            assert stats["p99_seconds"] == pytest.approx(0.001)


class TestMetricsSnapshotGolden:
    """The wire bytes of a fixed ServerMetrics history never change.

    The literals were captured from the hand-listed counters before they
    moved onto the ``repro.obs`` registry; int-vs-float JSON values
    (``3`` vs ``3.0``) and every snapshot key are part of the contract
    that scrapers (storm gates, perfbench) read.
    """

    @staticmethod
    def _feed(metrics: ServerMetrics) -> None:
        metrics.record(submitted=3, tenant_id="gold")
        metrics.record(submitted=2, tenant_id="brass")
        metrics.record(submitted=1)
        metrics.record(completed=1, authenticated=1, search_seconds=0.1,
                       seeds_hashed=257, shells_completed=2,
                       tenant_id="gold")
        metrics.record(completed=1, authenticated=0, search_seconds=0.2,
                       seeds_hashed=4097, shells_completed=3,
                       tenant_id="gold")
        metrics.record(completed=1, authenticated=1, search_seconds=0.3,
                       plan_hits=4, plan_misses=1, pool_reuses=1,
                       directory_hot_hits=1, tenant_id="brass")
        metrics.record(failed=1, search_seconds=0.05, tenant_id="brass")
        metrics.record(rejected_busy=1, rejected_duplicate=2,
                       rejected_open=3)
        metrics.record(rejected_open=1, failed=1, tenant_id="gold")
        metrics.record(preempted=2, queue_depth=7, tenant_id="gold")
        metrics.record(queue_depth=3)
        metrics.record(redispatched=3, hedged=2)
        metrics.record(directory_hot_hits=4, directory_hot_misses=2,
                       directory_failovers=1, directory_read_repairs=2,
                       tenant_id="gold")
        metrics.record_shed("deadline_expired", failed=1,
                            search_seconds=0.7, tenant_id="gold")
        metrics.record_shed("tenant_quota", tenant_id="brass")
        metrics.record_shed("tenant_quota", tenant_id="brass")
        metrics.record_shed("directory_unavailable", failed=1,
                            search_seconds=0.01, tenant_id="gold")
        metrics.record_shed("saturated", tenant_id="tin")
        metrics.record_enrollment()
        metrics.record_enrollment()
        metrics.record_recovery(records=7, seconds=0.25)

    @staticmethod
    def _frame(metrics: ServerMetrics, include_tenants: bool) -> bytes:
        return MetricsSnapshot(
            counters=metrics.snapshot(),
            shed_reasons=metrics.shed_breakdown(),
            tenants=metrics.tenant_snapshot() if include_tenants else {},
        ).to_bytes()

    GOLDEN = (
        b'{"counters":{"authenticated":2,"completed":3,'
        b'"directory_failovers":1,"directory_hot_hits":5,'
        b'"directory_hot_misses":2,"directory_read_repairs":2,'
        b'"enrollments":2,"failed":4,"hedged":2,"plan_hits":4,'
        b'"plan_misses":1,"pool_reuses":1,"preempted":2,'
        b'"queue_depth_peak":7,"recovered_records":7,'
        b'"recovery_seconds":0.25,"redispatched":3,"rejected_busy":1,'
        b'"rejected_duplicate":2,"rejected_open":4,"seeds_hashed":4354,'
        b'"shed":5,"shed_directory":1,"shed_tenant_quota":2,'
        b'"shells_completed":5,"submitted":6,'
        b'"total_search_seconds":1.36},"crc":"08876888",'
        b'"shed_reasons":{"deadline_expired":1,'
        b'"directory_unavailable":1,"saturated":1,"tenant_quota":2},'
        b'"type":"metrics_snapshot"}'
    )

    GOLDEN_TENANTS = (
        b'{"counters":{"authenticated":2,"completed":3,'
        b'"directory_failovers":1,"directory_hot_hits":5,'
        b'"directory_hot_misses":2,"directory_read_repairs":2,'
        b'"enrollments":2,"failed":4,"hedged":2,"plan_hits":4,'
        b'"plan_misses":1,"pool_reuses":1,"preempted":2,'
        b'"queue_depth_peak":7,"recovered_records":7,'
        b'"recovery_seconds":0.25,"redispatched":3,"rejected_busy":1,'
        b'"rejected_duplicate":2,"rejected_open":4,"seeds_hashed":4354,'
        b'"shed":5,"shed_directory":1,"shed_tenant_quota":2,'
        b'"shells_completed":5,"submitted":6,'
        b'"total_search_seconds":1.36},"crc":"ed5f7bc6",'
        b'"shed_reasons":{"deadline_expired":1,'
        b'"directory_unavailable":1,"saturated":1,"tenant_quota":2},'
        b'"tenants":{"brass":{"authenticated":1,"completed":1,'
        b'"directory_lookups":1,"failed":1,"p50_seconds":0.3,'
        b'"p99_seconds":0.3,"quota_hits":2,"search_seconds":0.35,'
        b'"shed":2,"submitted":2},"gold":{"authenticated":1,'
        b'"completed":2,"directory_lookups":6,"failed":3,'
        b'"p50_seconds":0.15,"p99_seconds":0.199,"quota_hits":0,'
        b'"search_seconds":1.01,"shed":2,"submitted":3},'
        b'"tin":{"authenticated":0,"completed":0,"directory_lookups":0,'
        b'"failed":0,"quota_hits":0,"search_seconds":0.0,"shed":1,'
        b'"submitted":0}},"type":"metrics_snapshot"}'
    )

    def test_counters_frame_is_byte_identical(self):
        metrics = ServerMetrics()
        self._feed(metrics)
        assert self._frame(metrics, include_tenants=False) == self.GOLDEN

    def test_tenant_frame_is_byte_identical(self):
        metrics = ServerMetrics()
        self._feed(metrics)
        assert (
            self._frame(metrics, include_tenants=True) == self.GOLDEN_TENANTS
        )

    def test_shed_total_is_the_breakdown_sum(self):
        metrics = ServerMetrics()
        self._feed(metrics)
        assert sum(metrics.shed_breakdown().values()) == (
            metrics.snapshot()["shed"]
        )


class TestAdmissionControlUnderConcurrency:
    def test_saturation_storm_keeps_counters_consistent(self, fleet_authority):
        """Many threads push past max_queue; nothing leaks or double-counts."""
        import threading

        authority, clients = fleet_authority
        gate = threading.Event()
        original = authority.run_search

        def gated(client_id, digest, **kwargs):
            gate.wait(timeout=30)
            return original(client_id, digest, **kwargs)

        authority.run_search = gated
        max_queue = 3
        attempts_per_thread = 4
        threads = 8
        accepted, rejected_busy, rejected_dup = [], [], []
        record_lock = threading.Lock()

        try:
            with ConcurrentCAServer(
                authority, workers=2, max_queue=max_queue
            ) as server:
                digests = {
                    client_id: _digest_for(authority, client_id, device, mask)
                    for client_id, device, mask in clients
                }

                def storm(thread_index):
                    for attempt in range(attempts_per_thread):
                        client_id, _device, _mask = clients[
                            (thread_index + attempt) % len(clients)
                        ]
                        try:
                            future = server.submit(client_id, digests[client_id])
                            with record_lock:
                                accepted.append(future)
                        except RuntimeError as exc:
                            with record_lock:
                                if "saturated" in str(exc):
                                    rejected_busy.append(client_id)
                                else:
                                    rejected_dup.append(client_id)

                    # In-flight load never exceeds the admission limit.
                    assert server._pending <= max_queue

                workers = [
                    threading.Thread(target=storm, args=(i,))
                    for i in range(threads)
                ]
                for t in workers:
                    t.start()
                gate.set()
                for t in workers:
                    t.join()
                results = [f.result(timeout=60) for f in accepted]
        finally:
            authority.run_search = original

        snapshot = server.metrics.snapshot()
        total_attempts = threads * attempts_per_thread
        # Every attempt is accounted exactly once.
        assert (
            len(accepted) + len(rejected_busy) + len(rejected_dup)
            == total_attempts
        )
        assert snapshot["submitted"] == len(accepted)
        assert snapshot["rejected_busy"] == len(rejected_busy)
        assert snapshot["rejected_duplicate"] == len(rejected_dup)
        # Every accepted search finished (this backend cannot fail).
        assert snapshot["completed"] == len(accepted)
        assert snapshot["failed"] == 0
        assert all(r.authenticated for r in results)
        # The queue fully drained.
        assert server._pending == 0
        assert not server._in_flight_clients

    def test_breaker_guards_the_backend(self, fleet_authority):
        from repro.reliability.breaker import (
            CircuitBreaker,
            CircuitOpenError,
        )
        from repro.reliability.faults import VirtualClock

        authority, clients = fleet_authority
        clock = VirtualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=60.0, clock=clock.now
        )
        original = authority.run_search

        def exploding(client_id, digest, **kwargs):
            raise RuntimeError("sick accelerator")

        authority.run_search = exploding
        try:
            with ConcurrentCAServer(
                authority, workers=1, breaker=breaker
            ) as server:
                with pytest.raises(RuntimeError, match="sick accelerator"):
                    server.submit("c0", b"\x00" * 20).result(timeout=60)
                # Breaker now open: refused without touching the backend.
                authority.run_search = original
                with pytest.raises(CircuitOpenError):
                    server.submit("c1", b"\x00" * 20).result(timeout=60)
        finally:
            authority.run_search = original
        snapshot = server.metrics.snapshot()
        assert snapshot["rejected_open"] == 1
        assert snapshot["failed"] == 2
        assert breaker.state == "open"


class TestFleetBackedServer:
    """Satellite: close() drain-or-cancel while a fleet device is
    quarantined mid-drain — no hang, typed ServerClosed afterwards."""

    def test_close_drains_on_survivor_while_device_quarantined(
        self, fleet_authority
    ):
        from repro.fleet import FleetSearchEngine

        authority, clients = fleet_authority
        fleet = FleetSearchEngine(
            "host",
            "host",
            hash_name="sha1",
            batch_size=8192,
            heartbeat_seconds=0.01,
        )
        server = ConcurrentCAServer(authority, scheduler=fleet)
        futures = []
        for client_id, device, mask in clients[:4]:
            digest = _digest_for(authority, client_id, device, mask)
            futures.append(server.submit(client_id, digest))
        # Kill one device while its share of the work is in flight; the
        # drain must complete on the survivor without hanging.
        victim = fleet.scheduler.devices[-1].name
        fleet.scheduler.kill_device(victim)
        server.close(wait=True)
        results = [f.result(timeout=1.0) for f in futures]  # all settled
        assert all(r.authenticated for r in results)
        with pytest.raises(ServerClosed):
            server.submit("late", b"\x00" * 20)
        snapshot = server.metrics.snapshot()
        assert snapshot["completed"] == len(results)
        # The fleet counters are part of the server's metric surface.
        assert "redispatched" in snapshot and "hedged" in snapshot
        assert snapshot["redispatched"] >= 0

    def test_fleet_backed_server_reports_redispatch(self, fleet_authority):
        from repro.fleet import FleetSearchEngine

        authority, clients = fleet_authority
        fleet = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=8192
        )
        with ConcurrentCAServer(authority, scheduler=fleet) as server:
            futures = []
            for client_id, device, mask in clients[:3]:
                digest = _digest_for(authority, client_id, device, mask)
                futures.append(server.submit(client_id, digest))
            results = [f.result(timeout=120) for f in futures]
        assert all(r.authenticated for r in results)
        snapshot = server.metrics.snapshot()
        assert snapshot["authenticated"] == len(results)
        assert snapshot["queue_depth_peak"] >= 1


class _LyingTicket:
    """A scheduler ticket whose found seed is swapped for a wrong one."""

    def __init__(self, ticket, seed):
        self._ticket = ticket
        self._seed = seed

    def add_done_callback(self, fn):
        self._ticket.add_done_callback(lambda _ticket: fn(self))

    def result(self, timeout=None):
        import dataclasses

        return dataclasses.replace(
            self._ticket.result(timeout=timeout), seed=self._seed
        )


class _LyingService:
    """A search service whose found seed is swapped for a wrong one."""

    def __init__(self, service, seed):
        self._service = service
        self._seed = seed

    def __getattr__(self, name):
        return getattr(self._service, name)

    def find_seed(self, *args, **kwargs):
        import dataclasses

        return dataclasses.replace(
            self._service.find_seed(*args, **kwargs), seed=self._seed
        )


class TestFalseAuthenticationTripwire:
    """A found seed that does not hash to the submitted M1 is counted,
    whichever serving path issued the key."""

    @pytest.mark.parametrize("mode", ["fifo", "sched"])
    def test_wrong_found_seed_is_a_false_authentication(
        self, fleet_authority, mode
    ):
        from repro.core.authentication import VerifyingAuthority
        from repro.engines import build_engine

        authority, clients = fleet_authority
        client_id, device, mask = clients[0]
        digest = _digest_for(authority, client_id, device, mask)
        wrong_seed = bytes(32)
        scheduler = None
        if mode == "fifo":
            authority.search_service = _LyingService(
                authority.search_service, wrong_seed
            )
        else:
            scheduler = build_engine("sched", hash_name="sha1", batch_size=8192)
            submit = scheduler.submit
            scheduler.submit = lambda *a, **kw: _LyingTicket(
                submit(*a, **kw), wrong_seed
            )
        verifying = VerifyingAuthority(authority)
        verifying.record_digest(client_id, digest)
        with ConcurrentCAServer(
            verifying, workers=1, scheduler=scheduler
        ) as server:
            result = server.submit(client_id, digest).result(timeout=60)
        assert result.authenticated
        assert verifying.false_authentications == 1
