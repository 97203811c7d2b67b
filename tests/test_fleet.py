"""Fault-tolerant multi-device dispatch (repro.fleet).

Four layers of coverage: the replay machinery that re-dispatch rides on
(cursor push-back, order preservation); one device's health lifecycle
(kill, quarantine, probation, reinstatement); the dispatcher's
protocol-level invariants (byte equivalence with the single-device
engine, re-dispatch after a mid-search kill, grace shedding when the
whole fleet is dark, hedged stragglers); and the device-loss chaos storm
that exercises all of it at once.
"""

import time

import numpy as np
import pytest

from repro._bitutils import SEED_BITS, flip_bits
from repro.devices.flaky import DeviceFailure, FlakyDeviceModel
from repro.engines import build_engine, engine_target
from repro.fleet import (
    DEVICE_WEIGHTS,
    FleetDevice,
    FleetSearchEngine,
    run_device_loss_storm,
)
from repro.reliability.breaker import CircuitBreaker
from repro.runtime.executor import BatchSearchExecutor
from repro.sched import (
    SHED_NO_DEVICES,
    SHED_SHUTDOWN,
    RequestShed,
    SchedulerClosed,
    decompose_search,
)
from repro.sched.batcher import UnitCursor

RNG = np.random.default_rng(20260805)
BASE_SEED = RNG.bytes(32)


def _planted(distance, rng):
    positions = sorted(
        int(p) for p in rng.choice(SEED_BITS, size=distance, replace=False)
    )
    return flip_bits(BASE_SEED, positions)


# -- the replay machinery re-dispatch rides on --------------------------


class TestCursorReplay:
    @pytest.fixture
    def executor(self):
        return BatchSearchExecutor("sha1", batch_size=2048, cache=True)

    def _cursor(self, executor):
        """A cursor positioned past the single-row distance-0 probe."""
        cursor = UnitCursor(executor, decompose_search(1, chunk_ranks=2048))
        distance, probe = cursor.take(64)
        assert distance == 0 and probe.shape[0] == 1
        return cursor

    def test_pushed_back_slice_is_served_first_and_byte_identical(
        self, executor
    ):
        cursor = self._cursor(executor)
        distance, rows = cursor.take(64)
        cursor.push_back(distance, rows.copy())
        replay_distance, replayed = cursor.take(64)
        assert replay_distance == distance
        assert np.array_equal(replayed, rows)

    def test_reverse_push_back_restores_original_order(self, executor):
        """The dispatcher pushes a failed batch's slices back in reverse."""
        cursor = self._cursor(executor)
        first = cursor.take(32)
        second = cursor.take(32)
        for distance, rows in reversed([first, second]):
            cursor.push_back(distance, rows.copy())
        assert np.array_equal(cursor.take(32)[1], first[1])
        assert np.array_equal(cursor.take(32)[1], second[1])

    def test_oversized_replay_slice_is_split(self, executor):
        cursor = self._cursor(executor)
        distance, rows = cursor.take(90)
        cursor.push_back(distance, rows.copy())
        _d, head = cursor.take(30)
        assert head.shape[0] == 30
        _d, tail = cursor.take(90)
        assert tail.shape[0] == 60
        assert np.array_equal(np.vstack([head, tail]), rows)

    def test_pending_chunks_counts_replay(self, executor):
        cursor = self._cursor(executor)
        before = cursor.pending_chunks
        distance, rows = cursor.take(16)
        cursor.push_back(distance, rows)
        cursor.push_back(distance, rows)
        # The partially-served unit still counts once; each pushed-back
        # slice adds one replay chunk in front of it.
        assert cursor.pending_chunks == before + 2
        assert not cursor.exhausted


# -- flaky-device composability (satellite: from_token) -----------------


class TestFlakyFromToken:
    def test_flaky_token_schedules_failure_episodes(self):
        model = FlakyDeviceModel.from_token("flaky-gpu", seed=3)
        episodes = model.injector.episodes
        assert len(episodes) == 1
        lo, hi = episodes[0]
        assert hi - lo == 6  # default episode length

    def test_health_probe_peeks_without_consuming(self):
        model = FlakyDeviceModel.from_token(
            "flaky-cpu", seed=1, episode_length=4
        )
        lo, _hi = model.injector.episodes[0]
        calls_before = model.injector.calls
        assert model.health_probe() == (not lo <= calls_before < 4 + lo)
        assert model.injector.calls == calls_before

    def test_slow_token_throttles_but_never_fails(self):
        model = FlakyDeviceModel.from_token("slow-host", seed=2)
        assert model.injector.episodes == ()
        assert model.health_probe()
        assert all(model.injector.next() == "slow" for _ in range(10))

    def test_unknown_base_token_rejected(self):
        with pytest.raises(ValueError):
            FlakyDeviceModel.from_token("flaky-quantum")

    def test_registry_spec_composes_mixed_fleet(self):
        """Satellite acceptance: ``fleet:gpu,flaky-apu`` just works."""
        engine = build_engine("fleet:gpu,flaky-apu,hash=sha1,bs=2048")
        try:
            devices = engine.scheduler.devices
            assert [d.name for d in devices] == ["gpu-0", "flaky-apu-1"]
            assert devices[0].model is None
            assert devices[1].injector is not None
            assert devices[0].weight == DEVICE_WEIGHTS["gpu"]
            assert devices[1].weight == DEVICE_WEIGHTS["apu"]
        finally:
            engine.close()

    def test_unknown_device_token_rejected_at_build(self):
        with pytest.raises(ValueError):
            build_engine("fleet:warp-drive,host")


# -- one device's health lifecycle --------------------------------------


class TestFleetDevice:
    def _device(self, **kwargs):
        executor = BatchSearchExecutor("sha1", batch_size=1024)
        kwargs.setdefault(
            "breaker",
            CircuitBreaker(failure_threshold=2, recovery_seconds=0.05),
        )
        return FleetDevice("dev-0", executor.algo, **kwargs)

    def test_killed_device_fails_probes_into_quarantine(self):
        device = self._device()
        assert device.probe() and device.health == "healthy"
        device.kill()
        assert not device.probe()
        assert not device.probe()
        assert device.health == "quarantined"
        assert not device.placeable

    def test_revived_device_passes_probation_back_to_healthy(self):
        device = self._device()
        device.kill()
        device.probe()
        device.probe()
        device.revive()
        time.sleep(0.06)  # recovery_seconds elapses -> half-open
        assert device.health == "probation"
        assert device.probe()
        assert device.health == "healthy"

    def test_run_batch_on_killed_device_raises_and_counts(self):
        device = self._device()
        device.kill()
        with pytest.raises(DeviceFailure):
            device.run_batch(())
        assert device.failures == 1
        assert device.batches == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            self._device(weight=0.0)


# -- dispatcher invariants ----------------------------------------------


@pytest.fixture
def engine():
    engine = FleetSearchEngine(
        "host", "host", hash_name="sha1", batch_size=4096, chunk_ranks=8192
    )
    yield engine
    engine.close()


class TestFleetCore:
    def test_byte_identical_to_single_device_engine(self, engine):
        reference = build_engine("batch:sha1,bs=4096")
        rng = np.random.default_rng(7)
        for distance in (0, 1, 2):
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            fleet_result = engine.search(BASE_SEED, target, 2)
            single = reference.search(BASE_SEED, target, 2)
            assert fleet_result.found and single.found
            assert fleet_result.seed == single.seed == client_seed
            assert fleet_result.distance == single.distance == distance

    def test_concurrent_results_stay_byte_identical(self, engine):
        rng = np.random.default_rng(11)
        requests = []
        for index in range(6):
            distance = index % 3
            client_seed = _planted(distance, rng)
            target = engine_target(engine, client_seed)
            requests.append((client_seed, distance, target))
        tickets = [
            engine.submit(BASE_SEED, target, 2, client_id=f"f{i}")
            for i, (_s, _d, target) in enumerate(requests)
        ]
        for ticket, (client_seed, distance, _t) in zip(tickets, requests):
            result = ticket.result(timeout=120)
            assert result.found
            assert result.seed == client_seed
            assert result.distance == distance

    def test_fleet_stats_attached_to_results(self, engine):
        client_seed = _planted(1, np.random.default_rng(3))
        target = engine_target(engine, client_seed)
        result = engine.search(BASE_SEED, target, 2)
        stats = result.fleet
        assert stats is not None
        names = {d.name for d in engine.scheduler.devices}
        assert stats.finder_device in names
        assert set(dict(stats.batches_by_device)) <= names
        assert sum(dict(stats.batches_by_device).values()) >= 1
        assert stats.redispatched_chunks == 0

    def test_kill_mid_search_redispatches_onto_survivor(self, engine):
        """The tentpole invariant: orphaned chunks replay, result intact."""
        absent = engine_target(engine, RNG.bytes(32))
        ticket = engine.submit(BASE_SEED, absent, 3, client_id="victim-req")
        victim = ticket.device.name
        time.sleep(0.05)  # let the device take some batches first
        engine.scheduler.kill_device(victim)
        result = ticket.result(timeout=120)
        # The exhaustive search still covered every candidate: a clean
        # not-found, not a lie manufactured by the dead device.
        assert result.found is False
        assert result.timed_out is False
        snapshot = engine.scheduler.snapshot()
        assert snapshot["redispatched_chunks"] > 0
        assert result.fleet.redispatched_chunks > 0
        assert snapshot["quarantines"] >= 1

    def test_whole_fleet_dark_sheds_with_typed_reason(self):
        engine = FleetSearchEngine(
            "host",
            "host",
            hash_name="sha1",
            batch_size=4096,
            heartbeat_seconds=0.01,
            no_device_grace=0.2,
        )
        try:
            absent = engine_target(engine, RNG.bytes(32))
            ticket = engine.submit(BASE_SEED, absent, 3, client_id="doomed")
            for device in engine.scheduler.devices:
                engine.scheduler.kill_device(device.name)
            with pytest.raises(RequestShed) as excinfo:
                ticket.result(timeout=30)
            assert excinfo.value.reason == SHED_NO_DEVICES
            assert (
                engine.scheduler.snapshot()["shed_reasons"][SHED_NO_DEVICES]
                >= 1
            )
        finally:
            engine.close(drain=False)

    def test_killed_device_is_quarantined_then_reinstated(self, engine):
        # The monitor thread spins up on first submission.
        client_seed = _planted(1, np.random.default_rng(5))
        assert engine.search(
            BASE_SEED, engine_target(engine, client_seed), 1
        ).found
        victim = engine.scheduler.devices[1].name
        engine.scheduler.kill_device(victim)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if engine.scheduler.device(victim).health == "quarantined":
                break
            time.sleep(0.01)
        assert engine.scheduler.device(victim).health == "quarantined"
        engine.scheduler.revive_device(victim)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if engine.scheduler.device(victim).health == "healthy":
                break
            time.sleep(0.01)
        assert engine.scheduler.device(victim).health == "healthy"
        snapshot = engine.scheduler.snapshot()
        assert snapshot["quarantines"] >= 1
        assert snapshot["reinstatements"] >= 1

    def test_admitted_implies_completed_or_shed(self, engine):
        rng = np.random.default_rng(23)
        tickets = []
        for index in range(6):
            client_seed = _planted(index % 3, rng)
            target = engine_target(engine, client_seed)
            budget = None if index % 2 == 0 else 30.0
            tickets.append(
                engine.submit(
                    BASE_SEED,
                    target,
                    2,
                    time_budget=budget,
                    client_id=f"mix-{index}",
                )
            )
        for ticket in tickets:
            try:
                ticket.result(timeout=120)
            except RequestShed as exc:
                assert exc.reason
        snapshot = engine.scheduler.snapshot()
        assert snapshot["admitted"] == len(tickets)
        assert snapshot["admitted"] == snapshot["completed"] + snapshot["shed"]
        assert snapshot["queue_depth"] == 0


class TestHedging:
    def test_idle_device_hedges_a_straggler_batch(self):
        """A throttled device's old batch gets duplicated onto the idle one."""
        engine = FleetSearchEngine(
            "host",
            "slow-host",
            hash_name="sha1",
            batch_size=4096,
            chunk_ranks=8192,
            slow_factor=30.0,
            hedge_factor=1.0,
            hedge_min_seconds=0.02,
        )
        try:
            filler_target = engine_target(engine, RNG.bytes(32))
            straggler_target = engine_target(engine, RNG.bytes(32))
            # Placement is least-loaded: the filler takes host-0, which
            # forces the straggler onto the throttled device. The filler
            # finishes quickly, idling host-0 next to a straggling batch.
            filler = engine.submit(
                BASE_SEED, filler_target, 2, client_id="filler"
            )
            straggler = engine.submit(
                BASE_SEED,
                straggler_target,
                3,
                time_budget=20.0,
                client_id="straggler",
            )
            assert straggler.device.name == "slow-host-1"
            assert filler.result(timeout=60).found is False
            result = straggler.result(timeout=120)
            assert result.found is False
            snapshot = engine.scheduler.snapshot()
        finally:
            engine.close(drain=False)
        assert snapshot["hedges_launched"] >= 1
        # Every race has exactly one winner and one loser: a winning
        # hedge also cancels its primary, so each counter is bounded by
        # the launches but their sum is not.
        assert snapshot["hedge_wins"] <= snapshot["hedges_launched"]
        assert snapshot["hedges_cancelled"] <= snapshot["hedges_launched"]
        assert result.fleet.hedged_batches >= 1


class TestFleetClose:
    def test_close_is_idempotent_and_rejects_new_work(self):
        engine = FleetSearchEngine("host", "host", hash_name="sha1")
        engine.close()
        engine.close()
        with pytest.raises(SchedulerClosed):
            engine.submit(BASE_SEED, b"\x00" * 20, 1)

    def test_close_drains_in_flight_requests(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        client_seed = _planted(1, np.random.default_rng(9))
        target = engine_target(engine, client_seed)
        ticket = engine.submit(BASE_SEED, target, 2, client_id="drain")
        engine.close(drain=True)
        result = ticket.result(timeout=1.0)  # already resolved
        assert result.found and result.seed == client_seed

    def test_close_without_drain_sheds_with_shutdown_reason(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        absent = engine_target(engine, RNG.bytes(32))
        tickets = [
            engine.submit(BASE_SEED, absent, 3, client_id=f"s{i}")
            for i in range(3)
        ]
        engine.close(drain=False)
        reasons = set()
        for ticket in tickets:
            assert ticket.done()
            try:
                ticket.result(timeout=1.0)
            except RequestShed as exc:
                reasons.add(exc.reason)
        assert reasons <= {SHED_SHUTDOWN}
        assert engine.scheduler.snapshot()["queue_depth"] == 0

    def test_describe_round_trips_the_spec(self):
        engine = FleetSearchEngine(
            "host", "host", hash_name="sha1", batch_size=4096
        )
        try:
            assert engine.describe().startswith("fleet:host,host")
            rebuilt = build_engine(engine.describe())
            try:
                assert rebuilt.batch_size == engine.batch_size
                assert len(rebuilt.scheduler.devices) == 2
            finally:
                rebuilt.close()
        finally:
            engine.close()

    def test_default_fleet_is_two_hosts(self):
        engine = FleetSearchEngine(hash_name="sha1")
        try:
            assert [d.name for d in engine.scheduler.devices] == [
                "host-0",
                "host-1",
            ]
        finally:
            engine.close()


# -- the chaos storm (satellite: device killed at 25%, revived at 75%) --


class TestDeviceLossStorm:
    def test_storm_passes_all_hard_invariants(self):
        report = run_device_loss_storm(seed=0, requests=8)
        assert report.passed, report.render()
        assert report.lost_requests == 0
        assert report.false_authentications == 0
        assert report.byte_mismatches == 0
        assert report.redispatched_chunks > 0
        assert report.quarantines >= 1
        assert report.victim_reinstated
        # Shed rate bounded: the storm's fleet keeps one healthy device
        # throughout, so nothing should be shed at all.
        assert report.shed == 0
        assert report.resolved == report.requests

    def test_storm_requires_a_survivor(self):
        with pytest.raises(ValueError):
            run_device_loss_storm(devices=("host",))
