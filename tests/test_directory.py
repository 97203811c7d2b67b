"""Sharded enrollment directory: ring, cache, shards, quorum, degraded mode."""

import threading
import time

import numpy as np
import pytest

from repro.directory import (
    ClientNotEnrolled,
    ConsistentHashRing,
    DirectoryPrefetcher,
    DirectoryUnavailable,
    HotCache,
    ShardDown,
    ShardedEnrollmentDirectory,
    ShardStore,
)
from repro.puf.ternary import TernaryMask
from repro.reliability.breaker import CircuitOpenError
from repro.reliability.faults import FaultPlan, FaultSpec

KEY = b"directory-key-!!"


def synthetic_mask(seed: int, cells: int = 512) -> TernaryMask:
    rng = np.random.default_rng(seed)
    return TernaryMask(
        address=0,
        usable=rng.random(cells) > 0.03,
        reference=(rng.random(cells) > 0.5),
        instability=np.zeros(cells),
    )


class TestConsistentHashRing:
    def test_replicas_are_distinct_and_stable(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(8)])
        for key in ("alice", "bob", "carol"):
            replicas = ring.replicas_for(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas == ring.replicas_for(key, 3)

    def test_primary_is_first_replica(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.primary_for("key") == ring.replicas_for("key", 2)[0]

    def test_membership_change_moves_few_keys(self):
        keys = [f"client-{i}" for i in range(400)]
        before = ConsistentHashRing([f"s{i}" for i in range(8)])
        after = ConsistentHashRing([f"s{i}" for i in range(9)])
        moved = sum(
            1 for k in keys if before.primary_for(k) != after.primary_for(k)
        )
        # Consistent hashing: roughly 1/9 of keys move, never a reshuffle.
        assert moved < len(keys) // 3

    def test_keys_spread_over_shards(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(8)])
        owners = {ring.primary_for(f"client-{i}") for i in range(200)}
        assert len(owners) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], vnodes=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "b"]).replicas_for("k", 3)


class TestHotCache:
    def test_hit_miss_and_recency(self):
        cache = HotCache(2)
        assert cache.get("a") is None
        cache.put("a", "va", 0)
        cache.put("b", "vb", 0)
        assert cache.get("a") == ("va", 0)  # refreshes recency
        cache.put("c", "vc", 0)             # evicts b, the LRU
        assert cache.get("b") is None
        assert cache.get("a") == ("va", 0)
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["hits"] == 2 and snap["misses"] == 2

    def test_speculative_insert_fills_spare_capacity_only(self):
        cache = HotCache(2)
        assert cache.put_speculative("a", "va", 0)
        cache.put("b", "vb", 0)
        # Full: the prefetch is dropped, never evicting demand entries.
        assert not cache.put_speculative("c", "vc", 0)
        assert cache.get("a") == ("va", 0)
        assert cache.get("b") == ("vb", 0)
        assert cache.get("c") is None
        snap = cache.snapshot()
        assert snap["prefetch_inserts"] == 1
        assert snap["prefetch_dropped"] == 1

    def test_speculative_entries_are_first_eviction_candidates(self):
        cache = HotCache(2)
        cache.put("hot", "vh", 0)
        cache.put_speculative("spec", "vs", 0)
        cache.put("new", "vn", 0)  # evicts the speculative entry
        assert cache.get("spec") is None
        assert cache.peek("hot") is not None

    def test_invalidate_counts_stale(self):
        cache = HotCache(2)
        cache.put("a", "va", 3)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.snapshot()["stale_invalidations"] == 1

    def test_peek_touches_nothing(self):
        cache = HotCache(2)
        cache.put("a", "va", 0)
        assert cache.peek("a") == ("va", 0)
        assert cache.peek("zzz") is None
        snap = cache.snapshot()
        assert snap["hits"] == 0 and snap["misses"] == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            HotCache(0)


class TestShardStore:
    def test_read_write_roundtrip_stays_encrypted(self):
        shard = ShardStore("s0", KEY)
        codec = ShardStore("codec", KEY).store
        mask = synthetic_mask(1)
        blob = codec.encrypt_record("alice", mask, 0)
        shard.install("alice", blob, 0)
        held = shard.read("alice")
        assert held == (blob, 0)
        assert shard.version_of("alice") == 0
        assert shard.read("nobody") is None  # clean miss, not a failure

    def test_kill_then_breaker_opens_then_revive_recloses(self):
        shard = ShardStore("s0", KEY)
        shard.kill()
        # ShardDown failures accumulate until the breaker trips open.
        for _ in range(shard.breaker.failure_threshold):
            with pytest.raises(ShardDown):
                shard.read("alice")
        with pytest.raises(CircuitOpenError):
            shard.read("alice")
        shard.revive()
        time.sleep(shard.breaker.recovery_seconds + 0.02)
        # The half-open probe succeeds and re-admits the shard.
        assert shard.read("alice") is None
        assert shard.breaker.state == "closed"

    def test_missing_record_does_not_trip_breaker(self):
        shard = ShardStore("s0", KEY)
        for _ in range(shard.breaker.failure_threshold + 2):
            assert shard.read("ghost") is None
        assert shard.breaker.state == "closed"

    def test_clone_snapshot_transfers_ciphertext(self):
        source = ShardStore("s0", KEY)
        mask = synthetic_mask(2)
        blob = source.store.encrypt_record("alice", mask, 4)
        source.install("alice", blob, 4)
        replica = ShardStore("s1", KEY)
        replica.restore_snapshot(source.clone_snapshot())
        assert replica.read("alice") == (blob, 4)


class TestShardedEnrollmentDirectory:
    def _directory(self, **kwargs) -> ShardedEnrollmentDirectory:
        kwargs.setdefault("shards", 6)
        kwargs.setdefault("replication", 2)
        kwargs.setdefault("cache_capacity", 8)
        return ShardedEnrollmentDirectory(master_key=KEY, **kwargs)

    def test_enroll_lookup_roundtrip(self):
        directory = self._directory()
        mask = synthetic_mask(3)
        directory.enroll("alice", mask)
        restored = directory.lookup("alice")
        assert (restored.reference == mask.reference).all()
        assert (restored.usable == mask.usable).all()
        assert "alice" in directory and len(directory) == 1
        assert directory.version_of("alice") == 0

    def test_unknown_client_raises_typed_keyerror(self):
        directory = self._directory()
        with pytest.raises(ClientNotEnrolled):
            directory.lookup("mallory")
        with pytest.raises(KeyError):  # ClientNotEnrolled is a KeyError
            directory.lookup("mallory")

    def test_replicas_hold_identical_ciphertext(self):
        directory = self._directory(replication=3)
        directory.enroll("alice", synthetic_mask(4))
        replicas = directory.replicas_for("alice")
        held = [directory.shard(name).read("alice") for name in replicas]
        assert len(held) == 3
        assert all(record == held[0] for record in held)

    def test_second_lookup_is_a_hot_hit(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(5))
        _mask, cold = directory.lookup_with_stats("alice")
        _mask, hot = directory.lookup_with_stats("alice")
        assert not cold.hot_hit and cold.source == "primary"
        assert hot.hot_hit and hot.source == "hot-cache"
        assert directory.hot_hits == 1

    def test_re_enroll_invalidates_cache_and_bumps_version(self):
        directory = self._directory()
        mask = synthetic_mask(6)
        directory.enroll("alice", mask)
        directory.lookup("alice")  # warm the cache at version 0
        directory.enroll("alice", mask)
        assert directory.version_of("alice") == 1
        _mask, stats = directory.lookup_with_stats("alice")
        assert not stats.hot_hit  # the stale entry was not served

    def test_failover_with_exactly_r_minus_1_live_replicas(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(7))
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(primary)
        directory.drop_hot_caches()
        _mask, stats = directory.lookup_with_stats("alice")
        assert stats.source == "replica"
        assert stats.shard == backup
        assert directory.failovers == 1

    def test_whole_replica_set_down_is_typed_unavailable(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(8))
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        directory.drop_hot_caches()
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")
        assert directory.unavailable_lookups == 1

    def test_cached_entry_still_serves_while_replicas_down(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(9))
        directory.lookup("alice")  # cache it
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        _mask, stats = directory.lookup_with_stats("alice")
        assert stats.hot_hit  # the cache outlives the shard loss

    def test_read_repair_after_shard_rejoin(self):
        directory = self._directory()
        mask = synthetic_mask(10)
        directory.enroll("alice", mask)
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(backup)
        directory.enroll("alice", mask)  # version 1 misses the dead backup
        directory.revive_shard(backup)
        directory.drop_hot_caches()
        _mask, stats = directory.lookup_with_stats("alice")
        assert stats.read_repairs == 1
        assert directory.shard(backup).version_of("alice") == 1
        # Healed: the next read repairs nothing.
        directory.drop_hot_caches()
        _mask, stats = directory.lookup_with_stats("alice")
        assert stats.read_repairs == 0

    def test_stale_replica_is_never_served(self):
        directory = self._directory()
        mask = synthetic_mask(11)
        directory.enroll("alice", mask)
        primary, backup = directory.replicas_for("alice")
        directory.kill_shard(backup)
        directory.enroll("alice", mask)  # backup now stale at version 0
        directory.revive_shard(backup)
        directory.kill_shard(primary)  # only the stale copy is live
        directory.drop_hot_caches()
        # Wait out the backup's breaker so its stale copy is reachable.
        time.sleep(directory.shard(backup).breaker.recovery_seconds + 0.02)
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")

    def test_transient_read_timeouts_are_retried(self):
        # Enroll cleanly, then attach an always-timeout injector: every
        # replica exhausts its retry budget, the lookup degrades typed,
        # and the retry counter proves backoff was attempted.
        directory = self._directory(backoff_seconds=0.0001)
        directory.enroll("alice", synthetic_mask(12))
        directory.drop_hot_caches()
        plan = FaultPlan(FaultSpec(shard_timeout_rate=1.0), seed=3)
        for index, name in enumerate(directory.shard_names):
            directory.shard(name).injector = plan.shard_injector(index)
        with pytest.raises(DirectoryUnavailable):
            directory.lookup("alice")
        assert directory.retries > 0

    def test_transient_write_timeouts_get_the_same_retry_budget(self):
        # Every install times out too: enrollment degrades typed after
        # retrying each replica instead of silently half-writing.
        directory = self._directory(
            fault_plan=FaultPlan(FaultSpec(shard_timeout_rate=1.0), seed=3),
            backoff_seconds=0.0001,
        )
        with pytest.raises(DirectoryUnavailable):
            directory.enroll("alice", synthetic_mask(12))
        assert directory.retries > 0

    def test_enroll_requires_one_live_replica(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(13))
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        with pytest.raises(DirectoryUnavailable):
            directory.enroll("alice", synthetic_mask(13))

    def test_prefetch_loads_and_full_cache_falls_back_cleanly(self):
        directory = self._directory(cache_capacity=1)
        client_ids = [f"client-{i}" for i in range(24)]
        for index, client_id in enumerate(client_ids):
            directory.enroll(client_id, synthetic_mask(100 + index))
        report = directory.prefetch(client_ids)
        assert report["requested"] == 24
        assert report["loaded"] >= 1
        # capacity 1 per shard: most speculative inserts are dropped...
        assert report["dropped"] > 0
        # ...and every dropped key still serves through the quorum read.
        for client_id in client_ids:
            assert directory.lookup(client_id) is not None

    def test_prefetch_counts_unknown_and_unavailable(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(14))
        for name in directory.replicas_for("alice"):
            directory.kill_shard(name)
        report = directory.prefetch(["alice", "ghost"])
        assert report["unavailable"] == 1
        assert report["unknown"] == 1

    def test_snapshot_shape(self):
        directory = self._directory()
        directory.enroll("alice", synthetic_mask(15))
        directory.lookup("alice")
        snap = directory.snapshot()
        assert snap["clients"] == 1
        assert snap["quorum_reads"] == 1
        assert set(snap["shards_detail"]) == set(directory.shard_names)
        assert snap["cache"]["misses"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(master_key=KEY, shards=0)
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(master_key=KEY, shards=2, replication=3)
        with pytest.raises(ValueError):
            ShardedEnrollmentDirectory(
                master_key=KEY, shards=4, replication=2, read_quorum=3
            )


class TestDirectoryPrefetcher:
    def test_notes_coalesce_into_batches(self):
        directory = ShardedEnrollmentDirectory(master_key=KEY, shards=4)
        for index in range(8):
            directory.enroll(f"client-{index}", synthetic_mask(200 + index))
        prefetcher = DirectoryPrefetcher(directory, max_batch=16)
        try:
            for index in range(8):
                prefetcher.note(f"client-{index}")
            assert prefetcher.flush(timeout=5.0)
            snap = prefetcher.snapshot()
            assert snap["ids_noted"] == 8
            assert snap["batches"] >= 1
            # The demand lookups now hit the warmed caches.
            _mask, stats = directory.lookup_with_stats("client-0")
            assert stats.hot_hit
        finally:
            prefetcher.close()

    def test_close_is_idempotent_and_drops_new_notes(self):
        directory = ShardedEnrollmentDirectory(master_key=KEY, shards=2)
        prefetcher = DirectoryPrefetcher(directory)
        prefetcher.close()
        prefetcher.close()
        prefetcher.note("ignored")
        assert prefetcher.snapshot()["ids_noted"] == 0

    def test_prefetch_errors_never_escape(self):
        class Exploding:
            def prefetch(self, batch):
                raise RuntimeError("boom")

        prefetcher = DirectoryPrefetcher(Exploding())
        try:
            prefetcher.note("a")
            assert prefetcher.flush(timeout=5.0)
        finally:
            prefetcher.close()


class TestDegradedServing:
    """The CA server sheds typed when a key's replica set is dark."""

    @pytest.fixture(scope="class")
    def rig(self):
        from repro.core.protocol import ClientDevice
        from repro.net.concurrent import ConcurrentCAServer
        from repro.puf.model import SRAMPuf
        from repro.puf.ternary import enroll_with_masking
        from repro import quick_setup

        authority, _client, _mask = quick_setup(max_distance=1)
        directory = ShardedEnrollmentDirectory(
            master_key=KEY, shards=4, replication=2, cache_capacity=16
        )
        authority.image_db = directory
        fleet = {}
        for index in range(4):
            client_id = f"client-{index}"
            puf = SRAMPuf(num_cells=1024, stable_error=0.0, seed=400 + index)
            mask = enroll_with_masking(
                puf, 0, 1024, reads=8, instability_threshold=0.02
            )
            authority.enroll(client_id, mask)
            device = ClientDevice(
                client_id, puf, noise_target_distance=0,
                rng=np.random.default_rng(index),
            )
            fleet[client_id] = (
                device, authority.issue_challenge(client_id), mask
            )
        return authority, directory, fleet

    def test_shed_is_typed_and_served_keys_keep_working(self, rig):
        from repro.net.concurrent import ConcurrentCAServer
        from repro.sched.errors import (
            SHED_DIRECTORY_UNAVAILABLE,
            RequestShed,
        )

        authority, directory, fleet = rig
        victim = next(iter(fleet))
        with ConcurrentCAServer(authority, workers=2) as server:
            assert server.prefetcher is not None  # auto-wired
            for name in directory.replicas_for(victim):
                directory.kill_shard(name)
            directory.drop_hot_caches()
            futures = {}
            for client_id, (device, challenge, mask) in fleet.items():
                digest = device.respond(challenge, reference_mask=mask)
                futures[client_id] = server.submit(client_id, digest)
            with pytest.raises(RequestShed) as excinfo:
                futures[victim].result(timeout=60.0)
            assert excinfo.value.reason == SHED_DIRECTORY_UNAVAILABLE
            for client_id, future in futures.items():
                if client_id == victim:
                    continue
                alive_replicas = [
                    name
                    for name in directory.replicas_for(client_id)
                    if directory.shard(name).alive
                ]
                if alive_replicas:
                    assert future.result(timeout=60.0).authenticated
            metrics = server.metrics.snapshot()
        assert metrics["shed_directory"] >= 1
        assert metrics["shed"] >= 1

    def test_directory_stats_ride_on_search_result(self, rig):
        authority, directory, fleet = rig
        for name in directory.shard_names:
            directory.revive_shard(name)
        client_id, (device, challenge, mask) = next(iter(fleet.items()))
        # Let the breakers' recovery window pass for revived shards.
        time.sleep(0.08)
        digest = device.respond(challenge, reference_mask=mask)
        result = authority.run_search(client_id, digest)
        assert result.directory is not None
        assert result.directory.source in ("hot-cache", "primary", "replica")


class TestShardLossStorm:
    # Seed 1 once lost a race: a prefetch made before the partner shard
    # died landed in the hot cache after the drop, so a doomed key
    # authenticated in the replica-set-down wave.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reduced_storm_passes_and_reproduces(self, seed):
        from repro.directory.storm import run_shard_loss_storm

        first = run_shard_loss_storm(seed=seed, clients=12, workers=2)
        assert first.passed, first.render()
        assert first.false_authentications == 0
        assert first.shed_typed == len(first.doomed)
        assert first.shed_untyped == 0
        second = run_shard_loss_storm(seed=seed, clients=12, workers=2)
        assert second.waves == first.waves
        assert second.doomed == first.doomed
        assert (second.victim, second.partner) == (
            first.victim, first.partner
        )
