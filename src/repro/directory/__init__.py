"""Sharded, replicated enrollment directory with shard-loss failover.

The missing refactor between "one engine" and "a service millions of
users hit": the CA's enrolled-image lookup becomes an explicitly
fault-modeled subsystem instead of an implicit in-memory dict.

* :mod:`repro.directory.hashring` — consistent hashing of client ids
  onto shards (cheap membership changes, stable replica sets).
* :mod:`repro.directory.shard` — one breaker-guarded, fault-injectable
  shard store with kill/revive for whole-shard loss.
* :mod:`repro.directory.cache` — per-shard LRU hot cache with
  hit/miss/stale/eviction and prefetch-drop telemetry.
* :mod:`repro.directory.sharded` — the directory proper: R-way
  replication, quorum reads with retry/backoff, replica failover,
  read-repair, batched prefetch, typed degraded mode.
* :mod:`repro.directory.prefetch` — background batcher warming caches
  for queued admission requests.
* :mod:`repro.directory.storm` — the deterministic shard-loss chaos
  storm, gated on 13 named :class:`~repro.gates.Gate` conditions.
"""

from repro.directory.cache import HotCache
from repro.directory.errors import (
    ClientNotEnrolled,
    DirectoryError,
    DirectoryUnavailable,
    ShardDown,
    ShardTimeout,
)
from repro.directory.hashring import ConsistentHashRing
from repro.directory.prefetch import DirectoryPrefetcher
from repro.directory.shard import ShardStore
from repro.directory.sharded import ShardedEnrollmentDirectory

__all__ = [
    "ConsistentHashRing",
    "HotCache",
    "ShardStore",
    "ShardedEnrollmentDirectory",
    "DirectoryPrefetcher",
    "DirectoryError",
    "ClientNotEnrolled",
    "ShardDown",
    "ShardTimeout",
    "DirectoryUnavailable",
]
