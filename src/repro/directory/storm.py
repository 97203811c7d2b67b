"""Shard-loss chaos storm: kill directory shards mid-serve, prove the CA degrades.

The scenario the directory layer exists for: an authentication burst is
in flight when a whole enrollment shard drops (crash / partition). The
storm drives four deterministic waves through a real
:class:`~repro.net.concurrent.ConcurrentCAServer` and asserts the
protocol-level invariants at each step:

* **wave 1 (healthy)** — every client authenticates;
* **wave 2 (one shard dark)** — the hot caches are dropped, one shard is
  killed, and every client must *still* authenticate: zero failures,
  zero sheds, and the report proves replica failover actually carried
  the reads (``failovers > 0``);
* **wave 3 (replica set dark)** — the dead shard's replica partner is
  killed too, so some keys have **no** live replica. Exactly those
  clients must be shed with the typed ``SHED_DIRECTORY_UNAVAILABLE``
  reason — never an unhandled error, never a false authentication —
  while every other client keeps authenticating. While the shards are
  dark, a few surviving clients re-enroll, deliberately diverging the
  dead replicas;
* **wave 4 (recovered)** — both shards revive, caches are dropped, and
  every client (including the previously doomed ones) authenticates
  again; the divergence planted in wave 3 must be healed through read
  repair (``read_repairs > 0``).

The CA serves through
:class:`~repro.core.authentication.VerifyingAuthority`, which re-hashes
every found seed against the digest the client actually submitted — the
zero-false-auth invariant is checked locally, not assumed from
``authenticated`` flags.

Deterministic by construction: the fleet is seeded, the victim/partner
shards are chosen from the seeded ring, kill points are wave boundaries
(not wall-clock), and the optional transient-timeout noise comes from a
seeded :class:`~repro.reliability.faults.FaultPlan`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import CertificateAuthority, RegistrationAuthority
from repro.core.authentication import VerifyingAuthority
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.core.search import RBCSearchService
from repro.directory.sharded import ShardedEnrollmentDirectory
from repro.engines.registry import build_engine
from repro.gates import Gate, render_verdict
from repro.keygen.interface import get_keygen
from repro.net.concurrent import ConcurrentCAServer
from repro.puf.model import SRAMPuf
from repro.puf.ternary import enroll_with_masking
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.sched.errors import SHED_DIRECTORY_UNAVAILABLE, RequestShed

__all__ = ["ShardLossStormReport", "run_shard_loss_storm"]


@dataclass
class ShardLossStormReport:
    """Outcome of one shard-loss storm, renderable and assertable."""

    seed: int
    clients: int
    shards: int
    replication: int
    victim: str
    partner: str
    doomed: tuple[str, ...] = ()
    re_enrolled: tuple[str, ...] = ()
    #: Per-wave (authenticated, failed, shed) triples, in wave order.
    waves: list[tuple[int, int, int]] = field(default_factory=list)
    failovers: int = 0
    read_repairs: int = 0
    retries: int = 0
    shed_typed: int = 0
    shed_untyped: int = 0
    unexpected_sheds: int = 0
    false_authentications: int = 0
    shed_rate: float = 0.0
    shed_ceiling: float = 0.5
    wall_seconds: float = 0.0
    directory_snapshot: dict = field(default_factory=dict)
    server_metrics: dict = field(default_factory=dict)

    @property
    def gates(self) -> list[Gate]:
        """The storm's hard invariants, one named gate each."""
        # A wave that never ran reads as unmeasured and fails its gates.
        healthy, one_down, two_down, recovered = (
            list(self.waves) + [(None, None, None)] * 4
        )[:4]
        all_ok = (self.clients, 0, 0)
        doomed = len(self.doomed)
        return [
            Gate("waves", len(self.waves), 4),
            Gate("false_authentications", self.false_authentications, 0),
            # waves 1, 2, 4: every client authenticates, nothing fails.
            Gate("healthy_wave", healthy, all_ok),
            Gate("one_shard_down_wave", one_down, all_ok),
            Gate("recovered_wave", recovered, all_ok),
            # wave 2 really ran on replicas, not on luck.
            Gate("failovers", self.failovers, 0, ">"),
            # wave 3: exactly the doomed keys shed, all of them typed.
            Gate("replica_set_down_shed", two_down[2], doomed),
            Gate(
                "replica_set_down_authenticated",
                two_down[0],
                self.clients - doomed,
            ),
            Gate("replica_set_down_failed", two_down[1], 0),
            Gate("shed_untyped", self.shed_untyped, 0),
            Gate("unexpected_sheds", self.unexpected_sheds, 0),
            Gate("shed_rate", self.shed_rate, self.shed_ceiling, "<="),
            # the divergence planted while shards were dark was healed.
            Gate("read_repairs", self.read_repairs, 0, ">"),
        ]

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)

    def render(self) -> str:
        wave_names = ("healthy", "1-shard-down", "replica-set-down",
                      "recovered")
        lines = [
            f"shard-loss storm  seed={self.seed}  "
            f"shards={self.shards} r={self.replication}  "
            f"clients={self.clients}",
            f"  victim: {self.victim}  partner: {self.partner}  "
            f"doomed keys: {len(self.doomed)}",
        ]
        for name, triple in zip(wave_names, self.waves):
            ok, failed, shed = triple
            lines.append(
                f"  wave {name}: authenticated={ok} failed={failed} "
                f"shed={shed}"
            )
        lines += [
            f"  failovers: {self.failovers}  read repairs: "
            f"{self.read_repairs}  retries: {self.retries}",
            f"  sheds: {self.shed_typed} typed / {self.shed_untyped} "
            f"untyped  unexpected: {self.unexpected_sheds}  "
            f"rate: {self.shed_rate:.2f} (ceiling {self.shed_ceiling:.2f})",
            f"  false auths: {self.false_authentications}",
            f"  wall: {self.wall_seconds:.2f}s",
            render_verdict(self.gates),
        ]
        return "\n".join(lines)


def _pick_victims(
    directory: ShardedEnrollmentDirectory, client_ids: list[str]
) -> tuple[str, str, list[str]]:
    """The victim shard, its partner, and the keys doomed by losing both.

    The victim is the shard holding the most primaries (so wave 2 forces
    real failover traffic); the partner is the most common second
    replica among the victim's keys (so wave 3 dooms at least one key).
    """
    primaries: dict[str, list[str]] = {}
    for client_id in client_ids:
        replicas = directory.replicas_for(client_id)
        primaries.setdefault(replicas[0], []).append(client_id)
    victim = max(primaries, key=lambda name: len(primaries[name]))
    partner_counts: dict[str, int] = {}
    for client_id in primaries[victim]:
        for name in directory.replicas_for(client_id)[1:]:
            partner_counts[name] = partner_counts.get(name, 0) + 1
    partner = max(partner_counts, key=lambda name: partner_counts[name])
    dead = {victim, partner}
    doomed = [
        client_id
        for client_id in client_ids
        if set(directory.replicas_for(client_id)) <= dead
    ]
    return victim, partner, doomed


def run_shard_loss_storm(
    seed: int = 0,
    clients: int = 24,
    shards: int = 8,
    replication: int = 2,
    hash_name: str = "sha1",
    num_cells: int = 1024,
    max_distance: int = 2,
    workers: int = 2,
    cache_capacity: int = 64,
    shard_timeout_rate: float = 0.05,
    shed_ceiling: float = 0.5,
    re_enroll: int = 3,
) -> ShardLossStormReport:
    """Four deterministic waves against a sharded directory; see module doc."""
    algo_seed = seed * 1_000_003
    directory = ShardedEnrollmentDirectory(
        master_key=b"storm-master-k!!",
        shards=shards,
        replication=replication,
        cache_capacity=cache_capacity,
        fault_plan=FaultPlan(
            FaultSpec(shard_timeout_rate=shard_timeout_rate), seed
        ),
    )
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            build_engine("batch", hash_name=hash_name, batch_size=16384),
            max_distance=max_distance,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=directory,
        hash_name=hash_name,
    )

    fleet: dict[str, ClientDevice] = {}
    masks = {}
    challenges = {}
    for index in range(clients):
        client_id = f"client-{index:04d}"
        puf = SRAMPuf(
            num_cells=num_cells,
            stable_error=0.001,
            seed=algo_seed + index,
        )
        mask = enroll_with_masking(
            puf, address=0, window=num_cells, reads=32,
            instability_threshold=0.02,
        )
        authority.enroll(client_id, mask)
        # Noise target one below the search radius: the PUF's natural
        # noise occasionally lands a read a bit past the injected target,
        # and the storm's invariants are about the directory, not about
        # honest-failure statistics.
        fleet[client_id] = ClientDevice(
            client_id,
            puf,
            noise_target_distance=max(0, max_distance - 1),
            rng=np.random.default_rng((seed, index)),
        )
        masks[client_id] = mask
        # Challenges are deterministic per client; capturing them at
        # enrollment keeps the handshake off the directory so the storm
        # measures the *search path's* degradation, not the handshake's.
        challenges[client_id] = authority.issue_challenge(client_id)

    client_ids = sorted(fleet)
    victim, partner, doomed = _pick_victims(directory, client_ids)
    report = ShardLossStormReport(
        seed=seed,
        clients=clients,
        shards=shards,
        replication=replication,
        victim=victim,
        partner=partner,
        doomed=tuple(doomed),
        shed_ceiling=shed_ceiling,
    )

    tripwire = VerifyingAuthority(authority)
    start = time.perf_counter()
    with ConcurrentCAServer(tripwire, workers=workers,
                            max_queue=max(64, clients)) as server:

        def wave(expect_shed: set[str]) -> tuple[int, int, int]:
            authenticated = failed = shed = 0
            futures = []
            for client_id in client_ids:
                digest = fleet[client_id].respond(
                    challenges[client_id], reference_mask=masks[client_id]
                )
                tripwire.record_digest(client_id, digest)
                futures.append((client_id, server.submit(client_id, digest)))
            for client_id, future in futures:
                try:
                    result = future.result(timeout=120.0)
                except RequestShed as exc:
                    shed += 1
                    if exc.reason == SHED_DIRECTORY_UNAVAILABLE:
                        report.shed_typed += 1
                    else:
                        report.shed_untyped += 1
                    if client_id not in expect_shed:
                        report.unexpected_sheds += 1
                    continue
                except Exception:
                    failed += 1
                    continue
                if result.authenticated:
                    authenticated += 1
                else:
                    failed += 1
            return authenticated, failed, shed

        def drop_hot_caches() -> None:
            # The prefetcher may still be warming ids from the last wave.
            # A quorum read it made against the old shard set must land
            # before the drop, not after it, or the next wave is served
            # from a cache the drop was meant to empty (a doomed key
            # would authenticate from it).
            server.prefetcher.flush()
            directory.drop_hot_caches()

        # wave 1: healthy baseline.
        report.waves.append(wave(set()))

        # wave 2: one whole shard dark, caches cold — replicas must carry.
        directory.kill_shard(victim)
        drop_hot_caches()
        report.waves.append(wave(set()))

        # wave 3: the replica partner dies too; the doomed keys must shed
        # typed, everyone else keeps authenticating.
        directory.kill_shard(partner)
        drop_hot_caches()
        report.waves.append(wave(set(doomed)))

        # While the shards are dark, survivors re-enroll: their writes
        # land only on live replicas, planting divergence the recovery
        # wave must heal through read repair.
        survivors = [c for c in client_ids if c not in doomed]
        stale_writes = [
            c for c in survivors
            if {victim, partner} & set(directory.replicas_for(c))
        ][:re_enroll]
        for client_id in stale_writes:
            authority.enroll(client_id, masks[client_id])
        report.re_enrolled = tuple(stale_writes)

        # wave 4: both shards revive; everyone authenticates again and
        # the planted divergence is read-repaired away.
        repairs_before = directory.read_repairs
        directory.revive_shard(victim)
        directory.revive_shard(partner)
        drop_hot_caches()
        report.waves.append(wave(set()))
        report.read_repairs = directory.read_repairs - repairs_before

        report.server_metrics = server.metrics.snapshot()

    report.wall_seconds = time.perf_counter() - start
    report.false_authentications = tripwire.false_authentications
    report.failovers = directory.failovers
    report.retries = directory.retries
    total = 4 * clients
    report.shed_rate = (report.shed_typed + report.shed_untyped) / total
    report.directory_snapshot = directory.snapshot()
    return report
