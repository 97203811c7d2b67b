"""Deterministic cross-process enrollment.

A real deployment splits the protocol across OS processes, but both
sides still need to agree on the enrolled PUF images: the server enrolls
the fleet into its directory at startup, and each load-generator process
reconstructs the *same* PUF (same seed, same masking reads) to produce
digests the server can actually search for. The functions here are that
shared contract — every parameter that feeds the PUF's RNG lives in one
place, so the two sides cannot drift.

Also here: the server-side false-authentication tripwire. Every found
seed is re-hashed and compared against the digest the client actually
submitted; a mismatch is the one failure a deployment storm can never
explain away, and it rides the admin metrics frame so the storm runner
can assert it stayed zero.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.deploy.topology import TopologySpec
from repro.engines import build_engine
from repro.hashes.registry import get_hash
from repro.keygen.interface import get_keygen
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.model import SRAMPuf
from repro.puf.ternary import TernaryMask, enroll_with_masking
from repro.tenancy.context import DEFAULT_TENANT, namespaced_key

__all__ = [
    "client_identity",
    "fleet_index_of",
    "tenant_for",
    "build_fleet_record",
    "build_client_device",
    "enroll_topology_fleet",
    "build_serving_stack",
    "VerifyingAuthority",
]

#: Seed stride between client PUFs (same convention the chaos fleet uses).
_CLIENT_SEED_STRIDE = 1_000_003
#: Masking-enrollment parameters — must be identical on both sides.
_ENROLL_READS = 8
_ENROLL_INSTABILITY = 0.05


def client_identity(index: int) -> str:
    """The deterministic client id for fleet slot ``index``."""
    return f"dep-{index:04d}"


def fleet_index_of(client_id: str) -> int:
    """Inverse of :func:`client_identity`; raises ValueError otherwise.

    The enrollment wire frame names a fleet slot by its client id; the
    server maps it back to the slot index to rebuild the deterministic
    PUF image — no plaintext enrollment data ever crosses the wire.
    """
    prefix, _, digits = client_id.partition("-")
    if prefix != "dep" or not digits.isdigit():
        raise ValueError(f"not a fleet identity: {client_id!r}")
    return int(digits)


def tenant_for(index: int, tenants: tuple[str, ...]) -> str:
    """Which tenant fleet slot ``index`` belongs to (round-robin)."""
    if not tenants:
        return DEFAULT_TENANT
    return tenants[index % len(tenants)]


def build_fleet_record(
    seed: int, index: int, num_cells: int
) -> tuple[str, SRAMPuf, TernaryMask]:
    """(client_id, puf, mask) for one fleet slot — both sides call this.

    The PUF is seeded from (storm seed, slot index) and the masking
    enrollment consumes a fixed number of reads, so a server process and
    a load-generator process that never share memory still derive the
    byte-identical ternary mask.
    """
    puf = SRAMPuf(
        num_cells=num_cells,
        stable_error=0.001,
        seed=seed * _CLIENT_SEED_STRIDE + index,
    )
    mask = enroll_with_masking(
        puf,
        address=0,
        window=num_cells,
        reads=_ENROLL_READS,
        instability_threshold=_ENROLL_INSTABILITY,
    )
    return client_identity(index), puf, mask


def build_client_device(
    seed: int, index: int, num_cells: int, noise_target_distance: int
) -> tuple[str, ClientDevice, TernaryMask]:
    """A load-generator's client for one fleet slot.

    ``noise_target_distance`` plants the PUF read exactly that many bit
    flips from the enrolled image (the evaluation rig's knob for shell
    depth), so the trace controls how deep each search must go.
    """
    client_id, puf, mask = build_fleet_record(seed, index, num_cells)
    device = ClientDevice(
        client_id,
        puf,
        noise_target_distance=noise_target_distance,
        rng=np.random.default_rng((seed, index)),
    )
    return client_id, device, mask


def enroll_topology_fleet(
    authority: CertificateAuthority,
    topology: TopologySpec,
    seed: int,
    skip_existing: bool = False,
) -> int:
    """Enroll the full deterministic fleet under its tenant namespaces.

    ``skip_existing`` is the durable-restart path: a server whose store
    recovered its records from checkpoint + WAL must not re-enroll them
    (that would bump every version and churn the WAL on every restart) —
    it only fills the slots recovery did not produce. Returns how many
    slots were actually enrolled.
    """
    enrolled = 0
    for index in range(topology.clients):
        client_id, _puf, mask = build_fleet_record(
            seed, index, topology.num_cells
        )
        tenant = tenant_for(index, topology.tenants)
        tenant_id = None if tenant == DEFAULT_TENANT else tenant
        if skip_existing and namespaced_key(tenant_id, client_id) in (
            authority.image_db
        ):
            continue
        authority.enroll(client_id, mask, tenant_id=tenant_id)
        enrolled += 1
    return enrolled


class VerifyingAuthority:
    """Authority wrapper that counts false authentications.

    Thread-safe: the serving layer records each submitted digest before
    admission, and every key issuance re-hashes the found seed against
    it. The counter is exported over the admin metrics frame.
    """

    #: Outstanding digests retained per client; bounds memory if a
    #: client records digests that never reach issuance (sheds, drops).
    _MAX_OUTSTANDING = 16

    def __init__(self, authority: CertificateAuthority):
        self._authority = authority
        self._lock = threading.Lock()
        self._digests: dict[str, list[bytes]] = {}
        self.false_authentications = 0

    def __getattr__(self, name):
        return getattr(self._authority, name)

    def record_digest(
        self, client_id: str, digest: bytes, tenant_id: str | None = None
    ) -> None:
        """Remember an outstanding M1 for this client (keyed per tenant).

        A *list* of outstanding digests, not a single slot: a client's
        retry (or its next request racing the previous search) must not
        overwrite the digest an in-flight search will be verified
        against — that overwrite would misreport a correct search as a
        false authentication.
        """
        with self._lock:
            outstanding = self._digests.setdefault(
                namespaced_key(tenant_id, client_id), []
            )
            if digest not in outstanding:
                outstanding.append(digest)
            del outstanding[: -self._MAX_OUTSTANDING]

    def issue_public_key(
        self, client_id: str, found_seed: bytes, tenant_id: str | None = None
    ) -> bytes:
        key = namespaced_key(tenant_id, client_id)
        with self._lock:
            outstanding = list(self._digests.get(key, ()))
        if outstanding:
            algo = get_hash(self._authority.hash_name)
            digest = algo.scalar(found_seed)
            if digest in outstanding:
                with self._lock:
                    recorded = self._digests.get(key)
                    if recorded is not None and digest in recorded:
                        recorded.remove(digest)
            else:
                with self._lock:
                    self.false_authentications += 1
        if tenant_id is None or tenant_id == DEFAULT_TENANT:
            return self._authority.issue_public_key(client_id, found_seed)
        return self._authority.issue_public_key(
            client_id, found_seed, tenant_id=tenant_id
        )


def build_serving_stack(
    topology: TopologySpec, seed: int, data_dir: str | None = None
):
    """(verifying_authority, scheduler_engine_or_None) for one server.

    ``fleet`` mode builds a ``fleet:`` engine over the topology's device
    tokens, ``sched`` a ``sched:`` engine (a one-device fleet); either
    :class:`~repro.fleet.engine.FleetSearchEngine` fills the
    ConcurrentCAServer's scheduler seat. ``fifo`` returns ``None`` and
    the server's bounded worker pool serves directly.

    With ``topology.durability`` set and a ``data_dir`` given, the
    enrollment store is a WAL-backed
    :class:`~repro.durability.store.DurableImageStore`: construction
    recovers checkpoint + WAL, and the fleet enrollment below only fills
    the slots recovery did not restore — a kill-9'd server comes back
    with its acknowledged enrollments (and version counters) intact.
    """
    image_db = EncryptedImageDatabase(b"deploy-master-k!")
    durable = bool(topology.durability) and data_dir is not None
    if durable:
        from repro.durability.store import DurableImageStore

        image_db = DurableImageStore(
            data_dir, b"deploy-master-k!", fsync=topology.durability
        )
    authority = CertificateAuthority(
        search_service=RBCSearchService(
            build_engine(
                "batch",
                hash_name=topology.hash_name,
                batch_size=topology.batch_size,
            ),
            max_distance=topology.max_distance,
            time_threshold=topology.time_budget,
        ),
        salt=HashChainSalt(),
        keygen=get_keygen("aes-128"),
        registration_authority=RegistrationAuthority(),
        image_db=image_db,
        hash_name=topology.hash_name,
    )
    enroll_topology_fleet(authority, topology, seed, skip_existing=durable)
    verifying = VerifyingAuthority(authority)

    if topology.engine == "fifo":
        return verifying, None
    spec = (
        f"fleet:{','.join(topology.devices)}"
        if topology.engine == "fleet"
        else "sched"
    )
    engine = build_engine(
        spec,
        hash_name=topology.hash_name,
        batch_size=topology.batch_size,
        max_queue=topology.max_queue,
    )
    return verifying, engine
