"""Deterministic cross-process enrollment.

A real deployment splits the protocol across OS processes, but both
sides still need to agree on the enrolled PUF images: the server enrolls
the fleet into its directory at startup, and each load-generator process
reconstructs the *same* PUF (same seed, same masking reads) to produce
digests the server can actually search for. Both sides build their slots
with the one fleet builder, :func:`repro.storm.build_fleet_record`
(re-exported here with :func:`~repro.storm.client_identity`), so every
parameter that feeds the PUF's RNG lives in one place and the two sides
cannot drift.

The server wraps its CA in the false-authentication tripwire,
:class:`~repro.core.authentication.VerifyingAuthority` (re-exported
here); its count rides the admin metrics frame so the storm runner can
assert it stayed zero.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CertificateAuthority,
    RBCSearchService,
    RegistrationAuthority,
)
from repro.core.authentication import VerifyingAuthority
from repro.core.protocol import ClientDevice
from repro.core.salting import HashChainSalt
from repro.deploy.topology import TopologySpec
from repro.engines import build_engine
from repro.keygen.interface import get_keygen
from repro.puf.image_db import EncryptedImageDatabase
from repro.puf.ternary import TernaryMask
from repro.storm import build_fleet_record, client_identity
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
