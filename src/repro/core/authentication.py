"""CA and RA bookkeeping around the RBC search.

The Certificate Authority owns the encrypted PUF-image database and the
search service; the Registration Authority disseminates the public keys
of authenticated clients. Client private keys are never generated or
stored anywhere in this flow — the defining property of RBC.

:class:`VerifyingAuthority` wraps a CA with the false-authentication
tripwire every storm and deployment serves through.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro._bitutils import SEED_BITS
from repro.core.salting import SaltScheme
from repro.core.search import RBCSearchService
from repro.engines.result import DirectoryStats
from repro.hashes.registry import HashAlgorithm, get_hash
from repro.keygen.interface import KeyGenerator
from repro.puf.ternary import TernaryMask
from repro.runtime.executor import SearchResult
from repro.tenancy.context import namespaced_key

__all__ = [
    "RegistrationAuthority",
    "CertificateAuthority",
    "VerifyingAuthority",
    "Challenge",
    "EnrollmentStore",
]


@runtime_checkable
class EnrollmentStore(Protocol):
    """Anything the CA can keep enrolled PUF images in.

    Satisfied by the plain in-memory
    :class:`~repro.puf.image_db.EncryptedImageDatabase` and by the
    sharded, replicated
    :class:`~repro.directory.sharded.ShardedEnrollmentDirectory`. Stores
    may additionally offer ``lookup_with_stats`` (per-lookup
    :class:`~repro.engines.result.DirectoryStats` telemetry) and
    ``prefetch`` (batched cache warming); the CA and the serving layer
    use those when present.
    """

    def enroll(self, client_id: str, mask: TernaryMask) -> None: ...

    def lookup(self, client_id: str) -> TernaryMask: ...

    def __contains__(self, client_id: str) -> bool: ...

    def __len__(self) -> int: ...


@dataclass(frozen=True)
class Challenge:
    """Handshake payload: which PUF cells to read and how to digest them."""

    client_id: str
    address: int
    window: int
    usable: np.ndarray  # boolean cell mask (public)
    bit_count: int
    hash_name: str


class RegistrationAuthority:
    """Public-key registry updated after each successful authentication."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}
        self._update_count: dict[str, int] = {}

    def update(self, client_id: str, public_key: bytes) -> None:
        """Register/replace the client's current public key."""
        if not public_key:
            raise ValueError("public key must be non-empty")
        self._keys[client_id] = public_key
        self._update_count[client_id] = self._update_count.get(client_id, 0) + 1

    def lookup(self, client_id: str) -> bytes:
        """The client's current public key."""
        return self._keys[client_id]

    def update_count(self, client_id: str) -> int:
        """How many one-time keys this client has cycled through."""
        return self._update_count.get(client_id, 0)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._keys


@dataclass
class CertificateAuthority:
    """The secure server: enrollment store, search service, key issuance."""

    search_service: RBCSearchService
    salt: SaltScheme
    keygen: KeyGenerator
    registration_authority: RegistrationAuthority
    image_db: EnrollmentStore
    hash_name: str = "sha3-256"
    seed_bits: int = SEED_BITS
    _last_result: SearchResult | None = field(default=None, repr=False)

    @property
    def hash_algorithm(self) -> HashAlgorithm:
        """The registered hash algorithm this CA searches with."""
        return get_hash(self.hash_name)

    def enroll(
        self,
        client_id: str,
        mask: TernaryMask,
        tenant_id: str | None = None,
    ) -> None:
        """Store a client's enrollment image (secure-facility phase).

        ``tenant_id`` namespaces the stored record: the default tenant
        (or ``None``) stores under the bare client id, exactly as before
        tenancy, so pre-tenancy enrollments stay reachable.
        """
        if mask.usable_count < self.seed_bits:
            raise ValueError(
                f"enrollment window provides {mask.usable_count} usable "
                f"cells; {self.seed_bits} required"
            )
        self.image_db.enroll(namespaced_key(tenant_id, client_id), mask)

    def issue_challenge(
        self, client_id: str, tenant_id: str | None = None
    ) -> Challenge:
        """Handshake step: tell the client which cells to read."""
        mask = self.image_db.lookup(namespaced_key(tenant_id, client_id))
        return Challenge(
            client_id=client_id,
            address=mask.address,
            window=mask.usable.shape[0],
            usable=mask.usable.copy(),
            bit_count=self.seed_bits,
            hash_name=self.hash_name,
        )

    def enrolled_seed(
        self, client_id: str, tenant_id: str | None = None
    ) -> bytes:
        """S_init — the seed from the enrolled (noise-free) PUF image."""
        seed, _stats = self.enrolled_seed_with_stats(client_id, tenant_id)
        return seed

    def enrolled_seed_with_stats(
        self, client_id: str, tenant_id: str | None = None
    ) -> tuple[bytes, DirectoryStats | None]:
        """S_init plus the directory's lookup telemetry (None for a
        plain in-memory store)."""
        key = namespaced_key(tenant_id, client_id)
        lookup_with_stats = getattr(self.image_db, "lookup_with_stats", None)
        stats: DirectoryStats | None = None
        if lookup_with_stats is not None:
            mask, stats = lookup_with_stats(key)
        else:
            mask = self.image_db.lookup(key)
        bits = mask.reference_seed_bits(self.seed_bits)
        return np.packbits(bits).tobytes(), stats

    def run_search(
        self,
        client_id: str,
        client_digest: bytes,
        deadline_seconds: float | None = None,
        tenant_id: str | None = None,
    ) -> SearchResult:
        """Figure 1 steps 1-6: the RBC search proper.

        When the image store is a sharded directory, the lookup's
        telemetry rides along on ``result.directory`` — a search served
        after a replica failover is distinguishable from one whose image
        came from the hot cache.
        """
        seed, directory_stats = self.enrolled_seed_with_stats(
            client_id, tenant_id
        )
        result = self.search_service.find_seed(
            seed,
            client_digest,
            deadline_seconds=deadline_seconds,
        )
        if directory_stats is not None:
            result = dataclasses.replace(result, directory=directory_stats)
        self._last_result = result
        return result

    def issue_public_key(
        self,
        client_id: str,
        found_seed: bytes,
        tenant_id: str | None = None,
    ) -> bytes:
        """Figure 1 steps 7-9: salt, generate the key once, update the RA.

        RA entries are namespaced the same way as enrollment records, so
        two tenants' identically-named clients never share a key slot.
        """
        salted = self.salt(found_seed)
        public_key = self.keygen.public_key(salted)
        self.registration_authority.update(
            namespaced_key(tenant_id, client_id), public_key
        )
        return public_key


class VerifyingAuthority:
    """CA wrapper that counts false authentications.

    The serving layer records each submitted digest (M1) before
    admission, and every key issuance re-hashes the found seed against
    the digests recorded for that client: a seed that matches none of
    them is a false authentication, the one failure no storm may
    explain away. Issuance re-checks because both serving paths (the
    FIFO worker pool and the scheduler) end there. Thread-safe; every
    other attribute is the wrapped CA's.
    """

    #: Outstanding digests retained per client; bounds memory if a
    #: client records digests that never reach issuance (sheds, drops).
    _MAX_OUTSTANDING = 16

    def __init__(self, authority: CertificateAuthority) -> None:
        self._authority = authority
        self._lock = threading.Lock()
        self._digests: dict[str, list[bytes]] = {}
        self.false_authentications = 0

    def __getattr__(self, name: str) -> Any:
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
        """Re-verify ``found_seed`` against the recorded M1s, then issue."""
        key = namespaced_key(tenant_id, client_id)
        with self._lock:
            outstanding = self._digests.get(key)
            if outstanding:
                digest = get_hash(self._authority.hash_name).scalar(found_seed)
                if digest in outstanding:
                    outstanding.remove(digest)
                else:
                    self.false_authentications += 1
        return self._authority.issue_public_key(
            client_id, found_seed, tenant_id=tenant_id
        )
