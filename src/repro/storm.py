"""One storm driver: the fleet, planted requests, the request driver and
the latency summary that every in-process scenario shares.

Each scenario replays the paper's measurement: enroll PUF clients, plant
seeds ``d`` bit flips from each enrolled image, submit the digests, and
time how each search settles.

* :func:`build_fleet_record` derives fleet slot ``index``'s PUF and mask
  from ``(seed, index)`` alone, so a server and a load generator that
  share no memory agree on the enrolled images; :func:`enroll_fleet`
  installs a range of slots under one tenant.
* :func:`plant` hashes a base seed with ``d`` random bits flipped.
* :func:`drive` submits requests back to back and returns one frozen
  :class:`Outcome` each, for anything with ``add_done_callback`` and
  ``result(timeout)``: server futures, fleet tickets, or a one-worker
  executor's futures (the FIFO baseline).
* :func:`summarize` reduces outcomes to counts and served percentiles.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generic, Protocol, TypeVar

import numpy as np

from repro._bitutils import SEED_BITS, flip_bits
from repro.analysis.metrics import percentile
from repro.puf.model import SRAMPuf
from repro.puf.ternary import TernaryMask, enroll_with_masking
from repro.sched.errors import RequestShed

if TYPE_CHECKING:
    from repro.core.authentication import CertificateAuthority
    from repro.hashes.registry import HashAlgorithm

__all__ = [
    "client_identity",
    "build_fleet_record",
    "enroll_fleet",
    "plant",
    "Pending",
    "Outcome",
    "drive",
    "summarize",
]

#: Seed stride between client PUFs.
_CLIENT_SEED_STRIDE = 1_000_003
#: Masking-enrollment parameters: every process that rebuilds a fleet
#: slot must use the same ones to derive the same mask.
_ENROLL_READS = 8
_ENROLL_INSTABILITY = 0.05


def client_identity(index: int) -> str:
    """The deterministic client id for fleet slot ``index``."""
    return f"dep-{index:04d}"


def build_fleet_record(
    seed: int, index: int, num_cells: int
) -> tuple[str, SRAMPuf, TernaryMask]:
    """(client_id, puf, mask) for one fleet slot.

    The PUF is seeded from (storm seed, slot index) and the masking
    enrollment consumes a fixed number of reads, so two processes that
    never share memory still derive the byte-identical ternary mask.
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


def enroll_fleet(
    authority: CertificateAuthority,
    seed: int,
    slots: range,
    num_cells: int,
    tenant_id: str | None = None,
) -> dict[str, TernaryMask]:
    """Enroll fleet ``slots`` under ``tenant_id``; client id -> mask."""
    masks: dict[str, TernaryMask] = {}
    for index in slots:
        client_id, _puf, mask = build_fleet_record(seed, index, num_cells)
        authority.enroll(client_id, mask, tenant_id=tenant_id)
        masks[client_id] = mask
    return masks


def plant(
    algo: HashAlgorithm,
    base_seed: bytes,
    distance: int,
    rng: np.random.Generator,
) -> bytes:
    """The digest of ``base_seed`` with ``distance`` random bits flipped."""
    flips = rng.choice(SEED_BITS, size=distance, replace=False)
    return algo.hash_seed(flip_bits(base_seed, [int(b) for b in flips]))


class Pending(Protocol):
    """What :func:`drive` needs of a submitted request's handle."""

    def add_done_callback(self, fn: Callable[[Any], None]) -> None: ...

    def result(self, timeout: float | None = None) -> Any: ...


Request = TypeVar("Request")


@dataclass(frozen=True)
class Outcome(Generic[Request]):
    """How one driven request ended.

    Exactly one of four things happened: it was served (``result`` is
    set; ``found`` says whether the search found its seed or the server
    authenticated it), it was shed with a typed ``shed_reason`` (at
    admission or at runtime), it was ``lost`` (still unsettled at the
    timeout), or it raised an untyped ``error`` (the exception's class
    name). ``latency_seconds`` runs from submission to settlement,
    stamped when the request settled, not when it was collected.
    """

    request: Request
    latency_seconds: float
    result: Any = None
    found: bool = False
    timed_out: bool = False
    shed_reason: str | None = None
    lost: bool = False
    error: str | None = None

    @property
    def served(self) -> bool:
        return self.result is not None

    @property
    def shed(self) -> bool:
        return self.shed_reason is not None


def _settle(handle: Pending, timeout: float) -> dict[str, Any]:
    """The :class:`Outcome` fields of one admitted request, once settled."""
    try:
        result = handle.result(timeout=timeout)
    except RequestShed as exc:
        return {"shed_reason": exc.reason}
    except (TimeoutError, FutureTimeoutError):
        return {"lost": True}
    except Exception as exc:
        return {"error": type(exc).__name__}
    # A search result says ``found``, a server's reply ``authenticated``.
    found = getattr(result, "found", None)
    if found is None:
        found = getattr(result, "authenticated", False)
    return {
        "result": result,
        "found": bool(found),
        "timed_out": bool(getattr(result, "timed_out", False)),
    }


def drive(
    submit: Callable[[Request], Pending],
    requests: Sequence[Request],
    timeout: float = 120.0,
) -> list[Outcome[Request]]:
    """Submit every request back to back, then collect each outcome.

    ``submit`` raising :class:`~repro.sched.errors.RequestShed` is a shed
    at admission; any other exception from it is an untyped error.
    ``timeout`` bounds the wait for each request in turn. Outcomes come
    back in request order.
    """
    settled: dict[int, float] = {}

    def stamp(index: int) -> Callable[[Any], None]:
        def callback(_handle: Any) -> None:
            settled[index] = time.perf_counter()

        return callback

    submitted: list[tuple[Request, float, Pending | dict[str, Any]]] = []
    for index, request in enumerate(requests):
        started = time.perf_counter()
        refused: dict[str, Any]
        try:
            handle = submit(request)
        except RequestShed as exc:
            refused = {"shed_reason": exc.reason}
        except Exception as exc:
            refused = {"error": type(exc).__name__}
        else:
            handle.add_done_callback(stamp(index))
            submitted.append((request, started, handle))
            continue
        settled[index] = time.perf_counter()
        submitted.append((request, started, refused))

    outcomes: list[Outcome[Request]] = []
    for index, (request, started, handle) in enumerate(submitted):
        fields = handle if isinstance(handle, dict) else _settle(handle, timeout)
        # The done-callback may trail result() by a moment; the request
        # settled just now in that case.
        finished = settled.get(index, time.perf_counter())
        outcomes.append(Outcome(request, finished - started, **fields))
    return outcomes


def summarize(outcomes: Sequence[Outcome[Any]]) -> dict[str, Any]:
    """Outcome counts, shed reasons, and served-latency percentiles.

    Percentiles cover served requests only (a shed or lost request has
    no service latency) and are ``None`` when nothing was served.
    """
    served = [o.latency_seconds for o in outcomes if o.served]
    reasons: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.shed_reason is not None:
            reasons[outcome.shed_reason] = reasons.get(outcome.shed_reason, 0) + 1
    stats: dict[str, Any] = {
        "count": len(outcomes),
        "served": len(served),
        "found": sum(1 for o in outcomes if o.found),
        "timed_out": sum(1 for o in outcomes if o.timed_out),
        "shed": sum(reasons.values()),
        "shed_reasons": reasons,
        "lost": sum(1 for o in outcomes if o.lost),
        "errors": sum(1 for o in outcomes if o.error is not None),
    }
    for name, q in (("p50", 50), ("p95", 95), ("p99", 99), ("max", 100)):
        stats[f"{name}_seconds"] = (
            round(percentile(served, q), 6) if served else None
        )
    return stats
