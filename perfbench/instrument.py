"""Where the traced run puts its span timers.

Each ``instrument_*`` function wraps public functions of the program,
in the calling process, with :func:`spans.wrap`. The span names are the
per-layer vocabulary that :mod:`layers` turns into metrics.
"""

from __future__ import annotations

import os

from spans import SpanRecorder, wrap, wrap_generator

#: Wire messages whose decode names the request the thread now serves.
_MESSAGES = (
    "HandshakeRequest",
    "HandshakeResponse",
    "DigestSubmission",
    "AuthenticationResult",
    "EnrollRequest",
    "EnrollReply",
    "MetricsRequest",
    "MetricsSnapshot",
    "ErrorReply",
)


def _keyword(name: str):
    return lambda args, kwargs: kwargs.get(name)


def _positional(index: int):
    return lambda args, kwargs: args[index] if len(args) > index else None


def instrument_messages(rec: SpanRecorder) -> None:
    """``net``: message encode/decode, in whichever process runs it."""
    from repro.net import messages

    def name_request(span, _args, _kwargs, message):
        client_id = getattr(message, "client_id", None)
        if client_id:
            span["key"] = client_id
            rec.set_key(client_id)

    for class_name in _MESSAGES:
        cls = getattr(messages, class_name)
        wrap(rec, cls, "from_bytes", "net.decode", after=name_request)
        wrap(rec, cls, "to_bytes", "net.encode")


def _record_search(rec: SpanRecorder, key, start: float, result) -> None:
    """Queue/service spans and one search event from a finished search."""
    scheduling = result.scheduling
    fleet = result.fleet
    queue = scheduling.queue_seconds if scheduling else 0.0
    service = scheduling.service_seconds if scheduling else result.elapsed_seconds
    rec.add("sched.queue", start, start + queue, key=key)
    rec.add("sched.service", start + queue, start + queue + service, key=key)
    rec.event(
        kind="search",
        key=key,
        start=start,
        queue=queue,
        service=service,
        found=bool(result.found),
        seeds_hashed=result.seeds_hashed,
        batches=scheduling.batches if scheduling else 0,
        shared_batches=scheduling.shared_batches if scheduling else 0,
        hedged=fleet.hedged_batches if fleet else 0,
        redispatched=fleet.redispatched_chunks if fleet else 0,
    )


def instrument_engine(rec: SpanRecorder) -> None:
    """``sched``/``fleet``, ``runtime``, ``combinatorics`` and ``hashes``."""
    from repro.fleet.device import FleetDevice
    from repro.fleet.engine import FleetSearchEngine
    from repro.hashes.registry import HashAlgorithm
    from repro.runtime import maskplan
    from repro.runtime.executor import BatchSearchExecutor
    from repro.sched.errors import RequestShed

    def on_submit(span, _args, kwargs, ticket):
        key, start = kwargs.get("client_id"), span["start"]

        def settled(done):
            try:
                result = done.result(timeout=0.0)
            except RequestShed:
                return  # the server's own counters report sheds
            _record_search(rec, key, start, result)

        ticket.add_done_callback(settled)

    def on_search(span, _args, _kwargs, result):
        _record_search(rec, span["key"], span["start"], result)

    wrap(
        rec, FleetSearchEngine, "submit", "sched.submit",
        key_of=_keyword("client_id"), after=on_submit,
    )
    wrap(rec, FleetSearchEngine, "search", "sched.search", after=on_search)
    wrap(rec, FleetDevice, "run_batch", "fleet.batch")
    wrap_generator(rec, BatchSearchExecutor, "mask_batches", "mask.build")
    wrap(rec, maskplan, "unrank_lexicographic_batch", "combinatorics.unrank")
    wrap(rec, HashAlgorithm, "hash_seeds_batch", "kernel.hash")


def instrument_server(rec: SpanRecorder) -> None:
    """Every server-side layer a request crosses, plus the engine."""
    from repro.core.authentication import CertificateAuthority
    from repro.deploy.enrollment import VerifyingAuthority
    from repro.durability.log import ShardLog
    from repro.durability.store import DurableImageStore
    from repro.net import sockets
    from repro.net.concurrent import ConcurrentCAServer
    from repro.puf.image_db import EncryptedImageDatabase
    from repro.tenancy.registry import TenantRegistry

    instrument_messages(rec)
    instrument_engine(rec)
    wrap(rec, sockets, "encode_frame", "net.frame")
    wrap(rec, ConcurrentCAServer, "submit", "admit.submit")
    wrap(rec, TenantRegistry, "resolve", "tenancy.resolve")
    wrap(rec, TenantRegistry, "try_admit", "tenancy.admit")
    wrap(rec, CertificateAuthority, "issue_challenge", "directory.challenge")
    wrap(rec, CertificateAuthority, "enrolled_seed_with_stats", "directory.seed")
    wrap(rec, EncryptedImageDatabase, "lookup", "directory.lookup")
    wrap(rec, DurableImageStore, "enroll", "directory.write")
    wrap(rec, ShardLog, "append", "wal.append")
    wrap(rec, os, "fsync", "wal.sync")
    # Key issue runs on the fleet's dispatcher thread, so the request is
    # named from the call's client id, not from the thread.
    wrap(
        rec, VerifyingAuthority, "issue_public_key", "keygen.verify",
        key_of=_positional(1),
    )
    wrap(
        rec, CertificateAuthority, "issue_public_key", "keygen.issue",
        key_of=_positional(1),
    )


def instrument_client(rec: SpanRecorder) -> None:
    """The load generator's side: device, connect and round trips."""
    from repro.core.protocol import ClientDevice
    from repro.net.sockets import RemoteCAServer, SocketTransport

    instrument_messages(rec)
    wrap(rec, ClientDevice, "respond", "client.respond")
    wrap(rec, SocketTransport, "connect", "net.connect")
    wrap(rec, RemoteCAServer, "handle_handshake", "rtt.handshake")
    wrap(rec, RemoteCAServer, "handle_digest", "rtt.digest")
    wrap(rec, RemoteCAServer, "enroll", "rtt.enroll")
