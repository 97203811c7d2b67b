"""Turn recorded spans into per-request attributions and layer metrics.

Attribution walks each request's time line and gives every instant to
the deepest span open at that instant: a layer's *self time* is the part
of its span that no deeper span covers, and whatever only the request's
root span covers is ``unattributed``. Spans from the server child join
a request's tree by key (the fleet client id) and time: a keyed server
span with no parent hangs under the deepest round trip of the same
request that contains its start. Spans that run on device threads carry
no key; they hang under each ``sched.service`` span they overlap.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Spans under which a request's other keyed spans are hung.
_CONTAINERS = ("rtt.handshake", "rtt.digest", "rtt.enroll", "sched.search")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


class SpanIndex:
    """Spans of every process, indexed for tree and time lookups."""

    def __init__(self, spans: list[dict]):
        self.spans = [s for s in spans if s["end"] is not None]
        self.children: dict[str, list[dict]] = defaultdict(list)
        self.top_keyed: dict[str, list[dict]] = defaultdict(list)
        self.top_unkeyed: list[dict] = []
        for span in self.spans:
            if span["parent"] is not None:
                self.children[span["parent"]].append(span)
            elif span["name"] in ("request", "sweep.search"):
                continue
            elif span["key"] is not None:
                self.top_keyed[span["key"]].append(span)
            else:
                self.top_unkeyed.append(span)
        self.top_unkeyed.sort(key=lambda s: s["start"])

    def by_name(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def _subtree(self, span: dict, depth: int, out: list[tuple[int, dict]]):
        out.append((depth, span))
        for child in self.children.get(span["id"], ()):
            self._subtree(child, depth + 1, out)

    def request_tree(self, root: dict) -> list[tuple[int, dict]]:
        """(depth, span) for every span that served ``root``'s request."""
        tree: list[tuple[int, dict]] = []
        self._subtree(root, 0, tree)
        containers = [(d, s) for d, s in tree if s["name"] in _CONTAINERS]
        for span in self.top_keyed.get(root["key"], ()):
            if not root["start"] <= span["start"] <= root["end"]:
                continue
            holders = [
                d for d, c in containers if c["start"] <= span["start"] <= c["end"]
            ]
            self._subtree(span, (max(holders) if holders else 0) + 1, tree)
        services = [(d, s) for d, s in tree if s["name"] == "sched.service"]
        for depth, service in services:
            for span in self.top_unkeyed:
                if span["start"] >= service["end"]:
                    break
                if span["end"] > service["start"]:
                    self._subtree(span, depth + 1, tree)
        return tree


def attribute(tree: list[tuple[int, dict]]) -> dict[str, float]:
    """Seconds of the root's window given to each span name.

    The root's own share is reported as ``unattributed``.
    """
    root = tree[0][1]
    lo, hi = root["start"], root["end"]
    edges = []
    for order, (depth, span) in enumerate(tree):
        start, end = max(span["start"], lo), min(span["end"], hi)
        if end > start:
            edges.append((start, 1, order))
            edges.append((end, 0, order))
    edges.sort()
    shares: dict[str, float] = defaultdict(float)
    open_spans: set[int] = set()
    last = lo
    for time, opening, order in edges:
        if open_spans and time > last:
            deepest = max(open_spans, key=lambda o: (tree[o][0], o))
            name = tree[deepest][1]["name"]
            shares["unattributed" if deepest == 0 else name] += time - last
        last = time
        if opening:
            open_spans.add(order)
        else:
            open_spans.discard(order)
    return dict(shares)


def durations(index: SpanIndex, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in index.by_name(name)]


#: Every per-layer metric the traced run reports: (name, unit).
PER_LAYER = (
    ("client.respond_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("loadgen.lag_p95_ms", "ms"),
    ("rtt.handshake_ms", "ms"),
    ("rtt.digest_ms", "ms"),
    ("rtt.enroll_ms", "ms"),
    ("net.decode_us", "us"),
    ("net.encode_us", "us"),
    ("net.frames", "count"),
    ("admit.submit_ms", "ms"),
    ("admit.shed", "count"),
    ("admit.rejected", "count"),
    ("tenancy.admit_us", "us"),
    ("directory.lookup_ms", "ms"),
    ("directory.lookups_per_auth", "count"),
    ("wal.append_ms", "ms"),
    ("wal.sync_ms", "ms"),
    ("directory.write_ms", "ms"),
    ("sched.queue_ms", "ms"),
    ("sched.service_ms", "ms"),
    ("fleet.batch_ms", "ms"),
    ("fleet.batches_per_search", "count"),
    ("fleet.shared_batch_ratio", "frac"),
    ("fleet.hedged", "count"),
    ("fleet.redispatched", "count"),
    ("mask.build_ms", "ms"),
    ("exec.found_search_ms", "ms"),
    ("kernel.sha1_mhs", "M/s"),
    ("kernel.sha3_mhs", "M/s"),
    ("kernel.bytes_per_hash", "B"),
    ("engine.tax_sha1", "frac"),
    ("engine.tax_sha3", "frac"),
    ("keygen.issue_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def _scaled(values: list[float], scale: float, q: float = 50.0):
    return (percentile(values, q) * scale if values else 0.0, len(values))


def per_layer_metrics(
    index: SpanIndex,
    events: list[dict],
    roots: list[dict],
    *,
    operations: int,
    lags: list[float],
    shed: int,
    rejected: int,
    kernel_mhs: dict[str, float],
    engine_mhs: dict[str, float | None],
    bytes_per_hash: int,
    span_cost: float,
) -> tuple[dict[str, tuple[float, int]], dict]:
    """``{name: (value, samples)}`` for :data:`PER_LAYER`, plus the
    attribution of the median request (``{span name: ms}``).

    Times are medians per call unless the name says otherwise. A layer
    the workload never reaches reports 0 with 0 samples.
    """
    ms, us = 1e3, 1e6
    searches = [e for e in events if e["kind"] == "search"]
    found = [e["queue"] + e["service"] for e in searches if e["found"]]
    batches = sum(e["batches"] for e in searches)
    tenancy = durations(index, "tenancy.resolve") + durations(
        index, "tenancy.admit"
    )
    lookups = len(index.by_name("directory.lookup"))
    trees = [index.request_tree(root) for root in roots]
    shares = [attribute(tree) for tree in trees]
    totals = [root["end"] - root["start"] for root in roots]
    unattributed = [share.get("unattributed", 0.0) for share in shares]
    middle = (
        sorted(range(len(roots)), key=totals.__getitem__)[len(roots) // 2]
        if roots
        else None
    )
    spans_per_root = sum(len(t) for t in trees) / len(trees) if trees else 0.0
    overhead = spans_per_root * span_cost / median(totals) if totals else 0.0

    def tax(hash_name: str) -> tuple[float, int]:
        engine, kernel = engine_mhs.get(hash_name), kernel_mhs.get(hash_name)
        if not engine or not kernel:
            return 0.0, 0
        return 1.0 - engine / kernel, 1

    metrics = {
        "client.respond_ms": _scaled(durations(index, "client.respond"), ms),
        "net.connect_ms": _scaled(durations(index, "net.connect"), ms),
        "loadgen.lag_p95_ms": _scaled(lags, ms, 95.0),
        "rtt.handshake_ms": _scaled(durations(index, "rtt.handshake"), ms),
        "rtt.digest_ms": _scaled(durations(index, "rtt.digest"), ms),
        "rtt.enroll_ms": _scaled(durations(index, "rtt.enroll"), ms),
        "net.decode_us": _scaled(durations(index, "net.decode"), us),
        "net.encode_us": _scaled(durations(index, "net.encode"), us),
        "net.frames": (float(len(index.by_name("net.frame"))), operations),
        "admit.submit_ms": _scaled(durations(index, "admit.submit"), ms),
        "admit.shed": (float(shed), operations),
        "admit.rejected": (float(rejected), operations),
        "tenancy.admit_us": _scaled(tenancy, us),
        "directory.lookup_ms": _scaled(durations(index, "directory.lookup"), ms),
        "directory.lookups_per_auth": (
            lookups / operations if operations else 0.0,
            operations,
        ),
        "wal.append_ms": _scaled(durations(index, "wal.append"), ms),
        "wal.sync_ms": _scaled(durations(index, "wal.sync"), ms),
        "directory.write_ms": _scaled(durations(index, "directory.write"), ms),
        "sched.queue_ms": _scaled([e["queue"] for e in searches], ms),
        "sched.service_ms": _scaled([e["service"] for e in searches], ms),
        "fleet.batch_ms": _scaled(durations(index, "fleet.batch"), ms),
        "fleet.batches_per_search": (
            batches / len(searches) if searches else 0.0,
            len(searches),
        ),
        "fleet.shared_batch_ratio": (
            sum(e["shared_batches"] for e in searches) / batches
            if batches
            else 0.0,
            batches,
        ),
        "fleet.hedged": (
            float(sum(e["hedged"] for e in searches)),
            len(searches),
        ),
        "fleet.redispatched": (
            float(sum(e["redispatched"] for e in searches)),
            len(searches),
        ),
        "mask.build_ms": _scaled(durations(index, "mask.build"), ms),
        "exec.found_search_ms": _scaled(found, ms),
        "kernel.sha1_mhs": (kernel_mhs.get("sha1", 0.0), 1),
        "kernel.sha3_mhs": (kernel_mhs.get("sha3-256", 0.0), 1),
        "kernel.bytes_per_hash": (float(bytes_per_hash), 1),
        "engine.tax_sha1": tax("sha1"),
        "engine.tax_sha3": tax("sha3-256"),
        "keygen.issue_ms": _scaled(durations(index, "keygen.issue"), ms),
        "unattributed_ms": _scaled(unattributed, ms),
        "trace.overhead_frac": (overhead, len(roots)),
    }
    breakdown = {}
    if middle is not None:
        breakdown = {
            "request_ms": totals[middle] * ms,
            "self_ms": {
                name: seconds * ms
                for name, seconds in sorted(shares[middle].items())
            },
        }
    return metrics, breakdown
