"""``sweep``: miss searches over the radius-3 ball on the deployed engine.

The measured window has two phases, each on its own engine built from
the deployed spec through the ``repro.engines`` registry:

* SHA-1 (60% of ``--seconds``): repeated exhaustive miss searches over
  the whole Hamming ball of radius 3 (2,796,417 candidates). A search
  is started only while it is expected to end inside the phase.
* SHA3-256 (40%): four miss searches over the same ball, each cut by
  its time budget. A full radius-3 SHA3-256 sweep takes about 17 s on a
  2-core host, more than the phase, so each search covers the radius-2
  ball and the start of the d=3 shell, in the engine's rank order.

Targets are digests of random seeds, so no search may find anything.
``p50_ms``/``p75_ms`` are the SHA-1 search times; ``ops_per_s`` is the
median SHA3-256 search rate in millions of candidates per second. Both
are medians over several searches so that a burst of host contention
during one search does not move them, and every search time is
steal-adjusted (:class:`host.StealClock`).
"""

from __future__ import annotations

import time

import numpy as np

from host import StealClock
from layers import SpanIndex, median, per_layer_metrics, percentile
from spans import SpanRecorder, span_cost_seconds

SPEC = "fleet:host,host,hash={hash},bs=8192"
SHA1, SHA3 = "sha1", "sha3-256"
SHA1_SHARE = 0.6
SHA3_SEARCHES = 4
SETUP_REPEATS = 5


def _ball(radius: int) -> int:
    from repro.combinatorics.binomial import binomial

    return sum(binomial(256, d) for d in range(radius + 1))


class SweepCheckFailed(AssertionError):
    pass


def _miss(engine, rng, radius: int, budget: float | None = None) -> int:
    """One miss search; returns how many candidates it hashed.

    An uncut search must hash exactly the ball; a search cut by
    ``budget`` must have passed the inner ball.
    """
    algo = engine.algo
    base = rng.bytes(32)
    target = algo.scalar(rng.bytes(32))
    result = engine.search(base, target, radius, time_budget=budget)
    hashed = result.seeds_hashed
    if result.timed_out:
        complete = budget is not None and _ball(radius - 1) < hashed <= _ball(radius)
    else:
        complete = hashed == _ball(radius)
    if result.found or not complete:
        raise SweepCheckFailed(
            f"{algo.name} radius-{radius} miss: found={result.found} "
            f"timed_out={result.timed_out} hashed={hashed} "
            f"ball={_ball(radius)}"
        )
    return hashed


def _control(hash_name: str, engine, rng) -> None:
    """A planted radius-2 hit finds the same seed on fleet and batch."""
    from repro.engines import build_engine

    base = bytearray(rng.bytes(32))
    planted = bytearray(base)
    for bit in rng.choice(256, size=2, replace=False):
        planted[bit // 8] ^= 1 << (bit % 8)
    target = engine.algo.scalar(bytes(planted))
    reference = build_engine(f"batch:{hash_name},bs=8192")
    seeds = {
        "fleet": engine.search(bytes(base), target, 2).seed,
        "batch": reference.search(bytes(base), target, 2).seed,
    }
    if seeds["fleet"] != bytes(planted) or seeds["batch"] != bytes(planted):
        raise SweepCheckFailed(f"{hash_name} planted-hit control disagrees: {seeds}")


def _kernel_mhs(hash_name: str, rng, seconds: float = 0.4) -> float:
    """Raw kernel rate on 8192-seed batches (no engine around it)."""
    from repro.hashes.registry import get_hash

    algo = get_hash(hash_name)
    words = rng.integers(0, 2**63, size=(8192, 4), dtype=np.uint64)
    algo.batch(words, fixed_padding=True)
    hashed, started = 0, time.perf_counter()
    while time.perf_counter() - started < seconds:
        algo.batch(words, fixed_padding=True)
        hashed += len(words)
    return hashed / (time.perf_counter() - started) / 1e6


def kernel_rates(rng) -> dict[str, float]:
    return {name: _kernel_mhs(name, rng) for name in (SHA1, SHA3)}


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from repro.engines import build_engine
    from repro.runtime.maskplan import global_plan_cache

    rng = np.random.default_rng((seed, 0x5EE9))
    radius = 2 if smoke else 3
    recorder = None
    if trace:
        from instrument import instrument_engine

        recorder = SpanRecorder("c")
        instrument_engine(recorder)

    # One engine at a time: an idle fleet engine keeps probing its
    # devices and would slow the other engine's searches.
    setup: list[float] = []
    for _ in range(1 if smoke or trace else SETUP_REPEATS):
        global_plan_cache().clear()
        with StealClock() as clock:
            for hash_name in (SHA1, SHA3):
                with build_engine(SPEC.format(hash=hash_name)) as engine:
                    _miss(engine, rng, 2)
        setup.append(clock.adjusted)

    # (steal-adjusted seconds, candidates hashed, raw seconds, steal share)
    runs: dict[str, list[tuple[float, int, float, float]]] = {SHA1: [], SHA3: []}
    roots: list[dict] = []
    spans: list[dict] = []
    events: list[dict] = []

    def timed(engine, hash_name: str, budget: float | None = None) -> None:
        root = None
        if recorder is not None:
            recorder.set_key(f"search-{len(roots)}")
            root = recorder.begin("sweep.search")
        try:
            with StealClock() as clock:
                hashed = _miss(engine, rng, radius, budget)
            runs[hash_name].append(
                (clock.adjusted, hashed, clock.seconds, clock.steal)
            )
        finally:
            if root is not None:
                recorder.end(root)
                roots.append(root)

    try:
        with build_engine(SPEC.format(hash=SHA3)) as engine:
            _control(SHA3, engine, rng)
        with build_engine(SPEC.format(hash=SHA1)) as engine:
            _control(SHA1, engine, rng)
            with StealClock() as warmup:
                _miss(engine, rng, radius)  # fills the mask-plan cache
            if recorder is not None:
                recorder.spans.clear()
                recorder.events.clear()
            phase = seconds * SHA1_SHARE
            window = time.perf_counter()
            while not runs[SHA1] or (
                time.perf_counter() - window + median([r[2] for r in runs[SHA1]])
                <= phase
            ):
                timed(engine, SHA1)
        with build_engine(SPEC.format(hash=SHA3)) as engine:
            for _ in range(SHA3_SEARCHES):
                timed(
                    engine, SHA3,
                    budget=seconds * (1.0 - SHA1_SHARE) / SHA3_SEARCHES,
                )
        if recorder is not None:
            spans, events = recorder.spans, recorder.events
    finally:
        global_plan_cache().clear()

    def rate(hash_name: str) -> float:
        done = runs[hash_name]
        return sum(r[1] for r in done) / sum(r[0] for r in done) / 1e6

    sha1_ms = [r[0] * 1e3 for r in runs[SHA1]]
    searches = len(runs[SHA1]) + len(runs[SHA3])
    out = {
        "attempted": searches,
        "failed": 0,
        "engine": SPEC.format(hash=SHA1),
        "details": {
            "radius": radius,
            "warmup_s": warmup.seconds,
            "setup_samples_s": setup,
            "sweep_sha1_mhs": rate(SHA1),
            "sweep_sha3_mhs": rate(SHA3),
            "sha1_searches": len(runs[SHA1]),
            "sha1_search_wall_ms": [r[2] * 1e3 for r in runs[SHA1]],
            "search_steal_frac": {h: [r[3] for r in runs[h]] for h in runs},
            "sha3_candidates": [r[1] for r in runs[SHA3]],
        },
        "end_to_end": {
            "setup_s": (median(setup), len(setup)),
            "p50_ms": (median(sha1_ms), len(sha1_ms)),
            "p75_ms": (percentile(sha1_ms, 75.0), len(sha1_ms)),
            "ops_per_s": (
                median([r[1] / r[0] / 1e6 for r in runs[SHA3]]),
                len(runs[SHA3]),
            ),
            "ok_frac": (1.0, searches),
        },
    }
    if recorder is not None:
        per_layer, breakdown = per_layer_metrics(
            SpanIndex(spans),
            events,
            roots,
            operations=searches,
            lags=[],
            shed=0,
            rejected=0,
            kernel_mhs=kernel_rates(rng),
            engine_mhs={SHA1: rate(SHA1), SHA3: rate(SHA3)},
            bytes_per_hash=32 + 20,
            span_cost=span_cost_seconds(),
        )
        out["per_layer"] = per_layer
        out["details"]["median_request"] = breakdown
    return out
