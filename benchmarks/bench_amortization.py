"""Amortized-pipeline benchmark — cold vs. warm search throughput.

The serving claim behind the amortized pipeline: per-search costs that
do not depend on the seed (combination unranking, mask building, worker
spawn) should be paid once, not per request. This bench measures exactly
that boundary on the ``pool:`` engine:

* **cold** — the first search on a fresh engine: pays worker-pool spawn
  plus mask-plan building for every shell slice;
* **warm** — the steady state the CA serves from: plans hit the cache,
  the pool is already running, per-candidate work is XOR + hash +
  compare.

The client seed is planted at rank 0 of the deepest shell, so every
search runs the same deterministic workload (all shallower shells
exhausted, one kernel batch at the deepest) — the paper's "found at
distance d" request shape. The fork-per-call ``parallel:`` engine is
measured once as the pre-amortization baseline.

Runs standalone for CI (writes ``BENCH_amortization.json``, exits 1 on
regression) and under pytest with the usual report plumbing::

    PYTHONPATH=src python benchmarks/bench_amortization.py --help
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro._bitutils import flip_bits
from repro.engines import build_engine, engine_target
from repro.gates import Gate, exit_code, render_verdict, write_record
from repro.runtime.maskplan import MaskPlanCache
from repro.runtime.pool import PooledSearchExecutor, default_worker_count

BASE_SEED = bytes(range(7, 39))

#: Acceptance-scale defaults (the paper's SHA-3 engine at d <= 3).
FULL_SCALE = {"max_distance": 3, "batch_size": 16384, "warm_searches": 5}


def run_benchmark(
    hash_name: str = "sha3-256",
    max_distance: int = 3,
    batch_size: int = 16384,
    workers: int | None = None,
    warm_searches: int = 5,
    include_parallel_baseline: bool = True,
) -> dict:
    """Measure cold / warm / fork-per-call throughput; return the record."""
    workers = workers if workers is not None else default_worker_count()
    # Rank 0 of the deepest shell: bits {0, .., d-1} flipped.
    client_seed = flip_bits(BASE_SEED, list(range(max_distance)))

    # Private cache sized so even the deepest shell slices plan in.
    plan_cache = MaskPlanCache(
        max_bytes=512 * 1024 * 1024, max_plan_bytes=256 * 1024 * 1024
    )
    engine = PooledSearchExecutor(
        hash_name,
        workers=workers,
        batch_size=batch_size,
        plan_cache=plan_cache,
    )
    target = engine_target(engine, client_seed)
    try:
        start = time.perf_counter()
        cold = engine.search(BASE_SEED, target, max_distance)
        cold_seconds = time.perf_counter() - start
        assert cold.found and cold.seed == client_seed, "cold search failed"

        warm_hashed = 0
        warm_seconds = 0.0
        last = cold
        for _ in range(warm_searches):
            start = time.perf_counter()
            last = engine.search(BASE_SEED, target, max_distance)
            warm_seconds += time.perf_counter() - start
            assert last.found and last.seed == client_seed, "warm search failed"
            warm_hashed += last.seeds_hashed
        amortized = last.amortized
    finally:
        engine.close()
        plan_cache.clear()

    parallel_hps = None
    if include_parallel_baseline:
        baseline = build_engine(
            "parallel",
            hash_name=hash_name,
            workers=workers,
            batch_size=batch_size,
        )
        start = time.perf_counter()
        result = baseline.search(BASE_SEED, target, max_distance)
        baseline_seconds = time.perf_counter() - start
        assert result.found, "parallel baseline failed"
        parallel_hps = result.seeds_hashed / baseline_seconds

    cold_hps = cold.seeds_hashed / cold_seconds
    warm_hps = warm_hashed / warm_seconds
    return {
        "config": {
            "hash_name": hash_name,
            "max_distance": max_distance,
            "batch_size": batch_size,
            "workers": workers,
            "warm_searches": warm_searches,
        },
        "cold_seconds": cold_seconds,
        "cold_hashes_per_second": cold_hps,
        "warm_seconds_mean": warm_seconds / warm_searches,
        "warm_hashes_per_second": warm_hps,
        "warm_over_cold": warm_hps / cold_hps,
        "parallel_hashes_per_second": parallel_hps,
        "amortized": {
            "plan_hits": amortized.plan_hits,
            "plan_misses": amortized.plan_misses,
            "plan_bytes": amortized.plan_bytes,
            "pool_searches": amortized.pool_searches,
            "pool_reused": amortized.pool_reused,
            "workers_spawned": amortized.workers_spawned,
        },
    }


def format_record(record: dict) -> str:
    config = record["config"]
    lines = [
        "Amortized pipeline — cold vs. warm search throughput",
        f"  engine: pool:{config['hash_name']},workers={config['workers']},"
        f"bs={config['batch_size']}  (d <= {config['max_distance']})",
        f"  cold (spawn + plan build): "
        f"{record['cold_hashes_per_second']:>12,.0f} H/s "
        f"({record['cold_seconds']:.3f}s)",
        f"  warm (steady state, n={config['warm_searches']}): "
        f"{record['warm_hashes_per_second']:>12,.0f} H/s "
        f"({record['warm_seconds_mean']:.3f}s/search)",
        f"  warm / cold: {record['warm_over_cold']:.2f}x",
    ]
    if record["parallel_hashes_per_second"] is not None:
        lines.append(
            f"  fork-per-call parallel baseline: "
            f"{record['parallel_hashes_per_second']:>12,.0f} H/s"
        )
    stats = record["amortized"]
    lines.append(
        f"  last search: plan_hits={stats['plan_hits']} "
        f"plan_misses={stats['plan_misses']} "
        f"plan_bytes={stats['plan_bytes']:,} "
        f"workers_spawned={stats['workers_spawned']}"
    )
    return "\n".join(lines)


def test_amortization_warm_beats_cold(report):
    """Reduced-scale pytest entry: warm must be at least as fast as cold."""
    record = run_benchmark(
        max_distance=2, batch_size=8192, warm_searches=3,
        include_parallel_baseline=False,
    )
    report("amortization", format_record(record))
    assert record["warm_hashes_per_second"] >= record["cold_hashes_per_second"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold vs. warm amortized-search throughput."
    )
    parser.add_argument("--hash", default="sha3-256", dest="hash_name")
    parser.add_argument(
        "--max-distance", type=int, default=FULL_SCALE["max_distance"]
    )
    parser.add_argument(
        "--batch-size", type=int, default=FULL_SCALE["batch_size"]
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="default: the process's CPU affinity count",
    )
    parser.add_argument(
        "--searches", type=int, default=FULL_SCALE["warm_searches"],
        help="number of warm searches to average",
    )
    parser.add_argument(
        "--no-parallel-baseline", action="store_true",
        help="skip the fork-per-call reference measurement",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=1.0,
        help="fail (exit 1) if warm/cold falls below this",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_amortization.json")
    )
    args = parser.parse_args(argv)

    record = run_benchmark(
        hash_name=args.hash_name,
        max_distance=args.max_distance,
        batch_size=args.batch_size,
        workers=args.workers,
        warm_searches=args.searches,
        include_parallel_baseline=not args.no_parallel_baseline,
    )
    gates = [
        Gate("warm_over_cold", record["warm_over_cold"], args.min_ratio, ">=")
    ]
    write_record(args.output, "amortization", record, gates)
    print(format_record(record))
    print(render_verdict(gates))
    print(f"  wrote {args.output}")
    return exit_code(gates)


if __name__ == "__main__":
    raise SystemExit(main())
