"""Tenancy benchmark — noisy-neighbor isolation under per-tenant quotas.

The serving claim behind :mod:`repro.tenancy`: an in-quota tenant's tail
latency survives a neighbor slamming the same CA far past its admission
budget, because the neighbor's excess is refused at the front door with
a typed ``tenant_quota`` shed instead of queueing ahead of everyone
else. Three phases over the same planted two-tenant fleet
(:func:`repro.tenancy.workload.run_noisy_neighbor`):

* **baseline** — the victim tenant alone;
* **storm** — the aggressor fleet arrives in one burst at ~20x its token
  bucket, quotas enforced;
* **unprotected** — the identical storm with the quota removed (the
  damage the bucket exists to prevent; report-only, not gated).

Gates (:func:`repro.tenancy.workload.noisy_neighbor_gates`): the victim
is never shed and keeps authenticating, every aggressor rejection is
typed ``tenant_quota``, and the victim's p99 stays within 25% of its
baseline (plus a small absolute allowance for CI clock noise). Runs
standalone for CI (writes ``BENCH_tenancy.json``, exits 1 on any gate
failure) and under pytest with the usual report plumbing::

    PYTHONPATH=src python benchmarks/bench_tenancy.py --help
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.gates import exit_code, write_record
from repro.tenancy.workload import (
    AGGRESSOR_TENANT,
    noisy_neighbor_gates,
    render_noisy_neighbor,
    run_noisy_neighbor,
)

#: Acceptance-scale defaults (also the workload's own): an 8-client
#: victim fleet against a 20-request aggressor burst on a 1-token/s
#: bucket.
FULL_SCALE = {
    "victims": 8,
    "aggressors": 20,
    "aggressor_rate": 1.0,
    "aggressor_burst": 1.0,
    "workers": 2,
}


def test_quotas_isolate_the_victim_tenant(report):
    """Pytest entry: the acceptance claims of the bench.

    Runs at acceptance scale — the victim fleet must be large enough
    that the one admitted aggressor search is small relative to the
    victim's own baseline tail, or clock noise dominates the ratio.
    """
    record = run_noisy_neighbor(victims=10, aggressors=12)
    gates = noisy_neighbor_gates(record)
    text = render_noisy_neighbor(record, gates)
    report("tenancy", text)
    assert exit_code(gates) == 0, text
    # The quota refused real work: the unprotected phase served the whole
    # aggressor fleet, the protected storm only the bucket's worth.
    assert record["aggressor_admitted"] < record["config"]["aggressors"]
    unprotected = record["unprotected"][AGGRESSOR_TENANT]
    assert unprotected["shed"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Noisy-neighbor tenant isolation under quotas."
    )
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument("--victims", type=int, default=FULL_SCALE["victims"])
    parser.add_argument(
        "--aggressors", type=int, default=FULL_SCALE["aggressors"]
    )
    parser.add_argument(
        "--aggressor-rate", type=float,
        default=FULL_SCALE["aggressor_rate"],
        help="aggressor token-bucket refill rate (lookups/second)",
    )
    parser.add_argument(
        "--aggressor-burst", type=float,
        default=FULL_SCALE["aggressor_burst"],
        help="aggressor token-bucket capacity",
    )
    parser.add_argument("--workers", type=int, default=FULL_SCALE["workers"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ratio-limit", type=float, default=1.25,
        help="allowed victim p99 degradation under the storm",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_tenancy.json")
    )
    args = parser.parse_args(argv)

    record = run_noisy_neighbor(
        hash_name=args.hash_name,
        victims=args.victims,
        aggressors=args.aggressors,
        aggressor_rate=args.aggressor_rate,
        aggressor_burst=args.aggressor_burst,
        workers=args.workers,
        seed=args.seed,
    )
    gates = noisy_neighbor_gates(record, ratio_limit=args.ratio_limit)
    record["config"]["ratio_limit"] = args.ratio_limit
    write_record(args.output, "tenancy", record, gates)
    print(render_noisy_neighbor(record, gates))
    print(f"  wrote {args.output}")
    return exit_code(gates)


if __name__ == "__main__":
    raise SystemExit(main())
