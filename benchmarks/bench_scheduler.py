"""Scheduler benchmark — shallow-request tail latency under a mixed fleet.

The serving claim behind :mod:`repro.sched`: when shallow (d <= 2)
authentications share one device with deep stragglers, a FIFO worker
makes every shallow request wait out the deep searches queued ahead of
it, while the deadline-aware continuous batcher interleaves chunks of
all of them — so the shallow p99 collapses from "sum of the stragglers"
to "a few shared device batches".

Both serving paths run the *same* deterministic mixed-depth workload
(:func:`repro.sched.workload.mixed_workload` — depths cycled
round-robin, seeds planted at seeded-random shell positions):

* **FIFO** — requests served start-to-finish in submission order on one
  vectorized engine, latency measured from the common arrival instant;
* **scheduled** — all requests admitted at once, served by the
  ``sched:`` engine's EDF lanes and fused batches.

The headline number is the shallow-class p99 ratio. The measurement,
its gate and its rendering live in :mod:`repro.sched.workload`, shared
with ``repro sched``. Runs standalone for CI (writes
``BENCH_scheduler.json``, exits 1 when the scheduler fails to beat FIFO)
and under pytest with the usual report plumbing::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --help
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.gates import exit_code, write_record
from repro.sched.workload import (
    compare_fifo_and_scheduled,
    comparison_gates,
    render_comparison,
)

#: Acceptance-scale defaults: a mixed d=1..4 fleet. The budget is short
#: enough that d=4 cannot finish on one host device — the straggler
#: pressure the scheduler exists to absorb.
FULL_SCALE = {
    "requests": 16,
    "depths": (1, 2, 3, 4),
    "time_budget": 3.0,
    "batch_size": 16384,
}


def test_scheduler_beats_fifo_on_shallow_p99(report):
    """Reduced-scale pytest entry: the acceptance claim of the bench."""
    record = compare_fifo_and_scheduled(
        requests=8, depths=(1, 2, 3), time_budget=2.0, batch_size=8192
    )
    report("scheduler", render_comparison(record, comparison_gates(record)))
    assert record["shallow_p99_scheduled_seconds"] <= (
        record["shallow_p99_fifo_seconds"]
    )
    # Every shallow request really completed (found its planted seed).
    assert (
        record["scheduled"]["shallow"]["found"]
        == record["scheduled"]["shallow"]["count"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="FIFO vs scheduled shallow-request tail latency."
    )
    parser.add_argument("--hash", default="sha1", dest="hash_name")
    parser.add_argument(
        "--requests", type=int, default=FULL_SCALE["requests"]
    )
    parser.add_argument(
        "--depths", default=",".join(str(d) for d in FULL_SCALE["depths"]),
        help="comma-separated search depths, cycled over the fleet",
    )
    parser.add_argument(
        "--budget", type=float, default=FULL_SCALE["time_budget"],
        help="per-request time budget (protocol T)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=FULL_SCALE["batch_size"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_scheduler.json")
    )
    args = parser.parse_args(argv)

    record = compare_fifo_and_scheduled(
        hash_name=args.hash_name,
        requests=args.requests,
        depths=tuple(int(d) for d in args.depths.split(",")),
        time_budget=args.budget,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    gates = comparison_gates(record)
    write_record(args.output, "scheduler", record, gates)
    print(render_comparison(record, gates))
    print(f"  wrote {args.output}")
    return exit_code(gates)


if __name__ == "__main__":
    raise SystemExit(main())
