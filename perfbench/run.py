"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep|auth-open|enroll-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same workload with span timers and
reports the per-layer metrics instead. Every run checks the program's
outputs; a run that fails a check prints why on stderr, prints no
result and exits 1. The last line of standard output is the result
object; the line before it is the full record (host, revision, seed,
engine spec, sample count behind every metric). See README.md here.
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "auth-open", "enroll-mix")

#: Every end-to-end metric each untraced run reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p75_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "frac"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for the self-test (radius-2 sweep, one set-up)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import host

    # Registered first, so it runs last at exit: after the mask-plan
    # caches' own exit hooks have unlinked their shared segments.
    atexit.register(host.stop_resource_tracker)
    host.adopt_orphans()
    import serving
    import sweep
    from layers import PER_LAYER

    ticks = host.cpu_ticks()
    try:
        if args.workload == "sweep":
            out = sweep.run(args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            out = serving.run(
                ROOT, args.workload, args.seed, args.seconds,
                bool(args.trace), args.smoke,
            )
    except (sweep.SweepCheckFailed, serving.CheckFailed) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1

    table = PER_LAYER if args.trace else END_TO_END
    measured = out["per_layer"] if args.trace else out["end_to_end"]
    metrics, samples = {}, {}
    for name, unit in table:
        value, count = measured[name]
        if not math.isfinite(value):
            print(f"perfbench: metric {name} has no value", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = count
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.describe(),
        "steal_frac": host.busy_steal_frac(ticks, host.cpu_ticks()),
        "git_rev": host.git_rev(ROOT),
        "engine": out["engine"],
        "samples": samples,
        "details": out["details"],
    }
    for name, entry in metrics.items():
        print(f"{args.workload:>10}  {name:<28} {entry['value']:>14.4f} {entry['unit']}")
    print("RECORD " + json.dumps(record, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
