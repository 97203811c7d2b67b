"""Named pass/fail gates, the benchmark record envelope, and the verdict.

Every storm and CI benchmark states its pass conditions once, as a list
of :class:`Gate` (a name, a measured value, a bound and the comparison
between them). That one list feeds everything that reports on it, so
they cannot disagree:

* a report's ``passed`` flag: every gate holds;
* :func:`render_verdict`: ``verdict: PASS``, or ``verdict: FAIL`` plus
  one line per failing gate with its value and bound;
* :func:`exit_code`: 0 when every gate holds, else 1;
* :func:`write_record`: the ``BENCH_*.json`` envelope
  ``{benchmark, schema, host, git_rev, config, metrics, gates, pass}``,
  which names the host and commit behind each number.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import subprocess
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "Gate",
    "SCHEMA",
    "exit_code",
    "render_verdict",
    "write_record",
]

#: Version of the record envelope below.
SCHEMA = 1

_COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


@dataclass(frozen=True)
class Gate:
    """One pass condition: ``value <op> bound``.

    A ``None`` value means the quantity was never measured (a wave that
    did not run, a phase that served nothing); the gate then fails
    instead of raising on the comparison.
    """

    name: str
    value: Any
    bound: Any
    op: str = "=="

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ValueError(
                f"unknown comparison {self.op!r}; "
                f"choices: {sorted(_COMPARISONS)}"
            )

    @property
    def ok(self) -> bool:
        if self.value is None:
            return False
        return bool(_COMPARISONS[self.op](self.value, self.bound))

    def describe(self) -> str:
        """``name: value (bound op bound)``, for a failing-gate line."""
        return (
            f"{self.name}: {_show(self.value)} "
            f"(bound {self.op} {_show(self.bound)})"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "op": self.op,
            "bound": self.bound,
            "pass": self.ok,
        }


def _show(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def exit_code(gates: Sequence[Gate]) -> int:
    """The process exit status for a gated run: 0 iff every gate holds."""
    return 0 if all(gate.ok for gate in gates) else 1


def render_verdict(gates: Sequence[Gate]) -> str:
    """``verdict: PASS``, or ``verdict: FAIL`` and every failing gate."""
    failing = [gate for gate in gates if not gate.ok]
    if not failing:
        return f"verdict: PASS ({len(gates)} gates)"
    lines = [f"verdict: FAIL ({len(failing)} of {len(gates)} gates)"]
    lines += [f"  FAIL {gate.describe()}" for gate in failing]
    return "\n".join(lines)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on this platform
        return os.cpu_count() or 1


def _host() -> dict[str, Any]:
    import numpy

    return {
        "cpus": _cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _git_rev() -> str | None:
    """HEAD of the checkout this package runs from; None outside one."""
    root = Path(__file__).resolve().parents[2]
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # A tree exported without .git may still sit inside another checkout.
    if len(top) != 2 or Path(top[0]).resolve() != root:
        return None
    return top[1]


def write_record(
    path: str | Path,
    benchmark: str,
    record: Mapping[str, Any],
    gates: Sequence[Gate],
) -> dict[str, Any]:
    """Write ``record`` in the envelope every ``BENCH_*.json`` shares.

    ``record["config"]`` is the run's configuration; every other key is
    a measurement and goes under ``metrics``. Returns the envelope.
    """
    envelope = {
        "benchmark": benchmark,
        "schema": SCHEMA,
        "host": _host(),
        "git_rev": _git_rev(),
        "config": dict(record["config"]),
        "metrics": {k: v for k, v in record.items() if k != "config"},
        "gates": [gate.to_json() for gate in gates],
        "pass": all(gate.ok for gate in gates),
    }
    Path(path).write_text(
        json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return envelope
