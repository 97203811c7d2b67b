"""Named counters, declared once, kept in total and per label.

A :class:`Counters` declaration (counter name to ``int`` or ``float``)
is the only place a counter name is spelled out: writers name the
counters they bump, snapshots copy whatever was declared, and writing an
undeclared name raises :class:`TypeError` like an unknown keyword does.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Mapping
from typing import Generic, TypeVar

__all__ = ["Counters"]

#: The label type of one :class:`Counters` (a tenant id, a distance, ...).
Label = TypeVar("Label", bound=Hashable)


class Counters(Generic[Label]):
    """Thread-safe named counters; an int counter always stays an int.

    ``Counters[str](hits=int, seconds=float)`` starts both at zero.
    ``add("gold", hits=1)`` bumps the total and the ``"gold"`` row in
    one critical section, so totals and rows never disagree.
    """

    def __init__(self, **kinds: type[int] | type[float]) -> None:
        for name, kind in kinds.items():
            if kind is not int and kind is not float:
                raise TypeError(f"counter {name!r} must be int or float")
        self._kinds = kinds
        self._lock = threading.Lock()
        self._totals = self._zeros()
        self._rows: dict[Label, dict[str, float]] = {}

    def _zeros(self) -> dict[str, float]:
        return {name: kind() for name, kind in self._kinds.items()}

    def _check(self, values: Mapping[str, float]) -> None:
        for name, value in values.items():
            kind = self._kinds.get(name)
            if kind is None:
                raise TypeError(f"undeclared counter {name!r}")
            if kind is int and isinstance(value, float):
                raise TypeError(f"counter {name!r} is an int, got {value!r}")

    def add(self, label: Label | None = None, /, **deltas: float) -> None:
        """Add to the totals and, given a label, to that label's row."""
        self._check(deltas)
        with self._lock:
            rows = [self._totals]
            if label is not None:
                row = self._rows.get(label)
                if row is None:
                    row = self._rows[label] = self._zeros()
                rows.append(row)
            for row in rows:
                for name, delta in deltas.items():
                    row[name] += delta

    def peak(self, **values: float) -> None:
        """Raise each named total to ``value`` if higher (a high-water mark)."""
        self._check(values)
        with self._lock:
            for name, value in values.items():
                self._totals[name] = max(self._totals[name], value)

    def set(self, **values: float) -> None:
        """Overwrite each named total (a gauge)."""
        self._check(values)
        with self._lock:
            self._totals.update(values)

    def snapshot(self) -> tuple[dict[str, float], dict[Label, dict[str, float]]]:
        """Copies of the totals and of every label's row (first-write order)."""
        with self._lock:
            rows = {label: dict(row) for label, row in self._rows.items()}
            return dict(self._totals), rows
