"""In-memory span recording for the traced benchmark run.

A span is ``(id, name, start, end, parent, key)``: ``parent`` is the
span that was open on the same thread when this one began, and ``key``
names the request the span served (the fleet client id on the serving
workloads, a search index on ``sweep``). Times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` — one
clock for every process on the host, so client spans recorded by the
load generator and server spans recorded by the server child can be
merged on one time line.

Spans are recorded from the benchmark's own files only: :func:`wrap`
replaces a public function of the program with a timed wrapper around
the original, in the process that runs it. Nothing is written until
:meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

__all__ = ["SpanRecorder", "wrap", "wrap_generator", "span_cost_seconds"]


class SpanRecorder:
    """Collects spans (and search events) for one process."""

    def __init__(self, process: str):
        self.process = process
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- thread-local request context -----------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_key(self) -> str | None:
        return getattr(self._tls, "key", None)

    def set_key(self, key: str | None) -> None:
        """Name the request this thread serves from now on."""
        self._tls.key = key

    # -- recording -------------------------------------------------------

    def begin(self, name: str, key: str | None = None) -> dict:
        stack = self._stack()
        span = {
            "id": f"{self.process}{next(self._ids)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "key": key if key is not None else self.current_key(),
        }
        stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        self.spans.append(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        key: str | None = None,
        parent: str | None = None,
    ) -> None:
        """Record a span whose times were measured elsewhere."""
        self.spans.append(
            {
                "id": f"{self.process}{next(self._ids)}",
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "key": key,
            }
        )

    def event(self, **fields: Any) -> None:
        """Record a non-span observation (one finished search, say)."""
        self.events.append(fields)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "events": self.events}, handle)


def _raw_function(owner: Any, attr: str) -> tuple[Callable, Callable]:
    """(plain function, re-wrapper) for a function, method or classmethod."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    return raw, lambda f: f


def wrap(
    recorder: SpanRecorder,
    owner: Any,
    attr: str,
    name: str,
    key_of: Callable[[tuple, dict], str | None] | None = None,
    after: Callable[[dict, tuple, dict, Any], None] | None = None,
) -> None:
    """Time every call of ``owner.attr`` as a span called ``name``.

    ``key_of(args, kwargs)`` may name the request from the arguments;
    ``after(span, args, kwargs, result)`` runs once the call returned,
    before the span closes.
    """
    func, rewrap = _raw_function(owner, attr)

    @functools.wraps(func)
    def timed(*args, **kwargs):
        span = recorder.begin(name, key_of(args, kwargs) if key_of else None)
        try:
            result = func(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        finally:
            recorder.end(span)

    setattr(owner, attr, rewrap(timed))


def wrap_generator(
    recorder: SpanRecorder, owner: Any, attr: str, name: str
) -> None:
    """Time each step of a generator method as a span called ``name``."""
    func, rewrap = _raw_function(owner, attr)

    @functools.wraps(func)
    def timed(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            span = recorder.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.end(span)
            yield item

    setattr(owner, attr, rewrap(timed))


def span_cost_seconds(calls: int = 20000) -> float:
    """Added cost of one recorded span, measured on a no-op function."""

    class Probe:
        @staticmethod
        def noop() -> None:
            return None

    bare = Probe.noop
    started = time.perf_counter()
    for _ in range(calls):
        bare()
    bare_seconds = time.perf_counter() - started
    wrap(SpanRecorder("p"), Probe, "noop", "probe")
    traced = Probe.noop
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    traced_seconds = time.perf_counter() - started
    return max(traced_seconds - bare_seconds, 0.0) / calls
