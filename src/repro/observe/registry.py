"""The metrics registry: counters, gauges, and nesting timer spans.

This is the self-profiling layer's core (the paper's Section V, turned on
ourselves): the framework records its *own* runtime behaviour — query phase
times, channel flush cost, reduction-tree wire volume — as named metrics,
and the exporters in :mod:`repro.observe.export` turn them into the very
snapshot records the system aggregates, so overhead studies become ordinary
CalQL queries.

Design constraints, in priority order:

1. **Zero overhead when disabled.**  Collection is off by default; the
   module-level helpers (:func:`count`, :func:`gauge`, :func:`timing`,
   :func:`span`) check one module flag and return immediately —
   :func:`span` hands back a shared no-op :data:`NULL_SPAN` so instrumented
   code can always write ``with observe.span("query.scan"):``.  Nothing in
   the per-*record* hot paths calls into this module at all; only
   per-query / per-file / per-flush sites are instrumented.
2. **Thread safety.**  One lock guards the metric tables; the span nesting
   stack is thread-local, so concurrent threads time independently.
3. **Nesting.**  Spans opened inside an active span get a slash-joined path
   (``query.run/query.scan``), which is how per-phase breakdowns stay
   attributable without threading context through call signatures.

Metric identity is ``(name-or-path, tags)`` where tags are keyword
arguments (``backend="rows"``); the same name with different tags
accumulates separately, and the accessors sum across tag sets when no tags
are given.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional, Union

__all__ = [
    "MetricsRegistry",
    "Span",
    "NULL_SPAN",
    "TagValue",
    "enabled",
    "enable",
    "disable",
    "registry",
    "reset",
    "collecting",
    "count",
    "gauge",
    "timing",
    "span",
]

#: Tag values stay plain scalars so they round-trip through Variants/JSON.
TagValue = Union[str, int, float, bool]

TagsKey = tuple  # tuple of sorted (key, value) pairs


def _tags_key(tags: dict[str, TagValue]) -> TagsKey:
    return tuple(sorted(tags.items())) if tags else ()


class _NullSpan:
    """Shared do-nothing span returned while collection is disabled."""

    __slots__ = ()
    elapsed = 0.0
    path = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """A timed region; records its duration into the registry on exit.

    Entering a span pushes it on the owning registry's thread-local stack;
    nested spans extend the parent's slash-joined ``path``.  The measured
    duration is available as ``elapsed`` after exit.
    """

    __slots__ = ("_registry", "name", "tags", "path", "elapsed", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, tags: dict[str, TagValue]):
        self._registry = registry
        self.name = name
        self.tags = tags
        self.path = name
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack()
        if stack:
            self.path = stack[-1].path + "/" + self.name
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._start
        stack = self._registry._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._registry.timing(self.path, self.elapsed, **self.tags)
        return False


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and timer statistics.

    Timers hold ``[count, total, min, max]`` per ``(path, tags)``; a
    :class:`Span` feeds them through :meth:`timing`, which callers may also
    use directly for externally measured durations (e.g. shipped back from
    worker processes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, TagsKey], float] = {}
        self._gauges: dict[tuple[str, TagsKey], TagValue] = {}
        self._timers: dict[tuple[str, TagsKey], list] = {}
        self._tls = threading.local()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, delta: float = 1, **tags: TagValue) -> None:
        key = (name, _tags_key(tags))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + delta

    def gauge(self, name: str, value: TagValue, **tags: TagValue) -> None:
        with self._lock:
            self._gauges[(name, _tags_key(tags))] = value

    def timing(self, name: str, seconds: float, **tags: TagValue) -> None:
        """Fold one measured duration into the ``name`` timer.

        ``name`` may be a slash path (spans pass theirs); externally
        measured durations use a plain metric name.
        """
        key = (name, _tags_key(tags))
        with self._lock:
            t = self._timers.get(key)
            if t is None:
                self._timers[key] = [1, seconds, seconds, seconds]
            else:
                t[0] += 1
                t[1] += seconds
                if seconds < t[2]:
                    t[2] = seconds
                if seconds > t[3]:
                    t[3] = seconds

    def span(self, name: str, **tags: TagValue) -> Span:
        return Span(self, name, tags)

    def _span_stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- accessors -----------------------------------------------------------

    def counter_value(self, name: str, **tags: TagValue) -> float:
        """One counter's value; without tags, the sum across all tag sets."""
        with self._lock:
            if tags:
                return self._counters.get((name, _tags_key(tags)), 0)
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **tags: TagValue) -> Optional[TagValue]:
        """One gauge's value; without tags, the sum of numeric values
        across all tag sets (``None`` when no numeric gauge matches),
        mirroring :meth:`counter_value` so the no-tags read is a single
        consistent pass under the lock rather than one untagged lookup."""
        with self._lock:
            if tags:
                return self._gauges.get((name, _tags_key(tags)))
            total: Optional[float] = None
            for (n, _), v in self._gauges.items():
                if n == name and v.__class__ in (int, float):
                    total = v if total is None else total + v
            return total

    def timer_stats(
        self, name: str, **tags: TagValue
    ) -> Optional[tuple[int, float, float, float]]:
        """``(count, total, min, max)`` for one exact ``(path, tags)`` timer."""
        with self._lock:
            t = self._timers.get((name, _tags_key(tags)))
            return tuple(t) if t is not None else None

    def timer_total(self, name: str, **tags: TagValue) -> float:
        """Total seconds in a timer; without tags, summed across tag sets."""
        with self._lock:
            if tags:
                t = self._timers.get((name, _tags_key(tags)))
                return t[1] if t is not None else 0.0
            return sum(t[1] for (n, _), t in self._timers.items() if n == name)

    def timer_paths(self) -> list[str]:
        """All distinct timer paths, sorted."""
        with self._lock:
            return sorted({name for name, _ in self._timers})

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of all three metric tables."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {k: list(v) for k, v in self._timers.items()},
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, {len(self._timers)} timers)"
            )


# -- module-level collection state --------------------------------------------

_enabled = False
_registry = MetricsRegistry()
_state_lock = threading.Lock()


def enabled() -> bool:
    """Whether metric collection is currently on (off by default)."""
    return _enabled


def enable() -> MetricsRegistry:
    """Turn collection on; returns the active registry."""
    global _enabled
    with _state_lock:
        _enabled = True
    return _registry


def disable() -> None:
    global _enabled
    with _state_lock:
        _enabled = False


def registry() -> MetricsRegistry:
    """The active registry (metrics land here while collection is on)."""
    return _registry


def reset() -> None:
    """Drop all collected metrics (collection state is unchanged)."""
    _registry.clear()


@contextmanager
def collecting(fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Enable collection for a ``with`` block, restoring prior state after.

    ``fresh`` (default) swaps in a new empty registry for the block so the
    caller gets exactly the metrics its own code produced — the pattern the
    CLI's ``--stats`` and the tests use.
    """
    global _enabled, _registry
    with _state_lock:
        prev_registry, prev_enabled = _registry, _enabled
        if fresh:
            _registry = MetricsRegistry()
        _enabled = True
        reg = _registry
    try:
        yield reg
    finally:
        with _state_lock:
            _registry, _enabled = prev_registry, prev_enabled


# -- fast-path helpers (what instrumented code calls) --------------------------


def count(name: str, delta: float = 1, **tags: TagValue) -> None:
    if _enabled:
        _registry.count(name, delta, **tags)


def gauge(name: str, value: TagValue, **tags: TagValue) -> None:
    if _enabled:
        _registry.gauge(name, value, **tags)


def timing(name: str, seconds: float, **tags: TagValue) -> None:
    if _enabled:
        _registry.timing(name, seconds, **tags)


def span(name: str, **tags: TagValue) -> Union[Span, _NullSpan]:
    """A timed region; the shared no-op span when collection is off."""
    if not _enabled:
        return NULL_SPAN
    return _registry.span(name, **tags)
