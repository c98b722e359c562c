"""Windowed streaming aggregation: assignment, watermarks, estimates.

The window subsystem turns the unbounded aggregation epoch into event-time
windows (``GROUP BY ... WINDOW tumbling(30s)``):

- :mod:`repro.window.assign` — event-time extraction and tumbling/sliding
  window assigners; windows become ``window.start`` / ``window.end`` key
  attributes, so every downstream layer (shards, relays, wire format,
  columnar batch backend) is reused unchanged.
- :mod:`repro.window.watermark` — bounded-lateness watermark tracking over
  many sources with monotone emission.
- :mod:`repro.window.estimate` — PF-OLA-style online estimates: partial
  aggregates plus CLT confidence intervals for open windows.
- :mod:`repro.window.db` — :class:`WindowFront`, the one place the
  stamp/lateness/retire-floor rules are written, driven by both
  :class:`WindowedAggregationDB` (single process) and the networked server.

See ``docs/streaming.md`` for semantics and guarantees.
"""

from .assign import (
    DEFAULT_TIME_ATTRIBUTE,
    WINDOW_END,
    WINDOW_START,
    EventClock,
    SlidingWindows,
    TumblingWindows,
    WindowAssigner,
    WindowError,
    format_duration,
    make_assigner,
    parse_duration,
    stamp_columns,
    stamp_record,
    stamp_records,
    window_copies,
)
from .db import (
    WindowedAggregationDB,
    WindowFront,
    dewindowize_scheme,
    windowize_scheme,
)
from .estimate import FRACTION_LABEL, SAMPLES_LABEL, WindowEstimator, z_for_confidence
from .watermark import WatermarkTracker

__all__ = [
    "WINDOW_START",
    "WINDOW_END",
    "DEFAULT_TIME_ATTRIBUTE",
    "WindowError",
    "parse_duration",
    "format_duration",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "make_assigner",
    "EventClock",
    "stamp_columns",
    "stamp_record",
    "stamp_records",
    "window_copies",
    "WatermarkTracker",
    "WindowEstimator",
    "z_for_confidence",
    "FRACTION_LABEL",
    "SAMPLES_LABEL",
    "WindowedAggregationDB",
    "WindowFront",
    "windowize_scheme",
    "dewindowize_scheme",
]
