"""repro.api.instrument — the public application-instrumentation facade.

Applications annotate themselves through three spellings, all routed to the
process-wide default runtime (every active channel — aggregation profiles,
traces, network flush, sampling — sees the same events)::

    from repro.api import instrument

    with instrument.region("solve"):            # a named code region
        ...

    @instrument.function                        # a profiled function
    def kernel(n):
        ...

    instrument.set("iteration", i)              # a key=value annotation

``region`` uses the ``region`` attribute by default and ``function`` uses
``function`` — the labels the bundled aggregation configs and docs group
by.  Both accept ``attribute=`` for custom nesting hierarchies, and every
helper resolves :func:`repro.runtime.default_runtime` *per call*, so code
instrumented at import time follows a runtime swapped in later (tests,
embedders).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator, Optional, Union

from ..runtime.instrumentation import Caliper, default_runtime

__all__ = [
    "region",
    "function",
    "set",
]


@contextmanager
def region(
    name: str,
    attribute: str = "region",
    runtime: Optional[Caliper] = None,
) -> Iterator[None]:
    """Annotate a code region: begin on entry, end on exit (exceptions too).

    >>> with instrument.region("io.read"):
    ...     data = load()
    """
    cali = runtime if runtime is not None else default_runtime()
    cali.begin(attribute, name)
    try:
        yield
    finally:
        cali.end(attribute)


def function(
    label: Union[str, Callable, None] = None,
    attribute: str = "function",
    runtime: Optional[Caliper] = None,
) -> Callable:
    """Decorator profiling a function as a region.

    Usable bare (``@instrument.function``) or parameterized
    (``@instrument.function("solve", attribute="kernel")``).  The region
    name defaults to the function's qualified name.
    """

    def decorate(func: Callable, name: Optional[str] = None) -> Callable:
        region_name = name if name is not None else func.__qualname__

        @wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cali = runtime if runtime is not None else default_runtime()
            cali.begin(attribute, region_name)
            try:
                return func(*args, **kwargs)
            finally:
                cali.end(attribute)

        return wrapper

    if callable(label):
        return decorate(label)
    return lambda func: decorate(func, label)


def set(  # noqa: A001 - deliberate: instrument.set(...) reads as intended
    label: str,
    value: object,
    runtime: Optional[Caliper] = None,
) -> None:
    """Set a key=value annotation on the current thread's blackboard."""
    cali = runtime if runtime is not None else default_runtime()
    cali.set(label, value)
