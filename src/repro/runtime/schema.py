"""The documented runtime configuration schema.

Every knob a built-in channel/service reads is declared here, in one place.
:func:`validate_config` checks a configuration mapping against the schema at
channel-creation time: unknown keys raise :class:`~repro.common.errors.ConfigError`
(with a close-match suggestion) instead of being silently ignored.

Channel-level keys
==================

================  =============================================================
``services``      list of service names to instantiate on the channel
``config_check``  bool — set false to skip this schema validation
================  =============================================================

The ``sampling.*`` keys are also channel-level (the sampling gate sits in
the channel's snapshot path, ahead of every service — see
``docs/sampling.md``):

==============================  ===============================================
``sampling.budget``             per-event snapshot budget (``"200ns"``,
                                ``"1.5us"``, bare ns number) or ``"auto"``
                                to adopt a server-advertised budget
``sampling.budget_ratio``       overhead as a fraction of application wall
                                time per event, in (0, 1)
``sampling.probability``        static keep probability (no feedback loop)
``sampling.attribute``          blackboard label keying per-value
                                probabilities (waterfilled); default global
``sampling.min_probability``    probability floor (default 1/4096)
``sampling.probe_every``        events between cost probes (default 64)
``sampling.control_interval``   events between controller steps (default 1024)
``sampling.max_step``           max probability change factor per step
``sampling.smoothing``          EWMA factor on cost estimates (default 0.5)
``sampling.seed``               RNG seed for reproducible sampling decisions
==============================  ===============================================

Service keys (``<service>.<key>``)
==================================

``aggregate``
    ``config`` (CalQL text), ``scheme`` (pre-parsed scheme object),
    ``rename_count`` (bool)
``event``
    ``trigger`` (attribute list), ``mark`` (bool), ``trigger_set`` (bool)
``netflush``
    ``host``, ``port``, ``stream`` (bool), ``payload``
    (``records``/``states``), ``batch_size``, ``timeout``, ``retries``,
    ``spool_dir``, ``delete_spool`` (bool), ``scheme``, ``failover_after``
``recorder``
    ``filename``, ``directory``
``sampler``
    ``period`` (seconds), ``max_catchup``
``timer``
    ``offset`` (bool), ``inclusive`` (bool)
``trace``
    ``buffer_limit``

Keys scoped to a *custom* service registered on the channel's
:class:`~repro.runtime.services.base.ServiceRegistry` are accepted as-is:
the schema only constrains the services it knows about.
"""

from __future__ import annotations

import difflib
from typing import Any, Mapping, Optional

from ..common.errors import ConfigError
from .services.base import ServiceRegistry

__all__ = ["CHANNEL_KEYS", "SERVICE_KEYS", "validate_config"]

#: keys read by the channel itself (not scoped to a service)
CHANNEL_KEYS = frozenset({"services", "config_check"})

#: keys read by each built-in service, scoped as ``<service>.<key>``.
#: ``sampling`` is not a service — the gate lives in the channel's push
#: path — but its keys scope and validate the same way.
SERVICE_KEYS: dict[str, frozenset] = {
    "aggregate": frozenset({"config", "scheme", "rename_count"}),
    "event": frozenset({"trigger", "mark", "trigger_set"}),
    "netflush": frozenset(
        {
            "host",
            "port",
            "stream",
            "payload",
            "batch_size",
            "timeout",
            "retries",
            "spool_dir",
            "delete_spool",
            "scheme",
            "failover_after",
        }
    ),
    "recorder": frozenset({"filename", "directory"}),
    "sampler": frozenset({"period", "max_catchup"}),
    "sampling": frozenset(
        {
            "budget",
            "budget_ratio",
            "probability",
            "attribute",
            "min_probability",
            "probe_every",
            "control_interval",
            "max_step",
            "smoothing",
            "seed",
        }
    ),
    "timer": frozenset({"offset", "inclusive"}),
    "trace": frozenset({"buffer_limit"}),
}


def _suggest(key: str, candidates) -> str:
    matches = difflib.get_close_matches(key, sorted(candidates), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def validate_config(
    settings: Mapping[str, Any], registry: Optional[ServiceRegistry] = None
) -> dict[str, Any]:
    """Check ``settings`` against the schema; return them as a plain dict.

    Unknown keys raise :class:`ConfigError` naming the key and the closest
    valid spelling.  Keys scoped to a custom (non-built-in) service known to
    ``registry`` pass through unchecked.
    """
    custom = set(registry.known()) - set(SERVICE_KEYS) if registry else set()
    for key in settings:
        _check_key(key, custom)
    return dict(settings)


def _check_key(key: str, custom_services: set) -> None:
    if key in CHANNEL_KEYS:
        return
    service, sep, sub = key.partition(".")
    if sep and service in SERVICE_KEYS:
        if sub in SERVICE_KEYS[service]:
            return
        scoped = {f"{service}.{k}" for k in SERVICE_KEYS[service]}
        raise ConfigError(
            f"unknown config key {key!r}: service {service!r} has no "
            f"option {sub!r}{_suggest(key, scoped)}"
        )
    if sep and service in custom_services:
        return  # custom service: its options are its own business
    valid = set(CHANNEL_KEYS)
    for svc, keys in SERVICE_KEYS.items():
        valid.update(f"{svc}.{k}" for k in keys)
    raise ConfigError(
        f"unknown config key {key!r}{_suggest(key, valid)}; "
        "set config_check=false to bypass schema validation"
    )
