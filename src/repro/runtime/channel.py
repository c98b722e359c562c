"""Channels: one configured data-collection pipeline.

A channel bundles a runtime configuration profile with the service instances
it names.  Several channels can be active at once on the same runtime (e.g.
a sampling profile channel next to an event trace channel); each sees every
instrumentation event and processes its own snapshots, exactly the
building-block composition Section IV-A describes.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from .. import observe
from ..aggregate.ops import WEIGHT_LABEL as _WEIGHT_LABEL
from ..common.attribute import Attribute
from ..common.errors import ChannelError
from ..common.record import Record
from ..common.variant import Variant
from .config import ConfigSet
from .services.base import Service, ServiceRegistry, default_service_registry

if TYPE_CHECKING:  # pragma: no cover
    from .instrumentation import Caliper

__all__ = ["Channel"]


class Channel:
    """A named, configured collection pipeline over a runtime instance."""

    def __init__(
        self,
        name: str,
        caliper: "Caliper",
        config: Union[ConfigSet, Mapping[str, Any], None] = None,
        registry: Optional[ServiceRegistry] = None,
    ) -> None:
        self.name = name
        self.caliper = caliper
        self.config = config if isinstance(config, ConfigSet) else ConfigSet(config)
        registry = registry or default_service_registry()
        if self.config.get_bool("config_check", True):
            # Validate against the documented schema (repro.runtime.schema):
            # unknown keys raise instead of being silently ignored.
            from .schema import validate_config

            validate_config(self.config.as_dict(), registry)
        self.active = True
        #: snapshot records pushed through this channel (Table I's "Snapshots");
        #: counts only snapshots actually processed — attempts while the
        #: channel is inactive land in :attr:`num_suppressed` instead.
        self.num_snapshots = 0
        #: snapshot attempts suppressed because the channel was inactive
        self.num_suppressed = 0
        #: cumulative wall time spent in :meth:`flush` (Table I's flush cost)
        self.flush_seconds = 0.0
        #: global (per-run) metadata records attached at flush
        self.globals: dict[str, Variant] = {}

        self.services: list[Service] = [
            registry.create(service_name, self)
            for service_name in self.config.get_list("services", [])
        ]
        # Dispatch lists, precomputed from which hooks each instance wants
        # (class override + per-instance config, see Service.wants).  Event
        # hooks run in priority order (stable within equal priority), so
        # measurement providers observe an event before snapshot triggers.
        by_priority = sorted(self.services, key=lambda s: s.priority)
        self._begin_services = [s for s in by_priority if s.wants("on_begin")]
        self._end_services = [s for s in by_priority if s.wants("on_end")]
        self._set_services = [s for s in by_priority if s.wants("on_set")]
        self._contributors = [s for s in self.services if s.wants("contribute")]
        self._processors = [s for s in self.services if s.wants("process")]
        self._pollers = [s for s in self.services if s.wants("poll")]
        self._skip_services = [
            s for s in by_priority if s.wants("on_sample_skip")
        ]
        #: snapshots dropped by the sampling gate (weights on kept snapshots
        #: account for them in expectation — see repro.sampling)
        self.num_sampled_out = 0
        self._sampler = self._make_sampler()
        #: snapshots served through the zero-copy fold-only path
        self.num_fast_snapshots = 0
        # Per-thread scratch record for fold-only snapshots that need
        # contributor entries: reused across snapshots, so the assembly
        # allocates nothing.
        self._scratch_tls = threading.local()
        self._finished = False
        if all(s.folds_immediately for s in self._processors):
            # Zero-copy snapshot fast path: legal because every processor
            # folds the record immediately without retaining it.
            # Shadow the method with a closure specialized for this channel's
            # service mix: dispatch lists, blackboard accessor, and scratch
            # storage are bound once instead of re-read per snapshot.
            self.push_snapshot = self._make_fast_push()

    def _make_sampler(self):
        """Build the channel's sampling service from ``sampling.*`` config.

        Returns ``None`` (no gate, zero added cost) unless a budget, a
        budget ratio, or a static probability is configured.
        """
        cfg = self.config
        budget = cfg.get("sampling.budget")
        ratio = cfg.get("sampling.budget_ratio")
        probability = cfg.get("sampling.probability")
        if budget is None and ratio is None and probability is None:
            return None
        from ..sampling import ChannelSampler, OverheadController, SamplingGate
        from ..sampling.budget import parse_budget

        auto = isinstance(budget, str) and budget.strip().lower() == "auto"
        budget_ns = None if budget is None or auto else parse_budget(budget)
        min_p = cfg.get_float("sampling.min_probability", 1.0 / 4096.0)
        controller = OverheadController(
            budget_ns=budget_ns,
            budget_ratio=float(ratio) if ratio is not None else None,
            min_probability=min_p,
            max_step=cfg.get_float("sampling.max_step", 4.0),
            smoothing=cfg.get_float("sampling.smoothing", 0.5),
        )
        seed = cfg.get("sampling.seed")
        gate = SamplingGate(
            attribute=cfg.get("sampling.attribute"),
            initial=float(probability) if probability is not None else 1.0,
            min_probability=min_p,
            seed=int(seed) if seed is not None else None,
        )
        return ChannelSampler(
            gate,
            controller,
            probe_every=cfg.get_int("sampling.probe_every", 64),
            control_interval=cfg.get_int("sampling.control_interval", 1024),
            auto_budget=auto,
        )

    @property
    def sampler(self):
        """The channel's sampling service, or ``None`` when not configured."""
        return self._sampler

    # -- event dispatch (called by the Caliper runtime) ---------------------------

    def handle_begin(self, attribute: Attribute, value: Variant) -> None:
        for service in self._begin_services:
            service.on_begin(attribute, value)

    def handle_end(self, attribute: Attribute, value: Variant) -> None:
        for service in self._end_services:
            service.on_end(attribute, value)

    def handle_set(self, attribute: Attribute, value: Variant) -> None:
        for service in self._set_services:
            service.on_set(attribute, value)

    def handle_poll(self, now: float) -> None:
        for service in self._pollers:
            service.poll(now)

    @property
    def has_pollers(self) -> bool:
        return bool(self._pollers)

    # -- snapshots ----------------------------------------------------------------

    def push_snapshot(
        self,
        extra: Optional[dict[str, Variant]] = None,
        at: Optional[float] = None,
    ) -> None:
        """Take a snapshot: blackboard contents + service measurements.

        ``at`` overrides the snapshot's timestamp (used by the sampler when
        it replays missed sampling deadlines after a large virtual-time
        advance); ``extra`` carries trigger information.
        """
        if not self.active:
            self.num_suppressed += 1
            return
        blackboard = self.caliper.blackboard()
        sampler = self._sampler
        weight = None
        probe = False
        if sampler is not None:
            probe = sampler.tick()
            t0 = time.perf_counter() if probe else 0.0
            weight = sampler.decide(blackboard._entries)
            if weight is False:
                self.num_sampled_out += 1
                for service in self._skip_services:
                    service.on_sample_skip(at)
                if probe:
                    sampler.record_drop_probe(time.perf_counter() - t0)
                return
        entries = dict(blackboard.snapshot_entries())
        for service in self._contributors:
            service.contribute(entries, at)
        if extra:
            entries.update(extra)
        if weight is not None:
            entries[_WEIGHT_LABEL] = weight
        record = Record.from_variants(entries)
        self.num_snapshots += 1
        for service in self._processors:
            service.process(record)
        if probe:
            sampler.record_kept_probe(time.perf_counter() - t0)

    def _make_fast_push(self):
        """Specialized ``push_snapshot`` for fold-only channels.

        Every processor folds the record immediately without retaining it, so
        the snapshot needs no fresh dict and no fresh :class:`Record`:

        * no contributors, no ``extra`` — the blackboard's live record is
          handed to the processors as-is (zero copies, zero allocation);
        * otherwise — entries are assembled into a per-thread scratch record
          reused across snapshots.  Contributors (timer) must not write into
          the shared blackboard dict, because other channels on the same
          thread snapshot it too.
        """
        blackboard_of = self.caliper.blackboard
        contributors = tuple(self._contributors)
        processors = tuple(self._processors)
        scratch_tls = self._scratch_tls

        if self._sampler is not None:
            return self._make_sampling_fast_push()

        def push_snapshot(extra=None, at=None, _ch=self):
            if not _ch.active:
                _ch.num_suppressed += 1
                return
            # One TLS probe fetches everything thread-bound: the scratch
            # record, its entry dict, and the blackboard's live views (the
            # blackboard and its dicts are stable per thread).
            st = getattr(scratch_tls, "st", None)
            if st is None:
                blackboard = blackboard_of()
                scratch_record = Record.from_variants({})
                st = (
                    scratch_record,
                    scratch_record._entries,
                    blackboard._entries,
                    blackboard._record,
                )
                scratch_tls.st = st
            if contributors or extra:
                record, scratch, live_entries, _ = st
                scratch.clear()
                scratch.update(live_entries)
                for service in contributors:
                    service.contribute(scratch, at)
                if extra:
                    scratch.update(extra)
            else:
                record = st[3]
            _ch.num_snapshots += 1
            _ch.num_fast_snapshots += 1
            for service in processors:
                service.process(record)

        return push_snapshot

    def _make_sampling_fast_push(self):
        """The fold-only fast path with the sampling gate spliced in front.

        Differences from the unsampled closure: the gate decides against
        the blackboard's *live* entries before any snapshot work, dropped
        events only pay the decision plus the timer-skip hooks, and kept
        snapshots with a weight always assemble into the scratch record so
        ``sample.weight`` never leaks into the shared blackboard dict.
        Every ``probe_every``-th event is timed end-to-end with
        ``perf_counter`` — those measurements are the controller's feedback
        signal.
        """
        blackboard_of = self.caliper.blackboard
        contributors = tuple(self._contributors)
        processors = tuple(self._processors)
        skip_services = tuple(self._skip_services)
        scratch_tls = self._scratch_tls
        sampler = self._sampler
        tick = sampler.tick
        decide = sampler.decide
        record_kept = sampler.record_kept_probe
        record_drop = sampler.record_drop_probe
        perf_counter = time.perf_counter

        def push_snapshot(extra=None, at=None, _ch=self):
            if not _ch.active:
                _ch.num_suppressed += 1
                return
            st = getattr(scratch_tls, "st", None)
            if st is None:
                blackboard = blackboard_of()
                scratch_record = Record.from_variants({})
                st = (
                    scratch_record,
                    scratch_record._entries,
                    blackboard._entries,
                    blackboard._record,
                )
                scratch_tls.st = st
            probe = tick()
            t0 = perf_counter() if probe else 0.0
            weight = decide(st[2])
            if weight is False:
                _ch.num_sampled_out += 1
                for service in skip_services:
                    service.on_sample_skip(at)
                if probe:
                    record_drop(perf_counter() - t0)
                return
            if weight is not None or contributors or extra:
                record, scratch, live_entries, _ = st
                scratch.clear()
                scratch.update(live_entries)
                for service in contributors:
                    service.contribute(scratch, at)
                if extra:
                    scratch.update(extra)
                if weight is not None:
                    scratch[_WEIGHT_LABEL] = weight
            else:
                record = st[3]
            _ch.num_snapshots += 1
            _ch.num_fast_snapshots += 1
            for service in processors:
                service.process(record)
            if probe:
                record_kept(perf_counter() - t0)

        return push_snapshot

    # -- lifecycle --------------------------------------------------------------

    def set_global(self, label: str, value: object) -> None:
        """Attach run-wide metadata (emitted with flushed output)."""
        self.globals[label] = Variant.of(value)  # type: ignore[arg-type]

    def flush(self) -> list[Record]:
        """Collect output records from every service.

        Global metadata entries are added to each output record, which is how
        per-process identity (e.g. rank) survives into multi-file datasets.
        """
        start = time.perf_counter()
        records: list[Record] = []
        for service in self.services:
            records.extend(service.flush())
        if self.globals:
            records = [r.with_entries(self.globals) for r in records]
        elapsed = time.perf_counter() - start
        self.flush_seconds += elapsed
        observe.timing("channel.flush", elapsed, channel=self.name)
        return records

    def finish(self) -> list[Record]:
        """Flush, tear services down, and deactivate the channel."""
        if self._finished:
            raise ChannelError(f"channel {self.name!r} already finished")
        records = self.flush()
        for service in self.services:
            service.finish()
        self.active = False
        self._finished = True
        return records

    # -- self-profiling ---------------------------------------------------------

    def stats_record(self) -> Record:
        """This channel's runtime statistics as one snapshot record.

        The Table I quantities — snapshots processed, aggregation entries,
        memory footprint, flush time — in the system's own data model, so
        overhead studies run as CalQL queries over channel stats records.
        Services contribute their own numbers through
        :meth:`~repro.runtime.services.base.Service.stats`, prefixed with
        the service name (``observe.aggregate.db.entries``).
        """
        entries: dict[str, Variant] = {
            "observe.kind": Variant.of("channel"),
            "observe.channel": Variant.of(self.name),
            "observe.active": Variant.of(self.active),
            "observe.snapshots": Variant.of(self.num_snapshots),
            "observe.snapshots.fastpath": Variant.of(self.num_fast_snapshots),
            "observe.snapshots.suppressed": Variant.of(self.num_suppressed),
            "observe.flush.time": Variant.of(self.flush_seconds),
        }
        if self._sampler is not None:
            entries["observe.snapshots.sampled_out"] = Variant.of(
                self.num_sampled_out
            )
            for key, value in self._sampler.stats().items():
                entries[f"observe.sampling.{key}"] = Variant.of(value)
        for service in self.services:
            for key, value in service.stats().items():
                entries[f"observe.{service.name}.{key}"] = Variant.of(value)
        return Record.from_variants(entries)

    def service(self, name: str) -> Service:
        """Look up a service instance by name (for tests/introspection)."""
        for s in self.services:
            if s.name == name:
                return s
        raise ChannelError(f"channel {self.name!r} has no service {name!r}")

    def __repr__(self) -> str:
        names = ",".join(s.name for s in self.services)
        return f"Channel({self.name!r}, services=[{names}], snapshots={self.num_snapshots})"
