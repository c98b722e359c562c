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
from ..common.errors import ChannelError
from ..common.record import Record
from ..common.variant import Variant
from .config import ConfigSet
from .services.base import Service, ServiceRegistry, default_service_registry

if TYPE_CHECKING:  # pragma: no cover
    from .instrumentation import Caliper

__all__ = ["Channel"]


def _no_measure(at):
    return ()


def _summed(costs):
    if len(costs) == 1:
        return costs[0]
    return lambda: sum(cost() for cost in costs)


def _fan_out(writers):
    def write(entries, measured, weight):
        for w in writers:
            w(entries, measured, weight)

    return write


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
        # Record form, fixed by the service mix: a processor that retains
        # records needs a fresh one per snapshot; fold-only processors get the
        # blackboard's live record or a per-thread scratch record.
        self._retains = not all(s.folds_immediately for s in self._processors)
        self._finished = False
        self.push_snapshot = self._make_push()

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

    def handle_poll(self, now: float) -> None:
        for service in self._pollers:
            service.poll(now)

    @property
    def has_pollers(self) -> bool:
        return bool(self._pollers)

    # -- snapshots ----------------------------------------------------------------

    @property
    def num_fast_snapshots(self) -> int:
        """Snapshots served without a fresh record (every one on a fold-only
        channel, none on a channel whose processors retain records)."""
        return 0 if self._retains else self.num_snapshots

    def _rows(self) -> bool:
        """Whether every snapshot of this channel can be a ring row: no
        processor retains, every processor writes rows (the aggregate
        service) and at most one contributor, one that measures raw floats
        (the timer), whose labels the processors read only as numbers."""
        if self._retains or len(self._contributors) > 1:
            return False
        labels: tuple = ()
        for contributor in self._contributors:
            if not hasattr(contributor, "thread_measure"):
                return False
            labels = contributor.labels
        return all(
            hasattr(s, "accepts_rows") and s.accepts_rows(labels) for s in self._processors
        )

    def _make_push(self):
        """Build ``push_snapshot(extra=None, at=None)`` for this channel.

        One snapshot rule for every service mix: suppression, then the
        sampling gate (decided against the blackboard's *live* entries, so a
        dropped event pays only the decision and the ``on_sample_skip``
        hooks), then the snapshot, then its consumers.  ``at`` overrides the
        snapshot's timestamp (the sampler replays missed deadlines with it);
        ``extra`` carries trigger information.  The snapshot is

        * a ring row per aggregate service (:mod:`.services.aggregate`),
          when :meth:`_rows` allows: the key and values read straight
          from the blackboard's live entries, the timer's measurements as
          raw floats.  With ``extra`` entries the row is read from the
          entries a record would hold instead;
        * otherwise a record: a fresh :class:`Record` when a processor
          retains records; else the blackboard's live record as-is, when
          there is no contributor, no ``extra`` and no ``sample.weight`` to
          add; else a per-thread scratch record, reused across snapshots.
          Contributors (timer) and the weight must never be written into the
          shared blackboard dict: other channels on the thread snapshot it.

        Every ``probe_every``-th gated event is timed end to end — the
        sampling controller's feedback signal; a kept event's probe also
        carries its row's share of the ring drains measured so far
        (:meth:`AggregateService.thread_row_cost`).  Dispatch lists and the
        per-thread views are bound once, not re-read per snapshot.
        """
        blackboard_of = self.caliper.blackboard
        contributors = tuple(self._contributors)
        processors = tuple(self._processors)
        skip_services = tuple(self._skip_services)
        retains = self._retains
        sampler = self._sampler
        tick = decide = None
        if sampler is not None:
            tick, decide = sampler.tick, sampler.decide
        perf_counter = time.perf_counter
        tls = threading.local()
        rows = self._rows()
        timer = contributors[0] if rows and contributors else None

        def thread_views():
            # The blackboard and its dicts are stable per thread, so one TLS
            # probe fetches the scratch record, its dict, the live views,
            # (ring rows) this thread's measure and row writer and (sampled)
            # its rows' drain cost.
            blackboard = blackboard_of()
            scratch = Record.from_variants({})
            measure = write = row_cost = None
            if sampler is not None:
                row_cost = _summed(
                    [s.thread_row_cost() for s in processors if hasattr(s, "thread_row_cost")]
                )
            if rows:
                labels, complete = (timer.labels, timer.complete) if timer else ((), True)
                measure = timer.thread_measure() if timer else _no_measure
                writers = [s.thread_writer(labels, complete) for s in processors]
                write = writers[0] if len(writers) == 1 else _fan_out(writers)
            tls.views = (scratch, scratch._entries, blackboard._entries, blackboard._record,
                         measure, write, row_cost)
            return tls.views

        def push_snapshot(extra=None, at=None, _ch=self):
            if not _ch.active:
                _ch.num_suppressed += 1
                return
            views = getattr(tls, "views", None) or thread_views()
            weight = None
            probe = False
            if decide is not None:
                probe = tick()
                t0 = perf_counter() if probe else 0.0
                weight = decide(views[2])
                if weight is False:
                    _ch.num_sampled_out += 1
                    for service in skip_services:
                        service.on_sample_skip(at)
                    if probe:
                        sampler.record_drop_probe(perf_counter() - t0)
                    return
            _ch.num_snapshots += 1
            if rows and not extra:
                views[5](views[2], views[4](at), weight)
            else:
                if retains or contributors or extra or weight is not None:
                    if retains:
                        entries = dict(views[2])
                        record = Record.from_variants(entries)
                    else:
                        record, entries = views[0], views[1]
                        entries.clear()
                        entries.update(views[2])
                    for service in contributors:
                        service.contribute(entries, at)
                    if extra:
                        entries.update(extra)
                    if weight is not None:
                        entries[_WEIGHT_LABEL] = weight
                else:
                    record = views[3]
                if rows:  # extra entries: the row is read from the record's
                    views[5](record._entries, None, None)
                else:
                    for service in processors:
                        service.process(record)
            if probe:  # with the share of a later fold the kept snapshot left
                sampler.record_kept_probe(perf_counter() - t0 + views[6]())

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
