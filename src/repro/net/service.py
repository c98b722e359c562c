"""Network flush service: channels flush to a server instead of a file.

The network-output counterpart of the recorder service: instead of
serializing the channel's output records to a local file at finish, they
travel over a :class:`~repro.net.client.FlushClient` to a running
:class:`~repro.net.server.AggregationServer`.

Three shipping modes:

* **records at finish** (default) — the records flushed by the sibling
  services (aggregation results or trace buffers) ship as one final
  stream.  The *server's* scheme aggregates them, so pair a channel-side
  ``AGGREGATE count ... GROUP BY kernel`` with a server-side second-stage
  scheme such as ``AGGREGATE sum(aggregate.count) GROUP BY kernel`` — the
  paper's two-stage workflow with stage two on the wire.
* **states at finish** (``netflush.payload = states``) — the sibling
  ``aggregate`` service's per-thread partial databases are exported and
  shipped as mergeable operator states.  The server merges them into its
  state tables under the *same* scheme: exact distributed aggregation,
  with payload proportional to the number of keys.
* **stream mode** (``netflush.stream = true``) — every snapshot record is
  pushed through the client *as it happens* (batched transparently), so
  the server aggregates on-line while the application runs and live
  CalQL queries observe it mid-run.

Server unavailability never blocks or crashes the application: batches
spool to disk and replay on reconnect (see :class:`FlushClient`).

Config keys (prefix ``netflush.``):

``host`` / ``port``
    Server address (``port`` is required).
``stream``
    Stream snapshots live instead of shipping at finish (default false).
``payload``
    Finish-mode wire shape: ``records`` (default) or ``states``
    (requires the ``aggregate`` service on the same channel).
``batch_size``, ``timeout``, ``retries``, ``spool_dir``
    Passed through to :class:`FlushClient`.  A shared ``spool_dir`` is
    safe: each client spools into its own subdirectory.
``failover_after``
    Seconds of continuous server loss before the client re-parents to the
    upstream the server advertised (reduction trees; default: never).
``delete_spool``
    Delete acknowledged write-ahead spool files at finish (default true).
    Batches the server never acknowledged are always kept on disk,
    whatever this is set to.
``scheme``
    Optional CalQL scheme text announced in the handshake so the server
    can refuse mismatched producers early.
``token``
    Tenant auth token presented in the handshake: folds this channel's
    records into that tenant's namespace on a multi-tenant server
    (default: the shared default namespace).
"""

from __future__ import annotations

from typing import Optional

from ..common.errors import ConfigError
from ..common.record import Record
from ..runtime.services.base import Service
from .client import FlushClient

__all__ = ["NetworkFlushService"]


class NetworkFlushService(Service):
    name = "netflush"

    def __init__(self, channel) -> None:
        super().__init__(channel)
        port = self.config.get_int("port", 0)
        if not port:
            raise ConfigError("netflush service needs 'netflush.port'")
        self.stream = self.config.get_bool("stream", False)
        self.payload = self.config.get_string("payload", "records")
        if self.payload not in ("records", "states"):
            raise ConfigError(
                f"netflush.payload must be 'records' or 'states', got {self.payload!r}"
            )
        spool_dir = self.config.get_string("spool_dir", "")
        scheme = self.config.get_string("scheme", "")
        self.delete_spool = self.config.get_bool("delete_spool", True)
        self.client = FlushClient(
            host=self.config.get_string("host", "127.0.0.1"),
            port=port,
            scheme=scheme or None,
            batch_size=self.config.get_int("batch_size", 256),
            timeout=self.config.get_float("timeout", 5.0),
            retries=self.config.get_int("retries", 3),
            spool_dir=spool_dir or None,
            failover_after=self.config.get_float("failover_after", 0.0) or None,
            token=self.config.get_string("token", "") or None,
            on_server_info=self._on_server_info,
        )
        self._sent_at_finish: Optional[int] = None

    def _on_server_info(self, info: dict) -> None:
        """HELLO_ACK observer: adopt a server-advertised sampling budget.

        A channel configured with ``sampling.budget = auto`` defers its
        overhead target to whatever server it flushes to — the serve-side
        ``--sampling-budget`` flag then tunes the whole producer fleet.
        Locally-configured budgets always win (adopt is a no-op there).
        """
        budget = info.get("sampling_budget_ns")
        sampler = getattr(self.channel, "sampler", None)
        if budget is None or sampler is None:
            return
        try:
            sampler.adopt_budget_ns(float(budget))
        except (TypeError, ValueError):
            pass

    def process(self, record: Record) -> None:
        # Only wired up in stream mode: Channel dispatches process() to us
        # regardless, so gate here instead of relying on hook detection.
        if self.stream:
            self.client.push(record)

    def finish(self) -> None:
        if self.stream:
            self.client.flush()
            self.client.close(delete_spool=self.delete_spool)
            return
        if self.payload == "states":
            self._finish_states()
        else:
            self._finish_records()
        self.client.close(delete_spool=self.delete_spool)

    def _finish_states(self) -> None:
        aggregate = next(
            (s for s in self.channel.services if s.name == "aggregate"), None
        )
        if aggregate is None:
            raise ConfigError(
                "netflush.payload=states needs the 'aggregate' service "
                "on the same channel"
            )
        shipped = 0
        for db in aggregate.databases():
            self.client.send_states(db)
            shipped += db.num_entries
        self._sent_at_finish = shipped

    def _finish_records(self) -> None:
        records: list[Record] = []
        for service in self.channel.services:
            if service is not self:
                records.extend(service.flush())
        if self.channel.globals:
            records = [r.with_entries(self.channel.globals) for r in records]
        self.client.send_records(records)
        self._sent_at_finish = len(records)

    def stats(self) -> dict[str, object]:
        """Delivery counters for the channel's stats record."""
        out: dict[str, object] = dict(self.client.counters)
        out["pending"] = self.client.num_spooled
        if self._sent_at_finish is not None:
            out["sent_at_finish"] = self._sent_at_finish
        return out
