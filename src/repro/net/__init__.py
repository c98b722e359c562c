"""repro.net — the networked on-line aggregation service.

The paper's on-line aggregation service (Section IV-B) reduces snapshot
streams in-process; this package exposes the same engine over TCP so many
producer processes on many hosts can stream into one long-running,
queryable aggregation daemon:

* :mod:`.protocol` — a length-prefixed, versioned binary framing protocol
  carrying snapshot-record batches and exported partial-DB states as
  ``colbin1`` columnar sections;
* :mod:`.server` — :class:`AggregationServer`, a daemon whose network
  plane is a single asyncio event loop (10k+ concurrent clients, no
  thread per socket) that
  hash-routes incoming keys to N shard workers (one
  :class:`~repro.aggregate.db.AggregationDB` per shard per tenant,
  lock-free within a shard) and merges shards on demand for live CalQL
  queries — with token-keyed tenant namespaces, per-tenant quotas, and
  BUSY-frame admission control when shard queues back up;
* :mod:`.client` — :class:`FlushClient`, a batching transport with
  full-jitter retry/backoff, BUSY retry-after handling, timeouts, and a
  disk spool replayed on reconnect;
* :mod:`.service` — :class:`NetworkFlushService`, a runtime service so any
  :class:`~repro.runtime.channel.Channel` flushes to a server instead of a
  file;
* :mod:`.tree` — :func:`plan_tree` / :class:`LocalTree`, the federated
  reduction-tree topology: servers in relay mode forward partial states
  level-by-level to a single root (the paper's Fig. 6 MPI tree over TCP),
  with spool-backed failover when a mid-tree relay dies.

The mergeable transport unit is exactly what
:meth:`AggregationDB.export_states`/:meth:`load_states` already provide —
clients may pre-aggregate locally and ship per-key partial states whose
size is proportional to the number of *groups*, not input records.
"""

from .client import FlushClient, live_query
from .protocol import (
    PROTOCOL_VERSION,
    FrameTooLarge,
    MessageType,
    ProtocolError,
    VersionMismatch,
    read_frame,
    write_frame,
)
from .server import DEFAULT_TENANT, AggregationServer, TenantQuota
from .tree import LocalTree, plan_tree

__all__ = [
    "AggregationServer",
    "TenantQuota",
    "DEFAULT_TENANT",
    "FlushClient",
    "live_query",
    "LocalTree",
    "plan_tree",
    "MessageType",
    "ProtocolError",
    "FrameTooLarge",
    "VersionMismatch",
    "PROTOCOL_VERSION",
    "read_frame",
    "write_frame",
]
