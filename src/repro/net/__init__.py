"""repro.net — the networked on-line aggregation service.

The paper's on-line aggregation service (Section IV-B) reduces snapshot
streams in-process; this package exposes the same engine over TCP so many
producer processes on many hosts can stream into one long-running,
queryable aggregation daemon:

* :mod:`.protocol` — a length-prefixed, versioned binary framing protocol
  carrying snapshot-record batches and exported partial-DB states as
  ``colbin1`` columnar sections;
* :mod:`.server` — :class:`AggregationServer`, the daemon, composing
  :mod:`.connection` (one asyncio event loop for 10k+ concurrent clients,
  no thread per socket), :mod:`.admission` (token-keyed tenant namespaces,
  per-tenant quotas, replay dedup, BUSY-frame shedding when shard queues
  back up), :mod:`.shards` (keys hash-routed to N lock-free workers, one
  columnar :class:`~repro.aggregate.table.StateTable` per shard per tenant,
  merged on demand through one barrier for live CalQL queries) and
  :mod:`.relay` (forwarding partial states up a reduction tree, merged by
  column at every level, retraction on failover);
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

The mergeable transport unit is the per-key partial state — a relay's
:meth:`StateTable.to_binary`, or a producer's per-event channel DB in its
list form (:meth:`FlushClient.send_states`) — whose size is proportional to
the number of *groups*, not input records; every server decodes either into
a :class:`~repro.aggregate.table.StateTable`.
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
