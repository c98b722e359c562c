"""``repro-query serve`` / ``repro-query live``: the service commands.

The on-line counterparts of the file-based query CLI.  ``serve`` runs an
:class:`~repro.net.server.AggregationServer` in the foreground until
interrupted; ``live`` connects to a running server and executes one CalQL
query against a consistent snapshot of its in-flight state — ingestion is
never paused.

Examples::

    repro-query serve --scheme "AGGREGATE count, sum(time.duration) \
        GROUP BY function" --port 7744 --shards 8

    repro-query live "AGGREGATE sum(time.duration) GROUP BY function \
        ORDER BY function" --port 7744

    repro-query live --target telemetry \
        "SELECT observe.metric, observe.count WHERE observe.kind=counter" \
        --port 7744 --interval 2 --count 10

``serve --upstream HOST:PORT`` turns the server into a reduction-tree
relay that periodically forwards its partial aggregates to a parent, and
``tree`` launches a whole local fan-in-k tree in one process (handy for
smoke tests and the tree benchmark)::

    repro-query serve --scheme "..." --upstream 10.0.0.1:7744 \
        --forward-interval 0.5 --failover-after 5

    repro-query tree --scheme "AGGREGATE count GROUP BY k" \
        --leaves 8 --fanin 2
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import Optional, Sequence

from ..common.errors import ReproError
from .client import live_query
from .server import AggregationServer

__all__ = ["main", "build_serve_parser", "build_live_parser", "build_tree_parser"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query serve",
        description="Run an on-line aggregation server for streaming clients.",
    )
    parser.add_argument(
        "--scheme",
        required=True,
        help='aggregation scheme, e.g. "AGGREGATE count GROUP BY function"',
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="listen port (0 = pick a free port)"
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="number of aggregation shards"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        help="per-shard queue depth before backpressure stalls producers",
    )
    parser.add_argument(
        "--final-output",
        metavar="PATH",
        help="on graceful shutdown, export the final drained snapshot here "
        "(.json/.csv/.cali/.rcf chosen by extension)",
    )
    parser.add_argument(
        "--sampling-budget",
        metavar="BUDGET",
        help="advertise a per-event overhead budget (e.g. '200ns') in the "
        "handshake: producer channels running sampling.budget=auto adopt it",
    )
    tenancy = parser.add_argument_group("multi-tenancy / admission control")
    tenancy.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        metavar="TOKEN:NAME",
        help="register an auth token for a tenant namespace (repeatable)",
    )
    tenancy.add_argument(
        "--tenants-file",
        metavar="PATH",
        help="JSON file mapping token -> tenant name or "
        '{"name": ..., "max_connections": ..., "max_queued": ..., '
        '"max_db_entries": ...} quota spec',
    )
    tenancy.add_argument(
        "--require-token",
        action="store_true",
        help="reject HELLOs that present no auth token",
    )
    tenancy.add_argument(
        "--admission-timeout",
        type=float,
        default=1.0,
        metavar="SEC",
        help="how long a batch may wait for shard-queue space "
        "before it is shed with BUSY (default 1.0)",
    )
    tenancy.add_argument(
        "--busy-retry-after",
        type=float,
        default=0.25,
        metavar="SEC",
        help="retry-after hint carried by BUSY frames (default 0.25)",
    )
    tenancy.add_argument(
        "--dedup-ttl",
        type=float,
        default=900.0,
        metavar="SEC",
        help="prune per-client dedup/replay state idle this long (default 900)",
    )
    relay = parser.add_argument_group("relay mode (reduction tree)")
    relay.add_argument(
        "--upstream",
        metavar="HOST:PORT",
        help="run as a relay: forward partial aggregates to this parent",
    )
    relay.add_argument(
        "--forward-interval",
        type=float,
        default=0.5,
        metavar="SEC",
        help="seconds between forward cycles in relay mode (default 0.5)",
    )
    relay.add_argument(
        "--failover-after",
        type=float,
        metavar="SEC",
        help="re-parent to the grandparent after SEC seconds of parent loss",
    )
    relay.add_argument(
        "--relay-id", help="stable relay identity (default: random node id)"
    )
    relay.add_argument(
        "--level",
        type=int,
        metavar="N",
        help="depth in the tree, root = 0 (default: learned from the parent)",
    )
    windowed = parser.add_argument_group("windowed streaming")
    windowed.add_argument(
        "--window",
        metavar="SPEC",
        help='window assigner, e.g. "tumbling(30s)" or "sliding(1m, 10s)" '
        "(a WINDOW clause in --scheme works too)",
    )
    windowed.add_argument(
        "--lateness",
        type=float,
        default=0.0,
        metavar="SEC",
        help="bounded lateness: how far behind its source's stream front an "
        "event may arrive before it is dropped as late (default 0)",
    )
    windowed.add_argument(
        "--time-attribute",
        metavar="LABEL",
        help="record attribute holding the event time (default time.start, "
        "falling back to accumulated time.duration)",
    )
    windowed.add_argument(
        "--retire-interval",
        type=float,
        default=0.0,
        metavar="SEC",
        help="retire closed windows every SEC seconds (root only; 0 = only "
        "on demand)",
    )
    windowed.add_argument(
        "--confidence",
        type=float,
        default=0.90,
        metavar="P",
        help="confidence level for online estimates (default 0.90)",
    )
    return parser


def build_tree_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query tree",
        description="Launch a local reduction tree (root + relay servers).",
    )
    parser.add_argument(
        "--scheme",
        required=True,
        help='aggregation scheme, e.g. "AGGREGATE count GROUP BY function"',
    )
    parser.add_argument(
        "--leaves", type=int, default=4, help="number of leaf clients to plan for"
    )
    parser.add_argument(
        "--fanin", type=int, default=2, help="maximum children per tree node"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--shards", type=int, default=1, help="aggregation shards per node"
    )
    parser.add_argument(
        "--forward-interval",
        type=float,
        default=0.25,
        metavar="SEC",
        help="seconds between relay forward cycles (default 0.25)",
    )
    parser.add_argument(
        "--failover-after",
        type=float,
        default=5.0,
        metavar="SEC",
        help="relay failure window before children re-parent (default 5)",
    )
    return parser


def build_live_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-query live",
        description="Run a CalQL query against a live aggregation server.",
    )
    parser.add_argument("query", help="CalQL query expression")
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, required=True, help="server port")
    parser.add_argument(
        "--target",
        choices=("aggregate", "telemetry", "estimate", "retired"),
        default="aggregate",
        help="query the aggregated data (default), the server's own metrics, "
        "or — on a windowed server — open-window estimates with confidence "
        "intervals ('estimate') / finalized windows only ('retired')",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, help="connection timeout in seconds"
    )
    parser.add_argument(
        "--token",
        help="tenant auth token: scopes the query to that tenant's namespace "
        "on a multi-tenant server",
    )
    parser.add_argument(
        "--interval",
        type=float,
        metavar="SEC",
        help="repeat the query every SEC seconds (watch mode)",
    )
    parser.add_argument(
        "--count",
        type=int,
        metavar="N",
        help="with --interval, stop after N iterations",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="watch mode tuned for windowed streams: repeat the query "
        "(default every 1s) printing a timestamped per-window snapshot "
        "each round; pairs naturally with --target estimate",
    )
    return parser


def _parse_tenants(args) -> Optional[dict]:
    """Merge ``--tenants-file`` and repeated ``--tenant TOKEN:NAME`` flags."""
    tenants: dict = {}
    if args.tenants_file:
        with open(args.tenants_file, "r", encoding="utf-8") as stream:
            loaded = json.load(stream)
        if not isinstance(loaded, dict):
            raise ValueError(
                f"{args.tenants_file}: expected a token -> tenant JSON object"
            )
        tenants.update(loaded)
    for spec in args.tenants or ():
        token, sep, name = spec.partition(":")
        if not sep or not token or not name:
            raise ValueError(f"--tenant must be TOKEN:NAME, got {spec!r}")
        tenants[token] = name
    return tenants or None


def serve_main(argv: Sequence[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        server = AggregationServer(
            args.scheme,
            host=args.host,
            port=args.port,
            shards=args.shards,
            queue_depth=args.queue_depth,
            upstream=args.upstream,
            forward_interval=args.forward_interval,
            failover_after=args.failover_after,
            relay_id=args.relay_id,
            level=args.level,
            window=args.window,
            lateness=args.lateness,
            time_attribute=args.time_attribute,
            retire_interval=args.retire_interval,
            confidence=args.confidence,
            tenants=_parse_tenants(args),
            require_token=args.require_token,
            admission_timeout=args.admission_timeout,
            busy_retry_after=args.busy_retry_after,
            dedup_ttl=args.dedup_ttl,
            sampling_budget=args.sampling_budget,
        )
        server.start()
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro-query serve: error: {exc}", file=sys.stderr)
        return 1
    # SIGTERM (systemd, docker stop, subprocess tests) and SIGINT both land
    # on the same graceful path: stop accepting, fold everything queued,
    # export the final snapshot, exit 0.  Handlers go in *before* the banner:
    # the banner is the readiness signal, and a supervisor may deliver
    # SIGTERM the moment it sees it.
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    host, port = server.address
    role = f"relay -> {args.upstream}" if args.upstream else "root"
    windowed = ""
    if server.windowed:
        windowed = f", windowed {server.window_assigner.describe()}"
    print(
        f"serving {args.scheme!r} on {host}:{port} "
        f"({role}, {args.shards} shards{windowed}, "
        f"epoch {server.epoch})",
        file=sys.stderr,
    )
    sys.stderr.flush()
    try:
        while not stop.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    print("draining...", file=sys.stderr)
    server.stop()
    try:
        records = server.drain_results()
        if args.final_output:
            from ..io.dataset import write_records  # deferred: io sits below net

            write_records(args.final_output, records)
            print(
                f"drained {len(records)} groups -> {args.final_output}",
                file=sys.stderr,
            )
        else:
            print(f"drained {len(records)} groups", file=sys.stderr)
    except (ReproError, OSError) as exc:
        print(f"repro-query serve: drain error: {exc}", file=sys.stderr)
        return 1
    return 0


def live_main(argv: Sequence[str]) -> int:
    args = build_live_parser().parse_args(argv)
    interval = args.interval
    if args.follow and not interval:
        interval = 1.0
    iteration = 0
    while True:
        iteration += 1
        try:
            result = live_query(
                args.host,
                args.port,
                args.query,
                target=args.target,
                timeout=args.timeout,
                token=args.token,
            )
        except (ReproError, OSError) as exc:
            print(f"repro-query live: error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 0
        if args.follow:
            stamp = time.strftime("%H:%M:%S")
            print(f"-- {stamp} {args.target} snapshot ({len(result.records)} rows) --")
        print(str(result))
        if not interval or (args.count and iteration >= args.count):
            return 0
        sys.stdout.flush()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def tree_main(argv: Sequence[str]) -> int:
    args = build_tree_parser().parse_args(argv)
    from .tree import LocalTree  # deferred: keeps `live` start-up lean

    try:
        tree = LocalTree(
            args.scheme,
            n_leaves=args.leaves,
            fanin=args.fanin,
            shards=args.shards,
            forward_interval=args.forward_interval,
            failover_after=args.failover_after,
            host=args.host,
        )
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro-query tree: error: {exc}", file=sys.stderr)
        return 1
    shape = " -> ".join(str(len(level)) for level in reversed(tree.levels))
    print(f"tree up ({shape} nodes, leaves attach to:)", file=sys.stderr)
    for i in range(args.leaves):
        host, port = tree.leaf_address(i)
        print(f"  leaf {i}: {host}:{port}", file=sys.stderr)
    root_host, root_port = tree.root.address
    print(f"  root (query here): {root_host}:{root_port}", file=sys.stderr)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("draining tree...", file=sys.stderr)
    finally:
        tree.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("serve", "live", "tree"):
        print("usage: repro-query {serve,live,tree} ...", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "serve":
        return serve_main(rest)
    if command == "tree":
        return tree_main(rest)
    return live_main(rest)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
