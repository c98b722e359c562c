"""Sweep concurrent-client counts against the aggregation server.

Launches an asyncio fleet of raw-protocol clients (pre-encoded frames, one
event loop, no thread per client) against an in-process
:class:`~repro.net.AggregationServer`, holds every connection open at once,
and measures ingest throughput, BUSY shed counts, and connect health at
each fleet size — the 10k-concurrent-clients story behind the event-loop
network plane.

Results merge into ``BENCH_service.json`` under the ``client_sweep`` key
(the shard sweep written by ``bench_service.py`` is preserved).

Usage::

    python benchmarks/bench_clients.py                    # 100 -> 10k clients
    python benchmarks/bench_clients.py --smoke --check    # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.common import Record  # noqa: E402
from repro.net import AggregationServer, MessageType  # noqa: E402
from repro.net.protocol import (  # noqa: E402
    CAP_BINARY,
    FLAG_BINARY,
    HEADER,
    encode_binary_body,
    message_bytes,
    parse_body,
    parse_frame_header,
    records_to_binary,
    write_frame,
)

SCHEME = (
    "AGGREGATE count, sum(time.duration), max(time.duration) "
    "GROUP BY kernel, mpi.rank"
)

#: fds kept free for the server's listener, spool files, stdio, and slack
FD_HEADROOM = 256

#: simultaneous in-flight connect() attempts while ramping the fleet up
CONNECT_RAMP = 500

BYE_FRAME = message_bytes(MessageType.BYE, {})


def fd_budget() -> tuple[int, int]:
    """Max in-process clients the fd limit allows; returns (cap, limit).

    Each loopback client costs two descriptors in this process (the client
    socket plus the server's accepted socket).  Tries to raise the soft
    limit to the hard limit first so the cap is as generous as the host
    permits.
    """
    try:
        import resource
    except ImportError:  # non-POSIX: no rlimits to consult
        return 1 << 30, -1
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
            soft = hard
        except (ValueError, OSError):
            pass
    return max((soft - FD_HEADROOM) // 2, 16), soft


def synth_batches(batches: int, batch_size: int) -> list[bytes]:
    """Pre-encode RECORDS frames once; every client replays the same bytes.

    Dedup is keyed per client id, so identical seq numbers across clients
    are fine — this keeps the fleet's hot loop at ``writer.write(frame)``
    with zero per-batch encoding cost.
    """
    frames = []
    for seq in range(1, batches + 1):
        records = [
            Record(
                {
                    "kernel": f"k{i % 13}",
                    "mpi.rank": i % 64,
                    "time.duration": 0.25 + (i % 7) * 0.5,
                }
            )
            for i in range(batch_size)
        ]
        payload = encode_binary_body(
            {"seq": seq, "count": len(records)},
            {"records": records_to_binary(records)},
        )
        frame = io.BytesIO()
        write_frame(frame, MessageType.RECORDS, payload, flags=FLAG_BINARY)
        frames.append(frame.getvalue())
    return frames


async def _read_reply(reader: asyncio.StreamReader) -> tuple[MessageType, dict]:
    header = await reader.readexactly(HEADER.size)
    mtype, _flags, length = parse_frame_header(header)
    payload = await reader.readexactly(length) if length else b""
    return mtype, parse_body(mtype, payload)


async def _one_client(
    index: int,
    host: str,
    port: int,
    frames: list[bytes],
    ramp: asyncio.Semaphore,
    gate: asyncio.Event,
    connected: asyncio.Semaphore,
    stats: dict,
) -> None:
    hello = message_bytes(
        MessageType.HELLO,
        {"client": f"bench-{index}", "scheme": SCHEME, "caps": [CAP_BINARY]},
    )
    reader = writer = None
    async with ramp:
        for attempt in range(3):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except OSError:
                await asyncio.sleep(0.05 * (attempt + 1))
        if writer is None:
            stats["connect_failures"] += 1
            connected.release()
            return
        try:
            writer.write(hello)
            await writer.drain()
            mtype, _body = await _read_reply(reader)
        except (OSError, asyncio.IncompleteReadError):
            mtype = None
        if mtype is not MessageType.HELLO_ACK:
            stats["rejected"] += 1
            writer.close()
            connected.release()
            return
        stats["connected"] += 1
        connected.release()
    try:
        # Barrier: every batch below is sent while the *whole* fleet holds
        # live connections — this measures N-concurrent ingest, not a ramp.
        await gate.wait()
        for frame in frames:
            for _ in range(50):
                writer.write(frame)
                await writer.drain()
                mtype, body = await _read_reply(reader)
                if mtype is MessageType.ACK:
                    stats["acked_batches"] += 1
                    break
                if mtype is MessageType.BUSY:
                    stats["busy"] += 1
                    await asyncio.sleep(float(body.get("retry_after", 0.05)))
                    continue
                stats["errors"] += 1
                return
            else:
                stats["gave_up"] += 1
        writer.write(BYE_FRAME)
        await writer.drain()
    except (OSError, asyncio.IncompleteReadError):
        stats["errors"] += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _drive_fleet(
    host: str, port: int, n_clients: int, frames: list[bytes], stats: dict
) -> tuple[float, float]:
    ramp = asyncio.Semaphore(CONNECT_RAMP)
    gate = asyncio.Event()
    connected = asyncio.Semaphore(0)
    t0 = time.perf_counter()
    tasks = [
        asyncio.create_task(
            _one_client(i, host, port, frames, ramp, gate, connected, stats)
        )
        for i in range(n_clients)
    ]
    for _ in range(n_clients):
        await connected.acquire()
    connect_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    gate.set()
    await asyncio.gather(*tasks)
    return connect_seconds, time.perf_counter() - t0


def run_fleet(
    n_clients: int,
    frames: list[bytes],
    batch_size: int,
    shards: int,
    queue_depth: int,
) -> dict:
    stats = {
        "connected": 0,
        "connect_failures": 0,
        "rejected": 0,
        "acked_batches": 0,
        "busy": 0,
        "gave_up": 0,
        "errors": 0,
    }
    with AggregationServer(SCHEME, shards=shards, queue_depth=queue_depth) as server:
        host, port = server.address
        connect_seconds, ingest_seconds = asyncio.run(
            _drive_fleet(host, port, n_clients, frames, stats)
        )
        merged = server.merged_db()
    acked_records = stats["acked_batches"] * batch_size
    lost = acked_records - merged.num_processed
    return {
        "clients": n_clients,
        "connect_seconds": connect_seconds,
        "ingest_seconds": ingest_seconds,
        "records_per_second": (
            acked_records / ingest_seconds if ingest_seconds > 0 else 0.0
        ),
        "acked_records": acked_records,
        "processed": merged.num_processed,
        "lost": lost,
        **stats,
    }


def sweep(
    counts: list[int],
    frames: list[bytes],
    batch_size: int,
    shards: int,
    queue_depth: int,
) -> list[dict]:
    runs = []
    for n in counts:
        run = run_fleet(n, frames, batch_size, shards, queue_depth)
        runs.append(run)
        print(
            f"clients={n}: "
            f"{run['records_per_second']:,.0f} records/s, "
            f"connect {run['connect_seconds']:.2f}s, "
            f"busy={run['busy']} failures={run['connect_failures']} "
            f"lost={run['lost']}"
        )
        if run["lost"]:
            print(f"  WARNING: {run['lost']} acked records never folded")
    return runs


def first_shed(runs: list[dict]) -> int | None:
    """Smallest fleet size at which the server shed (BUSY) or refused work."""
    for run in runs:
        if run["busy"] or run["gave_up"] or run["connect_failures"]:
            return run["clients"]
    return None


def merge_output(path: str, sweep_payload: dict) -> None:
    payload: dict = {"benchmark": "aggregation-service"}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as stream:
                existing = json.load(stream)
            if isinstance(existing, dict):
                payload = existing
        except (OSError, json.JSONDecodeError):
            pass
    payload["client_sweep"] = sweep_payload
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[100, 500, 1000, 2000, 5000, 10000],
        help="fleet sizes to sweep",
    )
    parser.add_argument("--batches", type=int, default=5, help="batches per client")
    parser.add_argument("--batch-size", type=int, default=50)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick pass")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if an acked record was lost or any batch was shed",
    )
    parser.add_argument("--output", default="BENCH_service.json")
    args = parser.parse_args()

    if args.smoke:
        args.clients = [n for n in args.clients if n <= 2000] or [100]
        args.batches = min(args.batches, 2)
        args.batch_size = min(args.batch_size, 50)

    cap, limit = fd_budget()
    counts = sorted(set(args.clients))
    capped = [n for n in counts if n > cap]
    counts = sorted({min(n, cap) for n in counts})
    if capped:
        print(
            f"fd limit {limit} supports at most {cap} in-process clients "
            f"(2 fds each + {FD_HEADROOM} headroom); capping {capped} -> {cap}"
        )

    frames = synth_batches(args.batches, args.batch_size)
    runs = sweep(counts, frames, args.batch_size, args.shards, args.queue_depth)

    sweep_payload = {
        "scheme": SCHEME,
        "batches_per_client": args.batches,
        "batch_size": args.batch_size,
        "shards": args.shards,
        "queue_depth": args.queue_depth,
        "fd_limit": limit,
        "client_cap": cap,
        "runs": runs,
        "first_shed": first_shed(runs),
    }
    merge_output(args.output, sweep_payload)

    if args.check:
        failures = []
        lost = sum(run["lost"] for run in runs)
        if lost:
            failures.append(f"{lost} acked records were never folded")
        shed = sum(run["busy"] + run["gave_up"] for run in runs)
        if shed:
            failures.append(f"{shed} batches were shed (BUSY) or given up")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
