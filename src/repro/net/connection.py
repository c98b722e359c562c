"""The connection plane: one asyncio event loop for every socket.

A single event loop owns accept/read/write for *every* connection: frames
are parsed incrementally off the stream buffer, no thread per socket, so
the network plane scales to 10k+ concurrent clients while the shard fold
workers stay a (lock-free) thread pool fed through bounded queues.  This is
the only module of the server that touches sockets or asyncio streams; its
three callbacks see decoded frames and hand back reply frames:

* ``hello(body) -> (session, ack body)`` — may refuse by raising;
* ``await handle(session, mtype, body, sections) -> (mtype, body)``, or
  ``None`` to end the session (BYE);
* ``goodbye(session)`` — once per session that got past ``hello``.

``RECORDS``/``STATES``/``FORWARD`` payloads are always ``colbin1`` binary
sections (without ``FLAG_BINARY``: a protocol error); control frames and
``RESULT`` replies stay JSON.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional

from ..common.errors import ReproError
from ..observe import MetricsRegistry
from .protocol import (
    CAP_BINARY,
    FLAG_BINARY,
    HEADER,
    MessageType,
    ProtocolError,
    Truncated,
    decode_binary_body,
    error_body,
    message_bytes,
    parse_body,
    parse_frame_header,
)

__all__ = ["ConnectionPlane"]

#: frame types whose payload must be a colbin1 binary envelope
_DATA_FRAMES = (MessageType.RECORDS, MessageType.STATES, MessageType.FORWARD)


class _PeerGone(Exception):
    """A socket read or write failed: the peer vanished, or our own shutdown
    closed the socket under it."""


class ConnectionPlane:
    """Listener, event-loop thread, frame I/O and the blocking executor."""

    def __init__(
        self, host: str, port: int, backlog: int, max_payload: int, max_decoded: int,
        metrics: MetricsRegistry, hello: Callable, handle: Callable, goodbye: Callable,
    ) -> None:
        self.host = host
        self.port = port
        self.backlog = int(backlog)
        self.max_payload = max_payload
        self.max_decoded = max_decoded
        self.metrics = metrics
        self._hello, self._handle, self._goodbye = hello, handle, goodbye
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: set = set()
        self._writers: set = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._blocking_threads: list[threading.Thread] = []

    @property
    def threads(self) -> dict[str, list[threading.Thread]]:
        """The plane's threads by role: ``loop`` and the ``blocking`` pool."""
        loop = self._thread
        return {"loop": [loop] if loop is not None else [], "blocking": self._blocking_threads}

    # -- lifecycle -------------------------------------------------------------

    def bind(self) -> int:
        """Bind the listener; returns the now-concrete port (0 = ephemeral)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        self._listener = listener
        self.port = listener.getsockname()[1]
        return self.port

    def start(self) -> None:
        """Start the event loop on the bound listener; raises what boot raised."""
        self._blocking_threads = started = []
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-net-blocking",
            initializer=lambda: started.append(threading.current_thread()),
        )
        booted: Future = Future()
        self._thread = threading.Thread(
            target=self._loop_main, args=(booted,), name="repro-net-loop", daemon=True
        )
        self._thread.start()
        booted.result(timeout=10.0)

    def _loop_main(self, booted: Future) -> None:
        """Body of the event-loop thread: one loop owns every connection."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _boot() -> None:
            self._listener.setblocking(False)
            # start_server calls listen() on the pre-bound socket itself,
            # honoring our backlog — the port was fixed at bind time so
            # the address is already concrete for callers.
            self._server = await asyncio.start_server(
                self._client_connected, sock=self._listener, backlog=self.backlog
            )

        try:
            loop.run_until_complete(_boot())
        except Exception as exc:
            booted.set_exception(exc)
        else:
            booted.set_result(None)
            loop.run_forever()
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        except Exception:
            pass
        loop.close()

    def shutdown(self, graceful: bool, timeout: float) -> None:
        """Tear down the asyncio plane from the caller's (non-loop) thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            # start() never brought the loop up: just close the bare socket.
            listener, self._listener = self._listener, None
            if listener is not None:
                listener.close()
            return
        if loop.is_running():
            try:
                fut = asyncio.run_coroutine_threadsafe(
                    self._shutdown(graceful, timeout), loop
                )
                fut.result(timeout=timeout + 5.0)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout + 5.0)
        self._thread = None
        self._loop = None
        self._listener = None
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=graceful)

    async def _shutdown(self, graceful: bool, timeout: float) -> None:
        current = asyncio.current_task()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._writers):
            try:
                if graceful:
                    # Orderly EOF: clients observe the close and spool
                    # anything unacknowledged for replay.
                    writer.close()
                else:
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
            except Exception:
                pass
        tasks = [t for t in self._tasks if t is not current and not t.done()]
        if graceful and tasks:
            _, pending = await asyncio.wait(tasks, timeout=min(timeout, 5.0))
            tasks = list(pending)
        for t in tasks:
            t.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
        if server is not None:
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=2.0)
            except Exception:
                pass

    async def offload(self, fn: Callable, *args):
        """Run a blocking request path on the small executor, so the loop
        keeps absorbing reads meanwhile."""
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    # -- one connection ------------------------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        self.metrics.count("net.connections")
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # kill() or shutdown cancelled us mid-frame
        except (Truncated, _PeerGone):
            # Nothing to report to — drop the connection.
            self.metrics.count("net.disconnects", reason="io")
        except ProtocolError as exc:
            self.metrics.count("net.errors", stage="protocol")
            await self._send_error(writer, exc, getattr(exc, "code", "protocol"))
        except ReproError as exc:
            self.metrics.count("net.errors", stage="request")
            await self._send_error(writer, exc, "request")
        except Exception as exc:
            # A bug in a callback, not the peer's doing: the traceback goes to
            # the loop's exception handler (asyncio's log) and the peer is told
            # instead of left waiting.  Only this connection ends; the loop and
            # every other session carry on.
            self.metrics.count("net.errors", stage="handler")
            asyncio.get_running_loop().call_exception_handler(
                {"message": "connection handler raised", "exception": exc}
            )
            await self._send_error(writer, f"{type(exc).__name__}: {exc}", "internal")
        finally:
            self._writers.discard(writer)
            self._tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _send_error(self, writer, exc, code: str) -> None:
        try:
            writer.write(message_bytes(MessageType.ERROR, error_body(str(exc), code=code)))
            await writer.drain()
        except (OSError, ValueError):
            pass

    async def _serve_connection(self, reader, writer) -> None:
        mtype, body, _ = await self._read(reader)
        if mtype is not MessageType.HELLO:
            raise ProtocolError(f"expected HELLO, got {mtype.name}")
        session, ack = self._hello(body)
        try:
            await self._write(writer, MessageType.HELLO_ACK, ack)
            while True:
                resp = await self._handle(session, *await self._read(reader))
                if resp is None:
                    self.metrics.count("net.disconnects", reason="bye")
                    return
                await self._write(writer, *resp)
        finally:
            self._goodbye(session)

    async def _read(self, reader) -> tuple[MessageType, dict, dict]:
        """Incremental frame parse off the stream buffer (no thread, no poll)."""
        header = await _read_exactly(reader, HEADER.size)
        mtype, flags, length = parse_frame_header(header, self.max_payload)
        payload = b""
        if length:
            payload = await _read_exactly(reader, length)
        nbytes = HEADER.size + len(payload)
        self.metrics.count("net.bytes.rx", nbytes)
        if mtype is MessageType.FORWARD:
            # Tree telemetry: wire bytes arriving as relayed partial states
            # (the Fig. 8 quantity — payload shrinks as levels combine).
            self.metrics.count("net.forward.bytes.rx", nbytes)
        if flags & FLAG_BINARY:
            body, sections = decode_binary_body(payload, max_decoded=self.max_decoded)
            return mtype, body, sections
        if mtype in _DATA_FRAMES:
            raise ProtocolError(
                f"{mtype.name} payload must be a {CAP_BINARY} binary envelope"
            )
        return mtype, parse_body(mtype, payload), {}

    async def _write(self, writer, mtype: MessageType, body: dict) -> None:
        data = message_bytes(mtype, body)
        try:
            writer.write(data)
            await writer.drain()
        except (OSError, ValueError) as exc:
            raise _PeerGone(str(exc)) from exc
        self.metrics.count("net.bytes.tx", len(data))


async def _read_exactly(reader, n: int) -> bytes:
    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError:
        raise Truncated("connection closed") from None
    except (OSError, ValueError) as exc:
        raise _PeerGone(str(exc)) from exc
