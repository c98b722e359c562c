"""Reduction-tree topology: plan, launch, and drive federated aggregation.

The paper's cross-process aggregation (Section IV-C, Fig. 6) combines
partial aggregates up a logarithmic MPI reduction tree.  This module is
that topology over TCP: a *tree* of :class:`~repro.net.server.AggregationServer`
instances where every non-root node runs in relay mode — it aggregates
its children's streams exactly like a flat star server, then periodically
forwards the accumulated delta to its parent, level by level, until the
partial states meet at a single root::

                         root (level 0)
                        /              \\
              relay L1-0                relay L1-1
             /         \\              /          \\
        leaf 0        leaf 1      leaf 2         leaf 3

    repro-query tree --leaves 4 --fanin 2 -s "AGGREGATE sum(x) GROUP BY k"

Why a tree beats the star at scale: each relay *combines* its subtree's
records into per-key partial states before anything crosses the next
link, so the root receives O(keys × fan-in) wire bytes per cycle instead
of O(records × leaves) — the Fig. 8 payload-reduction effect, measured as
``net.tree.root_rx_bytes_per_record`` by ``benchmarks/suite``.

:func:`plan_tree` does the arithmetic (level sizes for N leaves at
fan-in k); :class:`LocalTree` launches a whole tree in-process — the unit
used by the fault-injection tests, the CLI launcher, and the benchmark.
Every relay keeps the flat topology's delivery guarantees (write-ahead
spool, replay, exactly-once per epoch) plus failover: when a mid-tree
relay dies, its children re-parent to their grandparent after
``failover_after`` seconds, announce the dead incarnation so the
grandparent retracts its partial contribution, and replay their spools —
root totals match a serial reference exactly, kill or no kill.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ..aggregate.scheme import AggregationScheme
from ..common.errors import ReproError
from .client import FlushClient
from .server import AggregationServer

__all__ = ["plan_tree", "LocalTree"]


def plan_tree(n_leaves: int, fanin: int = 2) -> list[int]:
    """Level sizes for ``n_leaves`` clients at fan-in ``fanin``, root first.

    The returned list always starts with ``[1]`` (the root); each further
    entry is one relay level, sized so every node has at most ``fanin``
    children.  When the leaves already fit under the root the plan is the
    flat star ``[1]``.

    >>> plan_tree(4, 2)
    [1, 2]
    >>> plan_tree(8, 2)
    [1, 2, 4]
    >>> plan_tree(16, 4)
    [1, 4]
    >>> plan_tree(2, 2)
    [1]
    """
    if n_leaves < 1:
        raise ValueError(f"need at least one leaf, got {n_leaves}")
    if fanin < 2:
        raise ValueError(f"fan-in must be at least 2, got {fanin}")
    sizes: list[int] = []
    current = math.ceil(n_leaves / fanin)
    while current > 1:
        sizes.append(current)
        current = math.ceil(current / fanin)
    return [1] + sizes[::-1]


class LocalTree:
    """Launch a whole reduction tree of in-process servers.

    ``level_sizes`` (root-first, e.g. ``[1, 2, 4]``) pins the exact shape;
    otherwise :func:`plan_tree` derives it from ``n_leaves`` and ``fanin``.
    Leaf ``i`` attaches to bottom-level node ``i % width`` — get its
    address with :meth:`leaf_address` or a ready client with
    :meth:`leaf_client`.

    >>> tree = LocalTree("AGGREGATE count GROUP BY k", n_leaves=4)  # doctest: +SKIP
    >>> client = tree.leaf_client(0)                                # doctest: +SKIP
    >>> ...; tree.sync(); tree.root.drain_results()                 # doctest: +SKIP
    """

    def __init__(
        self,
        scheme: Union[AggregationScheme, str],
        n_leaves: int,
        fanin: int = 2,
        level_sizes: Optional[list[int]] = None,
        shards: int = 1,
        forward_interval: float = 0.0,
        failover_after: Optional[float] = None,
        host: str = "127.0.0.1",
        window=None,
        lateness: float = 0.0,
        time_attribute: Optional[str] = None,
        retire_interval: float = 0.0,
        confidence: float = 0.90,
    ) -> None:
        sizes = list(level_sizes) if level_sizes is not None else plan_tree(n_leaves, fanin)
        if not sizes or sizes[0] != 1:
            raise ValueError(f"level sizes must start with the root [1, ...], got {sizes}")
        if any(size < 1 for size in sizes):
            raise ValueError(f"every level needs at least one node, got {sizes}")
        self.n_leaves = n_leaves
        self.fanin = fanin
        self.failover_after = failover_after
        # Every node shares the window configuration: relays stamp and
        # watermark the raw records their leaves stream, the root alone
        # retires (windowize_scheme is idempotent, so passing the root's
        # already-augmented scheme down is safe).
        windowed_kwargs = dict(
            window=window,
            lateness=lateness,
            time_attribute=time_attribute,
            confidence=confidence,
        )
        #: levels[0] = [root]; levels[-1] is what the leaves stream to
        self.levels: list[list[AggregationServer]] = []
        try:
            root = AggregationServer(
                scheme, host=host, shards=shards, relay_id="root", level=0,
                retire_interval=retire_interval, **windowed_kwargs,
            ).start()
            self.levels.append([root])
            self.scheme = root.scheme
            # The window may have come from the scheme text; relays get the
            # built scheme object, so pass the assigner explicitly.
            windowed_kwargs["window"] = root.window_assigner
            for depth, size in enumerate(sizes[1:], start=1):
                parents = self.levels[depth - 1]
                nodes = []
                for i in range(size):
                    parent = parents[i % len(parents)]
                    nodes.append(
                        AggregationServer(
                            self.scheme,
                            host=host,
                            shards=shards,
                            upstream=parent.address,
                            forward_interval=forward_interval,
                            failover_after=failover_after,
                            relay_id=f"relay-L{depth}-{i}",
                            level=depth,
                            **windowed_kwargs,
                        ).start()
                    )
                self.levels.append(nodes)
        except Exception:
            self._teardown(kill=True)
            raise
        self._stopped = False

    # -- shape ---------------------------------------------------------------

    @property
    def root(self) -> AggregationServer:
        return self.levels[0][0]

    @property
    def depth(self) -> int:
        """Number of server levels (1 = flat star: just the root)."""
        return len(self.levels)

    @property
    def nodes(self) -> list[AggregationServer]:
        return [node for level in self.levels for node in level]

    def leaf_address(self, index: int) -> tuple[str, int]:
        """Where leaf ``index`` should stream (bottom level, round-robin)."""
        bottom = self.levels[-1]
        return bottom[index % len(bottom)].address

    def leaf_client(self, index: int, **kwargs) -> FlushClient:
        """A :class:`FlushClient` wired to leaf ``index``'s relay.

        ``failover_after`` defaults to the tree's own setting so leaves
        re-parent when their relay dies; any :class:`FlushClient` keyword
        can be overridden.
        """
        host, port = self.leaf_address(index)
        # On a windowed tree leaves speak the base scheme: they stream raw
        # records and the relay stamps windows / tracks watermarks on arrival.
        kwargs.setdefault("scheme", self.root.producer_scheme)
        kwargs.setdefault("failover_after", self.failover_after)
        kwargs.setdefault("client_id", f"leaf-{index}")
        return FlushClient(host, port, **kwargs)

    # -- driving -------------------------------------------------------------

    def sync(self) -> bool:
        """Force one forward cycle per relay, deepest level first.

        Deliveries are synchronous, export barriers are queue-ordered, and
        a relay's forward cycles are serialised (a forced cycle waits for
        the periodic forwarder's in-flight one), so after ``leaf.flush();
        tree.sync()`` the root's merged state contains every acknowledged
        leaf record.  Returns True when every
        relay's parent acknowledged everything (False = something is
        spooled behind a dead link).
        """
        ok = True
        for level in reversed(self.levels[1:]):
            for node in level:
                if node.stopping:
                    continue  # a killed relay: its children re-deliver
                try:
                    ok = node.forward_now() and ok
                except ReproError:
                    ok = False
        return ok

    def kill_relay(self, depth: int, index: int) -> AggregationServer:
        """Abruptly kill one relay (fault injection); returns the corpse."""
        if depth < 1:
            raise ValueError("depth 0 is the root; kill a relay level >= 1")
        node = self.levels[depth][index]
        node.kill()
        return node

    # -- teardown ------------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain, deepest level first so every residue flows up."""
        if self._stopped:
            return
        self._stopped = True
        self._teardown(kill=False, timeout=timeout)

    def _teardown(self, kill: bool, timeout: float = 10.0) -> None:
        for level in reversed(self.levels):
            for node in level:
                try:
                    if kill:
                        node.kill()
                    elif not node.stopping:
                        node.stop(timeout=timeout)
                except Exception:
                    pass

    def __enter__(self) -> "LocalTree":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        shape = "/".join(str(len(level)) for level in self.levels)
        return f"LocalTree(levels={shape}, leaves={self.n_leaves})"
