"""The MPI-parallel query application (paper Section IV-C).

Runs one CalQL query across many per-process datasets in parallel: each
(simulated) process reads and locally aggregates its assigned input files
with the same engine the serial query uses, then partial aggregation
databases travel up a k-ary reduction tree — "leaf processes send the local
aggregation results to their parent, where the partial results are
aggregated again" — until the root holds the final result.

Timing honesty, matching how we reproduce Figure 4:

* the *local read + process* phase is **really executed and really timed**
  (``perf_counter`` around file reading and aggregation), and the measured
  duration is charged to the rank's virtual clock;
* the *combine* steps of the reduction are likewise really executed and
  really timed;
* only the *message* costs come from the simulator's network model.

So the "local" curve of Fig. 4 is a measurement of this library and the
"reduction" curve is measured combine time plus modelled message time with
the paper's logarithmic tree structure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .. import observe
from ..common.errors import QueryError
from ..common.record import Record
from ..common.util import children_of, chunk_evenly, parent_of
from ..mpi.network import NetworkModel
from ..mpi.simulator import Comm, SimWorld
from .engine import QueryEngine, QueryResult

__all__ = ["MPIQueryRunner", "MPIQueryOutcome", "PhaseTimes"]

_TAG_PARTIAL = 201


def _tree_level(rank: int, fanout: int) -> int:
    """Depth of ``rank`` in the k-ary reduction tree (root = level 0)."""
    level = 0
    while rank:
        rank = parent_of(rank, fanout)
        level += 1
    return level


class _Lazy:
    """A per-rank record chunk produced on demand (see ``run_generated``)."""

    __slots__ = ("factory", "rank")

    def __init__(self, factory, rank: int) -> None:
        self.factory = factory
        self.rank = rank

    def materialize(self):
        return self.factory(self.rank)


@dataclass
class PhaseTimes:
    """Per-rank phase durations in virtual seconds."""

    io: float = 0.0
    local: float = 0.0
    reduce: float = 0.0
    total: float = 0.0


@dataclass
class MPIQueryOutcome:
    """Result of a parallel query run."""

    #: final query result (flushed/ordered at the root)
    result: QueryResult
    #: rank 0's phase times (what the paper's Fig. 4 plots)
    times: PhaseTimes
    #: per-rank phase times
    per_rank: list[PhaseTimes] = field(default_factory=list)
    #: simulator traffic statistics
    messages: int = 0
    bytes: int = 0
    #: number of output records (paper reports 85 for the ParaDiS query)
    num_output_records: int = 0
    #: reduction-tree telemetry, keyed by the sending rank's tree level
    #: (Fig. 8-style: wire volume and combine time per level)
    sends_by_level: dict[int, int] = field(default_factory=dict)
    wire_bytes_by_level: dict[int, int] = field(default_factory=dict)
    combine_seconds_by_level: dict[int, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.times.total

    def timing_summary(self) -> str:
        """Multi-line phase + per-level report (the CLI's ``--timing`` text).

        The same numbers also land in the metrics registry when collection
        is enabled, so this summary and ``--stats`` never disagree.
        """
        t = self.times
        lines = [
            f"total {t.total:.6f}s  local {t.local:.6f}s  "
            f"reduce {t.reduce:.6f}s  messages {self.messages}  "
            f"bytes {self.bytes}"
        ]
        for level in sorted(self.wire_bytes_by_level):
            lines.append(
                f"level {level}: sends {self.sends_by_level.get(level, 0)}  "
                f"wire {self.wire_bytes_by_level[level]} bytes  "
                f"combine {self.combine_seconds_by_level.get(level, 0.0):.6f}s"
            )
        return "\n".join(lines)


class MPIQueryRunner:
    """Configures and runs parallel queries over simulated MPI."""

    def __init__(
        self,
        query: str,
        size: int,
        network: Optional[NetworkModel] = None,
        fanout: int = 2,
        io_bandwidth: Optional[float] = None,
        io_latency: float = 0.0,
        local_rate: Optional[float] = None,
        combine_rate: Optional[float] = None,
    ) -> None:
        """``io_bandwidth``/``io_latency`` optionally model parallel-file-
        system read time per input file (bytes/sec and seconds per open);
        when unset, only the really-measured read time is charged.

        ``local_rate`` (records/second) and ``combine_rate`` (aggregation
        entries/second) switch the corresponding phase from *measured* real
        time to a deterministic cost model — useful for reproducible
        structural experiments; the Fig. 4 benchmark uses measured mode."""
        self.query_text = query
        self.size = size
        self.network = network
        self.fanout = fanout
        self.io_bandwidth = io_bandwidth
        self.io_latency = io_latency
        self.local_rate = local_rate
        self.combine_rate = combine_rate
        # Compile once up front so syntax errors surface before the run.
        engine = QueryEngine(query)
        if engine.scheme is None:
            raise QueryError(
                "the parallel query application requires an aggregation query "
                "(partial results must be combinable)"
            )

    # -- public API ------------------------------------------------------------

    def run_files(self, paths: Sequence[Union[str, os.PathLike]]) -> MPIQueryOutcome:
        """Distribute ``paths`` over the ranks and run the query."""
        assignments = chunk_evenly(list(paths), self.size)
        return self._run(assignments, from_files=True)

    def run_records(self, records_per_rank: Sequence[Sequence[Record]]) -> MPIQueryOutcome:
        """Run over in-memory per-rank record lists (no file I/O)."""
        if len(records_per_rank) != self.size:
            raise QueryError(
                f"need one record list per rank: got {len(records_per_rank)} "
                f"for {self.size} ranks"
            )
        # Each rank gets a single in-memory "chunk" holding its record list.
        return self._run([[list(r)] for r in records_per_rank], from_files=False)

    def run_generated(self, factory: "Callable[[int], Sequence[Record]]") -> MPIQueryOutcome:
        """Run over records produced lazily per rank by ``factory(rank)``.

        Each rank's records are generated inside its local phase (the
        generation time is excluded from the measured local time) and
        released right after feeding, so peak memory is one rank's records
        plus the partial databases — what makes laptop sweeps to thousands
        of simulated ranks feasible.
        """
        return self._run([[_Lazy(factory, rank)] for rank in range(self.size)],
                         from_files=False)

    # -- implementation ------------------------------------------------------------

    def _run(self, assignments: list[list], from_files: bool) -> MPIQueryOutcome:
        world = SimWorld(self.size, network=self.network)
        per_rank: list[PhaseTimes] = [PhaseTimes() for _ in range(self.size)]
        final_holder: dict[str, QueryResult] = {}
        # Reduction-tree telemetry, keyed by the *sending* rank's tree level
        # (the level of the edge the partial DB travels over).  The
        # simulator interleaves rank programs on one thread, so plain dicts
        # are safe here.
        sends_by_level: dict[int, int] = {}
        wire_by_level: dict[int, int] = {}
        combine_by_level: dict[int, float] = {}
        # One compiled engine shared by all ranks: the scheme is immutable
        # and every rank gets its own database from make_db().
        engine = QueryEngine(self.query_text)

        def program(comm: Comm):
            phase = per_rank[comm.rank]
            start = comm.now()

            # --- phase 1: read and locally aggregate assigned input ---------
            db = engine.make_db()
            modeled_io = 0.0
            num_fed = 0
            measured_local = 0.0
            for item in assignments[comm.rank]:
                if from_files:
                    wall0 = time.perf_counter()
                    if self.io_bandwidth:
                        modeled_io += (
                            self.io_latency
                            + os.path.getsize(item) / self.io_bandwidth
                        )
                    # .rcf stays columnar: chunk stores feed the kernels
                    num_fed += engine.feed_file(db, item)[0]
                    measured_local += time.perf_counter() - wall0
                    continue
                if isinstance(item, _Lazy):
                    # generation is workload synthesis, not query work: keep
                    # it outside the measured local time
                    records = item.materialize()
                    wall0 = time.perf_counter()
                else:
                    records = item
                    wall0 = time.perf_counter()
                num_fed += len(records)
                engine.feed(db, records)
                measured_local += time.perf_counter() - wall0
                del records  # free before the next chunk / the reduction
            if modeled_io:
                yield from comm.compute(modeled_io)
            if self.local_rate is not None:
                yield from comm.compute(num_fed / self.local_rate)
            else:
                yield from comm.compute(measured_local)
            phase.io = modeled_io
            phase.local = comm.now() - start

            # --- phase 2: tree reduction of partial databases ----------------
            reduce_start = comm.now()
            for child in children_of(comm.rank, comm.size, self.fanout):
                incoming = yield from comm.recv(src=child, tag=_TAG_PARTIAL)
                incoming_entries = incoming.num_entries
                wall1 = time.perf_counter()
                db.combine(incoming)
                combine_seconds = time.perf_counter() - wall1
                child_level = _tree_level(child, self.fanout)
                combine_by_level[child_level] = (
                    combine_by_level.get(child_level, 0.0) + combine_seconds
                )
                if self.combine_rate is not None:
                    yield from comm.compute(
                        max(1, incoming_entries) / self.combine_rate
                    )
                else:
                    yield from comm.compute(combine_seconds)
            if comm.rank != 0:
                parent = parent_of(comm.rank, self.fanout)
                nbytes = db.wire_size()
                level = _tree_level(comm.rank, self.fanout)
                sends_by_level[level] = sends_by_level.get(level, 0) + 1
                wire_by_level[level] = wire_by_level.get(level, 0) + nbytes
                yield from comm.send(
                    parent, db, tag=_TAG_PARTIAL, nbytes=nbytes
                )
                phase.reduce = comm.now() - reduce_start
            else:
                phase.reduce = comm.now() - reduce_start
                # Finalization (flush/sort/format) is post-processing, not
                # part of the cross-process reduction the paper's Fig. 4
                # plots — charged to the clock but outside phase.reduce.
                wall2 = time.perf_counter()
                final_holder["result"] = engine.finalize(db)
                yield from comm.compute(time.perf_counter() - wall2)
            phase.total = comm.now() - start
            return None

        sim = world.run(program)
        # Rank 0 finishes last in the reduction; report its phases, but the
        # run's total is the max across ranks (== rank 0 here by construction).
        times = per_rank[0]
        times.total = max(times.total, sim.elapsed)
        result = final_holder["result"]
        outcome = MPIQueryOutcome(
            result=result,
            times=times,
            per_rank=per_rank,
            messages=sim.stats.messages,
            bytes=sim.stats.bytes,
            num_output_records=len(result),
            sends_by_level=sends_by_level,
            wire_bytes_by_level=wire_by_level,
            combine_seconds_by_level=combine_by_level,
        )
        self._publish_telemetry(outcome)
        return outcome

    def _publish_telemetry(self, outcome: MPIQueryOutcome) -> None:
        """Mirror the run's telemetry into the metrics registry (if enabled)."""
        if not observe.enabled():
            return
        observe.gauge("mpi.ranks", self.size)
        observe.gauge("mpi.fanout", self.fanout)
        observe.count("mpi.messages", outcome.messages)
        observe.count("mpi.bytes", outcome.bytes)
        for phase in outcome.per_rank:
            observe.timing("mpi.phase.local", phase.local)
            observe.timing("mpi.phase.reduce", phase.reduce)
        for level, nbytes in outcome.wire_bytes_by_level.items():
            observe.count("mpi.wire.bytes", nbytes, level=level)
            observe.count(
                "mpi.sends", outcome.sends_by_level.get(level, 0), level=level
            )
        for level, seconds in outcome.combine_seconds_by_level.items():
            observe.timing("mpi.combine", seconds, level=level)
