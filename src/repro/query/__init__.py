"""Off-line querying: the state-table engine, the CLI, and the parallel apps."""

from .columnar import columnar_aggregate, columnar_db
from .compare import compare_profiles
from .engine import QueryEngine, QueryResult, run_query
from .mpi_query import MPIQueryOutcome, MPIQueryRunner, PhaseTimes
from .options import QueryOptions
from .parallel import parallel_query_files
from .rollup import rollup_inclusive

__all__ = [
    "QueryEngine",
    "QueryResult",
    "QueryOptions",
    "run_query",
    "MPIQueryRunner",
    "MPIQueryOutcome",
    "PhaseTimes",
    "parallel_query_files",
    "rollup_inclusive",
    "compare_profiles",
    "columnar_aggregate",
    "columnar_db",
]
