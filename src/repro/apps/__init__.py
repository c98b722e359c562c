"""Workload applications: the paper's CleverLeaf and ParaDiS simulators and
its Listing 1 example."""

from . import cleverleaf, paradis
from .listing1 import DEFAULT_SCHEME, run_listing1

__all__ = ["cleverleaf", "paradis", "run_listing1", "DEFAULT_SCHEME"]
