"""Record serialization: compact .cali-like, JSON lines, CSV, binary columnar .rcf; datasets."""

from .calformat import CaliReader, CaliWriter, iter_records, read_cali, write_cali
from .colfile import (
    ColfileReader,
    ColfileWriter,
    ColumnStore,
    read_colfile,
    write_colfile,
)
from .csvio import read_csv, write_csv
from .dataset import Dataset, read_records, write_records
from .jsonio import read_json, write_json

__all__ = [
    "CaliReader",
    "CaliWriter",
    "read_cali",
    "write_cali",
    "iter_records",
    "read_csv",
    "write_csv",
    "read_json",
    "write_json",
    "ColfileReader",
    "ColfileWriter",
    "ColumnStore",
    "read_colfile",
    "write_colfile",
    "Dataset",
    "read_records",
    "write_records",
]
