"""``.rcf`` — the repro columnar file: zero-copy binary columnar encoding.

Everything the system moves today is text: ``.cali`` files are parsed
line-by-line into rows before a :class:`ColumnStore` is built, and
wire/spool payloads carry JSON.  This module provides the shared binary
columnar representation that removes that tax in all three places, and the
one :class:`ColumnStore` every vectorized query path reads:

* **column batches** — the unit codec (:func:`encode_columns` /
  :func:`decode_batch`; :func:`encode_batch` for records): a magic + JSON
  schema header followed by typed little-endian column buffers with packed
  null bitmaps, strings and mixed columns dictionary-encoded.  Buffers are 8-byte aligned so decoding is
  ``np.frombuffer`` views into the source bytes — no parsing, no copies.
* **files** — :class:`ColfileWriter` / :class:`ColfileReader`: a sequence of
  column-batch chunks plus a JSON footer directory at the end (so chunks
  stream out without buffering the whole dataset), ``mmap``-ed on read.  A
  single-chunk file loads straight into a :class:`ColumnStore` whose
  numeric columns are views into the mapping.
* **operator states** — :func:`encode_states` / :func:`decode_states`, the
  ``RSB1`` batch STATES and FORWARD frames ship: group keys as a column
  batch (:func:`encode_columns`), state cells column-by-column (zigzag varints
  for int cells and raw float64 for float cells, both vectorized; a generic
  packed fallback).  A :class:`~repro.aggregate.table.StateTable` hands its
  columns over as they are; :func:`states_to_binary` /
  :func:`states_from_binary` are the list-form wrappers over the same codec
  for ``(key entries, operator states)`` pairs.

Decoding is defensive everywhere: all offsets/lengths are validated against
the payload before any allocation, dictionary and row counts are capped by
:class:`DecodeLimits`, and malformed input raises :class:`ColfileError`
rather than crashing or allocating attacker-controlled amounts of memory.
The file layout and compatibility rules are documented in ``docs/format.md``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .. import observe
from ..common.errors import DatasetError
from ..common.record import Record
from ..common.variant import ValueType, Variant

__all__ = [
    "ColfileError",
    "DecodeLimits",
    "ColumnStore",
    "ColfileWriter",
    "ColfileReader",
    "write_colfile",
    "read_colfile",
    "encode_batch",
    "decode_batch",
    "decode_batch_store",
    "records_from_store",
    "encode_columns",
    "entry_columns",
    "encode_states",
    "decode_states",
    "slot_cells",
    "states_to_binary",
    "states_from_binary",
    "pack_value",
    "unpack_value",
]


class ColfileError(DatasetError):
    """Malformed or unsupported ``.rcf`` / column-batch data."""


#: file header magic + footer magic; bump FILE_VERSION for incompatible changes
FILE_MAGIC = b"RCF1"
FOOT_MAGIC = b"RCFZ"
FILE_VERSION = 1

#: column-batch magic (shared by file chunks, wire sections, worker shipping)
BATCH_MAGIC = b"RCB1"
#: binary operator-states magic
STATES_MAGIC = b"RSB1"

_FILE_HEADER = struct.Struct("<4sHH")  # magic, version, flags
_FILE_FOOTER = struct.Struct("<I4s")  # footer length, footer magic
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")

#: default chunk size for file writes — large enough to amortize headers,
#: small enough that one chunk is a reasonable out-of-core working set
DEFAULT_CHUNK_ROWS = 65_536

#: fixed on-disk/on-wire tag per value type (never renumber)
_TYPE_TAG = {
    ValueType.INV: 0,
    ValueType.INT: 1,
    ValueType.UINT: 2,
    ValueType.DOUBLE: 3,
    ValueType.STRING: 4,
    ValueType.BOOL: 5,
    ValueType.USR: 6,
}
_TAG_TYPE = {tag: vtype for vtype, tag in _TYPE_TAG.items()}
#: dictionary-entry tag flag: payload is decimal text (int outside 64 bits)
_TEXT_FLAG = 0x80

#: numpy dtype string per typed (non-dictionary) column encoding
_NUM_DTYPE = {
    ValueType.DOUBLE: "<f8",
    ValueType.INT: "<i8",
    ValueType.UINT: "<u8",
    ValueType.BOOL: "|u1",
}
_CODE_DTYPES = ("<i1", "|i1", "<i2", "<i4", "<i8")

_INV, _DOUBLE = ValueType.INV, ValueType.DOUBLE
_STRING, _INT = ValueType.STRING, ValueType.INT
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1
_UINT_MAX = 2**64 - 1


class DecodeLimits:
    """Caps applied while decoding untrusted column batches.

    Structural validation (every buffer must lie inside the payload, sizes
    must match the declared row count) already bounds allocations by the
    payload size; these caps add explicit ceilings on the *decoded* expansion
    so a hostile header cannot request huge materializations even within a
    large frame.
    """

    __slots__ = ("max_rows", "max_dict", "max_bytes")

    def __init__(
        self,
        max_rows: int = 100_000_000,
        max_dict: int = 16_000_000,
        max_bytes: int = 1 << 31,
    ) -> None:
        self.max_rows = max_rows
        self.max_dict = max_dict
        self.max_bytes = max_bytes

    @classmethod
    def for_decoded_size(cls, max_bytes: int) -> "DecodeLimits":
        """Limits scaled so decoded arrays stay within ``max_bytes``.

        Decoding widens at most 8x (``int8`` codes → ``int64``), so rows are
        capped at ``max_bytes / 8`` and everything else follows.
        """
        max_bytes = int(max_bytes)
        return cls(
            max_rows=max(1, max_bytes // 8),
            max_dict=max(1, max_bytes // 16),
            max_bytes=max_bytes,
        )


_DEFAULT_LIMITS = DecodeLimits()


# ---------------------------------------------------------------------------
# column batch encoding


class _BufferBuilder:
    """Accumulates 8-byte-aligned buffers, handing out (offset, length)."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []
        self.pos = 0

    def add(self, data: bytes) -> list[int]:
        pad = (-self.pos) % 8
        if pad:
            self.parts.append(b"\x00" * pad)
            self.pos += pad
        off = self.pos
        self.parts.append(data)
        self.pos += len(data)
        return [off, len(data)]


def _min_code_dtype(n_values: int) -> str:
    """Smallest signed dtype that holds codes ``-1 .. n_values-1``."""
    if n_values < 2**7:
        return "<i1"
    if n_values < 2**15:
        return "<i2"
    if n_values < 2**31:
        return "<i4"
    return "<i8"


def _encode_dictionary(values: Sequence[Variant]) -> tuple[bytes, bytes, bytes]:
    """``(tags, offsets, blob)`` buffers for a dictionary value table."""
    tags = bytearray(len(values))
    offsets = np.empty(len(values) + 1, dtype="<u4")
    blob = bytearray()
    offsets[0] = 0
    for i, v in enumerate(values):
        tag = _TYPE_TAG[v.type]
        t = v.type
        if t is ValueType.DOUBLE:
            blob += _F64.pack(v.value)
        elif t is ValueType.INT:
            if _INT_MIN <= v.value <= _INT_MAX:
                blob += _I64.pack(v.value)
            else:
                tag |= _TEXT_FLAG
                blob += str(v.value).encode("ascii")
        elif t is ValueType.UINT:
            if v.value <= _UINT_MAX:
                blob += _U64.pack(v.value)
            else:
                tag |= _TEXT_FLAG
                blob += str(v.value).encode("ascii")
        elif t is ValueType.BOOL:
            blob += b"\x01" if v.value else b"\x00"
        else:  # STRING / USR
            blob += v.to_string().encode("utf-8")
        tags[i] = tag
        if len(blob) >= 2**32:
            raise ColfileError("dictionary blob exceeds 4 GiB; write smaller chunks")
        offsets[i + 1] = len(blob)
    return bytes(tags), offsets.tobytes(), bytes(blob)


def _decode_dictionary(
    tags: np.ndarray, offsets: np.ndarray, blob: memoryview
) -> list[Variant]:
    values: list[Variant] = []
    blob_bytes = bytes(blob)
    for i in range(len(tags)):
        tag = int(tags[i])
        start, end = int(offsets[i]), int(offsets[i + 1])
        payload = blob_bytes[start:end]
        vtype = _TAG_TYPE.get(tag & ~_TEXT_FLAG)
        if vtype is None:
            raise ColfileError(f"unknown dictionary value tag {tag}")
        try:
            if tag & _TEXT_FLAG:
                if vtype not in (ValueType.INT, ValueType.UINT):
                    raise ColfileError("text-encoded payload on non-integer tag")
                values.append(Variant(vtype, int(payload.decode("ascii"))))
            elif vtype is ValueType.DOUBLE:
                values.append(Variant(vtype, _F64.unpack(payload)[0]))
            elif vtype is ValueType.INT:
                values.append(Variant(vtype, _I64.unpack(payload)[0]))
            elif vtype is ValueType.UINT:
                values.append(Variant(vtype, _U64.unpack(payload)[0]))
            elif vtype is ValueType.BOOL:
                values.append(Variant(vtype, payload != b"\x00"))
            elif vtype in (ValueType.STRING, ValueType.USR):
                values.append(Variant(vtype, payload.decode("utf-8")))
            else:
                raise ColfileError("INV value in dictionary")
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise ColfileError(f"bad dictionary entry {i}: {exc}") from None
    return values


class _Dictionary:
    """Value → code table: how every dictionary column is built.

    The batch encoder, a records-built store and :func:`merge_stores` all
    intern through this class, so "are these two values one dictionary
    entry?" has one answer: only when type and payload are identical —
    doubles by bit pattern, so ``0.0`` / ``-0.0`` and NaNs with different
    payloads stay apart, and ``int 1``, ``double 1.0`` and ``True`` are three
    entries.  Codes are handed out in first-seen order.  GROUP BY identity
    under :class:`Variant` equality is decided per distinct value above this
    (``aggregate.table._equality_classes``), never here.
    """

    __slots__ = ("values", "_codes")

    def __init__(self) -> None:
        self.values: list[Variant] = []
        self._codes: dict[object, int] = {}

    def copy(self) -> "_Dictionary":
        out = _Dictionary()
        out.values, out._codes = list(self.values), dict(self._codes)
        return out

    def encode(self, entries: Iterable[Optional[Variant]]) -> list[int]:
        """The code of each entry, adding values not seen before; an absent
        (``None``) or ``INV`` entry is -1."""
        values, table = self.values, self._codes
        lookup = table.get
        out: list[int] = []
        append = out.append
        for v in entries:
            if v is None or v.type is _INV:
                append(-1)
                continue
            t, x = v.type, v.value
            # Keys hash without the type where they can (an Enum member
            # hashes in Python): a string is the bare str, a double the bare
            # float and an int a 1-tuple, which no other key equals; any
            # other type keys as (type, value).  Doubles equal by value yet
            # not by bits (signed zeros, NaNs) key by bits.
            if t is _STRING:
                key = x
            elif t is _DOUBLE:
                key = (t, _F64.pack(x)) if x == 0.0 or x != x else x
            elif t is _INT:
                key = (x,)
            else:
                key = (t, x)
            code = lookup(key)
            if code is None:
                code = table[key] = len(values)
                values.append(v)
            append(code)
        return out


def entry_columns(
    entries: Sequence[dict[str, Variant]], labels: Optional[Iterable[str]] = None
) -> list[tuple[str, np.ndarray, list[Variant]]]:
    """``(label, codes, values)`` per label over a list of entry dicts (the
    records of a batch, or exported group keys): a :class:`_Dictionary`
    per label interns its values in first-seen order, and an entry without
    the label (or with an ``INV`` value) has code -1.  ``labels`` defaults
    to every label the entries hold a value for, in the order the entries
    first hold one (:func:`encode_columns`' column order)."""
    if labels is None:
        labels = dict.fromkeys(
            label for entry in entries for label, v in entry.items() if v.type is not _INV
        )
    columns = []
    for label in labels:
        dictionary = _Dictionary()
        codes = dictionary.encode([entry.get(label) for entry in entries])
        columns.append((label, np.array(codes, dtype=np.int64), dictionary.values))
    return columns


def encode_batch(records: Sequence[Record]) -> bytes:
    """Encode a record batch into the ``RCB1`` binary columnar form:
    :func:`encode_columns` of the records' :func:`entry_columns`.

    Decoding reproduces the records exactly (INV entries excepted: they are
    normalized to absent, matching query semantics).
    """
    if not isinstance(records, (list, tuple)):
        records = list(records)
    return encode_columns(len(records), entry_columns([r._entries for r in records]))


def encode_columns(
    nrows: int, columns: Sequence[tuple[str, np.ndarray, Sequence[Variant]]]
) -> bytes:
    """Encode ``nrows`` rows given as columns into the ``RCB1`` form.

    A column is ``(label, codes, values)``: codes index ``values`` (-1: the
    row has no value), whose entries are distinct by exact identity, as a
    :class:`_Dictionary` builds them; columns are listed in the order each
    row lists its labels.  A column whose present values share one
    numeric/bool type becomes a typed little-endian buffer (plus a packed
    null bitmap unless fully dense); any other — strings, USR blobs, mixed
    types, integers that overflow 64 bits — is dictionary-encoded with exact
    type fidelity: ``int 1`` and ``double 1.0`` (and ``0.0`` and ``-0.0``)
    stay distinct entries, so round trips preserve every value.

    The bytes depend only on what the rows hold: a column comes where the
    first row holding it lists it, and a dictionary lists the values in the
    order the rows first use them (unused values are left out).  The work
    is per distinct value, none per row in Python.
    """
    order = []
    for position, (label, codes, values) in enumerate(columns):
        idx = np.flatnonzero(codes >= 0)
        if len(idx):
            order.append((int(idx[0]), position, label, codes[idx], values, idx))
    order.sort(key=lambda column: column[:2])
    buffers = _BufferBuilder()
    col_meta: list[dict] = []
    for _first, _position, label, codes, values, idx in order:
        # the values in the order the rows first use them
        used, first = np.unique(codes, return_index=True)
        used = used[np.argsort(first, kind="stable")]
        renumber = np.zeros(len(values), dtype=np.int64)
        renumber[used] = np.arange(len(used))
        present = renumber[codes]
        used_values = [values[i] for i in used.tolist()]
        nulls = None
        if len(idx) < nrows:
            mask = np.zeros(nrows, dtype=bool)
            mask[idx] = True
            nulls = np.packbits(mask).tobytes()
        vtype = used_values[0].type
        if any(v.type is not vtype for v in used_values):
            vtype = None
        table = None
        if vtype in _NUM_DTYPE:
            try:
                table = np.array([v.value for v in used_values], dtype=_NUM_DTYPE[vtype])
            except (OverflowError, ValueError):  # an int outside 64 bits
                pass
        if table is not None:
            arr = np.zeros(nrows, dtype=table.dtype)
            arr[idx] = table[present]
            meta = {"name": label, "enc": "num", "t": _TYPE_TAG[vtype], "data": buffers.add(arr.tobytes())}
            if nulls is not None:
                meta["nulls"] = buffers.add(nulls)
        else:
            cdt = _min_code_dtype(len(used_values))
            all_codes = np.full(nrows, -1, dtype=cdt)
            all_codes[idx] = present
            tags, offsets, blob = _encode_dictionary(used_values)
            meta = {
                "name": label,
                "enc": "dict",
                "cdt": cdt,
                "codes": buffers.add(all_codes.tobytes()),
                "tags": buffers.add(tags),
                "offsets": buffers.add(offsets),
                "blob": buffers.add(blob),
            }
        col_meta.append(meta)
    header = json.dumps(
        {"rows": nrows, "cols": col_meta}, separators=(",", ":")
    ).encode("utf-8")
    pad = (-(len(BATCH_MAGIC) + 4 + len(header))) % 8
    out = bytearray()
    out += BATCH_MAGIC
    out += _U32.pack(len(header) + pad)
    out += header
    out += b"\x00" * pad
    for part in buffers.parts:
        out += part
    return bytes(out)


class _NumColumn:
    """A typed numeric/bool column: values array + presence mask (None=dense)."""

    __slots__ = ("vtype", "values", "mask")

    def __init__(self, vtype: ValueType, values: np.ndarray, mask: Optional[np.ndarray]):
        self.vtype = vtype
        self.values = values
        self.mask = mask


class _DictColumn:
    """A dictionary-encoded column: int64 codes (-1 missing) + value table."""

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: list[Variant]):
        self.codes = codes
        self.values = values


_Column = Union[_NumColumn, _DictColumn]


def _slice(payload: memoryview, span: object, what: str) -> memoryview:
    """Bounds-checked buffer slice from a header ``[offset, length]`` entry."""
    if (
        not isinstance(span, (list, tuple))
        or len(span) != 2
        or not all(isinstance(x, int) and x >= 0 for x in span)
    ):
        raise ColfileError(f"bad buffer reference for {what}")
    off, length = span
    if off + length > len(payload):
        raise ColfileError(
            f"{what} buffer [{off}, {off + length}) exceeds payload of {len(payload)} bytes"
        )
    return payload[off : off + length]


def _decode_mask(payload: memoryview, span: object, nrows: int) -> np.ndarray:
    raw = _slice(payload, span, "nulls")
    if len(raw) != (nrows + 7) // 8:
        raise ColfileError("null bitmap size does not match row count")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=nrows).astype(bool)


def decode_batch(
    buf: Union[bytes, memoryview], limits: Optional[DecodeLimits] = None
) -> tuple[int, dict[str, _Column]]:
    """Decode an ``RCB1`` batch into ``(nrows, columns)``.

    Numeric buffers come back as numpy views into ``buf`` (zero-copy);
    dictionary codes are widened to ``int64``.  All declared offsets, sizes,
    counts, and code ranges are validated against ``limits`` and the actual
    payload before anything is allocated.
    """
    limits = limits or _DEFAULT_LIMITS
    mv = memoryview(buf)
    if len(mv) < len(BATCH_MAGIC) + 4:
        raise ColfileError("truncated column batch")
    if bytes(mv[:4]) != BATCH_MAGIC:
        raise ColfileError("bad column batch magic")
    header_len = _U32.unpack(bytes(mv[4:8]))[0]
    if 8 + header_len > len(mv):
        raise ColfileError("column batch header exceeds payload")
    try:
        # the stored length includes alignment padding NULs after the JSON
        header = json.loads(bytes(mv[8 : 8 + header_len]).rstrip(b"\x00").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ColfileError(f"bad column batch header: {exc}") from None
    if not isinstance(header, dict):
        raise ColfileError("column batch header is not an object")
    nrows = header.get("rows")
    cols_meta = header.get("cols")
    if not isinstance(nrows, int) or nrows < 0 or not isinstance(cols_meta, list):
        raise ColfileError("column batch header missing rows/cols")
    if nrows > limits.max_rows:
        raise ColfileError(f"row count {nrows} exceeds limit {limits.max_rows}")
    if len(cols_meta) * max(nrows, 1) * 8 > limits.max_bytes:
        raise ColfileError("decoded batch would exceed the size limit")
    payload = mv[8 + header_len :]
    columns: dict[str, _Column] = {}
    for meta in cols_meta:
        if not isinstance(meta, dict) or not isinstance(meta.get("name"), str):
            raise ColfileError("bad column metadata")
        label = meta["name"]
        if label in columns:
            raise ColfileError(f"duplicate column {label!r}")
        enc = meta.get("enc")
        if enc == "num":
            tag = meta.get("t")
            vtype = _TAG_TYPE.get(tag) if isinstance(tag, int) else None
            dtype = _NUM_DTYPE.get(vtype) if vtype is not None else None
            if dtype is None:
                raise ColfileError(f"bad numeric column type for {label!r}")
            raw = _slice(payload, meta.get("data"), label)
            if len(raw) != nrows * np.dtype(dtype).itemsize:
                raise ColfileError(f"column {label!r} data does not match row count")
            arr = np.frombuffer(raw, dtype=dtype)
            mask = (
                _decode_mask(payload, meta["nulls"], nrows)
                if "nulls" in meta
                else None
            )
            columns[label] = _NumColumn(vtype, arr, mask)
        elif enc == "dict":
            cdt = meta.get("cdt")
            if cdt not in _CODE_DTYPES:
                raise ColfileError(f"bad code dtype for {label!r}")
            raw = _slice(payload, meta.get("codes"), label)
            if len(raw) != nrows * np.dtype(cdt).itemsize:
                raise ColfileError(f"column {label!r} codes do not match row count")
            codes = np.frombuffer(raw, dtype=cdt)
            tags_raw = _slice(payload, meta.get("tags"), f"{label} tags")
            ndict = len(tags_raw)
            if ndict > limits.max_dict:
                raise ColfileError(
                    f"dictionary of {ndict} entries exceeds limit {limits.max_dict}"
                )
            offs_raw = _slice(payload, meta.get("offsets"), f"{label} offsets")
            if len(offs_raw) != 4 * (ndict + 1):
                raise ColfileError(f"column {label!r} offsets do not match dictionary")
            offsets = np.frombuffer(offs_raw, dtype="<u4")
            blob = _slice(payload, meta.get("blob"), f"{label} blob")
            if ndict and (
                np.any(np.diff(offsets.astype(np.int64)) < 0)
                or int(offsets[-1]) > len(blob)
                or int(offsets[0]) != 0
            ):
                raise ColfileError(f"column {label!r} dictionary offsets are invalid")
            codes = codes.astype(np.int64)
            if nrows and (int(codes.max()) >= ndict or int(codes.min()) < -1):
                raise ColfileError(f"column {label!r} codes out of dictionary range")
            tags = np.frombuffer(tags_raw, dtype=np.uint8)
            columns[label] = _DictColumn(codes, _decode_dictionary(tags, offsets, blob))
        else:
            raise ColfileError(f"unknown column encoding {enc!r}")
    return nrows, columns


# ---------------------------------------------------------------------------
# the column store


class ColumnStore:
    """Rows held as columns: the one store every vectorized query path reads.

    Built from decoded column buffers (an ``.rcf`` chunk, a wire batch,
    :func:`merge_stores`), or with :meth:`from_records`, whose dictionary
    columns are built one label at a time on first use.  :meth:`interned`
    and :meth:`numeric` read any column as codes or as float64 values,
    cached; a typed column answers :meth:`numeric` with views and is
    interned only when a query groups or filters on it.  Records exist only
    for a records-built store or once something row-oriented asks.
    Instances are immutable snapshots: :class:`~repro.io.dataset.Dataset`
    drops its cached store when the record list changes.
    """

    def __init__(self, nrows: int, columns: dict[str, _Column]) -> None:
        self._n = nrows
        self._columns = columns
        self._records: Optional[list[Record]] = None
        #: a records-built store whose columns are not all built yet
        self._partial = False
        self._interned: dict[str, tuple[np.ndarray, list[Variant]]] = {}
        self._numeric: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "ColumnStore":
        """A store over ``records`` (kept, not copied, when a list)."""
        records = records if isinstance(records, list) else list(records)
        store = cls(len(records), {})
        store._records, store._partial = records, True
        return store

    @classmethod
    def from_codes(
        cls, nrows: int, columns: dict[str, tuple[np.ndarray, list[Variant]]]
    ) -> "ColumnStore":
        """A store of dictionary columns, ``label -> (codes, values)``."""
        return cls(nrows, {label: _DictColumn(c, v) for label, (c, v) in columns.items()})

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> list[Record]:
        if self._records is None:
            self._records = records_from_store(self)
        return self._records

    @property
    def columns(self) -> dict[str, _Column]:
        if self._partial:
            records = self._records or ()
            for label in dict.fromkeys(chain.from_iterable(r._entries for r in records)):
                self._column(label)
            self._partial = False
        return self._columns

    def _column(self, label: str) -> Optional[_Column]:
        col = self._columns.get(label)
        if col is None and self._partial:
            dictionary = _Dictionary()
            codes = dictionary.encode([r._entries.get(label) for r in self._records or ()])
            if dictionary.values:  # else no record has a value for it
                col = self._columns[label] = _DictColumn(
                    np.array(codes, dtype=np.int64), dictionary.values
                )
        return col

    def labels(self) -> list[str]:
        return sorted(self.columns)

    def present(self, label: str) -> Optional[np.ndarray]:
        """Which rows hold a value for ``label``; ``None`` when none can."""
        col = self._column(label)
        if col is None:
            return None
        if isinstance(col, _DictColumn):
            return col.codes >= 0
        return np.ones(self._n, dtype=bool) if col.mask is None else col.mask

    def interned(self, label: str) -> tuple[np.ndarray, list[Variant]]:
        """``(codes, values)`` for one attribute: codes index into ``values``,
        -1 marks rows without it.  A dictionary column as it is (first-seen
        order when records-built); a typed one via :func:`_intern_num_column`."""
        cached = self._interned.get(label)
        if cached is not None:
            observe.count("columnstore.intern", result="hit", label=label)
            return cached
        observe.count("columnstore.intern", result="miss", label=label)
        col = self._column(label)
        if col is None:
            cached = (np.full(self._n, -1, dtype=np.int64), [])
        elif isinstance(col, _DictColumn):
            cached = (col.codes, col.values)
        else:
            cached = _intern_num_column(col, self._n)
        self._interned[label] = cached
        return cached

    def numeric(
        self, label: str, include_bool: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(values, mask)`` float64/bool arrays for one attribute.

        ``mask`` is True exactly where the streaming kernels would fold the
        value (see :func:`repro.aggregate.ops.numeric_or_none`); ``values``
        is 0.0 elsewhere.  A typed column answers with a view; any other is
        read per distinct value and broadcast through its codes.
        """
        key = (label, include_bool)
        cached = self._numeric.get(key)
        if cached is not None:
            return cached
        col = self._column(label)
        if isinstance(col, _NumColumn) and (include_bool or col.vtype is not ValueType.BOOL):
            values = col.values if col.values.dtype == np.float64 else col.values.astype(np.float64)
            # the contract says values are 0.0 where the mask is False; the
            # writer zero-fills missing slots, so the view stays zero-copy
            cached = (values, np.ones(self._n, dtype=bool) if col.mask is None else col.mask)
        else:
            from ..aggregate.ops import numeric_or_none  # deferred: aggregate sits above io

            codes, values = self.interned(label)
            # Slot 0 stands for "missing" (code -1); distinct value i maps to i+1.
            table = np.zeros(len(values) + 1, dtype=np.float64)
            ok = np.zeros(len(values) + 1, dtype=bool)
            for i, v in enumerate(values):
                x = numeric_or_none(v, include_bool)
                if x is not None:
                    table[i + 1] = x
                    ok[i + 1] = True
            cached = (table[codes + 1], ok[codes + 1])
        self._numeric[key] = cached
        return cached

    def with_constants(self, entries: dict[str, Variant]) -> "ColumnStore":
        """This store with every entry as a constant column on all rows.

        How a file's globals are folded into its rows without leaving the
        column form: an entry replaces a same-named column, exactly as
        :meth:`Record.with_entries` overrides a same-named attribute.
        """
        if not entries:
            return self
        columns = dict(self.columns)
        present = np.zeros(self._n, dtype=np.int64)  # code 0 on every row; shared
        for label, value in entries.items():
            if value.is_empty:  # an empty global hides the column, as in a Record
                columns[label] = _DictColumn(np.full(self._n, -1, dtype=np.int64), [])
            else:
                columns[label] = _DictColumn(present, [value])
        return ColumnStore(self._n, columns)

    def with_doubles(
        self, columns: dict[str, np.ndarray], present: Optional[np.ndarray] = None
    ) -> "ColumnStore":
        """This store with ``float64`` columns added, each replacing a
        same-named column as :meth:`Record.with_entries` would; ``present``
        masks the rows that have them (``None``: every row; the values are
        0.0 elsewhere).  The other columns are shared, not copied."""
        merged = dict(self.columns)
        for label, values in columns.items():
            merged[label] = _NumColumn(ValueType.DOUBLE, values, present)
        return ColumnStore(self._n, merged)

    def take(self, rows: np.ndarray) -> "ColumnStore":
        """The store of ``rows`` of this one, in that order; a row may repeat."""
        columns: dict[str, _Column] = {}
        for label, col in self.columns.items():
            if isinstance(col, _DictColumn):
                columns[label] = _DictColumn(col.codes[rows], col.values)
            else:
                mask = None if col.mask is None else col.mask[rows]
                columns[label] = _NumColumn(col.vtype, col.values[rows], mask)
        return ColumnStore(len(rows), columns)


#: the low 63 bits of an int64: flipping them turns float64 bit patterns
#: into IEEE 754 totalOrder keys (and the keys back into bit patterns)
_LOW63 = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _total_order(bits: np.ndarray) -> np.ndarray:
    return bits ^ ((bits >> 63) & _LOW63)


def _intern_num_column(
    col: _NumColumn, nrows: int
) -> tuple[np.ndarray, list[Variant]]:
    """Interned view of a typed column, vectorized: one ``np.unique``.

    Identity is the dictionary builder's (:class:`_Dictionary`): doubles are
    told apart by bit pattern, so ``0.0`` and ``-0.0`` — equal to
    ``np.unique`` — are two entries, and so are NaNs with different payloads.
    Distinct values come out sorted rather than first-seen (doubles in IEEE
    754 totalOrder: ``-0.0`` just before ``0.0``, NaNs at the ends); the
    order only numbers the groups of an un-ORDERed query, and avoids a
    per-row Python loop.
    """
    present = col.values if col.mask is None else col.values[col.mask]
    vtype = col.vtype
    if vtype is ValueType.DOUBLE:
        keys, inv = np.unique(_total_order(present.view(np.int64)), return_inverse=True)
        uniq = _total_order(keys).view(np.float64)
    else:
        uniq, inv = np.unique(present, return_inverse=True)
    if col.mask is None:
        codes = inv.astype(np.int64)
    else:
        codes = np.full(nrows, -1, dtype=np.int64)
        codes[col.mask] = inv
    if vtype is ValueType.BOOL:
        values = [Variant(vtype, bool(x)) for x in uniq.tolist()]
    elif vtype is ValueType.DOUBLE:
        values = [Variant(vtype, x) for x in uniq.tolist()]
    else:
        values = [Variant(vtype, int(x)) for x in uniq.tolist()]
    return codes, values


def records_from_store(store: ColumnStore, rows: Optional[np.ndarray] = None) -> list[Record]:
    """Materialize plain :class:`Record` rows from a columnar store: every
    row, or just ``rows`` of it (in that order)."""
    nrows = len(store) if rows is None else len(rows)
    out: list[dict[str, Variant]] = [{} for _ in range(nrows)]
    for label, col in store.columns.items():
        if isinstance(col, _DictColumn):
            values = col.values
            codes = col.codes if rows is None else col.codes[rows]
            for i in np.nonzero(codes >= 0)[0].tolist():
                out[i][label] = values[codes[i]]
        else:
            vtype = col.vtype
            vals, mask = col.values, col.mask
            if rows is not None:
                vals, mask = vals[rows], None if mask is None else mask[rows]
            vals = vals.tolist()
            idx: Iterable[int] = range(nrows) if mask is None else np.nonzero(mask)[0].tolist()
            if vtype is ValueType.BOOL:
                for i in idx:
                    out[i][label] = Variant(vtype, bool(vals[i]))
            else:
                for i in idx:
                    out[i][label] = Variant(vtype, vals[i])
    return [Record.from_variants(r) for r in out]


def decode_batch_store(
    buf: Union[bytes, memoryview], limits: Optional[DecodeLimits] = None
) -> ColumnStore:
    """Decode a batch straight into a query-ready :class:`ColumnStore`."""
    nrows, columns = decode_batch(buf, limits)
    return ColumnStore(nrows, columns)


def merge_stores(stores: Sequence[ColumnStore]) -> ColumnStore:
    """One store over the concatenation of several chunk stores.

    Columns that keep one typed encoding across chunks concatenate
    directly; mixed or dictionary columns merge through one shared
    :class:`_Dictionary`, each chunk's codes remapped through it.  A single
    chunk passes through untouched (fully zero-copy).
    """
    if len(stores) == 1:
        return stores[0]
    total = sum(len(s) for s in stores)
    labels: list[str] = []
    for s in stores:
        for label in s.columns:
            if label not in labels:
                labels.append(label)
    merged: dict[str, _Column] = {}
    for label in labels:
        cols = [s.columns.get(label) for s in stores]
        vtypes = {c.vtype for c in cols if isinstance(c, _NumColumn)}
        if (
            len(vtypes) == 1
            and all(c is None or isinstance(c, _NumColumn) for c in cols)
        ):
            vtype = next(iter(vtypes))
            dtype = _NUM_DTYPE[vtype]
            parts, masks = [], []
            dense = all(c is not None and c.mask is None for c in cols)
            for c, s in zip(cols, stores):
                n = len(s)
                if c is None:
                    parts.append(np.zeros(n, dtype=dtype))
                    masks.append(np.zeros(n, dtype=bool))
                else:
                    parts.append(c.values)
                    masks.append(
                        np.ones(n, dtype=bool) if c.mask is None else c.mask
                    )
            merged[label] = _NumColumn(
                vtype,
                np.concatenate(parts),
                None if dense else np.concatenate(masks),
            )
            continue
        dictionary = _Dictionary()
        parts = []
        for s in stores:
            codes, vals = s.interned(label)
            lookup = np.array([-1, *dictionary.encode(vals)], dtype=np.int64)
            parts.append(lookup[codes + 1])
        merged[label] = _DictColumn(np.concatenate(parts), dictionary.values)
    return ColumnStore(total, merged)


# ---------------------------------------------------------------------------
# file layout


def _globals_to_jsonable(globals_: Optional[dict[str, Variant]]) -> dict:
    out = {}
    for label, v in (globals_ or {}).items():
        if not isinstance(v, Variant):
            v = Variant.of(v)
        out[label] = [v.type.value, v.value]
    return out


def _globals_from_jsonable(obj: object) -> dict[str, Variant]:
    if not isinstance(obj, dict):
        raise ColfileError("bad globals block in footer")
    out: dict[str, Variant] = {}
    for label, pair in obj.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ColfileError(f"bad global entry {label!r}")
        try:
            out[label] = Variant(ValueType(pair[0]), pair[1])
        except (ValueError, TypeError) as exc:
            raise ColfileError(f"bad global entry {label!r}: {exc}") from None
    return out


class ColfileWriter:
    """Streaming ``.rcf`` writer: header, then chunks, then footer directory.

    The footer lives at the *end* of the file so chunks can stream out as
    they are produced (the flush spool and ``convert`` never buffer the
    whole dataset).  Usable as a context manager.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        globals_: Optional[dict[str, Variant]] = None,
    ) -> None:
        self.path = os.fspath(path)
        self._stream = open(self.path, "wb")
        self._stream.write(_FILE_HEADER.pack(FILE_MAGIC, FILE_VERSION, 0))
        self._pos = _FILE_HEADER.size
        self._chunks: list[dict] = []
        self._globals = dict(globals_ or {})
        self._closed = False

    def write_chunk(self, records: Sequence[Record]) -> int:
        """Append one column-batch chunk; returns its encoded size."""
        if not isinstance(records, (list, tuple)):
            records = list(records)
        batch = encode_batch(records)
        self._chunks.append(
            {"offset": self._pos, "length": len(batch), "rows": len(records)}
        )
        self._stream.write(batch)
        self._pos += len(batch)
        return len(batch)

    def write_records(self, records: Iterable[Record], chunk_rows: int = 0) -> int:
        """Write records in fixed-size chunks; returns the record count."""
        chunk_rows = chunk_rows or DEFAULT_CHUNK_ROWS
        buf: list[Record] = []
        total = 0
        for record in records:
            buf.append(record)
            if len(buf) >= chunk_rows:
                total += len(buf)
                self.write_chunk(buf)
                buf = []
        if buf:
            total += len(buf)
            self.write_chunk(buf)
        return total

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        footer = json.dumps(
            {
                "version": FILE_VERSION,
                "rows": sum(c["rows"] for c in self._chunks),
                "globals": _globals_to_jsonable(self._globals),
                "chunks": self._chunks,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._stream.write(footer)
        self._stream.write(_FILE_FOOTER.pack(len(footer), FOOT_MAGIC))
        self._stream.close()

    def __enter__(self) -> "ColfileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ColfileReader:
    """``mmap``-backed ``.rcf`` reader.

    The file is mapped read-only; chunk decoding produces numpy views into
    the mapping, so opening a dataset is O(footer) regardless of size, and
    the OS pages column data in on demand.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        limits: Optional[DecodeLimits] = None,
    ) -> None:
        self.path = os.fspath(path)
        self._limits = limits or _DEFAULT_LIMITS
        with open(self.path, "rb") as stream:
            size = os.fstat(stream.fileno()).st_size
            if size < _FILE_HEADER.size + _FILE_FOOTER.size:
                raise ColfileError(f"{self.path}: too short to be a .rcf file")
            self._map: Union[mmap.mmap, bytes]
            try:
                self._map = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                self._map = stream.read()  # e.g. empty or unmappable file
        data = memoryview(self._map)
        magic, version, _flags = _FILE_HEADER.unpack(bytes(data[: _FILE_HEADER.size]))
        if magic != FILE_MAGIC:
            raise ColfileError(f"{self.path}: not a .rcf file (bad magic)")
        if version > FILE_VERSION:
            raise ColfileError(
                f"{self.path}: format version {version} is newer than supported "
                f"({FILE_VERSION})"
            )
        foot_len, foot_magic = _FILE_FOOTER.unpack(
            bytes(data[size - _FILE_FOOTER.size :])
        )
        if foot_magic != FOOT_MAGIC:
            raise ColfileError(f"{self.path}: missing footer (truncated file?)")
        foot_start = size - _FILE_FOOTER.size - foot_len
        if foot_start < _FILE_HEADER.size:
            raise ColfileError(f"{self.path}: footer length is invalid")
        try:
            footer = json.loads(bytes(data[foot_start : foot_start + foot_len]))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ColfileError(f"{self.path}: bad footer: {exc}") from None
        chunks = footer.get("chunks")
        if not isinstance(chunks, list):
            raise ColfileError(f"{self.path}: footer missing chunk directory")
        for c in chunks:
            if (
                not isinstance(c, dict)
                or not all(
                    isinstance(c.get(k), int) and c.get(k) >= 0
                    for k in ("offset", "length", "rows")
                )
                or c["offset"] + c["length"] > foot_start
            ):
                raise ColfileError(f"{self.path}: bad chunk directory entry")
        self._data = data
        self.chunks: list[dict] = chunks
        self.num_records: int = int(footer.get("rows", 0))
        self.globals: dict[str, Variant] = _globals_from_jsonable(
            footer.get("globals", {})
        )
        self._store: Optional[ColumnStore] = None

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def chunk_bytes(self, index: int) -> memoryview:
        """One chunk's undecoded ``RCB1`` bytes — exactly ``encode_batch``
        output, so a spooled chunk ships as a wire section without a decode."""
        c = self.chunks[index]
        return self._data[c["offset"] : c["offset"] + c["length"]]

    def chunk_store(self, index: int) -> ColumnStore:
        """Decode one chunk into a query-ready store (numpy views)."""
        c = self.chunks[index]
        store = decode_batch_store(self.chunk_bytes(index), self._limits)
        if len(store) != c["rows"]:
            raise ColfileError(
                f"{self.path}: chunk {index} row count does not match directory"
            )
        return store

    def iter_stores(self) -> Iterator[ColumnStore]:
        for i in range(len(self.chunks)):
            yield self.chunk_store(i)

    def store(self) -> ColumnStore:
        """One store over the whole file (chunks merged; cached)."""
        if self._store is None:
            if not self.chunks:
                self._store = ColumnStore(0, {})
            else:
                self._store = merge_stores([self.chunk_store(i) for i in range(len(self.chunks))])
        return self._store

    def records(self) -> list[Record]:
        return self.store().records

    def close(self) -> None:
        # Views handed out keep the mapping alive through the buffer
        # protocol; closing here is best-effort for prompt cleanup.
        try:
            self._data.release()
            if isinstance(self._map, mmap.mmap):
                self._map.close()
        except (BufferError, ValueError):
            pass

    def __enter__(self) -> "ColfileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_colfile(
    path: Union[str, os.PathLike],
    records: Iterable[Record],
    globals_: Optional[dict[str, Variant]] = None,
    chunk_rows: int = 0,
) -> int:
    """Write records (and globals) to a ``.rcf`` file; returns the count."""
    with ColfileWriter(path, globals_=globals_) as writer:
        return writer.write_records(records, chunk_rows=chunk_rows)


def read_colfile(
    path: Union[str, os.PathLike]
) -> tuple[list[Record], dict[str, Variant]]:
    """Read a ``.rcf`` file fully into records + globals."""
    reader = ColfileReader(path)
    try:
        return reader.records(), dict(reader.globals)
    finally:
        reader.close()


# ---------------------------------------------------------------------------
# generic value packing (operator state cells)

_VT_NONE, _VT_FALSE, _VT_TRUE, _VT_INT, _VT_FLOAT, _VT_STR, _VT_LIST, _VT_VARIANT = (
    range(8)
)
_MAX_DEPTH = 32


def _write_varint(out: bytearray, n: int) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(mv: memoryview, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    end = len(mv)
    while True:
        if pos >= end:
            raise ColfileError("truncated varint")
        b = mv[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 10_000:  # arbitrary-precision ints are fine, gigabit ints not
            raise ColfileError("varint too long")


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if -(2**62) <= n < 2**62 else (
        n << 1 if n >= 0 else ((-n) << 1) - 1
    )


def _unzigzag(n: int) -> int:
    return (n >> 1) if not n & 1 else -((n + 1) >> 1)


def pack_value(obj: object, out: Optional[bytearray] = None) -> bytearray:
    """Append one state cell (None/bool/int/float/str/list/Variant) to ``out``."""
    if out is None:
        out = bytearray()
    if obj is None:
        out.append(_VT_NONE)
    elif obj is False:
        out.append(_VT_FALSE)
    elif obj is True:
        out.append(_VT_TRUE)
    elif isinstance(obj, int):
        out.append(_VT_INT)
        _write_varint(out, _zigzag(obj))
    elif isinstance(obj, float):
        out.append(_VT_FLOAT)
        out += _F64.pack(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_VT_STR)
        _write_varint(out, len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out.append(_VT_LIST)
        _write_varint(out, len(obj))
        for item in obj:
            pack_value(item, out)
    elif isinstance(obj, Variant):
        out.append(_VT_VARIANT)
        out.append(_TYPE_TAG[obj.type])
        t = obj.type
        if t in (ValueType.INT, ValueType.UINT):
            _write_varint(out, _zigzag(obj.value))
        elif t is ValueType.DOUBLE:
            out += _F64.pack(obj.value)
        elif t is ValueType.BOOL:
            out.append(1 if obj.value else 0)
        elif t in (ValueType.STRING, ValueType.USR):
            raw = obj.to_string().encode("utf-8")
            _write_varint(out, len(raw))
            out += raw
        # INV: tag alone
    else:
        raise ColfileError(f"cannot pack value of type {type(obj).__name__}")
    return out


def unpack_value(
    mv: memoryview, pos: int = 0, depth: int = 0
) -> tuple[object, int]:
    """Decode one packed cell at ``pos``; returns ``(value, new position)``."""
    if depth > _MAX_DEPTH:
        raise ColfileError("packed value nests too deeply")
    if pos >= len(mv):
        raise ColfileError("truncated packed value")
    tag = mv[pos]
    pos += 1
    if tag == _VT_NONE:
        return None, pos
    if tag == _VT_FALSE:
        return False, pos
    if tag == _VT_TRUE:
        return True, pos
    if tag == _VT_INT:
        n, pos = _read_varint(mv, pos)
        return _unzigzag(n), pos
    if tag == _VT_FLOAT:
        if pos + 8 > len(mv):
            raise ColfileError("truncated packed float")
        return _F64.unpack(bytes(mv[pos : pos + 8]))[0], pos + 8
    if tag == _VT_STR:
        n, pos = _read_varint(mv, pos)
        if pos + n > len(mv):
            raise ColfileError("truncated packed string")
        try:
            return bytes(mv[pos : pos + n]).decode("utf-8"), pos + n
        except UnicodeDecodeError as exc:
            raise ColfileError(f"bad packed string: {exc}") from None
    if tag == _VT_LIST:
        n, pos = _read_varint(mv, pos)
        if n > len(mv) - pos:  # every element takes >= 1 byte
            raise ColfileError("packed list length exceeds payload")
        items = []
        for _ in range(n):
            item, pos = unpack_value(mv, pos, depth + 1)
            items.append(item)
        return items, pos
    if tag == _VT_VARIANT:
        if pos >= len(mv):
            raise ColfileError("truncated packed variant")
        vtag = mv[pos]
        pos += 1
        vtype = _TAG_TYPE.get(vtag)
        if vtype is None:
            raise ColfileError(f"unknown packed variant tag {vtag}")
        if vtype is ValueType.INV:
            from ..common.variant import EMPTY_VARIANT

            return EMPTY_VARIANT, pos
        if vtype in (ValueType.INT, ValueType.UINT):
            n, pos = _read_varint(mv, pos)
            return Variant(vtype, _unzigzag(n)), pos
        if vtype is ValueType.DOUBLE:
            if pos + 8 > len(mv):
                raise ColfileError("truncated packed variant")
            return Variant(vtype, _F64.unpack(bytes(mv[pos : pos + 8]))[0]), pos + 8
        if vtype is ValueType.BOOL:
            if pos >= len(mv):
                raise ColfileError("truncated packed variant")
            return Variant(vtype, mv[pos] != 0), pos + 1
        n, pos = _read_varint(mv, pos)
        if pos + n > len(mv):
            raise ColfileError("truncated packed variant string")
        text = bytes(mv[pos : pos + n]).decode("utf-8", errors="strict")
        return Variant(vtype, text), pos + n
    raise ColfileError(f"unknown packed value tag {tag}")


# ---------------------------------------------------------------------------
# operator-state batches (STATES / FORWARD sections, flushed snapshots)
#
# One codec for both callers: a state table hands over its columns, and the
# list-form wrappers (states_to_binary / states_from_binary) convert exported
# ``(entries, states)`` groups to and from the same *slots*.  A slot is one
# state cell across every group:
#
#   ("i", int64 values, presence mask or None)   zigzag varints
#   ("f", float64 values, presence mask or None) raw float64
#   ("o", list of Python cells)                  classified cell by cell

_SLOT_INT, _SLOT_FLOAT, _SLOT_GENERIC = 0, 1, 2
_MODE_COLUMNAR, _MODE_GENERIC = 0, 1
_SLOT_LETTER = {_SLOT_INT: "i", _SLOT_FLOAT: "f"}

#: the shift of each of a 64-bit varint's (at most) ten 7-bit groups
_SHIFTS = np.arange(10, dtype=np.uint64) * np.uint64(7)
_GROUP = np.arange(10)


def _varints(values: np.ndarray) -> bytes:
    """What ``_write_varint(out, _zigzag(x))`` appends for each int64 of
    ``values`` in turn, vectorized."""
    if not len(values):
        return b""
    x = values.astype(np.int64, copy=False)
    zigzag = (x.view(np.uint64) << np.uint64(1)) ^ (x >> 63).view(np.uint64)
    length = 1 + np.count_nonzero(zigzag[:, None] >> _SHIFTS[1:], axis=1)
    groups = ((zigzag[:, None] >> _SHIFTS) & np.uint64(0x7F)).astype(np.uint8)
    groups[_GROUP < (length - 1)[:, None]] |= 0x80
    return groups[_GROUP < length[:, None]].tobytes()


def _read_varints(seg: memoryview, count: int) -> np.ndarray:
    """Exactly ``count`` zigzag varints filling ``seg``, as int64; one
    outside 64 bits is an error."""
    raw = np.frombuffer(seg, dtype=np.uint8)
    ends = np.flatnonzero(raw < 0x80)
    if len(ends) != count or (len(raw) and (not count or ends[-1] != len(raw) - 1)):
        raise ColfileError("bad int state slot size")
    if not count:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if lengths.max() > 10 or raw[ends[lengths == 10]].max(initial=0) > 1:
        raise ColfileError("int state cell outside 64 bits")
    position = (np.arange(len(raw)) - np.repeat(starts, lengths)).astype(np.uint64)
    parts = (raw & 0x7F).astype(np.uint64) << (position * np.uint64(7))
    zigzag = np.bitwise_or.reduceat(parts, starts)
    return (zigzag >> np.uint64(1)).view(np.int64) ^ -(zigzag & np.uint64(1)).view(np.int64)


def _classify_slot(cells: list[object]) -> int:
    has_int = has_float = False
    for x in cells:
        if x is None:
            continue
        if type(x) is int:
            has_int = True
        elif type(x) is float:
            has_float = True
        else:
            return _SLOT_GENERIC
    if has_int and has_float:
        return _SLOT_GENERIC
    return _SLOT_FLOAT if has_float else _SLOT_INT


def _typed_slot(cells: list[object], kind: int) -> Optional[tuple]:
    """A list slot of ints or floats (``None`` = absent) as its typed slot;
    ``None`` for an int outside 64 bits."""
    mask = np.array([c is not None for c in cells], dtype=bool)
    present = [c for c in cells if c is not None]
    dtype = np.float64 if kind == _SLOT_FLOAT else np.int64
    values = np.zeros(len(cells), dtype=dtype)
    try:
        values[mask] = present
    except OverflowError:
        return None
    return (_SLOT_LETTER[kind], values, mask)


def _encode_slot(slot: tuple) -> tuple[int, bytes]:
    """``(kind, bytes)`` of one slot: a list slot is classified cell by cell,
    and one whose cells are all ints or all floats is written like the typed
    slot it then is; a typed slot with no cell present is an empty int slot."""
    if slot[0] == "o":
        cells = slot[1]
        kind = _classify_slot(cells)
        typed = None if kind == _SLOT_GENERIC else _typed_slot(cells, kind)
        if typed is None:
            return _SLOT_GENERIC, bytes(pack_value(list(cells)))
        slot = typed
    letter, values, mask = slot
    if mask is None:
        mask = np.ones(len(values), dtype=bool)
    else:
        values = values[mask]
    out = np.packbits(mask).tobytes()
    if letter == "f" and len(values):
        return _SLOT_FLOAT, out + values.astype("<f8", copy=False).tobytes()
    return _SLOT_INT, out + _varints(values)


def _decode_slot(seg: memoryview, kind: int, n: int) -> tuple:
    if kind == _SLOT_GENERIC:
        value, pos = unpack_value(seg, 0)
        if pos != len(seg) or not isinstance(value, list) or len(value) != n:
            raise ColfileError("bad generic state slot")
        return ("o", value)
    nbytes = (n + 7) // 8
    if len(seg) < nbytes:
        raise ColfileError("truncated state slot bitmap")
    mask = np.unpackbits(np.frombuffer(seg[:nbytes], dtype=np.uint8), count=n).astype(bool)
    npresent = int(mask.sum())
    if kind == _SLOT_FLOAT:
        if len(seg) != nbytes + 8 * npresent:
            raise ColfileError("bad float state slot size")
        values = np.zeros(n, dtype=np.float64)
        values[mask] = np.frombuffer(seg[nbytes:], dtype="<f8")
    else:
        values = np.zeros(n, dtype=np.int64)
        values[mask] = _read_varints(seg[nbytes:], npresent)
    return (_SLOT_LETTER[kind], values, None if npresent == n else mask)


def slot_cells(slot: tuple) -> list[object]:
    """A slot's cells as Python values, ``None`` where absent."""
    if slot[0] == "o":
        return slot[1]
    _letter, values, mask = slot
    cells = values.tolist()
    if mask is not None:
        for i in np.flatnonzero(~mask).tolist():
            cells[i] = None
    return cells


def encode_states(
    nrows: int,
    keys: Sequence[tuple[str, np.ndarray, Sequence[Variant]]],
    ops: Sequence[Sequence[tuple]],
) -> bytes:
    """The ``RSB1`` batch of ``nrows`` groups: ``keys`` as for
    :func:`encode_columns`, then each operator's slots in order."""
    out = bytearray(STATES_MAGIC)
    out.append(_MODE_COLUMNAR)
    entries_batch = encode_columns(nrows, keys)
    out += _U32.pack(len(entries_batch))
    out += entries_batch
    ops = ops if nrows else []
    out += _U32.pack(len(ops))
    for slots in ops:
        out += _U32.pack(len(slots))
        for slot in slots:
            kind, seg = _encode_slot(slot)
            out.append(kind)
            out += _U32.pack(len(seg))
            out += seg
    return bytes(out)


def decode_states(
    buf: Union[bytes, memoryview], limits: Optional[DecodeLimits] = None
) -> tuple[ColumnStore, Optional[list[list[tuple]]], Optional[list]]:
    """Decode an ``RSB1`` batch (defensively validated) into ``(key store,
    slots per operator, None)`` — or, for a batch whose groups have
    different state widths, ``(key store, None, each group's states)``."""
    limits = limits or _DEFAULT_LIMITS
    mv = memoryview(buf)
    if len(mv) < len(STATES_MAGIC) + 1 + 4:
        raise ColfileError("truncated state batch")
    if bytes(mv[:4]) != STATES_MAGIC:
        raise ColfileError("bad state batch magic")
    mode = mv[4]
    entries_len = _U32.unpack(bytes(mv[5:9]))[0]
    if 9 + entries_len > len(mv):
        raise ColfileError("state batch key section exceeds payload")
    nrows, columns = decode_batch(mv[9 : 9 + entries_len], limits)
    key_store = ColumnStore(nrows, columns)
    pos = 9 + entries_len
    if mode == _MODE_GENERIC:
        value, end = unpack_value(mv, pos)
        if end != len(mv) or not isinstance(value, list) or len(value) != nrows:
            raise ColfileError("bad generic state batch")
        return key_store, None, value
    if mode != _MODE_COLUMNAR:
        raise ColfileError(f"unknown state batch mode {mode}")
    if pos + 4 > len(mv):
        raise ColfileError("truncated state batch")
    n_ops = _U32.unpack(bytes(mv[pos : pos + 4]))[0]
    pos += 4
    if n_ops > 4096:
        raise ColfileError("implausible operator count in state batch")
    ops: list[list[tuple]] = []
    for _op in range(n_ops):
        if pos + 4 > len(mv):
            raise ColfileError("truncated state batch")
        width = _U32.unpack(bytes(mv[pos : pos + 4]))[0]
        pos += 4
        if width > 4096:
            raise ColfileError("implausible state width in state batch")
        slots: list[tuple] = []
        for _slot in range(width):
            if pos + 5 > len(mv):
                raise ColfileError("truncated state batch")
            kind = mv[pos]
            seg_len = _U32.unpack(bytes(mv[pos + 1 : pos + 5]))[0]
            pos += 5
            if kind not in (_SLOT_INT, _SLOT_FLOAT, _SLOT_GENERIC):
                raise ColfileError(f"unknown state slot kind {kind}")
            if pos + seg_len > len(mv):
                raise ColfileError("state slot exceeds payload")
            slots.append(_decode_slot(mv[pos : pos + seg_len], kind, nrows))
            pos += seg_len
        ops.append(slots)
    if pos != len(mv):
        raise ColfileError("trailing bytes after state batch")
    return key_store, ops, None


def states_to_binary(
    groups: Sequence[tuple[dict[str, Variant], list[list]]]
) -> bytes:
    """Encode exported operator states (``AggregationDB.export_states``).

    The list form of :func:`encode_states`: group-key entries ride as a
    column batch; state cells are laid out column-by-column per
    ``(operator, slot)`` — presence bitmap + zigzag varints for integer
    slots, bitmap + raw float64 for float slots, the generic packed codec
    for everything else (an int outside 64 bits included).  Falls back to a
    fully generic layout when operator widths differ between groups (a
    malformed but representable input).
    """
    groups = list(groups)
    n = len(groups)
    keys = entry_columns([entries for entries, _ in groups])
    widths = [len(s) for s in groups[0][1]] if n else []
    if any(
        len(states) != len(widths) or any(len(s) != w for s, w in zip(states, widths))
        for _, states in groups
    ):
        out = bytearray(STATES_MAGIC)
        out.append(_MODE_GENERIC)
        entries_batch = encode_columns(n, keys)
        out += _U32.pack(len(entries_batch))
        out += entries_batch
        out += pack_value([states for _, states in groups])
        return bytes(out)
    ops = [
        [("o", [states[i][j] for _, states in groups]) for j in range(width)]
        for i, width in enumerate(widths)
    ]
    return encode_states(n, keys, ops)


def states_from_binary(
    buf: Union[bytes, memoryview], limits: Optional[DecodeLimits] = None
) -> list[tuple[dict[str, Variant], list[list]]]:
    """Decode :func:`states_to_binary` output: :func:`decode_states` in
    list form."""
    key_store, ops, generic = decode_states(buf, limits)
    entries = [dict(r._entries) for r in key_store.records]
    if generic is not None:
        return [
            (e, [list(s) if isinstance(s, list) else [s] for s in states])
            for e, states in zip(entries, generic)
        ]
    cells = [[slot_cells(slot) for slot in slots] for slots in ops]
    return [
        (e, [[column[g] for column in op] for op in cells]) for g, e in enumerate(entries)
    ]
