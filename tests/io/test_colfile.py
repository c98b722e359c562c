"""Round-trip property and fuzz tests for the ``.rcf`` columnar format.

The encoder promises *exact* fidelity: every ``(type, value)`` pair written
comes back identical, whatever mix of types, nulls, duplicates, empty
columns, and chunk boundaries a dataset throws at it.  The decoder promises
the opposite discipline: any malformed or hostile input maps to a typed
:class:`ColfileError` raised before a large allocation — mirrored on the
network side by the :mod:`tests.net` protocol fuzz tests, since the same
batch encoding travels the wire.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Record, ValueType, Variant
from repro.io import Dataset
from repro.io.colfile import (
    BATCH_MAGIC,
    ColfileError,
    ColfileReader,
    ColfileWriter,
    ColumnStore,
    DecodeLimits,
    decode_batch,
    decode_batch_store,
    encode_batch,
    merge_stores,
    pack_value,
    read_colfile,
    records_from_store,
    unpack_value,
    write_colfile,
)

from ..conftest import examples

# -- strategies -------------------------------------------------------------------

_LABELS = ["function", "mpi.rank", "time.duration", "loop", "x", "y#z"]

_values = st.one_of(
    st.none(),  # absent from the record
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(
        lambda n: Variant(ValueType.INT, n)
    ),
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda n: Variant(ValueType.UINT, n)
    ),
    st.integers(min_value=-(2**80), max_value=2**80).map(
        lambda n: Variant(ValueType.INT, n) if -(2**63) <= n < 2**63 else None
    ),
    st.floats(allow_nan=False).map(lambda x: Variant(ValueType.DOUBLE, x)),
    st.booleans().map(lambda b: Variant(ValueType.BOOL, b)),
    st.text(max_size=12).map(lambda s: Variant(ValueType.STRING, s)),
)


@st.composite
def _record_lists(draw, max_records: int = 30):
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4,
                           unique=True))
    n = draw(st.integers(min_value=0, max_value=max_records))
    records = []
    for _ in range(n):
        entries = {}
        for label in labels:
            value = draw(_values)
            if value is not None:
                entries[label] = value
        records.append(Record.from_variants(entries))
    return records


def _shape(records):
    """Exact (label -> (type, value)) view of every record, order preserved."""
    return [
        sorted((label, rec[label].type, rec[label].value) for label in rec.labels())
        for rec in records
    ]


# -- batch round trips ------------------------------------------------------------


@settings(max_examples=examples(60), deadline=None)
@given(_record_lists())
def test_batch_roundtrip_property(records):
    out = records_from_store(decode_batch_store(encode_batch(records)))
    assert _shape(out) == _shape(records)


def test_batch_roundtrip_exact_types():
    """int 1 and double 1.0 under one label must survive distinctly."""
    records = [
        Record.from_variants({"v": Variant(ValueType.INT, 1)}),
        Record.from_variants({"v": Variant(ValueType.DOUBLE, 1.0)}),
        Record.from_variants({"v": Variant(ValueType.UINT, 1)}),
        Record.from_variants({"v": Variant(ValueType.BOOL, True)}),
        Record.from_variants({"v": Variant(ValueType.STRING, "1")}),
    ]
    out = records_from_store(decode_batch_store(encode_batch(records)))
    assert _shape(out) == _shape(records)


def test_batch_roundtrip_keeps_signed_zeros_in_a_mixed_column():
    """0.0 == -0.0 as dictionary keys; the encoded dictionary keeps both."""
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        records = [
            Record.from_variants({"d": Variant(ValueType.DOUBLE, first)}),
            Record.from_variants({"d": Variant(ValueType.BOOL, False)}),
            Record.from_variants({"d": Variant(ValueType.DOUBLE, second)}),
        ]
        out = records_from_store(decode_batch_store(encode_batch(records)))
        assert [repr(r["d"].value) for r in out] == [repr(first), "False", repr(second)]


def test_batch_roundtrip_huge_ints():
    """Integers outside 64 bits take the text fallback, not an overflow."""
    records = [
        Record.from_variants({"n": Variant(ValueType.UINT, 2**64 - 1)}),
        Record.from_variants({"n": Variant(ValueType.INT, -(2**63))}),
    ]
    out = records_from_store(decode_batch_store(encode_batch(records)))
    assert _shape(out) == _shape(records)


def test_empty_batch_roundtrip():
    assert records_from_store(decode_batch_store(encode_batch([]))) == []


def test_batch_with_all_null_rows():
    records = [Record.from_variants({}) for _ in range(5)]
    out = records_from_store(decode_batch_store(encode_batch(records)))
    assert len(out) == 5
    assert all(len(list(r.labels())) == 0 for r in out)


# -- file round trips -------------------------------------------------------------


@settings(max_examples=examples(25), deadline=None)
@given(_record_lists(max_records=40), st.integers(min_value=1, max_value=7))
def test_file_roundtrip_multichunk_property(tmp_path_factory, records, chunk_rows):
    path = tmp_path_factory.mktemp("rcf") / "t.rcf"
    write_colfile(path, records, chunk_rows=chunk_rows)
    out, _globals = read_colfile(path)
    assert _shape(out) == _shape(records)


def test_file_globals_roundtrip(tmp_path):
    path = tmp_path / "g.rcf"
    globals_ = {
        "run.id": Variant(ValueType.INT, 42),
        "run.big": Variant(ValueType.UINT, 2**70),
        "run.name": Variant(ValueType.STRING, "amr"),
        "run.scale": Variant(ValueType.DOUBLE, 0.5),
        "run.ok": Variant(ValueType.BOOL, True),
    }
    write_colfile(path, [], globals_=globals_)
    _records, got = read_colfile(path)
    assert {k: (v.type, v.value) for k, v in got.items()} == {
        k: (v.type, v.value) for k, v in globals_.items()
    }


def test_file_chunk_iteration_matches_bulk(tmp_path):
    path = tmp_path / "chunks.rcf"
    records = [
        Record.from_variants(
            {"k": Variant(ValueType.STRING, f"k{i % 3}"),
             "v": Variant(ValueType.DOUBLE, float(i))}
        )
        for i in range(100)
    ]
    write_colfile(path, records, chunk_rows=17)
    reader = ColfileReader(path)
    try:
        assert len(reader.chunks) == 6
        streamed = []
        for store in reader.iter_stores():
            streamed.extend(records_from_store(store))
        assert _shape(streamed) == _shape(records)
        assert _shape(reader.records()) == _shape(records)
    finally:
        reader.close()


def test_chunked_query_merges_cross_type_keys_like_streaming(tmp_path):
    # int 1 and double 1.0 land in different chunks with different column
    # encodings; the chunked scan must still merge them into one group,
    # exactly as the streaming engine's Variant-equality key does.
    from repro import api
    from repro.query.engine import QueryEngine

    path = tmp_path / "mixed.rcf"
    records = [
        Record.from_variants({"function": Variant.of(1), "t": Variant.of(2.0)}),
        Record.from_variants({"function": Variant.of(1.0), "t": Variant.of(3.0)}),
        Record.from_variants({"function": Variant.of("x"), "t": Variant.of(5.0)}),
    ]
    write_colfile(path, records, chunk_rows=1)
    q = "AGGREGATE count, sum(t) GROUP BY function"
    got = api.query(q, str(path))
    want = QueryEngine(q).run(records, backend="rows")
    assert _shape(got.records) == _shape(want)


def test_with_constants_overlays_like_record_with_entries(tmp_path):
    # the columnar form of folding a file's globals into its rows: a constant
    # replaces a same-named column (typed or dictionary), an empty one hides it
    path = tmp_path / "g.rcf"
    records = [
        Record.from_variants({"k": Variant.of(f"s{i % 2}"), "n": Variant.of(i)})
        for i in range(5)
    ]
    write_colfile(path, records)
    extra = {"n": Variant.of("file"), "rank": Variant.of(3), "k": Variant.empty()}
    with ColfileReader(path) as reader:
        store = reader.chunk_store(0)
        assert store.with_constants({}) is store
        overlaid = store.with_constants(extra)
        assert _shape(overlaid.records) == _shape(
            [Record.from_variants({"n": extra["n"], "rank": extra["rank"]})] * 5
        )
        codes, values = overlaid.interned("rank")
        assert codes.tolist() == [0] * 5 and values == [extra["rank"]]
        assert overlaid.interned("k")[0].tolist() == [-1] * 5
        assert _shape(store.records) == _shape(records)  # the source is untouched


# -- merged stores: one dictionary builder, exact value identity ------------------

#: values equal under ``==`` that are not the same value: signed zeros, the
#: int / double / bool twins of 0 and 1, and strings that force a
#: dictionary column
_twins = st.sampled_from(
    [
        Variant(ValueType.DOUBLE, 0.0),
        Variant(ValueType.DOUBLE, -0.0),
        Variant(ValueType.DOUBLE, 1.0),
        Variant(ValueType.INT, 0),
        Variant(ValueType.INT, 1),
        Variant(ValueType.UINT, 1),
        Variant(ValueType.BOOL, False),
        Variant(ValueType.BOOL, True),
        Variant(ValueType.STRING, "0"),
    ]
)


def _exact_shape(records):
    """:func:`_shape` with doubles by bit pattern (``-0.0`` is not ``0.0``)."""
    return [
        sorted(
            (label, v.type, struct.pack("<d", v.value) if v.type is ValueType.DOUBLE else v.value)
            for label, v in rec.items()
        )
        for rec in records
    ]


@settings(max_examples=examples(60), deadline=None)
@given(
    st.lists(
        st.lists(
            st.dictionaries(st.sampled_from(["a", "b"]), _twins, max_size=2).map(
                Record.from_variants
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_merge_stores_round_trips_signed_zero_twins_exactly(chunks, from_records):
    # each part a decoded batch or a records-built store; one label may be a
    # typed column in one part and a dictionary column in the next
    parts = [
        ColumnStore.from_records(chunk) if built else decode_batch_store(encode_batch(chunk))
        for chunk, built in zip(chunks, from_records)
    ]
    merged = merge_stores(parts)
    rows = [record for chunk in chunks for record in chunk]
    assert len(merged) == len(rows)
    assert _exact_shape(records_from_store(merged)) == _exact_shape(rows)


def test_from_files_keeps_the_sign_of_a_zero_across_parts(tmp_path):
    # x is a dictionary column of 0.0 and "s" in one file, of -0.0 and "t" in
    # the other: merging the two dictionaries must not make -0.0 a 0.0
    paths = [str(tmp_path / "a.rcf"), str(tmp_path / "b.rcf")]
    write_colfile(paths[0], [Record({"x": 0.0}), Record({"x": "s"})])
    write_colfile(paths[1], [Record({"x": -0.0}), Record({"x": "t"})])
    x = Dataset.from_files(paths).records[2]["x"]
    assert x.type is ValueType.DOUBLE and struct.pack("<d", x.value) == struct.pack("<d", -0.0)


def test_writer_context_manager_partial_chunks(tmp_path):
    path = tmp_path / "w.rcf"
    with ColfileWriter(path) as writer:
        writer.write_chunk([Record.from_variants({"a": Variant(ValueType.INT, 1)})])
        writer.write_chunk([])  # empty chunk must be harmless
        writer.write_chunk([Record.from_variants({"a": Variant(ValueType.INT, 2)})])
    out, _ = read_colfile(path)
    assert [r["a"].value for r in out] == [1, 2]


# -- rejection: truncation, fuzz, hostile headers ---------------------------------


def _valid_file_bytes(tmp_path) -> bytes:
    path = tmp_path / "v.rcf"
    records = [
        Record.from_variants(
            {"k": Variant(ValueType.STRING, f"s{i}"),
             "n": Variant(ValueType.INT, i)}
        )
        for i in range(20)
    ]
    write_colfile(path, records, chunk_rows=8)
    return path.read_bytes()


def test_truncated_file_rejected_everywhere(tmp_path):
    data = _valid_file_bytes(tmp_path)
    target = tmp_path / "trunc.rcf"
    for cut in (0, 1, 3, 7, len(data) // 2, len(data) - 5, len(data) - 1):
        target.write_bytes(data[:cut])
        with pytest.raises(ColfileError):
            ColfileReader(target).records()


def test_corrupt_magic_rejected(tmp_path):
    data = bytearray(_valid_file_bytes(tmp_path))
    data[0] ^= 0xFF
    target = tmp_path / "magic.rcf"
    target.write_bytes(bytes(data))
    with pytest.raises(ColfileError):
        ColfileReader(target)


def test_future_version_rejected(tmp_path):
    data = bytearray(_valid_file_bytes(tmp_path))
    struct.pack_into("<H", data, 4, 99)  # version field after the magic
    target = tmp_path / "future.rcf"
    target.write_bytes(bytes(data))
    with pytest.raises(ColfileError, match="newer than supported"):
        ColfileReader(target)


@settings(max_examples=examples(120), deadline=None)
@given(st.binary(max_size=200))
def test_decode_batch_never_crashes_on_garbage(data):
    try:
        decode_batch(data)
    except ColfileError:
        pass  # the only acceptable failure mode


@settings(max_examples=examples(60), deadline=None)
@given(st.binary(min_size=1, max_size=40))
def test_decode_batch_never_crashes_on_corrupted_valid_batch(noise):
    records = [
        Record.from_variants({"k": Variant(ValueType.STRING, "a"),
                              "n": Variant(ValueType.INT, 7)})
    ]
    blob = bytearray(encode_batch(records))
    for i, b in enumerate(noise):
        blob[(i * 37 + b) % len(blob)] ^= b or 1
    try:
        decode_batch_store(bytes(blob))
    except ColfileError:
        pass


def _patch_batch_header(blob: bytes, mutate) -> bytes:
    """Rewrite a batch's JSON header through ``mutate(header_dict)``."""
    header_len = struct.unpack_from("<I", blob, 4)[0]
    header = json.loads(bytes(blob[8 : 8 + header_len]).rstrip(b"\x00"))
    mutate(header)
    raw = json.dumps(header, separators=(",", ":")).encode()
    pad = (-(8 + len(raw))) % 8
    raw += b"\x00" * pad
    return BATCH_MAGIC + struct.pack("<I", len(raw)) + raw + blob[8 + header_len :]


def test_adversarial_dictionary_header_rejected():
    """A hostile header claiming a giant dictionary must fail *before*
    allocation — the decoded-size cap, not the frame length, is the bound."""
    records = [
        Record.from_variants({"k": Variant(ValueType.STRING, f"s{i}")})
        for i in range(8)
    ]
    blob = encode_batch(records)

    def huge_tags(header):
        # one tag byte per dictionary entry: claim a 1G-entry dictionary
        header["cols"][0]["tags"] = [0, 10**9]

    with pytest.raises(ColfileError):
        decode_batch(_patch_batch_header(blob, huge_tags))

    def inflate_rows(header):
        header["rows"] = 10**12

    with pytest.raises(ColfileError, match="exceeds limit"):
        decode_batch(_patch_batch_header(blob, inflate_rows))

    # Within structural consistency, the explicit decoded-size limits still
    # cap the expansion an otherwise-valid batch may request.
    with pytest.raises(ColfileError, match="exceeds limit"):
        decode_batch(blob, DecodeLimits(max_dict=2))
    with pytest.raises(ColfileError, match="exceeds limit"):
        decode_batch(blob, DecodeLimits(max_rows=2))


def test_decoded_size_limits_scale_from_bytes():
    limits = DecodeLimits.for_decoded_size(1024)
    assert limits.max_rows == 128
    assert limits.max_bytes == 1024


# -- value packing (operator-state cells) -----------------------------------------


@settings(max_examples=examples(80), deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**100), max_value=2**100),
            st.floats(allow_nan=False),
            st.text(max_size=10),
        ),
        lambda children: st.lists(children, max_size=4),
        max_leaves=10,
    )
)
def test_pack_value_roundtrip(obj):
    blob = bytes(pack_value(obj))
    out, pos = unpack_value(memoryview(blob), 0)
    assert pos == len(blob)
    assert out == obj and type(out) is type(obj)


@settings(max_examples=examples(100), deadline=None)
@given(st.binary(max_size=60))
def test_unpack_value_never_crashes(data):
    try:
        unpack_value(memoryview(data), 0)
    except ColfileError:
        pass
