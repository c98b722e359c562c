"""Tests for aggregation-key extraction."""

from repro.aggregate.key import TupleKeyExtractor, make_extractor
from repro.common import Record, Variant


class TestTupleExtractor:
    def test_extract_full_key(self):
        ex = TupleKeyExtractor(["a", "b"])
        key = ex.extract(Record({"a": 1, "b": "x"}))
        assert key == (Variant.of(1), Variant.of("x"))

    def test_missing_attribute_is_none(self):
        ex = TupleKeyExtractor(["a", "b"])
        assert ex.extract(Record({"b": "x"})) == (None, Variant.of("x"))

    def test_entries_roundtrip(self):
        ex = TupleKeyExtractor(["a", "b"])
        rec = Record({"a": 1})
        key = ex.extract(rec)
        assert dict(ex.entries(key)) == {"a": Variant.of(1)}

    def test_extra_record_attributes_ignored(self):
        ex = TupleKeyExtractor(["a"])
        assert ex.extract(Record({"a": 1, "z": 9})) == ex.extract(Record({"a": 1}))

    def test_empty_key(self):
        ex = TupleKeyExtractor([])
        assert ex.extract(Record({"a": 1})) == ()
        assert ex.entries(()) == []


def test_make_extractor_builds_the_tuple_extractor():
    ex = make_extractor(["a", "b"])
    assert isinstance(ex, TupleKeyExtractor)
    assert ex.key_labels == ("a", "b")
