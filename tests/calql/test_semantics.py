"""Tests for CalQL semantic validation and compilation."""

import pytest

from repro.calql import (
    build_scheme,
    compile_conditions,
    compile_let,
    parse_query,
    parse_scheme,
    validate,
)
from repro.common import CalQLSemanticError, Record
from repro.io import ColumnStore
from repro.io.colfile import records_from_store


class TestValidate:
    def test_empty_query_rejected(self):
        with pytest.raises(CalQLSemanticError):
            validate(parse_query("FORMAT csv"))

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(CalQLSemanticError):
            validate(parse_query("GROUP BY kernel"))

    def test_unknown_operator(self):
        with pytest.raises(CalQLSemanticError, match="unknown aggregation operator"):
            validate(parse_query("AGGREGATE frobnicate(x)"))

    def test_unknown_format(self):
        with pytest.raises(CalQLSemanticError, match="unknown FORMAT"):
            validate(parse_query("AGGREGATE count FORMAT xml"))

    def test_bad_operator_arity_caught(self):
        with pytest.raises(CalQLSemanticError):
            validate(parse_query("AGGREGATE sum(a,b)"))

    def test_duplicate_let_names(self):
        with pytest.raises(CalQLSemanticError, match="duplicate LET"):
            validate(parse_query("LET a = x, a = y AGGREGATE sum(a)"))

    def test_valid_query_passes(self):
        validate(parse_query("AGGREGATE count, sum(t) WHERE k GROUP BY k FORMAT csv"))


class TestConditions:
    def test_exists(self):
        check = compile_conditions(parse_query("AGGREGATE count WHERE kernel").where)
        assert check(Record({"kernel": "x"}))
        assert not check(Record({}))

    def test_not(self):
        check = compile_conditions(
            parse_query("AGGREGATE count WHERE not(mpi.function)").where
        )
        assert check(Record({"kernel": "x"}))
        assert not check(Record({"mpi.function": "MPI_Barrier"}))

    def test_equality_cross_type(self):
        check = compile_conditions(parse_query("AGGREGATE count WHERE mpi.rank=3").where)
        assert check(Record({"mpi.rank": 3}))
        assert check(Record({"mpi.rank": "3"}))
        assert not check(Record({"mpi.rank": 4}))
        assert not check(Record({}))

    def test_inequalities(self):
        check = compile_conditions(parse_query("AGGREGATE count WHERE t>=1.5").where)
        assert check(Record({"t": 1.5}))
        assert check(Record({"t": 2}))
        assert not check(Record({"t": 1.0}))

    def test_not_equal_missing_attribute_is_false(self):
        """!= on a missing attribute does not match (record lacks the attr)."""
        check = compile_conditions(parse_query("AGGREGATE count WHERE t!=5").where)
        assert not check(Record({}))
        assert check(Record({"t": 4}))

    def test_comma_is_and(self):
        check = compile_conditions(
            parse_query("AGGREGATE count WHERE kernel, mpi.rank=0").where
        )
        assert check(Record({"kernel": "k", "mpi.rank": 0}))
        assert not check(Record({"kernel": "k", "mpi.rank": 1}))
        assert not check(Record({"mpi.rank": 0}))

    def test_empty_list_compiles_to_none(self):
        assert compile_conditions(()) is None


def let_row(text: str, record: Record) -> Record:
    """``record`` after the query's LET: its one-row store, derived."""
    derived = compile_let(parse_query(text).let)(ColumnStore.from_records([record]))
    return records_from_store(derived)[0]


class TestLet:
    def test_derived_attribute(self):
        rec = let_row(
            "LET rate = bytes/time AGGREGATE sum(rate)", Record({"bytes": 100.0, "time": 4.0})
        )
        assert rec["rate"].value == 25.0

    def test_missing_ref_skips_binding(self):
        rec = let_row("LET rate = bytes/time AGGREGATE sum(rate)", Record({"bytes": 100.0}))
        assert "rate" not in rec

    def test_division_by_zero_skips(self):
        assert "r" not in let_row("LET r = a/b AGGREGATE sum(r)", Record({"a": 1.0, "b": 0.0}))

    def test_chained_bindings(self):
        rec = let_row("LET d = a*2, e = d+1 AGGREGATE sum(e)", Record({"a": 3}))
        assert rec["d"].value == 6.0 and rec["e"].value == 7.0

    def test_non_numeric_ref_skips(self):
        assert "d" not in let_row("LET d = a*2 AGGREGATE sum(d)", Record({"a": "text"}))

    def test_empty_list_compiles_to_none(self):
        assert compile_let(()) is None


class TestBuildScheme:
    def test_paper_scheme(self):
        scheme = parse_scheme(
            "AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration"
        )
        assert scheme.key == ("function", "loop.iteration")
        assert [op.name for op in scheme.ops] == ["count", "sum"]

    def test_where_becomes_predicate(self):
        scheme = parse_scheme("AGGREGATE count WHERE not(mpi.function) GROUP BY k")
        assert scheme.predicate is not None
        assert scheme.predicate(Record({"k": "x"}))
        assert not scheme.predicate(Record({"mpi.function": "MPI_Send"}))

    def test_predicate_keeps_the_conditions_it_was_compiled_from(self):
        for where in ("not(mpi.function)", "k=a, v>2"):
            query = parse_query(f"AGGREGATE count WHERE {where} GROUP BY k")
            assert build_scheme(query).predicate.conditions == tuple(query.where)

    def test_pure_filter_query_rejected(self):
        with pytest.raises(CalQLSemanticError):
            build_scheme(parse_query("SELECT kernel WHERE kernel"))
