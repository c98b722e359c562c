"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from repro.common import Record, Variant

# -- hypothesis profiles -------------------------------------------------------

#: ``--hypothesis-profile=fuzz`` (the CI property-fuzz job, which also draws
#: a fresh ``--hypothesis-seed``) runs each property sized with
#: :func:`examples` ten times longer than tier-1 does
settings.register_profile("fuzz", max_examples=1000)


def examples(n: int) -> int:
    """``n`` examples under the default profile, scaled by the loaded one."""
    return max(1, n * settings.default.max_examples // 100)


# -- hypothesis strategies ---------------------------------------------------

#: attribute labels: realistic dotted/hashed/hyphenated spellings
labels = st.one_of(
    st.sampled_from(
        [
            "function",
            "kernel",
            "annotation",
            "amr.level",
            "iteration#mainloop",
            "mpi.function",
            "mpi.rank",
            "time.duration",
            "loop.iteration",
            "advec-mom",
        ]
    ),
    st.from_regex(r"[a-z][a-z0-9_]{0,8}(\.[a-z0-9_]{1,8}){0,2}", fullmatch=True),
)

#: scalar raw values of every supported type
raw_values = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd", "Po", "Sm"), max_codepoint=0x2FF
        ),
        max_size=20,
    ),
)

variants = st.builds(Variant.of, raw_values)


@st.composite
def records(draw, min_entries: int = 0, max_entries: int = 6):
    """A record with a small number of arbitrary typed entries."""
    n = draw(st.integers(min_value=min_entries, max_value=max_entries))
    entries = {}
    for _ in range(n):
        entries[draw(labels)] = draw(variants)
    return Record.from_variants(entries)


record_lists = st.lists(records(), max_size=40)


# -- fixtures ------------------------------------------------------------------


@pytest.fixture
def no_record_hydration(monkeypatch):
    """Fail the test if an ``.rcf`` store is turned into ``Record`` objects."""
    from repro.io import colfile

    def refuse(store, rows=None):
        raise AssertionError("an .rcf store was hydrated into Records")

    monkeypatch.setattr(colfile, "records_from_store", refuse)


@pytest.fixture
def no_result_hydration(monkeypatch):
    """Fail the test if a query result held as columns is turned into
    ``Record`` objects, wherever ``result_records`` is called from."""
    from repro.aggregate import table
    from repro.io import colfile
    from repro.net import server
    from repro.query import engine
    from repro.window import db

    def refuse(store):
        raise AssertionError("a result store was hydrated into Records")

    # aggregate/table.py calls it as colfile.result_records
    assert table.colfile is colfile
    for module in (colfile, engine, server, db):
        monkeypatch.setattr(module, "result_records", refuse)


@pytest.fixture
def small_profile_records() -> list[Record]:
    """A small, deterministic profile-like record set."""
    out = []
    for i in range(20):
        out.append(
            Record(
                {
                    "kernel": f"k{i % 3}",
                    "mpi.rank": i % 4,
                    "iteration": i // 4,
                    "time.duration": 1.0 + (i % 5) * 0.5,
                }
            )
        )
    # records missing some key attributes
    out.append(Record({"mpi.rank": 0, "time.duration": 2.0}))
    out.append(Record({"time.duration": 1.5}))
    return out
