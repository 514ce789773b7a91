"""The CLI's JSON encoder and CSV cell rule against the json and csv modules."""

import argparse
import contextlib
import csv
import enum
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microcanon import cli

AWKWARD = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "a,b", ""]
texts = st.text() | st.sampled_from(AWKWARD) | st.lists(st.sampled_from(AWKWARD)).map("".join)
huge_ints = st.builds(lambda k, sign: sign * (10 ** 4300 + k),
                      st.integers(min_value=0, max_value=10 ** 9), st.sampled_from([1, -1]))
floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                        2.2250738585072014e-308, 1e-05, 1e16, 0.1])
scalars = st.none() | st.booleans() | st.integers() | huge_ints | floats | texts
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)
                   | st.lists(st.integers(), max_size=6).map(tuple)),
    max_leaves=24)


@given(documents)
@settings(max_examples=400, deadline=None)
@example({})
@example([])
@example(())
@example({"": [[], {}, ()]})
@example([True, 1, 1.0, None])
def test_json_text_is_json_dumps_indent_2(doc):
    with cli._unlimited_int_digits():
        assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


class Color(enum.IntEnum):
    RED = 1


class Text(str):
    pass


class Real(float):
    pass


@pytest.mark.parametrize("doc", [Color.RED, Text("a\"b"), Real(0.1), Real("nan"), np.float64(0.1),
                                 {"k": [Color.RED, np.float64(-0.0), Text("é")]}])
def test_json_text_subclasses_as_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{1: 2}, {(1,): 2}, {1.5}, object(), np.int64(3),
                                 [1, {"k": b"bytes"}]])
def test_json_text_rejects_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


def old_cell(value) -> str:
    """The cell rule before the exact-type checks."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (tuple, list)):
        return json.dumps(value)
    return str(value)


cells = (st.none() | st.booleans() | st.integers() | floats | texts
         | st.lists(st.integers(), max_size=6).map(tuple)
         | st.lists(st.integers() | floats | st.booleans() | texts, max_size=4).map(tuple)
         | st.lists(st.integers() | floats, max_size=4))


@given(cells)
@settings(max_examples=400, deadline=None)
@example(())
@example((True, 1))
@example((1.0, 2))
@example(Color.RED)
@example(Real(0.5))
def test_cell_is_the_old_rule(value):
    assert cli._cell(value) == old_cell(value)


@given(st.lists(st.tuples(texts, cells, floats), max_size=5))
@settings(max_examples=200, deadline=None)
@example([("row[1]", "column R sums to 1.1, not 1", 0.10000000000000009)])
def test_csv_records_quote_as_csv_writer(rows):
    # the validate table's messages hold commas, quotes and line breaks
    columns = ("where", "message", "magnitude")
    args = argparse.Namespace(format="csv", out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit_records(args, columns, rows) == 0
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([old_cell(x) for x in row] for row in rows)
    assert out.getvalue() == want.getvalue()


def write_binnings(fmt: str, table, out=None) -> str:
    """_write_binnings' stdout for a table of (binning, omega, ln omega, mu) rows."""
    args = argparse.Namespace(format=fmt, out=out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli._write_binnings(args, *map(list, zip(*table))) == 0
    return buf.getvalue()


def old_binning_text(fmt: str, table) -> str:
    """The table as the generic record path writes it."""
    if fmt == "json":
        return cli._json_text([{"binning": n, "omega": omega, "log_omega": x, "entropy": x,
                                "mu": mu} for n, omega, x, mu in table])
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(("binning", "omega", "entropy", "mu"))
    writer.writerows(map(cli._cell, row) for row in table)
    return want.getvalue()


table_floats = floats.filter(lambda x: 0 <= x < math.inf)
binning_tables = st.integers(min_value=1, max_value=8).flatmap(lambda m: st.lists(
    st.tuples(st.tuples(*[st.integers(min_value=0, max_value=10 ** 6)] * m),
              st.integers(min_value=1, max_value=10 ** 30) | huge_ints.map(abs),
              table_floats, table_floats),
    min_size=1, max_size=7))


@given(binning_tables, st.sampled_from(["csv", "json"]), st.integers(min_value=1, max_value=3))
@settings(max_examples=300, deadline=None)
@example([((4,), 1, 0.0, 1.0)], "csv", 1)
@example([((2, 3), 10, 2.3025850929940463, 5e-324), ((0, 5), 10 ** 4300 + 7, 1e16, 1e-05)],
         "json", 1)
def test_binning_template_is_the_record_path(table, fmt, rows_per_write):
    with mock.patch.object(cli, "_ROWS_PER_WRITE", rows_per_write), cli._unlimited_int_digits():
        assert write_binnings(fmt, table) == old_binning_text(fmt, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_binning_table_out_file_is_stdout(fmt, tmp_path):
    table = [((k, 9100 - 2 * k, k), 10 ** 4300 + k, 1e4 + k, k / 7) for k in range(5)]
    path = tmp_path / "table.out"
    with mock.patch.object(cli, "_ROWS_PER_WRITE", 2):
        stdout = write_binnings(fmt, table)
        assert write_binnings(fmt, table, out=str(path)) == ""
    assert path.read_text(encoding="utf-8") == stdout
