"""CSV ingest, model files, split plans, and the command line."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import alphatree
from alphatree import (
    A_MAX,
    AlphaTree,
    CvarSpec,
    DomainError,
    EmptyMeasureError,
    EooSpec,
    InductionConfig,
    Leaf,
    LoadError,
    ModelFormatError,
    ModelMeta,
    Node,
    SpSpec,
    SplitTest,
    clip_score,
    empirical_kl,
    full_view,
    label_plugin,
    load_dataset,
    load_model,
    make_dataset,
    metric_auc,
    metric_cvar,
    metric_eoo_gap,
    metric_md,
    metric_sp_gap,
    metric_zero_one,
    model_from_json,
    model_to_json,
    proxy_group_tree,
    resolve_seed,
    route_rows,
    run_cvar,
    run_eoo,
    run_sp,
    save_model,
    split_plan,
    subgroup_risks,
    wrapped_scores,
)
from alphatree.cli import _write_trace, main
from alphatree.core import expit
from alphatree import io_cli
from alphatree.io_cli import parse_features, parse_probabilities, read_csv

from helpers import (chain_tree, node_to_obj_reference, parse_column_reference, probe_columns, random_tree,
                     read_csv_reference)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def basic_csv(path):
    write_csv(
        path,
        ["x", "c", "label", "group", "score"],
        [
            [0.5, "red", "+1", "a", 0.9],
            [1.5, "blue", "-1", "a", 0.2],
            [-2.0, "red", "1", "b", 0.99],
            [3.25, "green", "0", "b", 0.0],
        ],
    )


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------


def test_load_dataset_infers_kinds_and_clips(tmp_path):
    path = tmp_path / "d.csv"
    basic_csv(path)
    ds = load_dataset(path, 1.0)
    # the group column stays routable, so it carries a kind too
    assert ds.kinds == {"x": "numeric", "c": "categorical",
                        "group": "categorical"}
    assert ds.feature_names == ("x", "c")
    assert ds.columns["x"].dtype == float
    assert ds.columns["c"].dtype == object
    assert list(ds.labels) == [1, -1, 1, -1]
    assert list(ds.groups) == ["a", "a", "b", "b"]
    # ingest clips to I(B): 0.99 and 0.0 land exactly on the clip endpoints
    assert ds.scores[2] == float(expit(1.0))
    assert ds.scores[3] == float(expit(-1.0))
    assert ds.scores[1] == pytest.approx(float(expit(-1.0)), abs=0)


def test_load_dataset_kind_override(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["z", "label", "group", "score"],
              [[1, "+1", "g", 0.5], [2, "-1", "g", 0.5]])
    ds = load_dataset(path, 1.0, kinds={"z": "categorical"})
    assert ds.kinds["z"] == "categorical"
    assert list(ds.columns["z"]) == ["1", "2"]
    with pytest.raises(LoadError, match="unknown kind"):
        load_dataset(path, 1.0, kinds={"z": "ordinal"})


def test_load_dataset_weight_and_target_columns(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score", "w", "t"],
              [[0.0, "+1", "g", 0.5, 2.0, 0.75],
               [1.0, "-1", "g", 0.5, 6.0, 0.25]])
    ds = load_dataset(path, 1.0, weight_column="w", target_column="t")
    assert ds.feature_names == ("x",)
    assert list(ds.weights) == [2.0, 6.0]
    assert list(ds.target) == [0.75, 0.25]


def test_load_dataset_header_errors(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group"], [[1, "+1", "g"]])
    with pytest.raises(LoadError, match="missing required column 'score'"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score"], [[1, "+1", "g", 0.5]])
    with pytest.raises(LoadError, match="missing required column 'w'"):
        load_dataset(path, 1.0, weight_column="w")
    with pytest.raises(LoadError, match="missing feature column 'cdoe'"):
        load_dataset(path, 1.0, kinds={"cdoe": "categorical"})


# the file's shape is checked by one reader, so both entry points agree
@pytest.mark.parametrize("text, message", [
    ("", "file has no header row"),
    ("x,x,label,group,score\n1,2,+1,g,0.5\n", "duplicate column names in header"),
    ("x,label,group,score\n", "file has no data rows"),
    ("x,label,group,score\n1,+1,g,0.5\n2,-1,g\n", "row 2: expected 4 fields, got 3"),
])
@pytest.mark.parametrize("entry", ["load_dataset", "apply"])
def test_csv_shape_errors_agree_across_entry_points(tmp_path, capsys, entry, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    if entry == "load_dataset":
        with pytest.raises(LoadError, match=message):
            load_dataset(path, 1.0)
        return
    model = tmp_path / "m.json"
    save_model(model, AlphaTree(Node(SplitTest("x", "numeric", threshold=0.0), Leaf(0, 2.0), Leaf(1, 0.5))),
               ModelMeta(clip_B=1.0))
    assert main(["apply", "--data", str(path), "--model", str(model),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


def test_load_dataset_row_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 0.5], [2, "maybe", "g", 0.5]])
    with pytest.raises(LoadError, match="row 2: label 'maybe'"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 1.5]])
    with pytest.raises(LoadError, match=r"row 1: score '1.5' must lie in \[0, 1\]"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score", "w"],
              [[1, "+1", "g", 0.5, -2.0]])
    with pytest.raises(LoadError, match="row 1: weight '-2.0'"):
        load_dataset(path, 1.0, weight_column="w")


def test_load_dataset_numeric_feature_errors(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 0.5], ["oops", "-1", "g", 0.5]])
    # inference falls back to categorical, but an explicit kind must parse
    ds = load_dataset(path, 1.0)
    assert ds.kinds["x"] == "categorical"
    with pytest.raises(LoadError, match="row 2: feature 'x' value 'oops'"):
        load_dataset(path, 1.0, kinds={"x": "numeric"})
    write_csv(path, ["x", "label", "group", "score"],
              [["inf", "+1", "g", 0.5]])
    with pytest.raises(LoadError, match="row 1: feature 'x' value 'inf' is not finite"):
        load_dataset(path, 1.0, kinds={"x": "numeric"})


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_dataset_rejects_non_finite_cell_in_inferred_column(tmp_path, cell):
    # every cell parses as a float, so the column is numeric and the one
    # non-finite cell is an error, not a reason to read it as categorical
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[0.5, "+1", "g", 0.5], [1.5, "-1", "g", 0.5], [cell, "+1", "g", 0.5]])
    with pytest.raises(LoadError, match=f"row 3: feature 'x' value '{cell}' is not finite"):
        load_dataset(path, 1.0)


def test_load_dataset_custom_column_names(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "y", "who", "q"],
              [[1.0, "+1", "a", 0.4], [2.0, "-1", "b", 0.6]])
    ds = load_dataset(path, 2.0, label_column="y", group_column="who",
                      score_column="q")
    assert ds.feature_names == ("x",)
    assert ds.group_column == "who"
    assert list(ds.groups) == ["a", "b"]


# ---------------------------------------------------------------------------
# one reader, two ways to read: plain text is split, other text goes
# through the csv module
# ---------------------------------------------------------------------------


@st.composite
def csv_texts(draw):
    """A headed CSV text: plain (LF ends, no quote) or with quoted cells and
    LF, CRLF or bare-CR ends, or all three; maybe duplicate names, blank
    lines, ragged rows, a width-1 header, no data rows and no final end.
    Quoted cells may hold commas, doubled quotes and line breaks."""
    # plain text, quoted cells on otherwise plain lines, or any cell at all
    style = draw(st.sampled_from(["plain", "quoted", "any"]))
    plain = style == "plain"
    chars = {"plain": "a1.- \x0c", "quoted": 'a1.- \x0c"', "any": 'a1.- \x0c,"\r\n'}[style]
    cell = st.text(alphabet=chars, max_size=4)
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", ""]), min_size=1, max_size=4))
    width = len(names)
    ragged = draw(st.integers(0, 3)) == 0
    row = st.lists(cell, max_size=width + 1) if ragged else st.lists(cell, min_size=width, max_size=width)
    body = draw(st.lists(row, max_size=6))
    quote_more = style == "quoted" or style == "any" and draw(st.booleans())

    def field(value):
        if any(c in value for c in ',"\r\n') or (quote_more and draw(st.booleans())):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = []
    for cells in [names] + body:
        if lines and draw(st.integers(0, 15)) == 0:
            lines.append("")
        lines.append(",".join(map(field, cells)))
    end = "\n" if plain else draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", None]))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if end is None else st.just(end)
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    return text + draw(ends) if draw(st.booleans()) else text


def outcome(read):
    try:
        return read()
    except LoadError as exc:
        return str(exc)


@example(text="a,b\n1,2\r3,4\n", required=[], features=[])
@example(text='a,b\n"x",1\n', required=[], features=[])
@example(text="a\n1\n\n2\n", required=[], features=[])
@example(text="a,b\n", required=["a"], features=[])
@given(text=csv_texts(), required=st.lists(st.sampled_from(["a", "b", "zz"]), max_size=2),
       features=st.lists(st.sampled_from(["a", "c", "zz"]), max_size=2))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_csv_matches_csv_module_reference(tmp_path, text, required, features):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(lambda: read_csv_reference(path, required, features))
    got = outcome(lambda: read_csv(path, required, features))
    if isinstance(want, str):
        assert got == want
        return
    header, rows = want
    assert got.header == header
    assert got.columns == [[row[j] for row in rows] for j in range(len(header))]
    if header:
        # a readable file is split as plain text exactly when it holds no quote and no CR
        assert (got.lines is not None) == ('"' not in text and "\r" not in text)
    if got.lines is not None:
        assert got.lines == [",".join(row) for row in rows]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_read_csv_field_size_limit_on_both_paths(tmp_path, end):
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    for size, error in [(limit, None), (limit + 1, f"row 2: field larger than field limit ({limit})")]:
        long = "x" * size
        path.write_bytes(end.join(["a,b", "1,2", f"3,{long}", "5,6", ""]).encode("utf-8"))
        if error is None:
            table = read_csv(path, ["a"])
            assert table.columns == [["1", "3", "5"], ["2", long, "6"]]
            assert (table.lines is None) == (end == "\r\n")
        else:
            with pytest.raises(LoadError) as info:
                read_csv(path, ["a"])
            assert str(info.value) == error
    path.write_bytes(end.join(["a," + "h" * (limit + 1), "1,2", ""]).encode("utf-8"))
    with pytest.raises(LoadError) as info:
        read_csv(path, ["a"])
    assert str(info.value) == f"header row: field larger than field limit ({limit})"


def cell_error_csv(path, column, cell, end):
    """Ten good rows with `cell` in `column` at row 7; `end` ends every line."""
    header = ["x", "label", "group", "score", "w", "t"]
    rows = [[f"{0.25 * i}", "+1" if i % 2 else "-1", "ab"[i % 2], "0.5", "2", "0.75"]
            for i in range(10)]
    rows[6][header.index(column)] = cell
    path.write_bytes(end.join(",".join(row) for row in [header] + rows).encode("utf-8") + end.encode())


@pytest.mark.parametrize("column, cell, message", [
    ("label", "2", "row 7: label '2' is not one of +1, 1, 0, -1"),
    ("label", " 1", None),
    ("score", "1.5", "row 7: score '1.5' must lie in [0, 1]"),
    ("score", "nan", "row 7: score 'nan' must lie in [0, 1]"),
    ("score", "-0.1", "row 7: score '-0.1' must lie in [0, 1]"),
    ("score", "abc", "row 7: score 'abc' is not a number"),
    ("t", "1.25", "row 7: target '1.25' must lie in [0, 1]"),
    ("w", "-1", "row 7: weight '-1' must be finite and >= 0"),
    ("w", "inf", "row 7: weight 'inf' must be finite and >= 0"),
    ("x", "abc", "row 7: feature 'x' value 'abc' is not numeric"),
    ("x", "inf", "row 7: feature 'x' value 'inf' is not finite"),
])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_load_dataset_cell_errors_on_both_paths(tmp_path, column, cell, message, end):
    path = tmp_path / "d.csv"
    cell_error_csv(path, column, cell, end)
    # CRLF line ends send the file through the csv module
    assert (read_csv(path, ["score"]).lines is None) == (end == "\r\n")

    def load():
        return load_dataset(path, 1.0, kinds={"x": "numeric"}, weight_column="w", target_column="t")

    if message is None:
        assert load().labels[6] == 1
        return
    with pytest.raises(LoadError) as info:
        load()
    assert str(info.value) == message


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_load_dataset_infers_kinds_the_same_on_both_paths(tmp_path, end):
    path = tmp_path / "d.csv"
    lines = ["x,c,code,oops,label,group,score", "0.5,red,7,1,+1,a,0.5",
             "1e3,blue,8,oops,-1,b,0.5", "-2,red,7,2,1,a,0.5"]
    path.write_bytes(end.join(lines + [""]).encode("utf-8"))
    ds = load_dataset(path, 1.0)
    assert ds.kinds == {"x": "numeric", "c": "categorical", "code": "numeric",
                        "oops": "categorical", "group": "categorical"}
    assert ds.columns["x"].tolist() == [0.5, 1000.0, -2.0]
    assert ds.columns["oops"].tolist() == ["1", "oops", "2"]


ORACLE_COLUMNS = {"score": "score", "target": "t", "weight": "w", "numeric": "x", "inferred": "z"}
GOOD_CELLS = ["0.5", " 0.5", "1", "0.25 ", "1e-3", "+.75"]
BAD_CELLS = ["abc", "", "nan", "inf", "-inf", "1e999", "1.5", "-0.1"]


@example(role="inferred", cells=["nan", "abc"])
@example(role="numeric", cells=["0.5", "1e999", "abc"])
@example(role="score", cells=["0.5", "abc", "1.5"])
@example(role="weight", cells=["1.5", "-0.1", ""])
@given(role=st.sampled_from(sorted(ORACLE_COLUMNS)),
       cells=st.lists(st.sampled_from(GOOD_CELLS + BAD_CELLS), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_dataset_reads_numeric_columns_as_the_per_cell_parsers(tmp_path, role, cells):
    # one column of the role holds the drawn cells; every other cell is good
    column = ORACLE_COLUMNS[role]
    header = ["label", "group", "score", "w", "t", "x", "z"]
    rows = [["1" if r % 2 else "0", "a", "0.5", "1", "0.5", "2", "3"] for r in range(len(cells))]
    for row, cell in zip(rows, cells):
        row[header.index(column)] = cell
    want = outcome(lambda: parse_column_reference(role, column, cells))
    if role == "score" and not isinstance(want, str):
        want = clip_score(want, 30.0)
    path = tmp_path / "d.csv"
    for end in ("\n", "\r\n"):
        path.write_bytes(end.join(",".join(row) for row in [header] + rows).encode("utf-8") + end.encode())
        # CRLF line ends send the file through the csv module
        assert (read_csv(path, ["score"]).lines is None) == (end == "\r\n")
        got = outcome(lambda: load_dataset(path, 30.0, kinds={"x": "numeric"}, weight_column="w",
                                           target_column="t"))
        if isinstance(want, str):
            assert got == want
            continue
        values = {"score": got.scores, "target": got.target, "weight": got.weights}.get(role)
        if values is None:
            values = got.columns[column]
            assert got.kinds[column] == ("categorical" if want.dtype == object else "numeric")
        assert values.dtype == want.dtype
        if want.dtype == object:
            assert values.tolist() == want.tolist()
        else:
            assert values.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the converter: one rule per cell, whichever tokenizer split the file
# ---------------------------------------------------------------------------


def write_table(path, header, rows, quoted):
    """rows under header with LF ends; quoted puts every cell in quotes, so the csv module reads it."""
    field = (lambda v: '"' + v.replace('"', '""') + '"') if quoted else (lambda v: v)
    path.write_bytes("".join(",".join(map(field, row)) + "\n" for row in [header] + rows).encode("utf-8"))


@st.composite
def decimal_cells(draw):
    """A cell that float() may or may not read: a drawn decimal of 1 to 17 digits,
    maybe signed, dotted or with an exponent, or one of the odd forms."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([
            "-0.0", "-0.00", "+.5", "5.", ".", "-", "+", "", "1_000", " 1.5", "1.5 ", " 2", "\t-3.25",
            "１２.５", "١٢.٥", "inf", "-Infinity", "nan", "NaN", "1e5", "1E-3", "-2.5e+300", "1e999", "0x10",
            "abc", "1.2.3", "--1", "+-1", "1-", "0001.5000", "999999999999999", "9999999999999999",
            "98765432109876.5", "-12345678901234.5", "0.000000000000001", "1e-3",
        ]))
    digits = draw(st.sampled_from([1, 2, 6, 9, 14, 15, 15, 16, 17]))
    text = "".join(draw(st.sampled_from("0123456789")) for _ in range(digits))
    point = draw(st.integers(-1, digits))
    if point >= 0:
        text = text[:point] + "." + text[point:]
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    exponent = draw(st.sampled_from(["", "", "", "e-7", "E+2", "e300"]))
    return sign + text + exponent


def first_float_failure(cells):
    """The values of float() over the cells, or None when one raises."""
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError:
        return None


def finite(cell):
    values = first_float_failure([cell])
    return values is not None and bool(np.isfinite(values[0]))


@example(cells=["-0.00", "+.5", "5.", "0.123456789012345", "98765432109876.5"])
@example(cells=["1.5", "1e-3", "abc"])
@example(cells=["0.5", "inf"])
@given(cells=st.lists(decimal_cells(), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_number_converter_is_float_on_both_tokenizers(tmp_path, cells):
    want = first_float_failure(cells)
    want_numeric = outcome(lambda: parse_column_reference("numeric", "x", cells))
    want_score = outcome(lambda: parse_column_reference("score", "x", cells))
    path = tmp_path / "d.csv"
    for quoted in (False, True):
        write_table(path, ["x", "y"], [[cell, "0"] for cell in cells], quoted)
        table = read_csv(path, ["x"])
        assert table.plain is not quoted
        got = io_cli._numbers(table, "x")
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
        # the column's role rules fail on the cell and with the message of the per-cell parsers
        numeric = outcome(lambda: parse_features(table, {"x": "numeric"})[0]["x"])
        score = outcome(lambda: parse_probabilities(table, "x", "score"))
        for got_role, want_role in ((numeric, want_numeric), (score, want_score)):
            if isinstance(want_role, str):
                assert got_role == want_role
            else:
                assert got_role.tobytes() == want_role.tobytes()


LEVELS = st.text(alphabet="aZé€日\x00 ", max_size=9)


@st.composite
def datasets_as_rows(draw):
    """Rows of a labeled file with numeric and text features; text levels hold
    non-ASCII characters, NUL, empty strings and more than 7 bytes; maybe one bad cell."""
    n = draw(st.integers(1, 25))
    levels = draw(st.lists(LEVELS, min_size=1, max_size=5))
    groups = draw(st.lists(st.sampled_from(["a", "b", "", "ü", "groupé-long"]), min_size=1, max_size=3))
    header = ["label", "group", "score", "x", "c", "k"]
    rows = [[draw(st.sampled_from(["1", "0", "+1", "-1", " 1"])),
             draw(st.sampled_from(groups)),
             draw(st.sampled_from(["0.5", "0.125", "1", "0", "1e-3", "0.999999"])),
             draw(decimal_cells().filter(finite)),
             draw(st.sampled_from(levels)),
             draw(st.sampled_from(["7", "-2.25", "１", "3e1"]))] for _ in range(n)]
    bad = draw(st.sampled_from([None, ("label", "2"), ("score", "1.5"), ("x", "nan"), ("k", "abc"),
                                ("score", "é")]))
    if bad is not None:
        column, cell = bad
        rows[draw(st.integers(0, n - 1))][header.index(column)] = cell
    return header, rows


@given(table=datasets_as_rows())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_both_tokenizers_feed_one_converter(tmp_path, table):
    header, rows = table
    path = tmp_path / "d.csv"
    loaded = []
    for quoted in (False, True):
        write_table(path, header, rows, quoted)
        parsed = read_csv(path, ["label"])
        assert parsed.plain is not quoted
        for name in ("group", "c"):
            # codes number the levels in the order sorted() gives their str
            codes = io_cli._codes(parsed, name)
            cells = [row[header.index(name)] for row in rows]
            assert list(codes.names) == sorted(set(cells))
            assert [codes.names[c] for c in codes.codes.tolist()] == cells
        loaded.append(outcome(lambda: load_dataset(path, 1.0, kinds={"x": "numeric"})))
    plain, quoted = loaded
    if isinstance(plain, str):
        assert quoted == plain
        return
    assert plain.kinds == quoted.kinds
    for a, b in [(plain.labels, quoted.labels), (plain.scores, quoted.scores), (plain.weights, quoted.weights),
                 (plain.groups, quoted.groups), *((plain.columns[k], quoted.columns[k]) for k in plain.columns)]:
        assert a.dtype == b.dtype
        assert (a.tolist() == b.tolist()) if a.dtype == object else (a.tobytes() == b.tobytes())
    assert plain.groups.tolist() == [row[1] for row in rows]
    assert plain.columns["c"].tolist() == [row[4] for row in rows]


@pytest.mark.parametrize("quoted", [False, True])
def test_the_field_size_limit_counts_characters_on_the_byte_path(tmp_path, quoted):
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    for size, error in [(limit, None), (limit + 1, f"row 2: field larger than field limit ({limit})")]:
        long = "é" * size  # two bytes a character
        write_table(path, ["a", "b"], [["1", "2"], ["3", long], ["5", "6"]], quoted)
        if error is None:
            table = read_csv(path, ["a"])
            assert table.plain is not quoted
            assert table.columns == [["1", "3", "5"], ["2", long, "6"]]
        else:
            with pytest.raises(LoadError) as info:
                read_csv(path, ["a"])
            assert str(info.value) == error


def test_bench_style_cells_never_reach_float(tmp_path, monkeypatch):
    calls = []

    def counting_float(value):
        calls.append(value)
        return float(value)

    rng = np.random.default_rng(5)
    n = 700
    x = np.round(rng.normal(size=(n, 3)) * 2, 2)
    x[0] = -0.001  # "-0.00"
    # and cells of 9 to 17 characters, which take two words
    wide = rng.normal(size=n) * 10.0 ** rng.integers(-2, 8, n)
    rows = [[str(rng.integers(2)), "012"[i % 3], "%.6f" % rng.random(),
             *("%.2f" % v for v in x[i]), "ABCDEFGH"[i % 8], "%.7f" % rng.random(), "%.7f" % wide[i]]
            for i in range(n)]
    header = ["label", "group", "score", "x0", "x1", "x2", "cat", "p7", "wide"]
    path = tmp_path / "bench.csv"
    write_table(path, header, rows, quoted=False)
    monkeypatch.setattr(io_cli, "float", counting_float, raising=False)
    ds = load_dataset(path, 1.0)
    assert calls == []
    assert ds.kinds["cat"] == "categorical"
    assert ds.columns["x0"][0] == 0.0 and math.copysign(1.0, ds.columns["x0"][0]) == -1.0
    rows[123][4] = "1e-3"
    write_table(path, header, rows, quoted=False)
    ds = load_dataset(path, 1.0)
    assert calls == ["1e-3"]
    assert ds.columns["x1"][123] == 0.001


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def demo_tree():
    return AlphaTree(
        Node(
            SplitTest("x", "numeric", threshold=0.5),
            Leaf(0, 1.0),
            Node(SplitTest("c", "categorical", modality="red"),
                 Leaf(1, -2.25), Leaf(2, 0.0)),
        )
    )


def test_model_round_trip_bytes_and_outputs(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        tree = random_tree(rng, max_depth=4)
        meta = ModelMeta(clip_B=float(rng.uniform(0.5, 4.0)),
                         scoring="audacious" if trial % 2 else "conservative",
                         strategy="cvar", config_digest="abc123",
                         iterations=int(rng.integers(0, 40)))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, tree, meta)
        tree2, meta2 = load_model(p1)
        save_model(p2, tree2, meta2)
        assert p1.read_bytes() == p2.read_bytes()
        assert meta2 == meta
        cols = probe_columns(rng, 100)
        q = rng.uniform(0.2, 0.8, 100)
        assert np.array_equal(wrapped_scores(tree, cols, q),
                              wrapped_scores(tree2, cols, q))


def test_model_rejects_non_finite_values():
    # leaves refuse a non-finite alpha outright; the annotations are only
    # caught at serialization time
    with pytest.raises(DomainError, match="alpha must be finite"):
        Leaf(0, math.nan)
    tree = AlphaTree(Leaf(0, 1.0, edge=math.nan))
    with pytest.raises(ModelFormatError, match="non-finite"):
        model_to_json(tree, ModelMeta(clip_B=1.0))
    text = model_to_json(demo_tree(), ModelMeta(clip_B=1.0))
    with pytest.raises(ModelFormatError, match="non-finite constant 'NaN'"):
        model_from_json(text.replace("1.0", "NaN", 1))


def model_json_reference(tree, meta):
    """The model file as json.dumps writes the nested model object."""
    nested = {
        "clip_B": float(meta.clip_B),
        "format_version": "1",
        "provenance": {
            "config_digest": str(meta.config_digest),
            "iterations": int(meta.iterations),
            "strategy": str(meta.strategy),
        },
        "scoring": meta.scoring,
        "tree": node_to_obj_reference(tree.root),
    }
    return json.dumps(nested, sort_keys=True, indent=2, allow_nan=False) + "\n"


@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 6), feature=st.text(max_size=6),
       modality=st.text(max_size=6), strategy=st.text(max_size=6), digest=st.text(max_size=6),
       iterations=st.integers(0, 10**6), clip_B=st.floats(1e-3, 1e3),
       scoring=st.sampled_from(("conservative", "audacious")),
       annotations=st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                             st.floats(allow_nan=False, allow_infinity=False)),
       bad=st.tuples(st.integers(0, 2**16), st.sampled_from(("edge", "mass")),
                     st.sampled_from((math.nan, math.inf, -math.inf))))
@settings(max_examples=200, deadline=None)
def test_model_to_json_writes_what_json_dumps_writes(seed, depth, feature, modality, strategy, digest,
                                                     iterations, clip_B, scoring, annotations, bad):
    rng = np.random.default_rng(seed)
    grown = random_tree(rng, max_depth=depth)
    k = grown.n_leaves
    # a root test and a last leaf whose strings and annotations hypothesis draws
    tree = AlphaTree(Node(SplitTest(feature, "categorical", None, modality), grown.root,
                          Leaf(k, -1.5, edge=annotations[0], mass=annotations[1])))
    tree = tree.with_leaf_updates({leaf.leaf_id: replace(leaf, edge=float(rng.uniform(-1.0, 1.0)),
                                                         mass=float(rng.random()))
                                   for leaf in tree.leaves()[:k]})
    meta = ModelMeta(clip_B=clip_B, scoring=scoring, strategy=strategy, config_digest=digest,
                     iterations=iterations)
    assert model_to_json(tree, meta) == model_json_reference(tree, meta)

    at, field, value = bad
    leaf = tree.leaves()[at % (k + 1)]
    tree = tree.with_leaf_updates({leaf.leaf_id: replace(leaf, **{field: value})})
    with pytest.raises(ValueError) as want:
        model_json_reference(tree, meta)
    with pytest.raises(ModelFormatError) as got:
        model_to_json(tree, meta)
    assert str(got.value) == f"model holds a non-finite value: {want.value}"


def test_model_to_json_writes_the_deepest_tree_as_json_dumps_does():
    tree = chain_tree(960)
    meta = ModelMeta(clip_B=1.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)  # the reference's encoder nests one generator per level
    try:
        want = model_json_reference(tree, meta)
    finally:
        sys.setrecursionlimit(limit)
    assert model_to_json(tree, meta) == want


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_routing_and_the_model_writer_take_no_stack_per_level():
    tree = chain_tree(960)
    groups = np.array([f"g{i}" for i in range(961)], dtype=object)  # no test names g960
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        ids = route_rows(tree, {"g": groups}, groups.shape[0])
        text = model_to_json(tree, ModelMeta(clip_B=1.0))
    finally:
        sys.setrecursionlimit(limit)
    assert ids.tolist() == list(range(961))
    assert text.count('"kind": "node"') == 960


def test_model_file_test_feature_must_be_a_string():
    # str() of any other value would load as a test on a column named None, 3 or ['x'],
    # and saving the loaded model would write other bytes
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))
    for value in (None, 3, True, ["x"], {"x": 1}):
        for path, where in (([], "tree"), (["right"], "tree.right")):
            obj = json.loads(json.dumps(good))
            node = obj["tree"]
            for side in path:
                node = node[side]
            node["test"]["feature"] = value
            with pytest.raises(ModelFormatError) as exc:
                model_from_json(json.dumps(obj))
            assert str(exc.value) == f"{where}: feature must be a string"


def test_model_from_json_top_level_errors():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        model_from_json("{nope")
    with pytest.raises(ModelFormatError, match="top level must be an object"):
        model_from_json("[1, 2]")
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))

    bad = dict(good)
    del bad["tree"]
    with pytest.raises(ModelFormatError, match=r"missing keys \['tree'\]"):
        model_from_json(json.dumps(bad))
    bad = dict(good, extra=1)
    with pytest.raises(ModelFormatError, match=r"unknown keys \['extra'\]"):
        model_from_json(json.dumps(bad))
    bad = dict(good, format_version="2")
    with pytest.raises(ModelFormatError, match="unsupported format_version '2'"):
        model_from_json(json.dumps(bad))
    bad = dict(good, clip_B=True)
    with pytest.raises(ModelFormatError, match="clip_B must be a number"):
        model_from_json(json.dumps(bad))
    bad = dict(good, clip_B=-1.0)
    with pytest.raises(ModelFormatError, match="clip_B must be a positive"):
        model_from_json(json.dumps(bad))
    bad = dict(good, scoring="bold")
    with pytest.raises(ModelFormatError, match="unknown scoring mode 'bold'"):
        model_from_json(json.dumps(bad))


def test_model_from_json_provenance_errors():
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))
    bad = dict(good, provenance="none")
    with pytest.raises(ModelFormatError, match="provenance must be an object"):
        model_from_json(json.dumps(bad))
    bad = dict(good, provenance=dict(good["provenance"], iterations=-1))
    with pytest.raises(ModelFormatError, match="iterations must be an integer"):
        model_from_json(json.dumps(bad))
    bad = dict(good, provenance=dict(good["provenance"], iterations=True))
    with pytest.raises(ModelFormatError, match="iterations must be an integer"):
        model_from_json(json.dumps(bad))
    prov = dict(good["provenance"], strategy=3)
    bad = dict(good, provenance=prov)
    with pytest.raises(ModelFormatError, match="provenance.strategy must be a string"):
        model_from_json(json.dumps(bad))
    prov = dict(good["provenance"])
    del prov["config_digest"]
    bad = dict(good, provenance=prov)
    with pytest.raises(ModelFormatError, match=r"missing keys \['config_digest'\]"):
        model_from_json(json.dumps(bad))


def test_model_from_json_tree_errors():
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))

    def with_tree(tree_obj):
        return json.dumps(dict(good, tree=tree_obj))

    leaf = {"kind": "leaf", "leaf_id": 0, "alpha": 1.0, "edge": 0.0, "mass": 0.0}
    with pytest.raises(ModelFormatError, match="expected an object"):
        model_from_json(with_tree([1]))
    with pytest.raises(ModelFormatError, match="unknown node kind 'branch'"):
        model_from_json(with_tree(dict(leaf, kind="branch")))
    with pytest.raises(ModelFormatError, match="leaf_id must be an integer"):
        model_from_json(with_tree(dict(leaf, leaf_id=0.5)))
    with pytest.raises(ModelFormatError, match="alpha must be a number"):
        model_from_json(with_tree(dict(leaf, alpha="big")))
    with pytest.raises(ModelFormatError, match=r"missing keys \['mass'\]"):
        bad = dict(leaf)
        del bad["mass"]
        model_from_json(with_tree(bad))

    node = {
        "kind": "node",
        "test": {"feature": "x", "kind": "numeric", "threshold": 0.5},
        "left": leaf,
        "right": dict(leaf, leaf_id=1),
    }
    with pytest.raises(ModelFormatError, match="threshold must be a number"):
        bad_test = dict(node["test"], threshold="mid")
        model_from_json(with_tree(dict(node, test=bad_test)))
    with pytest.raises(ModelFormatError, match="unknown test kind 'ordinal'"):
        bad_test = {"feature": "x", "kind": "ordinal", "threshold": 0.5}
        model_from_json(with_tree(dict(node, test=bad_test)))
    with pytest.raises(ModelFormatError, match="modality must be a string"):
        bad_test = {"feature": "c", "kind": "categorical", "modality": 3}
        model_from_json(with_tree(dict(node, test=bad_test)))
    # duplicate leaf ids fail the tree's own invariant, surfaced as a format error
    with pytest.raises(ModelFormatError, match="leaf identifiers must be unique"):
        model_from_json(with_tree(dict(node, right=leaf)))


def test_model_from_json_rejects_leaf_ids_no_table_holds_and_infinite_numbers():
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))

    def with_leaf(path, **changes):
        obj = json.loads(json.dumps(good))
        node = obj["tree"]
        for side in path:
            node = node[side]
        node.update(changes)
        return json.dumps(obj)

    # three leaves: ids 0 to 6 index a table, since a grown tree tops out below twice its leaves
    tree, _ = model_from_json(with_leaf(["right", "right"], leaf_id=6))
    assert sorted(leaf.leaf_id for leaf in tree.leaves()) == [0, 1, 6]
    for path, leaf_id in ((["left"], -1), (["right", "left"], 7), (["right", "right"], 2**70)):
        where = ".".join(["tree", *path])
        with pytest.raises(ModelFormatError) as info:
            model_from_json(with_leaf(path, leaf_id=leaf_id))
        assert str(info.value) == f"{where}: leaf_id must be an integer in [0, 6], got {leaf_id}"

    text = model_to_json(demo_tree(), ModelMeta(clip_B=1.0))
    for raw in ("1e999", "-1e999", "1" + "0" * 400):
        with pytest.raises(ModelFormatError) as info:
            model_from_json(text.replace('"threshold": 0.5', f'"threshold": {raw}'))
        assert str(info.value) == "tree: threshold must be finite"
        with pytest.raises(ModelFormatError) as info:
            model_from_json(text.replace('"alpha": -2.25', f'"alpha": {raw}'))
        assert str(info.value) == "tree.right.left: alpha must be finite"
    with pytest.raises(ModelFormatError, match="^clip_B must be finite$"):
        model_from_json(text.replace('"clip_B": 1.0', '"clip_B": 1e999'))


@pytest.mark.parametrize("leaf_id", [-1, 2**70])
def test_cli_rejects_a_leaf_id_no_table_holds(tmp_path, capsys, leaf_id):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    scoring_model(model)
    model.write_text(model.read_text().replace('"leaf_id": 0', f'"leaf_id": {leaf_id}'))
    message = f"error: tree.left: leaf_id must be an integer in [0, 6], got {leaf_id}\n"
    for argv in (["apply", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "o.csv")],
                 ["eval", "--data", str(data), "--model", str(model), "--split", "all"],
                 ["inspect", "--model", str(model)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message


def test_cli_rejects_an_integer_too_long_to_read(tmp_path, capsys):
    # int() reads at most 4,300 digits
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    scoring_model(model)
    model.write_text(model.read_text().replace('"threshold": 0.0', '"threshold": 1' + "0" * 5000))
    assert main(["inspect", "--model", str(model)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid JSON: Exceeds the limit (4300 digits)")
    schema = tmp_path / "schema.json"
    schema.write_text('{"clip_B": 1' + "0" * 5000 + "}")
    assert main(train_args(data, tmp_path / "m2.json", ["--schema", str(schema)])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid schema JSON: Exceeds the limit (4300 digits)")


def test_model_meta_validation():
    with pytest.raises(DomainError):
        ModelMeta(clip_B=0.0)
    with pytest.raises(DomainError):
        ModelMeta(clip_B=math.inf)
    with pytest.raises(DomainError):
        ModelMeta(clip_B=1.0, scoring="bold")
    with pytest.raises(DomainError):
        ModelMeta(clip_B=1.0, iterations=-1)


def test_model_json_is_sorted_and_stable():
    text = model_to_json(demo_tree(), ModelMeta(clip_B=1.5))
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert text == model_to_json(*model_from_json(text))


# ---------------------------------------------------------------------------
# split and fold plans
# ---------------------------------------------------------------------------


def test_split_plan_largest_remainder_exact():
    labels = [1] * 10
    groups = ["g"] * 10
    roles = split_plan(labels, groups, seed=0)
    counts = {r: int(np.sum(roles == r)) for r in ("train", "cal", "test")}
    assert counts == {"train": 4, "cal": 4, "test": 2}


def test_split_plan_remainder_ties_favor_earlier_role():
    # n=4: raw quotas (1.6, 1.6, 0.8); the two spare slots go to the largest
    # remainders, test first, then the earlier of the tied 0.6s
    roles = split_plan([1] * 4, ["g"] * 4, seed=3)
    counts = {r: int(np.sum(roles == r)) for r in ("train", "cal", "test")}
    assert counts == {"train": 2, "cal": 1, "test": 1}


def test_split_plan_is_stratified():
    labels = [1] * 10 + [-1] * 5
    groups = ["a"] * 10 + ["b"] * 5
    roles = split_plan(labels, groups, seed=11)
    pos = roles[:10]
    neg = roles[10:]
    assert int(np.sum(pos == "train")) == 4 and int(np.sum(pos == "test")) == 2
    assert int(np.sum(neg == "train")) == 2 and int(np.sum(neg == "test")) == 1


def test_split_plan_deterministic_in_seed():
    labels = [1, -1] * 20
    groups = ["a", "b"] * 20
    a = split_plan(labels, groups, seed=5)
    b = split_plan(labels, groups, seed=5)
    c = split_plan(labels, groups, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        split_plan([], [], seed=0)
    with pytest.raises(DomainError):
        split_plan([1, 1], ["a"], seed=0)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("ALPHATREE_SEED", raising=False)
    assert resolve_seed(None) == 0
    assert resolve_seed(42) == 42
    monkeypatch.setenv("ALPHATREE_SEED", "17")
    assert resolve_seed(None) == 17
    assert resolve_seed(42) == 42
    monkeypatch.setenv("ALPHATREE_SEED", "lots")
    with pytest.raises(DomainError, match="ALPHATREE_SEED"):
        resolve_seed(None)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def cli_csv(path, n_per_group=30):
    rng = np.random.default_rng(9)
    rows = []
    for i in range(n_per_group):
        rows.append([round(float(rng.normal()), 4), "a",
                     1 if i % 2 == 0 else -1, 0.6])
        rows.append([round(float(rng.normal()), 4), "b",
                     1 if i % 2 == 0 else -1, 0.3])
    write_csv(path, ["x", "group", "label", "score"], rows)


def train_args(data, out, extra=()):
    return ["train", "--data", str(data), "--strategy", "sp",
            "--direction", "up", "--clip-B", "3", "--split", "all",
            "--rounds", "2", "--iterations", "4", "--epsilon", "0.1",
            "--out", str(out), *extra]


def test_cli_import_loads_nothing_beyond_numpy():
    # every command is a fresh process that pays the cli's import time, so
    # the cli may load only itself, numpy and the standard library
    src = str(Path(alphatree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy\n"
        "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "import alphatree.cli\n"
        "print(sorted(tops() - before - set(sys.stdlib_module_names)))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['alphatree']"


def test_cli_train_apply_eval_inspect(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    trace = tmp_path / "t.csv"
    assert main(train_args(data, model, ["--trace-out", str(trace)])) == 0
    out = capsys.readouterr().out
    assert f"wrote {model}" in out
    tree, meta = load_model(model)
    assert meta.strategy == "sp"
    assert meta.clip_B == 3.0

    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "iteration,metric,value,group,event"
    assert any(",sp_gap," in line for line in trace_lines[1:])

    applied = tmp_path / "out.csv"
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 0
    capsys.readouterr()
    lines = applied.read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["q_fair", "pred"]
    ds = load_dataset(data, 3.0)
    expect = wrapped_scores(tree, ds.columns, ds.scores)
    got = np.array([float(line.split(",")[-2]) for line in lines[1:]])
    assert np.array_equal(got, expect)
    preds = np.array([int(line.split(",")[-1]) for line in lines[1:]])
    assert np.array_equal(preds, np.where(expect > 0.5, 1, -1))

    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all", "--beta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 60
    assert report["n_leaves"] == tree.n_leaves
    assert report["zero_one"] == pytest.approx(
        metric_zero_one(ds, tree), abs=1e-12)
    assert report["cvar"] == pytest.approx(
        metric_cvar(ds, tree, label_plugin(ds.labels), 0.5), abs=1e-12)
    assert set(report["subgroup_risks"]) == {"a", "b"}

    assert main(["inspect", "--model", str(model)]) == 0
    text = capsys.readouterr().out
    assert "clip_B: 3.0" in text
    assert "strategy: sp" in text
    assert f"leaves: {tree.n_leaves}" in text


def test_cli_eval_routes_its_rows_once(tmp_path, capsys, monkeypatch):
    # every figure of the report looked its alphas up by routing all rows again
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    capsys.readouterr()
    real = alphatree.core.route_rows
    routed = []
    monkeypatch.setattr(alphatree.core, "route_rows", lambda tree, columns, n: routed.append(n) or real(tree, columns, n))
    assert main(["eval", "--data", str(data), "--model", str(model), "--split", "all"]) == 0
    assert routed == [60]
    report = json.loads(capsys.readouterr().out)
    ds = load_dataset(data, 3.0)
    tree, _ = load_model(model)
    assert report["sp_gap"] == metric_sp_gap(ds, tree) and report["md"] == metric_md(ds, tree)


def test_cli_inspect_classifies_alphas(tmp_path, capsys):
    tree = AlphaTree(
        Node(SplitTest("x", "numeric", threshold=0.0),
             Node(SplitTest("x", "numeric", threshold=-1.0),
                  Leaf(0, 1.0), Leaf(1, 2.5)),
             Node(SplitTest("x", "numeric", threshold=1.0),
                  Leaf(2, 0.25), Node(SplitTest("c", "categorical", modality="m"),
                                      Leaf(3, 0.0), Leaf(4, -3.0)))))
    path = tmp_path / "m.json"
    save_model(path, tree, ModelMeta(clip_B=1.0))
    assert main(["inspect", "--model", str(path)]) == 0
    text = capsys.readouterr().out
    assert "identity (alpha=1)" in text
    assert "sharpening (alpha>1)" in text
    assert "dampening (0<alpha<1)" in text
    assert "flattening (alpha=0)" in text
    assert "polarity-reversing (alpha<0)" in text
    assert "depth: 3" in text


def test_cli_trace_to_stdout(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    args = train_args(data, model)
    args[0] = "trace"
    i = args.index("--out")
    del args[i : i + 2]
    assert main(args + ["--model-out", str(model)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "iteration,metric,value,group,event"
    assert model.exists()


def test_cli_user_errors_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(["apply", "--data", str(data), "--model",
                 str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["inspect", "--model", str(bad)]) == 2
    assert "error: invalid JSON" in capsys.readouterr().err

    ragged = tmp_path / "r.csv"
    ragged.write_text("x,group,label,score\n1,a,+1\n", encoding="utf-8")
    assert main(train_args(ragged, model)) == 2
    assert "error: row 1" in capsys.readouterr().err


def test_cli_train_and_eval_reject_nan_feature(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    capsys.readouterr()
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[7] = "nan" + lines[7][lines[7].index(","):]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = "error: row 7: feature 'x' value 'nan' is not finite"
    assert main(train_args(data, tmp_path / "m2.json")) == 2
    assert message in capsys.readouterr().err
    assert main(["eval", "--data", str(data), "--model", str(model), "--split", "all"]) == 2
    assert message in capsys.readouterr().err


def test_cli_apply_reads_tested_columns_by_kind(tmp_path, capsys):
    # group labels "0"/"1"/"2" look numeric, but the model tests the group
    # column by equality, so apply must keep it as strings, as train did
    rng = np.random.default_rng(12)
    n = 20_000
    g = rng.integers(0, 3, n)
    x = np.round(rng.normal(0.0, 1.0, n), 3)
    scores = np.round(expit(x + 0.6 * g - 0.6), 4)
    labels = np.where(rng.random(n) < expit(1.5 * x), 1, -1)
    rows = [[x[i], str(g[i]), labels[i], scores[i]] for i in range(n)]
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "group", "label", "score"], rows)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    tree, _ = load_model(model)
    assert tree.feature_kinds() == {"group": "categorical", "x": "numeric"}

    applied = tmp_path / "out.csv"
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 0
    capsys.readouterr()
    got = np.array([float(line.split(",")[-2])
                    for line in applied.read_text().splitlines()[1:]])
    ds = load_dataset(data, 3.0)
    expect = wrapped_scores(tree, ds.columns, ds.scores)
    assert np.max(np.abs(got - expect)) <= 1e-12

    rows[4][0] = "nan"
    write_csv(data, ["x", "group", "label", "score"], rows)
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 2
    assert "error: row 5: feature 'x' value 'nan' is not finite" in capsys.readouterr().err

    write_csv(data, ["group", "label", "score"], [row[1:] for row in rows[:10]])
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 2
    assert "error: missing feature column 'x'" in capsys.readouterr().err


def test_cli_eval_reads_tested_columns_by_kind(tmp_path, capsys):
    # train sees codes A1, B2, 7 and 8, so it reads code as categorical; the
    # eval file holds only 7 and 8, which on their own would read as numbers
    rng = np.random.default_rng(5)

    def write_rows(path, n, codes):
        code = rng.choice(np.array(codes), n)
        group = rng.choice(np.array(["a", "b"]), n)
        x = np.round(rng.normal(size=n), 3)
        # the black box ignores code, which flips the label odds on 7 and 8
        p = np.select([code == "7", code == "8"], [0.1, 0.9], expit(2 * x))
        labels = np.where(rng.random(n) < p, 1, -1)
        scores = np.round(expit(2 * x), 4)
        write_csv(path, ["x", "code", "label", "group", "score"],
                  zip(x, code, labels, group, scores))

    train, holdout, model = tmp_path / "train.csv", tmp_path / "eval.csv", tmp_path / "m.json"
    write_rows(train, 4000, ["A1", "B2", "7", "8"])
    write_rows(holdout, 4000, ["7", "8"])
    assert main(["train", "--data", str(train), "--strategy", "cvar", "--iterations", "8",
                 "--min-child-count", "200", "--out", str(model)]) == 0
    tree, meta = load_model(model)
    assert tree.feature_kinds()["code"] == "categorical"
    text = model.read_text(encoding="utf-8")
    assert '"modality": "7"' in text or '"modality": "8"' in text
    capsys.readouterr()

    assert main(["eval", "--data", str(holdout), "--model", str(model)]) == 0
    report = json.loads(capsys.readouterr().out)
    ds = load_dataset(holdout, meta.clip_B, kinds={"code": "categorical"})
    eta = label_plugin(ds.labels)
    expect = {
        "zero_one": metric_zero_one(ds, tree),
        "auc": metric_auc(ds, tree),
        "eoo_gap": metric_eoo_gap(ds, tree),
        "sp_gap": metric_sp_gap(ds, tree),
        "md": metric_md(ds, tree),
        "cvar": metric_cvar(ds, tree, eta, 0.5),
        "empirical_kl": empirical_kl(full_view(ds).weights, ds.scores,
                                     wrapped_scores(tree, ds.columns, ds.scores)),
    }
    for key, value in expect.items():
        assert abs(report[key] - value) <= 1e-12, key
    for g, risk in subgroup_risks(ds, tree, eta).items():
        assert abs(report["subgroup_risks"][g] - risk) <= 1e-12, g

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"feature_kinds": {"code": "numeric"}}), encoding="utf-8")
    assert main(["eval", "--data", str(holdout), "--model", str(model),
                 "--schema", str(schema)]) == 2
    assert ("error: schema reads feature 'code' as numeric, but the model tests it as categorical"
            in capsys.readouterr().err)


def test_cli_bad_induction_flags_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    for flag, value in (("--min-child-fraction", "0.6"), ("--min-child-count", "0"),
                        ("--iterations", "-1")):
        assert main(train_args(data, tmp_path / "m.json", [flag, value])) == 2, flag
        assert capsys.readouterr().err.startswith("error: "), flag


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_cli_rejects_a_field_over_the_csv_limit(tmp_path, capsys, end):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    capsys.readouterr()
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[3] = "x" * 140_000 + lines[3][lines[3].index(","):]
    data.write_bytes(end.join(lines + [""]).encode("utf-8"))
    message = f"error: row 3: field larger than field limit ({csv.field_size_limit()})\n"
    assert main(["eval", "--data", str(data), "--model", str(model), "--split", "all"]) == 2
    assert capsys.readouterr().err == message
    assert main(train_args(data, tmp_path / "m2.json")) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("quoted", [False, True])
def test_cli_apply_writes_the_bytes_of_csv_writer(tmp_path, capsys, quoted):
    rng = np.random.default_rng(21)
    n = 40
    header = ["x", "cat", "label", "group", "score"]
    rows = [[f"{rng.normal():.4f}", "ab"[i % 2], "+1" if i % 3 else "-1", "g",
             f"{rng.uniform(0.05, 0.95):.3f}"] for i in range(n)]
    if quoted:
        rows[5][1] = "a,b"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    data = tmp_path / "d.csv"
    data.write_text(buf.getvalue(), encoding="utf-8", newline="")
    tree = AlphaTree(Node(SplitTest("cat", "categorical", modality="a,b" if quoted else "a"),
                          Leaf(0, 0.5),
                          Node(SplitTest("x", "numeric", threshold=0.0), Leaf(1, 2.0), Leaf(2, -1.0))))
    model = tmp_path / "m.json"
    save_model(model, tree, ModelMeta(clip_B=2.0))
    out = tmp_path / "o.csv"
    assert main(["apply", "--data", str(data), "--model", str(model), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({n} rows)\n"

    columns = {"x": np.array([float(r[0]) for r in rows]), "cat": np.array([r[1] for r in rows], dtype=object)}
    q_f = wrapped_scores(tree, columns, clip_score(np.array([float(r[4]) for r in rows]), 2.0))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header + ["q_fair", "pred"])
    for row, q in zip(rows, q_f):
        writer.writerow(row + [repr(float(q)), 1 if q > 0.5 else -1])
    assert out.read_bytes() == want.getvalue().encode("utf-8")
    with open(out, newline="", encoding="utf-8") as fh:
        written = list(csv.reader(fh))
    assert written[1:] == [row + written[i + 1][-2:] for i, row in enumerate(rows)]
    got = np.array([float(row[-2]) for row in written[1:]])
    assert np.max(np.abs(got - q_f)) <= 1e-12
    assert set(route_rows(tree, columns, n).tolist()) == {0, 1, 2}


def test_cli_schema_file(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rows = [[i, "a" if i % 2 else "b", "+1" if i % 3 else "-1", 0.5 + 0.004 * i]
            for i in range(40)]
    write_csv(data, ["z", "grp", "lbl", "sc"], rows)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "label_column": "lbl", "group_column": "grp", "score_column": "sc",
        "feature_kinds": {"z": "categorical"}, "clip_B": 2.0,
    }), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--strategy", "sp", "--direction", "up", "--split", "all",
                 "--rounds", "1", "--iterations", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    _, meta = load_model(model)
    assert meta.clip_B == 2.0

    schema.write_text(json.dumps({"labels": "lbl"}), encoding="utf-8")
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--strategy", "sp", "--split", "all", "--out", str(model)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_cli_schema_value_of_the_wrong_type_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "group", "label", "score"],
              [[i % 7, "ab"[i % 2], 1 if i % 3 else -1, 0.3 + 0.002 * i] for i in range(60)])
    schema = tmp_path / "schema.json"
    model = tmp_path / "m.json"
    args = ["train", "--data", str(data), "--schema", str(schema), "--strategy", "sp", "--split", "all",
            "--rounds", "1", "--iterations", "1", "--out", str(model)]
    # a list of kinds was a traceback from load_dataset, and a bool or a string clip_B trained in silence
    for entry, message in (
        ({"feature_kinds": ["x"]}, "schema feature_kinds must be an object"),
        ({"clip_B": True}, "schema clip_B must be a number"),
        ({"clip_B": "2"}, "schema clip_B must be a number"),
        ({"clip_B": math.inf}, "schema clip_B must be finite"),  # json writes and reads it as Infinity
        ({"label_column": 3}, "schema label_column must be a string"),
        ({"weight_column": None}, "schema weight_column must be a string"),
        ({"group_column": ["group"]}, "schema group_column must be a string"),
    ):
        schema.write_text(json.dumps(entry), encoding="utf-8")
        assert main(args) == 2, entry
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()
    # an integer clip_B is a number
    schema.write_text(json.dumps({"clip_B": 2}), encoding="utf-8")
    assert main(args) == 0
    assert load_model(model)[1].clip_B == 2.0


def test_cli_schema_kind_for_a_missing_column_exits_2(tmp_path, capsys):
    # "cdoe" is a typo for "code": silently ignored, it would leave code numeric
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "code", "group", "label", "score"],
              [[i % 7, 1 + i % 2, "ab"[i % 2], 1 if i % 3 else -1, 0.3 + 0.002 * i] for i in range(200)])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"feature_kinds": {"cdoe": "categorical"}}), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(train_args(data, model, ["--schema", str(schema)])) == 2
    assert capsys.readouterr().err == "error: missing feature column 'cdoe'\n"
    assert not model.exists()


def test_cli_eval_reports_null_eoo_gap_for_a_group_without_positives(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 600
    group = np.array(["a", "b", "c"])[np.arange(n) % 3]
    x = np.round(rng.normal(size=n), 3)
    labels = np.where((rng.random(n) < expit(2 * x)) & (group != "c"), 1, -1)
    scores = np.round(expit(2 * x - (group == "b")), 4)
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "group", "label", "score"], zip(x, group, labels, scores))
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--strategy", "eoo", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--model", str(model)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eoo_gap"] is None
    tree, meta = load_model(model)
    ds = load_dataset(data, meta.clip_B, kinds=tree.feature_kinds())
    with pytest.raises(EmptyMeasureError, match="group 'c' has no positive rows"):
        metric_eoo_gap(ds, tree)
    assert abs(report["sp_gap"] - metric_sp_gap(ds, tree)) <= 1e-12
    assert set(report["subgroup_risks"]) == {"a", "b", "c"}


def test_cli_split_roles_and_seed_env(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model1 = tmp_path / "m1.json"
    model2 = tmp_path / "m2.json"
    monkeypatch.setenv("ALPHATREE_SEED", "33")
    args1 = train_args(data, model1)
    i = args1.index("all")
    args1[i] = "train"
    assert main(args1) == 0
    args2 = train_args(data, model2)
    args2[args2.index("all")] = "train"
    assert main(args2) == 0
    capsys.readouterr()
    # same env seed -> same split -> byte-identical models
    assert model1.read_bytes() == model2.read_bytes()
    monkeypatch.setenv("ALPHATREE_SEED", "oops")
    assert main(args1) == 2
    assert "ALPHATREE_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "env"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, source):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    args = train_args(data, model)
    args[args.index("all")] = "train"
    if source == "flag":
        monkeypatch.delenv("ALPHATREE_SEED", raising=False)
        args += ["--seed", "-1"]
        message = "error: --seed must be a nonnegative integer, got -1"
    else:
        monkeypatch.setenv("ALPHATREE_SEED", "-4")
        message = "error: ALPHATREE_SEED must be a nonnegative integer, got -4"
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not model.exists()


@pytest.mark.parametrize("strategy, flag, value, message", [
    ("eoo", "--epsilon", "nan", "eps must be positive and finite"),
    ("sp", "--epsilon", "nan", "eps must be positive and finite"),
    ("sp", "--epsilon", "inf", "eps must be positive and finite"),
    ("eoo", "--K", "nan", "K must be finite and exceed 1"),
    ("eoo", "--K", "inf", "K must be finite and exceed 1"),
    ("cvar", "--risk-threshold", "nan", "risk_threshold must be finite"),
])
def test_cli_rejects_non_finite_driver_settings(tmp_path, capsys, strategy, flag, value, message):
    data = tmp_path / "d.csv"
    proxy_csv(data)
    model = tmp_path / "m.json"
    args = ["train", "--data", str(data), "--strategy", strategy, "--split", "all",
            "--rounds", "1", "--iterations", "2", "--out", str(model)]
    assert main(args) == 0
    capsys.readouterr()
    model.unlink()
    assert main(args + [flag, value]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not model.exists()


@pytest.mark.parametrize("flags, message", [
    (["--strategy", "cvar", "--estimator", "gaussian"],
     "no feature columns to fit the posterior estimate on"),
    (["--strategy", "eoo", "--estimator", "gaussian"],
     "no feature columns to fit the posterior estimate on"),
    (["--strategy", "sp", "--init", "proxy"], "no feature columns to grow the proxy group tree on"),
    (["--strategy", "cvar", "--init", "proxy"], "no feature columns to grow the proxy group tree on"),
])
def test_cli_rejects_a_file_without_feature_columns(tmp_path, capsys, flags, message):
    data = tmp_path / "d.csv"
    write_csv(data, ["label", "group", "score"],
              [[1 if i % 3 else -1, "ab"[i % 2], round(0.2 + 0.01 * i, 2)] for i in range(60)])
    model = tmp_path / "m.json"
    args = ["train", "--data", str(data), "--split", "all", "--out", str(model)]
    assert main(args + ["--strategy", flags[1]]) == 0
    capsys.readouterr()
    model.unlink()
    assert main(args + flags) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not model.exists()


@pytest.mark.parametrize("strategy", ["cvar", "sp"])
def test_cli_rejects_a_negative_proxy_depth(tmp_path, capsys, strategy):
    data = tmp_path / "d.csv"
    proxy_csv(data)
    model = tmp_path / "m.json"
    args = ["train", "--data", str(data), "--split", "all", "--strategy", strategy,
            "--rounds", "1", "--iterations", "2", "--init", "proxy", "--out", str(model)]
    assert main(args + ["--proxy-depth", "2"]) == 0
    capsys.readouterr()
    model.unlink()
    assert main(args + ["--proxy-depth", "-3"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: proxy group tree depth must be >= 0, got -3"]
    assert not model.exists()


def test_cli_train_with_proxy_init(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model, ["--init", "proxy",
                                         "--proxy-depth", "2"])) == 0
    capsys.readouterr()
    tree, _ = load_model(model)
    assert tree.n_leaves >= 2


def proxy_csv(path):
    """Groups a and b follow the sign of x; group c is scattered, so no proxy leaf predicts it."""
    rng = np.random.default_rng(13)
    n = 600
    x = np.round(rng.normal(size=n), 3)
    z = np.round(rng.normal(size=n), 3)
    group = np.where((x < 0) ^ (rng.random(n) < 0.1), "a", "b")
    group[rng.random(n) < 0.15] = "c"
    labels = np.where(rng.random(n) < expit(2 * x + z), 1, -1)
    scores = np.round(expit(1.5 * x - 0.5 * (group == "a")), 4)
    write_csv(path, ["x", "z", "group", "label", "score"], zip(x, z, group, labels, scores))


PROXY_RUNS = {
    "cvar": (["--beta", "0.5"],
             lambda ds, tree0, cfg: run_cvar(ds, CvarSpec(beta=0.5, outer_rounds=2, induction=cfg), tree0,
                                             eta_t=label_plugin(ds.labels))),
    "eoo": (["--epsilon", "0.001"],
            lambda ds, tree0, cfg: run_eoo(ds, EooSpec(eps=0.001, induction=cfg), tree0,
                                           eta_estimate=label_plugin(ds.labels))),
    "sp": (["--epsilon", "0.001"],
           lambda ds, tree0, cfg: run_sp(ds, SpSpec(eps=0.001, outer_rounds=2, induction=cfg), tree0)),
}


@pytest.mark.parametrize("strategy", sorted(PROXY_RUNS))
def test_cli_proxy_init_runs_the_driver_on_the_proxy_groups(tmp_path, capsys, strategy):
    data = tmp_path / "d.csv"
    proxy_csv(data)
    model = tmp_path / "m.json"
    trace = tmp_path / "t.csv"
    flags, run = PROXY_RUNS[strategy]
    assert main(["train", "--data", str(data), "--strategy", strategy, "--init", "proxy",
                 "--proxy-depth", "3", "--rounds", "2", "--iterations", "4", *flags,
                 "--out", str(model), "--trace-out", str(trace)]) == 0
    capsys.readouterr()

    # the library run: the driver on the dataset whose groups are the proxy's
    ds = load_dataset(data, 1.0)
    features = {name: ds.columns[name] for name in ds.feature_names}
    proxy = proxy_group_tree(features, ds.feature_kinds(), ds.groups, max_depth=3)
    estimated = proxy.predict(features)
    proxy_ds = make_dataset(features, ds.feature_kinds(), ds.labels, estimated, ds.scores, ds.clip_B)
    tree, lib_trace = run(proxy_ds, proxy.tree, InductionConfig(max_iterations=4))

    _, meta = load_model(model)
    lib_model = tmp_path / "lib.json"
    save_model(lib_model, tree, meta)
    assert model.read_bytes() == lib_model.read_bytes()
    buf = io.StringIO(newline="")
    _write_trace(lib_trace, buf)
    assert trace.read_bytes() == buf.getvalue().encode("utf-8")

    assert set(estimated.tolist()) == {"a", "b"}
    assert {row.group for row in lib_trace.rows if row.group} <= {"a", "b"}
    assert any(row.event.startswith("split") for row in lib_trace.rows)
    assert "group" not in tree.feature_kinds()


@pytest.mark.parametrize("flat", [True, False], ids=["all-half-scores", "clip-B-1e-17"])
def test_cli_audacious_train_keeps_the_alpha_of_leaves_with_no_signal(tmp_path, flat):
    # all-1/2 scores, or a clip level at which both bounds round to 1/2, leave
    # every leaf with no alignment signal: its alpha stays 1 instead of crashing
    rng = np.random.default_rng(19)
    n = 200 if flat else 600
    x = np.round(rng.normal(size=n), 3)
    labels = np.where(rng.random(n) < expit(2 * x), 1, -1)
    scores = np.full(n, 0.5) if flat else np.round(expit(2 * x), 4)
    data, model = tmp_path / "d.csv", tmp_path / "m.json"
    write_csv(data, ["x", "label", "group", "score"], zip(x, labels, rng.choice(["a", "b"], n), scores))
    flags = [] if flat else ["--clip-B", "1e-17"]
    assert main(["train", "--data", str(data), "--strategy", "cvar", "--scoring", "audacious",
                 *flags, "--out", str(model)]) == 0
    tree, meta = load_model(model)
    assert meta.scoring == "audacious"
    assert [leaf.alpha for leaf in tree.leaves()] == [1.0, 1.0]


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-finite figure {name}")
    return json.loads(text, parse_constant=refuse)


def test_cli_eval_reports_null_drift_for_a_saturated_model_train_wrote(tmp_path, capsys):
    rows = [[1, "g", 0.95, i] for i in range(100)]
    rows += [[1 if i % 2 == 0 else 0, "g", 0.6, i] for i in range(100, 200)]
    data = tmp_path / "d.csv"
    write_csv(data, ["label", "group", "score", "x"], rows)
    trained = tmp_path / "trained.json"
    assert main(["train", "--data", str(data), "--strategy", "cvar", "--rounds", "1",
                 "--iterations", "2", "--out", str(trained)]) == 0
    capsys.readouterr()
    tree, meta = load_model(trained)
    ds = load_dataset(data, meta.clip_B, kinds=tree.feature_kinds())
    # the pure leaf x <= 99.5 has edge 1, but train bounds its label below saturation
    top = max(tree.leaves(), key=lambda leaf: abs(leaf.alpha))
    assert 20.0 < abs(top.alpha) * meta.clip_B <= 21.5
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    assert np.all((q_f > 0.0) & (q_f < 1.0))

    # a model file may still hold a saturating alpha, and eval reads it
    tree = tree.with_leaf_updates({top.leaf_id: Leaf(top.leaf_id, A_MAX, edge=top.edge, mass=top.mass)})
    model = tmp_path / "m.json"
    save_model(model, tree, meta)
    assert load_model(model)[0] == tree
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    assert np.any(q_f == 1.0)
    with pytest.raises(DomainError, match="strictly inside"):
        empirical_kl(full_view(ds).weights, ds.scores, q_f)

    assert main(["eval", "--data", str(data), "--model", str(model)]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["empirical_kl"] is None
    assert report["auc"] == metric_auc(ds, tree)
    assert report["subgroup_risks"] == {"g": subgroup_risks(ds, tree)["g"]}


def test_cli_eval_reports_null_auc_for_a_single_class_file(tmp_path, capsys):
    rows = [[1, "ab"[i % 2], round(0.3 + 0.05 * (i % 9), 2), i] for i in range(200)]
    data = tmp_path / "d.csv"
    write_csv(data, ["label", "group", "score", "x"], rows)
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--strategy", "sp", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--model", str(model)]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["auc"] is None
    tree, meta = load_model(model)
    ds = load_dataset(data, meta.clip_B, kinds=tree.feature_kinds())
    with pytest.raises(DomainError, match="both classes"):
        metric_auc(ds, tree)
    assert report["sp_gap"] == metric_sp_gap(ds, tree)


def test_cli_eval_reports_non_finite_figures_as_null(tmp_path, capsys):
    # a wrapped score of exactly 1 on a negative row has infinite log-loss
    data = tmp_path / "d.csv"
    write_csv(data, ["label", "group", "score", "x"],
              [[1 if i % 3 else -1, "ab"[i % 2], 0.9, i] for i in range(60)])
    model = tmp_path / "m.json"
    save_model(model, AlphaTree(Leaf(0, 50.0)), ModelMeta(clip_B=3.0))
    assert main(["eval", "--data", str(data), "--model", str(model)]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["cvar"] is None
    assert report["subgroup_risks"] == {"a": None, "b": None}
    assert report["empirical_kl"] is None
    assert report["zero_one"] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_cli_eval_reports_bound_applicability(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    save_model(model, AlphaTree(Leaf(0, 1.0)), ModelMeta(clip_B=3.0))
    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the identity wrapper sits inside both validity regions at B=3
    assert report["kl_bound_s1"] == pytest.approx(0.0743126266177878, abs=1e-12)
    assert report["kl_bound_s2"] == pytest.approx(math.pi**2 / 24, abs=1e-12)
    assert report["empirical_kl"] == pytest.approx(0.0, abs=1e-12)

    save_model(model, AlphaTree(Leaf(0, 9.0)), ModelMeta(clip_B=3.0))
    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kl_bound_s1"] is None
    assert report["kl_bound_s2"] is None


def scoring_model(path):
    """A model that tests a numeric and a categorical column of cli_csv's files."""
    tree = AlphaTree(Node(SplitTest("x", "numeric", threshold=0.0), Leaf(0, 1.5),
                          Node(SplitTest("group", "categorical", modality="a"), Leaf(1, 0.5), Leaf(2, 1.0))))
    save_model(path, tree, ModelMeta(clip_B=3.0))


@pytest.mark.parametrize("quoted", [False, True])
def test_cli_reads_files_that_start_with_a_byte_order_mark(tmp_path, capsys, quoted):
    # a quoted cell sends the file through the csv module, a plain one is split
    plain = tmp_path / "plain.csv"
    cli_csv(plain)
    text = plain.read_text(encoding="utf-8")
    if quoted:
        text = text.replace(",a,", ',"a",', 1)
        plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    model = tmp_path / "m.json"
    scoring_model(model)
    marked_model = tmp_path / "marked.json"
    marked_model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    outputs = {}
    for name, data, model_file in (("plain", plain, model), ("marked", marked, marked_model)):
        trained = tmp_path / f"trained-{name}.json"
        assert main(train_args(data, trained)) == 0
        applied = tmp_path / f"applied-{name}.csv"
        assert main(["apply", "--data", str(data), "--model", str(model_file), "--out", str(applied)]) == 0
        assert main(["eval", "--data", str(data), "--model", str(model_file), "--split", "all"]) == 0
        assert main(["inspect", "--model", str(model_file)]) == 0
        # the eval report and the inspect listing, less the lines naming written files
        printed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("wrote ")]
        outputs[name] = (trained.read_bytes(), applied.read_bytes(), printed)
    assert outputs["marked"] == outputs["plain"]
    assert outputs["marked"][1].startswith(b"x,group,label,score,q_fair,pred\r\n")


def test_cli_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    text = data.read_text(encoding="utf-8")
    at = text.index(",b,")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(text[:at].encode("utf-8") + ",caf\xe9,".encode("latin-1") + text[at + 3:].encode("utf-8"))
    line = text.count("\n", 0, at) + 1
    message = f"error: {latin}: not UTF-8 text: byte 0xe9 at offset {at + 4} (line {line})\n"
    model = tmp_path / "m.json"
    scoring_model(model)
    assert main(train_args(latin, tmp_path / "m2.json")) == 2
    assert capsys.readouterr().err == message
    assert main(["apply", "--data", str(latin), "--model", str(model), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == message
    assert main(["eval", "--data", str(latin), "--model", str(model), "--split", "all"]) == 2
    assert capsys.readouterr().err == message

    model_text = model.read_bytes()
    at = model_text.index(b"conservative")
    bad_model = tmp_path / "latin.json"
    bad_model.write_bytes(model_text[:at] + b"\xe9" + model_text[at:])
    line = model_text.count(b"\n", 0, at) + 1
    message = f"error: {bad_model}: not UTF-8 text: byte 0xe9 at offset {at} (line {line})\n"
    assert main(["inspect", "--model", str(bad_model)]) == 2
    assert capsys.readouterr().err == message
    assert main(["apply", "--data", str(data), "--model", str(bad_model), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == message

    schema = tmp_path / "schema.json"
    schema.write_bytes('{"group_column": "caf\xe9"}'.encode("latin-1"))
    assert main(train_args(data, tmp_path / "m3.json", ["--schema", str(schema)])) == 2
    assert capsys.readouterr().err == f"error: {schema}: not UTF-8 text: byte 0xe9 at offset 21 (line 1)\n"


def test_cli_rejects_a_model_nested_too_deeply(tmp_path, capsys):
    # a chain of 1,500 nodes, each with a leaf on its left
    leaf = '{{"alpha": 1.0, "edge": 0.0, "kind": "leaf", "leaf_id": {}, "mass": 0.0}}'
    depth = 1500
    tree = "".join(
        f'{{"kind": "node", "left": {leaf.format(i)}, "test": '
        f'{{"feature": "x", "kind": "numeric", "threshold": {i}.0}}, "right": '
        for i in range(depth)
    ) + leaf.format(depth) + "}" * depth
    text = ('{"clip_B": 1.0, "format_version": "1", "provenance": {"config_digest": "", '
            '"iterations": 0, "strategy": "plain"}, "scoring": "conservative", "tree": ' + tree + "}")
    with pytest.raises(ModelFormatError, match="nests too deeply"):
        model_from_json(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["inspect", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: model nests too deeply to decode\n"
    data = tmp_path / "d.csv"
    cli_csv(data)
    schema = tmp_path / "schema.json"
    schema.write_text('{"feature_kinds": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(train_args(data, tmp_path / "m.json", ["--schema", str(schema)])) == 2
    assert capsys.readouterr().err == "error: schema nests too deeply to decode\n"


def many_groups_csv(path, k, n=3000):
    """n rows over k groups g0000, g0001, ...: the group stump of cvar is a chain of k - 1 tests."""
    rng = np.random.default_rng(5)
    write_csv(path, ["x", "group", "label", "score"],
              [[round(float(rng.normal()), 4), f"g{i % k:04d}", 1 if i % 3 else -1, 0.3 + 0.4 * (i % 2)]
               for i in range(n)])


def cvar_args(data, out):
    return ["train", "--data", str(data), "--strategy", "cvar", "--iterations", "2", "--rounds", "1",
            "--out", str(out)]


def test_cli_refuses_a_tree_deeper_than_a_model_file_holds(tmp_path, capsys):
    # routing it, writing it and reading it back would each overflow the recursion limit
    data = tmp_path / "g.csv"
    many_groups_csv(data, 1100)
    assert main(cvar_args(data, tmp_path / "m.json")) == 2
    assert capsys.readouterr().err == "error: tree is 1099 tests deep; a model file holds at most 960\n"


def test_cli_trains_evaluates_and_inspects_a_tree_at_the_depth_bound(tmp_path):
    # 961 groups give a stump exactly 960 tests deep; each recursion over it
    # (an edit and the model read) must fit a command-line process
    data = tmp_path / "g.csv"
    many_groups_csv(data, 961)
    model = tmp_path / "m.json"
    src = str(Path(alphatree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for args in (cvar_args(data, model), ["eval", "--data", str(data), "--model", str(model)],
                 ["inspect", "--model", str(model)]):
        run = subprocess.run([sys.executable, "-m", "alphatree.cli", *args], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    assert "depth: 960\n" in run.stdout


def test_cli_exits_1_with_no_error_line_when_stdout_is_closed(tmp_path):
    # a reader such as `head -1` may exit before the command writes: a pipe whose read end is closed
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    src = str(Path(alphatree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # trace writes as it goes; inspect's few lines wait in the buffer until the final flush
    for args in (["trace", "--data", str(data), "--strategy", "sp", "--split", "all", "--iterations", "2"],
                 ["inspect", "--model", str(model)]):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "alphatree.cli", *args], env=env, stdout=write,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (1, ""), args[0]


MUTATIONS = ("drop", "duplicate", "swap", b'"', b"\r", b"\x00", b"\xe9", b"\xef\xbb\xbf", b"a" * 200_000)


def mutate(data: bytes, ops) -> bytes:
    for op, at in ops:
        i = at % (len(data) + 1)
        if op == "drop":
            data = data[:i] + data[i + 1:]
        elif op == "duplicate":
            data = data[:i] + data[i:i + 1] + data[i:]
        elif op == "swap":
            data = data[:i] + data[i + 1:i + 2] + data[i:i + 1] + data[i + 2:]
        else:
            data = data[:i] + op + data[i:]
    return data


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cli_csv(root / "clean.csv", n_per_group=10)
    scoring_model(root / "m.json")
    return root


@given(ops=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**20)), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_cli_answers_every_mutated_file_with_a_result_or_one_error_line(fuzz_files, ops):
    data = fuzz_files / "mutated.csv"
    data.write_bytes(mutate((fuzz_files / "clean.csv").read_bytes(), ops))
    model = fuzz_files / "m.json"
    for argv in (train_args(data, fuzz_files / "trained.json"),
                 ["apply", "--data", str(data), "--model", str(model), "--out", str(fuzz_files / "o.csv")],
                 ["eval", "--data", str(data), "--model", str(model), "--split", "all"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            assert code == 2, argv[0]
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv[0], lines)


# a mutated model object: a key dropped, or a value swapped for another
# type, a negative, huge or infinite number; RAW values go in unquoted
MODEL_VALUES = (None, True, "x", [], {}, 0, 1, -1, 0.5, -0.5, 2**70, -(2**70), 10**400, 1e308, -1e308,
                "RAW:1e999", "RAW:-1e999", "RAW:1" + "0" * 5000)


def model_paths(obj, out):
    """(container, key) of every value in a decoded JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        out.append((obj, key))
        model_paths(value, out)
    return out


def mutate_model(obj, ops) -> str:
    for at, value in ops:
        paths = model_paths(obj, [])
        if not paths:
            break
        container, key = paths[at % len(paths)]
        if value == "drop":
            del container[key]
        else:
            container[key] = value
    text = json.dumps(obj)
    for value in MODEL_VALUES:
        if isinstance(value, str) and value.startswith("RAW:"):
            text = text.replace(json.dumps(value), value[4:])
    return text


@given(ops=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(("drop",) + MODEL_VALUES)),
                    min_size=1, max_size=3))
# on scoring_model's file: 4 is provenance.iterations, 10 the first alpha, 13 its leaf_id, 36 the threshold
@example(ops=[(10, 1e308)])
@example(ops=[(13, 2**70)])
@example(ops=[(36, 10**400)])
@example(ops=[(36, "RAW:1e999")])
@example(ops=[(4, "RAW:1" + "0" * 5000)])
@settings(max_examples=150, deadline=None)
def test_model_file_mutations_raise_only_model_format_errors(fuzz_files, ops):
    text = mutate_model(json.loads((fuzz_files / "m.json").read_text()), ops)
    try:
        model_from_json(text)
    except ModelFormatError:
        pass
    model = fuzz_files / "mutated.json"
    model.write_text(text, encoding="utf-8")
    data = fuzz_files / "clean.csv"
    for argv in (["inspect", "--model", str(model)],
                 ["apply", "--data", str(data), "--model", str(model), "--out", str(fuzz_files / "o.csv")],
                 ["eval", "--data", str(data), "--model", str(model), "--split", "all"]):
        err = io.StringIO()
        # a warning would print more lines on the command line's stderr
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        if code != 0:
            assert code == 2, argv[0]
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv[0], lines)
