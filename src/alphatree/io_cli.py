"""Dataset ingest, model files, and the split plan.

Ingest reads a CSV file as bytes.  Two tokenizers give one `Table`: a
UTF-8 buffer and every cell's span in it.  Plain text (no quote, no CR)
is split by one numpy pass over its own bytes in blocks of about 2^16
lines; other text goes through the csv module, whose cells are packed
into a buffer of their own.  One converter reads the spans.  A cell
`[+-]digits[.digits]` of 1 to 15 digits is mantissa / 10**k, one IEEE
division of two exact doubles, which is float(cell) bit for bit (Clinger,
PLDI 1990); any other cell goes through float() itself.  Level names are
coded by np.unique over the cells' bytes, whose order is code-point order,
so codes follow sorted(set(...)) of the str cells.

Every numeric column role is read by one rule, `_parse_numbers`: a score
or target cell must lie in [0, 1], a weight must be finite and >= 0, and a
numeric feature value must be finite.  A cell that breaks its role's rule
is a LoadError naming its 1-based data row, the cell and the rule.

Model files are canonical JSON: sorted keys, two-space indent, no NaN, one
trailing newline.  Loading a file and saving it again reproduces the bytes
exactly, which is what makes model diffs trustworthy.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .core import AlphaTree, DomainError, Leaf, Node, SplitTest, _walk, per_row
from .data import Codes, Dataset, category_codes, make_dataset

__all__ = [
    "LoadError",
    "ModelFormatError",
    "ModelMeta",
    "Table",
    "read_text",
    "read_csv",
    "parse_features",
    "parse_probabilities",
    "load_dataset",
    "save_model",
    "load_model",
    "model_to_json",
    "model_from_json",
    "split_plan",
    "resolve_seed",
]

FORMAT_VERSION = "1"
SCORING_MODES = ("conservative", "audacious")


class LoadError(ValueError):
    """A data file failed validation; messages carry 1-based data-row numbers."""


class ModelFormatError(ValueError):
    """A model file violates the canonical layout."""


def _read_utf8(path, error: type[ValueError]) -> bytes:
    """A UTF-8 file's bytes, less the byte-order mark it may start with.

    Bytes that are not UTF-8 are an `error` naming the first bad byte, its
    offset in the file and its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            at = exc.start
            line = data.count(b"\n", 0, at) + 1
            raise error(f"{path}: not UTF-8 text: byte {data[at]:#04x} at offset {at} (line {line})") from None
    return data.removeprefix(codecs.BOM_UTF8)


def read_text(path, error: type[ValueError]) -> str:
    """A UTF-8 file's text, less the byte-order mark it may start with; see `_read_utf8`."""
    return _read_utf8(path, error).decode("utf-8")


# ---------------------------------------------------------------------------
# CSV ingest: two tokenizers give a Table of byte spans, one converter reads them
# ---------------------------------------------------------------------------


_BLOCK = 1 << 16  # the rows of a converter block; a tokenizer block is 64 bytes a row
_LABELS = {"1": 1, "+1": 1, "0": -1, "-1": -1}


@dataclass(frozen=True, eq=False)
class Table:
    """A headed CSV file: its header and every data cell as a span of one UTF-8 buffer.

    Data cell k, counted row by row, is data[bounds[k] + 1 : bounds[k + 1]].
    When the file was split as plain text, data is the file itself and
    `lines` holds each data line's text; when the csv module read it, data
    is the cells joined by commas and `lines` is None.  `column` and
    `columns` decode the cells to str.
    """

    header: list[str]
    data: bytes
    bounds: np.ndarray
    plain: bool

    def spans(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) of column `name`'s cells in `data`."""
        j, width = self.header.index(name), len(self.header)
        return self.bounds[j:-1:width] + 1, self.bounds[j + 1::width]

    def column(self, name: str) -> list[str]:
        data = self.data
        return [data[s:e].decode("utf-8") for s, e in zip(*(a.tolist() for a in self.spans(name)))]

    @property
    def columns(self) -> list[list[str]]:
        return [self.column(name) for name in self.header]

    @cached_property
    def lines(self) -> list[str] | None:
        if not self.plain:
            return None
        return self.data[self.bounds[0] + 1:self.bounds[-1]].decode("utf-8").split("\n")

    @cached_property
    def _windows(self) -> np.ndarray:
        """The 8 bytes from every offset of `data`, as little-endian words."""
        data = self.data.ljust(8, b"\0")
        return np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))

    def words(self, at: np.ndarray) -> np.ndarray:
        """The 8 bytes from each offset in `at`, as little-endian words; bytes outside `data` read as 0."""
        last = self._windows.size - 1
        if at.min() >= 0 and at.max() <= last:
            return self._windows[at]
        inside = np.clip(at, 0, last)
        # a word ahead of the data is shifted up by the missing bytes, one past its end down
        return self._windows[inside] << ((inside - at).clip(0) * 8).astype(np.uint64) \
            >> ((at - inside).clip(0) * 8).astype(np.uint64)


def _split_bytes(data: bytes) -> Table | None:
    """The Table of text the csv module would read as plain splits, from its bytes.

    That is text with no quote and no CR, a header line and at least one
    data line, every data line holding one comma fewer than the header has
    fields, and no field over the csv module's size limit.  Any other text
    is None: the csv module reads it, and names the row at fault.  Each
    comma and line end is found once, in blocks of `_BLOCK` * 64 bytes
    (about `_BLOCK` lines), so the temporaries stay that small.
    """
    if b'"' in data or b"\r" in data:
        return None
    head = data.find(b"\n")
    end = len(data) - data.endswith(b"\n")  # where the last data line ends
    if head <= 0 or end <= head + 1:
        return None
    header = data[:head].decode("utf-8").split(",")
    width = len(header)
    # a blank line is an empty row to the csv module, also at width 1
    if width == 1 and data.find(b"\n\n", head) >= 0:
        return None
    buf = np.frombuffer(data, np.uint8)
    dtype = np.int32 if len(data) < 2**31 else np.int64
    step = _BLOCK * 64
    parts, line_ends = [np.array([head], dtype)], 0
    for a in range(head + 1, end, step):
        chunk = buf[a:min(a + step, end)]
        line_end = chunk == 10
        line_ends += int(np.count_nonzero(line_end))
        parts.append((np.flatnonzero(line_end | (chunk == 44)) + a).astype(dtype))
    parts.append(np.array([end], dtype))
    bounds = np.concatenate(parts)
    del parts
    # with rows - 1 line ends in all, each row ends at one exactly when every line holds width - 1 commas
    rows = line_ends + 1
    if bounds.size != rows * width + 1 or not np.all(buf[bounds[width:-1:width]] == 10):
        return None
    # only a field of more bytes than the limit can hold more characters
    limit = csv.field_size_limit()
    if max(map(len, header)) > limit:
        return None
    for a in range(0, bounds.size - 1, step):
        sizes = np.diff(bounds[a:a + step + 1]) - 1
        for k in np.flatnonzero(sizes > limit).tolist():
            if len(data[bounds[a + k] + 1:bounds[a + k + 1]].decode("utf-8")) > limit:
                return None
    return Table(header, data, bounds, True)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of text as the csv module reads it."""
    # newline="" hands the reader each line end as the file holds it
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        # rows holds the header and the data rows before the one at fault
        raise LoadError(f"row {len(rows)}: {exc}" if rows else f"header row: {exc}") from None
    if not rows:
        raise LoadError("file has no header row")
    return rows[0], rows[1:]


def _pack(header: list[str], rows: list[list[str]]) -> Table:
    """The Table of rows as wide as the header: their cells joined by commas, and the spans."""
    cells = list(chain.from_iterable(rows))
    text = ",".join(cells)
    data = text.encode("utf-8")
    sizes = map(len, cells) if len(data) == len(text) else (len(c.encode("utf-8")) for c in cells)
    bounds = np.empty(len(cells) + 1, np.int64)
    bounds[0] = -1
    np.cumsum(np.fromiter(sizes, np.int64, len(cells)) + 1, out=bounds[1:])
    bounds[1:] -= 1
    return Table(header, data, bounds, False)


def read_csv(path, required: Iterable[str], features: Iterable[str] = ()) -> Table:
    """A headed CSV file as a Table, every row as wide as the header.

    A file with no header row, a repeated column name, no data rows, a row
    of another width or a field over the csv module's size limit is a
    LoadError.  So is a missing column: one of `required`, which the caller
    reads for its role, or one of `features`, which the caller reads by name.
    Text with no quote and no CR is split as plain text; both ways give
    the same cells and the same errors.  A leading byte-order mark is
    dropped, and bytes that are not UTF-8 are a LoadError.
    """
    data = _read_utf8(path, LoadError)
    table = _split_bytes(data)
    if table is None:
        header, rows = _csv_rows(data.decode("utf-8"))
    else:
        header = table.header

    if len(set(header)) != len(header):
        raise LoadError("duplicate column names in header")
    for name in required:
        if name not in header:
            raise LoadError(f"missing required column {name!r}")
    if table is None:
        if not rows:
            raise LoadError("file has no data rows")
        for r, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise LoadError(f"row {r}: expected {len(header)} fields, got {len(row)}")
        table = _pack(header, rows)
    for name in features:
        if name not in header:
            raise LoadError(f"missing feature column {name!r}")
    return table


def _repeat(byte: int) -> np.uint64:
    return np.uint64(int.from_bytes(bytes([byte]) * 8, "little"))


_ONES, _LOW7, _HIGH, _SIX = _repeat(0x01), _repeat(0x7F), _repeat(0x80), _repeat(0x76)
_ZERO, _DOT = _repeat(ord("0")), _repeat(ord(".") ^ ord("0"))
# _FIRST[c] keeps the first c bytes of a word, _LAST[c] its last c
_FIRST = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)
_LAST = np.array([(1 << 64) - (1 << 8 * (8 - c)) for c in range(9)], np.uint64)
_POW10 = np.array([float(10**k) for k in range(16)])
_POW10_INT = np.array([10**k for k in range(16)], np.uint64)


def _count(x: np.ndarray) -> np.ndarray:
    """The sum of the bytes of each word whose bytes are each 0 or 1."""
    return ((x * _ONES) >> np.uint64(56)).view(np.int64)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """Words of 8 digit values 0-9, the first in the low byte, as integers (Lemire 2021)."""
    x = (x * np.uint64(2561)) >> np.uint64(8)
    x = ((x & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601)) >> np.uint64(16)
    return ((x & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001)) >> np.uint64(32)


def _decimals(table: Table, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's value as mantissa / 10**k, and the cells where that is float(cell).

    Those are the cells `[+-]digits[.digits]` of 1 to 15 digits: the
    mantissa is below 2**53 and 10**k at most 10**15, so both are exact
    doubles and their one IEEE division is the correctly rounded value of
    the decimal, as float() gives it (Clinger, PLDI 1990).  Each cell is
    read as one or two words that end where it ends, eight digits per word
    at once (Lemire, Software: Practice and Experience, 2021).
    """
    size = ends - starts
    lead = table.words(starts) & np.uint64(0xFF)
    neg = lead == ord("-")
    signed = neg | (lead == ord("+"))
    words = 1 if (size - signed).max() <= 8 else 2  # a sign may lie ahead of the words
    width = 8 * words
    nondigits = dots = after = 0
    mantissa = np.zeros(size.size, np.uint64)
    for j in range(words):
        # the cell's bytes are the last `size` of the words; the rest read as "0"
        x = (table.words(ends - width + 8 * j) ^ _ZERO) & _LAST[np.clip(size - (width - 8 - 8 * j), 0, 8)]
        nondigit = ((x & _LOW7) + _SIX | x) & _HIGH
        dot = ~(((x ^ _DOT) & _LOW7) + _LOW7 | (x ^ _DOT)) & _HIGH
        nondigits = nondigits + _count(nondigit >> 7)
        dots = dots + _count(dot >> 7)
        # the bytes after the dot: the window ends at byte width - 1, the dot is byte 8 * j + (bytes below it)
        after = np.where(dot > 0, width - 1 - 8 * j - _count((dot >> 7) - 1 & _ONES), after)
        mantissa = mantissa * 10**8 + _eight_digits(x & ~((nondigit >> 7) * 255))
    count = size - dots - signed  # digits, when the rest is one sign and one dot
    exact = ((nondigits == dots + (signed & (size <= width))) & (dots <= 1) & (size <= width + signed)
             & (count >= 1) & (count <= 15))
    # the dot reads as a 0 digit: take it out of the mantissa
    after = np.where(exact, after, 0)
    fraction = mantissa % _POW10_INT[after]
    mantissa = np.where(dots > 0, (mantissa - fraction) // 10 + fraction, mantissa)
    values = mantissa.astype(np.float64) / _POW10[after]
    values *= 1.0 - 2.0 * neg
    return values, exact


def _float(cell: bytes) -> float | None:
    """float() of a cell, or None where it raises."""
    # float() reads no ASCII text without a digit or the "n" of inf and nan
    if cell.isascii() and len(cell.translate(None, b"0123456789nN")) == len(cell):
        return None
    try:
        return float(cell.decode("utf-8"))
    except ValueError:
        return None


def _numbers(table: Table, name: str) -> np.ndarray | None:
    """Column `name` as float() reads each cell, or None when a cell does not parse.

    Blocks of `_BLOCK` cells are read by `_decimals`; only the cells it
    cannot read exactly go through float(), one at a time.
    """
    starts, ends = table.spans(name)
    values = np.empty(starts.size)
    for a in range(0, starts.size, _BLOCK):
        s, e = starts[a:a + _BLOCK], ends[a:a + _BLOCK]
        block, exact = _decimals(table, s, e)
        values[a:a + _BLOCK] = block
        for i in np.flatnonzero(~exact).tolist():
            value = _float(table.data[s[i]:e[i]])
            if value is None:
                return None
            values[a + i] = value
    return values


def _codes(table: Table, name: str) -> Codes:
    """The Codes of column `name`: its distinct cells in sorted order, and each row's code.

    UTF-8 byte order is code-point order, so a column of cells of at most 7
    bytes is coded by np.unique over one integer per cell: its bytes,
    zero-padded, then its length, big-endian.  A wider column is decoded
    and coded as str.
    """
    starts, ends = table.spans(name)
    size = ends - starts
    if size.max() > 7:
        return category_codes(np.array(table.column(name), dtype=object))
    keys = table.words(starts) & _FIRST[size] | size.astype(np.uint64) << 56
    uniq, codes = np.unique(keys.byteswap(), return_inverse=True)
    names = tuple(k.to_bytes(8, "big")[:k & 0xFF].decode("utf-8") for k in uniq.tolist())
    return Codes(names, codes.astype(np.min_scalar_type(len(names) - 1)))


def _categorical(table: Table, name: str) -> np.ndarray:
    """Column `name` as an object array whose rows share one str per distinct cell."""
    column = _codes(table, name)
    return np.array(column.names, dtype=object)[column.codes]


def _parse_labels(table: Table, name: str) -> np.ndarray:
    """Column `name` as labels ±1; a cell that is no label is a LoadError naming its row."""
    column = _codes(table, name)
    # padded cells such as " 1" are labels too
    labels = [_LABELS.get(v, _LABELS.get(v.strip())) for v in column.names]
    if None in labels:
        r = int(np.array([v is None for v in labels])[column.codes].argmax())
        raise LoadError(f"row {r + 1}: label {column.names[column.codes[r]]!r} is not one of +1, 1, 0, -1")
    return np.array(labels, np.int64)[column.codes]


def _in_unit_interval(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values <= 1.0)


def _finite_nonnegative(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values < math.inf)


def _parse_numbers(table: Table, name: str, noun: str, ok, unparsed: str | None, failed: str) -> np.ndarray | None:
    """Column `name` as floats, when every cell parses and passes `ok`.

    `ok` maps floats to booleans, elementwise, and is False at NaN.  The
    first bad cell is a LoadError "row r: {noun} {cell!r} {phrase}", with
    `unparsed` as the phrase for a cell that does not parse and `failed`
    for one that fails `ok`.  With `unparsed` None, a column with a cell
    that does not parse is None instead.  Only a bad column is read cell
    by cell.
    """
    values = _numbers(table, name)
    if values is None:
        if unparsed is None:
            return None
    elif np.all(ok(values)):
        return values
    for r, cell in enumerate(table.column(name), start=1):
        try:
            value = float(cell)
        except ValueError:
            raise LoadError(f"row {r}: {noun} {cell!r} {unparsed}") from None
        if not ok(value):
            raise LoadError(f"row {r}: {noun} {cell!r} {failed}")


def _parse_feature(table: Table, name: str, kind: str | None) -> tuple[np.ndarray, str]:
    """One feature column: (values, kind).

    With kind None the column is numeric when every cell parses as a float,
    else categorical.  A numeric cell that does not parse or is not finite
    is a LoadError naming its 1-based data row and the column.
    """
    if kind in (None, "numeric"):
        unparsed = None if kind is None else "is not numeric"
        values = _parse_numbers(table, name, f"feature {name!r} value", np.isfinite, unparsed, "is not finite")
        if values is not None:
            return values, "numeric"
        kind = "categorical"
    if kind == "categorical":
        return _categorical(table, name), kind
    raise LoadError(f"feature {name!r} has unknown kind {kind!r}")


def parse_features(
    table: Table, kinds: Mapping[str, str | None]
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Columns of `table` named by `kinds`, each read as its kind: (values, kinds).

    A kind of None reads the column as numeric when every cell parses as a
    float, else as categorical.
    """
    features: dict[str, np.ndarray] = {}
    out_kinds: dict[str, str] = {}
    for name, kind in kinds.items():
        features[name], out_kinds[name] = _parse_feature(table, name, kind)
    return features, out_kinds


def parse_probabilities(table: Table, name: str, noun: str) -> np.ndarray:
    """Column `name` of `table` as numbers in [0, 1].

    A bad cell is a LoadError that names its 1-based row and calls it the `noun`.
    """
    return _parse_numbers(table, name, noun, _in_unit_interval, "is not a number", "must lie in [0, 1]")


def load_dataset(
    path,
    clip_B: float,
    *,
    kinds: Mapping[str, str] | None = None,
    label_column: str = "label",
    group_column: str = "group",
    score_column: str = "score",
    weight_column: str | None = None,
    target_column: str | None = None,
) -> Dataset:
    """Read a headed CSV into a Dataset, clipping scores on ingest.

    Columns other than the label/group/score/weight ones are features.  A
    feature is numeric when every value parses as a float, else categorical;
    explicit kinds override the inference, and a kind for a column the file
    lacks is a LoadError.  A numeric feature value that does not parse or is
    not finite (nan, inf) is reported with its 1-based data-row number.
    """
    kinds = kinds or {}
    required = [label_column, group_column, score_column]
    required += [name for name in (weight_column, target_column) if name is not None]
    table = read_csv(path, required, kinds)

    labels = _parse_labels(table, label_column)
    scores = parse_probabilities(table, score_column, "score")
    groups = _categorical(table, group_column)
    weights = None
    if weight_column is not None:
        weights = _parse_numbers(table, weight_column, "weight", _finite_nonnegative,
                                 "is not a number", "must be finite and >= 0")
    target = None
    if target_column is not None:
        target = parse_probabilities(table, target_column, "target")

    features, out_kinds = parse_features(
        table, {name: kinds.get(name) for name in table.header if name not in required}
    )
    return make_dataset(
        features,
        out_kinds,
        labels,
        groups,
        scores,
        clip_B,
        weights=weights,
        target=target,
        group_column=group_column,
    )


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelMeta:
    """Everything a model file records besides the tree itself."""

    clip_B: float
    scoring: str = "conservative"
    strategy: str = "plain"
    config_digest: str = ""
    iterations: int = 0

    def __post_init__(self):
        if not math.isfinite(self.clip_B) or self.clip_B <= 0:
            raise DomainError("clip_B must be a positive finite number")
        if self.scoring not in SCORING_MODES:
            raise DomainError(f"unknown scoring mode {self.scoring!r}")
        if self.iterations < 0:
            raise DomainError("iterations must be >= 0")


_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)


def _nested(obj: dict, pad: str) -> str:
    """obj as canonical JSON, its lines after the first indented by pad: a value nested that deep."""
    return _CANONICAL.encode(obj).replace("\n", "\n" + pad)


def model_to_json(tree: AlphaTree, meta: ModelMeta) -> str:
    """The model file's text, as json.dumps(sort_keys=True, indent=2) writes the nested model.

    The tree is written in one pass of `_walk`: each open node's closing
    text waits on a stack until the walk leaves its subtree.
    """
    head = {
        "clip_B": float(meta.clip_B),
        "format_version": FORMAT_VERSION,
        "provenance": {
            "config_digest": str(meta.config_digest),
            "iterations": int(meta.iterations),
            "strategy": str(meta.strategy),
        },
        "scoring": meta.scoring,
    }
    closing: list[str] = []
    try:
        # "tree" sorts after every other key, so it is the last member
        out = [_nested(head, "")[:-2], ',\n  "tree": ']
        for node, depth, side in _walk(tree.root):
            while len(closing) > depth:
                out.append(closing.pop())
            pad = "  " * (depth + 1)
            if side == "right":
                out.append(f',\n{pad}"right": ')
            if isinstance(node, Leaf):
                out.append(_nested({"alpha": float(node.alpha), "edge": float(node.edge), "kind": "leaf",
                                    "leaf_id": int(node.leaf_id), "mass": float(node.mass)}, pad))
                continue
            test: dict = {"feature": node.test.feature, "kind": node.test.kind}
            if node.test.kind == "numeric":
                test["threshold"] = float(node.test.threshold)
            else:
                test["modality"] = node.test.modality
            out.append(f'{{\n{pad}  "kind": "node",\n{pad}  "left": ')
            closing.append(f',\n{pad}  "test": {_nested(test, pad + "  ")}\n{pad}}}')
    except ValueError as exc:
        raise ModelFormatError(f"model holds a non-finite value: {exc}") from None
    return "".join(out + closing[::-1] + ["\n}\n"])


def _require_keys(obj: dict, keys: set, where: str) -> None:
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise ModelFormatError(f"{where}: missing keys {sorted(missing)}")
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {sorted(extra)}")


def _finite_number(value, what: str, error: type[ValueError] = ModelFormatError) -> float:
    """A JSON number (not a bool or a string) as a finite float; an `error` naming what otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise error(f"{what} must be finite")
    return value


def _obj_to_node(obj, where: str):
    """Node of a model object; where is its path, for error messages."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "leaf":
        _require_keys(obj, {"alpha", "edge", "kind", "leaf_id", "mass"}, where)
        if not isinstance(obj["leaf_id"], int) or isinstance(obj["leaf_id"], bool):
            raise ModelFormatError(f"{where}: leaf_id must be an integer")
        number = {key: _finite_number(obj[key], f"{where}: {key}") for key in ("alpha", "edge", "mass")}
        return Leaf(leaf_id=obj["leaf_id"], **number)
    if kind == "node":
        _require_keys(obj, {"kind", "left", "right", "test"}, where)
        test = obj["test"]
        if not isinstance(test, dict):
            raise ModelFormatError(f"{where}: test must be an object")
        tkind = test.get("kind")
        if tkind not in ("numeric", "categorical"):
            raise ModelFormatError(f"{where}: unknown test kind {tkind!r}")
        _require_keys(test, {"feature", "kind", "threshold" if tkind == "numeric" else "modality"}, f"{where}.test")
        if not isinstance(test["feature"], str):
            raise ModelFormatError(f"{where}: feature must be a string")
        if tkind == "numeric":
            threshold = _finite_number(test["threshold"], f"{where}: threshold")
            st = SplitTest(feature=test["feature"], kind="numeric", threshold=threshold)
        else:
            if not isinstance(test["modality"], str):
                raise ModelFormatError(f"{where}: modality must be a string")
            st = SplitTest(feature=test["feature"], kind="categorical", modality=test["modality"])
        return Node(
            st,
            _obj_to_node(obj["left"], where + ".left"),
            _obj_to_node(obj["right"], where + ".right"),
        )
    raise ModelFormatError(f"{where}: unknown node kind {kind!r}")


def model_from_json(text: str) -> tuple[AlphaTree, ModelMeta]:
    def no_constants(name):
        raise ModelFormatError(f"non-finite constant {name!r} in model file")

    try:
        obj = json.loads(text, parse_constant=no_constants)
    except ModelFormatError:
        raise
    except ValueError as exc:  # bad JSON, or an integer of more digits than int() takes
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("model nests too deeply to decode") from None
    if not isinstance(obj, dict):
        raise ModelFormatError("top level must be an object")
    _require_keys(obj, {"clip_B", "format_version", "provenance", "scoring", "tree"}, "model")
    if obj["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {obj['format_version']!r}")
    clip_B = _finite_number(obj["clip_B"], "clip_B")
    if clip_B <= 0:
        raise ModelFormatError("clip_B must be a positive finite number")
    if obj["scoring"] not in SCORING_MODES:
        raise ModelFormatError(f"unknown scoring mode {obj['scoring']!r}")
    prov = obj["provenance"]
    if not isinstance(prov, dict):
        raise ModelFormatError("provenance must be an object")
    _require_keys(prov, {"config_digest", "iterations", "strategy"}, "provenance")
    if not isinstance(prov["iterations"], int) or isinstance(prov["iterations"], bool) or prov["iterations"] < 0:
        raise ModelFormatError("provenance.iterations must be an integer >= 0")
    for key in ("config_digest", "strategy"):
        if not isinstance(prov[key], str):
            raise ModelFormatError(f"provenance.{key} must be a string")
    try:
        root = _obj_to_node(obj["tree"], "tree")
    except RecursionError:
        raise ModelFormatError("model nests too deeply to decode") from None
    try:
        tree = AlphaTree(root)  # checks the leaf ids
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    meta = ModelMeta(
        clip_B=clip_B,
        scoring=obj["scoring"],
        strategy=prov["strategy"],
        config_digest=prov["config_digest"],
        iterations=prov["iterations"],
    )
    return tree, meta


def save_model(path, tree: AlphaTree, meta: ModelMeta) -> None:
    text = model_to_json(tree, meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_model(path) -> tuple[AlphaTree, ModelMeta]:
    return model_from_json(read_text(path, ModelFormatError))


# ---------------------------------------------------------------------------
# split plan
# ---------------------------------------------------------------------------

SPLIT_ROLES = ("train", "cal", "test")
SPLIT_FRACTIONS = (0.4, 0.4, 0.2)


def resolve_seed(flag_value: int | None) -> int:
    """Seed precedence: explicit flag, then ALPHATREE_SEED, then 0.

    A seed must be a nonnegative integer, as the generator takes it.
    """
    if flag_value is not None:
        seed, source = int(flag_value), "--seed"
    else:
        env = os.environ.get("ALPHATREE_SEED")
        if env is None or env == "":
            return 0
        try:
            seed, source = int(env), "ALPHATREE_SEED"
        except ValueError:
            raise DomainError(f"ALPHATREE_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise DomainError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def split_plan(labels, groups, seed: int) -> np.ndarray:
    """Assign rows to train/cal/test at 40:40:20, stratified by (label, group).

    The strata's rows come from one coding of the (label, group) pairs (see
    `data.Codes.levels`), visited in the order of the str of their (label,
    group) tuple.  Within each stratum rows are shuffled by the seeded
    generator and counts are apportioned by largest remainder, ties
    resolved toward the earlier role, so every stratum lands as close to
    2:2:1 as integers allow.
    """
    y = per_row(labels, None, "labels")
    group_codes = category_codes(per_row(groups, y.shape[0], "groups", object))
    if y.shape[0] == 0:
        raise DomainError("split plan needs at least one row")
    rng = np.random.default_rng(seed)
    out = np.empty(y.shape[0], dtype=object)
    width = len(group_codes.names)
    labels = np.fromiter(map(int, y.tolist()), np.int64, y.shape[0])  # int() refuses a NaN label
    strata = category_codes(labels * width + group_codes.codes).levels()  # one code per pair
    for pair in sorted(strata, key=lambda pair: str((pair // width, group_codes.names[pair % width]))):
        idx = strata[pair][rng.permutation(strata[pair].shape[0])]
        raw = [f * idx.shape[0] for f in SPLIT_FRACTIONS]
        base = [math.floor(r) for r in raw]
        for i in sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))[:idx.shape[0] - sum(base)]:
            base[i] += 1
        bounds = np.cumsum([0, *base])
        for role, start, stop in zip(SPLIT_ROLES, bounds, bounds[1:]):
            out[idx[start:stop]] = role
    return out

