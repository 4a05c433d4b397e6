"""Dataset ingest, model files, and the split plan.

Ingest reads every numeric column role by one rule, `_parse_numbers`: a
score or target cell must lie in [0, 1], a weight must be finite and >= 0,
and a numeric feature value must be finite.  A cell that breaks its role's
rule is a LoadError naming its 1-based data row, the cell and the rule.

Model files are canonical JSON: sorted keys, two-space indent, no NaN, one
trailing newline.  Loading a file and saving it again reproduces the bytes
exactly, which is what makes model diffs trustworthy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping

import numpy as np

from .core import AlphaTree, DomainError, Leaf, Node, SplitTest, _walk, per_row
from .data import Dataset, make_dataset

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


def read_text(path, error: type[ValueError]) -> str:
    """A UTF-8 file's text, less the byte-order mark it may start with.

    Bytes that are not UTF-8 are an `error` naming the first bad byte, its
    offset in the file and its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = data.count(b"\n", 0, at) + 1
        raise error(f"{path}: not UTF-8 text: byte {data[at]:#04x} at offset {at} (line {line})") from None


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


_LABELS = {"1": 1, "+1": 1, "0": -1, "-1": -1}


def _parse_label(raw: str, row: int) -> int:
    v = _LABELS.get(raw.strip())
    if v is None:
        raise LoadError(f"row {row}: label {raw!r} is not one of +1, 1, 0, -1")
    return v


def _parse_labels(raw: list[str]) -> list[int]:
    labels = list(map(_LABELS.get, raw))
    if None in labels:
        # padded cells such as " 1" are labels too; a bad cell raises here
        labels = [_parse_label(v, r) for r, v in enumerate(raw, start=1)]
    return labels


def _in_unit_interval(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values <= 1.0)


def _finite_nonnegative(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values < math.inf)


def _parse_numbers(raw: list[str], noun: str, ok, unparsed: str | None, failed: str) -> np.ndarray | None:
    """The cells of a column as floats, when every one parses and passes `ok`.

    `ok` maps floats to booleans, elementwise, and is False at NaN.  The
    first bad cell is a LoadError "row r: {noun} {cell!r} {phrase}", with
    `unparsed` as the phrase for a cell that does not parse and `failed`
    for one that fails `ok`.  With `unparsed` None, a column with a cell
    that does not parse is None instead.  Only a bad column is read cell
    by cell.
    """
    try:
        values = np.fromiter(map(float, raw), dtype=float, count=len(raw))
        if np.all(ok(values)):
            return values
    except ValueError:
        if unparsed is None:
            return None
    for r, cell in enumerate(raw, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise LoadError(f"row {r}: {noun} {cell!r} {unparsed}") from None
        if not ok(value):
            raise LoadError(f"row {r}: {noun} {cell!r} {failed}")


def _parse_feature(name: str, raw: list[str], kind: str | None) -> tuple[np.ndarray, str]:
    """One feature column from its cells: (values, kind).

    With kind None the column is numeric when every cell parses as a float,
    else categorical.  A numeric cell that does not parse or is not finite
    is a LoadError naming its 1-based data row and the column.
    """
    if kind in (None, "numeric"):
        unparsed = None if kind is None else "is not numeric"
        values = _parse_numbers(raw, f"feature {name!r} value", np.isfinite, unparsed, "is not finite")
        if values is not None:
            return values, "numeric"
        kind = "categorical"
    if kind == "categorical":
        return np.array(raw, dtype=object), kind
    raise LoadError(f"feature {name!r} has unknown kind {kind!r}")


@dataclass(frozen=True)
class Table:
    """A headed CSV file as one list of cells per header column.

    `lines` holds each data row's raw text when the file was split as plain
    text, and is None when the csv module read it.
    """

    header: list[str]
    columns: list[list[str]]
    lines: list[str] | None

    def column(self, name: str) -> list[str]:
        return self.columns[self.header.index(name)]


def _split_plain(text: str) -> tuple[list[str], list[list[str]], list[str]] | None:
    """(header, columns, data lines) of text the csv module would read as plain splits.

    That is text with no quote and no CR, a header line and at least one
    data line, every data line holding one comma fewer than the header has
    fields, and no field over the csv module's size limit.  Any other text
    is None: the csv module reads it, and names the row at fault.
    """
    if '"' in text or "\r" in text:
        return None
    head, _, body = text.partition("\n")
    if body.endswith("\n"):
        body = body[:-1]
    if not head or not body:
        return None
    header = head.split(",")
    width = len(header)
    lines = body.split("\n")
    # a blank line is an empty row to the csv module, also at width 1
    if not all(lines) or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    cells = body.replace("\n", ",").split(",")
    # only a line over the limit can hold a field over it
    limit = csv.field_size_limit()
    if max(len(head), max(map(len, lines))) > limit and max(map(len, chain(header, cells))) > limit:
        return None
    return header, [cells[j::width] for j in range(width)], lines


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
    text = read_text(path, LoadError)
    plain = _split_plain(text)
    if plain is None:
        header, rows = _csv_rows(text)
    else:
        header, columns, lines = plain

    if len(set(header)) != len(header):
        raise LoadError("duplicate column names in header")
    for name in required:
        if name not in header:
            raise LoadError(f"missing required column {name!r}")
    if plain is None:
        if not rows:
            raise LoadError("file has no data rows")
        for r, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise LoadError(f"row {r}: expected {len(header)} fields, got {len(row)}")
        columns = [list(col) for col in zip(*rows)]
        lines = None
    for name in features:
        if name not in header:
            raise LoadError(f"missing feature column {name!r}")
    return Table(header, columns, lines)


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
        features[name], out_kinds[name] = _parse_feature(name, table.column(name), kind)
    return features, out_kinds


def parse_probabilities(table: Table, name: str, noun: str) -> np.ndarray:
    """Column `name` of `table` as numbers in [0, 1].

    A bad cell is a LoadError that names its 1-based row and calls it the `noun`.
    """
    return _parse_numbers(table.column(name), noun, _in_unit_interval, "is not a number", "must lie in [0, 1]")


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

    labels = _parse_labels(table.column(label_column))
    scores = parse_probabilities(table, score_column, "score")
    groups = table.column(group_column)
    weights = None
    if weight_column is not None:
        weights = _parse_numbers(table.column(weight_column), "weight", _finite_nonnegative,
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

    Within each stratum rows are shuffled by the seeded generator and counts
    are apportioned by largest remainder, ties resolved toward the earlier
    role, so every stratum lands as close to 2:2:1 as integers allow.
    """
    y = per_row(labels, None, "labels")
    g = per_row(groups, y.shape[0], "groups", object)
    if y.shape[0] == 0:
        raise DomainError("split plan needs at least one row")
    rng = np.random.default_rng(seed)
    out = np.empty(y.shape[0], dtype=object)
    strata = sorted({(int(yy), gg) for yy, gg in zip(y.tolist(), g.tolist())}, key=str)
    for ylab, grp in strata:
        idx = np.flatnonzero((y == ylab) & (g == grp))
        idx = idx[rng.permutation(idx.shape[0])]
        n = idx.shape[0]
        raw = [f * n for f in SPLIT_FRACTIONS]
        base = [math.floor(r) for r in raw]
        short = n - sum(base)
        remainders = sorted(
            range(len(SPLIT_FRACTIONS)), key=lambda i: (-(raw[i] - base[i]), i)
        )
        for i in remainders[:short]:
            base[i] += 1
        start = 0
        for role, count in zip(SPLIT_ROLES, base):
            out[idx[start : start + count]] = role
            start += count
    return out

