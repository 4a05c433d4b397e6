"""Dataset ingest, model files, and the split plan.

Model files are canonical JSON: sorted keys, two-space indent, no NaN, one
trailing newline.  Loading a file and saving it again reproduces the bytes
exactly, which is what makes model diffs trustworthy.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import AlphaTree, DomainError, Leaf, Node, SplitTest
from .data import Dataset, make_dataset

__all__ = [
    "LoadError",
    "ModelFormatError",
    "ModelMeta",
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

RESERVED_DEFAULTS = ("label", "group", "score", "weight")


class LoadError(ValueError):
    """A data file failed validation; messages carry 1-based data-row numbers."""


class ModelFormatError(ValueError):
    """A model file violates the canonical layout."""


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


def _parse_label(raw: str, row: int) -> int:
    v = raw.strip()
    if v in ("1", "+1"):
        return 1
    if v in ("-1", "0"):
        return -1
    raise LoadError(f"row {row}: label {raw!r} is not one of +1, 1, 0, -1")


def _parse_probability(raw: str, row: int, noun: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise LoadError(f"row {row}: {noun} {raw!r} is not a number") from None
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise LoadError(f"row {row}: {noun} {raw!r} must lie in [0, 1]")
    return v


def _parse_weight(raw: str, row: int) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise LoadError(f"row {row}: weight {raw!r} is not a number") from None
    if not math.isfinite(v) or v < 0.0:
        raise LoadError(f"row {row}: weight {raw!r} must be finite and >= 0")
    return v


def _parse_floats(raw: list[str]) -> np.ndarray | None:
    """Every cell as a float, or None when some cell does not parse."""
    try:
        return np.fromiter(map(float, raw), dtype=float, count=len(raw))
    except ValueError:
        return None


def _parse_feature(name: str, raw: list[str], kind: str | None) -> tuple[np.ndarray, str]:
    """One feature column from its cells: (values, kind).

    With kind None the column is numeric when every cell parses as a float,
    else categorical.  A numeric cell that does not parse or is not finite
    is a LoadError naming its 1-based data row and the column.
    """
    values = None
    if kind in (None, "numeric"):
        values = _parse_floats(raw)
        if kind is None:
            kind = "categorical" if values is None else "numeric"
    if kind == "numeric":
        if values is None or not np.all(np.isfinite(values)):
            r, v, why = _first_bad_number(raw)
            raise LoadError(f"row {r}: feature {name!r} value {v!r} {why}")
        return values, kind
    if kind == "categorical":
        return np.array(raw, dtype=object), kind
    raise LoadError(f"feature {name!r} has unknown kind {kind!r}")


def _first_bad_number(raw: list[str]) -> tuple[int, str, str]:
    """1-based row, cell and reason of the first cell that is not a finite float."""
    for r, v in enumerate(raw, start=1):
        try:
            fv = float(v)
        except ValueError:
            return r, v, "is not numeric"
        if not math.isfinite(fv):
            return r, v, "is not finite"
    raise AssertionError("every cell is a finite float")


def read_csv(path, required: Iterable[str], features: Iterable[str] = ()) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a headed CSV file, every row as wide as the header.

    A file with no header row, a repeated column name, no data rows or a
    row of another width is a LoadError.  So is a missing column: one of
    `required`, which the caller reads for its role, or one of `features`,
    which the caller reads by name.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError("file has no header row") from None
        rows = list(reader)

    if len(set(header)) != len(header):
        raise LoadError("duplicate column names in header")
    for name in required:
        if name not in header:
            raise LoadError(f"missing required column {name!r}")
    if not rows:
        raise LoadError("file has no data rows")
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise LoadError(f"row {r}: expected {len(header)} fields, got {len(row)}")
    for name in features:
        if name not in header:
            raise LoadError(f"missing feature column {name!r}")
    return header, rows


def parse_features(
    header: list[str], rows: list[list[str]], kinds: Mapping[str, str | None]
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Columns of read_csv's rows named by `kinds`, each read as its kind: (values, kinds).

    A kind of None reads the column as numeric when every cell parses as a
    float, else as categorical.
    """
    col_index = {name: i for i, name in enumerate(header)}
    features: dict[str, np.ndarray] = {}
    out_kinds: dict[str, str] = {}
    for name, kind in kinds.items():
        i = col_index[name]
        features[name], out_kinds[name] = _parse_feature(name, [row[i] for row in rows], kind)
    return features, out_kinds


def parse_probabilities(header: list[str], rows: list[list[str]], name: str, noun: str) -> np.ndarray:
    """Column `name` of read_csv's rows as numbers in [0, 1].

    A bad cell is a LoadError that names its 1-based row and calls it the `noun`.
    """
    i = header.index(name)
    return np.array([_parse_probability(row[i], r, noun) for r, row in enumerate(rows, start=1)])


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
    header, rows = read_csv(path, required, kinds)

    col_index = {name: i for i, name in enumerate(header)}
    labels = [_parse_label(row[col_index[label_column]], r) for r, row in enumerate(rows, start=1)]
    scores = parse_probabilities(header, rows, score_column, "score")
    groups = [row[col_index[group_column]] for row in rows]
    weights = None
    if weight_column is not None:
        weights = [_parse_weight(row[col_index[weight_column]], r) for r, row in enumerate(rows, start=1)]
    target = None
    if target_column is not None:
        target = parse_probabilities(header, rows, target_column, "target")

    features, out_kinds = parse_features(
        header, rows, {name: kinds.get(name) for name in header if name not in required}
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


def _node_to_obj(node: Node | Leaf):
    if isinstance(node, Leaf):
        return {
            "alpha": float(node.alpha),
            "edge": float(node.edge),
            "kind": "leaf",
            "leaf_id": int(node.leaf_id),
            "mass": float(node.mass),
        }
    test: dict = {"feature": node.test.feature, "kind": node.test.kind}
    if node.test.kind == "numeric":
        test["threshold"] = float(node.test.threshold)
    else:
        test["modality"] = node.test.modality
    return {
        "kind": "node",
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
        "test": test,
    }


def model_to_json(tree: AlphaTree, meta: ModelMeta) -> str:
    obj = {
        "clip_B": float(meta.clip_B),
        "format_version": FORMAT_VERSION,
        "provenance": {
            "config_digest": str(meta.config_digest),
            "iterations": int(meta.iterations),
            "strategy": str(meta.strategy),
        },
        "scoring": meta.scoring,
        "tree": _node_to_obj(tree.root),
    }
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ModelFormatError(f"model holds a non-finite value: {exc}") from None


def _require_keys(obj: dict, keys: set, where: str) -> None:
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise ModelFormatError(f"{where}: missing keys {sorted(missing)}")
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {sorted(extra)}")


def _obj_to_node(obj, where: str = "tree"):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "leaf":
        _require_keys(obj, {"alpha", "edge", "kind", "leaf_id", "mass"}, where)
        if not isinstance(obj["leaf_id"], int) or isinstance(obj["leaf_id"], bool):
            raise ModelFormatError(f"{where}: leaf_id must be an integer")
        for key in ("alpha", "edge", "mass"):
            if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
                raise ModelFormatError(f"{where}: {key} must be a number")
            if not math.isfinite(float(obj[key])):
                raise ModelFormatError(f"{where}: {key} must be finite")
        return Leaf(
            leaf_id=obj["leaf_id"],
            alpha=float(obj["alpha"]),
            edge=float(obj["edge"]),
            mass=float(obj["mass"]),
        )
    if kind == "node":
        _require_keys(obj, {"kind", "left", "right", "test"}, where)
        test = obj["test"]
        if not isinstance(test, dict):
            raise ModelFormatError(f"{where}: test must be an object")
        tkind = test.get("kind")
        if tkind == "numeric":
            _require_keys(test, {"feature", "kind", "threshold"}, f"{where}.test")
            if not isinstance(test["threshold"], (int, float)) or isinstance(test["threshold"], bool):
                raise ModelFormatError(f"{where}: threshold must be a number")
            st = SplitTest(feature=str(test["feature"]), kind="numeric", threshold=float(test["threshold"]))
        elif tkind == "categorical":
            _require_keys(test, {"feature", "kind", "modality"}, f"{where}.test")
            if not isinstance(test["modality"], str):
                raise ModelFormatError(f"{where}: modality must be a string")
            st = SplitTest(feature=str(test["feature"]), kind="categorical", modality=test["modality"])
        else:
            raise ModelFormatError(f"{where}: unknown test kind {tkind!r}")
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
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError("top level must be an object")
    _require_keys(obj, {"clip_B", "format_version", "provenance", "scoring", "tree"}, "model")
    if obj["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {obj['format_version']!r}")
    clip_B = obj["clip_B"]
    if not isinstance(clip_B, (int, float)) or isinstance(clip_B, bool):
        raise ModelFormatError("clip_B must be a number")
    clip_B = float(clip_B)
    if not math.isfinite(clip_B) or clip_B <= 0:
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
    root = _obj_to_node(obj["tree"])
    try:
        tree = AlphaTree(root)
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
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())


# ---------------------------------------------------------------------------
# split plan
# ---------------------------------------------------------------------------

SPLIT_ROLES = ("train", "cal", "test")
SPLIT_FRACTIONS = (0.4, 0.4, 0.2)


def resolve_seed(flag_value: int | None) -> int:
    """Seed precedence: explicit flag, then ALPHATREE_SEED, then 0."""
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("ALPHATREE_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"ALPHATREE_SEED must be an integer, got {env!r}") from None
    return 0


def split_plan(labels, groups, seed: int) -> np.ndarray:
    """Assign rows to train/cal/test at 40:40:20, stratified by (label, group).

    Within each stratum rows are shuffled by the seeded generator and counts
    are apportioned by largest remainder, ties resolved toward the earlier
    role, so every stratum lands as close to 2:2:1 as integers allow.
    """
    y = np.asarray(labels)
    g = np.asarray(groups, dtype=object)
    if y.shape[0] != g.shape[0] or y.shape[0] == 0:
        raise DomainError("labels and groups must align and be nonempty")
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

