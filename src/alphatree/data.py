"""Tabular dataset model, weighted conditional views, and the log-loss risk.

A Dataset is an immutable column store: declared feature columns (numeric or
categorical), a ±1 label, a sensitive-group modality, a clipped black-box
score, optional target-posterior column, and nonnegative row weights.  A View
is a cheap handle on a weighted subset of rows with weights renormalized to
sum 1; every expectation in the package is taken under a View.

Every per-row array is read by one rule, `core.per_row`: n values, or one
value that stands for every row.  A Dataset and a View check their own
rows when they are built, so a dataclasses.replace is checked too.  Per-row
auxiliary arrays (scores, target posteriors) are always aligned with the
base Dataset; Views pick rows out by index.  `target_posterior` holds the
one rule for a target posterior: per_row's shape, each value in [0, 1].
Every entry point that takes one reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

# route_rows is not called here; it stays bound for perfbench/tracer.py, which swaps it by name
from .core import DomainError, clip_score, dot, per_row, read_columns, route_rows, xlogy

__all__ = [
    "EmptyMeasureError",
    "InfiniteRiskError",
    "Dataset",
    "View",
    "make_dataset",
    "make_view",
    "read_labels",
    "target_posterior",
    "full_view",
    "Codes",
    "category_codes",
    "condition_on_group",
    "log_loss",
    "empirical_risk",
    "binary_entropy",
    "TraceRow",
    "RunTrace",
]


class EmptyMeasureError(ValueError):
    """Conditioning produced an empty (zero-mass) measure."""


class InfiniteRiskError(ValueError):
    """A score of exactly 0 or 1 met opposing target mass."""


@dataclass(frozen=True)
class Codes:
    """A categorical column as integer codes: row i holds names[codes[i]].

    The package's one level index.  names lists the distinct values of the
    whole column in sorted order, so code order is value order; codes take
    the smallest unsigned dtype that holds them, which numpy sorts stably by
    radix.
    """

    names: tuple
    codes: np.ndarray

    def take(self, rows) -> Codes:
        """The column at rows, as ndarray.take gives a plain column's."""
        return Codes(self.names, self.codes[rows])

    def levels(self) -> dict:
        """Each name some row holds, in sorted order, mapped to its ascending row indices:
        one stable argsort of the codes, cut where each code's run ends, so O(rows) up to 65,536 names."""
        counts = np.bincount(self.codes, minlength=len(self.names))
        order = np.argsort(self.codes, kind="stable")
        ends = np.cumsum(counts)
        return {self.names[c]: order[ends[c] - counts[c]:ends[c]] for c in np.flatnonzero(counts).tolist()}


def category_codes(values) -> Codes:
    """The Codes of a column: sorted(set(...)) of its values, then one dict lookup per row.

    A value that does not equal itself, such as a float NaN, is a DomainError."""
    values = np.asarray(values).tolist()
    names = tuple(sorted(set(values)))
    for name in names:
        if name != name:
            raise DomainError(f"level {name!r} does not equal itself")
    code = {name: c for c, name in enumerate(names)}
    return Codes(names, np.fromiter(map(code.__getitem__, values), np.min_scalar_type(max(len(names) - 1, 0)),
                                    len(values)))


@dataclass(frozen=True)
class Dataset:
    """Immutable desk-scale dataset.

    features holds the declared split candidates in schema order, which
    fixes split tie-breaking; groups holds the groups a run measures,
    schedules and routes on.  columns, every routable column, is derived
    from both as {**features, group_column: groups}, so a re-grouped
    dataclasses.replace(ds, groups=g) routes on g; columns, group_rows,
    feature_codes and positive_rows are built on first read.

    labels set the row count n and must be one-dimensional.  groups,
    scores, weights, target (when given) and every feature are read by
    `per_row` when the dataset is built, replaced or not: n values are kept
    as they are, one value becomes n copies, and another shape is a
    DomainError naming it and n.  Their values are make_dataset's to check.
    """

    features: dict[str, np.ndarray]
    kinds: dict[str, str]
    labels: np.ndarray
    groups: np.ndarray
    scores: np.ndarray
    clip_B: float
    weights: np.ndarray
    target: np.ndarray | None = None
    group_column: str = "group"

    def __post_init__(self):
        labels = per_row(self.labels, None, "labels")
        n = labels.shape[0]
        rows = {name: per_row(getattr(self, name), n, name) for name in ("groups", "scores", "weights")}
        if self.target is not None:
            rows["target"] = per_row(self.target, n, "target")
        rows["features"] = {name: per_row(col, n, f"feature {name!r}") for name, col in self.features.items()}
        for name, values in {"labels": labels, **rows}.items():
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features)

    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        return {**self.features, self.group_column: self.groups}

    @cached_property
    def group_rows(self) -> dict:
        return category_codes(self.groups).levels()

    @cached_property
    def feature_codes(self) -> dict[str, Codes]:
        """The Codes of every categorical feature, built on first read."""
        return {name: category_codes(col) for name, col in self.features.items()
                if self.kinds[name] == "categorical"}

    @cached_property
    def positive_rows(self) -> dict:
        """Positive-label row indices of every group that has positive rows."""
        pos = self.labels == 1
        return {g: idx[pos[idx]] for g, idx in self.group_rows.items() if pos[idx].any()}

    def feature_kinds(self) -> dict[str, str]:
        return {name: self.kinds[name] for name in self.features}


def read_labels(labels) -> np.ndarray:
    """labels as int64: one-dimensional (see per_row), each value -1 or +1 as given.

    The one label rule of the package; 1.5 is not rounded to a label.
    """
    y = per_row(labels, None, "labels")
    if not np.all(np.isin(y, (-1, 1))):
        raise DomainError("labels must be -1 or +1")
    return y.astype(np.int64, copy=False)


def target_posterior(eta_t, n: int, rows=None) -> np.ndarray:
    """A new array of the target posterior of an n-row base at `rows`, or at every row.

    eta_t is read by `per_row`: n values, or one value that stands for
    every row; another shape is a DomainError naming both counts.  Only the
    rows returned are checked, so a caller that reads a view pays for the
    view's rows.  A returned value outside [0, 1], NaN included, is a
    DomainError.
    """
    eta = per_row(eta_t, n, "target posterior", float)
    out = eta.copy() if rows is None else eta[rows]
    if not np.all((out >= 0) & (out <= 1)):  # NaN, as from None, fails too
        raise DomainError("target posterior must lie in [0, 1]")
    return out


def make_dataset(
    features: Mapping[str, np.ndarray],
    kinds: Mapping[str, str],
    labels,
    groups,
    scores,
    clip_B: float,
    *,
    weights=None,
    target=None,
    group_column: str = "group",
) -> Dataset:
    """Validate, clip scores, and assemble a Dataset.

    labels set the row count.  groups, scores, weights, target and every
    feature are n values or one value for every row; the Dataset checks
    their shapes (see Dataset) and this function their values.  Each
    feature is read as its kind by `core.read_columns`, the rule a tree
    reads it by when it routes.  The groups are routed under group_column
    as a categorical column but are never a split candidate: a feature of
    that name is a DomainError.
    """
    labels = read_labels(labels)
    n = labels.shape[0]
    if n == 0:
        raise EmptyMeasureError("dataset needs at least one row")

    groups = np.asarray(groups, dtype=object)
    scores = clip_score(scores, clip_B)

    if weights is None:
        weights = np.ones(n, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise DomainError("weights must be finite and nonnegative")
    if weights.sum() <= 0:
        raise DomainError("total weight must be positive")

    if target is not None:
        target = target_posterior(target, n)

    if group_column in features:
        raise DomainError(f"feature {group_column!r} has the group column's name")
    checked = read_columns(features, {name: kinds.get(name) for name in features}, n, "feature")

    return Dataset(
        features=checked,
        kinds={**{name: kinds[name] for name in checked}, group_column: "categorical"},
        labels=labels,
        groups=groups,
        scores=scores,
        clip_B=float(clip_B),
        weights=weights,
        target=target,
        group_column=group_column,
    )


def _view_rows(indices, n: int) -> np.ndarray:
    """indices as the int64 rows of an n-row base: integers in [0, n), at least one."""
    rows = per_row(indices, None, "view indices")
    if rows.shape[0] == 0:
        raise EmptyMeasureError("view must contain at least one row")
    if not (np.issubdtype(rows.dtype, np.integer) and rows.min() >= 0 and rows.max() < n):
        raise DomainError(f"view indices must be integers in [0, {n})")
    return rows.astype(np.int64, copy=False)


@dataclass(frozen=True)
class View:
    """Weighted subset of a Dataset; weights sum to 1.

    A View checks its own rows when it is built: indices are integers in
    [0, base.n), at least one.  The weights it is given are raw: one per
    index or one for every index (see per_row), the base's weights at those
    rows when None, and normalized here to sum 1.  No rows, or zero total
    weight, is an EmptyMeasureError.
    """

    base: Dataset
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        indices = _view_rows(self.indices, self.base.n)
        raw = self.base.weights[indices] if self.weights is None else self.weights
        raw = per_row(raw, indices.shape[0], "view weights", float)
        total = raw.sum()
        if total <= 0:
            raise EmptyMeasureError("view has zero total weight")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", raw / total)

    @property
    def n(self) -> int:
        return int(self.indices.shape[0])

    def pick(self, arr: np.ndarray) -> np.ndarray:
        """Select the view's rows out of a base-aligned array, read by per_row."""
        return per_row(arr, self.base.n, "base-aligned array")[self.indices]


def make_view(base: Dataset, indices, raw_weights=None) -> View:
    """A View of base's rows at indices, weighted by raw_weights normalized to sum 1 (see View)."""
    return View(base, indices, raw_weights)


def full_view(ds: Dataset) -> View:
    return make_view(ds, np.arange(ds.n))


def condition_on_group(ds: Dataset, s) -> View:
    """View of the rows whose sensitive modality equals s."""
    idx = ds.group_rows.get(s)
    if idx is None:
        raise EmptyMeasureError(f"group modality {s!r} not observed")
    return make_view(ds, idx)


def log_loss(q, eta):
    """Per-row log-loss -(eta log q + (1-eta) log(1-q)), with 0 log 0 = 0."""
    return -(xlogy(eta, q) + xlogy(1.0 - eta, 1.0 - q))


def empirical_risk(v: View, q, eta_t) -> float:
    """Expected log-loss of posterior q against target eta_t under the view.

    Both q and eta_t are base-aligned: n values, or one value for every row
    (see per_row); eta_t is read by `target_posterior`.  Natural log.  Scores of
    exactly 0 or 1 facing opposing target mass raise InfiniteRiskError.
    """
    qv = per_row(q, v.base.n, "posterior", float)[v.indices]
    if not np.all((qv >= 0) & (qv <= 1)):
        raise DomainError("posterior values must lie in [0, 1]")
    ev = target_posterior(eta_t, v.base.n, v.indices)
    terms = log_loss(qv, ev)
    if not np.all(np.isfinite(terms)):
        raise InfiniteRiskError("posterior hit 0 or 1 with opposing target mass")
    return dot(v.weights, terms)


def binary_entropy(p):
    """H(p) = -p log p - (1-p) log(1-p), natural log, with 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):  # NaN fails too
        raise DomainError("binary_entropy requires p in [0, 1]")
    clipped = np.minimum(np.maximum(arr, 0.0), 1.0)
    out = log_loss(clipped, clipped)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# run traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    metric: str
    value: float
    group: str = ""
    event: str = ""


@dataclass
class RunTrace:
    """Append-only per-iteration record of entropy, risk, and fairness values."""

    rows: list[TraceRow] = field(default_factory=list)

    def add(self, iteration: int, metric: str, value: float, group: str = "", event: str = "") -> None:
        iteration = int(iteration)
        if self.rows and iteration < self.rows[-1].iteration:
            raise ValueError("trace iterations must be non-decreasing")
        self.rows.append(TraceRow(iteration, metric, float(value), group, event))

    def add_groups(self, iteration: int, metric: str, values: Mapping) -> None:
        """One row per group of values, in the mapping's order."""
        for g, value in values.items():
            self.add(iteration, metric, value, group=str(g))

    def last_iteration(self) -> int:
        return self.rows[-1].iteration if self.rows else -1

    def values(self, metric: str) -> list[float]:
        return [r.value for r in self.rows if r.metric == metric]
