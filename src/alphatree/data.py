"""Tabular dataset model, weighted conditional views, and the log-loss risk.

A Dataset is an immutable column store: declared feature columns (numeric or
categorical), a ±1 label, a sensitive-group modality, a clipped black-box
score, optional target-posterior column, and nonnegative row weights.  A View
is a cheap handle on a weighted subset of rows with weights renormalized to
sum 1; every expectation in the package is taken under a View.

Per-row auxiliary arrays (scores, target posteriors) are always aligned
with the base Dataset; Views pick rows out by index.  `target_posterior`
holds the one rule for a target posterior: n values or one value for every
row, each in [0, 1].  Every entry point that takes one reads it there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

# route_rows is not called here; it stays bound for perfbench/tracer.py, which swaps it by name
from .core import DomainError, clip_score, dot, route_rows, xlogy

__all__ = [
    "EmptyMeasureError",
    "InfiniteRiskError",
    "Dataset",
    "View",
    "make_dataset",
    "make_view",
    "target_posterior",
    "full_view",
    "levels",
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


def levels(values) -> dict:
    """Each distinct value in sorted order, mapped to its ascending row indices."""
    values = np.asarray(values)
    return {v: np.flatnonzero(values == v) for v in sorted(set(values.tolist()))}


@dataclass(frozen=True)
class Dataset:
    """Immutable desk-scale dataset.

    features holds the declared split candidates in schema order, which
    fixes split tie-breaking; groups holds the groups a run measures,
    schedules and routes on.  columns, every routable column, is derived
    from both as {**features, group_column: groups}, so a re-grouped
    dataclasses.replace(ds, groups=g) routes on g; columns and group_rows
    are built on first read.
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
        return levels(self.groups)

    def feature_kinds(self) -> dict[str, str]:
        return {name: self.kinds[name] for name in self.features}


def target_posterior(eta_t, n: int, rows=None) -> np.ndarray:
    """A new array of the target posterior of an n-row base at `rows`, or at every row.

    eta_t is n values, or one value that stands for every row; another
    shape is a DomainError naming both counts.  Only the rows returned are
    checked, so a caller that reads a view pays for the view's rows.  A
    returned value outside [0, 1], NaN included, is a DomainError.
    """
    eta = np.asarray(eta_t, dtype=float)
    if eta.shape not in ((), (n,)):
        raise DomainError(f"target posterior has shape {eta.shape} for {n} rows")
    eta = np.broadcast_to(eta, (n,))
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

    The groups are routed under group_column as a categorical column but are
    never a split candidate: a feature of that name is a DomainError.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if n == 0:
        raise EmptyMeasureError("dataset needs at least one row")
    if not np.all(np.isin(labels, (-1, 1))):
        raise DomainError("labels must be -1 or +1")

    groups = np.asarray(groups, dtype=object)
    if groups.shape[0] != n:
        raise DomainError("group column length mismatch")

    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] != n:
        raise DomainError("score column length mismatch")
    scores = clip_score(scores, clip_B)

    if weights is None:
        weights = np.ones(n, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != n or np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise DomainError("weights must be finite and nonnegative")
    if weights.sum() <= 0:
        raise DomainError("total weight must be positive")

    if target is not None:
        target = target_posterior(target, n)

    checked: dict[str, np.ndarray] = {}
    for name in features:
        if name == group_column:
            raise DomainError(f"feature {name!r} has the group column's name")
        kind = kinds.get(name)
        if kind not in ("numeric", "categorical"):
            raise DomainError(f"feature {name!r} has unknown kind {kind!r}")
        col = np.asarray(features[name])
        if col.shape[0] != n:
            raise DomainError(f"feature {name!r} length mismatch")
        if kind == "numeric":
            col = col.astype(float)
            if not np.all(np.isfinite(col)):
                raise DomainError(f"feature {name!r} has non-finite values")
        else:
            col = col.astype(object)
        checked[name] = col

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


@dataclass(frozen=True)
class View:
    """Weighted subset of a Dataset; weights sum to 1."""

    base: Dataset
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return int(self.indices.shape[0])

    def pick(self, arr: np.ndarray) -> np.ndarray:
        """Select the view's rows out of a base-aligned array."""
        arr = np.asarray(arr)
        if arr.shape[0] != self.base.n:
            raise DomainError("array is not aligned with the base dataset")
        return arr[self.indices]


def make_view(base: Dataset, indices, raw_weights=None) -> View:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape[0] == 0:
        raise EmptyMeasureError("view must contain at least one row")
    if raw_weights is None:
        raw_weights = base.weights[indices]
    raw_weights = np.asarray(raw_weights, dtype=float)
    total = raw_weights.sum()
    if total <= 0:
        raise EmptyMeasureError("view has zero total weight")
    return View(base=base, indices=indices, weights=raw_weights / total)


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

    Both q and eta_t are base-aligned arrays (or scalars broadcast over the
    base); eta_t is read by `target_posterior`.  Natural log.  Scores of
    exactly 0 or 1 facing opposing target mass raise InfiniteRiskError.
    """
    q = np.broadcast_to(np.asarray(q, dtype=float), (v.base.n,))
    qv = q[v.indices]
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
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
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
