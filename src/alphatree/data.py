"""Tabular dataset model, weighted conditional views, and the log-loss risk.

A Dataset is an immutable column store: declared feature columns (numeric or
categorical), a ±1 label, a sensitive-group modality, a clipped black-box
score, optional target-posterior column, and nonnegative row weights.  A View
is a cheap handle on a weighted subset of rows with weights renormalized to
sum 1; every expectation in the package is taken under a View.

Per-row auxiliary arrays (scores, target posteriors, nlogit overrides) are
always aligned with the base Dataset; Views pick rows out by index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# route_rows is not called here; it stays bound for perfbench/tracer.py, which swaps it by name
from .core import DomainError, clip_score, route_rows, xlogy

__all__ = [
    "EmptyMeasureError",
    "InfiniteRiskError",
    "Dataset",
    "View",
    "make_dataset",
    "make_view",
    "full_view",
    "condition_on_group",
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
class Dataset:
    """Immutable desk-scale dataset.

    columns holds every routable column (declared features plus the group
    column); feature_names lists the declared split candidates in schema
    order, which fixes split tie-breaking.
    """

    columns: dict[str, np.ndarray]
    kinds: dict[str, str]
    feature_names: tuple[str, ...]
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

    def feature_kinds(self) -> dict[str, str]:
        return {name: self.kinds[name] for name in self.feature_names}


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

    The group column is added to the routable columns under group_column but
    is not a split candidate unless it also appears in features.
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
        target = np.asarray(target, dtype=float)
        if target.shape[0] != n or np.any(target < 0) or np.any(target > 1):
            raise DomainError("target posterior column must lie in [0, 1]")

    columns: dict[str, np.ndarray] = {}
    all_kinds: dict[str, str] = {}
    feature_names = tuple(features.keys())
    for name in feature_names:
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
        columns[name] = col
        all_kinds[name] = kind
    if group_column not in columns:
        columns[group_column] = groups
        all_kinds[group_column] = "categorical"

    return Dataset(
        columns=columns,
        kinds=all_kinds,
        feature_names=feature_names,
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
    if s not in set(ds.groups.tolist()):
        raise EmptyMeasureError(f"group modality {s!r} not observed")
    mask = ds.groups == s
    return make_view(ds, np.flatnonzero(mask))


def empirical_risk(v: View, q, eta_t) -> float:
    """Expected log-loss of posterior q against target eta_t under the view.

    Both q and eta_t are base-aligned arrays (or scalars broadcast over the
    base).  Natural log.  Scores of exactly 0 or 1 facing opposing target
    mass raise InfiniteRiskError.
    """
    q = np.broadcast_to(np.asarray(q, dtype=float), (v.base.n,))
    eta = np.broadcast_to(np.asarray(eta_t, dtype=float), (v.base.n,))
    qv = q[v.indices]
    ev = eta[v.indices]
    if np.any(qv < 0) or np.any(qv > 1):
        raise DomainError("posterior values must lie in [0, 1]")
    terms = -(xlogy(ev, qv) + xlogy(1.0 - ev, 1.0 - qv))
    if not np.all(np.isfinite(terms)):
        raise InfiniteRiskError("posterior hit 0 or 1 with opposing target mass")
    return float(np.dot(v.weights, terms))


def binary_entropy(p):
    """H(p) = -p log p - (1-p) log(1-p), natural log, with 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise DomainError("binary_entropy requires p in [0, 1]")
    clipped = np.minimum(np.maximum(arr, 0.0), 1.0)
    out = -(xlogy(clipped, clipped) + xlogy(1.0 - clipped, 1.0 - clipped))
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

    def last_iteration(self) -> int:
        return self.rows[-1].iteration if self.rows else -1

    def values(self, metric: str) -> list[float]:
        return [r.value for r in self.rows if r.metric == metric]
