"""Posterior estimators and tree initializers.

The boosting loop never sees raw labels; it sees a posterior target
eta(x) = P(Y = +1 | x).  The plug-in estimators here produce that target,
and the initializers build the starting tree shapes the fairness drivers
grow from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import AlphaTree, DomainError, Leaf, Node, SplitTest, dot, expit, route_rows, single_leaf_tree
from .data import levels

__all__ = [
    "label_plugin",
    "GaussianPlugin",
    "gaussian_plugin_fit",
    "gaussian_plugin_eval",
    "init_stump",
    "ProxyTree",
    "proxy_group_tree",
]

ETA_CLAMP = 1e-15
VARIANCE_FLOOR_SCALE = 1e-9
VARIANCE_FLOOR_ABS = 1e-12


def label_plugin(labels) -> np.ndarray:
    """Degenerate posterior 1{y = +1} straight from the labels."""
    y = np.asarray(labels)
    if not np.all(np.isin(y, (-1, 1))):
        raise DomainError("labels must be ±1")
    return (y == 1).astype(float)


# ---------------------------------------------------------------------------
# weighted naive Bayes plug-in
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NumericFeature:
    mean_pos: float
    var_pos: float
    mean_neg: float
    var_neg: float


@dataclass(frozen=True)
class _CategoricalFeature:
    # modality -> smoothed log-probability, one table per class; modalities
    # unseen at fit time fall back to the floor entries
    logp_pos: dict
    logp_neg: dict
    floor_pos: float
    floor_neg: float


@dataclass(frozen=True)
class GaussianPlugin:
    """Weighted naive Bayes posterior model over a mixed-kind schema."""

    kinds: dict
    features: dict
    log_prior_pos: float
    log_prior_neg: float


def _weighted_gaussian(values: np.ndarray, w: np.ndarray, floor: float) -> tuple[float, float]:
    total = float(w.sum())
    mean = dot(w, values) / total
    var = dot(w, (values - mean) ** 2) / total
    return mean, max(var, floor)


def gaussian_plugin_fit(columns, kinds, labels, weights) -> GaussianPlugin:
    """Fit per-class feature distributions under the sample weights.

    Numeric features get a weighted Gaussian with variance floored at
    1e-9 * range^2 (1e-12 if the feature is constant); categorical ones get
    add-one smoothing (w_count + 1) / (W_class + |domain| + 1).
    """
    y = np.asarray(labels)
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isin(y, (-1, 1))):
        raise DomainError("labels must be ±1")
    if w.shape != y.shape or not np.all(np.isfinite(w) & (w >= 0)) or not w.sum() > 0:
        raise DomainError("weights must be finite, nonnegative and not all zero")
    if not kinds:
        raise DomainError("no feature columns to fit the posterior estimate on")
    pos = y == 1
    neg = ~pos
    w_pos = float(w[pos].sum())
    w_neg = float(w[neg].sum())
    if w_pos <= 0 or w_neg <= 0:
        raise DomainError("both classes need positive weight")

    features: dict = {}
    for name, kind in kinds.items():
        col = columns[name]
        if kind == "numeric":
            values = np.asarray(col, dtype=float)
            rng = float(values.max() - values.min())
            floor = max(VARIANCE_FLOOR_SCALE * rng * rng, VARIANCE_FLOOR_ABS)
            mp, vp = _weighted_gaussian(values[pos], w[pos], floor)
            mn, vn = _weighted_gaussian(values[neg], w[neg], floor)
            features[name] = _NumericFeature(mp, vp, mn, vn)
        elif kind == "categorical":
            domain = levels(col)
            d = len(domain)
            logp_pos = {}
            logp_neg = {}
            for m, idx in domain.items():
                logp_pos[m] = math.log((float(w[idx][pos[idx]].sum()) + 1.0) / (w_pos + d + 1.0))
                logp_neg[m] = math.log((float(w[idx][neg[idx]].sum()) + 1.0) / (w_neg + d + 1.0))
            features[name] = _CategoricalFeature(
                logp_pos=logp_pos,
                logp_neg=logp_neg,
                floor_pos=math.log(1.0 / (w_pos + d + 1.0)),
                floor_neg=math.log(1.0 / (w_neg + d + 1.0)),
            )
        else:
            raise DomainError(f"feature {name!r} has unknown kind {kind!r}")

    total = w_pos + w_neg
    return GaussianPlugin(
        kinds=dict(kinds),
        features=features,
        log_prior_pos=math.log(w_pos / total),
        log_prior_neg=math.log(w_neg / total),
    )


def gaussian_plugin_eval(model: GaussianPlugin, columns) -> np.ndarray:
    """Posterior P(Y=+1 | x) per row, clamped into [1e-15, 1 - 1e-15]."""
    first = next(iter(model.kinds))
    n = len(columns[first])
    margin = np.full(n, model.log_prior_pos - model.log_prior_neg)
    for name, kind in model.kinds.items():
        feat = model.features[name]
        col = columns[name]
        if kind == "numeric":
            values = np.asarray(col, dtype=float)
            lp = -0.5 * (np.log(2.0 * math.pi * feat.var_pos) + (values - feat.mean_pos) ** 2 / feat.var_pos)
            ln = -0.5 * (np.log(2.0 * math.pi * feat.var_neg) + (values - feat.mean_neg) ** 2 / feat.var_neg)
            margin += lp - ln
        else:
            vals = np.asarray(col)
            lp = np.array([feat.logp_pos.get(m, feat.floor_pos) for m in vals.tolist()])
            ln = np.array([feat.logp_neg.get(m, feat.floor_neg) for m in vals.tolist()])
            margin += lp - ln
    eta = expit(margin)
    return np.clip(eta, ETA_CLAMP, 1.0 - ETA_CLAMP)


# ---------------------------------------------------------------------------
# tree initializers
# ---------------------------------------------------------------------------


def init_stump(group_modalities, group_column: str = "group") -> AlphaTree:
    """Identity tree with one leaf per group.

    Builds a chain of equality tests on the group column, one per modality
    in sorted order; leaf k answers for modality k, the deepest leaf for the
    last one.  All alphas start at 1, leaf ids run 0..K-1.
    """
    modalities = sorted(set(group_modalities))
    if not modalities:
        raise DomainError("need at least one group modality")
    k = len(modalities)
    if k == 1:
        return single_leaf_tree()
    root = Leaf(k - 1, 1.0)
    for idx in range(k - 2, -1, -1):
        test = SplitTest(feature=group_column, kind="categorical", threshold=None, modality=modalities[idx])
        root = Node(test, Leaf(idx, 1.0), root)
    return AlphaTree(root)


# ---------------------------------------------------------------------------
# proxy group model for datasets whose group column is unavailable at
# prediction time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxyTree:
    """Group predictor: an identity alpha-tree whose leaf i predicts labels[i].

    Its leaf ids run 0..L-1 from left to right and every alpha is 1, so the
    tree itself is the starting tree of `run_cvar`, `run_eoo` or `run_sp`
    on the proxy partition.
    """

    tree: AlphaTree
    labels: tuple

    def predict(self, columns) -> np.ndarray:
        n = len(next(iter(columns.values())))
        return np.array(self.labels, dtype=object)[route_rows(self.tree, columns, n)]


def proxy_group_tree(columns, kinds, groups, max_depth: int = 8, min_leaf: int = 30) -> ProxyTree:
    """Multiclass entropy tree predicting the group from ordinary features.

    Each node takes the split with the lowest count-weighted class entropy
    of its children, each child holding at least min_leaf rows; ties go to
    the earliest feature in schema order, then the lowest threshold / first
    modality in sorted order.  A node splits only when that beats its own
    weighted entropy by more than 1e-12.
    """
    if max_depth < 0:
        raise DomainError(f"proxy group tree depth must be >= 0, got {max_depth}")
    rows = levels(np.asarray(groups, dtype=object))
    classes = tuple(rows)
    y = np.empty(len(groups), dtype=np.int64)
    for i, idx in enumerate(rows.values()):
        y[idx] = i
    n = len(y)
    if n == 0:
        raise DomainError("need at least one row")
    if not kinds:
        raise DomainError("no feature columns to grow the proxy group tree on")
    one_hot = np.eye(len(classes), dtype=np.int64)

    def counts_of(idx):
        return np.bincount(y[idx], minlength=len(classes))

    labels: list = []

    def leaf(idx):
        # leaves are built left to right, so ids follow that order
        labels.append(classes[int(np.argmax(counts_of(idx)))])
        return Leaf(len(labels) - 1, 1.0)

    def build(idx: np.ndarray, depth: int):
        counts = counts_of(idx)
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.count_nonzero(counts) <= 1:
            return leaf(idx)
        parent_h = _kernels.class_entropy(counts) * len(idx)
        node_columns = {name: np.asarray(columns[name])[idx] for name in kinds}
        # the identity is symmetric, so its columns at y are the one-hot rows, transposed
        stats = one_hot.take(y[idx], axis=1)
        found = _kernels.split_search(node_columns, kinds, stats, _kernels.class_score, min_leaf)
        if found is None or found[0] >= parent_h - 1e-12:
            return leaf(idx)
        test = found[1]
        go_left = test.passes_rows(node_columns[test.feature])
        return Node(test, build(idx[go_left], depth + 1), build(idx[~go_left], depth + 1))

    root = build(np.arange(n), 0)
    return ProxyTree(tree=AlphaTree(root), labels=tuple(labels))

