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
from .core import (_MAX_DEPTH, AlphaTree, DomainError, Leaf, Node, SchemaError, SplitTest, category_codes, dot,
                   expit, per_row, read_columns, route_rows, row_count, single_leaf_tree)
from .data import read_labels

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
    """Degenerate posterior 1{y = +1} straight from the labels (see `data.read_labels`)."""
    return (read_labels(labels) == 1).astype(float)


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
    add-one smoothing (w_count + 1) / (W_class + |domain| + 1) over the
    levels of `core.Codes.levels`.  labels set the row count (see
    `data.read_labels`); weights are read by `per_row`, and the columns as
    routing reads them, a categorical one as its Codes (`core.read_columns`).
    """
    y = read_labels(labels)
    w = per_row(weights, y.shape[0], "weights", float)
    if not np.all(np.isfinite(w) & (w >= 0)) or not w.sum() > 0:
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
    for name, values in read_columns(columns, kinds, y.shape[0], "feature").items():
        if kinds[name] == "numeric":
            rng = float(values.max() - values.min())
            floor = max(VARIANCE_FLOOR_SCALE * rng * rng, VARIANCE_FLOOR_ABS)
            mp, vp = _weighted_gaussian(values[pos], w[pos], floor)
            mn, vn = _weighted_gaussian(values[neg], w[neg], floor)
            features[name] = _NumericFeature(mp, vp, mn, vn)
        else:
            domain = values.levels()
            d = len(domain)
            features[name] = _CategoricalFeature(
                logp_pos={m: math.log((float(w[idx][pos[idx]].sum()) + 1.0) / (w_pos + d + 1.0))
                          for m, idx in domain.items()},
                logp_neg={m: math.log((float(w[idx][neg[idx]].sum()) + 1.0) / (w_neg + d + 1.0))
                          for m, idx in domain.items()},
                floor_pos=math.log(1.0 / (w_pos + d + 1.0)),
                floor_neg=math.log(1.0 / (w_neg + d + 1.0)),
            )

    total = w_pos + w_neg
    return GaussianPlugin(
        kinds=dict(kinds),
        features=features,
        log_prior_pos=math.log(w_pos / total),
        log_prior_neg=math.log(w_neg / total),
    )


def gaussian_plugin_eval(model: GaussianPlugin, columns) -> np.ndarray:
    """Posterior P(Y=+1 | x) per row, clamped into [1e-15, 1 - 1e-15].

    The first one-dimensional column of the model sets the row count (see
    `core.row_count`), and the columns are read as routing reads them (see
    `core.read_columns`), a categorical one as its Codes: each level is
    looked up once, and every row takes its entry by code.
    """
    n = row_count(columns, model.kinds)
    margin = np.full(n, model.log_prior_pos - model.log_prior_neg)
    for name, values in read_columns(columns, model.kinds, n, "feature").items():
        feat = model.features[name]
        if model.kinds[name] == "numeric":
            lp = -0.5 * (np.log(2.0 * math.pi * feat.var_pos) + (values - feat.mean_pos) ** 2 / feat.var_pos)
            ln = -0.5 * (np.log(2.0 * math.pi * feat.var_neg) + (values - feat.mean_neg) ** 2 / feat.var_neg)
        else:
            lp = np.array([feat.logp_pos.get(m, feat.floor_pos) for m in values.names])[values.codes]
            ln = np.array([feat.logp_neg.get(m, feat.floor_neg) for m in values.names])[values.codes]
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
        """Group label of each row.  Only the columns the tree tests are read,
        and one of them sets the row count (see `core.row_count`); a tree that
        tests nothing takes it from the columns given."""
        n = row_count(columns, self.tree.feature_kinds() or columns)
        return np.array(self.labels, dtype=object)[route_rows(self.tree, columns, n)]


def proxy_group_tree(columns, kinds, groups, max_depth: int = 8, min_leaf: int = 30) -> ProxyTree:
    """Multiclass entropy tree predicting the group from ordinary features.

    Each node takes the split with the lowest count-weighted class entropy
    of its children, each child holding at least min_leaf rows; ties go to
    the earliest feature in schema order, then the lowest threshold / first
    modality in sorted order.  A node splits only when that beats its own
    weighted entropy by more than 1e-12.  groups set the row count; every
    column in kinds is read against it as routing reads it, a categorical
    one as its Codes (`core.read_columns`).  A split below a path of 960
    tests is a SchemaError, as a tree that deep is (see `core.AlphaTree`).
    max_depth below 0 or min_leaf below 1 is a DomainError.

    The classes, the groups in sorted order, and each row's class id are
    the group column's codes (see `core.category_codes`).  The numeric
    columns are sorted once, at the root; each searched child filters its
    parent's order to its own rows (see `_kernels.child_order`).
    """
    if max_depth < 0:
        raise DomainError(f"proxy group tree depth must be >= 0, got {max_depth}")
    if min_leaf < 1:
        raise DomainError(f"proxy group tree min_leaf must be >= 1, got {min_leaf}")
    group_codes = category_codes(per_row(groups, None, "groups", object))
    classes, y = group_codes.names, group_codes.codes
    n = y.shape[0]
    if n == 0:
        raise DomainError("need at least one row")
    if not kinds:
        raise DomainError("no feature columns to grow the proxy group tree on")
    columns = read_columns(columns, kinds, n, "feature")
    one_hot = np.eye(len(classes), dtype=np.int64)

    def counts_of(idx):
        return np.bincount(y[idx], minlength=len(classes))

    labels: list = []

    def leaf(idx):
        # leaves are built left to right, so ids follow that order
        labels.append(classes[int(np.argmax(counts_of(idx)))])
        return Leaf(len(labels) - 1, 1.0)

    def build(idx: np.ndarray, depth: int, parent_order=None, mask=None):
        """The subtree of rows idx; a child gets its parent's numeric order and the
        mask of its rows there, and derives its own only when it is searched."""
        counts = counts_of(idx)
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.count_nonzero(counts) <= 1:
            return leaf(idx)
        parent_h = _kernels.class_entropy(counts) * len(idx)
        node_columns = {name: col.take(idx) for name, col in columns.items()}
        if mask is None:  # the root: the one sort of the fit
            order = _kernels.numeric_order(node_columns, kinds)
        else:
            order = _kernels.child_order(parent_order, mask)
        # the identity is symmetric, so its columns at y are the one-hot rows, transposed
        stats = one_hot.take(y[idx], axis=1)
        found = _kernels.split_search(node_columns, kinds, stats, _kernels.class_score, min_leaf, order)
        if found is None or found[0] >= parent_h - 1e-12:
            return leaf(idx)
        if depth >= _MAX_DEPTH:
            raise SchemaError(f"proxy group tree grows past {_MAX_DEPTH} tests deep; a model file holds at "
                              f"most {_MAX_DEPTH}")
        test = found[1]
        go_left = test.passes_rows(columns[test.feature].take(idx))
        return Node(test, build(idx[go_left], depth + 1, order, go_left),
                    build(idx[~go_left], depth + 1, order, ~go_left))

    root = build(np.arange(n), 0)
    return ProxyTree(tree=AlphaTree(root), labels=tuple(labels))
