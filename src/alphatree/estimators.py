"""Posterior estimators and tree initializers.

The boosting loop never sees raw labels; it sees a posterior target
eta(x) = P(Y = +1 | x).  The plug-in estimators here produce that target,
and the initializers build the starting tree shapes the fairness drivers
grow from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import AlphaTree, DomainError, Leaf, Node, SplitTest, expit, single_leaf_tree

__all__ = [
    "label_plugin",
    "GaussianPlugin",
    "gaussian_plugin_fit",
    "gaussian_plugin_eval",
    "init_stump",
    "ProxyLeaf",
    "ProxyNode",
    "ProxyTree",
    "proxy_group_tree",
    "alpha_tree_from_proxy",
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
    mean = float(np.dot(w, values)) / total
    var = float(np.dot(w, (values - mean) ** 2)) / total
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
    if w.shape != y.shape or np.any(w < 0) or w.sum() <= 0:
        raise DomainError("weights must be nonnegative and not all zero")
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
            domain = sorted(set(np.asarray(col).tolist()))
            d = len(domain)
            logp_pos = {}
            logp_neg = {}
            for m in domain:
                mask = np.asarray(col) == m
                logp_pos[m] = math.log((float(w[pos & mask].sum()) + 1.0) / (w_pos + d + 1.0))
                logp_neg[m] = math.log((float(w[neg & mask].sum()) + 1.0) / (w_neg + d + 1.0))
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
class ProxyLeaf:
    label: object


@dataclass(frozen=True)
class ProxyNode:
    test: SplitTest
    left: "ProxyNode | ProxyLeaf"
    right: "ProxyNode | ProxyLeaf"


@dataclass(frozen=True)
class ProxyTree:
    root: object
    classes: tuple

    def predict(self, columns) -> np.ndarray:
        first_col = next(iter(columns.values()))
        n = len(first_col)
        out = np.empty(n, dtype=object)
        idx = np.arange(n)
        self._fill(self.root, columns, idx, out)
        return out

    def _fill(self, node, columns, idx, out):
        if isinstance(node, ProxyLeaf):
            out[idx] = node.label
            return
        values = np.asarray(columns[node.test.feature])[idx]
        go_left = node.test.passes_rows(values)
        self._fill(node.left, columns, idx[go_left], out)
        self._fill(node.right, columns, idx[~go_left], out)


def proxy_group_tree(columns, kinds, groups, max_depth: int = 8, min_leaf: int = 30) -> ProxyTree:
    """Multiclass entropy tree predicting the group from ordinary features.

    Each node takes the split with the lowest count-weighted class entropy
    of its children, each child holding at least min_leaf rows; ties go to
    the earliest feature in schema order, then the lowest threshold / first
    modality in sorted order.  A node splits only when that beats its own
    weighted entropy by more than 1e-12.
    """
    groups = np.asarray(groups, dtype=object)
    classes = tuple(sorted(set(groups.tolist())))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[g] for g in groups.tolist()])
    n = len(y)
    if n == 0:
        raise DomainError("need at least one row")
    one_hot = np.eye(len(classes), dtype=np.int64)

    def counts_of(idx):
        return np.bincount(y[idx], minlength=len(classes))

    def majority(idx):
        c = counts_of(idx)
        return classes[int(np.argmax(c))]

    def build(idx: np.ndarray, depth: int):
        counts = counts_of(idx)
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.count_nonzero(counts) <= 1:
            return ProxyLeaf(majority(idx))
        parent_h = _kernels.class_entropy(counts) * len(idx)
        best = None
        for name, kind in kinds.items():
            values = np.asarray(columns[name])[idx]
            if kind == "numeric":
                values = values.astype(float)
                order = np.argsort(values, kind="stable")
                sv = values[order]
                cumc = np.cumsum(one_hot[y[idx][order]], axis=0)
                i, h = _kernels.class_split_scan(sv, cumc, min_leaf)
                if i >= 0 and (best is None or h < best[0]):
                    thr = _kernels.midpoint_threshold(sv, i)
                    best = (h, SplitTest(name, "numeric", thr, None))
            else:
                for m in sorted(set(values.tolist())):
                    mask = values == m
                    cl = int(mask.sum())
                    if cl < min_leaf or len(idx) - cl < min_leaf:
                        continue
                    lc = counts_of(idx[mask])
                    h = _kernels.class_entropy(lc) * cl + _kernels.class_entropy(counts - lc) * (len(idx) - cl)
                    if best is None or h < best[0]:
                        best = (h, SplitTest(name, "categorical", None, m))
        if best is None or best[0] >= parent_h - 1e-12:
            return ProxyLeaf(majority(idx))
        test = best[1]
        values = np.asarray(columns[test.feature])[idx]
        go_left = test.passes_rows(values)
        return ProxyNode(test, build(idx[go_left], depth + 1), build(idx[~go_left], depth + 1))

    return ProxyTree(root=build(np.arange(n), 0), classes=classes)


def alpha_tree_from_proxy(proxy: ProxyTree) -> AlphaTree:
    """Identity wrapper tree over the proxy partition.

    Reuses the proxy's tests so routing never touches the group column;
    leaves get ids 0..L-1 left to right, all alphas 1.  Use this as tree0
    when scheduling drivers on proxy groups.
    """
    counter = [0]

    def build(node):
        if isinstance(node, ProxyLeaf):
            leaf = Leaf(counter[0], 1.0)
            counter[0] += 1
            return leaf
        return Node(node.test, build(node.left), build(node.right))

    return AlphaTree(build(proxy.root))
