"""Split search: the lowest-scoring axis-aligned test of a node.

Both trees of the package pick their splits through `split_search`, each
with its own score:

- `alignment_score(min_mass)` is the mass-weighted two-child entropy of the
  alignment edge, for the alpha-tree (`boosting.best_split`);
- `class_score` is the count-weighted class entropy of the two children,
  for the proxy group tree (`estimators.proxy_group_tree`): the class-count
  criterion of SLIQ (Mehta et al., EDBT 1996).

The search sums per-row statistics over each candidate's children; a
score maps those sums to one figure per candidate, inf where it rejects
one.  The numeric features of a node are scanned together: their columns
are stacked into one (features, rows) array, put in the order of one
stable argsort along the rows, summed by one prefix sum of the statistics
in each feature's order, and scored by one `numeric_split_scan` call over
every qualifying (feature, boundary) pair at once.

A node need not sort: a tree sorts its root (`numeric_order`) and hands
each child its parent's order filtered to the child's rows
(`child_order`), as SPRINT's attribute lists are split with their node
(Shafer, Agrawal & Mehta, VLDB 1996).  A filtered stable order is the
child's own stable order, so the search is the same bit for bit.  A
categorical feature is searched as its `core.Codes`, whose modalities are
one stable argsort of small integer codes; a tree reads the codes of a
column once (`core.read_columns`) and takes them at each node's rows.
"""

from __future__ import annotations

import numpy as np

from .core import SplitTest

__all__ = [
    "alignment_score",
    "class_entropy",
    "class_score",
    "child_order",
    "midpoint_threshold",
    "numeric_order",
    "numeric_split_scan",
    "split_search",
]


def midpoint_threshold(sorted_values, i) -> float:
    """Threshold of the boundary before position i: rows <= it go left."""
    thr = 0.5 * (sorted_values[i - 1] + sorted_values[i])
    if thr >= sorted_values[i]:
        # midpoint of adjacent floats can round up; keep the cut strictly
        # between the two runs
        thr = sorted_values[i - 1]
    return float(thr)


def numeric_split_scan(values, prefix, score, min_count):
    """Best boundary of sorted columns: returns (feature, left_count, score).

    values: (f, rows) feature values, each row sorted; prefix: (k, f, rows)
    inclusive prefix sums of the per-row statistics in each feature's
    order.  A boundary before position i puts i rows left; it qualifies
    when it separates two distinct values and leaves at least min_count
    rows on each side.  `score` gets the left and right sums of all
    qualifying boundaries, feature-major, in one call; each candidate's
    right sums come from its own feature's prefix total.  Ties go to the
    earliest feature, then the lowest boundary.  Returns (-1, -1, inf) when
    no boundary qualifies or every one scores inf.
    """
    n = values.shape[1]
    at = np.arange(1, n)
    feature, i = np.nonzero((values[:, 1:] != values[:, :-1]) & (at >= min_count) & (n - at >= min_count))
    if i.size == 0:
        return -1, -1, np.inf
    left = prefix[:, feature, i]
    post = score(left, prefix[:, feature, n - 1] - left)
    k = int(np.argmin(post))
    if not np.isfinite(post[k]):
        return -1, -1, np.inf
    return int(feature[k]), int(i[k]) + 1, float(post[k])


def _numeric(kinds) -> list:
    return [name for name, kind in kinds.items() if kind == "numeric"]


def _numeric_block(columns, numeric) -> np.ndarray:
    return np.stack([np.asarray(columns[name], dtype=float) for name in numeric])


def numeric_order(columns, kinds):
    """The order `split_search` takes: a stable argsort along the rows of the
    node's numeric columns, one row per numeric feature in kinds order; None
    when kinds holds no numeric feature."""
    numeric = _numeric(kinds)
    return np.argsort(_numeric_block(columns, numeric), axis=1, kind="stable") if numeric else None


def child_order(order, mask):
    """A child's `numeric_order` from its parent's, for the parent's rows where mask holds.

    Filtering keeps a stable order stable: ties stay in ascending row order,
    and renumbering the kept rows keeps that order, so this equals the
    child's own stable argsort bit for bit.  None stays None.
    """
    if order is None:
        return None
    rank = np.cumsum(mask) - 1
    return rank[order[mask[order]]].reshape(order.shape[0], int(rank[-1]) + 1)


def split_search(columns, kinds, stats, score, min_count, order=None):
    """Lowest-score test of a node: (score, SplitTest, left sums), or None.

    columns maps each feature to its values at the node's rows, and kinds
    lists the features in search order; a categorical feature's values
    come as their `core.Codes`, as `core.read_columns` reads them.  stats
    is a C-contiguous (k, rows) array of per-row statistics; score(left,
    right) takes the (k, m) sums of m candidates' children and returns
    their m scores.  order is the node's `numeric_order`, sorted here when
    None.  Candidates are the midpoints between consecutive distinct values
    of a numeric feature and each observed modality of a categorical one
    (its rows go left); each child holds at least min_count rows.  Ties go
    to the earliest feature, then the lowest threshold or the first
    modality in sorted order.
    """
    n = stats.shape[1]
    # (score, position in kinds, SplitTest, left sums) of each feature kind's best
    found = []
    numeric = _numeric(kinds)
    if numeric:
        values = _numeric_block(columns, numeric)
        if order is None:
            order = np.argsort(values, axis=1, kind="stable")
        # one flat take gathers every feature's sorted values; take_along_axis is slower
        sv = values.take(order + np.arange(0, values.size, n)[:, None])
        # take keeps the gathered block C-contiguous; stats[:, order] does not
        prefix = np.cumsum(stats.take(order, axis=1), axis=-1)
        j, i, post = numeric_split_scan(sv, prefix, score, min_count)
        if j >= 0:
            name = numeric[j]
            test = SplitTest(name, "numeric", midpoint_threshold(sv[j], i), None)
            found.append((post, list(kinds).index(name), test, prefix[:, j, i - 1]))
    total = stats.sum(axis=1)
    for position, (name, kind) in enumerate(kinds.items()):
        if kind == "numeric":
            continue
        kept = []
        sums = []
        for m, idx in columns[name].levels().items():
            if idx.size >= min_count and n - idx.size >= min_count:
                kept.append(m)
                # row sums of a C-contiguous block, as stats.sum sums them
                sums.append(stats.take(idx, axis=1).sum(axis=1))
        if not kept:
            continue
        left = np.stack(sums, axis=1)
        post = score(left, total[:, None] - left)
        k = int(np.argmin(post))
        if np.isfinite(post[k]):
            test = SplitTest(name, "categorical", None, kept[k])
            found.append((float(post[k]), position, test, left[:, k]))
    if not found:
        return None
    post, _, test, left = min(found, key=lambda cand: cand[:2])
    return post, test, left


def _edge_entropy(e):
    """H((1 + e) / 2) of edges e, clipped into [-1, 1]; 0 at a pure child."""
    p = 0.5 * (1.0 + np.minimum(np.maximum(e, -1.0), 1.0))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p)))


def alignment_score(min_mass):
    """Score of the alpha-tree for stats rows (weight, weight * signed alignment).

    A child's edge is its signed alignment over its weight; the score is
    w_left * H(left edge) + w_right * H(right edge), and inf where a child
    weighs less than min_mass.
    """

    def score(left, right):
        wl, al = left
        wr, ar = right
        with np.errstate(divide="ignore", invalid="ignore"):
            post = wl * _edge_entropy(al / wl) + wr * _edge_entropy(ar / wr)
        return np.where((wl >= min_mass) & (wr >= min_mass), post, np.inf)

    return score


def class_entropy(counts):
    """Entropy -sum p log p of class counts over the last axis, p = count / total.

    A 2-D input gives one entropy per row, each summed over the row's
    nonzero classes in class order; a row of zeros has entropy 0.  A 1-D
    input is one such row and gives a float.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 1:
        return float(class_entropy(counts[None])[0])
    total = counts.sum(axis=1)
    nonzero = counts > 0
    if counts.shape[1] < 8:
        # numpy sums fewer than 8 terms one after the other, so an absent
        # class's 0.0 term leaves every partial sum as it was: one pass
        p = counts / np.where(total > 0, total, 1.0)[:, None]
        out = -(p * np.log(np.where(nonzero, p, 1.0))).sum(axis=1)
        out[total == 0] = 0.0
        return out
    if nonzero.all():
        p = counts / total[:, None]
        return -(p * np.log(p)).sum(axis=1)
    # from 8 terms on numpy sums in blocks, so rows with the same number of
    # nonzero classes share one (rows, width) block, and each row sums
    # exactly its nonzero terms, in class order
    width = nonzero.sum(axis=1)
    out = np.zeros(counts.shape[0])
    for k in np.unique(width[width > 0]):
        rows = width == k
        p = counts[rows][nonzero[rows]].reshape(-1, k) / total[rows, None]
        out[rows] = -(p * np.log(p)).sum(axis=1)
    return out


def class_score(left, right):
    """Score of the proxy tree for one-hot class stats: H(left) n_left + H(right) n_right."""
    # class_entropy sums each candidate's classes along a contiguous row
    return (class_entropy(np.ascontiguousarray(left.T)) * left.sum(axis=0)
            + class_entropy(np.ascontiguousarray(right.T)) * right.sum(axis=0))
