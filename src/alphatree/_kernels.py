"""Split scans: score every boundary of a sorted column at once.

A scan takes one feature's values in sorted order plus prefix sums of what
the children need, and returns the boundary with the lowest weighted
two-child entropy.  A boundary before position i puts i rows left.  Both
scans draw their candidates from `split_boundaries` (distinct neighbours,
at least `min_count` rows per side), and both callers turn the winning
boundary into a threshold with `midpoint_threshold`.

- `numeric_split_scan` scores binary alignment entropy for the alpha-tree
  (`boosting.best_split`).
- `class_split_scan` scores multiclass entropy of class counts for the
  proxy group tree (`estimators.proxy_group_tree`), the class-count scan
  over a sorted attribute of SLIQ (Mehta et al., EDBT 1996).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "class_entropy",
    "class_split_scan",
    "midpoint_threshold",
    "numeric_split_scan",
    "split_boundaries",
]


def split_boundaries(values, min_count):
    """Mask over boundaries 1..n-1 of sorted values (entry i-1 for boundary i).

    A boundary qualifies when it separates two distinct values and leaves at
    least min_count rows on each side.
    """
    n = values.shape[0]
    i = np.arange(1, n)
    return (values[1:] != values[:-1]) & (i >= min_count) & ((n - i) >= min_count)


def midpoint_threshold(sorted_values, i) -> float:
    """Threshold of the boundary before position i: rows <= it go left."""
    thr = 0.5 * (sorted_values[i - 1] + sorted_values[i])
    if thr >= sorted_values[i]:
        # midpoint of adjacent floats can round up; keep the cut strictly
        # between the two runs
        thr = sorted_values[i - 1]
    return float(thr)


def numeric_split_scan(values, cumw, cuma, min_mass, min_count):
    """Best boundary of a sorted leaf: returns (left_count, post_entropy).

    values: sorted feature values; cumw/cuma: inclusive prefix sums of row
    weight and of weight * signed alignment (w * (2 eta - 1) * nlogit).
    Children must carry at least min_mass weight and min_count rows each.
    Returns (-1, inf) when no boundary qualifies.
    """
    n = values.shape[0]
    if n < 2:
        return -1, np.inf
    total_w = cumw[n - 1]
    total_a = cuma[n - 1]
    wl = cumw[:-1]
    wr = total_w - wl
    valid = split_boundaries(values, min_count)
    valid &= (wl >= min_mass) & (wr >= min_mass)
    if not valid.any():
        return -1, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        el = np.minimum(np.maximum(cuma[:-1] / wl, -1.0), 1.0)
        er = np.minimum(np.maximum((total_a - cuma[:-1]) / wr, -1.0), 1.0)
        pl = 0.5 * (1.0 + el)
        pr = 0.5 * (1.0 + er)
        hl = np.where(
            (pl <= 0.0) | (pl >= 1.0),
            0.0,
            -(pl * np.log(pl) + (1.0 - pl) * np.log(1.0 - pl)),
        )
        hr = np.where(
            (pr <= 0.0) | (pr >= 1.0),
            0.0,
            -(pr * np.log(pr) + (1.0 - pr) * np.log(1.0 - pr)),
        )
    post = wl * hl + wr * hr
    post = np.where(valid, post, np.inf)
    k = int(np.argmin(post))
    if not np.isfinite(post[k]):
        return -1, np.inf
    return k + 1, float(post[k])


def class_entropy(counts):
    """Entropy -sum p log p of class counts over the last axis, p = count / total.

    A 1-D input gives a float, summed over its nonzero classes; a row of
    zeros has entropy 0.  A 2-D input gives one entropy per row, equal bit
    for bit to that row's 1-D entropy.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 1:
        total = counts.sum()
        if total == 0:
            return 0.0
        p = counts[counts > 0] / total
        return float(-(p * np.log(p)).sum())
    total = counts.sum(axis=1)
    nonzero = counts > 0
    if nonzero.all():
        p = counts / total[:, None]
        return -(p * np.log(p)).sum(axis=1)
    # rows with the same number of nonzero classes share one (rows, width)
    # block, so each row sums exactly its nonzero terms, in class order
    width = nonzero.sum(axis=1)
    out = np.zeros(counts.shape[0])
    for k in np.unique(width[width > 0]):
        rows = width == k
        p = counts[rows][nonzero[rows]].reshape(-1, k) / total[rows, None]
        out[rows] = -(p * np.log(p)).sum(axis=1)
    return out


def class_split_scan(values, cumc, min_count):
    """Best boundary of a sorted node by class counts: (left_count, weighted entropy).

    values: sorted feature values; cumc: (rows, classes) inclusive prefix
    counts of each class in that order.  The score of boundary i is
    H(left) * i + H(right) * (rows - i); ties go to the lowest boundary.
    Returns (-1, inf) when no boundary qualifies.
    """
    n = values.shape[0]
    if n < 2:
        return -1, np.inf
    at = np.flatnonzero(split_boundaries(values, min_count)) + 1
    if at.size == 0:
        return -1, np.inf
    left = cumc[at - 1]
    right = cumc[n - 1] - left
    h = class_entropy(left) * at + class_entropy(right) * (n - at)
    k = int(np.argmin(h))
    return int(at[k]), float(h[k])
