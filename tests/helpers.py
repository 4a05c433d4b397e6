"""Shared synthetic-data builders for the test suite."""

import csv
import math

import numpy as np

from alphatree import (
    AlphaTree,
    DomainError,
    Leaf,
    LoadError,
    Node,
    SplitTest,
    full_view,
    make_dataset,
    make_view,
    wrapped_scores,
)
from alphatree._kernels import midpoint_threshold
from alphatree.data import levels
from alphatree.boosting import ENTROPY_IMPROVEMENT_TOL, SplitCandidate, _eta_rows, _nlogit_rows, leaf_entropy
from alphatree.core import dot, expit
from alphatree.estimators import ProxyTree


def random_dataset(rng, n_min=80, n_max=400, b_range=(0.5, 3.0), plugin_prob=0.4):
    """Random clipped dataset plus a target estimate for induction runs.

    Scores are sigmoid(B * u) with |u| >= 1e-3 so no confidence collapses to
    zero, and smooth targets stay inside [0.05, 0.95] which keeps audacious
    leaf labels far away from float saturation of the sigmoid.
    """
    n = int(rng.integers(n_min, n_max + 1))
    B = float(rng.uniform(*b_range))
    u = rng.uniform(1e-3, 1.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    scores = expit(B * u)
    features, kinds = {}, {}
    for j in range(int(rng.integers(1, 5))):
        # round to force ties: exercises the midpoint threshold guard
        features[f"x{j}"] = np.round(rng.normal(0.0, 1.0, n), 3)
        kinds[f"x{j}"] = "numeric"
    for j in range(int(rng.integers(0, 3))):
        features[f"c{j}"] = rng.choice(np.array(list("abcd"), dtype=object), n)
        kinds[f"c{j}"] = "categorical"
    if rng.random() < plugin_prob:
        eta = np.round(rng.random(n))
    else:
        eta = rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < np.clip(eta, 0.05, 0.95), 1, -1)
    groups = rng.choice(np.array(["g0", "g1"], dtype=object), n)
    weights = rng.uniform(0.5, 2.0, n)
    ds = make_dataset(features, kinds, labels, groups, scores, B, weights=weights)
    return ds, eta


def saturated_dataset(rng, n_min=8, n_max=200):
    """Dataset whose rows all sit at the clipping endpoints.

    Returns (ds, eta, sat) where sat holds exact +-1.0 confidences to inject
    through the nlogit override; recomputing logit(expit(B))/B would miss the
    endpoints by an ulp for most B.
    """
    n = int(rng.integers(n_min, n_max + 1))
    B = float(rng.uniform(0.5, 3.0))
    hi, lo = float(expit(B)), float(expit(-B))
    sat = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    scores = np.where(sat > 0, hi, lo)
    if rng.random() < 0.3:
        eta = np.round(rng.random(n))
    else:
        eta = rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < np.clip(eta, 0.05, 0.95), 1, -1)
    weights = rng.uniform(0.5, 2.0, n)
    ds = make_dataset({"x": rng.normal(0.0, 1.0, n)}, {"x": "numeric"},
                      labels, ["g"] * n, scores, B, weights=weights)
    return ds, eta, sat


def random_tree(rng, max_depth=4, alpha_of=None):
    """Random alpha-tree over features x0, x1 (numeric) and c0 (categorical)."""
    if alpha_of is None:
        alpha_of = lambda r: float(r.uniform(-3.0, 3.0))
    counter = [0]

    def build(depth):
        if depth >= max_depth or (depth > 0 and rng.random() < 0.35):
            leaf = Leaf(counter[0], float(alpha_of(rng)))
            counter[0] += 1
            return leaf
        if rng.random() < 0.7:
            test = SplitTest(f"x{int(rng.integers(0, 2))}", "numeric",
                             float(np.round(rng.normal(0.0, 1.0), 2)), None)
        else:
            test = SplitTest("c0", "categorical", None, str(rng.choice(list("abc"))))
        return Node(test, build(depth + 1), build(depth + 1))

    return AlphaTree(build(0))


def probe_columns(rng, n):
    """Feature columns matching random_tree's tests."""
    return {
        "x0": rng.normal(0.0, 1.0, n),
        "x1": rng.normal(0.0, 1.0, n),
        "c0": rng.choice(np.array(list("abcd"), dtype=object), n),
    }


# ---------------------------------------------------------------------------
# loop references for the split search
# ---------------------------------------------------------------------------


def numeric_split_scan_reference(values, cumw, cuma, min_mass, min_count):
    """Best boundary of a sorted leaf: returns (left_count, post_entropy).

    values: sorted feature values; cumw/cuma: inclusive prefix sums of row
    weight and of weight * signed alignment (w * (2 eta - 1) * nlogit).
    A boundary before position i puts i rows left.  Children must carry at
    least min_mass weight and min_count rows each.  Returns (-1, inf) when
    no boundary qualifies.
    """
    n = values.shape[0]
    total_w = cumw[n - 1]
    total_a = cuma[n - 1]
    best_i = -1
    best_post = np.inf
    for i in range(1, n):
        if values[i] == values[i - 1]:
            continue
        if i < min_count or (n - i) < min_count:
            continue
        wl = cumw[i - 1]
        wr = total_w - wl
        if wl < min_mass or wr < min_mass:
            continue
        el = cuma[i - 1] / wl
        er = (total_a - cuma[i - 1]) / wr
        if el > 1.0:
            el = 1.0
        elif el < -1.0:
            el = -1.0
        if er > 1.0:
            er = 1.0
        elif er < -1.0:
            er = -1.0
        pl = 0.5 * (1.0 + el)
        pr = 0.5 * (1.0 + er)
        if pl <= 0.0 or pl >= 1.0:
            hl = 0.0
        else:
            hl = -(pl * np.log(pl) + (1.0 - pl) * np.log(1.0 - pl))
        if pr <= 0.0 or pr >= 1.0:
            hr = 0.0
        else:
            hr = -(pr * np.log(pr) + (1.0 - pr) * np.log(1.0 - pr))
        post = wl * hl + wr * hr
        if post < best_post:
            best_post = post
            best_i = i
    return best_i, best_post


def best_split_reference(
    v_at_leaf,
    eta_t,
    scores,
    B: float,
    cfg,
    nlogit_values=None,
):
    """Per-feature split search that `best_split` must reproduce field for field.

    The body of `best_split` before both trees shared one search, with the
    numeric scan taken from `numeric_split_scan_reference`.
    """
    nl = _nlogit_rows(v_at_leaf, scores, B, nlogit_values)
    eta = _eta_rows(v_at_leaf, eta_t)
    w = v_at_leaf.weights
    a = w * (2.0 * eta - 1.0) * nl
    total_w = float(w.sum())
    total_a = float(a.sum())
    parent_edge = min(1.0, max(-1.0, total_a / total_w))
    parent_h = leaf_entropy(parent_edge) * total_w
    min_mass = cfg.min_child_fraction * total_w

    best = None
    n = v_at_leaf.n
    for feature, kind in v_at_leaf.base.feature_kinds().items():
        values = v_at_leaf.base.columns[feature][v_at_leaf.indices]
        if kind == "numeric":
            order = np.argsort(values, kind="stable")
            sv = np.ascontiguousarray(values[order].astype(float))
            cumw = np.cumsum(w[order])
            cuma = np.cumsum(a[order])
            i, post = numeric_split_scan_reference(sv, cumw, cuma, min_mass, cfg.min_child_count)
            if i < 0:
                continue
            cand = SplitCandidate(
                test=SplitTest(feature, "numeric", threshold=midpoint_threshold(sv, i)),
                post_entropy=float(post),
                parent_entropy=parent_h,
                mass_left=float(cumw[i - 1]),
                mass_right=float(total_w - cumw[i - 1]),
            )
            if best is None or cand.post_entropy < best.post_entropy:
                best = cand
        elif kind == "categorical":
            for modality in sorted(set(values.tolist())):
                mask = values == modality
                cl = int(mask.sum())
                if cl < cfg.min_child_count or (n - cl) < cfg.min_child_count:
                    continue
                wl = float(w[mask].sum())
                wr = total_w - wl
                if wl < min_mass or wr < min_mass:
                    continue
                el = min(1.0, max(-1.0, float(a[mask].sum()) / wl))
                er = min(1.0, max(-1.0, float(total_a - a[mask].sum()) / wr))
                post = wl * leaf_entropy(el) + wr * leaf_entropy(er)
                cand = SplitCandidate(
                    test=SplitTest(feature, "categorical", modality=modality),
                    post_entropy=float(post),
                    parent_entropy=parent_h,
                    mass_left=wl,
                    mass_right=wr,
                )
                if best is None or cand.post_entropy < best.post_entropy:
                    best = cand
        else:
            raise DomainError(f"feature {feature!r} has unknown kind {kind!r}")

    if best is None:
        return None
    if best.parent_entropy - best.post_entropy <= ENTROPY_IMPROVEMENT_TOL:
        return None
    return best


def _column_split_scan(values, prefix, score, min_count):
    """Best boundary of one sorted column: returns (left_count, score).

    The scan as it was before `numeric_split_scan` took every numeric
    feature of a node at once.
    """
    n = values.shape[0]
    at = np.arange(1, n)
    at = at[(values[1:] != values[:-1]) & (at >= min_count) & (n - at >= min_count)]
    if at.size == 0:
        return -1, np.inf
    left = prefix.take(at - 1, axis=1)
    post = score(left, prefix[:, -1:] - left)
    k = int(np.argmin(post))
    if not np.isfinite(post[k]):
        return -1, np.inf
    return int(at[k]), float(post[k])


def split_search_reference(columns, kinds, stats, score, min_count):
    """Per-feature split search that `_kernels.split_search` must reproduce bit for bit.

    The loop as it was before the numeric features of a node were sorted,
    summed and scanned together: one sort, one prefix sum and one scan per
    numeric feature, in declaration order.
    """
    n = stats.shape[1]
    total = stats.sum(axis=1)
    best = None
    for name, kind in kinds.items():
        if kind == "numeric":
            values = np.asarray(columns[name], dtype=float)
            order = np.argsort(values, kind="stable")
            sv = values[order]
            # take keeps the gathered block C-contiguous; stats[:, order] does not
            prefix = np.cumsum(stats.take(order, axis=1), axis=1)
            i, post = _column_split_scan(sv, prefix, score, min_count)
            if i < 0:
                continue
            cand = (post, SplitTest(name, "numeric", midpoint_threshold(sv, i), None), prefix[:, i - 1])
        else:
            kept = []
            sums = []
            for m, idx in levels(columns[name]).items():
                if idx.size >= min_count and n - idx.size >= min_count:
                    kept.append(m)
                    # row sums of a C-contiguous block, as stats.sum sums them
                    sums.append(stats.take(idx, axis=1).sum(axis=1))
            if not kept:
                continue
            left = np.stack(sums, axis=1)
            post = score(left, total[:, None] - left)
            j = int(np.argmin(post))
            if not np.isfinite(post[j]):
                continue
            cand = (float(post[j]), SplitTest(name, "categorical", None, kept[j]), left[:, j])
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _class_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def proxy_group_tree_reference(columns, kinds, groups, max_depth: int = 8, min_leaf: int = 30) -> ProxyTree:
    """Row-by-row proxy tree search that `proxy_group_tree` must reproduce exactly."""
    groups = np.asarray(groups, dtype=object)
    classes = tuple(sorted(set(groups.tolist())))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[g] for g in groups.tolist()])
    n = len(y)
    if n == 0:
        raise DomainError("need at least one row")

    def counts_of(idx):
        return np.bincount(y[idx], minlength=len(classes))

    def majority(idx):
        c = counts_of(idx)
        return classes[int(np.argmax(c))]

    labels = []

    def leaf(label):
        labels.append(label)
        return Leaf(len(labels) - 1, 1.0)

    def build(idx: np.ndarray, depth: int):
        counts = counts_of(idx)
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.count_nonzero(counts) <= 1:
            return leaf(majority(idx))
        parent_h = _class_entropy(counts) * len(idx)
        best = None
        for name, kind in kinds.items():
            values = np.asarray(columns[name])[idx]
            if kind == "numeric":
                values = values.astype(float)
                order = np.argsort(values, kind="stable")
                sv = values[order]
                sy = y[idx][order]
                left_counts = np.zeros(len(classes))
                for i in range(1, len(idx)):
                    left_counts[sy[i - 1]] += 1
                    if sv[i] == sv[i - 1]:
                        continue
                    if i < min_leaf or len(idx) - i < min_leaf:
                        continue
                    h = _class_entropy(left_counts) * i + _class_entropy(counts - left_counts) * (len(idx) - i)
                    if best is None or h < best[0]:
                        thr = 0.5 * (sv[i - 1] + sv[i])
                        if thr >= sv[i]:
                            thr = float(sv[i - 1])
                        best = (h, SplitTest(name, "numeric", float(thr), None))
            else:
                for m in sorted(set(values.tolist())):
                    mask = values == m
                    cl = int(mask.sum())
                    if cl < min_leaf or len(idx) - cl < min_leaf:
                        continue
                    lc = counts_of(idx[mask])
                    h = _class_entropy(lc) * cl + _class_entropy(counts - lc) * (len(idx) - cl)
                    if best is None or h < best[0]:
                        best = (h, SplitTest(name, "categorical", None, m))
        if best is None or best[0] >= parent_h - 1e-12:
            return leaf(majority(idx))
        test = best[1]
        values = np.asarray(columns[test.feature])[idx]
        go_left = test.passes_rows(values)
        return Node(test, build(idx[go_left], depth + 1), build(idx[~go_left], depth + 1))

    root = build(np.arange(n), 0)
    return ProxyTree(tree=AlphaTree(root), labels=tuple(labels))


def proxy_predict_reference(proxy: ProxyTree, columns) -> np.ndarray:
    """Recursive row router that `ProxyTree.predict` must reproduce exactly."""
    first_col = next(iter(columns.values()))
    n = len(first_col)
    out = np.empty(n, dtype=object)

    def fill(node, idx):
        if isinstance(node, Leaf):
            out[idx] = proxy.labels[node.leaf_id]
            return
        values = np.asarray(columns[node.test.feature])[idx]
        go_left = node.test.passes_rows(values)
        fill(node.left, idx[go_left])
        fill(node.right, idx[~go_left])

    fill(proxy.tree.root, np.arange(n))
    return out


# ---------------------------------------------------------------------------
# scalar references for the numpy transforms in core
# ---------------------------------------------------------------------------


def expit_reference(x: float) -> float:
    """1/(1+exp(-x)) in scalar math; 0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def xlogy_reference(x: float, y: float) -> float:
    """x*log(y) in scalar math, 0 where x == 0 and y is not nan; y > 0."""
    if x == 0.0 and not math.isnan(y):
        return 0.0
    return x * math.log(y)


# ---------------------------------------------------------------------------
# loop reference for the vectorized ROC area
# ---------------------------------------------------------------------------


def metric_auc_reference(ds, tree: AlphaTree) -> float:
    """Weighted ROC area of the wrapped scores against the labels.

    Ties in the score contribute half, the usual rank convention.
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    w = full_view(ds).weights
    pos = ds.labels == 1
    w_pos = float(w[pos].sum())
    w_neg = float(w[~pos].sum())
    if w_pos <= 0.0 or w_neg <= 0.0:
        raise DomainError("AUC needs both classes present with weight")
    order = np.argsort(q_f, kind="stable")
    sw = w[order]
    sp = pos[order]
    wp = np.where(sp, sw, 0.0)
    wn = np.where(sp, 0.0, sw)
    # process runs of tied scores in one block
    auc = 0.0
    neg_below = 0.0
    i = 0
    n = len(order)
    sq = q_f[order]
    while i < n:
        j = i
        while j < n and sq[j] == sq[i]:
            j += 1
        block_pos = float(wp[i:j].sum())
        block_neg = float(wn[i:j].sum())
        auc += block_pos * (neg_below + 0.5 * block_neg)
        neg_below += block_neg
        i = j
    return auc / (w_pos * w_neg)


# ---------------------------------------------------------------------------
# loop reference for the group reducer
# ---------------------------------------------------------------------------


def group_means_reference(ds, values) -> dict:
    """Weighted mean of base-aligned values over each group's View of ds."""
    out = {}
    for g in sorted(set(ds.groups.tolist())):
        idx = np.flatnonzero(ds.groups == g)
        v = make_view(ds, idx, raw_weights=ds.weights[idx])
        out[g] = dot(v.weights, values[idx])
    return out


# ---------------------------------------------------------------------------
# oracle of the conservative leaf label
# ---------------------------------------------------------------------------


def conservative_label_objective(alpha: float, edge_value: float, B: float) -> float:
    """Per-leaf upper-hull objective log(1+exp(alpha*B)) - alpha*B*(1+edge)/2.

    The conservative label is its unique minimizer.
    """
    t = float(alpha) * float(B)
    softplus = math.log1p(math.exp(-abs(t))) + max(t, 0.0)
    return softplus - t * (1.0 + float(edge_value)) / 2.0


# ---------------------------------------------------------------------------
# oracle of the CSV reader: the csv module row by row
# ---------------------------------------------------------------------------


def read_csv_reference(path, required, features=()) -> tuple[list[str], list[list[str]]]:
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


# ---------------------------------------------------------------------------
# oracle of the ingest cell rules: one parser per column role, cell by cell
# ---------------------------------------------------------------------------


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


def _parse_number(raw: str, row: int, name: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise LoadError(f"row {row}: feature {name!r} value {raw!r} is not numeric") from None
    if not math.isfinite(v):
        raise LoadError(f"row {row}: feature {name!r} value {raw!r} is not finite")
    return v


def parse_column_reference(role: str, name: str, raw: list[str]) -> np.ndarray:
    """Cells of a column read as `load_dataset` reads its role, one cell at a time.

    role is "score", "target", "weight", "numeric" or "inferred".  An
    inferred column is numeric when every cell parses as a float, else it
    is the cells as they are.  The first bad cell raises its LoadError.
    """
    if role == "inferred":
        try:
            [float(cell) for cell in raw]
        except ValueError:
            return np.array(raw, dtype=object)
    parse_cell, args = {
        "score": (_parse_probability, ("score",)),
        "target": (_parse_probability, ("target",)),
        "weight": (_parse_weight, ()),
    }.get(role, (_parse_number, (name,)))
    return np.array([parse_cell(v, r, *args) for r, v in enumerate(raw, start=1)])
