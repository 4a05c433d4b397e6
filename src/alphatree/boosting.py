"""Top-down alpha-tree induction: alignment edges, leaf labels, split search,
the heaviest-leaf boosting loop, the balanced distribution, and weak-learning
diagnostics.

The alignment edge of a weighted region is E[(2*eta - 1) * nlogit(score)]:
how confidently-correct the black-box is there, in [-1, 1].  Leaves are
labeled from their edge (conservative) or from its signed parts (audacious);
splits minimize the weighted two-child entropy H((1+edge)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import _kernels
from .core import (
    A_MAX,
    EDGE_EPS,
    AlphaTree,
    DomainError,
    Leaf,
    Node,
    SplitTest,
    _leaf_ids,
    alpha_table,
    apply_alpha,
    dot,
    nlogit,
    per_row,
)
from .data import RunTrace, View, binary_entropy, log_loss, make_view, target_posterior

__all__ = [
    "UndefinedLeafError",
    "DegenerateLeafError",
    "LeafStats",
    "InductionConfig",
    "SplitCandidate",
    "WhaReport",
    "BalancedWeights",
    "edge",
    "leaf_alpha_conservative",
    "leaf_alpha_audacious",
    "leaf_entropy",
    "tree_entropy",
    "audacious_leaf_bound",
    "leaf_stats",
    "best_split",
    "topdown",
    "relabel_leaves",
    "balanced_weights",
    "wha_check",
    "decrease_certificate",
]

LOG2 = math.log(2.0)

# a split must lower the leaf's weighted entropy by more than this
ENTROPY_IMPROVEMENT_TOL = 1e-10


class UndefinedLeafError(ValueError):
    """A leaf carries no alignment signal (both edge parts are zero)."""


class DegenerateLeafError(ValueError):
    """A leaf with |edge| = 1 cannot support the balanced distribution."""


@dataclass(frozen=True)
class LeafStats:
    """Per-leaf boosting bookkeeping under a training view."""

    leaf_id: int
    edge: float
    edge_pos: float
    edge_neg: float
    mass: float
    entropy: float
    count: int


@dataclass(frozen=True)
class InductionConfig:
    """Knobs of the induction loop.

    min_child_fraction is measured on the parent leaf's weight mass; the
    count rule applies jointly.  scoring picks the leaf-label rule.
    """

    max_iterations: int = 32
    min_child_fraction: float = 0.10
    min_child_count: int = 30
    scoring: str = "conservative"

    def __post_init__(self):
        if self.max_iterations < 0:
            raise DomainError("max_iterations must be >= 0")
        if not (0.0 < self.min_child_fraction < 0.5):
            raise DomainError("min_child_fraction must lie in (0, 0.5)")
        if self.min_child_count < 1:
            raise DomainError("min_child_count must be >= 1")
        if self.scoring not in ("conservative", "audacious"):
            raise DomainError(f"unknown scoring {self.scoring!r}")


@dataclass(frozen=True)
class SplitCandidate:
    """A scored axis-aligned split; rows passing the test go left."""

    test: SplitTest
    post_entropy: float
    parent_entropy: float
    mass_left: float
    mass_right: float

    @property
    def gain(self) -> float:
        return self.parent_entropy - self.post_entropy


@dataclass(frozen=True)
class WhaReport:
    """Weak-learning witness of a candidate split at a leaf.

    gamma_witnessed is |E_balanced[Y * nlogit * h]|; condition_ii_value is
    edge * E[(1 - nlogit^2) * h] under the unbalanced leaf measure.
    """

    gamma_witnessed: float
    condition_ii_value: float
    edge: float

    def holds_at(self, gamma: float) -> bool:
        return self.gamma_witnessed >= gamma and self.condition_ii_value <= 0.0


@dataclass(frozen=True)
class BalancedWeights:
    """Product-measure weights over (row, label) pairs of a leaf view.

    positive[i] / negative[i] weight the (x_i, +1) / (x_i, -1) outcomes; the
    two arrays together sum to 1 up to float noise.
    """

    positive: np.ndarray
    negative: np.ndarray
    edge: float


# ---------------------------------------------------------------------------
# edges and labels
# ---------------------------------------------------------------------------


def _nlogit_rows(v: View, scores, B: float, nlogit_values) -> np.ndarray:
    if nlogit_values is not None:
        return v.pick(np.asarray(nlogit_values, dtype=float))
    return nlogit(v.pick(scores), B)


def _eta_rows(v: View, eta_t) -> np.ndarray:
    """The target posterior at the view's rows; only those rows are checked."""
    return target_posterior(eta_t, v.base.n, v.indices)


def edge(v: View, eta_t, scores, B: float, nlogit_values=None) -> float:
    """Alignment edge E[(2*eta - 1) * nlogit(score)] under the view."""
    nl = _nlogit_rows(v, scores, B, nlogit_values)
    eta = _eta_rows(v, eta_t)
    e = dot(v.weights, (2.0 * eta - 1.0) * nl)
    return min(1.0, max(-1.0, e))


def _edge_number(edge_value: float) -> float:
    """The edge as a float; NaN is a DomainError, which a clamp would hide."""
    e = float(edge_value)
    if math.isnan(e):
        raise DomainError("edge must be a number, got nan")
    return e


def leaf_alpha_conservative(edge_value: float, B: float) -> float:
    """Leaf label (1/B) * log((1+edge)/(1-edge)), the edge clamped into
    [-(1 - EDGE_EPS), 1 - EDGE_EPS]: |alpha| * B <= log((2 - EDGE_EPS)/EDGE_EPS),
    about 21.42, so a wrapped clipped score never rounds to 0 or 1."""
    e = min(1.0 - EDGE_EPS, max(EDGE_EPS - 1.0, _edge_number(edge_value)))
    a = math.log((1.0 + e) / (1.0 - e)) / float(B)
    return min(A_MAX, max(-A_MAX, a))


def leaf_alpha_audacious(e_pos: float, e_neg: float, B: float) -> float:
    """Leaf label (1/B) * log(e+/e-), each part floored at EDGE_EPS:
    |alpha| * B <= log(1/EDGE_EPS), about 20.72."""
    e_pos = float(e_pos)
    e_neg = float(e_neg)
    if not (e_pos >= 0 and e_neg >= 0):  # NaN fails too
        raise DomainError("edge parts must be nonnegative")
    if e_pos < EDGE_EPS and e_neg < EDGE_EPS:
        raise UndefinedLeafError("leaf has no alignment signal (e+ = e- = 0)")
    a = math.log(max(e_pos, EDGE_EPS) / max(e_neg, EDGE_EPS)) / float(B)
    return min(A_MAX, max(-A_MAX, a))


def leaf_entropy(edge_value: float) -> float:
    """Binary entropy of (1+edge)/2."""
    e = min(1.0, max(-1.0, _edge_number(edge_value)))
    return float(binary_entropy(0.5 * (1.0 + e)))


def audacious_leaf_bound(e_pos: float, e_neg: float) -> float:
    """Per-leaf risk bound of audacious labels; log 2 when the signal is 0.

    Equals log2 * (1 + (e+ + e-) * (H2(e+/(e+ + e-)) - 1)) with H2 the
    base-2 entropy; never exceeds the conservative leaf entropy.
    """
    e_pos = float(e_pos)
    e_neg = float(e_neg)
    if not (e_pos >= 0 and e_neg >= 0 and e_pos + e_neg <= 1.0 + 1e-9):  # NaN fails too
        raise DomainError("edge parts must be nonnegative with sum <= 1")
    s = e_pos + e_neg
    if s == 0.0:
        return LOG2
    return LOG2 + s * (float(binary_entropy(e_pos / s)) - LOG2)


# ---------------------------------------------------------------------------
# per-leaf statistics
# ---------------------------------------------------------------------------


class _RowSignals(NamedTuple):
    """Per-row alignment signals of a view, aligned with its rows.

    nl is the normalized logit of the scores.  wy, wpos and wneg are the
    view weight times (2*eta - 1) * nlogit and times the aligned /
    misaligned parts of |nlogit|: the per-row terms whose per-leaf sums give
    the edge and its signed parts.
    """

    nl: np.ndarray
    eta: np.ndarray
    w: np.ndarray
    wy: np.ndarray
    wpos: np.ndarray
    wneg: np.ndarray


def _row_signals(v: View, eta_t, scores, B: float) -> _RowSignals:
    nl = nlogit(v.pick(scores), B)
    eta = _eta_rows(v, eta_t)
    w = v.weights
    pos = np.maximum(nl, 0.0)
    neg = np.maximum(-nl, 0.0)
    return _RowSignals(
        nl=nl,
        eta=eta,
        w=w,
        wy=w * ((2.0 * eta - 1.0) * nl),
        wpos=w * (eta * pos + (1.0 - eta) * neg),
        wneg=w * (eta * neg + (1.0 - eta) * pos),
    )


def leaf_stats(
    v: View,
    tree: AlphaTree,
    eta_t,
    scores,
    B: float,
    leaf_ids_rows: np.ndarray | None = None,
    *,
    signals: _RowSignals | None = None,
) -> dict[int, LeafStats]:
    """Edge, signed parts, mass, entropy, and count per reached leaf.

    leaf_ids_rows (the leaf id of each view row) and signals (the view's
    per-row signals) skip routing and signal computation when the caller
    already holds them; the tree is then not read.  topdown passes the rows
    of a split leaf this way, with the ids and signals of those rows, for
    the stats of its two children.  Every per-leaf sum is one bincount over
    the view's rows, indexed by leaf id: ids lie in [0, 2 * leaves] (see
    AlphaTree), so the cost is O(view rows + leaves).
    """
    from .core import route_rows

    if leaf_ids_rows is None:
        leaf_ids_rows = route_rows(tree, v.base.columns, v.base.n)[v.indices]
    if signals is None:
        signals = _row_signals(v, eta_t, scores, B)
    count = np.bincount(leaf_ids_rows)
    mass = np.bincount(leaf_ids_rows, weights=signals.w)
    e_sum = np.bincount(leaf_ids_rows, weights=signals.wy)
    ep_sum = np.bincount(leaf_ids_rows, weights=signals.wpos)
    en_sum = np.bincount(leaf_ids_rows, weights=signals.wneg)

    reached = np.flatnonzero(count)
    reached = reached[mass[reached] > 0.0]
    m = mass[reached]
    e = np.clip(e_sum[reached] / m, -1.0, 1.0)
    ep = np.maximum(ep_sum[reached] / m, 0.0)
    en = np.maximum(en_sum[reached] / m, 0.0)
    h = binary_entropy(0.5 * (1.0 + e))
    return {
        lid: LeafStats(leaf_id=lid, edge=e_, edge_pos=ep_, edge_neg=en_, mass=m_, entropy=h_, count=c_)
        for lid, e_, ep_, en_, m_, h_, c_ in zip(
            reached.tolist(), e.tolist(), ep.tolist(), en.tolist(),
            m.tolist(), h.tolist(), count[reached].tolist(),
        )
    }


def tree_entropy(tree: AlphaTree, v: View, eta_t, scores, B: float) -> float:
    """Leaf-mass-weighted entropy; upper-bounds the wrapped log-loss risk."""
    stats = leaf_stats(v, tree, eta_t, scores, B)
    return float(sum(st.mass * st.entropy for st in stats.values()))


def _relabelled(leaf: Leaf, stats: Mapping[int, LeafStats], scoring: str, B: float) -> Leaf:
    """The leaf labelled from its stats; the leaf itself when it has none.

    A leaf with no stats (no mass under the view) keeps its alpha, and so
    does an audacious leaf with no alignment signal (both edge parts below
    EDGE_EPS), whose edge and mass are still updated.
    """
    st = stats.get(leaf.leaf_id)
    if st is None:
        return leaf
    if scoring == "conservative":
        a = leaf_alpha_conservative(st.edge, B)
    else:
        try:
            a = leaf_alpha_audacious(st.edge_pos, st.edge_neg, B)
        except UndefinedLeafError:
            a = leaf.alpha
    return Leaf(leaf.leaf_id, a, edge=st.edge, mass=st.mass)


def relabel_leaves(
    tree: AlphaTree,
    stats: Mapping[int, LeafStats],
    scoring: str,
    B: float,
) -> AlphaTree:
    """Set every reached leaf's alpha from its current stats.

    Leaves with no mass under the training view keep their current alpha:
    there is no signal to relabel them, and this is what confines a
    per-group run to that group's sub-tree.  So does an audacious leaf with
    no alignment signal (both edge parts below EDGE_EPS), whose edge and
    mass are still updated: its all-1/2 scores wrap to 1/2 whatever alpha is.
    """
    return tree.with_leaf_updates({leaf.leaf_id: _relabelled(leaf, stats, scoring, B)
                                   for leaf in tree.leaves()})


# ---------------------------------------------------------------------------
# split search
# ---------------------------------------------------------------------------


def _leaf_columns(base, rows, kinds) -> dict:
    """The features of kinds at base rows, categorical ones as their codes."""
    codes = base.feature_codes
    return {name: codes[name].take(rows) if name in codes else base.columns[name][rows] for name in kinds}


def best_split(
    v_at_leaf: View,
    eta_t,
    scores,
    B: float,
    cfg: InductionConfig,
    signals: _RowSignals | None = None,
    order: np.ndarray | None = None,
) -> SplitCandidate | None:
    """Best axis-aligned split of a leaf view, or None.

    Candidates are each observed categorical modality of a declared feature
    and each midpoint between consecutive distinct sorted numeric values;
    children must carry cfg.min_child_fraction of the leaf's mass AND
    cfg.min_child_count rows.  The winner minimizes the mass-weighted
    two-child entropy and must beat the leaf's own entropy by more than
    ENTROPY_IMPROVEMENT_TOL.  Ties resolve to the earliest feature in
    declaration order, then the lowest threshold / first modality in sorted
    order.  signals (the view's per-row signals) and order (the
    `_kernels.numeric_order` of the view's features) skip their computation
    when the caller already holds them, as topdown does.
    """
    if signals is None:
        signals = _row_signals(v_at_leaf, eta_t, scores, B)
    w = v_at_leaf.weights
    stats = np.stack([w, w * (2.0 * signals.eta - 1.0) * signals.nl])
    total_w, total_a = stats.sum(axis=1).tolist()
    parent_h = leaf_entropy(total_a / total_w) * total_w
    kinds = v_at_leaf.base.feature_kinds()
    columns = _leaf_columns(v_at_leaf.base, v_at_leaf.indices, kinds)
    score = _kernels.alignment_score(cfg.min_child_fraction * total_w)
    found = _kernels.split_search(columns, kinds, stats, score, cfg.min_child_count, order)
    if found is None:
        return None
    post, test, left = found
    if parent_h - post <= ENTROPY_IMPROVEMENT_TOL:
        return None
    return SplitCandidate(
        test=test,
        post_entropy=post,
        parent_entropy=parent_h,
        mass_left=float(left[0]),
        mass_right=total_w - float(left[0]),
    )


# ---------------------------------------------------------------------------
# the induction loop
# ---------------------------------------------------------------------------


class _Grown(NamedTuple):
    """State of a topdown call after one iteration.

    stats (per reached leaf, in ascending leaf id) is carried from split
    to split and changes in place after the next one.
    """

    tree: AlphaTree
    event: str
    entropy: float
    risk: float
    stats: dict[int, LeafStats]


def _grow(v: View, eta_t, scores, B: float, tree0: AlphaTree, cfg: InductionConfig, leaf_ids: np.ndarray):
    """Yield the state after iteration 0 (tree0 labelled) and after each split.

    leaf_ids is the leaf id of every base row under tree0, and each split
    re-ids in it the split leaf's base rows, inside the view and out.
    Otherwise a split updates only the split leaf's share of the carried
    state: its rows' log-loss, and the two children's stats and labels.
    The rows of a leaf are found once, the first time it is searched, and
    split with it; a leaf whose search finds no split is not searched again.
    So is the numeric order of a leaf's rows (see `_kernels.numeric_order`):
    a leaf of tree0 is sorted the first time it is searched, and a child
    derives its order from its parent's only when it is searched itself.
    """
    scores_rows = v.pick(scores)
    signals = _row_signals(v, eta_t, scores, B)
    kinds = v.base.feature_kinds()
    numeric = {name: kind for name, kind in kinds.items() if kind == "numeric"}
    ids0 = leaf_ids[v.indices]  # the view's ids under tree0, read for leaves of tree0 alone
    # base rows outside the view in a leaf that it reaches: a split of that leaf re-ids them too
    reached = np.zeros(tree0.max_leaf_id() + 1, dtype=bool)
    reached[ids0] = True
    strays = reached[leaf_ids]
    strays[v.indices] = False
    strays = np.flatnonzero(strays)
    stats = leaf_stats(v, tree0, eta_t, scores, B, leaf_ids_rows=ids0, signals=signals)
    tree = relabel_leaves(tree0, stats, cfg.scoring, B)
    loss = log_loss(apply_alpha(scores_rows, alpha_table(tree)[ids0]), signals.eta)
    rows_of: dict[int, np.ndarray] = {}
    # a child's parent order and the mask of its rows there, until the child is searched
    inherited: dict[int, tuple] = {}
    unsplittable: set[int] = set()
    for it in range(cfg.max_iterations + 1):
        event = ""
        if it:
            for st in sorted(stats.values(), key=lambda st: (-st.mass, st.leaf_id)):
                if st.count < 2 * cfg.min_child_count or st.leaf_id in unsplittable:
                    continue
                rows = rows_of.get(st.leaf_id)
                if rows is None:  # a leaf of tree0: a child gets its rows from the split
                    rows = rows_of[st.leaf_id] = np.flatnonzero(ids0 == st.leaf_id)
                leaf_v = make_view(v.base, v.indices[rows], raw_weights=v.weights[rows])
                leaf_signals = signals._make(a[rows] for a in signals)
                if st.leaf_id in inherited:
                    order = _kernels.child_order(*inherited.pop(st.leaf_id))
                else:  # a leaf of tree0
                    order = _kernels.numeric_order(_leaf_columns(v.base, leaf_v.indices, numeric), numeric)
                cand = best_split(leaf_v, eta_t, scores, B, cfg, leaf_signals, order)
                if cand is not None:
                    break
                unsplittable.add(st.leaf_id)
            else:
                return  # no leaf can be split
            test = cand.test
            left_id = tree.max_leaf_id() + 1
            column = v.base.columns[test.feature]
            passes = test.passes_rows(column[leaf_v.indices])
            split_ids = np.where(passes, left_id, left_id + 1)
            leaf_ids[leaf_v.indices] = split_ids
            mine = strays[leaf_ids[strays] == st.leaf_id]
            leaf_ids[mine] = np.where(test.passes_rows(column[mine]), left_id, left_id + 1)
            # bincount adds each leaf's rows in row order, as over the whole view
            children = leaf_stats(leaf_v, tree, eta_t, scores, B, leaf_ids_rows=split_ids, signals=leaf_signals)
            left, right = (_relabelled(Leaf(i, 1.0), children, cfg.scoring, B)
                           for i in (left_id, left_id + 1))
            tree = tree.replace_leaf(st.leaf_id, Node(test, left, right))
            del stats[st.leaf_id], rows_of[st.leaf_id]
            stats.update(children)  # child ids top every other, so ids stay ascending
            rows_of[left_id], rows_of[left_id + 1] = rows[passes], rows[~passes]
            inherited[left_id], inherited[left_id + 1] = (order, passes), (order, ~passes)
            alpha_rows = np.where(passes, left.alpha, right.alpha)
            loss[rows] = log_loss(apply_alpha(scores_rows[rows], alpha_rows), signals.eta[rows])
            event = f"split leaf={st.leaf_id} {test.describe()}"
        h = sum(st.mass * st.entropy for st in stats.values())
        yield _Grown(tree, event, h, dot(v.weights, loss), stats)


def _carried_ids(tree0: AlphaTree, leaf_ids, n: int) -> np.ndarray:
    """leaf_ids as topdown updates them in place: n int64 ids in a writeable array, each a leaf of tree0.

    Anything else is a DomainError, never a silent copy whose updates the
    caller would not see.
    """
    if not isinstance(leaf_ids, np.ndarray):
        raise DomainError(f"leaf ids must be an int64 array, got {type(leaf_ids).__name__}")
    if leaf_ids.dtype != np.int64 or leaf_ids.shape != (n,):
        raise DomainError(f"leaf ids must be {n} int64 values, "
                          f"got dtype {leaf_ids.dtype} and shape {leaf_ids.shape}")
    if not leaf_ids.flags.writeable:
        raise DomainError("leaf ids must be writeable: topdown updates them in place")
    return _leaf_ids(tree0, leaf_ids, n)


def topdown(
    v: View,
    eta_t,
    scores,
    B: float,
    tree0: AlphaTree,
    cfg: InductionConfig,
    *,
    trace: RunTrace | None = None,
    iteration_start: int = 0,
    risk_stop: float | None = None,
    leaf_ids: np.ndarray | None = None,
) -> tuple[AlphaTree, RunTrace]:
    """Heaviest-leaf top-down induction.

    Iteration 0 takes tree0 as it is; every later iteration first splits
    the heaviest leaf that admits a size-feasible, entropy-improving split.
    Every iteration then labels every reached leaf and records the tree
    entropy and the view risk.  Stops when the budget runs out, no leaf can
    be split, or the view risk reaches risk_stop.  The per-iteration tree
    entropy sequence is non-increasing.

    leaf_ids, when given, is the leaf id of every base row under tree0, a
    writeable int64 array (see `_carried_ids`); on return it holds each
    row's id under the returned tree, as trace holds the new rows.  Without
    it the base is routed once.  The view's per-row signals, leaf stats
    and log-loss are computed once.  A split then costs the rows of the
    leaf it splits: its search, the ids, stats and labels of its two
    children, and its rows' log-loss.  The tree entropy is a sum over the
    leaves and the risk a dot over the view's rows.
    """
    from .core import route_rows  # looked up per call, as perfbench/tracer.py swaps it

    if leaf_ids is None:
        leaf_ids = route_rows(tree0, v.base.columns, v.base.n)
    else:
        leaf_ids = _carried_ids(tree0, leaf_ids, v.base.n)
    if trace is None:
        trace = RunTrace()
    tree = tree0
    for it, grown in enumerate(_grow(v, eta_t, scores, B, tree0, cfg, leaf_ids)):
        tree = grown.tree
        trace.add(iteration_start + it, "tree_entropy", grown.entropy, event=grown.event)
        trace.add(iteration_start + it, "risk", grown.risk)
        if risk_stop is not None and grown.risk <= risk_stop:
            break
    return tree, trace


# ---------------------------------------------------------------------------
# balanced distribution and weak-learning diagnostics
# ---------------------------------------------------------------------------


def balanced_weights(v_at_leaf: View, eta_t, scores, B: float, nlogit_values=None) -> BalancedWeights:
    """Reweighting of a leaf's (row, label) outcomes that centers the
    alignment signal: weight(x, y) scales by (1 - edge*y*nlogit)/(1 - edge^2).

    Total mass is 1 up to float noise.  Degenerate at |edge| = 1.
    """
    nl = _nlogit_rows(v_at_leaf, scores, B, nlogit_values)
    eta = _eta_rows(v_at_leaf, eta_t)
    w = v_at_leaf.weights
    e = dot(w, (2.0 * eta - 1.0) * nl)
    e = min(1.0, max(-1.0, e))
    if abs(e) >= 1.0 - 1e-15:
        raise DegenerateLeafError(f"balanced distribution undefined at edge {e!r}")
    denom = 1.0 - e * e
    positive = w * eta * (1.0 - e * nl) / denom
    negative = w * (1.0 - eta) * (1.0 + e * nl) / denom
    return BalancedWeights(positive=positive, negative=negative, edge=e)


def _indicator_rows(h, v: View) -> np.ndarray:
    """±1 per view row; +1 where the split test passes (left child)."""
    if isinstance(h, np.ndarray):
        arr = per_row(h, v.n, "indicator", float)
        if not np.all(np.isin(arr, (-1.0, 1.0))):
            raise DomainError("indicator values must be ±1")
        return arr
    test = h.test if isinstance(h, SplitCandidate) else h
    values = v.base.columns[test.feature][v.indices]
    return np.where(test.passes_rows(values), 1.0, -1.0)


def wha_check(v_at_leaf: View, h, eta_t, scores, B: float, nlogit_values=None) -> WhaReport:
    """Measure a candidate's weak-learning witness at a leaf.

    h may be a SplitCandidate, a SplitTest, or a ±1 array over the view.
    """
    hv = _indicator_rows(h, v_at_leaf)
    nl = _nlogit_rows(v_at_leaf, scores, B, nlogit_values)
    bw = balanced_weights(v_at_leaf, eta_t, scores, B, nlogit_values)
    corr = float(np.sum(nl * hv * (bw.positive - bw.negative)))
    cond_ii = bw.edge * dot(v_at_leaf.weights, (1.0 - nl * nl) * hv)
    return WhaReport(gamma_witnessed=abs(corr), condition_ii_value=cond_ii, edge=bw.edge)


def decrease_certificate(pre_entropy: float, post_entropy: float, q_leaf: float, gamma: float) -> bool:
    """True iff the observed entropy decrease meets gamma^2 * q * (1-q)."""
    q = float(q_leaf)
    return (float(pre_entropy) - float(post_entropy)) >= (float(gamma) ** 2) * q * (1.0 - q) - 1e-9
