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
    apply_alpha,
    nlogit,
    xlogy,
)
from .data import RunTrace, View, binary_entropy, make_view

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

    feature: str
    kind: str
    threshold: float | None
    modality: str | None
    post_entropy: float
    parent_entropy: float
    mass_left: float
    mass_right: float

    @property
    def gain(self) -> float:
        return self.parent_entropy - self.post_entropy

    def test(self) -> SplitTest:
        return SplitTest(
            feature=self.feature,
            kind=self.kind,
            threshold=self.threshold,
            modality=self.modality,
        )


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

    def total(self) -> float:
        return float(self.positive.sum() + self.negative.sum())


# ---------------------------------------------------------------------------
# edges and labels
# ---------------------------------------------------------------------------


def _nlogit_rows(v: View, scores, B: float, nlogit_values) -> np.ndarray:
    if nlogit_values is not None:
        return v.pick(np.asarray(nlogit_values, dtype=float))
    return nlogit(v.pick(scores), B)


def _eta_rows(v: View, eta_t) -> np.ndarray:
    eta = np.broadcast_to(np.asarray(eta_t, dtype=float), (v.base.n,))
    out = eta[v.indices]
    if np.any(out < 0) or np.any(out > 1):
        raise DomainError("target posterior must lie in [0, 1]")
    return out


def edge(v: View, eta_t, scores, B: float, nlogit_values=None) -> float:
    """Alignment edge E[(2*eta - 1) * nlogit(score)] under the view."""
    nl = _nlogit_rows(v, scores, B, nlogit_values)
    eta = _eta_rows(v, eta_t)
    e = float(np.dot(v.weights, (2.0 * eta - 1.0) * nl))
    return min(1.0, max(-1.0, e))


def leaf_alpha_conservative(edge_value: float, B: float) -> float:
    """Leaf label (1/B) * log((1+edge)/(1-edge)), clamped near |edge| = 1."""
    e = min(1.0, max(-1.0, float(edge_value)))
    if abs(e) >= 1.0 - EDGE_EPS:
        return math.copysign(A_MAX, e)
    a = math.log((1.0 + e) / (1.0 - e)) / float(B)
    return min(A_MAX, max(-A_MAX, a))


def leaf_alpha_audacious(e_pos: float, e_neg: float, B: float) -> float:
    """Leaf label (1/B) * log(e+/e-), clamped when either part vanishes."""
    e_pos = float(e_pos)
    e_neg = float(e_neg)
    if e_pos < 0 or e_neg < 0:
        raise DomainError("edge parts must be nonnegative")
    if e_pos < EDGE_EPS and e_neg < EDGE_EPS:
        raise UndefinedLeafError("leaf has no alignment signal (e+ = e- = 0)")
    if e_neg < EDGE_EPS:
        return A_MAX
    if e_pos < EDGE_EPS:
        return -A_MAX
    a = math.log(e_pos / e_neg) / float(B)
    return min(A_MAX, max(-A_MAX, a))


def leaf_entropy(edge_value: float) -> float:
    """Binary entropy of (1+edge)/2."""
    e = min(1.0, max(-1.0, float(edge_value)))
    return float(binary_entropy(0.5 * (1.0 + e)))


def audacious_leaf_bound(e_pos: float, e_neg: float) -> float:
    """Per-leaf risk bound of audacious labels; log 2 when the signal is 0.

    Equals log2 * (1 + (e+ + e-) * (H2(e+/(e+ + e-)) - 1)) with H2 the
    base-2 entropy; never exceeds the conservative leaf entropy.
    """
    e_pos = float(e_pos)
    e_neg = float(e_neg)
    if e_pos < 0 or e_neg < 0 or e_pos + e_neg > 1.0 + 1e-9:
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

    wy, wpos and wneg are the view weight times (2*eta - 1) * nlogit and
    times the aligned / misaligned parts of |nlogit|: the per-row terms
    whose per-leaf sums give the edge and its signed parts.
    """

    eta: np.ndarray
    w: np.ndarray
    wy: np.ndarray
    wpos: np.ndarray
    wneg: np.ndarray


def _row_signals(v: View, eta_t, scores, B: float, nlogit_values=None) -> _RowSignals:
    nl = _nlogit_rows(v, scores, B, nlogit_values)
    eta = _eta_rows(v, eta_t)
    w = v.weights
    pos = np.maximum(nl, 0.0)
    neg = np.maximum(-nl, 0.0)
    return _RowSignals(
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
    nlogit_values=None,
    leaf_ids_rows: np.ndarray | None = None,
    *,
    signals: _RowSignals | None = None,
) -> dict[int, LeafStats]:
    """Edge, signed parts, mass, entropy, and count per reached leaf.

    leaf_ids_rows (the leaf id of each view row) and signals (the view's
    per-row signals) skip routing and signal computation when the caller
    already holds them.  Every per-leaf sum is one bincount over the view's
    rows, so the cost is O(view rows) whatever the number of leaves.
    """
    from .core import route_rows

    if leaf_ids_rows is None:
        leaf_ids_rows = route_rows(tree, v.base.columns, v.base.n)[v.indices]
    if signals is None:
        signals = _row_signals(v, eta_t, scores, B, nlogit_values)
    ids = leaf_ids_rows
    if ids.min() < 0 or ids.max() > 2 * ids.shape[0] + 64:
        # bincount needs ids >= 0 and makes max id + 1 bins: renumber densely
        lids, ids = np.unique(ids, return_inverse=True)
    else:
        lids = np.arange(int(ids.max()) + 1)
    count = np.bincount(ids)
    mass = np.bincount(ids, weights=signals.w)
    e_sum = np.bincount(ids, weights=signals.wy)
    ep_sum = np.bincount(ids, weights=signals.wpos)
    en_sum = np.bincount(ids, weights=signals.wneg)

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
            lids[reached].tolist(), e.tolist(), ep.tolist(), en.tolist(),
            m.tolist(), h.tolist(), count[reached].tolist(),
        )
    }


def tree_entropy(tree: AlphaTree, v: View, eta_t, scores, B: float, nlogit_values=None) -> float:
    """Leaf-mass-weighted entropy; upper-bounds the wrapped log-loss risk."""
    stats = leaf_stats(v, tree, eta_t, scores, B, nlogit_values)
    return float(sum(st.mass * st.entropy for st in stats.values()))


def relabel_leaves(
    tree: AlphaTree,
    stats: Mapping[int, LeafStats],
    scoring: str,
    B: float,
) -> AlphaTree:
    """Set every reached leaf's alpha from its current stats.

    Leaves with no mass under the training view keep their current alpha:
    there is no signal to relabel them, and this is what confines a
    per-group run to that group's sub-tree.
    """
    updates: dict[int, Leaf] = {}
    for leaf in tree.leaves():
        st = stats.get(leaf.leaf_id)
        if st is None:
            continue
        if scoring == "conservative":
            a = leaf_alpha_conservative(st.edge, B)
        else:
            a = leaf_alpha_audacious(st.edge_pos, st.edge_neg, B)
        updates[leaf.leaf_id] = Leaf(leaf.leaf_id, a, edge=st.edge, mass=st.mass)
    return tree.with_leaf_updates(updates)


# ---------------------------------------------------------------------------
# split search
# ---------------------------------------------------------------------------


def best_split(
    v_at_leaf: View,
    eta_t,
    scores,
    B: float,
    cfg: InductionConfig,
    nlogit_values=None,
) -> SplitCandidate | None:
    """Best axis-aligned split of a leaf view, or None.

    Candidates are each observed categorical modality of a declared feature
    and each midpoint between consecutive distinct sorted numeric values;
    children must carry cfg.min_child_fraction of the leaf's mass AND
    cfg.min_child_count rows.  The winner minimizes the mass-weighted
    two-child entropy and must beat the leaf's own entropy by more than
    ENTROPY_IMPROVEMENT_TOL.  Ties resolve to the earliest feature in
    declaration order, then the lowest threshold / first modality in sorted
    order.
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

    best: SplitCandidate | None = None
    n = v_at_leaf.n
    for feature, kind in v_at_leaf.base.feature_kinds().items():
        values = v_at_leaf.base.columns[feature][v_at_leaf.indices]
        if kind == "numeric":
            order = np.argsort(values, kind="stable")
            sv = np.ascontiguousarray(values[order].astype(float))
            cumw = np.cumsum(w[order])
            cuma = np.cumsum(a[order])
            i, post = _kernels.numeric_split_scan(sv, cumw, cuma, min_mass, cfg.min_child_count)
            if i < 0:
                continue
            cand = SplitCandidate(
                feature=feature,
                kind="numeric",
                threshold=_kernels.midpoint_threshold(sv, i),
                modality=None,
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
                    feature=feature,
                    kind="categorical",
                    threshold=None,
                    modality=modality,
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


# ---------------------------------------------------------------------------
# the induction loop
# ---------------------------------------------------------------------------


def _risk_terms(q: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-row log-loss of posterior q against target eta."""
    return -(xlogy(eta, q) + xlogy(1.0 - eta, 1.0 - q))


def topdown(
    v: View,
    eta_t,
    scores,
    B: float,
    tree0: AlphaTree,
    cfg: InductionConfig,
    *,
    nlogit_values=None,
    trace: RunTrace | None = None,
    iteration_start: int = 0,
    risk_stop: float | None = None,
) -> tuple[AlphaTree, RunTrace]:
    """Heaviest-leaf top-down induction.

    Each iteration relabels every reached leaf, then splits the heaviest
    leaf that admits a size-feasible, entropy-improving split.  Stops when
    the budget runs out, no leaf can be split, or the view risk reaches
    risk_stop.  The per-iteration tree entropy sequence is non-increasing.

    The view's rows are routed once; afterwards every row keeps its leaf
    id, and a split rewrites only the ids of the rows of the leaf it
    splits.
    """
    from .core import route_rows

    if trace is None:
        trace = RunTrace()

    scores_rows = v.pick(scores)
    signals = _row_signals(v, eta_t, scores, B, nlogit_values)
    view_columns = {name: col[v.indices] for name, col in v.base.columns.items()}
    leaf_ids_rows = route_rows(tree0, view_columns, v.n)
    tree = tree0

    def sync(tree: AlphaTree) -> tuple[AlphaTree, dict[int, LeafStats]]:
        stats = leaf_stats(
            v, tree, eta_t, scores, B, nlogit_values,
            leaf_ids_rows=leaf_ids_rows, signals=signals,
        )
        return relabel_leaves(tree, stats, cfg.scoring, B), stats

    def emit(it: int, tree: AlphaTree, stats, event: str = "") -> float:
        h = float(sum(st.mass * st.entropy for st in stats.values()))
        lut = np.zeros(tree.max_leaf_id() + 1, dtype=float)
        for leaf in tree.leaves():
            lut[leaf.leaf_id] = leaf.alpha
        q_f = apply_alpha(scores_rows, lut[leaf_ids_rows])
        risk = float(np.dot(v.weights, _risk_terms(q_f, signals.eta)))
        trace.add(iteration_start + it, "tree_entropy", h, event=event)
        trace.add(iteration_start + it, "risk", risk)
        return risk

    tree, stats = sync(tree)
    risk = emit(0, tree, stats)
    if risk_stop is not None and risk <= risk_stop:
        return tree, trace

    for it in range(1, cfg.max_iterations + 1):
        chosen = None
        order = sorted(stats.values(), key=lambda st: (-st.mass, st.leaf_id))
        for st in order:
            if st.count < 2 * cfg.min_child_count:
                continue
            rows = np.flatnonzero(leaf_ids_rows == st.leaf_id)
            leaf_v = make_view(v.base, v.indices[rows], raw_weights=v.weights[rows])
            cand = best_split(leaf_v, eta_t, scores, B, cfg, nlogit_values)
            if cand is not None:
                chosen = (st, cand, rows)
                break
        if chosen is None:
            break
        st, cand, rows = chosen
        test = cand.test()
        base_id = tree.max_leaf_id()
        subtree = Node(test, Leaf(base_id + 1, 1.0), Leaf(base_id + 2, 1.0))
        tree = tree.replace_leaf(st.leaf_id, subtree)
        passes = test.passes_rows(view_columns[test.feature][rows])
        leaf_ids_rows[rows] = np.where(passes, base_id + 1, base_id + 2)
        tree, stats = sync(tree)
        risk = emit(it, tree, stats, event=f"split leaf={st.leaf_id} {test.describe()}")
        if risk_stop is not None and risk <= risk_stop:
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
    e = float(np.dot(w, (2.0 * eta - 1.0) * nl))
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
        arr = np.asarray(h, dtype=float)
        if arr.shape[0] != v.n:
            raise DomainError("indicator array must align with the view")
        if not np.all(np.isin(arr, (-1.0, 1.0))):
            raise DomainError("indicator values must be ±1")
        return arr
    test = h.test() if isinstance(h, SplitCandidate) else h
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
    cond_ii = bw.edge * float(np.dot(v_at_leaf.weights, (1.0 - nl * nl) * hv))
    return WhaReport(gamma_witnessed=abs(corr), condition_ii_value=cond_ii, edge=bw.edge)


def decrease_certificate(pre_entropy: float, post_entropy: float, q_leaf: float, gamma: float) -> bool:
    """True iff the observed entropy decrease meets gamma^2 * q * (1-q)."""
    q = float(q_leaf)
    return (float(pre_entropy) - float(post_entropy)) >= (float(gamma) ** 2) * q * (1.0 - q) - 1e-9
