"""Evaluation metrics and the harm budget of wrapping.

The kl_* functions quantify how far the wrapped scores drift from the
black-box scores. empirical_kl is the realized drift; the s1/s2 closed
forms and the Taylor series are a-priori ceilings on it, each valid only
under its own applicability test.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AlphaTree, DomainError, alpha_at_rows, dot, logit, per_row, wrapped_scores, xlogy
from .data import Dataset, EmptyMeasureError, full_view
# advantage_rate is not called here; it stays bound for perfbench/tracer.py, which swaps it by name
from .fairness import (
    _group_weights,
    advantage_rate,
    cvar_value,
    group_means,
    subgroup_risks,
)

__all__ = [
    "metric_eoo_gap",
    "metric_sp_gap",
    "metric_md",
    "metric_zero_one",
    "metric_cvar",
    "metric_auc",
    "empirical_kl",
    "kl_bound_s1",
    "s1_applicable",
    "kl_bound_s2",
    "s2_applicable",
    "kl_taylor_bound",
]

S2_CONSTANT = math.pi**2 / 24.0

# Every metric_* takes an optional trailing leaf_ids, each row's leaf under
# the tree: a caller that holds them, as eval does, skips routing (see
# core.wrapped_scores).  metric_*(ds, tree) routes the dataset's rows.


def _spread(means: dict) -> float:
    return float(max(means.values()) - min(means.values()))


def metric_eoo_gap(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> float:
    """Largest spread of P(pred = 1 | Y = +1, group) across groups."""
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    rates = group_means((q_f > 0.5).astype(float), ds.weights, ds.positive_rows)
    missing = [g for g in ds.group_rows if g not in rates]
    if missing:
        raise EmptyMeasureError(f"group {missing[0]!r} has no positive rows")
    return _spread(rates)


def metric_sp_gap(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> float:
    """Largest spread of the mean wrapped score across groups."""
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    return _spread(group_means(q_f, ds.weights, ds.group_rows))


def metric_md(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> float:
    """Largest spread of P(pred = 1 | group) across groups."""
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    return _spread(group_means((q_f > 0.5).astype(float), ds.weights, ds.group_rows))


def metric_zero_one(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> float:
    """Weighted misclassification rate of the wrapped predictions."""
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    preds = np.where(q_f > 0.5, 1, -1)
    return dot(full_view(ds).weights, preds != ds.labels)


def metric_cvar(ds: Dataset, tree: AlphaTree, eta_t, beta: float, leaf_ids=None) -> float:
    """Mass-weighted mean wrapped log-loss over the beta-tail of subgroup risks."""
    risks = subgroup_risks(ds, tree, eta_t, leaf_ids)
    return cvar_value(risks, beta, _group_weights(ds))


def metric_auc(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> float:
    """Weighted ROC area of the wrapped scores against the labels.

    Ties in the score contribute half, the usual rank convention.
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    w = full_view(ds).weights
    pos = ds.labels == 1
    w_pos = float(w[pos].sum())
    w_neg = float(w[~pos].sum())
    if w_pos <= 0.0 or w_neg <= 0.0:
        raise DomainError("AUC needs both classes present with weight")
    order = np.argsort(q_f, kind="stable")
    sw = w[order]
    sp = pos[order]
    sq = q_f[order]
    # one block per run of tied scores; a positive counts every negative in
    # the blocks below its own and half of those in its own block
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sq)) + 1))
    block_pos = np.add.reduceat(np.where(sp, sw, 0.0), starts)
    block_neg = np.add.reduceat(np.where(sp, 0.0, sw), starts)
    neg_below = np.concatenate(([0.0], np.cumsum(block_neg)[:-1]))
    auc = dot(block_pos, neg_below + 0.5 * block_neg)
    return auc / (w_pos * w_neg)


# ---------------------------------------------------------------------------
# drift between the wrapped and unwrapped scores
# ---------------------------------------------------------------------------


def empirical_kl(weights, q_unfair, q_fair) -> float:
    """Weighted KL divergence of Bernoulli(q_unfair) from Bernoulli(q_fair).

    q_unfair sets the row count; weights and q_fair are read by `per_row`.
    """
    qu = per_row(q_unfair, None, "q_unfair", float)
    w = per_row(weights, qu.shape[0], "weights", float)
    qf = per_row(q_fair, qu.shape[0], "q_fair", float)
    if not np.all((qu > 0) & (qu < 1) & (qf > 0) & (qf < 1)):  # NaN fails too
        raise DomainError("scores must lie strictly inside (0, 1)")
    terms = xlogy(qu, qu / qf) + xlogy(1.0 - qu, (1.0 - qu) / (1.0 - qf))
    return dot(w, terms)


def kl_bound_s1(B: float) -> float:
    """Closed-form drift ceiling pi^2 / (6 (2 + e^B + e^-B))."""
    if not B > 0:  # NaN fails too
        raise DomainError("clip level must be positive")
    return math.pi**2 / (6.0 * (2.0 + math.exp(B) + math.exp(-B)))


def s1_applicable(tree: AlphaTree, B: float) -> bool:
    """The s1 ceiling needs B <= 3 and every leaf within 1/B of identity."""
    if not B > 0:  # NaN fails too
        raise DomainError("clip level must be positive")
    if B > 3.0:
        return False
    return all(abs(leaf.alpha - 1.0) <= 1.0 / B for leaf in tree.leaves())


def kl_bound_s2() -> float:
    """Closed-form drift ceiling pi^2 / 24."""
    return S2_CONSTANT


def s2_applicable(tree: AlphaTree, columns, q_unfair, leaf_ids=None) -> bool:
    """The s2 ceiling needs |logit(q) (1 - alpha)| <= 1 on every row.

    q_unfair sets the row count; the tested columns are read as in
    route_rows, or leaf_ids, when given, replace routing (see alpha_at_rows).
    """
    qu = per_row(q_unfair, None, "q_unfair", float)
    alphas = alpha_at_rows(tree, columns, qu.shape[0], leaf_ids)
    f = np.abs(logit(qu) * (1.0 - alphas))
    return bool(np.all(f <= 1.0))


def kl_taylor_bound(weights, q_unfair, alphas, order: int = 6) -> tuple[float, float]:
    """Series drift ceiling truncated at the given order, with its tail cap.

    Returns (value, tail): value sums w * q(1-q) * f^k / (k(k-1)) for
    k = 2..order with f = |logit(q)(1 - alpha)|; tail caps the remainder by
    w * q(1-q) * f^(order+1) / order when every f <= 1, else +inf.
    q_unfair sets the row count; weights and alphas are read by `per_row`.
    """
    if order < 2:
        raise DomainError("series order must be >= 2")
    qu = per_row(q_unfair, None, "q_unfair", float)
    w = per_row(weights, qu.shape[0], "weights", float)
    a = per_row(alphas, qu.shape[0], "alphas", float)
    if not np.all((qu > 0) & (qu < 1)):  # NaN fails too
        raise DomainError("scores must lie strictly inside (0, 1)")
    f = np.abs(logit(qu) * (1.0 - a))
    curvature = w * qu * (1.0 - qu)
    value = 0.0
    fk = f * f
    for k in range(2, order + 1):
        value += dot(curvature, fk) / (k * (k - 1))
        fk = fk * f
    if np.all(f <= 1.0):
        tail = dot(curvature, fk) / order
    else:
        tail = math.inf
    return value, tail
