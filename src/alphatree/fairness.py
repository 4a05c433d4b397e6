"""Group-fairness drivers over the induction engine.

Each driver schedules rounds of top-down growth on group-conditional views
of one shared tree: the worst-off tail group (CVaR), the disadvantaged
group after a posterior push-up (equal opportunity), or whichever side of a
mean-score gap was asked to move (statistical parity).  Because relabeling
skips leaves the active view never reaches, growth on one group's
conditional measure only ever touches that group's sub-tree.  The groups
a driver schedules on and measures are the dataset's groups; to train on
estimated groups, pass a dataset whose groups are the estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .boosting import InductionConfig, topdown
from .core import AlphaTree, DomainError, dot, per_row, wrapped_scores
from .data import (
    Dataset,
    EmptyMeasureError,
    RunTrace,
    View,
    binary_entropy,
    condition_on_group,
    log_loss,
    target_posterior,
)
from .estimators import init_stump, label_plugin

__all__ = [
    "CvarSpec",
    "EooSpec",
    "SpSpec",
    "PushupParams",
    "group_means",
    "subgroup_risks",
    "cvar_quantile",
    "cvar_value",
    "run_cvar",
    "pushup_posterior",
    "advantage_rate",
    "run_eoo",
    "run_sp",
]

K_CAP = 100.0


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError("eps must be positive and finite")


@dataclass(frozen=True)
class CvarSpec:
    """Worst-tail driver configuration."""

    beta: float
    risk_threshold: float = 0.0
    outer_rounds: int = 8
    induction: InductionConfig = field(default_factory=InductionConfig)

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise DomainError("beta must lie in [0, 1)")
        if not math.isfinite(self.risk_threshold):
            raise DomainError("risk_threshold must be finite")
        if self.outer_rounds < 0:
            raise DomainError("outer_rounds must be >= 0")


@dataclass(frozen=True)
class EooSpec:
    """Equal-opportunity driver configuration.

    K controls the push-up quota p = rate(s*) + eps/(K-1) and the lift
    delta = K*eps/(K-1); it is raised automatically (up to 100) when the
    nominal quota would exceed 1.
    """

    eps: float
    K: float = 2.0
    induction: InductionConfig = field(default_factory=InductionConfig)

    def __post_init__(self):
        _check_eps(self.eps)
        if not (math.isfinite(self.K) and self.K > 1.0):
            raise DomainError("K must be finite and exceed 1")


@dataclass(frozen=True)
class SpSpec:
    """Statistical-parity driver configuration."""

    eps: float
    direction: str = "up"
    outer_rounds: int = 8
    induction: InductionConfig = field(default_factory=InductionConfig)

    def __post_init__(self):
        _check_eps(self.eps)
        if self.direction not in ("up", "down"):
            raise DomainError(f"unknown direction {self.direction!r}")
        if self.outer_rounds < 0:
            raise DomainError("outer_rounds must be >= 0")


@dataclass(frozen=True)
class PushupParams:
    """Realized push-up: the quota, the lift, and inf eta over the top-p set."""

    p: float
    delta: float
    eta_floor: float
    x_p: np.ndarray


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _group_weights(ds: Dataset) -> dict:
    total = float(ds.weights.sum())
    return {g: float(ds.weights[idx].sum()) / total for g, idx in ds.group_rows.items()}


def group_means(values: np.ndarray, weights: np.ndarray, group_rows: Mapping) -> dict:
    """Weighted mean of a per-row quantity over each group's rows.

    group_rows maps each group, in result order, to its row indices.  The
    weights set the row count; values are one per row or one for every row
    (see per_row).  Each group's weights are normalized to sum 1 and dotted
    with its values, the arithmetic of a group View; a group whose rows
    carry no weight raises EmptyMeasureError.
    """
    weights = per_row(weights, None, "weights")
    values = per_row(values, weights.shape[0], "values")
    out = {}
    for g, idx in group_rows.items():
        w = weights[idx]
        total = w.sum()
        if total <= 0:
            raise EmptyMeasureError(f"group {g!r} has zero total weight")
        out[g] = dot(w / total, values[idx])
    return out


def subgroup_risks(ds: Dataset, tree: AlphaTree, eta_t=None, leaf_ids=None) -> dict:
    """Wrapped log-loss risk of every group's conditional measure.

    The target defaults to the label plug-in posterior.  leaf_ids, when
    given, are every row's leaf under tree and replace routing (see
    `core.wrapped_scores`).
    """
    eta = label_plugin(ds.labels) if eta_t is None else target_posterior(eta_t, ds.n)
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    return group_means(log_loss(q_f, eta), ds.weights, ds.group_rows)


def cvar_quantile(risks: Mapping, beta: float) -> tuple[float, list]:
    """Tail threshold and tail members at level beta.

    The threshold is the lowest risk with at least ceil((1-beta) * n) groups
    at or above it (a tiny nudge keeps exact multiples from spilling over);
    ties at the threshold all enter the tail.
    """
    if not (0.0 <= beta < 1.0):
        raise DomainError("beta must lie in [0, 1)")
    if not risks:
        raise EmptyMeasureError("no subgroup risks given")
    n = len(risks)
    k = max(1, min(n, math.ceil((1.0 - beta) * n - 1e-9)))
    values = sorted(risks.values(), reverse=True)
    threshold = values[k - 1]
    tail = sorted(g for g, r in risks.items() if r >= threshold)
    return threshold, tail


def cvar_value(risks: Mapping, beta: float, group_weights: Mapping | None = None) -> float:
    """Mean risk over the beta-tail, weighted by group mass when given."""
    threshold, tail = cvar_quantile(risks, beta)
    if group_weights is None:
        return float(np.mean([risks[g] for g in tail]))
    masses = np.array([float(group_weights[g]) for g in tail])
    total = float(masses.sum())
    if total <= 0.0:
        raise EmptyMeasureError("tail groups carry no weight")
    return dot(masses, [risks[g] for g in tail]) / total


# ---------------------------------------------------------------------------
# CVaR
# ---------------------------------------------------------------------------


def run_cvar(
    ds: Dataset,
    spec: CvarSpec,
    tree0: AlphaTree | None = None,
    *,
    eta_t=None,
) -> tuple[AlphaTree, RunTrace]:
    """Repeatedly grow the tree on the currently worst-off tail group.

    Starts from a one-leaf-per-group stump when tree0 is omitted (recorded
    as init events, one per group).  Every outer round re-evaluates the
    subgroup risks, picks the worst group of the beta-tail, and runs the
    induction budget on its conditional view.  Stops at risk_threshold,
    outer_rounds, or when a round fails to lower the tail mean.  The target
    posterior defaults to the label plug-in.
    """
    from .core import route_rows  # looked up per call, as perfbench/tracer.py swaps it

    modalities = list(ds.group_rows)
    trace = RunTrace()
    if tree0 is None:
        tree = init_stump(modalities, ds.group_column)
        for g in modalities:
            trace.add(0, "subtree_init", 0.0, group=str(g), event="init")
    else:
        tree = tree0
    eta = label_plugin(ds.labels) if eta_t is None else target_posterior(eta_t, ds.n)
    gw = _group_weights(ds)

    leaf_ids = route_rows(tree, ds.columns, ds.n)
    it = 0
    prev_cvar = math.inf
    for r in range(spec.outer_rounds + 1):
        risks = subgroup_risks(ds, tree, eta, leaf_ids)
        _, tail = cvar_quantile(risks, spec.beta)
        cvar = cvar_value(risks, spec.beta, gw)
        final = r == spec.outer_rounds
        event = "final" if final else f"round {r} tail={','.join(str(g) for g in tail)}"
        trace.add(it, "cvar", cvar, event=event)
        trace.add_groups(it, "group_risk", risks)
        if final or cvar <= spec.risk_threshold:
            break
        if cvar >= prev_cvar - 1e-12 and r > 0:
            trace.add(it, "cvar", cvar, event="no-progress")
            break
        prev_cvar = cvar
        worst = max(sorted(tail, key=str), key=lambda g: risks[g])
        v = condition_on_group(ds, worst)
        tree, trace = topdown(
            v, eta, ds.scores, ds.clip_B, tree, spec.induction,
            trace=trace, iteration_start=it, leaf_ids=leaf_ids,
        )
        it = trace.last_iteration() + 1
    return tree, trace


# ---------------------------------------------------------------------------
# equal opportunity
# ---------------------------------------------------------------------------


def pushup_posterior(eta, v: View, p: float, delta: float) -> tuple[np.ndarray, PushupParams]:
    """(p, delta)-push-up of the target posterior over a view.

    X_p is the shortest prefix of the view's rows, ordered by descending
    eta with base row id as tiebreak, holding at least p of the view's
    weight; eta_floor = min eta over X_p.  When eta_floor >= 1/2 the
    transform is the identity; otherwise every view row with eta in
    [eta_floor, 1/2 + delta] is raised to min(1/2 + delta, 1).

    eta is read by `target_posterior` over the whole base, as the result
    covers every base row; rows outside the view are never touched.
    """
    out = target_posterior(eta, v.base.n)
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must lie in [0, 1]")
    if not delta >= 0.0:
        raise DomainError("delta must be nonnegative")

    eta_view = out[v.indices]
    if p == 0.0:
        return out, PushupParams(p=p, delta=delta, eta_floor=math.inf, x_p=np.array([], dtype=int))

    order = np.lexsort((v.indices, -eta_view))
    cumw = np.cumsum(v.weights[order])
    cut = int(np.searchsorted(cumw, p - 1e-12, side="left")) + 1
    cut = min(cut, v.n)
    prefix = order[:cut]
    x_p = v.indices[prefix]
    eta_floor = float(eta_view[prefix].min())
    params = PushupParams(p=p, delta=delta, eta_floor=eta_floor, x_p=x_p)
    if eta_floor >= 0.5:
        return out, params
    target = min(0.5 + delta, 1.0)
    band = (eta_view >= eta_floor) & (eta_view <= 0.5 + delta)
    out[v.indices[band]] = target
    return out, params


def advantage_rate(ds: Dataset, tree: AlphaTree, group) -> float:
    """Weighted P(prediction = 1 | Y = +1, group) under the wrapped scores.

    A wrapped score of exactly 1/2 counts as a negative prediction.
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    rows = ds.positive_rows
    if group not in rows:
        raise EmptyMeasureError(f"group {group!r} has no positive rows")
    return group_means((q_f > 0.5).astype(float), ds.weights, {group: rows[group]})[group]


def _rates(ds: Dataset, tree: AlphaTree, leaf_ids=None) -> dict:
    """Advantage rate of every group whose positive rows carry weight.

    A group without such rows has no rate and is skipped.  leaf_ids, when
    given, replace routing (see `core.wrapped_scores`).
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    rows = {g: idx for g, idx in ds.positive_rows.items() if ds.weights[idx].any()}
    out = group_means((q_f > 0.5).astype(float), ds.weights, rows)
    if len(out) < 2:
        raise EmptyMeasureError("equal opportunity needs >= 2 groups with positives")
    return out


def _raise_k(k: float, eps: float, rate_star: float) -> float:
    """Smallest K making the quota p feasible, capped at 100."""
    p = rate_star + eps / (k - 1.0)
    if p <= 1.0:
        return k
    if rate_star >= 1.0:
        raise DomainError("reference group already predicts every positive; quota infeasible")
    k_min = 1.0 + eps / (1.0 - rate_star)
    if k_min > K_CAP:
        raise DomainError(f"no K <= {K_CAP:g} makes the push-up quota feasible")
    return max(k, k_min)


def run_eoo(
    ds: Dataset,
    spec: EooSpec,
    tree0: AlphaTree | None = None,
    *,
    eta_estimate,
) -> tuple[AlphaTree, RunTrace]:
    """Close the reference group's true-positive-rate advantage to <= eps.

    The advantaged group s* is fixed from the initial rates and never grown.
    Each step pushes the currently worst group's posterior up on its top-p
    weight and grows that group's sub-tree by one split, re-identifying the
    worst group after every split.  Steps stop when the pushed view's risk
    reaches eps^4/2 + E[H(eta_t)], when the observed gap is already within
    eps, or when the induction budget (max_iterations splits) is spent.
    """
    from .core import route_rows  # looked up per call, as perfbench/tracer.py swaps it

    modalities = list(ds.group_rows)
    tree = tree0 if tree0 is not None else init_stump(modalities, ds.group_column)
    trace = RunTrace()
    eta = target_posterior(eta_estimate, ds.n)
    eps = spec.eps

    one_split = replace(spec.induction, max_iterations=1)
    leaf_ids = route_rows(tree, ds.columns, ds.n)
    it = 0
    s_low_prev = None
    pushed = None
    final = False
    for step in range(spec.induction.max_iterations + 1):
        rates = _rates(ds, tree, leaf_ids)
        if step == 0:
            s_star = max(sorted(rates, key=str), key=lambda g: rates[g])
            k = _raise_k(float(spec.K), eps, rates[s_star])
            p = min(1.0, rates[s_star] + eps / (k - 1.0))
            delta = k * eps / (k - 1.0)
        final = final or step == spec.induction.max_iterations
        gap = rates[s_star] - min(rates.values())
        trace.add(it, "eoo_gap", gap, event="final" if final else f"step {step} reference={s_star}")
        trace.add_groups(it, "advantage_rate", {g: rates[g] for g in sorted(rates, key=str)})
        if final or gap <= eps:
            break
        others = {g: r for g, r in rates.items() if g != s_star}
        s_low = min(sorted(others, key=str), key=lambda g: others[g])
        v = condition_on_group(ds, s_low)
        if s_low != s_low_prev:
            pushed, params = pushup_posterior(eta, v, p, delta)
            if s_low_prev is not None:
                trace.add(it, "target_switch", params.eta_floor, group=str(s_low), event="switch")
            s_low_prev = s_low
        stop = (eps**4) / 2.0 + dot(v.weights, binary_entropy(pushed[v.indices]))
        n_before = tree.n_leaves
        tree, trace = topdown(
            v, pushed, ds.scores, ds.clip_B, tree, one_split,
            trace=trace, iteration_start=it, risk_stop=stop, leaf_ids=leaf_ids,
        )
        it = trace.last_iteration() + 1
        # a step that reaches the risk stop or grows nothing makes the next measurement the last
        final = trace.values("risk")[-1] <= stop or tree.n_leaves == n_before
    return tree, trace


# ---------------------------------------------------------------------------
# statistical parity
# ---------------------------------------------------------------------------


def run_sp(
    ds: Dataset,
    spec: SpSpec,
    tree0: AlphaTree | None = None,
) -> tuple[AlphaTree, RunTrace]:
    """Close the spread of mean wrapped scores across groups to <= eps.

    direction "up" grows the lowest-mean group toward the highest group's
    mean black-box score; "down" grows the highest-mean group toward the
    lowest group's.  Extremes and the constant target are recomputed every
    outer round, so the grown side follows the argmin/argmax as they move;
    the reference side of the final round is never modified.
    """
    from .core import route_rows  # looked up per call, as perfbench/tracer.py swaps it

    modalities = list(ds.group_rows)
    if len(modalities) < 2:
        raise EmptyMeasureError("statistical parity needs >= 2 groups")
    tree = tree0 if tree0 is not None else init_stump(modalities, ds.group_column)
    trace = RunTrace()

    score_means = group_means(ds.scores, ds.weights, ds.group_rows)
    leaf_ids = route_rows(tree, ds.columns, ds.n)
    it = 0
    for r in range(spec.outer_rounds + 1):
        q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
        means = group_means(q_f, ds.weights, ds.group_rows)
        s_hi = max(sorted(means, key=str), key=lambda g: means[g])
        s_lo = min(sorted(means, key=str), key=lambda g: means[g])
        gap = means[s_hi] - means[s_lo]
        final = r == spec.outer_rounds
        trace.add(it, "sp_gap", gap, event="final" if final else f"round {r}")
        trace.add_groups(it, "group_mean", means)
        if final or gap <= spec.eps:
            break
        grow, ref = (s_lo, s_hi) if spec.direction == "up" else (s_hi, s_lo)
        v = condition_on_group(ds, grow)
        eta_round = np.full(ds.n, 0.5)
        eta_round[v.indices] = score_means[ref]
        tree, trace = topdown(
            v, eta_round, ds.scores, ds.clip_B, tree, spec.induction,
            trace=trace, iteration_start=it, leaf_ids=leaf_ids,
        )
        it = trace.last_iteration() + 1
    return tree, trace
