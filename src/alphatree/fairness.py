"""Group-fairness drivers over the induction engine.

Each driver schedules rounds of top-down growth on group-conditional views
of one shared tree: the worst-off tail group (CVaR), the disadvantaged
group after a posterior push-up (equal opportunity), or whichever side of a
mean-score gap was asked to move (statistical parity).  Because relabeling
skips leaves the active view never reaches, growth on one group's
conditional measure only ever touches that group's sub-tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .boosting import InductionConfig, _risk_terms, topdown
from .core import AlphaTree, DomainError, wrapped_scores
from .data import Dataset, EmptyMeasureError, RunTrace, View, binary_entropy, make_view
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
        if self.eps <= 0.0:
            raise DomainError("eps must be positive")
        if self.K <= 1.0:
            raise DomainError("K must exceed 1")


@dataclass(frozen=True)
class SpSpec:
    """Statistical-parity driver configuration."""

    eps: float
    direction: str = "up"
    outer_rounds: int = 8
    induction: InductionConfig = field(default_factory=InductionConfig)

    def __post_init__(self):
        if self.eps <= 0.0:
            raise DomainError("eps must be positive")
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


def _groups_array(ds: Dataset, schedule_groups) -> np.ndarray:
    """Group assignment the driver schedules on; defaults to the dataset's.

    Passing a proxy-model prediction here trains on estimated groups while
    metrics elsewhere keep using the recorded ones.
    """
    if schedule_groups is None:
        return ds.groups
    arr = np.asarray(schedule_groups, dtype=object)
    if arr.shape[0] != ds.n:
        raise DomainError("schedule_groups must have one entry per row")
    return arr


def _group_view(ds: Dataset, groups_arr: np.ndarray, group) -> View:
    mask = groups_arr == group
    idx = np.flatnonzero(mask)
    return make_view(ds, idx, raw_weights=ds.weights[idx])


def _group_weights(ds: Dataset, groups_arr: np.ndarray) -> dict:
    total = float(ds.weights.sum())
    out = {}
    for g in sorted(set(groups_arr.tolist())):
        out[g] = float(ds.weights[groups_arr == g].sum()) / total
    return out


def _eta_base(ds: Dataset, eta_t) -> np.ndarray:
    eta = np.broadcast_to(np.asarray(eta_t, dtype=float), (ds.n,)).copy()
    if np.any(eta < 0) or np.any(eta > 1):
        raise DomainError("target posterior must lie in [0, 1]")
    return eta


def group_means(values: np.ndarray, groups: np.ndarray, weights: np.ndarray) -> dict:
    """Weighted mean of a per-row quantity over each group's rows.

    Groups come in sorted order.  Each group's weights are normalized to sum
    1 and dotted with its values, the arithmetic of a group View.  A group
    whose rows carry no weight raises EmptyMeasureError.
    """
    out = {}
    for g in sorted(set(groups.tolist())):
        idx = np.flatnonzero(groups == g)
        w = weights[idx]
        total = w.sum()
        if total <= 0:
            raise EmptyMeasureError(f"group {g!r} has zero total weight")
        out[g] = float(np.dot(w / total, values[idx]))
    return out


def subgroup_risks(ds: Dataset, tree: AlphaTree, eta_t=None, schedule_groups=None) -> dict:
    """Wrapped log-loss risk of every group's conditional measure.

    The target defaults to the label plug-in posterior.
    """
    groups_arr = _groups_array(ds, schedule_groups)
    eta = label_plugin(ds.labels) if eta_t is None else _eta_base(ds, eta_t)
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    return group_means(_risk_terms(q_f, eta), groups_arr, ds.weights)


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
    total = masses.sum()
    if total <= 0.0:
        raise EmptyMeasureError("tail groups carry no weight")
    return float(np.dot(masses, [risks[g] for g in tail]) / total)


# ---------------------------------------------------------------------------
# CVaR
# ---------------------------------------------------------------------------


def run_cvar(
    ds: Dataset,
    spec: CvarSpec,
    tree0: AlphaTree | None = None,
    *,
    eta_t=None,
    trace: RunTrace | None = None,
    schedule_groups=None,
) -> tuple[AlphaTree, RunTrace]:
    """Repeatedly grow the tree on the currently worst-off tail group.

    Starts from a one-leaf-per-group stump when tree0 is omitted (recorded
    as init events, one per group).  Every outer round re-evaluates the
    subgroup risks, picks the worst group of the beta-tail, and runs the
    induction budget on its conditional view.  Stops at risk_threshold,
    outer_rounds, or when a round fails to lower the tail mean.  The target
    posterior defaults to the label plug-in.
    """
    groups_arr = _groups_array(ds, schedule_groups)
    modalities = sorted(set(groups_arr.tolist()))
    if trace is None:
        trace = RunTrace()
    if tree0 is None:
        tree = init_stump(modalities, ds.group_column)
        for g in modalities:
            trace.add(0, "subtree_init", 0.0, group=str(g), event="init")
    else:
        tree = tree0
    eta = label_plugin(ds.labels) if eta_t is None else _eta_base(ds, eta_t)
    gw = _group_weights(ds, groups_arr)

    it = 0
    prev_cvar = math.inf
    for r in range(spec.outer_rounds):
        risks = subgroup_risks(ds, tree, eta, schedule_groups)
        threshold, tail = cvar_quantile(risks, spec.beta)
        cvar = cvar_value(risks, spec.beta, gw)
        trace.add(it, "cvar", cvar, event=f"round {r} tail={','.join(str(g) for g in tail)}")
        for g in modalities:
            trace.add(it, "group_risk", risks[g], group=str(g))
        if cvar <= spec.risk_threshold:
            return tree, trace
        if cvar >= prev_cvar - 1e-12 and r > 0:
            trace.add(it, "cvar", cvar, event="no-progress")
            return tree, trace
        prev_cvar = cvar
        worst = max(sorted(tail, key=str), key=lambda g: risks[g])
        v = _group_view(ds, groups_arr, worst)
        tree, trace = topdown(
            v, eta, ds.scores, ds.clip_B, tree, spec.induction,
            trace=trace, iteration_start=it,
        )
        it = trace.last_iteration() + 1

    risks = subgroup_risks(ds, tree, eta, schedule_groups)
    cvar = cvar_value(risks, spec.beta, gw)
    trace.add(it, "cvar", cvar, event="final")
    for g in modalities:
        trace.add(it, "group_risk", risks[g], group=str(g))
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

    eta is base-aligned; rows outside the view are never touched.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape[0] != v.base.n:
        raise DomainError("eta must be base-aligned")
    if np.any(eta < 0) or np.any(eta > 1):
        raise DomainError("target posterior must lie in [0, 1]")
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must lie in [0, 1]")
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")

    eta_view = eta[v.indices]
    out = eta.copy()
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


def _positive_rates(ds: Dataset, q_f: np.ndarray, groups_arr: np.ndarray, rows=True) -> dict:
    """Weighted P(q_f > 1/2 | Y = +1, group) of every group with positive rows.

    Only rows selected by the boolean mask rows take part.  A wrapped score
    of exactly 1/2 counts as a negative prediction.
    """
    rows = rows & (ds.labels == 1)
    return group_means((q_f[rows] > 0.5).astype(float), groups_arr[rows], ds.weights[rows])


def advantage_rate(ds: Dataset, tree: AlphaTree, group, schedule_groups=None) -> float:
    """Weighted P(prediction = 1 | Y = +1, group) under the wrapped scores.

    A wrapped score of exactly 1/2 counts as a negative prediction.
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    groups_arr = _groups_array(ds, schedule_groups)
    rates = _positive_rates(ds, q_f, groups_arr, groups_arr == group)
    if group not in rates:
        raise EmptyMeasureError(f"group {group!r} has no positive rows")
    return rates[group]


def _rates(ds: Dataset, tree: AlphaTree, groups_arr: np.ndarray) -> dict:
    """Advantage rate of every group whose positive rows carry weight.

    A group without such rows has no rate and is skipped.
    """
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    pos = ds.labels == 1
    rows = np.ones(ds.n, dtype=bool)
    for g in set(groups_arr[pos & (ds.weights == 0)].tolist()):
        if not ds.weights[pos & (groups_arr == g)].any():
            rows &= groups_arr != g
    out = _positive_rates(ds, q_f, groups_arr, rows)
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
    eta_estimate=None,
    *,
    trace: RunTrace | None = None,
    schedule_groups=None,
) -> tuple[AlphaTree, RunTrace]:
    """Close the reference group's true-positive-rate advantage to <= eps.

    The advantaged group s* is fixed from the initial rates and never grown.
    Each step pushes the currently worst group's posterior up on its top-p
    weight and grows that group's sub-tree by one split, re-identifying the
    worst group after every split.  Steps stop when the pushed view's risk
    reaches eps^4/2 + E[H(eta_t)], when the observed gap is already within
    eps, or when the induction budget (max_iterations splits) is spent.
    """
    if eta_estimate is None:
        raise DomainError("run_eoo needs a posterior estimate for every row")
    groups_arr = _groups_array(ds, schedule_groups)
    modalities = sorted(set(groups_arr.tolist()))
    tree = tree0 if tree0 is not None else init_stump(modalities, ds.group_column)
    if trace is None:
        trace = RunTrace()
    eta = _eta_base(ds, eta_estimate)
    eps = spec.eps

    rates = _rates(ds, tree, groups_arr)
    s_star = max(sorted(rates, key=str), key=lambda g: rates[g])
    rate_star = rates[s_star]
    k = _raise_k(float(spec.K), eps, rate_star)
    p = min(1.0, rate_star + eps / (k - 1.0))
    delta = k * eps / (k - 1.0)

    one_split = replace(spec.induction, max_iterations=1)
    it = 0
    s_low_prev = None
    pushed = None
    for step in range(spec.induction.max_iterations):
        rates = _rates(ds, tree, groups_arr)
        gap = rates[s_star] - min(rates.values())
        trace.add(it, "eoo_gap", gap, event=f"step {step} reference={s_star}")
        for g in sorted(rates, key=str):
            trace.add(it, "advantage_rate", rates[g], group=str(g))
        if gap <= eps:
            return tree, trace
        others = {g: r for g, r in rates.items() if g != s_star}
        s_low = min(sorted(others, key=str), key=lambda g: others[g])
        v = _group_view(ds, groups_arr, s_low)
        if s_low != s_low_prev:
            pushed, params = pushup_posterior(eta, v, p, delta)
            if s_low_prev is not None:
                trace.add(it, "target_switch", params.eta_floor, group=str(s_low), event="switch")
            s_low_prev = s_low
        stop = (eps**4) / 2.0 + float(np.dot(v.weights, binary_entropy(pushed[v.indices])))
        n_before = tree.n_leaves
        tree, trace = topdown(
            v, pushed, ds.scores, ds.clip_B, tree, one_split,
            trace=trace, iteration_start=it, risk_stop=stop,
        )
        it = trace.last_iteration() + 1
        risk_now = trace.values("risk")[-1]
        if risk_now <= stop or tree.n_leaves == n_before:
            break

    rates = _rates(ds, tree, groups_arr)
    gap = rates[s_star] - min(rates.values())
    trace.add(it, "eoo_gap", gap, event="final")
    for g in sorted(rates, key=str):
        trace.add(it, "advantage_rate", rates[g], group=str(g))
    return tree, trace


# ---------------------------------------------------------------------------
# statistical parity
# ---------------------------------------------------------------------------


def run_sp(
    ds: Dataset,
    spec: SpSpec,
    tree0: AlphaTree | None = None,
    *,
    trace: RunTrace | None = None,
    schedule_groups=None,
) -> tuple[AlphaTree, RunTrace]:
    """Close the spread of mean wrapped scores across groups to <= eps.

    direction "up" grows the lowest-mean group toward the highest group's
    mean black-box score; "down" grows the highest-mean group toward the
    lowest group's.  Extremes and the constant target are recomputed every
    outer round, so the grown side follows the argmin/argmax as they move;
    the reference side of the final round is never modified.
    """
    groups_arr = _groups_array(ds, schedule_groups)
    modalities = sorted(set(groups_arr.tolist()))
    if len(modalities) < 2:
        raise EmptyMeasureError("statistical parity needs >= 2 groups")
    tree = tree0 if tree0 is not None else init_stump(modalities, ds.group_column)
    if trace is None:
        trace = RunTrace()

    score_means = group_means(ds.scores, groups_arr, ds.weights)
    it = 0
    for r in range(spec.outer_rounds):
        means = group_means(wrapped_scores(tree, ds.columns, ds.scores), groups_arr, ds.weights)
        s_hi = max(sorted(means, key=str), key=lambda g: means[g])
        s_lo = min(sorted(means, key=str), key=lambda g: means[g])
        gap = means[s_hi] - means[s_lo]
        trace.add(it, "sp_gap", gap, event=f"round {r}")
        for g in modalities:
            trace.add(it, "group_mean", means[g], group=str(g))
        if gap <= spec.eps:
            return tree, trace
        grow, ref = (s_lo, s_hi) if spec.direction == "up" else (s_hi, s_lo)
        v = _group_view(ds, groups_arr, grow)
        eta_round = np.full(ds.n, 0.5)
        eta_round[v.indices] = score_means[ref]
        tree, trace = topdown(
            v, eta_round, ds.scores, ds.clip_B, tree, spec.induction,
            trace=trace, iteration_start=it,
        )
        it = trace.last_iteration() + 1

    means = group_means(wrapped_scores(tree, ds.columns, ds.scores), groups_arr, ds.weights)
    gap = max(means.values()) - min(means.values())
    trace.add(it, "sp_gap", gap, event="final")
    for g in modalities:
        trace.add(it, "group_mean", means[g], group=str(g))
    return tree, trace
