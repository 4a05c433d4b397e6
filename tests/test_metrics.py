"""Fairness metrics and KL proximity bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatree import (
    DomainError,
    EmptyMeasureError,
    cvar_value,
    empirical_kl,
    kl_bound_s1,
    kl_bound_s2,
    kl_taylor_bound,
    label_plugin,
    make_dataset,
    metric_auc,
    metric_cvar,
    metric_eoo_gap,
    metric_md,
    metric_sp_gap,
    metric_zero_one,
    single_leaf_tree,
    subgroup_risks,
    wrapped_scores,
)
from alphatree.core import expit, route_rows
from alphatree.metrics import S2_CONSTANT, s2_applicable

from helpers import metric_auc_reference, probe_columns, random_dataset, random_tree


def featureless(scores, labels, groups, B=3.0, weights=None):
    n = len(labels)
    return make_dataset({"x": np.zeros(n)}, {"x": "numeric"},
                        np.asarray(labels), groups, np.asarray(scores, dtype=float),
                        B, weights=weights)


def test_metric_eoo_gap_two_groups():
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    scores = [hi] * 9 + [lo] + [hi] * 6 + [lo] * 4
    ds = featureless(scores, np.ones(20, dtype=int),
                     ["A"] * 10 + ["B"] * 10, B=1.0)
    assert metric_eoo_gap(ds, single_leaf_tree()) == pytest.approx(0.3, abs=1e-15)


def test_metric_eoo_gap_is_two_sided_spread():
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    scores = ([hi] * 2 + [lo] * 8) + ([hi] * 5 + [lo] * 5) + ([hi] * 7 + [lo] * 3)
    ds = featureless(scores, np.ones(30, dtype=int),
                     ["a"] * 10 + ["b"] * 10 + ["c"] * 10, B=1.0)
    assert metric_eoo_gap(ds, single_leaf_tree()) == pytest.approx(0.5, abs=1e-15)


def test_metric_eoo_gap_degenerate_groups():
    ds = featureless([0.6] * 4, [1, 1, 1, -1], ["g"] * 4)
    assert metric_eoo_gap(ds, single_leaf_tree()) == 0.0


def test_metric_eoo_gap_needs_positives_in_every_group():
    ds = featureless([0.6] * 4, [1, 1, -1, -1], ["a", "a", "b", "b"])
    with pytest.raises(EmptyMeasureError, match="group 'b' has no positive rows"):
        metric_eoo_gap(ds, single_leaf_tree())


def test_metric_eoo_gap_names_a_weightless_group_before_a_group_without_positives():
    # 'a' has no positive rows; the positive rows of 'b' carry no weight
    ds = featureless([0.6] * 4, [-1, -1, 1, -1], ["a", "a", "b", "b"],
                     weights=[1.0, 1.0, 0.0, 1.0])
    with pytest.raises(EmptyMeasureError, match="group 'b' has zero total weight"):
        metric_eoo_gap(ds, single_leaf_tree())


def test_metric_sp_gap_constant_posteriors():
    ds = featureless([0.6] * 5 + [0.3] * 5, [1, -1] * 5,
                     ["a"] * 5 + ["b"] * 5)
    assert metric_sp_gap(ds, single_leaf_tree()) == pytest.approx(0.3, abs=1e-12)
    ds_same = featureless([0.4] * 10, [1, -1] * 5, ["a"] * 5 + ["b"] * 5)
    assert metric_sp_gap(ds_same, single_leaf_tree()) == pytest.approx(0.0, abs=1e-15)


def test_metric_sp_gap_weighted_hand_sum():
    # group a mean: (2*0.8 + 1*0.2)/3; group b mean: 0.5
    ds = featureless([0.8, 0.2, 0.5, 0.5], [1, -1, 1, -1],
                     ["a", "a", "b", "b"],
                     weights=np.array([2.0, 1.0, 1.0, 3.0]))
    expected = (2 * 0.8 + 1 * 0.2) / 3.0 - 0.5
    assert metric_sp_gap(ds, single_leaf_tree()) == pytest.approx(expected, abs=1e-12)


def test_metric_md_extremes():
    hi, lo = float(expit(3.0)), float(expit(-3.0))
    # group a predicts all positive, group b all negative: spread 1
    ds = featureless([hi, hi, lo, lo], [1, 1, -1, -1],
                     ["a", "a", "b", "b"])
    assert metric_md(ds, single_leaf_tree()) == pytest.approx(1.0, abs=1e-15)
    # identical prediction rates collapse the spread to zero
    ds_same = featureless([hi, lo, hi, lo], [1, -1, 1, -1],
                          ["a", "a", "b", "b"])
    assert metric_md(ds_same, single_leaf_tree()) == pytest.approx(
        0.0, abs=1e-15)
    # a score of exactly 1/2 is a negative prediction, never counted
    ds_tie = featureless([0.5, 0.5], [1, -1], ["a", "b"])
    assert metric_md(ds_tie, single_leaf_tree()) == pytest.approx(
        0.0, abs=1e-15)


def test_metric_md_hand_sum():
    hi, lo = float(expit(3.0)), float(expit(-3.0))
    # group a rate: 1/(1+3); group b rate: 1
    ds = featureless([hi, lo, hi, hi], [1, -1, 1, 1],
                     ["a", "a", "b", "b"],
                     weights=np.array([1.0, 3.0, 1.0, 1.0]))
    assert metric_md(ds, single_leaf_tree()) == pytest.approx(0.75, abs=1e-12)


def test_metric_zero_one_perfect_and_ties():
    hi, lo = float(expit(3.0)), float(expit(-3.0))
    ds = featureless([hi, lo], [1, -1], ["g", "g"])
    assert metric_zero_one(ds, single_leaf_tree()) == 0.0
    # a wrapped score of exactly 1/2 predicts negative
    ds_tie = featureless([0.5, 0.5], [1, -1], ["g", "g"])
    assert metric_zero_one(ds_tie, single_leaf_tree()) == pytest.approx(
        0.5, abs=1e-15)


def test_metric_zero_one_weighted():
    hi, lo = float(expit(3.0)), float(expit(-3.0))
    ds = featureless([hi, hi], [1, -1], ["g", "g"],
                     weights=np.array([1.0, 3.0]))
    assert metric_zero_one(ds, single_leaf_tree()) == pytest.approx(
        0.75, abs=1e-15)


def test_metric_auc_perfect_and_swap():
    ds = featureless([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1], ["g"] * 4)
    assert metric_auc(ds, single_leaf_tree()) == pytest.approx(1.0, abs=1e-15)
    # one of four positive-negative pairs is misordered
    ds_swap = featureless([0.9, 0.4, 0.6, 0.1], [1, 1, -1, -1], ["g"] * 4)
    assert metric_auc(ds_swap, single_leaf_tree()) == pytest.approx(
        0.75, abs=1e-15)


def test_metric_auc_ties_count_half():
    ds = featureless([0.5] * 4, [1, 1, -1, -1], ["g"] * 4)
    assert metric_auc(ds, single_leaf_tree()) == pytest.approx(0.5, abs=1e-15)


def test_metric_auc_monotone_invariance():
    rng = np.random.default_rng(0)
    ds, _ = random_dataset(rng, n_min=100, n_max=100)
    base = metric_auc(ds, single_leaf_tree())
    for alpha in (0.3, 2.0, 5.0):
        assert metric_auc(ds, single_leaf_tree(alpha=alpha)) == pytest.approx(
            base, abs=1e-12)


def test_metric_auc_weight_equals_duplication():
    scores = [0.9, 0.4, 0.6, 0.1]
    labels = [1, 1, -1, -1]
    ds_w = featureless(scores, labels, ["g"] * 4,
                       weights=np.array([2.0, 1.0, 1.0, 1.0]))
    ds_dup = featureless([0.9] + scores, [1] + labels, ["g"] * 5)
    assert metric_auc(ds_w, single_leaf_tree()) == pytest.approx(
        metric_auc(ds_dup, single_leaf_tree()), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    decimals=st.integers(0, 2),
    single_block=st.booleans(),
    wrapped=st.booleans(),
)
def test_metric_auc_matches_block_loop_reference(seed, n, decimals, single_block, wrapped):
    rng = np.random.default_rng(seed)
    if single_block:
        scores = np.full(n, np.round(rng.uniform(0.05, 0.95), decimals))
    else:
        scores = np.round(rng.uniform(0.0, 1.0, n), decimals)
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    labels[:2] = (1, -1)
    ds = make_dataset(probe_columns(rng, n), {"x0": "numeric", "x1": "numeric", "c0": "categorical"},
                      labels, ["g"] * n, scores, 3.0, weights=rng.uniform(0.1, 5.0, n))
    tree = random_tree(rng, max_depth=3) if wrapped else single_leaf_tree()
    assert abs(metric_auc(ds, tree) - metric_auc_reference(ds, tree)) <= 1e-12


def test_metric_cvar_delegates_to_group_tail():
    rng = np.random.default_rng(1)
    ds, _ = random_dataset(rng, n_min=120, n_max=120)
    eta = label_plugin(ds.labels)
    tree = single_leaf_tree()
    for beta in (0.0, 0.4, 0.9):
        risks = subgroup_risks(ds, tree, eta)
        gw = {g: float(ds.weights[ds.groups == g].sum())
              for g in np.unique(ds.groups)}
        assert metric_cvar(ds, tree, eta, beta) == pytest.approx(
            cvar_value(risks, beta, gw), abs=1e-12)


def test_empirical_kl_zero_and_oracle():
    w = np.array([1.0])
    assert empirical_kl(w, np.array([0.7]), np.array([0.7])) == 0.0
    assert empirical_kl(w, np.array([0.7]), np.array([0.5])) == pytest.approx(
        0.08228287850505178, abs=1e-15)


def test_empirical_kl_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        w = rng.uniform(0.1, 1.0, n)
        w = w / w.sum()
        qu = rng.uniform(0.05, 0.95, n)
        qf = rng.uniform(0.05, 0.95, n)
        assert empirical_kl(w, qu, qf) >= -1e-15


def test_empirical_kl_near_zero_for_identity_tree():
    rng = np.random.default_rng(3)
    ds, _ = random_dataset(rng, n_min=80, n_max=80)
    qf = wrapped_scores(single_leaf_tree(), ds.columns, ds.scores)
    w = ds.weights / ds.weights.sum()
    assert empirical_kl(w, ds.scores, qf) == pytest.approx(0.0, abs=1e-12)


def test_empirical_kl_validation():
    w = np.array([1.0])
    with pytest.raises(DomainError):
        empirical_kl(w, np.array([0.0]), np.array([0.5]))
    with pytest.raises(DomainError):
        empirical_kl(w, np.array([0.5]), np.array([1.0]))


def test_empirical_kl_rejects_nan_scores():
    with pytest.raises(DomainError, match="strictly inside"):
        empirical_kl([0.5, 0.5], [0.3, math.nan], [0.4, 0.5])
    with pytest.raises(DomainError, match="strictly inside"):
        empirical_kl([0.5, 0.5], [0.3, 0.4], [math.nan, 0.5])


def test_kl_bound_s1_oracles():
    assert kl_bound_s1(3.0) == pytest.approx(0.0743126266177878, abs=1e-15)
    # B -> 0 recovers the data-independent constant pi^2 / 24
    assert kl_bound_s1(1e-6) == pytest.approx(S2_CONSTANT, abs=1e-6)
    # the formula itself accepts any positive B; the B <= 3 gate is
    # s1_applicable's business
    assert 0.0 < kl_bound_s1(3.5) < kl_bound_s1(3.0)
    with pytest.raises(DomainError):
        kl_bound_s1(0.0)
    with pytest.raises(DomainError):
        kl_bound_s1(-1.0)


def test_kl_bound_s1_rejects_a_nan_clip_level():
    with pytest.raises(DomainError, match="clip level must be positive"):
        kl_bound_s1(math.nan)


def test_kl_bound_s1_monotone_decreasing_in_B():
    bs = np.linspace(0.05, 3.0, 30)
    vals = [kl_bound_s1(float(b)) for b in bs]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_kl_bound_s2_constant():
    assert kl_bound_s2() == S2_CONSTANT
    assert kl_bound_s2() == pytest.approx(math.pi**2 / 24.0, abs=1e-15)


def test_s1_applicability_band():
    from alphatree import s1_applicable

    # every leaf exponent must sit within 1/B of the identity, and B <= 3
    assert s1_applicable(single_leaf_tree(1.0), 3.0)
    assert s1_applicable(single_leaf_tree(1.0 + 1.0 / 3.0), 3.0)
    assert not s1_applicable(single_leaf_tree(2.0), 3.0)
    assert not s1_applicable(single_leaf_tree(1.0), 3.5)
    assert s1_applicable(single_leaf_tree(1.9), 1.0)


def test_s2_applicability_rowwise():
    from alphatree import s2_applicable

    ds = featureless([0.1], [1], ["g"])
    # |logit(0.1)| = 2.197...: alpha may deviate from 1 by at most 1/2.197
    assert s2_applicable(single_leaf_tree(1.455), ds.columns, ds.scores)
    assert not s2_applicable(single_leaf_tree(1.46), ds.columns, ds.scores)
    assert s2_applicable(single_leaf_tree(1.0), ds.columns, ds.scores)


def probe_dataset(rng, n, B):
    cols = probe_columns(rng, n)
    u = rng.uniform(1e-3, 1.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return make_dataset(
        cols, {"x0": "numeric", "x1": "numeric", "c0": "categorical"},
        np.where(rng.random(n) < 0.5, 1, -1), ["g"] * n,
        expit(B * u), B, weights=rng.uniform(0.5, 2.0, n))


def test_s1_bound_dominates_empirical_kl():
    rng = np.random.default_rng(4)
    from alphatree import s1_applicable

    bound = kl_bound_s1(3.0)
    for _ in range(100):
        ds = probe_dataset(rng, int(rng.integers(40, 151)), 3.0)
        tree = random_tree(
            rng, max_depth=3,
            alpha_of=lambda r: 1.0 + float(r.uniform(-1.0, 1.0)) / 3.0)
        assert s1_applicable(tree, 3.0)
        qf = wrapped_scores(tree, ds.columns, ds.scores)
        w = ds.weights / ds.weights.sum()
        assert empirical_kl(w, ds.scores, qf) <= bound + 1e-9


def test_s2_bound_dominates_empirical_kl():
    rng = np.random.default_rng(5)
    from alphatree import s2_applicable

    bound = kl_bound_s2()
    checked = 0
    for _ in range(100):
        B = float(rng.uniform(0.5, 3.0))
        ds = probe_dataset(rng, int(rng.integers(40, 151)), B)
        tree = random_tree(
            rng, max_depth=3,
            alpha_of=lambda r: 1.0 + float(r.uniform(-1.0, 1.0)) / 3.0)
        if not s2_applicable(tree, ds.columns, ds.scores):
            continue
        checked += 1
        qf = wrapped_scores(tree, ds.columns, ds.scores)
        w = ds.weights / ds.weights.sum()
        assert empirical_kl(w, ds.scores, qf) <= bound + 1e-9
    assert checked > 50


def test_kl_taylor_identity_tree_is_zero():
    w = np.array([0.25, 0.75])
    q = np.array([0.3, 0.8])
    value, tail = kl_taylor_bound(w, q, np.array([1.0, 1.0]))
    assert value == 0.0
    assert tail == 0.0


def test_kl_taylor_oracle():
    value, tail = kl_taylor_bound(np.array([1.0]), np.array([0.7]),
                                  np.array([1.5]), order=3)
    assert value == pytest.approx(0.021506488049086128, abs=1e-15)
    assert tail == pytest.approx(0.0022548751280522944, abs=1e-15)


def test_kl_taylor_tail_infinite_beyond_radius():
    # |logit(0.7) * (1 - alpha)| > 1 escapes the series' convergence disc
    value, tail = kl_taylor_bound(np.array([1.0]), np.array([0.7]),
                                  np.array([-0.5]), order=3)
    assert math.isfinite(value)
    assert math.isinf(tail)


def test_kl_taylor_partial_sums_tighten():
    w = np.array([0.5, 0.5])
    q = np.array([0.7, 0.4])
    alphas = np.array([1.5, 0.7])
    prev_value, prev_total = -1.0, math.inf
    for order in range(2, 30):
        value, tail = kl_taylor_bound(w, q, alphas, order=order)
        assert value >= prev_value - 1e-15
        assert tail >= 0.0
        # each extra explicit term hands mass from the cap to the sum, so
        # value + tail can only shrink: later bounds are at least as tight
        assert value + tail <= prev_total + 1e-15
        prev_value, prev_total = value, value + tail
    v60, t60 = kl_taylor_bound(w, q, alphas, order=60)
    # by order 60 the geometric cap is dust and the total sits at the limit
    assert t60 < 1e-12
    assert prev_total == pytest.approx(v60, abs=1e-9)
    # the cap always covers the terms it replaces: a truncated total is
    # never below the fully resolved series
    v3, t3 = kl_taylor_bound(w, q, alphas, order=3)
    assert v3 + t3 >= v60 - 1e-15


def test_kl_taylor_validation():
    with pytest.raises(DomainError):
        kl_taylor_bound(np.array([1.0]), np.array([0.7]), np.array([1.5]),
                        order=1)
    with pytest.raises(DomainError):
        kl_taylor_bound(np.array([1.0]), np.array([0.0]), np.array([1.5]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_figure_is_the_same_from_carried_leaf_ids(seed):
    rng = np.random.default_rng(seed)
    base, eta = random_dataset(rng)
    # random_tree tests the columns of probe_columns
    ds = make_dataset(probe_columns(rng, base.n), {"x0": "numeric", "x1": "numeric", "c0": "categorical"},
                      base.labels, base.groups, base.scores, base.clip_B, weights=base.weights)
    tree = random_tree(rng, max_depth=3, alpha_of=lambda r: float(r.uniform(0.2, 2.0)))
    ids = route_rows(tree, ds.columns, ds.n)
    for metric in (metric_zero_one, metric_sp_gap, metric_md, metric_auc, metric_eoo_gap):
        try:
            expect = metric(ds, tree)
        except (DomainError, EmptyMeasureError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                metric(ds, tree, ids)
        else:
            assert metric(ds, tree, ids) == expect
    assert metric_cvar(ds, tree, eta, 0.5, ids) == metric_cvar(ds, tree, eta, 0.5)
    assert subgroup_risks(ds, tree, eta, ids) == subgroup_risks(ds, tree, eta)
    assert s2_applicable(tree, ds.columns, ds.scores, ids) == s2_applicable(tree, ds.columns, ds.scores)
