"""CVaR, equal-opportunity, and statistical-parity drivers."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alphatree.core as core
import alphatree.fairness as fairness
from alphatree import (
    CvarSpec,
    DomainError,
    EmptyMeasureError,
    EooSpec,
    InductionConfig,
    SchemaError,
    SplitTest,
    SpSpec,
    advantage_rate,
    condition_on_group,
    cvar_quantile,
    cvar_value,
    full_view,
    group_means,
    label_plugin,
    make_dataset,
    metric_eoo_gap,
    pushup_posterior,
    run_cvar,
    run_eoo,
    run_sp,
    single_leaf_tree,
    stump,
    subgroup_risks,
)
from alphatree.core import expit

from helpers import decoded, group_means_reference, random_dataset


def test_cvar_quantile_oracle():
    risks = {"a": 1.0, "b": 0.5, "c": 0.2}
    # k = ceil((1-beta) * 3) = 2: threshold is the 2nd largest risk
    thr, tail = cvar_quantile(risks, 0.4)
    assert thr == 0.5
    assert set(tail) == {"a", "b"}


def test_cvar_quantile_extremes():
    risks = {"a": 1.0, "b": 0.5, "c": 0.2}
    thr, tail = cvar_quantile(risks, 0.99)
    assert thr == 1.0 and tail == ["a"]
    thr, tail = cvar_quantile(risks, 0.0)
    assert thr == 0.2 and set(tail) == {"a", "b", "c"}
    thr, tail = cvar_quantile({"only": 0.7}, 0.5)
    assert thr == 0.7 and tail == ["only"]


def test_cvar_value_unweighted_tail_mean():
    risks = {"a": 1.0, "b": 0.5, "c": 0.2}
    assert cvar_value(risks, 0.4) == pytest.approx(0.75, abs=1e-15)
    assert cvar_value(risks, 0.99) == pytest.approx(1.0, abs=1e-15)


def test_cvar_value_respects_group_weights():
    risks = {"a": 1.0, "b": 0.5, "c": 0.2}
    gw = {"a": 3.0, "b": 1.0, "c": 96.0}
    assert cvar_value(risks, 0.4, gw) == pytest.approx(
        (3.0 * 1.0 + 1.0 * 0.5) / 4.0, abs=1e-15)
    # equal weights reduce to the unweighted mean
    eq = {g: 5.0 for g in risks}
    assert cvar_value(risks, 0.4, eq) == pytest.approx(0.75, abs=1e-15)


def test_cvar_value_monotone_in_tail_risk():
    rng = np.random.default_rng(0)
    for _ in range(50):
        risks = {f"g{i}": float(rng.uniform(0.1, 2.0)) for i in range(5)}
        beta = float(rng.uniform(0.0, 0.9))
        base = cvar_value(risks, beta)
        _, tail = cvar_quantile(risks, beta)
        bumped = dict(risks)
        bumped[tail[0]] = risks[tail[0]] - 0.05
        assert cvar_value(bumped, beta) <= base + 1e-12


def three_row_dataset():
    scores = np.array([0.6, 0.6, 0.7])
    return make_dataset({"x": np.zeros(3)}, {"x": "numeric"},
                        np.array([1, -1, 1]), ["a", "a", "b"], scores, 3.0,
                        weights=np.array([1.0, 1.0, 2.0]))


def test_subgroup_risks_hand_computed():
    ds = three_row_dataset()
    risks = subgroup_risks(ds, single_leaf_tree())
    assert risks["a"] == pytest.approx((-math.log(0.6) - math.log(0.4)) / 2.0,
                                       abs=1e-12)
    assert risks["b"] == pytest.approx(-math.log(0.7), abs=1e-12)


def test_run_cvar_stops_when_threshold_met():
    ds = three_row_dataset()
    spec = CvarSpec(beta=0.5, risk_threshold=10.0, outer_rounds=4,
                    induction=InductionConfig(max_iterations=2))
    tree, trace = run_cvar(ds, spec)
    # entry CVaR is already under the threshold: stump returned untouched
    assert tree.n_leaves == 2
    assert all(l.alpha == 1.0 for l in tree.leaves())
    assert trace.values("cvar")[-1] <= 10.0
    inits = [r for r in trace.rows if r.metric == "subtree_init"]
    assert sorted(r.group for r in inits) == ["a", "b"]


def test_run_cvar_lowers_tail_risk_by_relabeling():
    # one group of confident rows matching their labels, one group of
    # confident rows opposing them; relabeling fixes the bad group
    n = 40
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    scores = np.array([hi] * 20 + [lo] * 20)
    labels = np.array([1] * 20 + [1] * 20)
    groups = ["good"] * 20 + ["bad"] * 20
    ds = make_dataset({"x": np.zeros(n)}, {"x": "numeric"}, labels, groups,
                      scores, 1.0)
    spec = CvarSpec(beta=0.6, risk_threshold=1e-9, outer_rounds=6,
                    induction=InductionConfig(max_iterations=1))
    tree, trace = run_cvar(ds, spec)
    vals = trace.values("cvar")
    assert vals[-1] < vals[0]
    risks = subgroup_risks(ds, tree)
    assert risks["bad"] < -math.log(lo) - 1e-6


def test_pushup_worked_example():
    eta = np.array([0.8, 0.6, 0.4, 0.3, 0.25])
    ds = make_dataset({"x": np.zeros(5)}, {"x": "numeric"},
                      np.array([1, 1, 1, -1, -1]), ["g"] * 5,
                      np.full(5, 0.5), 1.0)
    v = full_view(ds)
    out, params = pushup_posterior(eta, v, 0.8, 0.1)
    # floor 0.3: 0.8 sits above the band, 0.25 below, the rest map to 0.6
    assert params.eta_floor == 0.3
    assert np.array_equal(out, [0.8, 0.6, 0.6, 0.6, 0.25])
    assert set(params.x_p.tolist()) == {0, 1, 2, 3}


def test_pushup_identity_when_floor_is_high():
    eta = np.array([0.9, 0.8, 0.7])
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"},
                      np.array([1, 1, -1]), ["g"] * 3, np.full(3, 0.5), 1.0)
    out, params = pushup_posterior(eta, full_view(ds), 0.5, 0.2)
    assert params.eta_floor == 0.8
    assert np.array_equal(out, eta)


def test_pushup_p_zero_is_identity():
    eta = np.array([0.1, 0.2, 0.3])
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"},
                      np.array([1, 1, -1]), ["g"] * 3, np.full(3, 0.5), 1.0)
    out, params = pushup_posterior(eta, full_view(ds), 0.0, 0.2)
    assert np.array_equal(out, eta)
    assert params.x_p.size == 0


def test_pushup_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        eta = rng.uniform(0.0, 1.0, n)
        ds = make_dataset({"x": np.zeros(n)}, {"x": "numeric"},
                          np.where(rng.random(n) < 0.5, 1, -1), ["g"] * n,
                          np.full(n, 0.5), 1.0,
                          weights=rng.uniform(0.5, 2.0, n))
        v = full_view(ds)
        p = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.0, 0.4))
        once, _ = pushup_posterior(eta, v, p, delta)
        twice, _ = pushup_posterior(once, v, p, delta)
        assert np.array_equal(once, twice)


def test_pushup_only_raises_and_caps():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        eta = rng.uniform(0.0, 1.0, n)
        ds = make_dataset({"x": np.zeros(n)}, {"x": "numeric"},
                          np.where(rng.random(n) < 0.5, 1, -1), ["g"] * n,
                          np.full(n, 0.5), 1.0)
        v = full_view(ds)
        delta = float(rng.uniform(0.0, 0.6))
        out, _ = pushup_posterior(eta, v, float(rng.uniform(0.1, 1.0)), delta)
        assert np.all(out >= eta - 1e-15)
        assert np.all(out <= np.maximum(min(0.5 + delta, 1.0), eta) + 1e-15)


def test_pushup_untouched_outside_view():
    eta = np.array([0.4, 0.4, 0.4, 0.4])
    ds = make_dataset({"x": np.zeros(4)}, {"x": "numeric"},
                      np.array([1, 1, -1, -1]), ["a", "a", "b", "b"],
                      np.full(4, 0.5), 1.0)
    v = condition_on_group(ds, "a")
    out, _ = pushup_posterior(eta, v, 1.0, 0.1)
    assert np.array_equal(out, [0.6, 0.6, 0.4, 0.4])


def test_pushup_validation():
    ds = make_dataset({"x": np.zeros(2)}, {"x": "numeric"},
                      np.array([1, -1]), ["g", "g"], np.full(2, 0.5), 1.0)
    v = full_view(ds)
    with pytest.raises(DomainError):
        pushup_posterior(np.array([0.5, 1.5]), v, 0.5, 0.1)
    with pytest.raises(DomainError):
        pushup_posterior(np.array([0.5, 0.5]), v, 1.5, 0.1)
    with pytest.raises(DomainError):
        pushup_posterior(np.array([0.5, 0.5]), v, 0.5, -0.1)
    with pytest.raises(DomainError):
        pushup_posterior(np.array([0.5]), v, 0.5, 0.1)


def test_pushup_rejects_nan():
    ds = make_dataset({"x": np.zeros(2)}, {"x": "numeric"},
                      np.array([1, -1]), ["g", "g"], np.full(2, 0.5), 1.0)
    v = full_view(ds)
    with pytest.raises(DomainError, match="target posterior"):
        pushup_posterior(np.array([0.5, math.nan]), v, 0.5, 0.1)
    with pytest.raises(DomainError, match="delta"):
        pushup_posterior(np.array([0.5, 0.5]), v, 0.5, math.nan)


def test_target_checks_name_the_length_and_take_one_value():
    # a wrong length raised numpy's broadcast ValueError, and pushup_posterior
    # raised IndexError on one value
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"}, np.array([1, -1, 1]),
                      ["a", "a", "b"], np.array([0.3, 0.5, 0.7]), 1.0)
    v = full_view(ds)
    tree = single_leaf_tree()
    with pytest.raises(DomainError, match=r"target posterior has shape \(4,\) for 3 rows"):
        subgroup_risks(ds, tree, np.full(4, 0.5))
    with pytest.raises(DomainError, match=r"target posterior has shape \(2,\) for 3 rows"):
        pushup_posterior(np.full(2, 0.2), v, 0.5, 0.1)
    with pytest.raises(DomainError, match=r"target posterior must lie in \[0, 1\]"):
        pushup_posterior(1.5, v, 0.5, 0.1)
    assert subgroup_risks(ds, tree, 0.2) == subgroup_risks(ds, tree, np.full(3, 0.2))
    out, params = pushup_posterior(0.2, v, 0.5, 0.1)
    full_out, full_params = pushup_posterior(np.full(3, 0.2), v, 0.5, 0.1)
    assert out.tolist() == full_out.tolist() == [0.6] * 3
    assert params.eta_floor == full_params.eta_floor and params.x_p.tolist() == full_params.x_p.tolist()


def advantage_fixture():
    # group A: 9 of 10 positives above 1/2; group B: 6 of 10
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    scores = np.array([hi] * 9 + [lo] + [hi] * 6 + [lo] * 4)
    labels = np.ones(20, dtype=int)
    groups = ["A"] * 10 + ["B"] * 10
    return make_dataset({"x": np.zeros(20)}, {"x": "numeric"}, labels, groups,
                        scores, 1.0)


def test_advantage_rate_counts_positive_predictions():
    ds = advantage_fixture()
    t = single_leaf_tree()
    assert advantage_rate(ds, t, "A") == pytest.approx(0.9, abs=1e-15)
    assert advantage_rate(ds, t, "B") == pytest.approx(0.6, abs=1e-15)


def test_advantage_rate_half_counts_negative():
    ds = make_dataset({"x": np.zeros(4)}, {"x": "numeric"},
                      np.array([1, 1, 1, 1]), ["g"] * 4, np.full(4, 0.5), 1.0)
    assert advantage_rate(ds, single_leaf_tree(), "g") == 0.0


def test_advantage_rate_invariant_to_monotone_rescaling():
    ds = advantage_fixture()
    for alpha in (0.2, 1.0, 3.5):
        t = single_leaf_tree(alpha=alpha)
        assert advantage_rate(ds, t, "A") == pytest.approx(0.9, abs=1e-15)


def test_advantage_rate_needs_positives():
    ds = make_dataset({"x": np.zeros(2)}, {"x": "numeric"},
                      np.array([-1, -1]), ["g", "g"], np.full(2, 0.6), 1.0)
    with pytest.raises(EmptyMeasureError):
        advantage_rate(ds, single_leaf_tree(), "g")


def test_eoo_rates_skip_groups_without_weighted_positives():
    # A and B have weighted positive rows; C has no positive row, and the
    # positive rows of D all weigh 0
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    ds = make_dataset(
        {"x": np.zeros(11)}, {"x": "numeric"},
        np.array([1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1]),
        ["A"] * 3 + ["B"] * 3 + ["C"] * 2 + ["D"] * 3,
        np.array([hi, lo, hi, hi, lo, hi, hi, lo, hi, hi, lo]), 1.0,
        weights=np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0]),
    )
    t = single_leaf_tree()
    rates = fairness._rates(ds, t)
    assert rates == {"A": advantage_rate(ds, t, "A"), "B": advantage_rate(ds, t, "B")}
    assert rates["A"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rates["B"] == pytest.approx(0.5, abs=1e-15)
    for g in ("C", "D"):
        with pytest.raises(EmptyMeasureError):
            advantage_rate(ds, t, g)
    with pytest.raises(EmptyMeasureError):
        metric_eoo_gap(ds, t)
    # run_eoo skips C and D as _rates does; the gap 1/6 is within eps
    spec = EooSpec(eps=0.5, K=2.0, induction=InductionConfig(max_iterations=4))
    tree, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    assert tree.n_leaves == 4
    assert {r.group for r in trace.rows if r.metric == "advantage_rate"} == {"A", "B"}
    assert trace.values("eoo_gap") == [pytest.approx(1.0 / 6.0, abs=1e-15)]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(1, 5),
    n=st.integers(1, 120),
    zero_group=st.booleans(),
)
def test_group_means_equals_view_loop(seed, n_groups, n, zero_group):
    rng = np.random.default_rng(seed)
    groups = rng.choice(np.array([f"g{k}" for k in range(n_groups)], dtype=object), n)
    weights = rng.uniform(0.0, 3.0, n)
    weights[rng.random(n) < 0.2] = 0.0
    if zero_group:
        weights[groups == min(groups.tolist())] = 0.0
    assume(weights.sum() > 0.0)
    ds = make_dataset({"x": np.zeros(n)}, {"x": "numeric"}, np.ones(n, dtype=int),
                      groups, np.full(n, 0.5), 1.0, weights=weights)
    values = np.round(rng.normal(size=n), int(rng.integers(0, 6)))
    try:
        expect = group_means_reference(ds, values)
    except EmptyMeasureError:
        with pytest.raises(EmptyMeasureError):
            group_means(values, ds.weights, ds.group_rows)
        return
    got = group_means(values, ds.weights, ds.group_rows)
    assert list(got) == list(expect)
    assert got == expect


def test_run_eoo_requires_estimate_and_two_groups():
    ds = advantage_fixture()
    spec = EooSpec(eps=0.1, K=2.0, induction=InductionConfig())
    with pytest.raises(TypeError, match="eta_estimate"):
        run_eoo(ds, spec)
    with pytest.raises(DomainError):
        run_eoo(ds, spec, eta_estimate=None)
    with pytest.raises(DomainError):
        EooSpec(eps=0.1, K=1.0, induction=InductionConfig())
    with pytest.raises(DomainError):
        EooSpec(eps=0.0, K=2.0, induction=InductionConfig())


def test_run_eoo_no_growth_when_gap_within_eps():
    ds = advantage_fixture()
    spec = EooSpec(eps=0.5, K=2.0, induction=InductionConfig(max_iterations=8))
    tree, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    assert tree.n_leaves == 2
    assert all(l.alpha == 1.0 for l in tree.leaves())
    assert trace.values("eoo_gap") == [pytest.approx(0.3, abs=1e-12)]


def eoo_planted_dataset(n_groups=2):
    """Cells of 50 rows; positives per cell 45/30/20/10; the advantaged
    group scores high on cells 0-2, the others only on cell 0."""
    cells = np.tile(np.repeat(np.arange(4.0), 50), n_groups)
    n = 200 * n_groups
    groups = np.repeat([f"g{i}" for i in range(n_groups)], 200).astype(object)
    pos_per_cell = {0: 45, 1: 30, 2: 20, 3: 10}
    labels = np.empty(n, dtype=int)
    for start in range(0, n, 50):
        c = int(cells[start])
        k = pos_per_cell[c]
        labels[start:start + k] = 1
        labels[start + k:start + 50] = -1
    hi, lo = float(expit(1.0)), float(expit(-1.0))
    adv = groups == "g0"
    high_score = np.where(adv, cells <= 2, cells == 0)
    scores = np.where(high_score, hi, lo)
    return make_dataset({"cell": cells}, {"cell": "numeric"}, labels, groups,
                        scores, 1.0)


def test_run_eoo_closes_planted_gap():
    ds = eoo_planted_dataset()
    spec = EooSpec(eps=0.2, K=5.0,
                   induction=InductionConfig(max_iterations=16,
                                             min_child_count=5,
                                             min_child_fraction=0.01))
    tree, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    gaps = trace.values("eoo_gap")
    assert gaps[0] == pytest.approx(50.0 / 105.0, abs=1e-12)
    assert gaps[-1] <= 0.2 + 1e-12
    # the advantaged group's sub-tree was never grown or relabeled
    assert advantage_rate(ds, tree, "g0") == pytest.approx(95.0 / 105.0,
                                                           abs=1e-12)


def sp_constant_fixture():
    n = 200
    scores = np.array([0.6] * 100 + [0.3] * 100)
    labels = np.array([1, -1] * 100)
    groups = ["a"] * 100 + ["b"] * 100
    return make_dataset({"x": np.zeros(n)}, {"x": "numeric"}, labels, groups,
                        scores, 3.0)


def test_run_sp_up_closes_gap_without_touching_reference():
    ds = sp_constant_fixture()
    spec = SpSpec(eps=0.1, direction="up", outer_rounds=6,
                  induction=InductionConfig(max_iterations=2))
    tree, trace = run_sp(ds, spec)
    gaps = trace.values("sp_gap")
    assert gaps[0] == pytest.approx(0.3, abs=1e-12)
    assert gaps[-1] <= 0.1 + 1e-12
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    # reference group a sits on leaf 0 of the sorted-modality stump
    assert tree.alpha_of(0) == 1.0
    assert tree.alpha_of(1) != 1.0


def test_run_sp_down_moves_the_high_group():
    # a single relabel can only pull the 0.6 group part of the way down,
    # so the reachable gap here is wider than in the up direction
    ds = sp_constant_fixture()
    spec = SpSpec(eps=0.2, direction="down", outer_rounds=6,
                  induction=InductionConfig(max_iterations=2))
    tree, trace = run_sp(ds, spec)
    assert trace.values("sp_gap")[-1] <= 0.2 + 1e-12
    # now b is the reference and a gets dampened
    assert tree.alpha_of(1) == 1.0
    assert tree.alpha_of(0) != 1.0


def test_run_sp_stops_immediately_when_within_eps():
    ds = sp_constant_fixture()
    spec = SpSpec(eps=0.5, direction="up", outer_rounds=6,
                  induction=InductionConfig(max_iterations=2))
    tree, trace = run_sp(ds, spec)
    assert tree.n_leaves == 2
    assert all(l.alpha == 1.0 for l in tree.leaves())
    assert len(trace.values("sp_gap")) == 1


# ---------------------------------------------------------------------------
# loop exits: the exact rows each way out of a driver writes
# ---------------------------------------------------------------------------


def row_keys(trace):
    return [(r.iteration, r.metric, r.group, r.event) for r in trace.rows]


INITS = [(0, "subtree_init", "a", "init"), (0, "subtree_init", "b", "init")]


def test_run_cvar_exit_with_no_rounds():
    _, trace = run_cvar(three_row_dataset(), CvarSpec(beta=0.5, outer_rounds=0))
    assert row_keys(trace) == INITS + [
        (0, "cvar", "", "final"), (0, "group_risk", "a", ""), (0, "group_risk", "b", ""),
    ]


def test_run_cvar_exit_when_threshold_met_in_round_0():
    _, trace = run_cvar(three_row_dataset(), CvarSpec(beta=0.5, risk_threshold=10.0, outer_rounds=4))
    assert row_keys(trace) == INITS + [
        (0, "cvar", "", "round 0 tail=a"), (0, "group_risk", "a", ""), (0, "group_risk", "b", ""),
    ]


def test_run_cvar_exit_on_no_progress():
    # with no split budget a round only relabels; the second relabel changes nothing
    ds = make_dataset({"x": np.zeros(6)}, {"x": "numeric"}, np.array([1, 1, -1, 1, -1, 1]),
                      ["g"] * 6, np.array([0.3, 0.6, 0.7, 0.8, 0.4, 0.55]), 2.0)
    spec = CvarSpec(beta=0.5, outer_rounds=5, induction=InductionConfig(max_iterations=0))
    _, trace = run_cvar(ds, spec)
    assert row_keys(trace) == [
        (0, "subtree_init", "g", "init"),
        (0, "cvar", "", "round 0 tail=g"), (0, "group_risk", "g", ""),
        (0, "tree_entropy", "", ""), (0, "risk", "", ""),
        (1, "cvar", "", "round 1 tail=g"), (1, "group_risk", "g", ""),
        (1, "tree_entropy", "", ""), (1, "risk", "", ""),
        (2, "cvar", "", "round 2 tail=g"), (2, "group_risk", "g", ""),
        (2, "cvar", "", "no-progress"),
    ]


def test_run_sp_exit_with_no_rounds():
    _, trace = run_sp(sp_constant_fixture(), SpSpec(eps=0.1, outer_rounds=0))
    assert row_keys(trace) == [
        (0, "sp_gap", "", "final"), (0, "group_mean", "a", ""), (0, "group_mean", "b", ""),
    ]


def test_run_sp_exit_when_gap_closed_in_round_0():
    _, trace = run_sp(sp_constant_fixture(), SpSpec(eps=0.5, outer_rounds=6))
    assert row_keys(trace) == [
        (0, "sp_gap", "", "round 0"), (0, "group_mean", "a", ""), (0, "group_mean", "b", ""),
    ]


def test_run_eoo_exit_with_no_steps():
    ds = advantage_fixture()
    spec = EooSpec(eps=0.1, induction=InductionConfig(max_iterations=0))
    _, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    assert row_keys(trace) == [
        (0, "eoo_gap", "", "final"), (0, "advantage_rate", "A", ""), (0, "advantage_rate", "B", ""),
    ]


def test_run_eoo_exit_when_gap_closed_at_step_0():
    ds = advantage_fixture()
    spec = EooSpec(eps=0.5, induction=InductionConfig(max_iterations=8))
    _, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    assert row_keys(trace) == [
        (0, "eoo_gap", "", "step 0 reference=A"),
        (0, "advantage_rate", "A", ""), (0, "advantage_rate", "B", ""),
    ]


def test_run_eoo_exit_after_a_risk_stop():
    # every row of b is a positive at the low clip end; the push-up lifts all
    # of b's targets to 1, so relabeling b's leaf meets the risk stop at once
    scores = np.array([0.8] * 8 + [0.3] * 2 + [0.01] * 10)
    ds = make_dataset({"x": np.zeros(20)}, {"x": "numeric"}, np.ones(20, dtype=int),
                      ["a"] * 10 + ["b"] * 10, scores, 2.0)
    eta = np.array([0.7] * 10 + [0.3] * 10)
    spec = EooSpec(eps=0.3, K=2.0, induction=InductionConfig(max_iterations=5))
    _, trace = run_eoo(ds, spec, eta_estimate=eta)
    assert row_keys(trace) == [
        (0, "eoo_gap", "", "step 0 reference=a"),
        (0, "advantage_rate", "a", ""), (0, "advantage_rate", "b", ""),
        (0, "tree_entropy", "", ""), (0, "risk", "", ""),
        (1, "eoo_gap", "", "final"), (1, "advantage_rate", "a", ""), (1, "advantage_rate", "b", ""),
    ]


@pytest.mark.parametrize("k", [1, 2])
def test_run_eoo_wraps_once_per_measurement(monkeypatch, k):
    # every one of the k steps splits, so the run measures k + 1 trees
    calls = []
    real = fairness.wrapped_scores
    monkeypatch.setattr(fairness, "wrapped_scores", lambda *args: calls.append(1) or real(*args))
    ds = eoo_planted_dataset(3)
    spec = EooSpec(eps=0.001, K=2.0, induction=InductionConfig(
        max_iterations=k, min_child_count=5, min_child_fraction=0.01))
    _, trace = run_eoo(ds, spec, eta_estimate=label_plugin(ds.labels))
    assert sum(r.event.startswith("split") for r in trace.rows) == k
    assert [r.event for r in trace.rows if r.metric == "eoo_gap"][-1] == "final"
    assert len(calls) == k + 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_specs_reject_non_finite_settings(bad):
    with pytest.raises(DomainError, match="eps must be positive and finite"):
        EooSpec(eps=bad)
    with pytest.raises(DomainError, match="eps must be positive and finite"):
        SpSpec(eps=bad)
    with pytest.raises(DomainError, match="K must be finite and exceed 1"):
        EooSpec(eps=0.1, K=bad)
    with pytest.raises(DomainError, match="risk_threshold must be finite"):
        CvarSpec(beta=0.5, risk_threshold=bad)
    assert EooSpec(eps=1e300, K=1e300).K == 1e300
    assert CvarSpec(beta=0.5, risk_threshold=-1.0).risk_threshold == -1.0


def test_run_sp_validation():
    with pytest.raises(DomainError):
        SpSpec(eps=0.1, direction="sideways", outer_rounds=1,
               induction=InductionConfig())
    ds = make_dataset({"x": np.zeros(2)}, {"x": "numeric"},
                      np.array([1, -1]), ["g", "g"], np.full(2, 0.5), 1.0)
    with pytest.raises(EmptyMeasureError):
        run_sp(ds, SpSpec(eps=0.1, direction="up", outer_rounds=1,
                          induction=InductionConfig()))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), names=st.sampled_from([("p", "q"), ("g1", "g0"), ("g0", "p")]))
def test_regrouping_by_replace_equals_a_new_dataset(seed, names):
    """dataclasses.replace(ds, groups=g) routes, indexes and trains on g exactly
    as make_dataset(..., g, ...) does: the group stump tests g, not the old groups."""
    rng = np.random.default_rng(seed)
    ds, eta = random_dataset(rng, n_max=200)
    g = np.array(names, dtype=object)[(rng.random(ds.n) < rng.uniform(0.2, 0.8)).astype(int)]
    assume(all(np.any(ds.labels[g == s] == 1) for s in names))
    replaced = dataclasses.replace(ds, groups=g)
    made = make_dataset(ds.features, ds.feature_kinds(), ds.labels, g, ds.scores, ds.clip_B,
                        weights=ds.weights)
    assert decoded(replaced.columns[ds.group_column]) == decoded(made.columns[ds.group_column]) == g.tolist()
    assert list(replaced.group_rows) == list(made.group_rows)
    for s, idx in made.group_rows.items():
        assert np.array_equal(replaced.group_rows[s], idx)

    cfg = InductionConfig(max_iterations=4, min_child_count=5)
    runs = (
        lambda d: run_cvar(d, CvarSpec(beta=0.5, outer_rounds=2, induction=cfg), eta_t=eta),
        lambda d: run_sp(d, SpSpec(eps=0.01, outer_rounds=2, induction=cfg)),
        lambda d: run_eoo(d, EooSpec(eps=0.01, K=2.0, induction=cfg), eta_estimate=eta),
    )
    for run in runs:
        tree_r, trace_r = run(replaced)
        tree_m, trace_m = run(made)
        assert tree_r.root == tree_m.root
        assert repr(trace_r.rows) == repr(trace_m.rows)


def test_a_tree_that_a_model_file_cannot_hold_cannot_be_grown():
    # run_cvar trained on integer groups, and load_model refused the file save_model wrote;
    # integer groups are now refused when the dataset is built
    n = 40
    labels = np.resize([1, -1], n)
    holds = "^feature 'group' is tested as categorical but row 0 holds 0, not a string$"
    with pytest.raises(SchemaError, match=holds):
        make_dataset({}, {}, labels, np.resize([0, 1], n), 0.4, 2.0)
    # an integer categorical feature is refused when the dataset is built
    codes = np.resize([0, 0, 1, 1], n)
    with pytest.raises(SchemaError, match="^feature 'c' is tested as categorical but its column is numeric$"):
        make_dataset({"c": codes}, {"c": "categorical"}, np.where(codes == 0, 1, -1), "a",
                     np.resize([0.3, 0.7], n), 2.0)


def _driver_runs(ds, eta, cfg, direction="up"):
    """Each driver as a function of its start tree."""
    return {
        "cvar": lambda t0: run_cvar(ds, CvarSpec(beta=0.5, outer_rounds=3, induction=cfg), t0, eta_t=eta),
        "eoo": lambda t0: run_eoo(ds, EooSpec(eps=0.001, K=2.0, induction=cfg), t0, eta_estimate=eta),
        "sp": lambda t0: run_sp(ds, SpSpec(eps=0.001, direction=direction, outer_rounds=3, induction=cfg), t0),
    }


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), driver=st.sampled_from(["cvar", "eoo", "sp"]),
       start=st.sampled_from(["stump", "leaf", "mixed"]), direction=st.sampled_from(["up", "down"]))
def test_carried_leaf_ids_equal_a_full_route_at_every_measurement(seed, driver, start, direction):
    rng = np.random.default_rng(seed)
    ds, eta = random_dataset(rng, n_max=250)
    # a mixed start's leaves hold rows of both groups, so growing one group's
    # view splits leaves that also hold rows outside the view
    tree0 = {
        "stump": None,
        "leaf": single_leaf_tree(),
        "mixed": stump(SplitTest("x0", "numeric", float(np.round(rng.normal(0.0, 0.5), 2))), 1.0, 1.0),
    }[start]
    cfg = InductionConfig(max_iterations=int(rng.integers(1, 6)), min_child_count=5)
    real = fairness.wrapped_scores
    measured = []

    def checking(tree, columns, scores, leaf_ids=None):
        # checked before the lookup, so a stale id fails here, not as a DomainError
        assert leaf_ids is not None
        np.testing.assert_array_equal(leaf_ids, core.route_rows(tree, ds.columns, ds.n))
        measured.append(tree.n_leaves)
        return real(tree, columns, scores, leaf_ids)

    with mock.patch.object(fairness, "wrapped_scores", checking):
        try:
            _driver_runs(ds, eta, cfg, direction)[driver](tree0)
        except (DomainError, EmptyMeasureError):
            assert driver == "eoo" and len(measured) == 1  # no feasible quota; raised at step 0
    assert measured


def test_each_driver_routes_every_row_once(monkeypatch):
    ds = eoo_planted_dataset(3)
    cfg = InductionConfig(max_iterations=4, min_child_count=5, min_child_fraction=0.01)
    real = core.route_rows
    routed = []
    monkeypatch.setattr(core, "route_rows", lambda tree, columns, n: routed.append(n) or real(tree, columns, n))
    for driver, run in _driver_runs(ds, label_plugin(ds.labels), cfg).items():
        routed.clear()
        tree, _ = run(None)
        assert tree.n_leaves > 3, driver  # the run grew the stump, so its rows were re-routed
        # one full route, first; topdown then keeps the driver's ids current and routes nothing
        assert routed == [ds.n], (driver, routed)
