"""Edges, leaf labels, split search, and top-down induction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alphatree.boosting as boosting
from alphatree import (
    A_MAX,
    AlphaTree,
    DegenerateLeafError,
    DomainError,
    InductionConfig,
    Leaf,
    LeafStats,
    Node,
    SchemaError,
    SplitTest,
    UndefinedLeafError,
    audacious_leaf_bound,
    balanced_weights,
    best_split,
    decrease_certificate,
    edge,
    full_view,
    init_stump,
    leaf_alpha_audacious,
    leaf_alpha_conservative,
    leaf_entropy,
    leaf_stats,
    make_dataset,
    make_view,
    proxy_group_tree,
    relabel_leaves,
    route_rows,
    single_leaf_tree,
    stump,
    topdown,
    tree_entropy,
    wha_check,
    wrapped_scores,
)
from alphatree.core import EDGE_EPS, apply_alpha, dot, expit
from alphatree.data import log_loss

from helpers import (
    best_split_reference,
    conservative_label_objective,
    random_dataset,
    random_tree,
    saturated_dataset,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
# largest |alpha| * B of a conservative label: log((2 - EDGE_EPS) / EDGE_EPS)
CONSERVATIVE_CAP = math.log((2.0 - EDGE_EPS) / EDGE_EPS)


def two_row_dataset():
    # row 0: confidence at the B=1 upper clip (nlogit exactly 1), target 1
    # row 1: coin-flip score (nlogit exactly 0), target 0
    scores = np.array([float(expit(1.0)), 0.5])
    ds = make_dataset({"x": np.array([0.0, 1.0])}, {"x": "numeric"},
                      np.array([1, -1]), ["g", "g"], scores, 1.0)
    eta = np.array([1.0, 0.0])
    return ds, eta


def test_edge_two_row_oracle():
    ds, eta = two_row_dataset()
    v = full_view(ds)
    assert edge(v, eta, ds.scores, 1.0) == 0.5


def test_edge_parts_two_row_oracle():
    ds, eta = two_row_dataset()
    v = full_view(ds)
    st = leaf_stats(v, single_leaf_tree(), eta, ds.scores, 1.0)[0]
    assert st.edge_pos == 0.5
    assert st.edge_neg == 0.0


def test_edge_part_identities():
    # e+ - e- recovers the edge; e+ + e- is the mean confidence magnitude
    rng = np.random.default_rng(0)
    for _ in range(30):
        ds, eta = random_dataset(rng, n_min=50, n_max=200)
        v = full_view(ds)
        e = edge(v, eta, ds.scores, ds.clip_B)
        st = leaf_stats(v, single_leaf_tree(), eta, ds.scores, ds.clip_B)[0]
        ep, en = st.edge_pos, st.edge_neg
        assert ep - en == pytest.approx(e, abs=1e-12)
        nl = np.clip(np.log(ds.scores / (1 - ds.scores)) / ds.clip_B, -1, 1)
        assert ep + en == pytest.approx(float(np.dot(v.weights, np.abs(nl))), abs=1e-12)
        assert 0.0 <= ep + en <= 1.0 + 1e-12


def test_edge_respects_view_weights():
    ds, eta = two_row_dataset()
    v = make_view(ds, np.array([0, 1]), raw_weights=np.array([3.0, 1.0]))
    assert edge(v, eta, ds.scores, 1.0) == 0.75


def test_edge_rejects_a_nan_target():
    # a NaN edge would be clamped to -1.0 with no error
    ds, _ = two_row_dataset()
    with pytest.raises(DomainError, match="target posterior"):
        edge(full_view(ds), np.array([1.0, math.nan]), ds.scores, 1.0)


def test_a_target_of_the_wrong_length_is_a_domain_error():
    # numpy's broadcast error named neither the target nor the row count
    ds, _ = two_row_dataset()
    for eta in (np.full(3, 0.5), np.array([0.5]), np.full((2, 1), 0.5)):
        with pytest.raises(DomainError, match=r"target posterior has shape \(\d+(, 1)?,?\) for 2 rows"):
            edge(full_view(ds), eta, ds.scores, 1.0)
        with pytest.raises(DomainError, match="target posterior has shape"):
            topdown(full_view(ds), eta, ds.scores, 1.0, single_leaf_tree(), InductionConfig())
    # one value stands for every row
    assert edge(full_view(ds), 0.25, ds.scores, 1.0) == edge(full_view(ds), np.full(2, 0.25), ds.scores, 1.0)


def test_conservative_alpha_oracles():
    assert leaf_alpha_conservative(0.5, 1.0) == pytest.approx(LOG3, abs=1e-15)
    assert leaf_alpha_conservative(0.5, 3.0) == pytest.approx(
        0.3662040962227033, abs=1e-15)
    assert leaf_alpha_conservative(0.0, 2.0) == 0.0


def test_conservative_alpha_clamps_and_flips():
    # |edge| is clamped to 1 - EDGE_EPS: alpha * B tops out near 21.42
    assert leaf_alpha_conservative(1.0, 1.0) == pytest.approx(CONSERVATIVE_CAP, rel=1e-6)
    assert leaf_alpha_conservative(-1.0, 1.0) == pytest.approx(-CONSERVATIVE_CAP, rel=1e-6)
    assert leaf_alpha_conservative(1.0 - 1e-12, 1.0) == leaf_alpha_conservative(1.0, 1.0)
    assert leaf_alpha_conservative(1.0, 0.1) == A_MAX   # the A_MAX clamp stays
    for e in (0.1, 0.35, 0.9):
        assert leaf_alpha_conservative(-e, 2.0) == pytest.approx(
            -leaf_alpha_conservative(e, 2.0), abs=1e-12)


def test_conservative_alpha_minimizes_objective():
    rng = np.random.default_rng(1)
    for _ in range(50):
        e = float(rng.uniform(-0.95, 0.95))
        B = float(rng.uniform(0.5, 3.0))
        a_star = leaf_alpha_conservative(e, B)
        val = conservative_label_objective(a_star, e, B)
        grid = np.linspace(-6.0, 6.0, 2401)
        best = min(conservative_label_objective(float(a), e, B) for a in grid)
        assert val <= best + 1e-6


def test_audacious_alpha_basics():
    assert leaf_alpha_audacious(0.3, 0.3, 2.0) == 0.0
    # a vanished part is floored at EDGE_EPS
    assert leaf_alpha_audacious(0.5, 0.0, 1.0) == pytest.approx(math.log(0.5 / EDGE_EPS), abs=1e-12)
    assert leaf_alpha_audacious(0.0, 0.5, 1.0) == pytest.approx(-math.log(0.5 / EDGE_EPS), abs=1e-12)
    assert leaf_alpha_audacious(0.5, 0.0, 0.01) == A_MAX
    # e+/e- = 3 at B=1 gives exactly log 3
    assert leaf_alpha_audacious(0.6, 0.2, 1.0) == pytest.approx(LOG3, abs=1e-12)
    with pytest.raises(UndefinedLeafError):
        leaf_alpha_audacious(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        leaf_alpha_audacious(-0.1, 0.2, 1.0)


def test_leaf_entropy_oracle():
    assert leaf_entropy(0.5) == pytest.approx(0.5623351446188083, abs=1e-15)
    assert leaf_entropy(0.0) == pytest.approx(LOG2, abs=1e-15)
    assert leaf_entropy(1.0) == 0.0
    assert leaf_entropy(-1.0) == 0.0
    assert leaf_entropy(-0.5) == leaf_entropy(0.5)


def test_audacious_bound_oracles():
    # all signal aligned, half the mass confident
    assert audacious_leaf_bound(0.5, 0.0) == pytest.approx(
        0.34657359027997264, abs=1e-15)
    assert audacious_leaf_bound(0.0, 0.0) == pytest.approx(LOG2, abs=1e-15)
    with pytest.raises(DomainError):
        audacious_leaf_bound(0.8, 0.4)


def test_audacious_bound_never_exceeds_leaf_entropy():
    rng = np.random.default_rng(2)
    for _ in range(500):
        s = float(rng.uniform(0.0, 1.0))
        ep = s * float(rng.uniform(0.0, 1.0))
        en = s - ep
        assert audacious_leaf_bound(ep, en) <= leaf_entropy(ep - en) + 1e-12


def test_leaf_stats_partition():
    rng = np.random.default_rng(3)
    ds, eta = random_dataset(rng, n_min=150, n_max=150)
    t = stump(SplitTest("x0", "numeric", 0.0, None), 1.0, 1.0)
    v = full_view(ds)
    stats = leaf_stats(v, t, eta, ds.scores, ds.clip_B)
    assert sum(st.mass for st in stats.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(st.count for st in stats.values()) == ds.n
    for st in stats.values():
        assert st.entropy == pytest.approx(leaf_entropy(st.edge), abs=1e-15)
        assert st.edge == pytest.approx(st.edge_pos - st.edge_neg, abs=1e-12)
    # stats restricted to one leaf match the conditioned view's edge
    left = ds.columns["x0"] <= 0.0
    vl = make_view(ds, np.flatnonzero(left), raw_weights=ds.weights[left])
    assert stats[0].edge == pytest.approx(
        edge(vl, eta, ds.scores, ds.clip_B), abs=1e-12)


def test_tree_entropy_is_mass_weighted_leaf_entropy():
    ds, eta = two_row_dataset()
    v = full_view(ds)
    t = stump(SplitTest("x", "numeric", 0.5, None), 1.0, 1.0)
    # leaves isolate the rows: edges are 1 and 0, entropies 0 and log 2
    assert tree_entropy(t, v, eta, ds.scores, 1.0) == pytest.approx(
        0.5 * LOG2, abs=1e-15)


def test_relabel_leaves_conservative_and_frozen():
    ds, eta = two_row_dataset()
    v = full_view(ds)
    t = stump(SplitTest("x", "numeric", 0.5, None), 7.0, 7.0)
    stats = leaf_stats(v, t, eta, ds.scores, 1.0)
    out = relabel_leaves(t, stats, "conservative", 1.0)
    assert out.alpha_of(0) == pytest.approx(CONSERVATIVE_CAP, rel=1e-6)  # edge exactly 1
    assert out.alpha_of(1) == 0.0            # edge exactly 0
    # a leaf absent from the stats keeps its alpha
    out2 = relabel_leaves(t, {0: stats[0]}, "conservative", 1.0)
    assert out2.alpha_of(1) == 7.0


def test_relabel_leaves_audacious_keeps_the_alpha_of_a_leaf_with_no_signal():
    t = stump(SplitTest("x", "numeric", 0.5, None), 3.0, 7.0)
    quiet = LeafStats(0, edge=0.0, edge_pos=0.0, edge_neg=EDGE_EPS / 2, mass=0.25, entropy=LOG2, count=4)
    loud = LeafStats(1, edge=0.4, edge_pos=0.6, edge_neg=0.2, mass=0.75, entropy=0.5, count=12)
    out = relabel_leaves(t, {0: quiet, 1: loud}, "audacious", 1.0)
    assert out.alpha_of(0) == 3.0
    assert out.alpha_of(1) == pytest.approx(LOG3, abs=1e-12)
    leaf0 = next(leaf for leaf in out.leaves() if leaf.leaf_id == 0)
    assert (leaf0.edge, leaf0.mass) == (0.0, 0.25)
    # every row of an all-1/2 leaf wraps to 1/2: its risk is log 2, the no-signal bound
    ds = make_dataset({"x": np.zeros(4)}, {"x": "numeric"}, np.array([1, -1, 1, 1]),
                      ["g"] * 4, np.full(4, 0.5), 1.0)
    eta = np.array([1.0, 0.0, 1.0, 1.0])
    stats = leaf_stats(full_view(ds), single_leaf_tree(2.0), eta, ds.scores, 1.0)
    relabeled = relabel_leaves(single_leaf_tree(2.0), stats, "audacious", 1.0)
    assert relabeled.alpha_of(0) == 2.0
    assert np.all(wrapped_scores(relabeled, ds.columns, ds.scores) == 0.5)
    assert audacious_leaf_bound(stats[0].edge_pos, stats[0].edge_neg) == LOG2


def test_balanced_weights_mass_and_degeneracy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ds, eta = random_dataset(rng, n_min=40, n_max=120)
        v = full_view(ds)
        bw = balanced_weights(v, eta, ds.scores, ds.clip_B)
        assert float(bw.positive.sum() + bw.negative.sum()) == pytest.approx(
            1.0, abs=1e-12)
        assert np.all(bw.positive >= -1e-15) and np.all(bw.negative >= -1e-15)
    # fully aligned, fully confident rows have edge 1: no balanced form
    scores = np.array([float(expit(1.0))] * 3)
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"},
                      np.array([1, 1, 1]), ["g"] * 3, scores, 1.0)
    with pytest.raises(DegenerateLeafError):
        balanced_weights(full_view(ds), np.ones(3), ds.scores, 1.0)


def test_balanced_weights_kill_alignment_on_saturated_rows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ds, eta, sat = saturated_dataset(rng, n_min=20, n_max=100)
        v = full_view(ds)
        bw = balanced_weights(v, eta, ds.scores, ds.clip_B, nlogit_values=sat)
        nl = v.pick(sat)
        resid = float(np.dot(bw.positive - bw.negative, nl))
        assert resid == pytest.approx(0.0, abs=1e-12)


def test_wha_check_on_saturated_fixture():
    rng = np.random.default_rng(6)
    ds, eta, sat = saturated_dataset(rng, n_min=24, n_max=24)
    v = full_view(ds)
    h = np.where(rng.random(ds.n) < 0.5, 1.0, -1.0)
    h[0], h[1] = 1.0, -1.0   # force both children nonempty
    rep = wha_check(v, h, eta, ds.scores, ds.clip_B, nlogit_values=sat)
    assert rep.condition_ii_value == 0.0
    assert rep.gamma_witnessed >= 0.0
    assert rep.holds_at(rep.gamma_witnessed)
    assert not rep.holds_at(rep.gamma_witnessed + 1e-6)


def test_wha_check_accepts_split_objects():
    ds, eta = two_row_dataset()
    v = full_view(ds)
    test = SplitTest("x", "numeric", 0.5, None)
    rep_arr = wha_check(v, np.array([1.0, -1.0]), eta, ds.scores, 1.0)
    rep_test = wha_check(v, test, eta, ds.scores, 1.0)
    assert rep_arr == rep_test
    with pytest.raises(DomainError):
        wha_check(v, np.array([1.0, 0.0]), eta, ds.scores, 1.0)


def test_decrease_certificate_boundary():
    # pre - post must reach gamma^2 q (1-q) up to the 1e-9 slack
    assert decrease_certificate(0.5, 0.4, 0.5, 0.2)       # 0.1 >= 0.01
    assert decrease_certificate(0.5, 0.49, 0.5, 0.2)      # 0.01 >= 0.01
    assert not decrease_certificate(0.5, 0.4999, 0.5, 0.2)
    assert decrease_certificate(0.5, 0.49 + 5e-10, 0.5, 0.2)


def test_best_split_pure_alignment_fixture():
    n = 8
    scores = np.full(n, float(expit(1.0)))
    eta = np.array([1.0] * 4 + [0.0] * 4)
    ds = make_dataset({"x": np.array([0.0] * 4 + [1.0] * 4)}, {"x": "numeric"},
                      np.array([1] * 4 + [-1] * 4), ["g"] * n, scores, 1.0)
    v = full_view(ds)
    cfg = InductionConfig(min_child_count=1, min_child_fraction=0.01)
    cand = best_split(v, eta, ds.scores, 1.0, cfg)
    assert cand is not None
    assert cand.test == SplitTest("x", "numeric", threshold=0.5)
    assert cand.post_entropy == 0.0
    assert cand.parent_entropy == pytest.approx(LOG2, abs=1e-15)
    assert cand.mass_left == pytest.approx(0.5, abs=1e-15)


def test_best_split_tie_break_prefers_earliest_feature():
    # identical columns: the winner is the first feature in schema order
    n = 8
    col = np.array([0.0] * 4 + [1.0] * 4)
    scores = np.full(n, float(expit(1.0)))
    eta = np.array([1.0] * 4 + [0.0] * 4)
    cfg = InductionConfig(min_child_count=1, min_child_fraction=0.01)
    labels = np.array([1] * 4 + [-1] * 4)
    ds = make_dataset({"b": col, "a": col.copy()}, {"a": "numeric", "b": "numeric"},
                      labels, ["g"] * n, scores, 1.0)
    cand = best_split(full_view(ds), eta, ds.scores, 1.0, cfg)
    assert cand.test.feature == "b"
    ds2 = make_dataset({"a": col, "b": col.copy()}, {"a": "numeric", "b": "numeric"},
                       labels, ["g"] * n, scores, 1.0)
    cand2 = best_split(full_view(ds2), eta, ds2.scores, 1.0, cfg)
    assert cand2.test.feature == "a"


def test_best_split_categorical():
    n = 9
    col = np.array(["u"] * 3 + ["v"] * 3 + ["w"] * 3, dtype=object)
    scores = np.full(n, float(expit(1.0)))
    eta = np.array([1.0] * 3 + [0.0] * 6)
    ds = make_dataset({"c": col}, {"c": "categorical"},
                      np.array([1] * 3 + [-1] * 6), ["g"] * n, scores, 1.0)
    cfg = InductionConfig(min_child_count=1, min_child_fraction=0.01)
    cand = best_split(full_view(ds), eta, ds.scores, 1.0, cfg)
    assert cand.test == SplitTest("c", "categorical", modality="u")
    assert cand.post_entropy == pytest.approx(0.0, abs=1e-12)


def test_best_split_none_when_nothing_qualifies():
    n = 6
    ds = make_dataset({"x": np.zeros(n)}, {"x": "numeric"},
                      np.array([1, -1] * 3), ["g"] * n,
                      np.full(n, 0.6), 1.0)
    eta = np.array([1.0, 0.0] * 3)
    cfg = InductionConfig(min_child_count=1, min_child_fraction=0.01)
    assert best_split(full_view(ds), eta, ds.scores, 1.0, cfg) is None


def test_best_split_threshold_separates_children():
    rng = np.random.default_rng(7)
    cfg = InductionConfig(min_child_count=5, min_child_fraction=0.02)
    for _ in range(20):
        ds, eta = random_dataset(rng, n_min=100, n_max=250)
        cand = best_split(full_view(ds), eta, ds.scores, ds.clip_B, cfg)
        if cand is None:
            continue
        assert cand.post_entropy <= cand.parent_entropy + 1e-12
        if cand.test.kind == "numeric":
            col = ds.columns[cand.test.feature]
            left = col <= cand.test.threshold
            # the midpoint threshold must reproduce the scanned boundary
            assert 0 < left.sum() < ds.n
            assert col[left].max() < col[~left].min()


def test_topdown_entropy_non_increasing():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ds, eta = random_dataset(rng, n_min=150, n_max=350)
        cfg = InductionConfig(max_iterations=6, min_child_count=10,
                              min_child_fraction=0.02)
        tree, trace = topdown(full_view(ds), eta, ds.scores, ds.clip_B,
                              single_leaf_tree(), cfg)
        ent = trace.values("tree_entropy")
        assert all(b <= a + 1e-9 for a, b in zip(ent, ent[1:]))
        risks = trace.values("risk")
        assert len(risks) == len(ent)


def test_topdown_relabel_only_when_budget_zero():
    rng = np.random.default_rng(9)
    ds, eta = random_dataset(rng, n_min=100, n_max=100)
    cfg = InductionConfig(max_iterations=0)
    v = full_view(ds)
    tree, trace = topdown(v, eta, ds.scores, ds.clip_B, single_leaf_tree(), cfg)
    assert tree.n_leaves == 1
    stats = leaf_stats(v, single_leaf_tree(), eta, ds.scores, ds.clip_B)
    expected = relabel_leaves(single_leaf_tree(), stats, "conservative", ds.clip_B)
    assert tree.alpha_of(0) == expected.alpha_of(0)
    assert trace.last_iteration() == 0


def test_topdown_split_ids_extend_max():
    ds, eta = two_row_dataset()
    ds2, eta2 = random_dataset(np.random.default_rng(10), n_min=200, n_max=200)
    cfg = InductionConfig(max_iterations=1, min_child_count=5,
                          min_child_fraction=0.01)
    tree, trace = topdown(full_view(ds2), eta2, ds2.scores, ds2.clip_B,
                          single_leaf_tree(), cfg)
    if tree.n_leaves == 2:
        assert sorted(l.leaf_id for l in tree.leaves()) == [1, 2]
        assert any("split leaf=0" in r.event for r in trace.rows)


def test_topdown_risk_stop_halts_immediately():
    rng = np.random.default_rng(11)
    ds, eta = random_dataset(rng, n_min=150, n_max=150)
    cfg = InductionConfig(max_iterations=8, min_child_count=5,
                          min_child_fraction=0.01)
    tree, trace = topdown(full_view(ds), eta, ds.scores, ds.clip_B,
                          single_leaf_tree(), cfg, risk_stop=float("inf"))
    assert tree.n_leaves == 1
    assert trace.last_iteration() == 0


def test_topdown_splits_heaviest_leaf_first():
    # two pre-built leaves with masses 0.75 / 0.25, both improvable
    rng = np.random.default_rng(12)
    n = 400
    side = np.array([0.0] * 300 + [1.0] * 100)
    z = rng.normal(0.0, 1.0, n)
    eta = np.where(z <= 0.0, 0.9, 0.1)
    scores = np.full(n, float(expit(1.0)))
    ds = make_dataset({"s": side, "z": z}, {"s": "numeric", "z": "numeric"},
                      np.where(eta > 0.5, 1, -1), ["g"] * n, scores, 1.0)
    tree0 = stump(SplitTest("s", "numeric", 0.5, None), 1.0, 1.0)
    cfg = InductionConfig(max_iterations=1, min_child_count=5,
                          min_child_fraction=0.01)
    tree, trace = topdown(full_view(ds), eta, ds.scores, 1.0, tree0, cfg)
    events = [r.event for r in trace.rows if r.event]
    assert events and "split leaf=0" in events[0]


def with_clip_end_rows(rng, ds, eta, k):
    """ds plus k rows at the clip ends, beyond every row of each numeric feature.

    Their targets all side with their scores, or all against them, so a leaf
    of these rows alone has edge +-1 and an edge part of 0.
    """
    side = np.where(rng.random(k) < 0.5, 1.0, -1.0)
    sided = side if rng.random() < 0.5 else -side
    features = {}
    for name in ds.feature_names:
        col = ds.columns[name]
        numeric = ds.kinds[name] == "numeric"
        extra = np.full(k, col.max() + 1.0) if numeric else np.full(k, "z", dtype=object)
        features[name] = np.concatenate([col, extra])
    B = ds.clip_B
    scores = np.concatenate([ds.scores, expit(B * side)])
    labels = np.concatenate([ds.labels, np.where(sided > 0, 1, -1)])
    groups = np.concatenate([ds.groups, np.full(k, "g0", dtype=object)])
    weights = np.concatenate([ds.weights, rng.uniform(0.5, 2.0, k)])
    out = make_dataset(features, ds.kinds, labels, groups, scores, B, weights=weights)
    return out, np.concatenate([eta, (sided > 0).astype(float)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scoring=st.sampled_from(["conservative", "audacious"]))
@example(seed=0, scoring="conservative")   # a leaf of edge 1 (alpha 50 before the bound)
@example(seed=0, scoring="audacious")
def test_trained_leaves_never_saturate_a_clipped_score(seed, scoring):
    rng = np.random.default_rng(seed)
    ds, eta = random_dataset(rng, n_min=60, n_max=200)
    ds, eta = with_clip_end_rows(rng, ds, eta, int(rng.integers(ds.n // 6, ds.n // 2 + 1)))
    cfg = InductionConfig(max_iterations=6, min_child_count=5, min_child_fraction=0.05,
                          scoring=scoring)
    tree, _ = topdown(full_view(ds), eta, ds.scores, ds.clip_B, single_leaf_tree(), cfg)
    alphas = np.array([leaf.alpha for leaf in tree.leaves()])
    assert np.all(np.abs(alphas) * ds.clip_B <= 21.5)
    q_f = wrapped_scores(tree, ds.columns, ds.scores)
    assert np.all((q_f > 0.0) & (q_f < 1.0))
    # the clip ends are the most extreme clipped scores
    ends = expit(np.array([-ds.clip_B, ds.clip_B]))
    for a in alphas.tolist():
        wrapped = apply_alpha(ends, a)
        assert np.all((wrapped > 0.0) & (wrapped < 1.0))


# ---------------------------------------------------------------------------
# loop exits: the exact rows each way out of topdown writes
# ---------------------------------------------------------------------------


def row_keys(trace):
    return [(r.iteration, r.metric, r.group, r.event) for r in trace.rows]


def pure_alignment_dataset():
    """Eight rows at the B=1 clip end; x separates targets 1 and 0 exactly."""
    n = 8
    scores = np.full(n, float(expit(1.0)))
    eta = np.array([1.0] * 4 + [0.0] * 4)
    ds = make_dataset({"x": np.array([0.0] * 4 + [1.0] * 4)}, {"x": "numeric"},
                      np.array([1] * 4 + [-1] * 4), ["g"] * n, scores, 1.0)
    return ds, eta


@pytest.mark.parametrize("cfg, risk_stop", [
    (InductionConfig(max_iterations=0, min_child_count=1, min_child_fraction=0.01), None),
    (InductionConfig(max_iterations=8, min_child_count=1, min_child_fraction=0.01), float("inf")),
])
def test_topdown_exit_at_iteration_0(cfg, risk_stop):
    # the budget is spent, or the risk stop is met, before any split
    ds, eta = pure_alignment_dataset()
    tree, trace = topdown(full_view(ds), eta, ds.scores, 1.0, single_leaf_tree(), cfg,
                          iteration_start=3, risk_stop=risk_stop)
    assert tree.n_leaves == 1
    assert row_keys(trace) == [(3, "tree_entropy", "", ""), (3, "risk", "", "")]


def test_topdown_exit_when_no_leaf_can_be_split():
    # one split leaves two pure leaves; the rest of the budget goes unused
    ds, eta = pure_alignment_dataset()
    cfg = InductionConfig(max_iterations=5, min_child_count=1, min_child_fraction=0.01)
    tree, trace = topdown(full_view(ds), eta, ds.scores, 1.0, single_leaf_tree(), cfg,
                          iteration_start=3)
    assert tree.n_leaves == 2
    assert row_keys(trace) == [
        (3, "tree_entropy", "", ""), (3, "risk", "", ""),
        (4, "tree_entropy", "", "split leaf=0 x <= 0.5"), (4, "risk", "", ""),
    ]


def test_induction_config_validation():
    with pytest.raises(ValueError):
        InductionConfig(scoring="bold")
    with pytest.raises(ValueError):
        InductionConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        InductionConfig(min_child_fraction=0.0)
    with pytest.raises(ValueError):
        InductionConfig(min_child_fraction=0.6)
    with pytest.raises(ValueError):
        InductionConfig(min_child_count=0)


# ---------------------------------------------------------------------------
# incremental leaf ids and bincount statistics against the simple paths
# ---------------------------------------------------------------------------


def masked_leaf_stats(v, leaf_ids_rows, eta, scores, B):
    """Reference leaf statistics: one boolean mask and one sum per leaf."""
    nl = np.log(v.pick(scores) / (1.0 - v.pick(scores))) / B
    e_rows = v.pick(eta)
    w = v.weights
    y_signal = (2.0 * e_rows - 1.0) * nl
    pos = e_rows * np.maximum(nl, 0.0) + (1.0 - e_rows) * np.maximum(-nl, 0.0)
    neg = e_rows * np.maximum(-nl, 0.0) + (1.0 - e_rows) * np.maximum(nl, 0.0)
    out = {}
    for lid in np.unique(leaf_ids_rows).tolist():
        mask = leaf_ids_rows == lid
        mass = float(w[mask].sum())
        if mass <= 0.0:
            continue
        e = min(1.0, max(-1.0, float(np.dot(w[mask], y_signal[mask])) / mass))
        out[lid] = LeafStats(
            leaf_id=lid,
            edge=e,
            edge_pos=max(0.0, float(np.dot(w[mask], pos[mask])) / mass),
            edge_neg=max(0.0, float(np.dot(w[mask], neg[mask])) / mass),
            mass=mass,
            entropy=leaf_entropy(e),
            count=int(mask.sum()),
        )
    return out


def assert_stats_match(got, ref):
    """bincount sums differ from masked sums only in summation order."""
    assert sorted(got) == sorted(ref)
    for lid, expect in ref.items():
        assert got[lid].count == expect.count
        for key in ("edge", "edge_pos", "edge_neg", "mass", "entropy"):
            assert abs(getattr(got[lid], key) - getattr(expect, key)) <= 1e-12, (lid, key)


def rerouting_topdown(v, eta, scores, B, tree, cfg):
    """Reference induction: re-route every base row from the root after each split."""
    def sync(tree):
        ids = route_rows(tree, v.base.columns, v.base.n)[v.indices]
        stats = masked_leaf_stats(v, ids, eta, scores, B)
        return relabel_leaves(tree, stats, cfg.scoring, B), stats, ids

    tree, stats, ids = sync(tree)
    for _ in range(cfg.max_iterations):
        chosen = None
        for leaf in sorted(stats.values(), key=lambda s: (-s.mass, s.leaf_id)):
            if leaf.count < 2 * cfg.min_child_count:
                continue
            mask = ids == leaf.leaf_id
            leaf_v = make_view(v.base, v.indices[mask], raw_weights=v.weights[mask])
            cand = best_split(leaf_v, eta, scores, B, cfg)
            if cand is not None:
                chosen = (leaf.leaf_id, cand)
                break
        if chosen is None:
            break
        base_id = tree.max_leaf_id()
        subtree = Node(chosen[1].test, Leaf(base_id + 1, 1.0), Leaf(base_id + 2, 1.0))
        tree, stats, ids = sync(tree.replace_leaf(chosen[0], subtree))
    return tree


def tree_shape(node):
    if isinstance(node, Leaf):
        return node.leaf_id
    return (node.test, tree_shape(node.left), tree_shape(node.right))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 300),
    n_numeric=st.integers(1, 3),
    n_categorical=st.integers(1, 2),
    decimals=st.integers(0, 2),
    view=st.sampled_from(["all", "g0", "g1"]),
    stump_start=st.booleans(),
    max_iterations=st.integers(0, 8),
    min_child_count=st.integers(1, 12),
    scoring=st.sampled_from(["conservative", "audacious"]),
)
def test_topdown_incremental_leaf_ids_match_full_routing(
    seed, n, n_numeric, n_categorical, decimals, view, stump_start, max_iterations,
    min_child_count, scoring,
):
    rng = np.random.default_rng(seed)
    B = float(rng.uniform(0.5, 3.0))
    features, kinds = {}, {}
    for j in range(n_numeric):
        # few decimals force ties between rows, and so the threshold guard
        features[f"x{j}"] = np.round(rng.normal(0.0, 1.0, n), decimals)
        kinds[f"x{j}"] = "numeric"
    for j in range(n_categorical):
        features[f"c{j}"] = rng.choice(np.array(list("abcd"), dtype=object), n)
        kinds[f"c{j}"] = "categorical"
    scores = expit(B * rng.uniform(-1.0, 1.0, n))
    eta = rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < eta, 1, -1)
    groups = np.where(rng.random(n) < 0.6, "g0", "g1").astype(object)
    groups[:2] = ["g0", "g1"]
    ds = make_dataset(features, kinds, labels, groups, scores, B,
                      weights=rng.uniform(0.5, 2.0, n))
    v = full_view(ds) if view == "all" else make_view(ds, np.flatnonzero(ds.groups == view))
    tree0 = init_stump(["g0", "g1"]) if stump_start else single_leaf_tree()
    cfg = InductionConfig(max_iterations=max_iterations, min_child_count=min_child_count,
                          min_child_fraction=0.05, scoring=scoring)

    real_best_split = boosting.best_split
    searched = []

    def recording_best_split(leaf_v, *args):
        searched.append(tuple(leaf_v.indices.tolist()))
        return real_best_split(leaf_v, *args)

    # after iteration 0 and after every split, the carried state equals the
    # from-scratch values bit for bit
    steps = []
    with mock.patch.object(boosting, "best_split", recording_best_split):
        for grown in boosting._grow(v, eta, ds.scores, B, tree0, cfg):
            tree = grown.tree
            routed = route_rows(tree, ds.columns, ds.n)[v.indices]
            np.testing.assert_array_equal(grown.leaf_ids, routed)
            fresh = leaf_stats(v, tree, eta, ds.scores, B)
            assert grown.stats == fresh and list(grown.stats) == sorted(fresh)
            assert_stats_match(grown.stats, masked_leaf_stats(v, routed, eta, ds.scores, B))
            assert relabel_leaves(tree, fresh, scoring, B).leaves() == tree.leaves()
            assert grown.entropy == sum(st.mass * st.entropy for st in fresh.values())
            loss = log_loss(wrapped_scores(tree, ds.columns, ds.scores)[v.indices], eta[v.indices])
            assert grown.risk == dot(v.weights, loss)
            steps.append((grown.event, grown.entropy, grown.risk))
    # a leaf is searched at most once: no row set comes back
    assert len(set(searched)) == len(searched)

    tree, trace = topdown(v, eta, ds.scores, B, tree0, cfg)
    assert [(r.event, r.value) for r in trace.rows if r.metric == "tree_entropy"] == [s[:2] for s in steps]
    assert trace.values("risk") == [s[2] for s in steps]
    expected = rerouting_topdown(v, eta, ds.scores, B, tree0, cfg)
    assert tree_shape(tree.root) == tree_shape(expected.root)
    for leaf in tree.leaves():
        assert leaf.alpha == pytest.approx(expected.alpha_of(leaf.leaf_id), rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    n_numeric=st.integers(0, 3),
    n_categorical=st.integers(0, 3),
    decimals=st.integers(0, 2),
    zero_weight_share=st.sampled_from([0.0, 0.3, 0.9]),
    plugin=st.booleans(),
    subset=st.booleans(),
    min_child_fraction=st.floats(0.001, 0.499),
    min_child_count=st.integers(1, 30),
)
def test_best_split_matches_per_feature_reference(
    seed, n, n_numeric, n_categorical, decimals, zero_weight_share, plugin, subset,
    min_child_fraction, min_child_count,
):
    rng = np.random.default_rng(seed)
    B = float(rng.uniform(0.5, 3.0))
    features, kinds = {}, {}
    # numeric and categorical features interleave in declaration order
    for j in range(max(n_numeric, n_categorical)):
        if j < n_numeric:
            # few decimals force tied values
            features[f"x{j}"] = np.round(rng.normal(0.0, 1.0, n), decimals)
            kinds[f"x{j}"] = "numeric"
        if j < n_categorical:
            levels = np.array(list("abcd")[: int(rng.integers(1, 5))], dtype=object)
            features[f"c{j}"] = rng.choice(levels, n, p=rng.dirichlet(np.ones(len(levels))))
            kinds[f"c{j}"] = "categorical"
    scores = expit(B * rng.uniform(-1.0, 1.0, n))
    eta = np.round(rng.random(n)) if plugin else rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < eta, 1, -1)
    groups = np.where(rng.random(n) < 0.5, "g0", "g1").astype(object)
    weights = rng.uniform(0.5, 2.0, n) * (rng.random(n) >= zero_weight_share)
    weights[0] = 1.0
    ds = make_dataset(features, kinds, labels, groups, scores, B, weights=weights)
    rows = np.arange(n)
    if subset:
        rows = np.concatenate([[0], np.flatnonzero(rng.random(n - 1) < 0.6) + 1])
    v = make_view(ds, rows)
    cfg = InductionConfig(min_child_fraction=min_child_fraction, min_child_count=min_child_count)
    assert best_split(v, eta, ds.scores, B, cfg) == best_split_reference(v, eta, ds.scores, B, cfg)


def test_leaf_stats_negative_and_sparse_leaf_ids():
    rng = np.random.default_rng(13)
    ds, eta = random_dataset(rng, n_min=120, n_max=120)
    v = full_view(ds)
    test = SplitTest("x0", "numeric", 0.0, None)
    # the tree rejects ids outside [0, 2 * leaves], so leaf_stats never sees them
    with pytest.raises(SchemaError, match=r"^tree\.left: leaf_id must be an integer in \[0, 4\], got -5$"):
        AlphaTree(Node(test, Leaf(-5, 1.0), Leaf(10**12, 1.0)))
    tree = AlphaTree(Node(test, Leaf(0, 1.0), Leaf(4, 1.0)))
    ids = route_rows(tree, ds.columns, ds.n)
    stats = leaf_stats(v, tree, eta, ds.scores, ds.clip_B)
    assert sorted(stats) == [0, 4]
    assert_stats_match(stats, masked_leaf_stats(v, ids, eta, ds.scores, ds.clip_B))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(60, 300),
    start=st.sampled_from(["random_tree", "init_stump", "proxy_group_tree"]),
    max_iterations=st.integers(0, 12),
    min_child_count=st.integers(1, 10),
)
def test_topdown_keeps_leaf_ids_within_twice_the_leaves(seed, n, start, max_iterations, min_child_count):
    rng = np.random.default_rng(seed)
    B = float(rng.uniform(0.5, 3.0))
    features = {
        "x0": np.round(rng.normal(0.0, 1.0, n), 2),
        "x1": np.round(rng.normal(0.0, 1.0, n), 2),
        "c0": rng.choice(np.array(list("abcd"), dtype=object), n),
    }
    kinds = {"x0": "numeric", "x1": "numeric", "c0": "categorical"}
    scores = expit(B * rng.uniform(-1.0, 1.0, n))
    eta = rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < eta, 1, -1)
    groups = rng.choice(np.array(["g0", "g1", "g2"], dtype=object), n)
    ds = make_dataset(features, kinds, labels, groups, scores, B)
    if start == "random_tree":
        tree0 = random_tree(rng, max_depth=int(rng.integers(0, 5)))
    elif start == "init_stump":
        tree0 = init_stump(groups)
    else:
        tree0 = proxy_group_tree(features, kinds, groups, max_depth=int(rng.integers(0, 5)),
                                 min_leaf=int(rng.integers(1, 20))).tree
    trees = [tree0]
    real_leaf_stats = boosting.leaf_stats

    def recording_leaf_stats(v_, tree, *args, **kwargs):
        trees.append(tree)
        return real_leaf_stats(v_, tree, *args, **kwargs)

    cfg = InductionConfig(max_iterations=max_iterations, min_child_count=min_child_count,
                          min_child_fraction=0.05)
    with mock.patch.object(boosting, "leaf_stats", recording_leaf_stats):
        tree, _ = topdown(full_view(ds), eta, ds.scores, B, tree0, cfg)
    trees.append(tree)
    for t in trees:
        ids = [leaf.leaf_id for leaf in t.leaves()]
        assert 0 <= min(ids) and max(ids) <= 2 * len(ids), ids
