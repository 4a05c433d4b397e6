"""Edges, leaf labels, split search, and top-down induction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    relabel_leaves,
    route_rows,
    single_leaf_tree,
    stump,
    topdown,
    tree_entropy,
    wha_check,
)
from alphatree.core import expit

from helpers import conservative_label_objective, random_dataset, saturated_dataset

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


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


def test_conservative_alpha_oracles():
    assert leaf_alpha_conservative(0.5, 1.0) == pytest.approx(LOG3, abs=1e-15)
    assert leaf_alpha_conservative(0.5, 3.0) == pytest.approx(
        0.3662040962227033, abs=1e-15)
    assert leaf_alpha_conservative(0.0, 2.0) == 0.0


def test_conservative_alpha_clamps_and_flips():
    assert leaf_alpha_conservative(1.0, 1.0) == A_MAX
    assert leaf_alpha_conservative(-1.0, 1.0) == -A_MAX
    assert leaf_alpha_conservative(1.0 - 1e-12, 1.0) == A_MAX
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
    assert leaf_alpha_audacious(0.5, 0.0, 1.0) == A_MAX
    assert leaf_alpha_audacious(0.0, 0.5, 1.0) == -A_MAX
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
    assert out.alpha_of(0) == A_MAX          # edge exactly 1
    assert out.alpha_of(1) == 0.0            # edge exactly 0
    # a leaf absent from the stats keeps its alpha
    out2 = relabel_leaves(t, {0: stats[0]}, "conservative", 1.0)
    assert out2.alpha_of(1) == 7.0


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
    assert cand.feature == "x"
    assert cand.kind == "numeric"
    assert cand.threshold == 0.5
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
    assert cand.feature == "b"
    ds2 = make_dataset({"a": col, "b": col.copy()}, {"a": "numeric", "b": "numeric"},
                       labels, ["g"] * n, scores, 1.0)
    cand2 = best_split(full_view(ds2), eta, ds2.scores, 1.0, cfg)
    assert cand2.feature == "a"


def test_best_split_categorical():
    n = 9
    col = np.array(["u"] * 3 + ["v"] * 3 + ["w"] * 3, dtype=object)
    scores = np.full(n, float(expit(1.0)))
    eta = np.array([1.0] * 3 + [0.0] * 6)
    ds = make_dataset({"c": col}, {"c": "categorical"},
                      np.array([1] * 3 + [-1] * 6), ["g"] * n, scores, 1.0)
    cfg = InductionConfig(min_child_count=1, min_child_fraction=0.01)
    cand = best_split(full_view(ds), eta, ds.scores, 1.0, cfg)
    assert cand.kind == "categorical"
    assert cand.modality == "u"
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
        if cand.kind == "numeric":
            col = ds.columns[cand.feature]
            left = col <= cand.threshold
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
        subtree = Node(chosen[1].test(), Leaf(base_id + 1, 1.0), Leaf(base_id + 2, 1.0))
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
)
def test_topdown_incremental_leaf_ids_match_full_routing(
    seed, n, n_numeric, n_categorical, decimals, view, stump_start, max_iterations,
    min_child_count,
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
                          min_child_fraction=0.05)

    real_leaf_stats = boosting.leaf_stats
    calls = []

    def checked_leaf_stats(v_, tree, eta_t, scores_, B_, nlogit_values=None,
                           leaf_ids_rows=None, **kwargs):
        routed = route_rows(tree, ds.columns, ds.n)[v_.indices]
        np.testing.assert_array_equal(leaf_ids_rows, routed)
        out = real_leaf_stats(v_, tree, eta_t, scores_, B_, nlogit_values,
                              leaf_ids_rows=leaf_ids_rows, **kwargs)
        assert_stats_match(out, masked_leaf_stats(v_, routed, eta, ds.scores, B))
        calls.append(tree)
        return out

    with mock.patch.object(boosting, "leaf_stats", checked_leaf_stats):
        tree, trace = topdown(v, eta, ds.scores, B, tree0, cfg)
    splits = sum(1 for r in trace.rows if r.event.startswith("split"))
    assert len(calls) == splits + 1
    expected = rerouting_topdown(v, eta, ds.scores, B, tree0, cfg)
    assert tree_shape(tree.root) == tree_shape(expected.root)
    for leaf in tree.leaves():
        assert leaf.alpha == pytest.approx(expected.alpha_of(leaf.leaf_id), rel=1e-9, abs=1e-9)


def test_leaf_stats_negative_and_sparse_leaf_ids():
    rng = np.random.default_rng(13)
    ds, eta = random_dataset(rng, n_min=120, n_max=120)
    v = full_view(ds)
    tree = AlphaTree(Node(SplitTest("x0", "numeric", 0.0, None), Leaf(-5, 1.0), Leaf(10**12, 1.0)))
    ids = route_rows(tree, ds.columns, ds.n)
    stats = leaf_stats(v, tree, eta, ds.scores, ds.clip_B)
    assert sorted(stats) == [-5, 10**12]
    assert_stats_match(stats, masked_leaf_stats(v, ids, eta, ds.scores, ds.clip_B))
