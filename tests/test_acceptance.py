"""Acceptance gate: one test per shipped guarantee.

Each test is a self-contained check of one user-facing contract, from the
closed-form constants through the full fairness drivers and the model file
format.  Tolerances are part of the contract and are stated inline.
"""

import math
import time

import numpy as np
import pytest

from alphatree import (
    CvarSpec,
    DegenerateLeafError,
    EooSpec,
    InductionConfig,
    ModelMeta,
    advantage_rate,
    apply_alpha,
    audacious_leaf_bound,
    balanced_weights,
    clip_bounds,
    decrease_certificate,
    edge,
    empirical_kl,
    empirical_risk,
    full_view,
    invert_tree,
    kl_bound_s1,
    kl_bound_s2,
    leaf_entropy,
    leaf_stats,
    load_model,
    make_dataset,
    make_view,
    metric_cvar,
    metric_eoo_gap,
    pushup_posterior,
    run_cvar,
    run_eoo,
    save_model,
    single_leaf_tree,
    subgroup_risks,
    topdown,
    tree_entropy,
    wha_check,
    wrap_chain,
    wrapped_scores,
)
from alphatree.core import expit
from alphatree.io_cli import model_to_json

from helpers import probe_columns, random_dataset, random_tree, saturated_dataset


def grow(ds, eta, scoring):
    cfg = InductionConfig(max_iterations=5, min_child_fraction=0.05,
                          min_child_count=5, scoring=scoring)
    tree, _ = topdown(full_view(ds), eta, ds.scores, ds.clip_B,
                      single_leaf_tree(), cfg)
    return tree


def test_criterion_01_clip_interval_endpoints():
    lo1, hi1 = clip_bounds(1.0)
    assert lo1 == pytest.approx(0.268941, abs=1e-5)
    assert hi1 == pytest.approx(0.731059, abs=1e-5)
    lo3, hi3 = clip_bounds(3.0)
    assert lo3 == pytest.approx(0.047426, abs=1e-5)
    assert hi3 == pytest.approx(0.952574, abs=1e-5)


def test_criterion_02_kl_bound_constants():
    assert kl_bound_s1(3.0) == pytest.approx(0.0743, abs=5e-4)
    assert kl_bound_s2() == pytest.approx(0.4112, abs=1e-3)


def test_criterion_03_conservative_risk_below_tree_entropy():
    rng = np.random.default_rng(3)
    start = time.monotonic()
    for _ in range(200):
        ds, eta = random_dataset(rng, n_min=30, n_max=500)
        tree = grow(ds, eta, "conservative")
        v = full_view(ds)
        risk = empirical_risk(v, wrapped_scores(tree, ds.columns, ds.scores), eta)
        ent = tree_entropy(tree, v, eta, ds.scores, ds.clip_B)
        assert risk <= ent + 1e-9
    assert time.monotonic() - start <= 60.0


def test_criterion_04_audacious_bound_below_entropy():
    rng = np.random.default_rng(4)
    start = time.monotonic()
    for _ in range(200):
        ds, eta = random_dataset(rng, n_min=30, n_max=500)
        tree = grow(ds, eta, "audacious")
        v = full_view(ds)
        stats = leaf_stats(v, tree, eta, ds.scores, ds.clip_B)
        bound = 0.0
        for st in stats.values():
            leaf_bound = audacious_leaf_bound(st.edge_pos, st.edge_neg)
            # per leaf the audacious ceiling never exceeds the entropy one
            assert leaf_bound <= st.entropy + 1e-12
            bound += st.mass * leaf_bound
        risk = empirical_risk(v, wrapped_scores(tree, ds.columns, ds.scores), eta)
        assert risk <= bound + 1e-9
    assert time.monotonic() - start <= 60.0


def test_criterion_05_composition_and_inversion():
    rng = np.random.default_rng(5)
    lo, hi = clip_bounds(1.0)

    def draw_alpha(size):
        mag = np.exp(rng.uniform(math.log(0.05), math.log(6.0), size))
        return mag * np.where(rng.random(size) < 0.5, 1.0, -1.0)

    n = 10_000
    q = rng.uniform(lo, hi, n)
    a = draw_alpha(n)
    b = draw_alpha(n)
    sequential = apply_alpha(apply_alpha(q, a), b)
    product = apply_alpha(q, a * b)
    assert float(np.max(np.abs(sequential - product))) <= 1e-12

    for _ in range(100):
        tree = random_tree(rng, max_depth=4,
                           alpha_of=lambda r: float(draw_alpha(1)[0]))
        chain = [tree, invert_tree(tree)]
        cols = probe_columns(rng, 20)
        for i in range(20):
            x = {k: cols[k][i] for k in cols}
            q_u = float(rng.uniform(lo, hi))
            assert wrap_chain(chain, q_u, x) == pytest.approx(q_u, abs=1e-10)


def test_criterion_06_s1_proximity_bound():
    rng = np.random.default_rng(6)
    ceiling = 0.0743 + 1e-6
    for _ in range(500):
        n = int(rng.integers(40, 200))
        u = rng.uniform(1e-3, 1.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
        q = expit(3.0 * u)
        cols = probe_columns(rng, n)
        tree = random_tree(
            rng, max_depth=3,
            alpha_of=lambda r: 1.0 + float(r.uniform(-1.0, 1.0)) / 3.0)
        q_f = wrapped_scores(tree, cols, q)
        w = np.full(n, 1.0 / n)
        kl = empirical_kl(w, q, q_f)
        assert kl <= ceiling
        assert kl <= kl_bound_s1(3.0) + 1e-6


def test_criterion_07_fairness_free_balanced_reduction():
    # dyadic fixture: uniform weights 1/8 and 6/8 positives keep both
    # evaluation routes correctly rounded, so equality is exact
    n = 8
    eta = np.array([1.0] * 6 + [0.0] * 2)
    ds = make_dataset({"x": np.arange(n, dtype=float)}, {"x": "numeric"},
                      np.where(eta == 1.0, 1, -1), ["g"] * n,
                      np.full(n, 0.6), 1.0)
    ones = np.ones(n)
    q_hat = 0.75
    e = edge(full_view(ds), eta, ds.scores, 1.0, nlogit_values=ones)
    assert e == 2.0 * q_hat - 1.0
    bw = balanced_weights(full_view(ds), eta, ds.scores, 1.0, nlogit_values=ones)
    w = 1.0 / n
    assert np.array_equal(bw.positive, np.where(eta == 1.0, w / (2.0 * q_hat), 0.0))
    assert np.array_equal(bw.negative, np.where(eta == 0.0, w / (2.0 * (1.0 - q_hat)), 0.0))
    assert float(bw.positive.sum() + bw.negative.sum()) == pytest.approx(1.0, abs=1e-15)


def test_criterion_08_wha_decrease_certificate():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(250):
        ds, eta, sat = saturated_dataset(rng, n_min=12, n_max=120)
        v = full_view(ds)
        for _ in range(20):
            h = np.where(rng.random(ds.n) < 0.5, 1.0, -1.0)
            h[0], h[1] = 1.0, -1.0
            try:
                rep = wha_check(v, h, eta, ds.scores, ds.clip_B, nlogit_values=sat)
                left = np.flatnonzero(h > 0)
                right = np.flatnonzero(h < 0)
                post = 0.0
                for idx in (left, right):
                    child = make_view(ds, idx, raw_weights=ds.weights[idx])
                    child_edge = edge(child, eta, ds.scores, ds.clip_B,
                                      nlogit_values=sat)
                    post += float(v.weights[idx].sum()) * leaf_entropy(child_edge)
            except DegenerateLeafError:
                continue
            # at the clip endpoints the sign condition is exactly zero and
            # the witnessed correlation alone certifies the decrease
            assert rep.condition_ii_value == 0.0
            pre = leaf_entropy(rep.edge)
            q_leaf = (1.0 + rep.edge) / 2.0
            assert decrease_certificate(pre, post, q_leaf, rep.gamma_witnessed)
            checked += 1
    assert checked >= 4000


def eoo_fixture():
    lo, hi = clip_bounds(1.0)
    x, groups, scores, eta = [], [], [], []

    def cell(xval, grp, count, score, eta_val):
        x.extend([float(xval)] * count)
        groups.extend([grp] * count)
        scores.extend([score] * count)
        eta.extend([eta_val] * count)

    cell(0, "adv", 90, hi, 1.0)
    cell(1, "adv", 10, lo, 1.0)
    cell(2, "dis", 50, hi, 0.95)
    cell(3, "dis", 50, hi, 0.9)
    cell(4, "dis", 50, lo, 0.7)
    cell(5, "dis", 50, lo, 0.6)
    n = len(x)
    ds = make_dataset({"x": np.array(x)}, {"x": "numeric"},
                      np.ones(n, dtype=int), groups, np.array(scores), 1.0)
    return ds, np.array(eta)


def test_criterion_09_eoo_closes_planted_gap():
    start = time.monotonic()
    ds, eta = eoo_fixture()
    stump = single_leaf_tree()
    assert advantage_rate(ds, stump, "adv") == pytest.approx(0.9, abs=1e-12)
    assert advantage_rate(ds, stump, "dis") == pytest.approx(0.5, abs=1e-12)
    assert metric_eoo_gap(ds, stump) == pytest.approx(0.4, abs=1e-12)

    spec = EooSpec(eps=0.2, K=5.0,
                   induction=InductionConfig(max_iterations=8,
                                             min_child_fraction=0.05,
                                             min_child_count=10))
    tree, _ = run_eoo(ds, spec, None, eta_estimate=eta)
    assert metric_eoo_gap(ds, tree) <= 0.2 + 1e-12
    # the reference group's rate is never disturbed
    assert advantage_rate(ds, tree, "adv") == pytest.approx(0.9, abs=1e-12)
    assert time.monotonic() - start <= 30.0


def test_criterion_10_cvar_strictly_drops():
    rng = np.random.default_rng(1010)
    n = 600
    groups = np.array(["good"] * 300 + ["bad"] * 300, dtype=object)
    labels = np.where(rng.random(n) < 0.7, 1, -1)
    # the black box is confidently wrong on 80% of one group, 10% of the other
    wrong = np.where(groups == "bad", rng.random(n) < 0.8, rng.random(n) < 0.1)
    lo, hi = clip_bounds(1.0)
    scores = np.where((labels == 1) ^ wrong, hi, lo)
    cols = {"v": wrong.astype(float), "z": rng.normal(0.0, 1.0, n)}
    ds = make_dataset(cols, {"v": "numeric", "z": "numeric"}, labels, groups,
                      scores, 1.0)
    eta = np.full(n, 0.7)

    before = metric_cvar(ds, single_leaf_tree(), eta, 0.9)
    spec = CvarSpec(beta=0.9, risk_threshold=0.0, outer_rounds=2,
                    induction=InductionConfig(max_iterations=16,
                                              min_child_fraction=0.05,
                                              min_child_count=10))
    tree, _ = run_cvar(ds, spec, None, eta_t=eta)
    after = metric_cvar(ds, tree, eta, 0.9)
    assert after < before - 0.15
    # the whole tail improves, not just the headline quantile
    risks = subgroup_risks(ds, tree, eta)
    assert max(risks.values()) == pytest.approx(after, abs=1e-12)


def test_criterion_11_pushup_properties():
    eta = np.array([0.8, 0.6, 0.4, 0.3, 0.25])
    ds = make_dataset({"x": np.arange(5.0)}, {"x": "numeric"},
                      np.ones(5, dtype=int), ["g"] * 5, np.full(5, 0.6), 1.0)
    v = full_view(ds)
    pushed, params = pushup_posterior(eta, v, p=0.8, delta=0.1)
    assert params.eta_floor == 0.3
    # three-branch mapping: below the floor kept, in the band raised, above kept
    assert np.array_equal(pushed, np.array([0.8, 0.6, 0.6, 0.6, 0.25]))
    again, _ = pushup_posterior(pushed, v, p=0.8, delta=0.1)
    assert np.array_equal(again, pushed)

    high = np.array([0.9, 0.8, 0.7, 0.9, 0.8])
    unchanged, params = pushup_posterior(high, v, p=0.5, delta=0.1)
    assert params.eta_floor >= 0.5
    assert np.array_equal(unchanged, high)


def test_criterion_12_model_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    cols = probe_columns(rng, 1000)
    q = rng.uniform(0.01, 0.99, 1000)
    path = tmp_path / "model.json"

    def alpha_of(r):
        roll = r.random()
        if roll < 0.1:
            return float(r.choice(np.array([-50.0, 0.0, 1.0, 50.0])))
        return float(r.uniform(-6.0, 6.0))

    for trial in range(100):
        tree = random_tree(rng, max_depth=6, alpha_of=alpha_of)
        meta = ModelMeta(clip_B=float(rng.uniform(0.5, 4.0)),
                         scoring="audacious" if trial % 3 == 0 else "conservative",
                         strategy=str(rng.choice(np.array(["cvar", "eoo", "sp"]))),
                         config_digest=f"{rng.integers(0, 2**32):08x}",
                         iterations=int(rng.integers(0, 64)))
        save_model(path, tree, meta)
        tree2, meta2 = load_model(path)
        assert model_to_json(tree2, meta2) == path.read_text(encoding="utf-8")
        assert meta2 == meta
        assert np.array_equal(wrapped_scores(tree, cols, q),
                              wrapped_scores(tree2, cols, q))
