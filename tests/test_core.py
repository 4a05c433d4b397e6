"""Alpha wrapping, clipping, and tree evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatree import (
    A_MAX,
    AlphaTree,
    DomainError,
    Leaf,
    Node,
    NonInvertibleError,
    SchemaError,
    SplitTest,
    alpha_at_rows,
    apply_alpha,
    clip_bounds,
    clip_score,
    compose_alpha,
    evaluate_tree,
    invert_tree,
    logit,
    nlogit,
    single_leaf_tree,
    stump,
    wrap,
    wrap_chain,
    wrapped_scores,
)
from alphatree.core import expit, xlogy

from helpers import expit_reference, probe_columns, random_tree, xlogy_reference


def test_clip_bounds_unit():
    lo, hi = clip_bounds(1.0)
    assert lo == pytest.approx(0.2689414213699951, abs=1e-15)
    assert hi == pytest.approx(0.7310585786300049, abs=1e-15)
    assert lo + hi == pytest.approx(1.0, abs=1e-15)


def test_clip_bounds_three():
    lo, hi = clip_bounds(3.0)
    assert lo == pytest.approx(0.04742587317756678, abs=1e-15)
    assert hi == pytest.approx(0.9525741268224334, abs=1e-15)


def test_clip_bounds_rejects_bad_B():
    for B in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            clip_bounds(B)


def test_clip_score_clamps_and_passes_through():
    lo, hi = clip_bounds(1.0)
    q = np.array([0.0, lo, 0.5, hi, 1.0])
    out = clip_score(q, 1.0)
    assert np.array_equal(out, [lo, lo, 0.5, hi, hi])


def test_clip_score_rejects_outside_unit_interval():
    with pytest.raises(DomainError):
        clip_score(np.array([-0.1]), 1.0)
    with pytest.raises(DomainError):
        clip_score(np.array([1.1]), 1.0)


def test_nlogit_midpoint_and_endpoints():
    assert nlogit(0.5, 2.0) == 0.0
    lo, hi = clip_bounds(1.5)
    # at B=1.5 the logit of the clip endpoints round-trips exactly
    assert nlogit(hi, 1.5) == 1.0
    assert nlogit(lo, 1.5) == -1.0


def test_nlogit_stays_near_unit_band():
    rng = np.random.default_rng(5)
    for B in (0.5, 1.0, 2.0, 3.0):
        q = clip_score(rng.random(500), B)
        nl = nlogit(q, B)
        assert np.all(np.abs(nl) <= 1.0 + 1e-12)


def _within_ulps(got, ref, ulps):
    return abs(float(got) - ref) <= ulps * math.ulp(ref)


@given(xs=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_expit_within_two_ulp_of_scalar_reference(xs):
    # an overflow RuntimeWarning from exp(-x) must not escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expit(np.array(xs))
        first = expit(xs[0])
    for x, got in zip(xs, out):
        assert _within_ulps(got, expit_reference(x), 2)
    assert _within_ulps(first, expit_reference(xs[0]), 2)


@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            st.floats(0.0, 1.0, exclude_min=True),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=300, deadline=None)
def test_xlogy_within_two_ulp_of_scalar_reference(pairs):
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = xlogy(x, y)
        first = xlogy(x[0], y[0])
    for (xi, yi), got in zip(pairs, out):
        assert _within_ulps(got, xlogy_reference(xi, yi), 2)
    assert _within_ulps(first, xlogy_reference(*pairs[0]), 2)


EXPIT_EDGES = [
    (math.inf, 1.0),
    (-math.inf, 0.0),
    (math.nan, math.nan),
    (-709.5, 7.38014831401258e-309),
    (-745.0, 0.0),
]

XLOGY_EDGES = [
    (0.0, 0.0, 0.0),
    (0.0, math.inf, 0.0),
    (0.0, math.nan, math.nan),
    (1.0, 0.0, -math.inf),
]


def _same(got, want):
    return (math.isnan(want) and math.isnan(got)) or got == want


def test_expit_and_xlogy_edge_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, want in EXPIT_EDGES:
            assert _same(float(expit(x)), want), x
            assert _same(float(expit(np.array(x))), want), x
        out = expit(np.array([x for x, _ in EXPIT_EDGES]))
        assert all(_same(float(g), w) for g, (_, w) in zip(out, EXPIT_EDGES))
        for x, y, want in XLOGY_EDGES:
            assert _same(float(xlogy(x, y)), want), (x, y)
        out = xlogy(np.array([e[0] for e in XLOGY_EDGES]), np.array([e[1] for e in XLOGY_EDGES]))
        assert all(_same(float(g), e[2]) for g, e in zip(out, XLOGY_EDGES))


def test_apply_alpha_oracle():
    # q^a / (q^a + (1-q)^a) at q=0.7, a=2: 0.49/0.58
    assert apply_alpha(0.7, 2.0) == pytest.approx(0.8448275862068966, abs=1e-12)


def test_apply_alpha_zero_flattens():
    rng = np.random.default_rng(0)
    q = rng.uniform(0.05, 0.95, 200)
    assert np.all(apply_alpha(q, 0.0) == 0.5)


def test_apply_alpha_one_is_identity():
    rng = np.random.default_rng(1)
    q = rng.uniform(0.05, 0.95, 200)
    np.testing.assert_allclose(apply_alpha(q, 1.0), q, atol=1e-15)


def test_apply_alpha_saturates_cleanly():
    # extreme exponents must run off to the ends without NaN
    assert apply_alpha(0.9, A_MAX) == 1.0
    assert apply_alpha(0.9, -A_MAX) < 1e-40


@given(
    q=st.floats(0.01, 0.99),
    alpha=st.floats(-8.0, 8.0),
)
@settings(max_examples=200, deadline=None)
def test_apply_alpha_symmetry(q, alpha):
    # wrapping commutes with relabelling the positive class
    left = apply_alpha(1.0 - q, alpha)
    right = 1.0 - apply_alpha(q, alpha)
    assert left == pytest.approx(right, abs=1e-12)


@given(alpha=st.floats(0.1, 6.0))
@settings(max_examples=100, deadline=None)
def test_apply_alpha_monotone(alpha):
    q = np.linspace(0.05, 0.95, 101)
    out = apply_alpha(q, alpha)
    assert np.all(np.diff(out) > 0)
    flipped = apply_alpha(q, -alpha)
    assert np.all(np.diff(flipped) < 0)


@given(
    q=st.floats(0.3, 0.7),
    target=st.floats(0.3, 0.7),
)
@settings(max_examples=200, deadline=None)
def test_apply_alpha_reaches_any_target(q, target):
    # the exponent logit(target)/logit(q) maps q onto target exactly
    if abs(q - 0.5) < 1e-3:
        return
    alpha = float(logit(target) / logit(q))
    assert apply_alpha(q, alpha) == pytest.approx(target, abs=1e-10)


def test_compose_alpha_multiplies():
    assert compose_alpha(2.0, 1.5) == 3.0
    assert compose_alpha(-2.0, 0.5) == -1.0


def test_wrap_chain_oracle():
    chain = [single_leaf_tree(2.0), single_leaf_tree(1.5)]
    # 0.7^3 / (0.7^3 + 0.3^3)
    assert wrap_chain(chain, 0.7, {}) == pytest.approx(0.9270270270270271, abs=1e-12)


def test_wrap_chain_matches_product_exponent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alphas = rng.uniform(-2.0, 2.0, 3)
        chain = [single_leaf_tree(float(a)) for a in alphas]
        q = float(rng.uniform(0.3, 0.7))
        prod = float(np.prod(alphas))
        assert wrap_chain(chain, q, {}) == pytest.approx(
            apply_alpha(q, prod), abs=1e-12)


def test_routing_numeric_threshold_inclusive_left():
    t = stump(SplitTest("x", "numeric", 0.5, None), 2.0, 3.0)
    assert evaluate_tree(t, {"x": 0.5}) == (0, 2.0)
    assert evaluate_tree(t, {"x": np.nextafter(0.5, 1.0)}) == (1, 3.0)
    assert evaluate_tree(t, {"x": -10.0}) == (0, 2.0)


def test_routing_categorical_match_left():
    t = stump(SplitTest("c", "categorical", None, "a"), 2.0, 3.0)
    assert evaluate_tree(t, {"c": "a"}) == (0, 2.0)
    assert evaluate_tree(t, {"c": "b"}) == (1, 3.0)


def test_evaluate_missing_feature():
    t = stump(SplitTest("x", "numeric", 0.5, None), 2.0, 3.0)
    with pytest.raises(SchemaError):
        evaluate_tree(t, {"y": 1.0})


def test_split_test_validation():
    with pytest.raises(SchemaError):
        SplitTest("x", "numeric", None, "a")
    with pytest.raises(SchemaError):
        SplitTest("x", "categorical", 0.5, None)
    with pytest.raises(SchemaError):
        SplitTest("x", "ordinal", 0.5, None)
    with pytest.raises(SchemaError):
        SplitTest("x", "numeric", math.nan, None)


def test_leaf_validation():
    with pytest.raises(DomainError):
        Leaf(0, math.nan)
    with pytest.raises(DomainError):
        Leaf(0, math.inf)


def test_duplicate_leaf_ids_rejected():
    node = Node(SplitTest("x", "numeric", 0.0, None), Leaf(1, 1.0), Leaf(1, 2.0))
    with pytest.raises(SchemaError):
        AlphaTree(node)


def test_single_leaf_tree_is_identity_wrap():
    t = single_leaf_tree()
    assert t.n_leaves == 1
    assert wrap(t, 0.37, {}) == pytest.approx(0.37, abs=1e-15)


def test_tree_leaf_listing_and_alpha_lookup():
    rng = np.random.default_rng(11)
    t = random_tree(rng, max_depth=4)
    leaves = t.leaves()
    assert len(leaves) == t.n_leaves
    ids = [l.leaf_id for l in leaves]
    assert len(set(ids)) == len(ids)
    assert t.max_leaf_id() == max(ids)
    for l in leaves:
        assert t.alpha_of(l.leaf_id) == l.alpha


def test_feature_kinds_lists_tested_features():
    t = AlphaTree(Node(SplitTest("x", "numeric", 0.0, None),
                       Node(SplitTest("c", "categorical", None, "0"), Leaf(0, 1.0), Leaf(1, 1.0)),
                       Node(SplitTest("x", "numeric", 1.0, None), Leaf(2, 1.0), Leaf(3, 1.0))))
    assert t.feature_kinds() == {"x": "numeric", "c": "categorical"}
    assert single_leaf_tree().feature_kinds() == {}
    mixed = AlphaTree(Node(SplitTest("x", "numeric", 0.0, None), Leaf(0, 1.0),
                           Node(SplitTest("x", "categorical", None, "a"), Leaf(1, 1.0), Leaf(2, 1.0))))
    with pytest.raises(SchemaError, match="'x' is tested as both"):
        mixed.feature_kinds()


def test_alpha_at_rows_matches_pointwise_routing():
    rng = np.random.default_rng(13)
    t = random_tree(rng, max_depth=5)
    cols = probe_columns(rng, 64)
    alphas = alpha_at_rows(t, cols, 64)
    for i in range(64):
        x = {k: cols[k][i] for k in cols}
        _, a = evaluate_tree(t, x)
        assert alphas[i] == a


def test_wrapped_scores_matches_pointwise_wrap():
    rng = np.random.default_rng(17)
    t = random_tree(rng, max_depth=4)
    cols = probe_columns(rng, 40)
    q = clip_score(rng.random(40), 2.0)
    out = wrapped_scores(t, cols, q)
    for i in range(40):
        x = {k: cols[k][i] for k in cols}
        assert out[i] == wrap(t, float(q[i]), x)


def test_invert_tree_reciprocal_alphas():
    rng = np.random.default_rng(19)
    t = random_tree(rng, max_depth=4,
                    alpha_of=lambda r: float(r.choice([-2.0, 0.5, 1.0, 3.0])))
    inv = invert_tree(t)
    for l in t.leaves():
        assert inv.alpha_of(l.leaf_id) == pytest.approx(1.0 / l.alpha, rel=1e-15)


def test_invert_tree_round_trips_scores():
    rng = np.random.default_rng(23)
    t = random_tree(rng, max_depth=3,
                    alpha_of=lambda r: float(r.uniform(0.3, 3.0)))
    cols = probe_columns(rng, 30)
    q = clip_score(rng.random(30), 1.0)
    fwd = wrapped_scores(t, cols, q)
    back = wrapped_scores(invert_tree(t), cols, fwd)
    np.testing.assert_allclose(back, q, atol=1e-10)


def test_invert_tree_rejects_flattened_leaves():
    with pytest.raises(NonInvertibleError):
        invert_tree(single_leaf_tree(alpha=0.0))
