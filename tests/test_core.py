"""Alpha wrapping, clipping, and tree evaluation."""

import math
import re
import warnings
from unittest import mock

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
import alphatree.core as core
from alphatree.core import expit, xlogy

from helpers import evaluate_tree_reference, expit_reference, probe_columns, random_tree, xlogy_reference


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
    # a model file may hold any finite alpha; its product with the logit
    # overflows to inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_alpha(0.9, 1e308) == 1.0
        assert apply_alpha(0.9, -1e308) == 0.0
        assert np.array_equal(apply_alpha(np.array([0.1, 0.5, 0.9]), 1e308), [0.0, 0.5, 1.0])


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


def test_a_categorical_test_needs_a_string_modality():
    # a model file holds a modality as a JSON string: an integer one could be trained but not loaded
    for modality in (1, 1.5, None, b"a"):
        with pytest.raises(SchemaError, match=re.escape(f"needs a string modality, got {modality!r}")):
            SplitTest("g", "categorical", None, modality)
    assert SplitTest("g", "categorical", None, np.str_("a")).modality == "a"


def test_leaf_validation():
    with pytest.raises(DomainError):
        Leaf(0, math.nan)
    with pytest.raises(DomainError):
        Leaf(0, math.inf)


def test_duplicate_leaf_ids_rejected():
    node = Node(SplitTest("x", "numeric", 0.0, None), Leaf(1, 1.0), Leaf(1, 2.0))
    with pytest.raises(SchemaError):
        AlphaTree(node)


def leaf_id_error(where, top, leaf_id):
    """pytest.raises for the tree's leaf-id rule, matching its whole message."""
    message = f"{where}: leaf_id must be an integer in [0, {top}], got {leaf_id}"
    return pytest.raises(SchemaError, match="^" + re.escape(message) + "$")


def test_negative_leaf_id_rejected_instead_of_borrowing_another_leafs_alpha():
    test = SplitTest("x", "numeric", 0.0, None)
    # inside the rule, the row at x = -1 wraps 0.7 with its own leaf's alpha = 2
    valid = AlphaTree(Node(test, Leaf(2, 2.0), Leaf(0, 1.0)))
    out = wrapped_scores(valid, {"x": np.array([-1.0, 1.0])}, np.array([0.7, 0.7]))
    assert out[0] == pytest.approx(0.49 / 0.58, abs=1e-15)
    assert out[1] == pytest.approx(0.7, abs=1e-15)
    # id -1 indexed the last slot of the alpha table, leaf 0's, and wrapped 0.7 to 0.7
    with leaf_id_error("tree.left", 4, -1):
        AlphaTree(Node(test, Leaf(-1, 2.0), Leaf(0, 1.0)))


def test_single_leaf_tree_rejects_a_negative_id():
    with leaf_id_error("tree", 2, -1):
        single_leaf_tree(2.0, leaf_id=-1)
    assert single_leaf_tree(2.0, leaf_id=2).max_leaf_id() == 2


def test_leaf_id_beyond_twice_the_leaves_rejected():
    test = SplitTest("x", "numeric", 0.0, None)
    # an id of 10**12 sized the alpha table at 10**12 + 1 floats
    with leaf_id_error("tree.right", 4, 10**12):
        AlphaTree(Node(test, Leaf(0, 1.0), Leaf(10**12, 1.0)))
    with leaf_id_error("tree.right", 4, 5):
        AlphaTree(Node(test, Leaf(0, 1.0), Leaf(5, 1.0)))
    deep = Node(test, Leaf(0, 1.0), Node(SplitTest("y", "numeric", 0.0, None), Leaf(7, 1.0), Leaf(1, 1.0)))
    with leaf_id_error("tree.right.left", 6, 7):
        AlphaTree(deep)
    assert AlphaTree(Node(test, Leaf(4, 1.0), Leaf(0, 1.0))).max_leaf_id() == 4


def test_leaf_id_must_be_an_integer():
    test = SplitTest("x", "numeric", 0.0, None)
    for bad in (True, False, 1.0, 0.5, np.float64(1.0), "1", None):
        with leaf_id_error("tree.left", 4, bad):
            AlphaTree(Node(test, Leaf(bad, 1.0), Leaf(3, 1.0)))
    tree = AlphaTree(Node(test, Leaf(np.int64(1), 1.0), Leaf(np.int32(3), 1.0)))
    assert tree.max_leaf_id() == 3


def test_leaf_id_range_is_checked_before_uniqueness():
    test = SplitTest("x", "numeric", 0.0, None)
    with leaf_id_error("tree.right", 6, -1):
        AlphaTree(Node(test, Node(test, Leaf(0, 1.0), Leaf(0, 1.0)), Leaf(-1, 1.0)))
    with pytest.raises(SchemaError, match="^leaf identifiers must be unique$"):
        AlphaTree(Node(test, Node(test, Leaf(0, 1.0), Leaf(0, 1.0)), Leaf(1, 1.0)))


def test_tree_walks_its_leaves_once_per_construction(monkeypatch):
    rng = np.random.default_rng(19)
    tree = random_tree(rng, max_depth=5)
    kinds = tree.feature_kinds()  # found by one walk, on the first read
    walks = []
    real = core._walk
    monkeypatch.setattr(core, "_walk", lambda node: walks.append(node) or real(node))
    leaves = tree.leaves()
    ids = [leaf.leaf_id for leaf in leaves]
    alphas = [leaf.alpha for leaf in leaves]
    assert tree.n_leaves == len(leaves)
    assert tree.max_leaf_id() == max(ids)
    assert [tree.alpha_of(i) for i in ids] == alphas
    assert core.alpha_table(tree)[ids].tolist() == alphas
    assert tree.feature_kinds() == kinds
    q = np.full(len(ids), 0.3)
    assert wrapped_scores(tree, {}, q, ids).tolist() == apply_alpha(q, alphas).tolist()
    assert walks == []
    grown = tree.replace_leaf(leaves[0].leaf_id, Leaf(tree.max_leaf_id() + 1, 1.0))
    assert walks == [grown.root]


def test_a_tree_keeps_its_own_facts():
    tree = random_tree(np.random.default_rng(23), max_depth=4)
    kinds = tree.feature_kinds()
    kinds["x9"] = "numeric"
    assert "x9" not in tree.feature_kinds()
    with pytest.raises(ValueError, match="read-only"):
        core.alpha_table(tree)[0] = 7.0
    for leaf_id in (-1, tree.max_leaf_id() + 1, "0"):
        with pytest.raises(SchemaError, match=f"^no leaf with id {leaf_id}$"):
            tree.alpha_of(leaf_id)


def _edited(node, replacements):
    """Reference edit: node with each leaf replacements names swapped, every node above rebuilt."""
    if isinstance(node, Leaf):
        return replacements.get(node.leaf_id, node)
    return Node(node.test, _edited(node.left, replacements), _edited(node.right, replacements))


def _leaf_ids_below(node):
    return {node.leaf_id} if isinstance(node, Leaf) else _leaf_ids_below(node.left) | _leaf_ids_below(node.right)


def _assert_shares_untouched(old, new, replaced):
    """Every subtree of old with no leaf in replaced is the same object in new."""
    if not _leaf_ids_below(old) & replaced:
        assert new is old
    elif isinstance(old, Node):
        assert new is not old
        _assert_shares_untouched(old.left, new.left, replaced)
        _assert_shares_untouched(old.right, new.right, replaced)


def _random_edit(rng, tree):
    """(edit, replacements, error): a random edit of tree, the leaves it replaces, and its SchemaError or None.

    Half are a replace_leaf, half a with_leaf_updates; the replacements are
    keyed by ids the tree holds.
    """
    held = [leaf.leaf_id for leaf in tree.leaves()]
    top = tree.max_leaf_id()
    if rng.random() < 0.5:
        leaf_id = int(rng.choice(held)) if rng.random() < 0.9 else top + 1
        # ids as topdown numbers them, or one past the range rule, or a duplicate id
        pairs = [(top + 1, top + 2), (top + 1, 3 * top + 9), (top + 1, held[0])]
        a, b = pairs[int(rng.choice(3, p=[0.7, 0.15, 0.15]))]
        test = SplitTest("x0", "numeric", float(np.round(rng.normal(), 2)), None)
        subtree = Node(test, Leaf(a, 0.5), Leaf(b, 2.0)) if rng.random() < 0.8 else Leaf(leaf_id, 4.0)
        if leaf_id not in held:
            return lambda: tree.replace_leaf(leaf_id, subtree), {}, f"no leaf with id {leaf_id}"
        return lambda: tree.replace_leaf(leaf_id, subtree), {leaf_id: subtree}, None
    chosen = rng.choice(held, size=int(rng.integers(0, len(held) + 1)), replace=False).tolist()
    updates = {i: Leaf(i, float(rng.uniform(-3.0, 3.0)), edge=0.25, mass=0.5) for i in chosen}
    error = None
    if chosen and rng.random() < 0.15:
        updates[chosen[0]] = Leaf(top + 1, 1.0)
        error = "leaf update must preserve the leaf id"
    replacements = dict(updates)
    if rng.random() < 0.3:
        updates[top + 1 + int(rng.integers(0, 3))] = Leaf(0, 1.0)  # an id the tree does not hold: ignored
    return lambda: tree.with_leaf_updates(updates), replacements, error


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_an_edit_equals_the_tree_built_from_the_edited_root(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=int(rng.integers(0, 5)))
    edit, replacements, error = _random_edit(rng, tree)
    try:
        if error is not None:
            raise SchemaError(error)
        expected = AlphaTree(_edited(tree.root, replacements))
    except SchemaError as exc:
        with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
            edit()
        return
    grown = edit()
    assert grown.root == expected.root
    assert grown.leaves() == expected.leaves()  # in order, with their ids and alphas
    assert grown.max_leaf_id() == expected.max_leaf_id()
    np.testing.assert_array_equal(core.alpha_table(grown), core.alpha_table(expected))
    cols = probe_columns(rng, 40)
    np.testing.assert_array_equal(core.route_rows(grown, cols, 40), core.route_rows(expected, cols, 40))
    _assert_shares_untouched(tree.root, grown.root, set(replacements))


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
        _, a = evaluate_tree_reference(t, x)
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


# ---------------------------------------------------------------------------
# one walk: a record is one row of route_rows
# ---------------------------------------------------------------------------

STUMP_X = stump(SplitTest("x", "numeric", 0.5, None), 2.0, 0.5)
STUMP_G = stump(SplitTest("g", "categorical", None, "1"), 2.0, 0.5)


def test_evaluate_tree_wrap_and_wrap_chain_route_through_route_rows(monkeypatch):
    calls = []
    real = core.route_rows

    def counting(tree, columns, n):
        calls.append(n)
        return real(tree, columns, n)

    monkeypatch.setattr(core, "route_rows", counting)
    assert evaluate_tree(STUMP_X, {"x": 0.9}) == (1, 0.5)
    assert calls == [1]
    assert wrap(STUMP_X, 0.3, {"x": 0.2}) == apply_alpha(0.3, 2.0)
    assert calls == [1, 1]
    assert wrap_chain([STUMP_X, STUMP_G, STUMP_X], 0.3, {"x": 0.2, "g": "1"}) == apply_alpha(0.3, 8.0)
    assert calls == [1] * 5


def test_a_non_finite_routed_value_is_a_domain_error():
    # each was routed to the right leaf without a word
    message = "^feature 'x' has non-finite values$"
    with pytest.raises(DomainError, match=message):
        wrapped_scores(STUMP_X, {"x": [0.2, math.nan]}, [0.3, 0.3])
    with pytest.raises(DomainError, match=message):
        core.route_rows(STUMP_X, {"x": np.array([None], dtype=object)}, 1)
    for value in (math.nan, None, math.inf, -math.inf):
        with pytest.raises(DomainError, match=message):
            evaluate_tree(STUMP_X, {"x": value})


def test_a_record_value_is_read_as_its_column_would_be():
    # an integer never equals the modality "1": the record went right, the column was refused
    message = "^feature 'g' is tested as categorical but its column is numeric$"
    with pytest.raises(SchemaError, match=message):
        evaluate_tree(STUMP_G, {"g": 1})
    with pytest.raises(SchemaError, match=message):
        core.route_rows(STUMP_G, {"g": [1]}, 1)
    # a bare ValueError from float("abc") before
    with pytest.raises(SchemaError, match="^feature 'x' is tested as numeric but its column is not$"):
        evaluate_tree(STUMP_X, {"x": "abc"})
    with pytest.raises(SchemaError, match="^rows are missing feature 'x'$"):
        evaluate_tree(STUMP_X, {"g": "1"})


def _outcome(call):
    try:
        return "value", call()
    except (ValueError, TypeError) as exc:
        return "error", type(exc).__name__, str(exc)


BAD_VALUES = {"nan": math.nan, "None": None, "abc": "abc", "int": 1}
# the bad values a column of each kind refuses; the rest are routed
UNROUTABLE = {"numeric": {"nan", "None", "abc"}, "categorical": {"nan", "int"}}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), bad=st.sampled_from(sorted(BAD_VALUES)))
def test_a_record_routes_and_fails_as_its_row_does(seed, n, bad):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    cols = probe_columns(rng, n)
    ids = core.route_rows(tree, cols, n)
    for i in range(n):
        record = {name: col[i] for name, col in cols.items()}
        leaf_id, alpha = evaluate_tree_reference(tree, record)
        assert ids[i] == leaf_id and evaluate_tree(tree, record) == (leaf_id, alpha)

    # one bad value in one tested column
    kinds = tree.feature_kinds()
    if not kinds:
        return
    name = sorted(kinds)[int(rng.integers(len(kinds)))]
    i = int(rng.integers(n))
    column = cols[name].astype(object)
    column[i] = BAD_VALUES[bad]
    record = {key: col[i] for key, col in {**cols, name: column}.items()}
    by_record = _outcome(lambda: evaluate_tree(tree, record))
    by_row = _outcome(lambda: core.route_rows(tree, {key: [value] for key, value in record.items()}, 1))
    assert by_record[0] == by_row[0]
    if by_record[0] == "value":
        assert by_record[1][0] == by_row[1][0]
    else:
        assert by_record == by_row
    assert (by_record[0] == "error") == (bad in UNROUTABLE[kinds[name]])
    if kinds[name] == "numeric":
        # the whole column fails as its bad row does
        by_column = _outcome(lambda: core.route_rows(tree, {**cols, name: column}, n))
        if by_record[0] == "error":
            assert by_column == by_record
        else:
            assert by_column[1][i] == by_record[1][0]


def test_given_leaf_ids_replace_routing(monkeypatch):
    rng = np.random.default_rng(24)
    tree = random_tree(rng, max_depth=4)
    cols = probe_columns(rng, 60)
    q = rng.uniform(0.05, 0.95, 60)
    ids = core.route_rows(tree, cols, 60)
    routed = wrapped_scores(tree, cols, q)
    monkeypatch.setattr(core, "route_rows", None)  # any routing now fails
    assert np.array_equal(wrapped_scores(tree, {}, q, ids), routed)
    assert np.array_equal(alpha_at_rows(tree, {}, 60, ids), core.alpha_table(tree)[ids])
    # one id stands for every row, as any per-row input may
    assert np.array_equal(wrapped_scores(tree, {}, q, ids[0]), apply_alpha(q, tree.alpha_of(ids[0])))


def test_a_leaf_id_that_names_no_leaf_is_a_domain_error():
    # alpha_table holds 0 at an id no leaf holds, so each took alpha 0 in silence
    grown = STUMP_X.replace_leaf(0, Node(SplitTest("x", "numeric", 0.2, None), Leaf(2, 3.0), Leaf(3, 4.0)))
    q = [0.3, 0.3]
    assert wrapped_scores(grown, {}, q, [1, 3]).tolist() == [apply_alpha(0.3, 0.5), apply_alpha(0.3, 4.0)]
    for bad in (0, -1, 4, 99):  # split, negative, past the table, far past it
        with pytest.raises(DomainError, match=f"^leaf id {bad} names no leaf of the tree$"):
            wrapped_scores(grown, {}, q, [1, bad])
        with pytest.raises(DomainError, match=f"^leaf id {bad} names no leaf of the tree$"):
            alpha_at_rows(grown, {}, 2, [bad, 1])
    with pytest.raises(DomainError, match=r"^leaf ids must be integers, got dtype float64$"):
        wrapped_scores(grown, {}, q, [1.0, 3.0])
    with pytest.raises(DomainError, match=r"^leaf ids has shape \(3,\) for 2 rows$"):
        wrapped_scores(grown, {}, q, [1, 3, 3])


def _grow_randomly(rng, tree, splits):
    """tree with `splits` random leaves replaced by random stumps, as topdown numbers them."""
    for _ in range(splits):
        leaf = tree.leaves()[int(rng.integers(tree.n_leaves))]
        if rng.random() < 0.7:
            test = SplitTest(f"x{int(rng.integers(0, 2))}", "numeric", float(np.round(rng.normal(), 2)), None)
        else:
            test = SplitTest("c0", "categorical", None, str(rng.choice(list("abc"))))
        top = tree.max_leaf_id()
        tree = tree.replace_leaf(leaf.leaf_id, Node(test, Leaf(top + 1, 1.5), Leaf(top + 2, 0.5)))
    return tree


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), rounds=st.integers(1, 6),
       scalar_c0=st.booleans())
def test_reroute_equals_a_full_route_of_the_grown_tree(seed, n, rounds, scalar_c0):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_depth=3)
    cols = probe_columns(rng, n)
    if scalar_c0:
        cols["c0"] = "b"  # one value for every row
    real = core.read_columns
    read = []

    def counting(columns, kinds, n, noun="column"):
        read.append(n)
        return real(columns, kinds, n, noun)

    ids = core.route_rows(tree, cols, n)
    for _ in range(rounds):
        grown = _grow_randomly(rng, tree, int(rng.integers(0, 4)))
        leaves = {leaf.leaf_id for leaf in grown.leaves()}
        stale = sum(i not in leaves for i in ids.tolist())
        read.clear()
        # reroute walks the subtrees that replaced leaves, never the tree from its root
        with mock.patch.object(core, "read_columns", counting), mock.patch.object(core, "route_rows", None):
            out = core.reroute(tree, grown, cols, ids)
        assert out.dtype == np.int64 and out is not ids
        np.testing.assert_array_equal(out, core.route_rows(grown, cols, n))
        # only the rows of replaced leaves are read again
        assert read == ([stale] if stale else [])
        tree, ids = grown, out


def test_reroute_refuses_ids_and_trees_it_cannot_carry():
    grown = STUMP_X.replace_leaf(0, Node(SplitTest("y", "numeric", 0.2, None), Leaf(2, 3.0), Leaf(3, 4.0)))
    cols = {"x": [0.1, 0.9, 0.3], "y": [0.1, 0.5, 0.9]}
    assert core.reroute(STUMP_X, grown, cols, [0, 1, 0]).tolist() == [2, 1, 3]
    for bad in (2, -1, 9):  # a leaf of the grown tree only, negative, past the table
        with pytest.raises(DomainError, match=f"^leaf id {bad} names no leaf of the tree$"):
            core.reroute(STUMP_X, grown, cols, [0, bad, 0])
    # trees that no replace_leaf of STUMP_X gives: another test at the root, or a leaf there
    other = stump(SplitTest("x", "numeric", 0.7, None), 2.0, 0.5)
    for tree in (other, single_leaf_tree()):
        with pytest.raises(DomainError, match="^the tree was not grown from the tree the leaf ids were routed by$"):
            core.reroute(STUMP_X, tree, cols, [0, 1, 0])
    # growing the other way round is not growth either
    with pytest.raises(DomainError, match="^the tree was not grown from the tree the leaf ids were routed by$"):
        core.reroute(grown, STUMP_X, cols, [2, 1, 3])
