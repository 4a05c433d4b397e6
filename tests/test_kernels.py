"""The split scan and search under each tree's score against their loop references, and
the scan's boundary rules."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphatree._kernels as kernels
from alphatree import InductionConfig, full_view, make_dataset, proxy_group_tree, route_rows, single_leaf_tree
from alphatree.boosting import _grow
from alphatree.core import expit
from alphatree._kernels import (
    alignment_score,
    child_order,
    class_entropy,
    class_score,
    midpoint_threshold,
    numeric_order,
    numeric_split_scan,
    split_search,
)

from helpers import _class_entropy, numeric_split_scan_reference, split_search_reference


def alignment_scan(values, cumw, cuma, min_mass, min_count):
    """The scan of one sorted column: (left_count, score)."""
    prefix = np.stack([cumw, cuma])[:, None, :]
    return numeric_split_scan(values[None], prefix, alignment_score(min_mass), min_count)[1:]


def class_scan(values, labels, classes, min_count):
    prefix = np.cumsum(np.eye(classes, dtype=np.int64).take(labels, axis=1), axis=1)
    return numeric_split_scan(values[None], prefix[:, None, :], class_score, min_count)[1:]


def scan_inputs(rng, n, tie_prob=0.3):
    values = np.sort(rng.normal(0.0, 1.0, n))
    if tie_prob and rng.random() < tie_prob:
        values = np.round(values, 1)
        values.sort()
    w = rng.uniform(0.2, 2.0, n)
    w = w / w.sum()
    align = rng.uniform(-1.0, 1.0, n)
    cumw = np.cumsum(w)
    cuma = np.cumsum(w * align)
    return values, cumw, cuma


def test_scan_matches_loop_reference_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 200))
        values, cumw, cuma = scan_inputs(rng, n)
        min_mass = float(rng.choice([0.0, 0.05, 0.2]))
        min_count = int(rng.choice([1, 2, 5]))
        i_np, post_np = alignment_scan(values, cumw, cuma, min_mass, min_count)
        i_ref, post_ref = numeric_split_scan_reference(values, cumw, cuma, min_mass, min_count)
        assert i_np == i_ref
        # same arithmetic on both paths, so bitwise equality is required
        assert post_np == post_ref or (np.isinf(post_np) and np.isinf(post_ref))


def test_no_boundary_between_equal_values():
    values = np.full(10, 3.0)
    w = np.full(10, 0.1)
    cumw = np.cumsum(w)
    cuma = np.cumsum(w * 0.5)
    i, post = alignment_scan(values, cumw, cuma, 0.0, 1)
    assert i == -1 and np.isinf(post)


def test_min_count_rejects_thin_children():
    rng = np.random.default_rng(1)
    values, cumw, cuma = scan_inputs(rng, 8, tie_prob=0.0)
    i, post = alignment_scan(values, cumw, cuma, 0.0, 5)
    assert i == -1 and np.isinf(post)
    i, post = alignment_scan(values, cumw, cuma, 0.0, 4)
    assert i in (-1, 4)


def test_min_mass_rejects_light_children():
    values = np.arange(4, dtype=float)
    w = np.array([0.05, 0.05, 0.45, 0.45])
    align = np.array([-1.0, -1.0, 1.0, 1.0])
    cumw = np.cumsum(w)
    cuma = np.cumsum(w * align)
    # only the 3|1 boundary leaves >= 0.3 on both sides
    i, post = alignment_scan(values, cumw, cuma, 0.3, 1)
    assert i == 3
    i, post = alignment_scan(values, cumw, cuma, 0.5, 1)
    assert i == -1
    # a child of exactly min_mass qualifies
    w = np.full(4, 0.25)
    i, post = alignment_scan(values, np.cumsum(w), np.cumsum(w * align), 0.5, 1)
    assert i == 2


def test_scan_prefers_pure_boundary():
    # perfectly aligned halves: both children reach entropy zero
    values = np.array([0.0, 0.0, 1.0, 1.0])
    w = np.full(4, 0.25)
    align = np.array([-1.0, -1.0, 1.0, 1.0])
    cumw = np.cumsum(w)
    cuma = np.cumsum(w * align)
    i, post = alignment_scan(values, cumw, cuma, 0.0, 1)
    assert i == 2
    assert post == 0.0


def test_midpoint_threshold_stays_below_upper_run():
    u = np.spacing(1.0)
    # (1+u + 1+2u) / 2 rounds up to 1+2u; the cut falls back to the lower run
    sv = np.array([1.0 + u, 1.0 + 2 * u])
    assert midpoint_threshold(sv, 1) == 1.0 + u
    assert midpoint_threshold(np.array([0.0, 1.0]), 1) == 0.5


def test_class_entropy_rows_match_scalar_bitwise():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 5, 8, 9, 12):
        full = rng.integers(1, 50, (300, k))
        # zero out classes per row so rows differ in nonzero width
        sparse = np.where(rng.random((300, k)) < 0.3, 0, full)
        sparse[0] = 0
        for counts in (full, sparse):
            rows = class_entropy(counts)
            expected = np.array([_class_entropy(c.astype(float)) for c in counts])
            assert np.array_equal(rows, expected)
            assert class_entropy(counts[1]) == expected[1]


@pytest.mark.parametrize("k", [7, 8])
def test_class_entropy_with_an_absent_class_matches_scalar_bitwise(k):
    # 7 classes take the one-pass path and 8 the grouped one; every row lacks one class
    rng = np.random.default_rng(6)
    counts = rng.integers(1, 1000, (600, k))
    counts[np.arange(600), rng.integers(0, k, 600)] = 0
    rows = class_entropy(counts)
    expected = np.array([_class_entropy(c.astype(float)) for c in counts])
    assert rows.tobytes() == expected.tobytes()
    assert all(np.float64(class_entropy(c)).tobytes() == e.tobytes() for c, e in zip(counts[:50], expected))


def test_class_score_scan_scores_every_boundary():
    values = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    labels = np.array([0, 0, 1, 1, 1, 1])
    assert class_scan(values, labels, 2, 1) == (2, 0.0)
    # three rows per side allow only the impure boundary 3
    i, h = class_scan(values, labels, 2, 3)
    assert i == 3 and h == 3 * _class_entropy(np.array([2.0, 1.0]))
    i, h = class_scan(values, labels, 2, 4)
    assert i == -1 and np.isinf(h)
    assert class_scan(values[:1], labels[:1], 2, 1)[0] == -1


def test_class_score_matches_scalar_entropies_bitwise():
    # from 8 classes on, a row sum's order depends on the block's layout
    rng = np.random.default_rng(5)
    for k in (2, 3, 8, 12):
        # every boundary, and middle ones where no class is absent on either side
        for lo, hi in ((0, 399), (150, 250)):
            labels = rng.integers(0, k, 400)
            prefix = np.cumsum(np.eye(k, dtype=np.int64).take(labels, axis=1), axis=1)
            left = prefix.take(np.arange(lo, hi), axis=1)
            right = prefix[:, -1:] - left
            expected = [_class_entropy(lc.astype(float)) * lc.sum() + _class_entropy(rc.astype(float)) * rc.sum()
                        for lc, rc in zip(left.T, right.T)]
            assert np.array_equal(class_score(left, right), expected)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    n_numeric=st.integers(0, 4),
    n_categorical=st.integers(0, 3),
    n_duplicates=st.integers(0, 2),
    decimals=st.integers(0, 2),
    scoring=st.sampled_from(["alignment", "class"]),
    classes=st.integers(2, 10),
    min_count=st.integers(1, 40),
)
def test_split_search_matches_per_feature_loop_bitwise(
    seed, n, n_numeric, n_categorical, n_duplicates, decimals, scoring, classes, min_count,
):
    rng = np.random.default_rng(seed)
    columns, kinds = {}, {}
    for j in range(n_numeric):
        # few decimals force tied values, and tied candidates across features
        columns[f"x{j}"] = np.round(rng.normal(0.0, 1.0, n), decimals)
        kinds[f"x{j}"] = "numeric"
    for j in range(n_categorical):
        columns[f"c{j}"] = rng.choice(np.array(list("abcd")[: int(rng.integers(1, 5))], dtype=object), n)
        kinds[f"c{j}"] = "categorical"
    for j in range(n_duplicates if kinds else 0):
        # a copied feature ties its original exactly; the earlier one must win
        name = str(rng.choice(list(kinds)))
        columns[f"d{j}"] = columns[name].copy()
        kinds[f"d{j}"] = kinds[name]
    names = list(kinds)
    rng.shuffle(names)
    kinds = {name: kinds[name] for name in names}
    if scoring == "alignment":
        w = rng.uniform(0.5, 2.0, n) * (rng.random(n) >= 0.2)
        w[0] = 1.0
        w = w / w.sum()
        stats = np.stack([w, w * rng.uniform(-1.0, 1.0, n)])
        score = alignment_score(float(rng.uniform(0.001, 0.3)) * w.sum())
    else:
        stats = np.eye(classes, dtype=np.int64).take(rng.integers(0, classes, n), axis=1)
        score = class_score
    got = split_search(columns, kinds, stats, score, min_count)
    expected = split_search_reference(columns, kinds, stats, score, min_count)
    if expected is None:
        assert got is None
        return
    assert got[0] == expected[0] and got[1] == expected[1]
    assert got[2].dtype == expected[2].dtype and np.array_equal(got[2], expected[2])


def test_child_order_is_the_childs_own_stable_order():
    rng = np.random.default_rng(7)
    values = np.round(rng.normal(0.0, 1.0, (3, 200)), 0)  # many ties
    columns = {f"x{j}": values[j] for j in range(3)}
    kinds = dict.fromkeys(columns, "numeric")
    order = numeric_order(columns, kinds)
    for mask in (rng.random(200) < 0.4, np.zeros(200, dtype=bool), np.ones(200, dtype=bool)):
        child = child_order(order, mask)
        expected = numeric_order({name: col[mask] for name, col in columns.items()}, kinds)
        assert child.dtype == expected.dtype and np.array_equal(child, expected)
    assert numeric_order({"c": np.array(["a"], dtype=object)}, {"c": "categorical"}) is None
    assert child_order(None, np.ones(1, dtype=bool)) is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    n_numeric=st.integers(1, 3),
    with_categorical=st.booleans(),
    decimals=st.integers(0, 1),
    min_count=st.integers(1, 12),
)
def test_every_inherited_order_is_a_fresh_stable_argsort(seed, n, n_numeric, with_categorical, decimals, min_count):
    """Both trees hand each searched node an order; it must be the node's own stable argsort."""
    rng = np.random.default_rng(seed)
    features, kinds = {}, {}
    for j in range(n_numeric):
        # few decimals force ties, which a stable order breaks by row
        features[f"x{j}"] = np.round(rng.normal(0.0, 1.0, n), decimals)
        kinds[f"x{j}"] = "numeric"
    if with_categorical:
        features["c"] = rng.choice(np.array(list("abc"), dtype=object), n)
        kinds["c"] = "categorical"
    real_search = kernels.split_search
    orders = []

    def checking_search(columns, search_kinds, stats, score, count, order=None):
        numeric = [name for name, kind in search_kinds.items() if kind == "numeric"]
        fresh = np.argsort(np.stack([np.asarray(columns[name], dtype=float) for name in numeric]),
                           axis=1, kind="stable")
        assert order is not None and np.array_equal(order, fresh)
        orders.append(order.shape[1])
        return real_search(columns, search_kinds, stats, score, count, order)

    groups = np.where(features["x0"] + rng.normal(0.0, 0.5, n) > 0, "g1", "g0").astype(object)
    with mock.patch.object(kernels, "split_search", checking_search):
        proxy = proxy_group_tree(features, kinds, groups, max_depth=6, min_leaf=min_count)
    # every internal node was searched once, and so were some leaves
    assert len(orders) >= proxy.tree.n_leaves - 1

    B = 2.0
    scores = expit(B * rng.uniform(-1.0, 1.0, n))
    eta = rng.uniform(0.05, 0.95, n)
    labels = np.where(rng.random(n) < eta, 1, -1)
    ds = make_dataset(features, kinds, labels, groups, scores, B)
    cfg = InductionConfig(max_iterations=12, min_child_count=min_count, min_child_fraction=0.05)
    leaf_ids = route_rows(single_leaf_tree(), ds.columns, ds.n)
    orders.clear()
    with mock.patch.object(kernels, "split_search", checking_search):
        grown = list(_grow(full_view(ds), eta, ds.scores, B, single_leaf_tree(), cfg, leaf_ids))
    assert len(orders) >= len(grown) - 1
