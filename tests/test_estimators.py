"""Posterior estimators and tree initializers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphatree
from alphatree import (
    DomainError,
    Leaf,
    SchemaError,
    SplitTest,
    evaluate_tree,
    gaussian_plugin_eval,
    gaussian_plugin_fit,
    init_stump,
    label_plugin,
    proxy_group_tree,
    route_rows,
    stump,
)
from alphatree.estimators import ProxyTree
from helpers import proxy_group_tree_reference, proxy_predict_reference


def test_label_plugin_maps_signs():
    out = label_plugin(np.array([1, -1, -1, 1]))
    assert np.array_equal(out, [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        label_plugin(np.array([1, 0, -1]))


def gaussian_fixture():
    # positives N(0,1) exactly, negatives N(10,1) exactly (two-point fits)
    x = np.array([-1.0, 1.0, 9.0, 11.0])
    y = np.array([1, 1, -1, -1])
    w = np.ones(4)
    return gaussian_plugin_fit({"x": x}, {"x": "numeric"}, y, w)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gaussian_plugin_rejects_non_finite_weights(bad):
    x = np.array([-1.0, 1.0, 9.0, 11.0])
    y = np.array([1, 1, -1, -1])
    with pytest.raises(DomainError, match="weights must be finite"):
        gaussian_plugin_fit({"x": x}, {"x": "numeric"}, y, np.array([1.0, bad, 1.0, 1.0]))


def test_gaussian_midpoint_balance():
    model = gaussian_fixture()
    out = gaussian_plugin_eval(model, {"x": np.array([5.0])})
    assert out[0] == pytest.approx(0.5, abs=1e-12)


def test_gaussian_bayes_ratio():
    # margin is 50 - 10x, so x = 5 + ln2/10 has likelihood ratio 1:2
    model = gaussian_fixture()
    x = 5.0 + math.log(2.0) / 10.0
    out = gaussian_plugin_eval(model, {"x": np.array([x, 5.0 - math.log(2.0) / 10.0])})
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert out[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_gaussian_posterior_never_hits_the_ends():
    model = gaussian_fixture()
    out = gaussian_plugin_eval(model, {"x": np.array([-1e6, 1e6])})
    assert np.all(out >= 1e-15)
    assert np.all(out <= 1.0 - 1e-15)


def test_gaussian_categorical_smoothing():
    # pos sees {a, a}, neg sees {a, b}; domain size 2, add-one smoothing
    c = np.array(["a", "a", "a", "b"], dtype=object)
    y = np.array([1, 1, -1, -1])
    model = gaussian_plugin_fit({"c": c}, {"c": "categorical"}, y, np.ones(4))
    out = gaussian_plugin_eval(model, {"c": np.array(["a", "b", "zzz"], dtype=object)})
    # P(a|+) = 3/5, P(a|-) = 2/5, equal priors
    assert out[0] == pytest.approx(0.6, abs=1e-12)
    # P(b|+) = 1/5, P(b|-) = 2/5
    assert out[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    # unseen modality falls to the same floor for both classes
    assert out[2] == pytest.approx(0.5, abs=1e-12)


def test_gaussian_priors_respect_weights():
    # same feature distribution per class; only priors move the posterior
    x = np.array([0.0, 0.0])
    y = np.array([1, -1])
    model = gaussian_plugin_fit({"x": x}, {"x": "numeric"}, y, np.array([3.0, 1.0]))
    out = gaussian_plugin_eval(model, {"x": np.array([0.0])})
    assert out[0] == pytest.approx(0.75, abs=1e-12)


def test_gaussian_variance_floor_keeps_model_finite():
    x = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([1, 1, -1, -1])
    model = gaussian_plugin_fit({"x": x}, {"x": "numeric"}, y, np.ones(4))
    out = gaussian_plugin_eval(model, {"x": np.array([1.0, 2.0])})
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.5, abs=1e-12)


def test_gaussian_fit_validation():
    x = {"x": np.array([0.0, 1.0])}
    with pytest.raises(DomainError):
        gaussian_plugin_fit(x, {"x": "numeric"}, np.array([1, 1]), np.ones(2))
    with pytest.raises(DomainError):
        gaussian_plugin_fit(x, {"x": "numeric"}, np.array([1, 0]), np.ones(2))
    with pytest.raises(DomainError):
        gaussian_plugin_fit(x, {"x": "numeric"}, np.array([1, -1]), np.array([1.0, -1.0]))


def test_estimators_need_a_feature_column():
    with pytest.raises(DomainError, match="no feature columns"):
        gaussian_plugin_fit({}, {}, np.array([1, -1]), np.ones(2))
    with pytest.raises(DomainError, match="no feature columns"):
        proxy_group_tree({}, {}, np.array(["a", "b"], dtype=object))


def test_gaussian_row_order_invariance():
    rng = np.random.default_rng(0)
    n = 200
    x = rng.normal(0.0, 1.0, n)
    c = rng.choice(np.array(list("abc"), dtype=object), n)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    w = rng.uniform(0.5, 2.0, n)
    probe = {"x": rng.normal(0.0, 1.0, 20),
             "c": rng.choice(np.array(list("abc"), dtype=object), 20)}
    m1 = gaussian_plugin_fit({"x": x, "c": c}, {"x": "numeric", "c": "categorical"}, y, w)
    perm = rng.permutation(n)
    m2 = gaussian_plugin_fit({"x": x[perm], "c": c[perm]},
                             {"x": "numeric", "c": "categorical"}, y[perm], w[perm])
    np.testing.assert_allclose(gaussian_plugin_eval(m1, probe),
                               gaussian_plugin_eval(m2, probe), atol=1e-12)


def test_init_stump_routes_sorted_modalities():
    t = init_stump(("b", "c", "a"))
    assert t.n_leaves == 3
    # leaves are numbered along the sorted modality order
    assert evaluate_tree(t, {"group": "a"}) == (0, 1.0)
    assert evaluate_tree(t, {"group": "b"}) == (1, 1.0)
    assert evaluate_tree(t, {"group": "c"}) == (2, 1.0)


def test_init_stump_single_modality():
    t = init_stump(("only",))
    assert t.n_leaves == 1
    assert t.alpha_of(0) == 1.0


def test_init_stump_custom_column():
    t = init_stump(("x", "y"), group_column="sensitive")
    assert evaluate_tree(t, {"sensitive": "x"})[0] == 0


def test_proxy_tree_recovers_separable_groups():
    rng = np.random.default_rng(1)
    n = 120
    x = np.concatenate([rng.uniform(-2.0, -0.5, 60), rng.uniform(0.5, 2.0, 60)])
    groups = np.array(["m"] * 60 + ["f"] * 60, dtype=object)
    proxy = proxy_group_tree({"x": x}, {"x": "numeric"}, groups, min_leaf=10)
    pred = proxy.predict({"x": x})
    assert np.array_equal(pred, groups)


def test_proxy_tree_depth_zero_is_majority_vote():
    groups = np.array(["a"] * 7 + ["b"] * 3, dtype=object)
    x = np.arange(10, dtype=float)
    proxy = proxy_group_tree({"x": x}, {"x": "numeric"}, groups,
                             max_depth=0, min_leaf=1)
    assert isinstance(proxy.tree.root, Leaf)
    assert proxy.labels == ("a",)
    pred = proxy.predict({"x": x})
    assert np.all(pred == "a")


def test_proxy_tree_majority_misassigns_minority_rows():
    # one mixed leaf per side: majority vote flips exactly two rows
    x = np.array([0.0] * 4 + [1.0] * 4)
    groups = np.array(["a", "a", "a", "b", "b", "b", "b", "a"], dtype=object)
    proxy = proxy_group_tree({"x": x}, {"x": "numeric"}, groups,
                             max_depth=2, min_leaf=1)
    pred = proxy.predict({"x": x})
    assert np.array_equal(pred, ["a"] * 4 + ["b"] * 4)


def test_proxy_tree_min_leaf_blocks_splits():
    x = np.array([0.0] * 4 + [1.0] * 4)
    groups = np.array(["a"] * 4 + ["b"] * 4, dtype=object)
    proxy = proxy_group_tree({"x": x}, {"x": "numeric"}, groups,
                             max_depth=3, min_leaf=5)
    assert isinstance(proxy.tree.root, Leaf)


@pytest.mark.parametrize("min_leaf", [0, -1, -30])
def test_proxy_tree_min_leaf_below_one_is_a_domain_error(min_leaf):
    x = np.array([0.0] * 4 + [1.0] * 4)
    groups = np.array(["a"] * 4 + ["b"] * 4, dtype=object)
    with pytest.raises(DomainError, match=rf"^proxy group tree min_leaf must be >= 1, got {min_leaf}$"):
        proxy_group_tree({"x": x}, {"x": "numeric"}, groups, max_depth=3, min_leaf=min_leaf)


def test_alpha_tree_from_proxy_identity_partition():
    rng = np.random.default_rng(2)
    n = 200
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(0.0, 1.0, n)
    groups = np.where(x + 0.3 * z > 0, "g1", "g0").astype(object)
    proxy = proxy_group_tree({"x": x, "z": z}, {"x": "numeric", "z": "numeric"},
                             groups, max_depth=3, min_leaf=20)
    tree = proxy.tree
    assert tree.n_leaves == len(proxy.labels) > 1
    # ids run 0..L-1 from left to right
    assert [l.leaf_id for l in tree.leaves()] == list(range(len(proxy.labels)))
    assert all(l.alpha == 1.0 for l in tree.leaves())
    # rows of one leaf get that leaf's proxy modality
    ids = route_rows(tree, {"x": x, "z": z}, n)
    pred = proxy.predict({"x": x, "z": z})
    for lid in np.unique(ids):
        assert set(pred[ids == lid].tolist()) == {proxy.labels[lid]}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    n_classes=st.integers(2, 5),
    numeric=st.lists(st.sampled_from(["round2", "ulp"]), max_size=3),
    n_categorical=st.integers(0, 2),
    duplicate=st.booleans(),
    min_leaf=st.sampled_from([1, 5, 30]),
    max_depth=st.sampled_from([0, 1, 8]),
)
def test_proxy_tree_matches_row_loop_reference(
    seed, n, n_classes, numeric, n_categorical, duplicate, min_leaf, max_depth,
):
    rng = np.random.default_rng(seed)
    # the last class is rare, so many nodes lack it
    p = np.full(n_classes, 1.0)
    p[-1] = 0.1
    y = rng.choice(n_classes, n, p=p / p.sum())
    groups = np.array([f"g{c}" for c in y], dtype=object)
    columns, kinds = {}, {}
    for j, style in enumerate(numeric):
        signal = y + rng.normal(0.0, rng.choice([0.3, 1.0, 3.0]), n)
        if style == "round2":
            # heavy ties: a narrow range at two decimals
            values = np.round(0.1 * signal, 2)
        else:
            # neighbouring floats: midpoints of odd/even pairs round up
            values = 1.0 + np.spacing(1.0) * np.clip(np.round(signal), 0, 6)
        columns[f"x{j}"], kinds[f"x{j}"] = values, "numeric"
    for j in range(n_categorical):
        codes = np.where(rng.random(n) < 0.6, y, rng.integers(0, 4, n)) % 4
        columns[f"c{j}"] = np.array(list("abcd"), dtype=object)[codes]
        kinds[f"c{j}"] = "categorical"
    if not kinds:
        columns["x"], kinds["x"] = np.round(rng.normal(0.0, 1.0, n), 2), "numeric"
    if duplicate:
        # an exact copy ties every split with its source: the earlier name must win
        first = next(iter(kinds))
        columns["dup"], kinds["dup"] = columns[first].copy(), kinds[first]
    fast = proxy_group_tree(columns, kinds, groups, max_depth=max_depth, min_leaf=min_leaf)
    ref = proxy_group_tree_reference(columns, kinds, groups, max_depth=max_depth, min_leaf=min_leaf)
    assert fast == ref
    assert fast.predict(columns).tolist() == proxy_predict_reference(ref, columns).tolist()


def mixed_plugin():
    return gaussian_plugin_fit({"x": np.array([0.1, 0.5, 0.9, 0.3]), "c": np.array(list("abab"), dtype=object)},
                               {"x": "numeric", "c": "categorical"}, [1, -1, 1, -1], 1.0)


def test_proxy_predict_reads_only_the_columns_its_tree_tests():
    # the row count came from the first column given, tested or not
    proxy = ProxyTree(stump(SplitTest("x", "numeric", 0.5, None), 1.0, 1.0), ("a", "b"))
    for z in (np.ones(5), 3.0):
        assert proxy.predict({"z": z, "x": [0.1, 0.9]}).tolist() == ["a", "b"]
    assert ProxyTree(init_stump(("only",)), ("only",)).predict({"z": np.ones(3)}).tolist() == ["only"] * 3


def test_gaussian_plugin_eval_takes_one_value_of_its_first_column_for_every_row():
    # the first column set the row count, so it could not be one value
    model = mixed_plugin()
    c = np.array(["a", "b", "a"], dtype=object)
    assert gaussian_plugin_eval(model, {"x": 0.3, "c": c}).tolist() == \
        gaussian_plugin_eval(model, {"x": np.full(3, 0.3), "c": c}).tolist()


def test_the_estimators_reject_a_non_finite_numeric_value():
    # NaN gave NaN posteriors and class moments, and the proxy tree sent its row right
    x = np.array([0.1, np.nan, 0.9, 0.3])
    message = "^feature 'x' has non-finite values$"
    with pytest.raises(DomainError, match=message):
        gaussian_plugin_fit({"x": x}, {"x": "numeric"}, [1, -1, 1, -1], 1.0)
    with pytest.raises(DomainError, match=message):
        gaussian_plugin_eval(mixed_plugin(), {"x": [np.nan, 0.3], "c": ["a", "b"]})
    with pytest.raises(DomainError, match=message):
        proxy_group_tree({"x": x}, {"x": "numeric"}, ["a", "b", "a", "b"], min_leaf=1)


def test_the_estimators_name_a_missing_column():
    # each was a bare KeyError: 'x'
    message = "^rows are missing feature 'x'$"
    with pytest.raises(SchemaError, match=message):
        gaussian_plugin_fit({"c": ["a", "b"]}, {"x": "numeric"}, [1, -1], 1.0)
    with pytest.raises(SchemaError, match=message):
        gaussian_plugin_eval(mixed_plugin(), {"c": ["a", "b"]})
    with pytest.raises(SchemaError, match=message):
        proxy_group_tree({"c": ["a", "b"]}, {"x": "numeric"}, ["a", "b"], min_leaf=1)


def test_proxy_tree_deeper_than_a_model_file_holds_is_a_schema_error():
    # build recurses once per level, and the bound must be met before the recursion limit is; a fresh
    # process has a command's stack, where pytest's frames would use up part of it
    code = (
        "import numpy as np\n"
        "from alphatree import SchemaError, proxy_group_tree\n"
        "x = {'x': np.arange(1000.0)}\n"
        "groups = np.array(['a', 'b'] * 500, dtype=object)\n"
        "print(proxy_group_tree(x, {'x': 'numeric'}, groups, max_depth=960, min_leaf=1).tree.n_leaves)\n"
        "try:\n"
        "    proxy_group_tree(x, {'x': 'numeric'}, groups, max_depth=5000, min_leaf=1)\n"
        "except SchemaError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(alphatree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "961\nproxy group tree grows past 960 tests deep; a model file holds at most 960\n"
