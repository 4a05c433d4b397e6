"""Dataset assembly, weighted views, risk, and traces."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatree import (
    DomainError,
    EmptyMeasureError,
    InfiniteRiskError,
    RunTrace,
    SchemaError,
    SplitTest,
    binary_entropy,
    clip_bounds,
    condition_on_group,
    empirical_risk,
    full_view,
    gaussian_plugin_fit,
    label_plugin,
    load_dataset,
    make_dataset,
    make_view,
    proxy_group_tree,
    route_rows,
    split_plan,
    stump,
)
import alphatree.data as data_module
from alphatree.data import View, category_codes, read_labels

from helpers import (assert_same_levels, decoded, evaluate_tree_reference, level_column, level_names, levels,
                     probe_columns, random_dataset, random_tree, split_plan_reference)

LOG2 = math.log(2.0)


def tiny_dataset():
    n = 6
    return make_dataset(
        {"x": np.arange(n, dtype=float)},
        {"x": "numeric"},
        np.array([1, -1, 1, -1, 1, -1]),
        ["a"] * 3 + ["b"] * 3,
        np.full(n, 0.6),
        1.0,
    )


def test_make_dataset_validation():
    n = 6
    feats = {"x": np.arange(n, dtype=float)}
    kinds = {"x": "numeric"}
    labels = np.array([1, -1, 1, -1, 1, -1])
    groups = ["a"] * 3 + ["b"] * 3
    scores = np.full(n, 0.6)
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, np.array([1, 0, 1, 0, 1, 0]), groups, scores, 1.0)
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, labels, groups, np.array([0.5] * 5 + [1.2]), 1.0)
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, labels, groups, scores, 1.0,
                     weights=np.array([1.0] * 5 + [-1.0]))
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, labels, groups, scores, 1.0, weights=np.zeros(n))
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, labels, groups, scores, 1.0,
                     target=np.array([0.5] * 5 + [1.5]))
    with pytest.raises(DomainError):
        make_dataset(feats, {"x": "real"}, labels, groups, scores, 1.0)
    with pytest.raises(DomainError):
        make_dataset(feats, kinds, labels[:2], groups, scores, 1.0)
    with pytest.raises(EmptyMeasureError):
        make_dataset({"x": np.array([])}, kinds, np.array([], dtype=int), [],
                     np.array([]), 1.0)


def test_make_dataset_rejects_a_nan_target():
    # NaN fails no `< 0` or `> 1` comparison, so the range check must ask for it
    with pytest.raises(DomainError, match="target posterior"):
        make_dataset({"x": np.zeros(4)}, {"x": "numeric"}, np.array([1, -1, 1, -1]), ["g"] * 4,
                     np.full(4, 0.5), 1.0, target=np.array([0.5, math.nan, 0.2, 0.1]))


def test_make_dataset_clips_scores_on_ingest():
    ds = tiny_dataset()
    lo, hi = clip_bounds(1.0)
    raw = np.array([0.0, 0.1, 0.5, 0.9, 1.0, hi])
    ds2 = make_dataset({"x": np.arange(6, dtype=float)}, {"x": "numeric"},
                       ds.labels, ds.groups, raw, 1.0)
    assert ds2.scores[0] == lo
    assert ds2.scores[4] == hi
    assert ds2.scores[2] == 0.5
    assert np.all(ds2.scores >= lo) and np.all(ds2.scores <= hi)


def test_group_column_routable_but_not_a_feature():
    ds = tiny_dataset()
    assert "group" in ds.columns
    assert "group" not in ds.feature_names
    assert ds.kinds["group"] == "categorical"
    assert decoded(ds.columns["group"]) == ds.groups.tolist()


def test_make_dataset_rejects_a_feature_named_like_the_group_column():
    ds = tiny_dataset()
    x = np.arange(6, dtype=float)
    with pytest.raises(DomainError, match="'group'"):
        make_dataset({"x": x, "group": ds.groups}, {"x": "numeric", "group": "categorical"},
                     ds.labels, ds.groups, ds.scores, 1.0)
    with pytest.raises(DomainError, match="'who'"):
        make_dataset({"who": x}, {"who": "numeric"}, ds.labels, ds.groups, ds.scores, 1.0,
                     group_column="who")
    # a feature may be named "group" when the groups are routed under another name
    ds2 = make_dataset({"group": x}, {"group": "numeric"}, ds.labels, ds.groups, ds.scores, 1.0,
                       group_column="who")
    assert ds2.feature_names == ("group",)
    assert decoded(ds2.columns["who"]) == ds2.groups.tolist() and ds2.columns["group"] is ds2.features["group"]


def test_default_weights_are_unit():
    ds = tiny_dataset()
    assert np.all(ds.weights == 1.0)


def test_full_view_normalizes_weights():
    rng = np.random.default_rng(2)
    ds, _ = random_dataset(rng)
    v = full_view(ds)
    assert v.n == ds.n
    assert v.weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(v.weights, ds.weights / ds.weights.sum(), atol=1e-15)


def test_make_view_renormalizes_and_rejects_empty():
    ds = tiny_dataset()
    v = make_view(ds, np.array([0, 2, 4]), raw_weights=np.array([1.0, 1.0, 2.0]))
    assert v.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert v.weights[2] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(EmptyMeasureError):
        make_view(ds, np.array([], dtype=int))


def test_a_view_checks_its_rows_once_and_normalizes_its_own_weights(monkeypatch):
    ds = tiny_dataset()
    calls = []
    real = data_module._view_rows
    monkeypatch.setattr(data_module, "_view_rows", lambda indices, n: calls.append(n) or real(indices, n))
    made = make_view(ds, [0, 2, 4], raw_weights=[1.0, 1.0, 2.0])
    assert calls == [ds.n]
    # a View built directly holds the same rows and weights, summing to 1
    direct = View(ds, [0, 2, 4], [1.0, 1.0, 2.0])
    assert direct.weights.tolist() == made.weights.tolist() == [0.25, 0.25, 0.5]
    assert direct.indices.dtype == np.int64
    assert View(ds, [1, 3]).weights.tolist() == (ds.weights[[1, 3]] / ds.weights[[1, 3]].sum()).tolist()
    with pytest.raises(EmptyMeasureError, match="^view has zero total weight$"):
        View(ds, [0, 1], [0.0, 0.0])


def test_view_pick_requires_base_alignment():
    ds = tiny_dataset()
    v = make_view(ds, np.array([0, 1]))
    with pytest.raises(DomainError):
        v.pick(np.zeros(3))
    assert np.array_equal(v.pick(np.arange(6)), [0, 1])


def test_condition_on_group_selects_rows():
    ds = tiny_dataset()
    va = condition_on_group(ds, "a")
    assert np.array_equal(va.indices, [0, 1, 2])
    with pytest.raises(EmptyMeasureError):
        condition_on_group(ds, "zzz")


def test_group_rows_index_the_groups_of_each_dataset():
    ds = tiny_dataset()
    rows = ds.group_rows
    assert list(rows) == ["a", "b"]
    assert np.array_equal(rows["a"], [0, 1, 2]) and np.array_equal(rows["b"], [3, 4, 5])
    assert ds.group_rows is rows
    g2 = np.array(["d", "c", "d", "e", "c", "d"], dtype=object)
    ds2 = dataclasses.replace(ds, groups=g2)
    assert list(ds2.group_rows) == ["c", "d", "e"]
    for g, idx in ds2.group_rows.items():
        assert np.array_equal(idx, np.flatnonzero(g2 == g))
    assert np.array_equal(condition_on_group(ds2, "d").indices, [0, 2, 5])
    with pytest.raises(EmptyMeasureError):
        condition_on_group(ds2, "a")
    assert ds.group_rows is rows and list(rows) == ["a", "b"]


def test_route_rows_matches_pointwise_evaluation():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, max_depth=4)
    cols = probe_columns(rng, 50)
    ids = route_rows(tree, cols, 50)
    for i in range(50):
        x = {k: cols[k][i] for k in cols}
        lid, _ = evaluate_tree_reference(tree, x)
        assert ids[i] == lid


def test_route_rows_rejects_a_column_of_the_wrong_kind():
    # a modality string never equals a number, so every row would go right
    cat = stump(SplitTest("code", "categorical", None, "7"), 1.0, 2.0)
    with pytest.raises(SchemaError, match="feature 'code' is tested as categorical"):
        route_rows(cat, {"code": np.array([7.0, 8.0])}, 2)
    assert route_rows(cat, {"code": np.array(["7", "8"], dtype=object)}, 2).tolist() == [0, 1]
    num = stump(SplitTest("x", "numeric", 0.5, None), 1.0, 2.0)
    with pytest.raises(SchemaError, match="feature 'x' is tested as numeric"):
        route_rows(num, {"x": np.array(["A1", "0.2"], dtype=object)}, 2)


def test_route_rows_takes_plain_list_columns():
    num = stump(SplitTest("x", "numeric", 0.0, None), 1.0, 2.0)
    assert route_rows(num, {"x": [-1.0, 1.0]}, 2).tolist() == [0, 1]
    cat = stump(SplitTest("code", "categorical", None, "7"), 1.0, 2.0)
    assert route_rows(cat, {"code": ["7", "8"]}, 2).tolist() == [0, 1]
    # a list of the wrong kind is still a SchemaError
    with pytest.raises(SchemaError, match="feature 'code' is tested as categorical"):
        route_rows(cat, {"code": [7.0, 8.0]}, 2)
    with pytest.raises(SchemaError, match="feature 'x' is tested as numeric"):
        route_rows(num, {"x": ["A1", "0.2"]}, 2)


def test_binary_entropy_oracle_and_edges():
    assert binary_entropy(0.75) == pytest.approx(0.5623351446188083, abs=1e-15)
    assert binary_entropy(0.5) == pytest.approx(LOG2, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # tolerance band just outside [0, 1] comes from float noise upstream
    assert binary_entropy(-5e-13) == 0.0
    assert binary_entropy(1.0 + 5e-13) == 0.0
    with pytest.raises(DomainError):
        binary_entropy(1.5)
    with pytest.raises(DomainError):
        binary_entropy(-1e-6)


def test_binary_entropy_rejects_nan():
    # [0.3, nan] returned [0.611, nan]
    with pytest.raises(DomainError, match="requires p in"):
        binary_entropy(np.array([0.3, math.nan]))


def test_binary_entropy_concave_symmetric():
    eta = np.linspace(0.0, 1.0, 41)
    h = np.array([binary_entropy(float(e)) for e in eta])
    np.testing.assert_allclose(h, h[::-1], atol=1e-14)
    assert np.argmax(h) == 20


def test_empirical_risk_constant_half():
    ds = tiny_dataset()
    v = full_view(ds)
    eta = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert empirical_risk(v, np.full(6, 0.5), eta) == pytest.approx(LOG2, abs=1e-12)


def test_empirical_risk_known_value():
    # single row, eta = 1, q = 1/e: risk is exactly 1
    ds = make_dataset({"x": np.zeros(1)}, {"x": "numeric"}, np.array([1]),
                      ["g"], np.array([0.5]), 2.0)
    v = full_view(ds)
    q = np.array([math.exp(-1.0)])
    assert empirical_risk(v, q, np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_empirical_risk_infinite_on_confident_mistake():
    ds = tiny_dataset()
    v = full_view(ds)
    q = np.array([0.0] + [0.5] * 5)
    with pytest.raises(InfiniteRiskError):
        empirical_risk(v, q, np.ones(6))
    # but a zero-probability event costs nothing when eta is zero too
    r = empirical_risk(v, np.array([1e-300] + [0.5] * 5), np.zeros(6))
    assert math.isfinite(r)


def test_empirical_risk_rejects_a_nan_posterior():
    # a domain error, not an infinite risk: q never hit 0 or 1
    v = full_view(tiny_dataset())
    with pytest.raises(DomainError, match=r"posterior values must lie in \[0, 1\]"):
        empirical_risk(v, np.array([math.nan] + [0.5] * 5), np.ones(6))


def test_empirical_risk_checks_the_target_posterior():
    # NaN read as an infinite risk, and 1.5 returned log 2 with no error
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"}, np.array([1, -1, 1]), ["g"] * 3,
                      np.full(3, 0.5), 1.0)
    v, q = full_view(ds), np.full(3, 0.5)
    for eta in ([0.5, math.nan, 0.2], [0.5, 1.5, 0.2], [-0.1, 0.5, 0.2]):
        with pytest.raises(DomainError, match=r"^target posterior must lie in \[0, 1\]$"):
            empirical_risk(v, q, np.array(eta))
    with pytest.raises(DomainError, match=r"^target posterior has shape \(4,\) for 3 rows$"):
        empirical_risk(v, q, np.full(4, 0.5))
    # only the view's rows are read, so only they are checked
    assert empirical_risk(make_view(ds, [0, 2]), q, np.array([0.5, math.nan, 0.2])) == LOG2
    assert empirical_risk(v, q, 0.3) == empirical_risk(v, q, np.full(3, 0.3))


def test_make_dataset_target_takes_one_value_for_every_row():
    # a scalar target raised IndexError
    ds = make_dataset({"x": np.zeros(3)}, {"x": "numeric"}, np.array([1, -1, 1]), ["g"] * 3,
                      np.full(3, 0.5), 1.0, target=0.25)
    assert ds.target.tolist() == [0.25] * 3
    with pytest.raises(DomainError, match=r"target posterior has shape \(2,\) for 3 rows"):
        make_dataset({"x": np.zeros(3)}, {"x": "numeric"}, np.array([1, -1, 1]), ["g"] * 3,
                     np.full(3, 0.5), 1.0, target=np.full(2, 0.25))


def test_empirical_risk_proper():
    # cross entropy is minimized only by the target itself
    rng = np.random.default_rng(9)
    ds, _ = random_dataset(rng, n_min=100, n_max=100)
    v = full_view(ds)
    eta = rng.uniform(0.1, 0.9, ds.n)
    base = empirical_risk(v, eta, eta)
    ideal = float(np.sum(v.weights * [binary_entropy(float(e)) for e in v.pick(eta)]))
    assert base == pytest.approx(ideal, abs=1e-10)
    for _ in range(20):
        q = np.clip(eta + rng.uniform(-0.08, 0.08, ds.n), 0.05, 0.95)
        assert empirical_risk(v, q, eta) >= base - 1e-12


def test_empirical_risk_tower_over_leaves():
    # total risk decomposes as the mass-weighted sum of per-leaf risks
    rng = np.random.default_rng(10)
    n = 200
    cols = probe_columns(rng, n)
    ds = make_dataset(cols, {"x0": "numeric", "x1": "numeric", "c0": "categorical"},
                      np.where(rng.random(n) < 0.5, 1, -1), ["g"] * n,
                      rng.uniform(0.3, 0.7, n), 1.0,
                      weights=rng.uniform(0.5, 2.0, n))
    eta = rng.uniform(0.05, 0.95, n)
    tree = random_tree(rng, max_depth=3)
    q = np.clip(rng.uniform(0.1, 0.9, ds.n), 0.1, 0.9)
    v = full_view(ds)
    total = empirical_risk(v, q, eta)
    leaf_ids = route_rows(tree, ds.columns, ds.n)[v.indices]
    acc = 0.0
    for leaf_id in np.unique(leaf_ids):
        rows = leaf_ids == leaf_id
        vl = make_view(ds, v.indices[rows], raw_weights=v.weights[rows])
        acc += float(v.weights[rows].sum()) * empirical_risk(vl, q, eta)
    assert acc == pytest.approx(total, abs=1e-12)


def test_run_trace_round_trip():
    tr = RunTrace()
    tr.add(0, "risk", 1.0)
    tr.add(0, "gap", 2.0)
    tr.add(1, "risk", 0.5, group="g0", event="split")
    assert tr.values("risk") == [1.0, 0.5]
    assert tr.values("gap") == [2.0]
    assert tr.last_iteration() == 1
    assert tr.rows[2].group == "g0"
    assert tr.rows[2].event == "split"


def test_run_trace_rejects_rewinding_iterations():
    tr = RunTrace()
    tr.add(3, "m", 1.0)
    with pytest.raises(ValueError):
        tr.add(2, "m", 1.0)


def test_labels_are_read_by_one_rule():
    # make_dataset rounded 1.5 and -1.2 to labels; the estimators said "labels must be ±1"
    labels = [1.5, -1.2, 1.0]
    for read in (lambda y: make_dataset({}, {}, y, "a", 0.5, 2.0), label_plugin,
                 lambda y: gaussian_plugin_fit({"x": [0.1, 0.2, 0.3]}, {"x": "numeric"}, y, 1.0)):
        with pytest.raises(DomainError, match=r"^labels must be -1 or \+1$"):
            read(labels)
    assert read_labels([1.0, -1.0]).dtype == np.int64 and read_labels([1.0, -1.0]).tolist() == [1, -1]
    with pytest.raises(DomainError, match=r"^labels has shape \(\); it must be one-dimensional$"):
        label_plugin(1)


def test_make_dataset_reads_features_as_routing_does():
    # each raised a bare ValueError naming no feature, or was taken and failed later
    labels, scores = [1, -1], [0.3, 0.6]
    with pytest.raises(SchemaError, match="^feature 'x' is tested as numeric but its column is not$"):
        make_dataset({"x": ["a", "0.5"]}, {"x": "numeric"}, labels, "a", scores, 2.0)
    with pytest.raises(SchemaError, match="^feature 'c' is tested as categorical but its column is numeric$"):
        make_dataset({"c": [0, 1]}, {"c": "categorical"}, labels, "a", scores, 2.0)
    with pytest.raises(DomainError, match="^feature 'x' has non-finite values$"):
        make_dataset({"x": [0.5, math.nan]}, {"x": "numeric"}, labels, "a", scores, 2.0)
    with pytest.raises(DomainError, match=r"^feature 'x' has shape \(3,\) for 2 rows$"):
        make_dataset({"x": [0.5, 1.0, 2.0]}, {"x": "numeric"}, labels, "a", scores, 2.0)
    with pytest.raises(DomainError, match="^feature 'x' has unknown kind 'ordinal'$"):
        make_dataset({"x": [0.5, 1.0]}, {"x": "ordinal"}, labels, "a", scores, 2.0)
    ds = make_dataset({"x": ["0.5", 1], "c": "k"}, {"x": "numeric", "c": "categorical"}, labels, "a", scores, 2.0)
    assert ds.features["x"].tolist() == [0.5, 1.0] and ds.features["c"].tolist() == ["k", "k"]
    assert ds.features["c"].dtype == object


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(st.text(max_size=4), min_size=1, max_size=8, unique=True),
    data=st.data(),
)
def test_codes_give_the_levels_of_any_row_subset(names, data):
    # drawn text, non-ASCII and empty strings included, exercises the string sort order
    picks = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=60))
    column = np.array([names[i] for i in picks], dtype=object)
    codes = category_codes(column)
    assert codes.names == tuple(levels(column))
    assert [codes.names[c] for c in codes.codes.tolist()] == column.tolist()
    rows = np.array(data.draw(st.lists(st.integers(0, len(column) - 1), max_size=60)), dtype=np.int64)
    for subset in (rows, np.unique(rows)):
        assert_same_levels(codes.take(subset).levels(), levels(column[subset]))


@settings(max_examples=60, deadline=None)
@given(names=level_names(), seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 400))
def test_group_rows_match_the_per_level_scan(names, seed, extra):
    rng = np.random.default_rng(seed)
    groups = level_column(rng, names, extra)
    n = groups.shape[0]
    labels = rng.choice([-1, 1], n)
    ds = make_dataset({"x": rng.normal(size=n)}, {"x": "numeric"}, labels, groups, np.full(n, 0.5), 1.0)
    assert category_codes(groups).codes.dtype == (np.uint8 if len(names) <= 256 else np.uint16)
    assert_same_levels(ds.group_rows, levels(groups))
    positive = {g: idx[labels[idx] == 1] for g, idx in levels(groups).items() if (labels[idx] == 1).any()}
    assert_same_levels(ds.positive_rows, positive)


def test_a_level_that_does_not_equal_itself_is_a_domain_error():
    # a NaN group once indexed no rows (NaN != NaN); every level index now refuses it
    groups = np.array([0.0, math.nan, 1.0, 2.0], dtype=object)
    message = "^level nan does not equal itself$"
    with pytest.raises(DomainError, match=message):
        category_codes(groups)
    # a dataset reads its groups as strings, so it names the first group that is none
    holds = "^feature 'group' is tested as categorical but row 0 holds 0.0, not a string$"
    with pytest.raises(SchemaError, match=holds):
        make_dataset({"x": np.arange(4.0)}, {"x": "numeric"}, [1, -1, 1, -1], groups, np.full(4, 0.5), 1.0)
    with pytest.raises(DomainError, match=message):
        split_plan([1, -1, 1, -1], groups, 0)
    with pytest.raises(DomainError, match=message):
        proxy_group_tree({"x": np.arange(4.0)}, {"x": "numeric"}, groups)


def test_groups_that_are_not_strings_fail_when_the_dataset_is_built():
    # integer groups trained until a categorical test refused the modality 0, and
    # None or mixed groups escaped from every level index as a bare TypeError
    x = {"x": np.arange(4.0)}
    labels = [1, -1, 1, -1]
    holds = "^feature 'group' is tested as categorical but row {} holds {}, not a string$"
    for groups, row, shown in (([0, 1, 0, 1], 0, "0"), (["a", None, "b", "a"], 1, "None"),
                               (["a", "b", 2, "a"], 2, "2")):
        with pytest.raises(SchemaError, match=holds.format(row, shown)):
            make_dataset(x, {"x": "numeric"}, labels, groups, np.full(4, 0.5), 1.0)
    ds = make_dataset(x, {"x": "numeric"}, labels, ["a", "b", "b", "a"], np.full(4, 0.5), 1.0)
    mixed = np.array(["a", None, "b", 2], dtype=object)
    with pytest.raises(SchemaError, match=holds.format(1, "None")):
        dataclasses.replace(ds, groups=mixed)
    # values that do not sort together have no level order
    message = "^levels do not sort together: '<' not supported between instances of "
    with pytest.raises(DomainError, match=message):
        category_codes(mixed)
    with pytest.raises(DomainError, match=message):
        split_plan(labels, mixed, 0)
    with pytest.raises(DomainError, match=message):
        proxy_group_tree(x, {"x": "numeric"}, mixed)


def test_levels_whose_names_end_in_nul_index_their_own_rows(tmp_path):
    # numpy's == drops a str's trailing NULs, so a scan per level gave the group
    # 'a\0' the rows of 'a', and the split plan left its rows with no role
    path = tmp_path / "nul.csv"
    path.write_bytes(b"x,c,group,label,score\n0.1,a\0,a,1,0.6\n0.2,a,a\0,-1,0.4\n0.3,b,a,1,0.5\n")
    ds = load_dataset(path, 1.0)
    assert_same_levels(ds.group_rows, {"a": np.array([0, 2]), "a\0": np.array([1])})
    assert_same_levels(category_codes(ds.features["c"]).levels(),
                       {"a": np.array([1]), "a\0": np.array([0]), "b": np.array([2])})
    roles = split_plan(ds.labels, ds.groups, 0)
    assert None not in roles.tolist() and roles.tolist() == split_plan_reference(ds.labels, ds.groups, 0).tolist()
