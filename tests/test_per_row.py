"""The one row rule: every per-row input of the package is read by `per_row`.

Each site below takes one per-row input.  n values give the site's result,
one value gives the same result as n copies of it, bit for bit, and any
other shape is DomainError("{noun} has shape {shape} for {n} rows").
Arrays that set the row count must be one-dimensional.
"""

import dataclasses
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatree import (
    AlphaTree,
    DomainError,
    EmptyMeasureError,
    Leaf,
    Node,
    SplitTest,
    alpha_at_rows,
    apply_alpha,
    clip_score,
    edge,
    empirical_kl,
    empirical_risk,
    full_view,
    gaussian_plugin_eval,
    gaussian_plugin_fit,
    group_means,
    kl_taylor_bound,
    label_plugin,
    make_dataset,
    make_view,
    proxy_group_tree,
    route_rows,
    s2_applicable,
    split_plan,
    subgroup_risks,
    wha_check,
    wrapped_scores,
)
from alphatree.core import dot, per_row, xlogy
from alphatree.data import log_loss, target_posterior
from alphatree.estimators import ProxyTree
from helpers import evaluate_tree_reference, levels

B = 2.0
KINDS = {"x": "numeric", "c": "categorical"}
# x <= 0 goes to leaf 0; otherwise c == "u" to leaf 1, the rest to leaf 2
TREE = AlphaTree(Node(SplitTest("x", "numeric", threshold=0.0), Leaf(0, 1.5),
                      Node(SplitTest("c", "categorical", modality="u"), Leaf(1, 0.5), Leaf(2, -2.0))))

VALUES = {
    "prob": st.floats(0.15, 0.85),
    "weight": st.floats(0.25, 4.0),
    "real": st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0]),
    "sign": st.sampled_from([-1.0, 1.0]),
    "group": st.sampled_from(["a", "b", "c"]),
    "cat": st.sampled_from(["u", "v", "w"]),
}


class Fixture(NamedTuple):
    n: int
    x: np.ndarray
    c: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    scores: np.ndarray
    weights: np.ndarray

    def features(self, **replaced):
        return {"x": self.x, "c": self.c, **replaced}

    def dataset(self, features=None, groups=None, scores=None, weights=None, target=None):
        """The fixture's dataset, with the given inputs in place of its own."""
        pick = lambda given, own: own if given is None else given  # noqa: E731
        return make_dataset(pick(features, self.features()), KINDS, self.labels, pick(groups, self.groups),
                            pick(scores, self.scores), B, weights=pick(weights, self.weights), target=target)

    @property
    def ds(self):
        return self.dataset()

    @property
    def view(self):
        return full_view(self.ds)

    @property
    def eta(self):
        return label_plugin(self.labels)


@st.composite
def fixtures(draw):
    n = draw(st.integers(3, 9))
    arrays = lambda kind: np.array(draw(st.lists(VALUES[kind], min_size=n, max_size=n)))  # noqa: E731
    return Fixture(
        n=n,
        x=arrays("real"),
        c=arrays("cat").astype(object),
        labels=np.resize([1, -1], n),
        groups=np.resize(np.array(["a", "b"], dtype=object), n),
        scores=arrays("prob"),
        weights=arrays("weight"),
    )


class Site(NamedTuple):
    noun: str
    kind: str
    call: Callable  # (values, fixture) -> result
    expect: Callable | None = None  # (n values, fixture) -> the result, computed without the site


def _route_expect(v, fx):
    return np.array([evaluate_tree_reference(TREE, {"x": a, "c": b})[0] for a, b in zip(v, fx.c)])


def _alpha_rows(fx, **columns):
    rows = zip(columns.get("x", fx.x), columns.get("c", fx.c))
    return np.array([evaluate_tree_reference(TREE, {"x": a, "c": b})[1] for a, b in rows])


def _kl_expect(w, qu, qf):
    return dot(w, xlogy(qu, qu / qf) + xlogy(1.0 - qu, (1.0 - qu) / (1.0 - qf)))


def _gaussian_model(fx):
    return gaussian_plugin_fit(fx.features(), KINDS, fx.labels, fx.weights)


def _gaussian_rowwise(v, fx):
    model = _gaussian_model(fx)
    return np.concatenate([gaussian_plugin_eval(model, {"x": fx.x[i:i + 1], "c": v[i:i + 1]})
                           for i in range(fx.n)])


SITES = {
    "make_dataset groups": Site(
        "groups", "group", lambda v, fx: fx.dataset(groups=v).groups,
        lambda v, fx: v.astype(object)),
    "make_dataset scores": Site(
        "scores", "prob", lambda v, fx: fx.dataset(scores=v).scores,
        lambda v, fx: clip_score(v, B)),
    "make_dataset weights": Site(
        "weights", "weight",
        lambda v, fx: fx.dataset(weights=v).weights,
        lambda v, fx: v),
    "make_dataset target": Site(
        "target posterior", "prob", lambda v, fx: fx.dataset(target=v).target, lambda v, fx: v),
    "make_dataset feature": Site(
        "feature 'x'", "real", lambda v, fx: fx.dataset(features=fx.features(x=v)).features["x"],
        lambda v, fx: v),
    "replace groups": Site(
        "groups", "group", lambda v, fx: dataclasses.replace(fx.ds, groups=v).group_rows,
        lambda v, fx: levels(v)),
    "make_view weights": Site(
        "view weights", "weight", lambda v, fx: make_view(fx.ds, np.arange(fx.n), raw_weights=v).weights,
        lambda v, fx: v / v.sum()),
    "View.pick": Site(
        "base-aligned array", "real", lambda v, fx: fx.view.pick(v), lambda v, fx: v),
    "wha_check indicator": Site(
        "indicator", "sign", lambda v, fx: wha_check(fx.view, np.asarray(v), fx.eta, fx.scores, B)),
    "edge target": Site(
        "target posterior", "prob", lambda v, fx: edge(fx.view, v, fx.scores, B)),
    "target_posterior": Site(
        "target posterior", "prob", lambda v, fx: target_posterior(v, fx.n), lambda v, fx: v),
    "empirical_risk posterior": Site(
        "posterior", "prob", lambda v, fx: empirical_risk(fx.view, v, fx.eta),
        lambda v, fx: dot(fx.view.weights, log_loss(v, fx.eta))),
    "route_rows column": Site(
        "column 'x'", "real", lambda v, fx: route_rows(TREE, fx.features(x=v), fx.n), _route_expect),
    "alpha_at_rows column": Site(
        "column 'c'", "cat", lambda v, fx: alpha_at_rows(TREE, fx.features(c=v), fx.n),
        lambda v, fx: _alpha_rows(fx, c=v)),
    "wrapped_scores column": Site(
        "column 'x'", "real", lambda v, fx: wrapped_scores(TREE, fx.features(x=v), fx.scores),
        lambda v, fx: apply_alpha(fx.scores, _alpha_rows(fx, x=v))),
    "ProxyTree.predict column": Site(
        "column 'c'", "cat", lambda v, fx: ProxyTree(TREE, ("a", "b", "c")).predict(fx.features(c=v)),
        lambda v, fx: np.array(["a", "b", "c"], dtype=object)[_route_expect(fx.x, fx._replace(c=v))]),
    "s2_applicable column": Site(
        "column 'x'", "real", lambda v, fx: s2_applicable(TREE, fx.features(x=v), fx.scores)),
    "group_means values": Site(
        "values", "real", lambda v, fx: group_means(v, fx.weights, fx.ds.group_rows),
        lambda v, fx: {g: dot(fx.weights[i] / fx.weights[i].sum(), v[i]) for g, i in fx.ds.group_rows.items()}),
    "empirical_kl weights": Site(
        "weights", "weight", lambda v, fx: empirical_kl(v, fx.scores, 1.0 - fx.scores),
        lambda v, fx: _kl_expect(v, fx.scores, 1.0 - fx.scores)),
    "empirical_kl q_fair": Site(
        "q_fair", "prob", lambda v, fx: empirical_kl(fx.weights, fx.scores, v),
        lambda v, fx: _kl_expect(fx.weights, fx.scores, v)),
    "kl_taylor_bound weights": Site(
        "weights", "weight", lambda v, fx: kl_taylor_bound(v, fx.scores, _alpha_rows(fx))),
    "kl_taylor_bound alphas": Site(
        "alphas", "real", lambda v, fx: kl_taylor_bound(fx.weights, fx.scores, v)),
    "gaussian_plugin_fit weights": Site(
        "weights", "weight", lambda v, fx: gaussian_plugin_fit(fx.features(), KINDS, fx.labels, v)),
    "gaussian_plugin_fit column": Site(
        "feature 'x'", "real", lambda v, fx: gaussian_plugin_fit(fx.features(x=v), KINDS, fx.labels, fx.weights)),
    "gaussian_plugin_eval column": Site(
        "feature 'c'", "cat", lambda v, fx: gaussian_plugin_eval(_gaussian_model(fx), fx.features(c=v)),
        _gaussian_rowwise),
    "proxy_group_tree column": Site(
        "feature 'x'", "real", lambda v, fx: proxy_group_tree(fx.features(x=v), KINDS, fx.groups, min_leaf=1)),
    "split_plan groups": Site(
        "groups", "group", lambda v, fx: split_plan(fx.labels, v, 7)),
}


def outcome(call):
    """The result of call(), or the type and text of the error it raised."""
    try:
        return "value", call()
    except (ValueError, ArithmeticError) as exc:
        return "error", type(exc).__name__, str(exc)


def same(a, b) -> bool:
    """Bit-for-bit equality of results: arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        return a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def shape_message(noun, shape, n):
    return "^" + re.escape(f"{noun} has shape {shape} for {n} rows") + "$"


@pytest.mark.parametrize("name", sorted(SITES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_per_row_input_follows_the_one_row_rule(name, data):
    site = SITES[name]
    fx = data.draw(fixtures())
    n = fx.n
    drawn = np.array(data.draw(st.lists(VALUES[site.kind], min_size=n + 1, max_size=n + 1)))
    values = drawn[:n]
    scalar = drawn[0].item()

    got = outcome(lambda: site.call(values, fx))
    if site.expect is not None:
        assert got[0] == "value" and same(got[1], site.expect(values, fx)), name
    assert same(outcome(lambda: site.call(scalar, fx)), outcome(lambda: site.call(np.full(n, scalar), fx))), name

    for bad in (drawn[: n - 1], drawn, values.reshape(1, n), values.reshape(n, 1)):
        with pytest.raises(DomainError, match=shape_message(site.noun, bad.shape, n)):
            site.call(bad, fx)


# arrays that set the row count: (noun, call with those values)
ROW_COUNT_SETTERS = {
    "make_dataset labels": ("labels", lambda v, fx: make_dataset(
        {}, {}, v, "a", 0.5, B)),
    "wrapped_scores scores": ("scores", lambda v, fx: wrapped_scores(TREE, fx.features(), v)),
    "empirical_kl q_unfair": ("q_unfair", lambda v, fx: empirical_kl(fx.weights, v, fx.scores)),
    "kl_taylor_bound q_unfair": ("q_unfair", lambda v, fx: kl_taylor_bound(fx.weights, v, 1.0)),
    "s2_applicable q_unfair": ("q_unfair", lambda v, fx: s2_applicable(TREE, fx.features(), v)),
    "group_means weights": ("weights", lambda v, fx: group_means(fx.scores, v, {"a": np.arange(fx.n)})),
    "split_plan labels": ("labels", lambda v, fx: split_plan(v, "a", 0)),
    "gaussian_plugin_fit labels": ("labels", lambda v, fx: gaussian_plugin_fit(fx.features(), KINDS, v, 1.0)),
    "proxy_group_tree groups": ("groups", lambda v, fx: proxy_group_tree(fx.features(), KINDS, v)),
    "make_view indices": ("view indices", lambda v, fx: make_view(fx.ds, v)),
}


@pytest.mark.parametrize("name", sorted(ROW_COUNT_SETTERS))
def test_arrays_that_set_the_row_count_are_one_dimensional(name):
    noun, call = ROW_COUNT_SETTERS[name]
    fx = Fixture(4, np.array([-1.0, 0.5, 2.0, 0.0]), np.array(["u", "v", "u", "w"], dtype=object),
                 np.array([1, -1, 1, -1]), np.array(["a", "b", "a", "b"], dtype=object),
                 np.array([0.2, 0.4, 0.6, 0.8]), np.array([1.0, 2.0, 1.0, 0.5]))
    good = {"labels": fx.labels, "groups": fx.groups, "view indices": np.arange(4)}.get(noun, fx.scores)
    assert outcome(lambda: call(good, fx))[0] == "value", name
    for bad in (good[0], good.reshape(1, 4), good.reshape(4, 1)):
        shape = np.shape(bad)
        message = "^" + re.escape(f"{noun} has shape {shape}; it must be one-dimensional") + "$"
        with pytest.raises(DomainError, match=message):
            call(bad, fx)


def test_per_row_returns_n_values_as_they_are_and_copies_one_value():
    values = np.array([0.25, 0.5, 0.75])
    assert per_row(values, 3, "scores") is values
    assert per_row(values, None, "scores") is values
    one = np.asarray(0.5)
    out = per_row(one, 3, "scores")
    assert out.dtype == float and out.tolist() == [0.5] * 3
    out[0] = 1.0
    assert one == 0.5
    assert per_row("a", 2, "groups", object).tolist() == ["a", "a"]
    with pytest.raises(DomainError, match=r"^scores has shape \(2,\) for 3 rows$"):
        per_row([0.1, 0.2], 3, "scores")


# ---------------------------------------------------------------------------
# inputs that were read silently before the rule
# ---------------------------------------------------------------------------


def four_rows():
    return make_dataset({"x": np.array([0.1, 0.9, 0.2, 0.7])}, {"x": "numeric"}, [1, -1, 1, -1],
                        ["a", "b", "a", "b"], [0.3, 0.6, 0.4, 0.5], 3.0)


STUMP = AlphaTree(Node(SplitTest("x", "numeric", threshold=0.5), Leaf(0, 2.0), Leaf(1, 0.5)))


def test_a_longer_routed_column_is_a_domain_error():
    # two scores were wrapped with the alphas of the first two of three rows
    with pytest.raises(DomainError, match=r"^column 'x' has shape \(3,\) for 2 rows$"):
        wrapped_scores(STUMP, {"x": [0.1, 0.9, 0.2]}, [0.3, 0.6])
    with pytest.raises(DomainError, match=r"^column 'x' has shape \(1,\) for 2 rows$"):
        wrapped_scores(STUMP, {"x": [0.1]}, [0.3, 0.6])


def test_two_dimensional_scores_are_a_domain_error():
    # one row was routed and its alpha applied to both scores
    with pytest.raises(DomainError, match=r"^scores has shape \(1, 2\); it must be one-dimensional$"):
        wrapped_scores(STUMP, {"x": [0.1, 0.9]}, [[0.3, 0.6]])


def test_short_view_weights_are_a_domain_error():
    with pytest.raises(DomainError, match=r"^view weights has shape \(1,\) for 2 rows$"):
        make_view(four_rows(), [0, 1], raw_weights=[1.0])


@pytest.mark.parametrize("indices", [[-1, 0], [0.7, 1.2], [0, 4], [True, False]])
def test_view_indices_must_be_integers_in_range(indices):
    with pytest.raises(DomainError, match=r"^view indices must be integers in \[0, 4\)$"):
        make_view(four_rows(), indices)


def test_a_view_with_no_rows_stays_an_empty_measure():
    with pytest.raises(EmptyMeasureError, match="at least one row"):
        make_view(four_rows(), [])


def test_a_replaced_dataset_checks_its_groups():
    ds = four_rows()
    with pytest.raises(DomainError, match=r"^groups has shape \(2,\) for 4 rows$"):
        subgroup_risks(dataclasses.replace(ds, groups=np.array(["a", "b"], dtype=object)), STUMP)
    regrouped = dataclasses.replace(ds, groups="a")
    assert regrouped.groups.tolist() == ["a"] * 4 and list(regrouped.group_rows) == ["a"]


def test_make_dataset_names_the_shape_of_a_wrong_column():
    labels, groups, scores = [1, -1, 1], ["a", "b", "a"], [0.3, 0.6, 0.4]
    with pytest.raises(DomainError, match=r"^scores has shape \(3, 3\) for 3 rows$"):
        make_dataset({}, {}, labels, groups, np.full((3, 3), 0.5), 3.0)
    with pytest.raises(DomainError, match=r"^weights has shape \(2,\) for 3 rows$"):
        make_dataset({}, {}, labels, groups, scores, 3.0, weights=np.ones(2))
    with pytest.raises(DomainError, match=r"^feature 'x' has shape \(2,\) for 3 rows$"):
        make_dataset({"x": np.ones(2)}, {"x": "numeric"}, labels, groups, scores, 3.0)


def test_make_dataset_takes_one_value_for_every_row():
    ds = make_dataset({"x": 1.5, "c": "u"}, KINDS, [1, -1, 1], "a", 0.5, 3.0, weights=2.0)
    assert ds.scores.tolist() == [0.5] * 3 and ds.weights.tolist() == [2.0] * 3
    assert ds.groups.dtype == object and ds.groups.tolist() == ["a"] * 3
    assert ds.features["x"].tolist() == [1.5] * 3 and ds.features["c"].tolist() == ["u"] * 3


def test_empirical_risk_names_the_shape_of_a_wrong_posterior():
    v = full_view(make_dataset({}, {}, [1, -1, 1], ["a"] * 3, [0.3, 0.6, 0.4], 3.0))
    with pytest.raises(DomainError, match=r"^posterior has shape \(4,\) for 3 rows$"):
        empirical_risk(v, np.full(4, 0.5), 0.5)
