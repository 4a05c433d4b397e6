"""CSV ingest, model files, split plans, and the command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alphatree
from alphatree import (
    AlphaTree,
    DomainError,
    Leaf,
    LoadError,
    ModelFormatError,
    ModelMeta,
    Node,
    SplitTest,
    empirical_kl,
    full_view,
    label_plugin,
    load_dataset,
    load_model,
    metric_auc,
    metric_cvar,
    metric_eoo_gap,
    metric_md,
    metric_sp_gap,
    metric_zero_one,
    model_from_json,
    model_to_json,
    resolve_seed,
    save_model,
    split_plan,
    subgroup_risks,
    wrapped_scores,
)
from alphatree.cli import main
from alphatree.core import expit

from helpers import probe_columns, random_tree


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def basic_csv(path):
    write_csv(
        path,
        ["x", "c", "label", "group", "score"],
        [
            [0.5, "red", "+1", "a", 0.9],
            [1.5, "blue", "-1", "a", 0.2],
            [-2.0, "red", "1", "b", 0.99],
            [3.25, "green", "0", "b", 0.0],
        ],
    )


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------


def test_load_dataset_infers_kinds_and_clips(tmp_path):
    path = tmp_path / "d.csv"
    basic_csv(path)
    ds = load_dataset(path, 1.0)
    # the group column stays routable, so it carries a kind too
    assert ds.kinds == {"x": "numeric", "c": "categorical",
                        "group": "categorical"}
    assert ds.feature_names == ("x", "c")
    assert ds.columns["x"].dtype == float
    assert ds.columns["c"].dtype == object
    assert list(ds.labels) == [1, -1, 1, -1]
    assert list(ds.groups) == ["a", "a", "b", "b"]
    # ingest clips to I(B): 0.99 and 0.0 land exactly on the clip endpoints
    assert ds.scores[2] == float(expit(1.0))
    assert ds.scores[3] == float(expit(-1.0))
    assert ds.scores[1] == pytest.approx(float(expit(-1.0)), abs=0)


def test_load_dataset_kind_override(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["z", "label", "group", "score"],
              [[1, "+1", "g", 0.5], [2, "-1", "g", 0.5]])
    ds = load_dataset(path, 1.0, kinds={"z": "categorical"})
    assert ds.kinds["z"] == "categorical"
    assert list(ds.columns["z"]) == ["1", "2"]
    with pytest.raises(LoadError, match="unknown kind"):
        load_dataset(path, 1.0, kinds={"z": "ordinal"})


def test_load_dataset_weight_and_target_columns(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score", "w", "t"],
              [[0.0, "+1", "g", 0.5, 2.0, 0.75],
               [1.0, "-1", "g", 0.5, 6.0, 0.25]])
    ds = load_dataset(path, 1.0, weight_column="w", target_column="t")
    assert ds.feature_names == ("x",)
    assert list(ds.weights) == [2.0, 6.0]
    assert list(ds.target) == [0.75, 0.25]


def test_load_dataset_header_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(LoadError, match="no header row"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "x", "label", "group", "score"],
              [[1, 2, "+1", "g", 0.5]])
    with pytest.raises(LoadError, match="duplicate column names"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group"], [[1, "+1", "g"]])
    with pytest.raises(LoadError, match="missing required column 'score'"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score"], [])
    with pytest.raises(LoadError, match="no data rows"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score"], [[1, "+1", "g", 0.5]])
    with pytest.raises(LoadError, match="missing required column 'w'"):
        load_dataset(path, 1.0, weight_column="w")


def test_load_dataset_row_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 0.5], [2, "maybe", "g", 0.5]])
    with pytest.raises(LoadError, match="row 2: label 'maybe'"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 1.5]])
    with pytest.raises(LoadError, match=r"row 1: score '1.5' must lie in \[0, 1\]"):
        load_dataset(path, 1.0)
    write_csv(path, ["x", "label", "group", "score", "w"],
              [[1, "+1", "g", 0.5, -2.0]])
    with pytest.raises(LoadError, match="row 1: weight '-2.0'"):
        load_dataset(path, 1.0, weight_column="w")
    path.write_text("x,label,group,score\n1,+1,g,0.5\n2,-1,g\n", encoding="utf-8")
    with pytest.raises(LoadError, match="row 2: expected 4 fields, got 3"):
        load_dataset(path, 1.0)


def test_load_dataset_numeric_feature_errors(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[1, "+1", "g", 0.5], ["oops", "-1", "g", 0.5]])
    # inference falls back to categorical, but an explicit kind must parse
    ds = load_dataset(path, 1.0)
    assert ds.kinds["x"] == "categorical"
    with pytest.raises(LoadError, match="row 2: feature 'x' value 'oops'"):
        load_dataset(path, 1.0, kinds={"x": "numeric"})
    write_csv(path, ["x", "label", "group", "score"],
              [["inf", "+1", "g", 0.5]])
    with pytest.raises(LoadError, match="row 1: feature 'x' value 'inf' is not finite"):
        load_dataset(path, 1.0, kinds={"x": "numeric"})


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_dataset_rejects_non_finite_cell_in_inferred_column(tmp_path, cell):
    # every cell parses as a float, so the column is numeric and the one
    # non-finite cell is an error, not a reason to read it as categorical
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label", "group", "score"],
              [[0.5, "+1", "g", 0.5], [1.5, "-1", "g", 0.5], [cell, "+1", "g", 0.5]])
    with pytest.raises(LoadError, match=f"row 3: feature 'x' value '{cell}' is not finite"):
        load_dataset(path, 1.0)


def test_load_dataset_custom_column_names(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "y", "who", "q"],
              [[1.0, "+1", "a", 0.4], [2.0, "-1", "b", 0.6]])
    ds = load_dataset(path, 2.0, label_column="y", group_column="who",
                      score_column="q")
    assert ds.feature_names == ("x",)
    assert ds.group_column == "who"
    assert list(ds.groups) == ["a", "b"]


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def demo_tree():
    return AlphaTree(
        Node(
            SplitTest("x", "numeric", threshold=0.5),
            Leaf(0, 1.0),
            Node(SplitTest("c", "categorical", modality="red"),
                 Leaf(1, -2.25), Leaf(2, 0.0)),
        )
    )


def test_model_round_trip_bytes_and_outputs(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        tree = random_tree(rng, max_depth=4)
        meta = ModelMeta(clip_B=float(rng.uniform(0.5, 4.0)),
                         scoring="audacious" if trial % 2 else "conservative",
                         strategy="cvar", config_digest="abc123",
                         iterations=int(rng.integers(0, 40)))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, tree, meta)
        tree2, meta2 = load_model(p1)
        save_model(p2, tree2, meta2)
        assert p1.read_bytes() == p2.read_bytes()
        assert meta2 == meta
        cols = probe_columns(rng, 100)
        q = rng.uniform(0.2, 0.8, 100)
        assert np.array_equal(wrapped_scores(tree, cols, q),
                              wrapped_scores(tree2, cols, q))


def test_model_rejects_non_finite_values():
    # leaves refuse a non-finite alpha outright; the annotations are only
    # caught at serialization time
    with pytest.raises(DomainError, match="alpha must be finite"):
        Leaf(0, math.nan)
    tree = AlphaTree(Leaf(0, 1.0, edge=math.nan))
    with pytest.raises(ModelFormatError, match="non-finite"):
        model_to_json(tree, ModelMeta(clip_B=1.0))
    text = model_to_json(demo_tree(), ModelMeta(clip_B=1.0))
    with pytest.raises(ModelFormatError, match="non-finite constant 'NaN'"):
        model_from_json(text.replace("1.0", "NaN", 1))


def test_model_from_json_top_level_errors():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        model_from_json("{nope")
    with pytest.raises(ModelFormatError, match="top level must be an object"):
        model_from_json("[1, 2]")
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))

    bad = dict(good)
    del bad["tree"]
    with pytest.raises(ModelFormatError, match=r"missing keys \['tree'\]"):
        model_from_json(json.dumps(bad))
    bad = dict(good, extra=1)
    with pytest.raises(ModelFormatError, match=r"unknown keys \['extra'\]"):
        model_from_json(json.dumps(bad))
    bad = dict(good, format_version="2")
    with pytest.raises(ModelFormatError, match="unsupported format_version '2'"):
        model_from_json(json.dumps(bad))
    bad = dict(good, clip_B=True)
    with pytest.raises(ModelFormatError, match="clip_B must be a number"):
        model_from_json(json.dumps(bad))
    bad = dict(good, clip_B=-1.0)
    with pytest.raises(ModelFormatError, match="clip_B must be a positive"):
        model_from_json(json.dumps(bad))
    bad = dict(good, scoring="bold")
    with pytest.raises(ModelFormatError, match="unknown scoring mode 'bold'"):
        model_from_json(json.dumps(bad))


def test_model_from_json_provenance_errors():
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))
    bad = dict(good, provenance="none")
    with pytest.raises(ModelFormatError, match="provenance must be an object"):
        model_from_json(json.dumps(bad))
    bad = dict(good, provenance=dict(good["provenance"], iterations=-1))
    with pytest.raises(ModelFormatError, match="iterations must be an integer"):
        model_from_json(json.dumps(bad))
    bad = dict(good, provenance=dict(good["provenance"], iterations=True))
    with pytest.raises(ModelFormatError, match="iterations must be an integer"):
        model_from_json(json.dumps(bad))
    prov = dict(good["provenance"], strategy=3)
    bad = dict(good, provenance=prov)
    with pytest.raises(ModelFormatError, match="provenance.strategy must be a string"):
        model_from_json(json.dumps(bad))
    prov = dict(good["provenance"])
    del prov["config_digest"]
    bad = dict(good, provenance=prov)
    with pytest.raises(ModelFormatError, match=r"missing keys \['config_digest'\]"):
        model_from_json(json.dumps(bad))


def test_model_from_json_tree_errors():
    good = json.loads(model_to_json(demo_tree(), ModelMeta(clip_B=1.0)))

    def with_tree(tree_obj):
        return json.dumps(dict(good, tree=tree_obj))

    leaf = {"kind": "leaf", "leaf_id": 0, "alpha": 1.0, "edge": 0.0, "mass": 0.0}
    with pytest.raises(ModelFormatError, match="expected an object"):
        model_from_json(with_tree([1]))
    with pytest.raises(ModelFormatError, match="unknown node kind 'branch'"):
        model_from_json(with_tree(dict(leaf, kind="branch")))
    with pytest.raises(ModelFormatError, match="leaf_id must be an integer"):
        model_from_json(with_tree(dict(leaf, leaf_id=0.5)))
    with pytest.raises(ModelFormatError, match="alpha must be a number"):
        model_from_json(with_tree(dict(leaf, alpha="big")))
    with pytest.raises(ModelFormatError, match=r"missing keys \['mass'\]"):
        bad = dict(leaf)
        del bad["mass"]
        model_from_json(with_tree(bad))

    node = {
        "kind": "node",
        "test": {"feature": "x", "kind": "numeric", "threshold": 0.5},
        "left": leaf,
        "right": dict(leaf, leaf_id=1),
    }
    with pytest.raises(ModelFormatError, match="threshold must be a number"):
        bad_test = dict(node["test"], threshold="mid")
        model_from_json(with_tree(dict(node, test=bad_test)))
    with pytest.raises(ModelFormatError, match="unknown test kind 'ordinal'"):
        bad_test = {"feature": "x", "kind": "ordinal", "threshold": 0.5}
        model_from_json(with_tree(dict(node, test=bad_test)))
    with pytest.raises(ModelFormatError, match="modality must be a string"):
        bad_test = {"feature": "c", "kind": "categorical", "modality": 3}
        model_from_json(with_tree(dict(node, test=bad_test)))
    # duplicate leaf ids fail the tree's own invariant, surfaced as a format error
    with pytest.raises(ModelFormatError, match="leaf identifiers must be unique"):
        model_from_json(with_tree(dict(node, right=leaf)))


def test_model_meta_validation():
    with pytest.raises(DomainError):
        ModelMeta(clip_B=0.0)
    with pytest.raises(DomainError):
        ModelMeta(clip_B=math.inf)
    with pytest.raises(DomainError):
        ModelMeta(clip_B=1.0, scoring="bold")
    with pytest.raises(DomainError):
        ModelMeta(clip_B=1.0, iterations=-1)


def test_model_json_is_sorted_and_stable():
    text = model_to_json(demo_tree(), ModelMeta(clip_B=1.5))
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert text == model_to_json(*model_from_json(text))


# ---------------------------------------------------------------------------
# split and fold plans
# ---------------------------------------------------------------------------


def test_split_plan_largest_remainder_exact():
    labels = [1] * 10
    groups = ["g"] * 10
    roles = split_plan(labels, groups, seed=0)
    counts = {r: int(np.sum(roles == r)) for r in ("train", "cal", "test")}
    assert counts == {"train": 4, "cal": 4, "test": 2}


def test_split_plan_remainder_ties_favor_earlier_role():
    # n=4: raw quotas (1.6, 1.6, 0.8); the two spare slots go to the largest
    # remainders, test first, then the earlier of the tied 0.6s
    roles = split_plan([1] * 4, ["g"] * 4, seed=3)
    counts = {r: int(np.sum(roles == r)) for r in ("train", "cal", "test")}
    assert counts == {"train": 2, "cal": 1, "test": 1}


def test_split_plan_is_stratified():
    labels = [1] * 10 + [-1] * 5
    groups = ["a"] * 10 + ["b"] * 5
    roles = split_plan(labels, groups, seed=11)
    pos = roles[:10]
    neg = roles[10:]
    assert int(np.sum(pos == "train")) == 4 and int(np.sum(pos == "test")) == 2
    assert int(np.sum(neg == "train")) == 2 and int(np.sum(neg == "test")) == 1


def test_split_plan_deterministic_in_seed():
    labels = [1, -1] * 20
    groups = ["a", "b"] * 20
    a = split_plan(labels, groups, seed=5)
    b = split_plan(labels, groups, seed=5)
    c = split_plan(labels, groups, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(DomainError):
        split_plan([], [], seed=0)
    with pytest.raises(DomainError):
        split_plan([1, 1], ["a"], seed=0)


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv("ALPHATREE_SEED", raising=False)
    assert resolve_seed(None) == 0
    assert resolve_seed(42) == 42
    monkeypatch.setenv("ALPHATREE_SEED", "17")
    assert resolve_seed(None) == 17
    assert resolve_seed(42) == 42
    monkeypatch.setenv("ALPHATREE_SEED", "lots")
    with pytest.raises(DomainError, match="ALPHATREE_SEED"):
        resolve_seed(None)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def cli_csv(path, n_per_group=30):
    rng = np.random.default_rng(9)
    rows = []
    for i in range(n_per_group):
        rows.append([round(float(rng.normal()), 4), "a",
                     1 if i % 2 == 0 else -1, 0.6])
        rows.append([round(float(rng.normal()), 4), "b",
                     1 if i % 2 == 0 else -1, 0.3])
    write_csv(path, ["x", "group", "label", "score"], rows)


def train_args(data, out, extra=()):
    return ["train", "--data", str(data), "--strategy", "sp",
            "--direction", "up", "--clip-B", "3", "--split", "all",
            "--rounds", "2", "--iterations", "4", "--epsilon", "0.1",
            "--out", str(out), *extra]


def test_cli_import_loads_nothing_beyond_numpy():
    # every command is a fresh process that pays the cli's import time, so
    # the cli may load only itself, numpy and the standard library
    src = str(Path(alphatree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy\n"
        "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "import alphatree.cli\n"
        "print(sorted(tops() - before - set(sys.stdlib_module_names)))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['alphatree']"


def test_cli_train_apply_eval_inspect(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    trace = tmp_path / "t.csv"
    assert main(train_args(data, model, ["--trace-out", str(trace)])) == 0
    out = capsys.readouterr().out
    assert f"wrote {model}" in out
    tree, meta = load_model(model)
    assert meta.strategy == "sp"
    assert meta.clip_B == 3.0

    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "iteration,metric,value,group,event"
    assert any(",sp_gap," in line for line in trace_lines[1:])

    applied = tmp_path / "out.csv"
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 0
    capsys.readouterr()
    lines = applied.read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["q_fair", "pred"]
    ds = load_dataset(data, 3.0)
    expect = wrapped_scores(tree, ds.columns, ds.scores)
    got = np.array([float(line.split(",")[-2]) for line in lines[1:]])
    assert np.array_equal(got, expect)
    preds = np.array([int(line.split(",")[-1]) for line in lines[1:]])
    assert np.array_equal(preds, np.where(expect > 0.5, 1, -1))

    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all", "--beta", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 60
    assert report["n_leaves"] == tree.n_leaves
    assert report["zero_one"] == pytest.approx(
        metric_zero_one(ds, tree), abs=1e-12)
    assert report["cvar"] == pytest.approx(
        metric_cvar(ds, tree, label_plugin(ds.labels), 0.5), abs=1e-12)
    assert set(report["subgroup_risks"]) == {"a", "b"}

    assert main(["inspect", "--model", str(model)]) == 0
    text = capsys.readouterr().out
    assert "clip_B: 3.0" in text
    assert "strategy: sp" in text
    assert f"leaves: {tree.n_leaves}" in text


def test_cli_inspect_classifies_alphas(tmp_path, capsys):
    tree = AlphaTree(
        Node(SplitTest("x", "numeric", threshold=0.0),
             Node(SplitTest("x", "numeric", threshold=-1.0),
                  Leaf(0, 1.0), Leaf(1, 2.5)),
             Node(SplitTest("x", "numeric", threshold=1.0),
                  Leaf(2, 0.25), Node(SplitTest("c", "categorical", modality="m"),
                                      Leaf(3, 0.0), Leaf(4, -3.0)))))
    path = tmp_path / "m.json"
    save_model(path, tree, ModelMeta(clip_B=1.0))
    assert main(["inspect", "--model", str(path)]) == 0
    text = capsys.readouterr().out
    assert "identity (alpha=1)" in text
    assert "sharpening (alpha>1)" in text
    assert "dampening (0<alpha<1)" in text
    assert "flattening (alpha=0)" in text
    assert "polarity-reversing (alpha<0)" in text
    assert "depth: 3" in text


def test_cli_trace_to_stdout(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    args = train_args(data, model)
    args[0] = "trace"
    i = args.index("--out")
    del args[i : i + 2]
    assert main(args + ["--model-out", str(model)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "iteration,metric,value,group,event"
    assert model.exists()


def test_cli_user_errors_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(["apply", "--data", str(data), "--model",
                 str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["inspect", "--model", str(bad)]) == 2
    assert "error: invalid JSON" in capsys.readouterr().err

    ragged = tmp_path / "r.csv"
    ragged.write_text("x,group,label,score\n1,a,+1\n", encoding="utf-8")
    assert main(train_args(ragged, model)) == 2
    assert "error: row 1" in capsys.readouterr().err


def test_cli_train_and_eval_reject_nan_feature(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    capsys.readouterr()
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[7] = "nan" + lines[7][lines[7].index(","):]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = "error: row 7: feature 'x' value 'nan' is not finite"
    assert main(train_args(data, tmp_path / "m2.json")) == 2
    assert message in capsys.readouterr().err
    assert main(["eval", "--data", str(data), "--model", str(model), "--split", "all"]) == 2
    assert message in capsys.readouterr().err


def test_cli_apply_reads_tested_columns_by_kind(tmp_path, capsys):
    # group labels "0"/"1"/"2" look numeric, but the model tests the group
    # column by equality, so apply must keep it as strings, as train did
    rng = np.random.default_rng(12)
    n = 20_000
    g = rng.integers(0, 3, n)
    x = np.round(rng.normal(0.0, 1.0, n), 3)
    scores = np.round(expit(x + 0.6 * g - 0.6), 4)
    labels = np.where(rng.random(n) < expit(1.5 * x), 1, -1)
    rows = [[x[i], str(g[i]), labels[i], scores[i]] for i in range(n)]
    data = tmp_path / "d.csv"
    write_csv(data, ["x", "group", "label", "score"], rows)
    model = tmp_path / "m.json"
    assert main(train_args(data, model)) == 0
    tree, _ = load_model(model)
    assert tree.feature_kinds() == {"group": "categorical", "x": "numeric"}

    applied = tmp_path / "out.csv"
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 0
    capsys.readouterr()
    got = np.array([float(line.split(",")[-2])
                    for line in applied.read_text().splitlines()[1:]])
    ds = load_dataset(data, 3.0)
    expect = wrapped_scores(tree, ds.columns, ds.scores)
    assert np.max(np.abs(got - expect)) <= 1e-12

    rows[4][0] = "nan"
    write_csv(data, ["x", "group", "label", "score"], rows)
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 2
    assert "error: row 5: feature 'x' value 'nan' is not finite" in capsys.readouterr().err

    write_csv(data, ["group", "label", "score"], [row[1:] for row in rows[:10]])
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 2
    assert "error: missing feature column 'x'" in capsys.readouterr().err

    write_csv(data, ["x", "x", "group", "label", "score"], [[1.0] + row for row in rows[:10]])
    assert main(["apply", "--data", str(data), "--model", str(model),
                 "--out", str(applied)]) == 2
    assert "error: duplicate column names in header" in capsys.readouterr().err


def test_cli_eval_reads_tested_columns_by_kind(tmp_path, capsys):
    # train sees codes A1, B2, 7 and 8, so it reads code as categorical; the
    # eval file holds only 7 and 8, which on their own would read as numbers
    rng = np.random.default_rng(5)

    def write_rows(path, n, codes):
        code = rng.choice(np.array(codes), n)
        group = rng.choice(np.array(["a", "b"]), n)
        x = np.round(rng.normal(size=n), 3)
        # the black box ignores code, which flips the label odds on 7 and 8
        p = np.select([code == "7", code == "8"], [0.1, 0.9], expit(2 * x))
        labels = np.where(rng.random(n) < p, 1, -1)
        scores = np.round(expit(2 * x), 4)
        write_csv(path, ["x", "code", "label", "group", "score"],
                  zip(x, code, labels, group, scores))

    train, holdout, model = tmp_path / "train.csv", tmp_path / "eval.csv", tmp_path / "m.json"
    write_rows(train, 4000, ["A1", "B2", "7", "8"])
    write_rows(holdout, 4000, ["7", "8"])
    assert main(["train", "--data", str(train), "--strategy", "cvar", "--iterations", "8",
                 "--min-child-count", "200", "--out", str(model)]) == 0
    tree, meta = load_model(model)
    assert tree.feature_kinds()["code"] == "categorical"
    text = model.read_text(encoding="utf-8")
    assert '"modality": "7"' in text or '"modality": "8"' in text
    capsys.readouterr()

    assert main(["eval", "--data", str(holdout), "--model", str(model)]) == 0
    report = json.loads(capsys.readouterr().out)
    ds = load_dataset(holdout, meta.clip_B, kinds={"code": "categorical"})
    eta = label_plugin(ds.labels)
    expect = {
        "zero_one": metric_zero_one(ds, tree),
        "auc": metric_auc(ds, tree),
        "eoo_gap": metric_eoo_gap(ds, tree),
        "sp_gap": metric_sp_gap(ds, tree),
        "md": metric_md(ds, tree),
        "cvar": metric_cvar(ds, tree, eta, 0.5),
        "empirical_kl": empirical_kl(full_view(ds).weights, ds.scores,
                                     wrapped_scores(tree, ds.columns, ds.scores)),
    }
    for key, value in expect.items():
        assert abs(report[key] - value) <= 1e-12, key
    for g, risk in subgroup_risks(ds, tree, eta).items():
        assert abs(report["subgroup_risks"][g] - risk) <= 1e-12, g

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"feature_kinds": {"code": "numeric"}}), encoding="utf-8")
    assert main(["eval", "--data", str(holdout), "--model", str(model),
                 "--schema", str(schema)]) == 2
    assert ("error: schema reads feature 'code' as numeric, but the model tests it as categorical"
            in capsys.readouterr().err)


def test_cli_bad_induction_flags_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    for flag, value in (("--min-child-fraction", "0.6"), ("--min-child-count", "0"),
                        ("--iterations", "-1")):
        assert main(train_args(data, tmp_path / "m.json", [flag, value])) == 2, flag
        assert capsys.readouterr().err.startswith("error: "), flag


def test_cli_schema_file(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rows = [[i, "a" if i % 2 else "b", "+1" if i % 3 else "-1", 0.5 + 0.004 * i]
            for i in range(40)]
    write_csv(data, ["z", "grp", "lbl", "sc"], rows)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "label_column": "lbl", "group_column": "grp", "score_column": "sc",
        "feature_kinds": {"z": "categorical"}, "clip_B": 2.0,
    }), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--strategy", "sp", "--direction", "up", "--split", "all",
                 "--rounds", "1", "--iterations", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    _, meta = load_model(model)
    assert meta.clip_B == 2.0

    schema.write_text(json.dumps({"labels": "lbl"}), encoding="utf-8")
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--strategy", "sp", "--split", "all", "--out", str(model)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_cli_split_roles_and_seed_env(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model1 = tmp_path / "m1.json"
    model2 = tmp_path / "m2.json"
    monkeypatch.setenv("ALPHATREE_SEED", "33")
    args1 = train_args(data, model1)
    i = args1.index("all")
    args1[i] = "train"
    assert main(args1) == 0
    args2 = train_args(data, model2)
    args2[args2.index("all")] = "train"
    assert main(args2) == 0
    capsys.readouterr()
    # same env seed -> same split -> byte-identical models
    assert model1.read_bytes() == model2.read_bytes()
    monkeypatch.setenv("ALPHATREE_SEED", "oops")
    assert main(args1) == 2
    assert "ALPHATREE_SEED" in capsys.readouterr().err


def test_cli_train_with_proxy_init(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    assert main(train_args(data, model, ["--init", "proxy",
                                         "--proxy-depth", "2"])) == 0
    capsys.readouterr()
    tree, _ = load_model(model)
    assert tree.n_leaves >= 2


def test_cli_eval_reports_bound_applicability(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cli_csv(data)
    model = tmp_path / "m.json"
    save_model(model, AlphaTree(Leaf(0, 1.0)), ModelMeta(clip_B=3.0))
    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the identity wrapper sits inside both validity regions at B=3
    assert report["kl_bound_s1"] == pytest.approx(0.0743126266177878, abs=1e-12)
    assert report["kl_bound_s2"] == pytest.approx(math.pi**2 / 24, abs=1e-12)
    assert report["empirical_kl"] == pytest.approx(0.0, abs=1e-12)

    save_model(model, AlphaTree(Leaf(0, 9.0)), ModelMeta(clip_B=3.0))
    assert main(["eval", "--data", str(data), "--model", str(model),
                 "--split", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kl_bound_s1"] is None
    assert report["kl_bound_s2"] is None
