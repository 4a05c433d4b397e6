"""The benchmark's tracer swaps package functions by module attribute.

perfbench/tracer.py looks each hooked name up in the modules it lists, so a
module that stops binding one of them breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_installs_every_hook_and_restores_it():
    sys.path.insert(0, PERFBENCH)
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)
    metrics = importlib.import_module("alphatree.metrics")
    original = metrics.advantage_rate
    # both trees' split search calls the scan through this module attribute
    kernels = importlib.import_module("alphatree._kernels")
    original_scan = kernels.numeric_split_scan
    boosting = importlib.import_module("alphatree.boosting")
    original_search = boosting.best_split
    # the tracer times the proxy group model by swapping this method
    estimators = importlib.import_module("alphatree.estimators")
    proxy_tree = estimators.ProxyTree
    original_predict = proxy_tree.predict
    t = tracer.Tracer()
    try:
        t.install()
        assert metrics.advantage_rate is not original
        assert proxy_tree.predict is not original_predict
        assert kernels.numeric_split_scan is not original_scan
        assert boosting.best_split is not original_search
        x = np.arange(80.0)
        estimators.proxy_group_tree({"x": x}, {"x": "numeric"}, np.where(x < 40, "a", "b"), min_leaf=10)
        assert t.calls["split_scan"] == 1
    finally:
        t.restore()
    assert metrics.advantage_rate is original
    assert proxy_tree.predict is original_predict
    assert kernels.numeric_split_scan is original_scan
    assert boosting.best_split is original_search


LAYERS_FIRED = (
    "ingest", "model_io", "route", "wrap", "leaf_stats", "split_search", "split_scan",
    "relabel", "induction", "fairness_loop", "group_eval", "pushup", "proxy_fit",
    "proxy_predict", "metrics",
)


def test_every_benchmark_layer_fires_on_the_command_line(tmp_path, capsys):
    # a refactor that stops calling a hooked name through the hooked module
    # empties that layer of every traced benchmark run without failing it
    from alphatree.cli import main
    from alphatree.core import expit

    rng = np.random.default_rng(21)
    n = 400
    x = np.round(rng.normal(size=n), 3)
    group = np.where((x < 0) ^ (rng.random(n) < 0.2), "a", "b")
    labels = np.where(rng.random(n) < expit(2 * x), 1, -1)
    scores = np.round(expit(1.5 * x - 0.5 * (group == "a")), 4)
    data = tmp_path / "d.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("x,group,label,score\n")
        fh.writelines(f"{a},{g},{y},{s}\n" for a, g, y, s in zip(x, group, labels, scores))
    model = tmp_path / "m.json"

    sys.path.insert(0, PERFBENCH)
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)
    t = tracer.Tracer()
    try:
        t.install()
        for argv in (
            ["train", "--strategy", "sp", "--init", "proxy", "--proxy-depth", "3",
             "--epsilon", "0.001", "--iterations", "4", "--out", str(tmp_path / "proxy.json")],
            ["train", "--strategy", "eoo", "--epsilon", "0.001", "--iterations", "4",
             "--out", str(model)],
            ["eval", "--model", str(model)],
        ):
            assert main([argv[0], "--data", str(data), *argv[1:]]) == 0
    finally:
        t.restore()
    capsys.readouterr()
    assert [layer for layer in LAYERS_FIRED if t.calls[layer] == 0] == []
