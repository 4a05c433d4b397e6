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
