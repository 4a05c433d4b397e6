"""Per-layer spans and counts, recorded from outside the package.

The tracer swaps module attributes that alphatree looks up at call time
for wrappers that record a span (name, start, end, parent) and bump work
counters.  Spans stay in memory; `self_seconds` folds them into each
layer's self time, its span time minus the time of its child spans.
`restore` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _rows_arg(position: int, name: str):
    def count(args, kwargs, out):
        return int(args[position] if len(args) > position else kwargs[name])
    return count


def _view_rows(args, kwargs, out):
    return int(args[0].n)


def _scores_rows(args, kwargs, out):
    return int(len(args[2]))


def _dataset_rows(args, kwargs, out):
    return int(out.n)


# (layer, modules whose attribute is swapped, attribute, rows counter).
# The same function is swapped in every module that binds it by name.
LAYERS = (
    ("ingest", ("alphatree.cli",), "load_dataset", _dataset_rows),
    ("model_io", ("alphatree.cli",), "save_model", None),
    ("model_io", ("alphatree.cli",), "load_model", None),
    ("route", ("alphatree.core", "alphatree.data"), "route_rows", _rows_arg(2, "n")),
    ("wrap", ("alphatree.core", "alphatree.cli", "alphatree.fairness", "alphatree.metrics"),
     "wrapped_scores", _scores_rows),
    ("leaf_stats", ("alphatree.boosting",), "leaf_stats", _view_rows),
    ("split_search", ("alphatree.boosting",), "best_split", _view_rows),
    ("split_scan", ("alphatree._kernels",), "numeric_split_scan", None),
    ("relabel", ("alphatree.boosting",), "relabel_leaves", None),
    ("induction", ("alphatree.fairness",), "topdown", None),
    ("fairness_loop", ("alphatree.cli",), "run_cvar", None),
    ("fairness_loop", ("alphatree.cli",), "run_eoo", None),
    ("fairness_loop", ("alphatree.cli",), "run_sp", None),
    ("group_eval", ("alphatree.fairness", "alphatree.metrics", "alphatree.cli"),
     "subgroup_risks", None),
    ("group_eval", ("alphatree.fairness", "alphatree.metrics"), "advantage_rate", None),
    ("pushup", ("alphatree.fairness",), "pushup_posterior", None),
    ("proxy_fit", ("alphatree.cli",), "proxy_group_tree", None),
) + tuple(
    ("metrics", ("alphatree.cli",), name, None)
    for name in ("metric_zero_one", "metric_auc", "metric_eoo_gap", "metric_sp_gap",
                 "metric_md", "metric_cvar", "empirical_kl", "s1_applicable", "s2_applicable")
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, rows=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            self.calls[name] += 1
            if rows is not None:
                self.rows[name] += rows(args, kwargs, out)
            if out is not None:
                self.hits[name] += 1
            return out
        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer, modules, attr, rows in LAYERS:
            for modname in modules:
                module = importlib.import_module(modname)
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(layer, fn, rows)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        proxy_tree = importlib.import_module("alphatree.estimators").ProxyTree
        self._saved.append((proxy_tree, "predict", proxy_tree.predict))
        proxy_tree.predict = self.wrap("proxy_predict", proxy_tree.predict)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of child spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def total_seconds(self) -> dict[str, float]:
        """Span time per name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
        return out

    def write(self, fh, op: int) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{op},{i},{name},{start!r},{end!r},{parent}\n")
