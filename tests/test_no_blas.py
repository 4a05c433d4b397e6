"""The package takes every weighted sum through `core.dot` and never calls BLAS.

A threaded BLAS dot adds its parts in another order than one thread, so any
BLAS call would make outputs depend on the BLAS thread count.
"""

import ast
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
from alphatree import AlphaTree, Leaf, ModelMeta, Node, SplitTest, save_model
from alphatree.core import dot
from alphatree.fairness import cvar_value

PACKAGE = Path(alphatree.__file__).resolve().parent
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """Each numpy BLAS entry point that a module's source names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in BLAS_NAMES]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "einsum":
                found.append(f"line {node.lineno}: einsum(optimize=...)")
    return found


@pytest.mark.parametrize("source", [
    "np.dot(a, b)", "a.dot(b)", "f = numpy.dot", "a @ b", "a @= b", "np.matmul(a, b)",
    "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b, 1)", "from numpy import inner",
    "from numpy.linalg import matmul", "np.einsum('i,i->', a, b, optimize=True)",
    "einsum('ij,jk->ik', a, b, optimize='greedy')",
])
def test_blas_scan_flags_every_form(source):
    assert blas_uses(source)


def test_blas_scan_passes_the_package_idiom():
    assert blas_uses("from .core import dot\nx = dot(w, v)\ny = np.einsum('i,i->', a, b)\n") == []


def test_package_makes_no_blas_call():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {p.name: blas_uses(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(0, 40), st.integers(0, 20_000)),
    step=st.integers(1, 4),
    offset=st.integers(0, 3),
    spread=st.integers(0, 12),
)
@settings(max_examples=120, deadline=None)
def test_dot_is_accurate_and_ignores_layout(seed, n, step, offset, spread):
    rng = np.random.default_rng(seed)
    size = offset + n * step
    a_full = rng.normal(size=size) * 10.0 ** rng.integers(-spread, spread + 1, size)
    b_full = rng.normal(size=size) * 10.0 ** rng.integers(-spread, spread + 1, size)
    a_full[rng.random(size) < 0.1] = 0.0
    a = a_full[offset::step][:n]
    b = b_full[offset::step][:n]
    a_copy = np.ascontiguousarray(a)
    b_copy = np.ascontiguousarray(b)

    got = dot(a, b)
    assert type(got) is float
    exact = math.fsum(a_copy * b_copy)
    assert abs(got - exact) <= n * np.finfo(float).eps * math.fsum(np.abs(a_copy * b_copy))
    # a strided view sums in the order of its contiguous copy
    assert got.hex() == dot(a_copy, b_copy).hex()
    assert got.hex() == dot(a, b_copy).hex() == dot(a_copy, b).hex()


def test_dot_takes_the_list_cvar_value_passes():
    risks = {"a": 0.3, "b": 1.7, "c": 0.9}
    weights = {"a": 0.2, "b": 0.5, "c": 0.3}
    tail = ["b", "c"]
    masses = np.array([weights[g] for g in tail])
    got = dot(masses, [risks[g] for g in tail])
    assert type(got) is float
    assert got.hex() == dot(masses, np.array([risks[g] for g in tail])).hex()
    assert cvar_value(risks, 0.5, weights) == got / float(masses.sum())


# ---------------------------------------------------------------------------
# outputs do not depend on the BLAS thread count
# ---------------------------------------------------------------------------

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")


def blas_data(path, n_per_group=10_500):
    """Two groups of more than 10,000 rows: each group's dots are long enough
    for OpenBLAS to split them over its threads."""
    rng = np.random.default_rng(20)
    n = 2 * n_per_group
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    group = np.repeat(["a", "b"], n_per_group)
    score = 1.0 / (1.0 + np.exp(-(x0 + 0.5 * x1 + rng.normal(size=n))))
    label = np.where(rng.random(n) < score, 1, -1)
    lines = ["x0,x1,group,label,score"] + [
        f"{a!r},{b!r},{g},{y},{q!r}" for a, b, g, y, q in zip(x0.tolist(), x1.tolist(), group, label, score.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = tmp_path / "d.csv"
    blas_data(data)
    model = tmp_path / "fixed.json"
    tree = AlphaTree(Node(SplitTest("x0", "numeric", threshold=0.1), Leaf(0, 1.3),
                          Node(SplitTest("group", "categorical", modality="a"), Leaf(1, 0.7), Leaf(2, 1.1))))
    save_model(model, tree, ModelMeta(clip_B=3.0))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    outputs = {}
    for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        (tmp_path / name).mkdir()
        trained, trace = tmp_path / name / "m.json", tmp_path / name / "t.csv"
        runs = [
            ["train", "--data", str(data), "--strategy", "cvar", "--clip-B", "3", "--split", "all",
             "--rounds", "1", "--iterations", "2", "--out", str(trained), "--trace-out", str(trace)],
            ["eval", "--data", str(data), "--model", str(model), "--split", "all", "--beta", "0.5"],
        ]
        printed = []
        for argv in runs:
            run = subprocess.run([sys.executable, "-m", "alphatree.cli", *argv], env=dict(env, **extra),
                                 capture_output=True, text=True, timeout=60)
            assert run.returncode == 0, run.stderr
            printed.append(run.stdout.replace(str(tmp_path / name), "DIR"))
        outputs[name] = (printed, trained.read_bytes(), trace.read_bytes())
    assert outputs["one"] == outputs["default"]
