"""Self-test of the benchmark's output checks: right outputs pass, and
outputs that are wrong by a little fail.  Small inputs keep it to seconds.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json

import pytest

import checks
import inputs


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    paths = {"rows": str(d / "rows.csv"), "model": str(d / "model.json"),
             "trained": str(d / "trained.json"), "trace": str(d / "trace.csv")}
    inputs.write_csv(paths["rows"], inputs.make_rows([5, 1], 3000))
    inputs.write_model(paths["model"], inputs.make_model([5, 0], 16, 2.0))
    return paths


def cli(argv):
    from alphatree.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def scored_text(rows, q):
    """An `apply` output for rows with wrapped scores q."""
    out = [",".join(rows.header + ["q_fair", "pred"])]
    for line, v in zip(rows.lines, q.tolist()):
        out.append(f"{line},{v!r},{1 if v > 0.5 else -1}")
    return "\n".join(out) + "\n"


def test_apply_check_rejects_q_fair_off_by_1e9(files):
    rows = checks.read_rows(files["rows"])
    model = checks.load_model(files["model"])
    q = checks.wrapped(model, rows)
    assert checks.check_apply(scored_text(rows, q), rows, model) == []
    q[17] += 1e-9
    fails = checks.check_apply(scored_text(rows, q), rows, model)
    assert len(fails) == 1 and "q_fair off our wrap on 1 rows" in fails[0]


def test_apply_check_rejects_swapped_group_code(files):
    rows = checks.read_rows(files["rows"])
    model = checks.load_model(files["model"])
    lines = scored_text(rows, checks.wrapped(model, rows)).splitlines()
    i = next(i for i in range(1, len(lines)) if lines[i].split(",")[1] == "0")
    fields = lines[i].split(",")
    fields[1] = "1"
    lines[i] = ",".join(fields)
    fails = checks.check_apply("\n".join(lines) + "\n", rows, model)
    assert fails and f"first row {i}" in fails[0]


def test_apply_fault_is_told_apart_from_other_faults(files):
    rows = checks.read_rows(files["rows"])
    model = checks.load_model(files["model"])
    text = scored_text(rows, checks.wrapped(model, rows, unmatched=frozenset({"group"})))
    assert checks.check_apply(text, rows, model)
    assert checks.check_apply(text, rows, model, unmatched=frozenset({"group"})) == []


def test_eval_check_agrees_with_program_and_rejects_drift(files):
    rows = checks.read_rows(files["rows"])
    model = checks.load_model(files["model"])
    report = json.loads(cli(["eval", "--data", files["rows"], "--model", files["model"]]))
    assert checks.check_eval(report, model, rows) == []
    report["auc"] += 1e-8
    fails = checks.check_eval(report, model, rows)
    assert len(fails) == 1 and fails[0].startswith("eval auc")


def test_train_check_rejects_rising_tree_entropy(files):
    cli(["train", "--data", files["rows"], "--strategy", "cvar", "--rounds", "1",
         "--iterations", "4", "--out", files["trained"], "--trace-out", files["trace"]])
    model = checks.load_model(files["trained"])
    trace = checks.read_trace(files["trace"])
    assert checks.check_train(model, trace, "cvar", 3) == []
    entropy = [r for r in trace if r["metric"] == "tree_entropy"]
    assert entropy[-1]["event"].startswith("split")
    entropy[-1]["value"] = entropy[-2]["value"] + 1e-9
    fails = checks.check_train(model, trace, "cvar", 3)
    assert any(f.startswith("tree entropy rose") for f in fails)


def test_train_check_rejects_leaves_that_splits_do_not_explain(files):
    cli(["train", "--data", files["rows"], "--strategy", "cvar", "--rounds", "1",
         "--iterations", "4", "--out", files["trained"], "--trace-out", files["trace"]])
    model = checks.load_model(files["trained"])
    trace = checks.read_trace(files["trace"])
    splits = [r for r in trace if r["event"].startswith("split")]
    assert splits
    trace.remove(splits[-1])
    assert any("leaves from 3 starting leaves" in f
               for f in checks.check_train(model, trace, "cvar", 3))
