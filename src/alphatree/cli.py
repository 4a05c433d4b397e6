"""Command line front end.

Subcommands: train, apply, eval, inspect, trace.  `train` fits a wrapper
tree with one of the drivers and writes a model file; `apply` scores new
rows; `eval` prints metrics as JSON; `inspect` pretty-prints a model;
`trace` runs a driver and streams the per-iteration trace as CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from .boosting import InductionConfig
from .core import (
    AlphaTree,
    DomainError,
    Leaf,
    SchemaError,
    _walk,
    clip_score,
    wrapped_scores,
)
from .data import Dataset, EmptyMeasureError, InfiniteRiskError, RunTrace, full_view, make_dataset
from .estimators import (
    gaussian_plugin_eval,
    gaussian_plugin_fit,
    label_plugin,
    proxy_group_tree,
)
from .fairness import CvarSpec, EooSpec, SpSpec, run_cvar, run_eoo, run_sp, subgroup_risks
from .io_cli import (
    LoadError,
    ModelFormatError,
    ModelMeta,
    _finite_number,
    load_dataset,
    load_model,
    parse_features,
    parse_probabilities,
    read_csv,
    read_text,
    resolve_seed,
    save_model,
    split_plan,
)
from .metrics import (
    empirical_kl,
    kl_bound_s1,
    kl_bound_s2,
    metric_auc,
    metric_cvar,
    metric_eoo_gap,
    metric_md,
    metric_sp_gap,
    metric_zero_one,
    s1_applicable,
    s2_applicable,
)

USER_ERRORS = (
    LoadError,
    ModelFormatError,
    DomainError,
    SchemaError,
    EmptyMeasureError,
    InfiniteRiskError,
    OSError,
)


COLUMN_KEYS = {"label_column", "group_column", "score_column", "weight_column", "target_column"}
SCHEMA_KEYS = COLUMN_KEYS | {"feature_kinds", "clip_B"}


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--schema", default=None, help="JSON file: column names, feature kinds, clip_B")
    p.add_argument("--label-column", default=None, help="default label, or the schema's value")
    p.add_argument("--group-column", default=None)
    p.add_argument("--score-column", default=None)
    p.add_argument("--weight-column", default=None)
    p.add_argument("--target-column", default=None, help="optional posterior column in [0, 1]")
    p.add_argument(
        "--split",
        choices=("all", "train", "cal", "test"),
        default="all",
        help="keep only this role of the seeded 40:40:20 plan",
    )
    p.add_argument("--seed", type=int, default=None, help="overrides ALPHATREE_SEED; default 0")


def _add_train_args(p: argparse.ArgumentParser) -> None:
    _add_data_args(p)
    p.add_argument("--strategy", choices=("cvar", "eoo", "sp"), required=True)
    p.add_argument("--clip-B", type=float, default=None, dest="clip_B",
                   help="clipping level; beats the schema's value, default 1.0")
    p.add_argument("--epsilon", type=float, default=0.1, help="fairness slack for eoo/sp")
    p.add_argument("--beta", type=float, default=0.5, help="tail level for cvar")
    p.add_argument("--risk-threshold", type=float, default=0.0, help="cvar early stop")
    p.add_argument("--rounds", type=int, default=4, help="outer rounds for cvar/sp")
    p.add_argument("--K", type=float, default=2.0, dest="push_K",
                   help="eoo quota divisor, raised automatically when the quota tops 1")
    p.add_argument("--direction", choices=("up", "down"), default="up", help="sp only")
    p.add_argument("--iterations", type=int, default=32, dest="max_iterations",
                   help="split budget per induction run")
    p.add_argument("--min-child-fraction", type=float, default=0.10)
    p.add_argument("--min-child-count", type=int, default=30)
    p.add_argument("--scoring", choices=("conservative", "audacious"), default="conservative")
    p.add_argument("--estimator", choices=("labels", "gaussian", "column"), default="labels",
                   help="posterior target source; column reads --target-column")
    p.add_argument("--init", choices=("stump", "proxy"), default="stump",
                   help="start from a group stump or a proxy tree over ordinary features")
    p.add_argument("--proxy-depth", type=int, default=8, dest="proxy_depth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphatree",
        description="fairness post-processing wrapper trees over black-box scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a wrapper tree and write a model file")
    _add_train_args(p_train)
    p_train.add_argument("--out", required=True, help="model JSON output path")
    p_train.add_argument("--trace-out", default=None, help="optional trace CSV output path")

    p_apply = sub.add_parser("apply", help="append wrapped scores and predictions to rows")
    p_apply.add_argument("--data", required=True)
    p_apply.add_argument("--model", required=True)
    p_apply.add_argument("--out", required=True)
    p_apply.add_argument("--score-column", default="score")

    p_eval = sub.add_parser("eval", help="print metrics of a model on labeled rows as JSON")
    _add_data_args(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--beta", type=float, default=0.5)

    p_inspect = sub.add_parser("inspect", help="pretty-print a model file")
    p_inspect.add_argument("--model", required=True)

    p_trace = sub.add_parser("trace", help="run a driver and write the trace as CSV")
    _add_train_args(p_trace)
    p_trace.add_argument("--out", default=None, help="trace CSV path; stdout when omitted")
    p_trace.add_argument("--model-out", default=None, help="optionally keep the model too")

    return parser


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _schema_file(args) -> dict:
    if not getattr(args, "schema", None):
        return {}
    text = read_text(args.schema, LoadError)
    try:
        raw = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer of more digits than int() takes
        raise LoadError(f"invalid schema JSON: {exc}") from None
    except RecursionError:
        raise LoadError("schema nests too deeply to decode") from None
    if not isinstance(raw, dict):
        raise LoadError("schema must be a JSON object")
    extra = raw.keys() - SCHEMA_KEYS
    if extra:
        raise LoadError(f"schema has unknown keys {sorted(extra)}")
    for key in sorted(raw.keys() & COLUMN_KEYS):
        if not isinstance(raw[key], str):
            raise LoadError(f"schema {key} must be a string")
    if not isinstance(raw.get("feature_kinds", {}), dict):
        raise LoadError("schema feature_kinds must be an object")
    if "clip_B" in raw:
        raw["clip_B"] = _finite_number(raw["clip_B"], "schema clip_B", LoadError)
    return raw


def _load(args, clip_B: float | None = None, tree: AlphaTree | None = None) -> Dataset:
    """Read the data file; explicit flags beat the schema file beat defaults.

    With a tree, every column it tests is read as the kind of its tests, and
    a schema kind that contradicts them is a SchemaError.
    """
    schema = _schema_file(args)
    if clip_B is None:
        clip_B = getattr(args, "clip_B", None)
    if clip_B is None:
        clip_B = schema.get("clip_B", 1.0)
    kinds = schema.get("feature_kinds")
    if tree is not None:
        kinds = dict(kinds or {})
        for name, kind in tree.feature_kinds().items():
            if kinds.setdefault(name, kind) != kind:
                raise SchemaError(
                    f"schema reads feature {name!r} as {kinds[name]}, but the model tests it as {kind}"
                )
    ds = load_dataset(
        args.data,
        clip_B,
        kinds=kinds,
        label_column=args.label_column or schema.get("label_column") or "label",
        group_column=args.group_column or schema.get("group_column") or "group",
        score_column=args.score_column or schema.get("score_column") or "score",
        weight_column=args.weight_column or schema.get("weight_column"),
        target_column=args.target_column or schema.get("target_column"),
    )
    if args.split != "all":
        seed = resolve_seed(args.seed)
        roles = split_plan(ds.labels, ds.groups, seed)
        ds = _subset(ds, roles == args.split)
    return ds


def _subset(ds: Dataset, mask: np.ndarray) -> Dataset:
    if not np.any(mask):
        raise EmptyMeasureError("selected split role has no rows")
    return make_dataset(
        {name: col[mask] for name, col in ds.features.items()},
        ds.feature_kinds(),
        ds.labels[mask],
        ds.groups[mask],
        ds.scores[mask],
        ds.clip_B,
        weights=ds.weights[mask],
        target=None if ds.target is None else ds.target[mask],
        group_column=ds.group_column,
    )


def _eta(args, ds: Dataset) -> np.ndarray:
    if args.estimator == "labels":
        return label_plugin(ds.labels)
    if args.estimator == "column":
        if ds.target is None:
            raise DomainError("estimator 'column' needs a target column in the schema or flags")
        return ds.target
    model = gaussian_plugin_fit(ds.features, ds.feature_kinds(), ds.labels, ds.weights)
    return gaussian_plugin_eval(model, ds.features)


def _run_driver(args) -> tuple[AlphaTree, RunTrace, Dataset]:
    ds = _load(args)
    eta = _eta(args, ds)
    cfg = InductionConfig(
        max_iterations=args.max_iterations,
        min_child_fraction=args.min_child_fraction,
        min_child_count=args.min_child_count,
        scoring=args.scoring,
    )
    tree0 = None
    if args.init == "proxy":
        # the drivers measure, schedule and route on the proxy's groups
        proxy = proxy_group_tree(ds.features, ds.feature_kinds(), ds.groups, max_depth=args.proxy_depth)
        ds = dataclasses.replace(ds, groups=proxy.predict(ds.features))
        tree0 = proxy.tree
    if args.strategy == "cvar":
        spec = CvarSpec(
            beta=args.beta,
            risk_threshold=args.risk_threshold,
            outer_rounds=args.rounds,
            induction=cfg,
        )
        tree, trace = run_cvar(ds, spec, tree0, eta_t=eta)
    elif args.strategy == "eoo":
        spec = EooSpec(eps=args.epsilon, K=args.push_K, induction=cfg)
        tree, trace = run_eoo(ds, spec, tree0, eta_estimate=eta)
    else:
        spec = SpSpec(
            eps=args.epsilon, direction=args.direction, outer_rounds=args.rounds, induction=cfg
        )
        tree, trace = run_sp(ds, spec, tree0)
    return tree, trace, ds


def _train_meta(args, ds: Dataset, trace: RunTrace) -> ModelMeta:
    config = {
        "strategy": args.strategy,
        "clip_B": ds.clip_B,
        "epsilon": args.epsilon,
        "beta": args.beta,
        "risk_threshold": args.risk_threshold,
        "rounds": args.rounds,
        "K": args.push_K,
        "direction": args.direction,
        "iterations": args.max_iterations,
        "min_child_fraction": args.min_child_fraction,
        "min_child_count": args.min_child_count,
        "scoring": args.scoring,
        "estimator": args.estimator,
        "init": args.init,
        "proxy_depth": args.proxy_depth,
    }
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    return ModelMeta(
        clip_B=ds.clip_B,
        scoring=args.scoring,
        strategy=args.strategy,
        config_digest=digest,
        iterations=trace.last_iteration(),
    )


def _write_trace(trace: RunTrace, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["iteration", "metric", "value", "group", "event"])
    for row in trace.rows:
        writer.writerow([row.iteration, row.metric, repr(row.value), row.group, row.event])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    tree, trace, ds = _run_driver(args)
    save_model(args.out, tree, _train_meta(args, ds, trace))
    if args.trace_out:
        with open(args.trace_out, "w", newline="", encoding="utf-8") as fh:
            _write_trace(trace, fh)
    print(f"wrote {args.out} ({tree.n_leaves} leaves)")
    return 0


def _cmd_trace(args) -> int:
    tree, trace, ds = _run_driver(args)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            _write_trace(trace, fh)
    else:
        _write_trace(trace, sys.stdout)
    if args.model_out:
        save_model(args.model_out, tree, _train_meta(args, ds, trace))
    return 0


def _cmd_apply(args) -> int:
    tree, meta = load_model(args.model)
    clip_B = meta.clip_B
    # read only the columns the model tests, each as the kind of its tests
    kinds = tree.feature_kinds()
    table = read_csv(args.data, [args.score_column], kinds)
    columns, _ = parse_features(table, kinds)
    scores = parse_probabilities(table, args.score_column, "score")
    q_f = wrapped_scores(tree, columns, clip_score(scores, clip_B))
    q_fair = q_f.tolist()
    preds = np.where(q_f > 0.5, 1, -1).tolist()

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        if table.lines is None:
            writer = csv.writer(fh)
            writer.writerow(table.header + ["q_fair", "pred"])
            writer.writerows([*row, repr(q), pred] for row, q, pred in zip(zip(*table.columns), q_fair, preds))
        else:
            # a plain line has no quote, comma-holding cell or line break for
            # csv.writer to quote, so appending to it writes the same bytes
            fh.write(",".join(table.header) + ",q_fair,pred\r\n")
            fh.write("".join([f"{line},{q!r},{pred}\r\n" for line, q, pred in zip(table.lines, q_fair, preds)]))
    print(f"wrote {args.out} ({len(q_fair)} rows)")
    return 0


def _undefined_as_none(metric, *args, undefined=DomainError):
    """metric(*args), or None where the data leave the figure undefined."""
    try:
        return metric(*args)
    except undefined:
        return None


def _finite_or_none(value):
    """The report with every non-finite figure, at any depth, made None."""
    if isinstance(value, dict):
        return {key: _finite_or_none(v) for key, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cmd_eval(args) -> int:
    from .core import route_rows  # looked up per call, as perfbench/tracer.py swaps it

    tree, meta = load_model(args.model)
    clip_B = meta.clip_B
    ds = _load(args, clip_B, tree)
    eta = label_plugin(ds.labels)
    w = full_view(ds).weights
    # the rows are routed once; every figure below looks their alphas up at these ids
    leaf_ids = route_rows(tree, ds.columns, ds.n)
    q_f = wrapped_scores(tree, ds.columns, ds.scores, leaf_ids)
    report = {
        "n": ds.n,
        "clip_B": clip_B,
        "n_leaves": tree.n_leaves,
        "zero_one": metric_zero_one(ds, tree, leaf_ids),
        # a file with one class has no ROC area
        "auc": _undefined_as_none(metric_auc, ds, tree, leaf_ids),
        # a group without weighted positive rows has no true-positive rate
        "eoo_gap": _undefined_as_none(metric_eoo_gap, ds, tree, leaf_ids, undefined=EmptyMeasureError),
        "sp_gap": metric_sp_gap(ds, tree, leaf_ids),
        "md": metric_md(ds, tree, leaf_ids),
        "cvar": metric_cvar(ds, tree, eta, args.beta, leaf_ids),
        "subgroup_risks": {str(g): r for g, r in subgroup_risks(ds, tree, eta, leaf_ids).items()},
        # a wrapped score of exactly 0 or 1 leaves the drift undefined
        "empirical_kl": _undefined_as_none(empirical_kl, w, ds.scores, q_f),
        "kl_bound_s1": kl_bound_s1(clip_B) if s1_applicable(tree, clip_B) else None,
        "kl_bound_s2": kl_bound_s2() if s2_applicable(tree, ds.columns, ds.scores, leaf_ids) else None,
    }
    print(json.dumps(_finite_or_none(report), sort_keys=True, indent=2, allow_nan=False))
    return 0


def _classify_alpha(a: float) -> str:
    if a == 1.0:
        return "identity (alpha=1)"
    if a > 1.0:
        return "sharpening (alpha>1)"
    if a > 0.0:
        return "dampening (0<alpha<1)"
    if a == 0.0:
        return "flattening (alpha=0)"
    return "polarity-reversing (alpha<0)"


def _cmd_inspect(args) -> int:
    tree, meta = load_model(args.model)
    lines = [
        f"clip_B: {meta.clip_B!r}",
        f"scoring: {meta.scoring}",
        f"strategy: {meta.strategy}",
        f"leaves: {tree.n_leaves}",
        f"depth: {max(depth for _, depth, _ in _walk(tree.root))}",
        "",
    ]
    for node, depth, side in _walk(tree.root):
        pad = "  " * depth
        if side == "right":
            lines.append(f"{pad[2:]}else:")
        if isinstance(node, Leaf):
            lines.append(f"{pad}leaf {node.leaf_id}: alpha={node.alpha!r} [{_classify_alpha(node.alpha)}]"
                         f" edge={node.edge!r} mass={node.mass!r}")
        else:
            lines.append(f"{pad}if {node.test.describe()}:")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "apply": _cmd_apply,
        "eval": _cmd_eval,
        "inspect": _cmd_inspect,
        "trace": _cmd_trace,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # output that fit the buffer meets a closed stdout here
        return status
    except BrokenPipeError:
        # the reader closed stdout: not a user error; fd 1 goes to devnull so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
