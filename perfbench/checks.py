"""Output checks of the benchmark, computed apart from the program.

Nothing here imports alphatree.  The router, the wrap and every metric are
written again from the method's definitions, so a fault in the package
cannot hide itself by agreeing with itself.  Each check function returns a
list of failure messages; an empty list means the output passed.

Conventions shared with the method:

* a numeric test sends a row left iff value <= threshold, a categorical
  test iff the value (as a string) equals the modality;
* scores are clipped to [1/(1+e^B), 1/(1+e^-B)] and wrapped as
  q^a / (q^a + (1-q)^a);
* a prediction is +1 exactly when the wrapped score exceeds 1/2;
* the target of the log-loss is the label, 1{y = +1}.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

WRAP_TOL = 1e-12
METRIC_TOL = 1e-9
ENTROPY_TOL = 1e-12
BETA = 0.5


# ---------------------------------------------------------------------------
# rows and models
# ---------------------------------------------------------------------------


class Rows:
    """Lines of a headed CSV, its columns as strings, and the parsed specials."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.header = lines[0].split(",")
        self.lines = lines[1:]
        self.n = len(self.lines)
        cols = zip(*(line.split(",") for line in self.lines))
        self.raw = {name: np.array(col) for name, col in zip(self.header, cols)}
        self.labels = np.where(np.isin(self.raw["label"], ("1", "+1")), 1, -1)
        self.groups = self.raw["group"]
        self._floats: dict[str, np.ndarray] = {}
        self.scores = self.numeric("score")

    def numeric(self, name: str) -> np.ndarray:
        """The column parsed as floats; ValueError when a value is no number."""
        if name not in self._floats:
            self._floats[name] = np.array(list(map(float, self.raw[name].tolist())))
        return self._floats[name]


def read_rows(path: str) -> Rows:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return Rows(fh.read())


def load_model(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def model_leaves(node: dict) -> list[dict]:
    if node["kind"] == "leaf":
        return [node]
    return model_leaves(node["left"]) + model_leaves(node["right"])


def model_features(node: dict) -> set[str]:
    if node["kind"] == "leaf":
        return set()
    return {node["test"]["feature"]} | model_features(node["left"]) | model_features(node["right"])


def route_alphas(model: dict, rows: Rows, unmatched: frozenset = frozenset()) -> np.ndarray:
    """Leaf alpha of every row, by an explicit stack walk of the model tree.

    Categorical tests on a feature named in unmatched never pass, which is
    how a column that was wrongly parsed as numbers routes.
    """
    alphas = np.full(rows.n, np.nan)
    stack = [(model["tree"], np.arange(rows.n))]
    while stack:
        node, idx = stack.pop()
        if node["kind"] == "leaf":
            alphas[idx] = node["alpha"]
            continue
        test = node["test"]
        if test["kind"] == "numeric":
            left = rows.numeric(test["feature"])[idx] <= test["threshold"]
        elif test["feature"] in unmatched:
            left = np.zeros(idx.shape[0], dtype=bool)
        else:
            left = rows.raw[test["feature"]][idx] == test["modality"]
        stack.append((node["left"], idx[left]))
        stack.append((node["right"], idx[~left]))
    return alphas


def clipped(scores: np.ndarray, B: float) -> np.ndarray:
    lo = 1.0 / (1.0 + math.exp(B))
    hi = 1.0 / (1.0 + math.exp(-B))
    return np.clip(scores, lo, hi)


def wrap(q: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """q^a / (q^a + (1-q)^a), written as 1 / (1 + ((1-q)/q)^a)."""
    return 1.0 / (1.0 + np.power((1.0 - q) / q, alphas))


def wrapped(model: dict, rows: Rows, unmatched: frozenset = frozenset()) -> np.ndarray:
    B = float(model["clip_B"])
    return wrap(clipped(rows.scores, B), route_alphas(model, rows, unmatched))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def log_loss(q: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.where(labels == 1, -np.log(q), -np.log1p(-q))


def group_risks(q: np.ndarray, rows: Rows) -> dict[str, float]:
    loss = log_loss(q, rows.labels)
    return {g: float(loss[rows.groups == g].mean()) for g in sorted(set(rows.groups.tolist()))}


def tail_cvar(risks: dict[str, float], masses: dict[str, float], beta: float = BETA) -> float:
    """Mass-weighted mean risk of the groups in the beta tail.

    The tail holds the ceil((1-beta) k) riskiest of k groups, and every
    group tied with the last of them.
    """
    k = len(risks)
    keep = max(1, min(k, math.ceil((1.0 - beta) * k - 1e-9)))
    threshold = sorted(risks.values(), reverse=True)[keep - 1]
    tail = [g for g in risks if risks[g] >= threshold]
    total = sum(masses[g] for g in tail)
    return sum(masses[g] * risks[g] for g in tail) / total


def group_masses(rows: Rows) -> dict[str, float]:
    return {g: float(np.mean(rows.groups == g)) for g in sorted(set(rows.groups.tolist()))}


def holdout_quality(model: dict, rows: Rows) -> tuple[float, float]:
    """(beta-tail log-loss over groups, zero-one error) of the wrapped model."""
    q = wrapped(model, rows)
    cvar = tail_cvar(group_risks(q, rows), group_masses(rows))
    error = float(np.mean(np.where(q > 0.5, 1, -1) != rows.labels))
    return cvar, error


def auc(q: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve; a positive tied with a negative counts half."""
    values, inverse = np.unique(q, return_inverse=True)
    pos = np.bincount(inverse, weights=(labels == 1).astype(float), minlength=values.size)
    neg = np.bincount(inverse, weights=(labels != 1).astype(float), minlength=values.size)
    neg_below = np.cumsum(neg) - neg
    return float(np.sum(pos * (neg_below + 0.5 * neg)) / (pos.sum() * neg.sum()))


def spread(values) -> float:
    values = list(values)
    return float(max(values) - min(values))


def eval_report(model: dict, rows: Rows) -> dict:
    """What `eval` must print for these rows, computed from the definitions."""
    B = float(model["clip_B"])
    qu = clipped(rows.scores, B)
    q = wrapped(model, rows)
    pred = q > 0.5
    groups = sorted(set(rows.groups.tolist()))
    risks = group_risks(q, rows)
    pos = rows.labels == 1
    kl = qu * np.log(qu / q) + (1.0 - qu) * np.log((1.0 - qu) / (1.0 - q))
    return {
        "zero_one": float(np.mean(np.where(pred, 1, -1) != rows.labels)),
        "auc": auc(q, rows.labels),
        "cvar": tail_cvar(risks, group_masses(rows)),
        "subgroup_risks": risks,
        "sp_gap": spread(q[rows.groups == g].mean() for g in groups),
        "eoo_gap": spread(pred[(rows.groups == g) & pos].mean() for g in groups),
        "md": spread(pred[rows.groups == g].mean() for g in groups),
        "empirical_kl": float(np.mean(kl)),
    }


def s1_ceiling(B: float) -> float:
    return math.pi**2 / (6.0 * (2.0 + math.exp(B) + math.exp(-B)))


# ---------------------------------------------------------------------------
# checks of one command's output
# ---------------------------------------------------------------------------


def check_eval(report: dict, model: dict, rows: Rows) -> list[str]:
    """The printed eval report against the benchmark's own metric values."""
    want = eval_report(model, rows)
    fails = []
    for key in ("zero_one", "auc", "cvar", "sp_gap", "eoo_gap", "md", "empirical_kl"):
        got = report.get(key)
        if not isinstance(got, (int, float)) or abs(got - want[key]) > METRIC_TOL:
            fails.append(f"eval {key}: got {got!r}, want {want[key]!r}")
    got_risks = report.get("subgroup_risks", {})
    if sorted(got_risks) != sorted(want["subgroup_risks"]):
        fails.append(f"eval subgroup_risks groups {sorted(got_risks)}")
    else:
        for g, r in want["subgroup_risks"].items():
            if abs(got_risks[g] - r) > METRIC_TOL:
                fails.append(f"eval subgroup_risks[{g}]: got {got_risks[g]!r}, want {r!r}")
    B = float(model["clip_B"])
    alphas = [leaf["alpha"] for leaf in model_leaves(model["tree"])]
    if B <= 3.0 and all(abs(a - 1.0) <= 1.0 / B for a in alphas):
        if not want["empirical_kl"] <= s1_ceiling(B):
            fails.append(f"empirical_kl {want['empirical_kl']!r} above the S1 ceiling")
    return fails


def check_apply(out_text: str, rows: Rows, model: dict,
                unmatched: frozenset = frozenset()) -> list[str]:
    """Scored rows: inputs kept, q_fair equal to our wrap, pred = q_fair > 1/2.

    With unmatched given, the wrap is the one a router computes when the
    named columns never match a categorical test.
    """
    lines = out_text.splitlines()
    if not lines or lines[0] != ",".join(rows.header + ["q_fair", "pred"]):
        return [f"apply header {lines[:1]!r}"]
    if len(lines) - 1 != rows.n:
        return [f"apply wrote {len(lines) - 1} rows for {rows.n}"]
    kept, q_fair, pred = zip(*(line.rsplit(",", 2) for line in lines[1:]))
    fails = []
    changed = [i for i, (a, b) in enumerate(zip(kept, rows.lines)) if a != b]
    if changed:
        fails.append(f"apply changed {len(changed)} input rows, first row {changed[0] + 1}")
    q_fair = np.array(list(map(float, q_fair)))
    want = wrapped(model, rows, unmatched)
    off = np.abs(q_fair - want)
    if not np.all(off <= WRAP_TOL):
        fails.append(f"apply q_fair off our wrap on {int(np.sum(off > WRAP_TOL))} rows, "
                     f"max {float(off.max())!r}")
    bad = np.flatnonzero(np.array(pred) != np.where(q_fair > 0.5, "1", "-1"))
    if bad.size:
        fails.append(f"apply pred disagrees with q_fair > 1/2 on {bad.size} rows")
    return fails


def read_trace(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {"iteration": int(r["iteration"]), "metric": r["metric"],
             "value": float(r["value"]), "group": r["group"], "event": r["event"]}
            for r in csv.DictReader(fh)
        ]


def split_events(trace: list[dict]) -> list[int]:
    """Leaf id named by every split event, in order."""
    return [int(r["event"].split()[1].split("=")[1])
            for r in trace if r["event"].startswith("split leaf=")]


OBJECTIVE = {"cvar": "cvar", "eoo": "eoo_gap", "sp": "sp_gap"}


def check_train(model: dict, trace: list[dict], strategy: str,
                start_leaves: int | None) -> list[str]:
    """Properties every trained model and its trace must have.

    start_leaves is the leaf count of the starting tree; None when it is a
    proxy tree the benchmark does not refit, in which case the leaf ids
    alone must be consistent with the split events.
    """
    fails = []
    last_entropy = None
    for r in trace:
        if r["metric"] == "tree_entropy":
            if r["event"].startswith("split") and last_entropy is not None \
                    and r["value"] > last_entropy + ENTROPY_TOL:
                fails.append(f"tree entropy rose at iteration {r['iteration']}: "
                             f"{last_entropy!r} -> {r['value']!r}")
            last_entropy = r["value"]
        elif r["metric"] == "risk":
            if last_entropy is None or r["value"] > last_entropy + 1e-9:
                fails.append(f"risk {r['value']!r} above tree entropy {last_entropy!r} "
                             f"at iteration {r['iteration']}")
    objective = [r["value"] for r in trace if r["metric"] == OBJECTIVE[strategy]]
    if not objective:
        fails.append(f"trace has no {OBJECTIVE[strategy]} rows")
    elif objective[-1] > objective[0] + ENTROPY_TOL:
        fails.append(f"{OBJECTIVE[strategy]} rose over the run: {objective[0]!r} -> {objective[-1]!r}")

    splits = split_events(trace)
    ids = sorted(leaf["leaf_id"] for leaf in model_leaves(model["tree"]))
    if start_leaves is None:
        start_leaves = len(ids) - len(splits)
    if len(ids) != start_leaves + len(splits):
        fails.append(f"{len(ids)} leaves from {start_leaves} starting leaves and {len(splits)} splits")
    # replay the splits: each replaces a current leaf by two fresh ids above
    # the current largest
    current = set(range(start_leaves))
    for lid in splits:
        if lid not in current:
            fails.append(f"split names leaf {lid}, which is not a leaf then")
            break
        top = max(current)
        current.remove(lid)
        current.update((top + 1, top + 2))
    else:
        if sorted(current) != ids:
            fails.append("model leaf ids do not follow from the split events")
    return fails
