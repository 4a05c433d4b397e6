"""Seeded inputs of the benchmark: CSV rows and the fixed score-100k model.

Every file is a pure function of its seed, so two runs with one seed read
the same bytes.  Rows have three groups of unequal size coded "0", "1" and
"2", six numeric features rounded to 2 decimals, one 8-level categorical
feature with letter codes, a label drawn from a logistic model, and a
black-box score that is skewed against group "2".
"""

from __future__ import annotations

import json

import numpy as np

GROUPS = ("0", "1", "2")
GROUP_P = (0.55, 0.30, 0.15)
LEVELS = tuple("ABCDEFGH")
NUMERIC = tuple(f"x{i}" for i in range(6))
HEADER = ("label", "group", "score") + NUMERIC + ("cat",)

# group g shifts the mean of x0 and x1 by SHIFT[g]; the proxy group tree of
# proxy-sp-10k needs features that predict the group
SHIFT = np.array([0.0, 1.5, 3.0])
# true label logit: weights of x0..x5, per-level effect of cat, per-group offset
LABEL_W = np.array([0.9, -0.7, 0.6, 0.0, 0.4, -0.3])
CAT_EFFECT = np.linspace(-0.8, 0.8, len(LEVELS))
GROUP_EFFECT = np.array([0.0, 0.2, 0.5])
# the black box sees a noisy label logit and under-scores group "2"
SCORE_SKEW = np.array([0.0, -0.3, -1.6])


def make_rows(seed, n: int) -> dict[str, np.ndarray]:
    """n rows of the benchmark's population; seed is an int or a list of ints."""
    rng = np.random.default_rng(seed)
    g = rng.choice(len(GROUPS), size=n, p=GROUP_P)
    x = rng.normal(size=(n, len(NUMERIC)))
    x[:, 0] += SHIFT[g]
    x[:, 1] += SHIFT[g]
    x = np.round(x, 2)
    # level probabilities tilt with the group
    tilt = np.exp(np.outer(g - 1.0, np.linspace(-0.6, 0.6, len(LEVELS))))
    cdf = np.cumsum(tilt / tilt.sum(axis=1, keepdims=True), axis=1)
    cat = (rng.random(n)[:, None] > cdf).sum(axis=1).clip(0, len(LEVELS) - 1)
    logit = x @ LABEL_W + CAT_EFFECT[cat] + GROUP_EFFECT[g]
    label = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-logit)), 1, 0)
    s_logit = 0.8 * logit + rng.normal(scale=0.6, size=n) + SCORE_SKEW[g]
    score = np.round(1.0 / (1.0 + np.exp(-s_logit)), 6)
    rows = {"label": label, "group": np.array(GROUPS)[g], "score": score}
    for j, name in enumerate(NUMERIC):
        rows[name] = x[:, j]
    rows["cat"] = np.array(LEVELS)[cat]
    return rows


def _two_decimals(values: np.ndarray) -> list[str]:
    """"%.2f" of every value, looked up by its integer number of hundredths."""
    cents = np.rint(values * 100.0).astype(np.int64)
    low = int(cents.min())
    table = np.array(["%.2f" % (c / 100.0) for c in range(low, int(cents.max()) + 1)])
    return table[cents - low].tolist()


def write_csv(path: str, rows: dict[str, np.ndarray]) -> None:
    cols = [
        rows["label"].astype(str).tolist(),
        rows["group"].tolist(),
        ["%.6f" % v for v in rows["score"].tolist()],
        *(_two_decimals(rows[name]) for name in NUMERIC),
        rows["cat"].tolist(),
    ]
    lines = [",".join(HEADER)]
    lines.extend(map(",".join, zip(*cols)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the fixed model of score-100k
# ---------------------------------------------------------------------------


def make_model(seed, n_leaves: int, clip_B: float) -> dict:
    """Model-file object of a random tree with n_leaves leaves.

    Like a tree that `train` grows from its stump, it opens with a chain of
    group tests, one leaf per group; below each group leaf it grows numeric
    and categorical tests.  Every alpha lies within 1/clip_B of 1, so the
    S1 drift ceiling applies.
    """
    rng = np.random.default_rng(seed)
    next_id = [0]

    def leaf():
        lid = next_id[0]
        next_id[0] += 1
        alpha = 1.0 + float(rng.uniform(-1.0, 1.0)) / clip_B
        return {"alpha": alpha, "edge": 0.0, "kind": "leaf", "leaf_id": lid, "mass": 0.0}

    def test():
        j = int(rng.integers(len(NUMERIC) + 1))
        if j == len(NUMERIC):
            return {"feature": "cat", "kind": "categorical",
                    "modality": LEVELS[int(rng.integers(len(LEVELS)))]}
        return {"feature": NUMERIC[j], "kind": "numeric",
                "threshold": round(float(rng.normal(scale=0.8)), 3)}

    def grow(k):
        if k == 1:
            return leaf()
        left = int(rng.integers(1, k))
        return {"kind": "node", "test": test(), "left": grow(left), "right": grow(k - left)}

    per_group = [n_leaves // len(GROUPS)] * len(GROUPS)
    per_group[0] += n_leaves - sum(per_group)
    subtrees = [grow(k) for k in per_group]
    root = subtrees[-1]
    for g in range(len(GROUPS) - 2, -1, -1):
        root = {"kind": "node",
                "test": {"feature": "group", "kind": "categorical", "modality": GROUPS[g]},
                "left": subtrees[g], "right": root}
    return {
        "clip_B": float(clip_B),
        "format_version": "1",
        "provenance": {"config_digest": "", "iterations": 0, "strategy": "fixed"},
        "scoring": "conservative",
        "tree": root,
    }


def write_model(path: str, model: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(model, sort_keys=True, indent=2) + "\n")
