"""Alpha-tree core: clipping, logits, the pointwise wrapping transform, and
the immutable tree structure that routes inputs to per-leaf correction
exponents.

An alpha-tree is a rooted binary tree whose internal nodes test a single
feature (numeric threshold or categorical modality) and whose leaves hold a
real exponent ``alpha``.  Wrapping a probability ``q`` with exponent ``a``
produces ``q**a / (q**a + (1-q)**a)``, which equals ``sigmoid(a * logit(q))``;
the logit form is what we compute, since it stays finite for any ``|a|`` up
to the configured cap.

Conventions used throughout the package:

* scores live in the clipped interval ``I(B) = [1/(1+e**B), 1/(1+e**-B)]``;
* a numeric test routes a row LEFT iff ``value <= threshold``;
* a categorical test routes a row LEFT iff ``value == modality``;
* leaf identifiers are stable integers, preserved by serialization.

All structures here are immutable after construction and every function is
pure, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "A_MAX",
    "ALPHA_ZERO_TOL",
    "EDGE_EPS",
    "DomainError",
    "SchemaError",
    "NonInvertibleError",
    "SplitTest",
    "Leaf",
    "Node",
    "AlphaTree",
    "clip_bounds",
    "clip_score",
    "logit",
    "expit",
    "xlogy",
    "nlogit",
    "apply_alpha",
    "compose_alpha",
    "evaluate_tree",
    "wrap",
    "wrap_chain",
    "wrapped_scores",
    "invert_tree",
    "single_leaf_tree",
    "stump",
    "route_rows",
    "alpha_at_rows",
]

# Cap on leaf exponent magnitude: labels beyond this are clamped so that
# compositions and inversions stay finite.
A_MAX = 50.0

# Leaves with |alpha| below this are treated as non-invertible.
ALPHA_ZERO_TOL = 1e-12

# Guard for log((1+edge)/(1-edge)) style label formulas, which diverge at
# |edge| = 1.
EDGE_EPS = 1e-9


class DomainError(ValueError):
    """An input fell outside the mathematical domain of an operation."""


class SchemaError(ValueError):
    """A record is missing a feature the tree needs, or kinds mismatch."""


class NonInvertibleError(ValueError):
    """Raised when inverting a tree that has a (near-)zero leaf exponent."""


# ---------------------------------------------------------------------------
# scalar/array transforms
# ---------------------------------------------------------------------------


def _check_B(B: float) -> float:
    B = float(B)
    if not math.isfinite(B) or B <= 0.0:
        raise DomainError(f"clip bound B must be a positive finite real, got {B!r}")
    return B


def _as_float_array(q) -> tuple[np.ndarray, bool]:
    arr = np.asarray(q, dtype=float)
    scalar = arr.ndim == 0
    return arr, scalar


def clip_bounds(B: float) -> tuple[float, float]:
    """Endpoints (lo, hi) of the clipped score interval for half-width B."""
    B = _check_B(B)
    return float(expit(-B)), float(expit(B))


def clip_score(q, B: float):
    """Clamp a probability (or array of them) into the interval I(B).

    Idempotent and monotone.  Rejects non-finite inputs and values outside
    [0, 1].
    """
    arr, scalar = _as_float_array(q)
    if not np.all(np.isfinite(arr)):
        raise DomainError("score must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("score must lie in [0, 1]")
    lo, hi = clip_bounds(B)
    out = np.minimum(np.maximum(arr, lo), hi)
    return float(out) if scalar else out


def logit(u):
    """log(u / (1-u)); domain error on u in {0, 1} or outside (0, 1)."""
    arr, scalar = _as_float_array(u)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("logit requires 0 < u < 1")
    out = np.log(arr) - np.log1p(-arr)
    return float(out) if scalar else out


def expit(x):
    """Logistic sigmoid 1/(1+exp(-x)): 0 at -inf, 1 at +inf, nan at nan.

    Below about -709.78, exp(-x) overflows to inf and the result is 0,
    with no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def xlogy(x, y):
    """x*log(y), taken as 0 where x == 0 and y is not nan (so 0 log 0 = 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where((x == 0.0) & ~np.isnan(y), 0.0, out)


def nlogit(u, B: float):
    """Normalized logit, logit(u)/B.  Maps I(B) onto [-1, 1].

    Values outside I(B) (beyond a 1-ulp float guard) are a domain error:
    normalized confidence is only meaningful for clipped scores.
    """
    B = _check_B(B)
    lo, hi = clip_bounds(B)
    arr, scalar = _as_float_array(u)
    tol = 1e-12
    if np.any(arr < lo - tol) or np.any(arr > hi + tol):
        raise DomainError(f"score outside clipped interval [{lo!r}, {hi!r}] for B={B}")
    out = logit(arr) / B
    return float(out) if scalar else out


def apply_alpha(q, alpha):
    """Wrap probability q with exponent alpha: sigmoid(alpha * logit(q)).

    Algebraically identical to q**alpha / (q**alpha + (1-q)**alpha) but does
    not overflow for large |alpha|.  q must be strictly inside (0, 1).
    """
    qa, q_scalar = _as_float_array(q)
    aa, a_scalar = _as_float_array(alpha)
    if not np.all(np.isfinite(aa)):
        raise DomainError("alpha must be finite")
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise DomainError("apply_alpha requires 0 < q < 1")
    out = expit(aa * (np.log(qa) - np.log1p(-qa)))
    return float(out) if q_scalar and a_scalar else out


def compose_alpha(alpha: float, alpha2: float) -> float:
    """Exponent of the composed wrap: wrapping by alpha then alpha2 equals a
    single wrap by their product."""
    a = float(alpha) * float(alpha2)
    if not math.isfinite(a):
        raise DomainError("composed alpha is not finite")
    return a


# ---------------------------------------------------------------------------
# tree structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitTest:
    """A single-feature routing test.  Rows that pass go to the left child.

    kind "numeric": passes iff value <= threshold.
    kind "categorical": passes iff value == modality.
    """

    feature: str
    kind: str
    threshold: float | None = None
    modality: str | None = None

    def __post_init__(self):
        if self.kind == "numeric":
            if self.threshold is None or not math.isfinite(float(self.threshold)):
                raise SchemaError("numeric test needs a finite threshold")
            if self.modality is not None:
                raise SchemaError("numeric test cannot carry a modality")
        elif self.kind == "categorical":
            if self.modality is None:
                raise SchemaError("categorical test needs a modality")
            if self.threshold is not None:
                raise SchemaError("categorical test cannot carry a threshold")
        else:
            raise SchemaError(f"unknown test kind {self.kind!r}")

    def passes(self, value) -> bool:
        if self.kind == "numeric":
            return float(value) <= float(self.threshold)
        return value == self.modality

    def passes_rows(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "numeric":
            return np.asarray(values, dtype=float) <= float(self.threshold)
        return np.asarray(values, dtype=object) == self.modality

    def describe(self) -> str:
        if self.kind == "numeric":
            return f"{self.feature} <= {self.threshold!r}"
        return f"{self.feature} == {self.modality!r}"


@dataclass(frozen=True)
class Leaf:
    """Terminal node: a correction exponent plus fit bookkeeping.

    ``edge`` and ``mass`` record the alignment edge and weight share seen at
    the last relabeling; they are annotations, not inputs to routing.
    """

    leaf_id: int
    alpha: float
    edge: float = 0.0
    mass: float = 0.0

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise DomainError(f"leaf {self.leaf_id}: alpha must be finite")


@dataclass(frozen=True)
class Node:
    test: SplitTest
    left: "Node | Leaf"
    right: "Node | Leaf"


@dataclass(frozen=True)
class AlphaTree:
    """Immutable binary tree of correction exponents.

    Every input record reaches exactly one leaf; leaf ids are unique.
    """

    root: Node | Leaf

    def __post_init__(self):
        ids = [leaf.leaf_id for leaf in _iter_leaves(self.root)]
        if len(ids) != len(set(ids)):
            raise SchemaError("leaf identifiers must be unique")

    def leaves(self) -> tuple[Leaf, ...]:
        return tuple(_iter_leaves(self.root))

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in _iter_leaves(self.root))

    def feature_kinds(self) -> dict[str, str]:
        """Kind of test ("numeric" or "categorical") on each feature the tree tests.

        Raises SchemaError when one feature is tested as both kinds.
        """
        kinds: dict[str, str] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                continue
            test = node.test
            if kinds.setdefault(test.feature, test.kind) != test.kind:
                raise SchemaError(f"feature {test.feature!r} is tested as both numeric and categorical")
            stack.append(node.right)
            stack.append(node.left)
        return kinds

    def max_leaf_id(self) -> int:
        return max(leaf.leaf_id for leaf in _iter_leaves(self.root))

    def alpha_of(self, leaf_id: int) -> float:
        for leaf in _iter_leaves(self.root):
            if leaf.leaf_id == leaf_id:
                return leaf.alpha
        raise SchemaError(f"no leaf with id {leaf_id}")

    def replace_leaf(self, leaf_id: int, subtree: Node | Leaf) -> "AlphaTree":
        """Return a new tree with the identified leaf swapped for a subtree."""
        found, new_root = _replace(self.root, leaf_id, subtree)
        if not found:
            raise SchemaError(f"no leaf with id {leaf_id}")
        return AlphaTree(new_root)

    def with_leaf_updates(self, updates: Mapping[int, Leaf]) -> "AlphaTree":
        """Return a new tree with some leaves replaced wholesale (same ids)."""
        return AlphaTree(_update_leaves(self.root, updates))


def _iter_leaves(node: Node | Leaf) -> Iterator[Leaf]:
    """Leaves from left to right; one explicit stack, so O(nodes) at any depth."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.append(node.right)
            stack.append(node.left)


def _replace(node: Node | Leaf, leaf_id: int, subtree: Node | Leaf):
    if isinstance(node, Leaf):
        if node.leaf_id == leaf_id:
            return True, subtree
        return False, node
    found, new_left = _replace(node.left, leaf_id, subtree)
    if found:
        return True, Node(node.test, new_left, node.right)
    found, new_right = _replace(node.right, leaf_id, subtree)
    if found:
        return True, Node(node.test, node.left, new_right)
    return False, node


def _update_leaves(node: Node | Leaf, updates: Mapping[int, Leaf]):
    if isinstance(node, Leaf):
        new = updates.get(node.leaf_id)
        if new is None:
            return node
        if new.leaf_id != node.leaf_id:
            raise SchemaError("leaf update must preserve the leaf id")
        return new
    return Node(
        node.test,
        _update_leaves(node.left, updates),
        _update_leaves(node.right, updates),
    )


def single_leaf_tree(alpha: float = 1.0, leaf_id: int = 0) -> AlphaTree:
    return AlphaTree(Leaf(leaf_id, float(alpha)))


def stump(test: SplitTest, alpha_left: float, alpha_right: float) -> AlphaTree:
    return AlphaTree(Node(test, Leaf(0, float(alpha_left)), Leaf(1, float(alpha_right))))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_tree(tree: AlphaTree, x: Mapping) -> tuple[int, float]:
    """Route a single record to its leaf; returns (leaf_id, alpha)."""
    node = tree.root
    while isinstance(node, Node):
        feature = node.test.feature
        if feature not in x:
            raise SchemaError(f"record is missing feature {feature!r}")
        node = node.left if node.test.passes(x[feature]) else node.right
    return node.leaf_id, node.alpha


def wrap(tree: AlphaTree, q_u: float, x: Mapping) -> float:
    """Wrapped (corrected) probability of a single record."""
    _, alpha = evaluate_tree(tree, x)
    return apply_alpha(q_u, alpha)


def wrap_chain(trees, q_u: float, x: Mapping) -> float:
    """Sequential wrapping by several trees.

    Equal to one wrap with the pointwise product of the per-tree exponents,
    so we take the product first and apply a single transform.
    """
    total = 1.0
    for tree in trees:
        _, alpha = evaluate_tree(tree, x)
        total = compose_alpha(total, alpha)
    return apply_alpha(q_u, total)


def invert_tree(tree: AlphaTree) -> AlphaTree:
    """Same structure, each leaf exponent replaced by its reciprocal.

    Chaining a tree with its inverse is the identity up to float tolerance.
    Leaves with |alpha| below ALPHA_ZERO_TOL make the tree non-invertible.
    """
    updates = {}
    for leaf in tree.leaves():
        if abs(leaf.alpha) < ALPHA_ZERO_TOL:
            raise NonInvertibleError(
                f"leaf {leaf.leaf_id} has alpha {leaf.alpha!r}, too close to zero"
            )
        updates[leaf.leaf_id] = replace(leaf, alpha=1.0 / leaf.alpha)
    return tree.with_leaf_updates(updates)


def route_rows(tree: AlphaTree, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Vectorized routing: leaf id for each of n rows of column arrays."""
    out = np.empty(n, dtype=np.int64)
    _route_rows(tree.root, columns, np.arange(n), out)
    return out


def _route_rows(node, columns, idx, out):
    if isinstance(node, Leaf):
        out[idx] = node.leaf_id
        return
    feature = node.test.feature
    if feature not in columns:
        raise SchemaError(f"rows are missing feature {feature!r}")
    col = columns[feature]
    # a modality string never equals a number: such rows would all go right
    if node.test.kind == "categorical" and np.issubdtype(col.dtype, np.number):
        raise SchemaError(f"feature {feature!r} is tested as categorical but its column is numeric")
    try:
        mask = node.test.passes_rows(col[idx])
    except (TypeError, ValueError):
        raise SchemaError(f"feature {feature!r} is tested as numeric but its column is not") from None
    _route_rows(node.left, columns, idx[mask], out)
    _route_rows(node.right, columns, idx[~mask], out)


def alpha_at_rows(tree: AlphaTree, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Per-row leaf exponent for n rows of column arrays."""
    leaf_ids = route_rows(tree, columns, n)
    lut = np.zeros(tree.max_leaf_id() + 1, dtype=float)
    for leaf in tree.leaves():
        lut[leaf.leaf_id] = leaf.alpha
    return lut[leaf_ids]


def wrapped_scores(tree: AlphaTree, columns: Mapping[str, np.ndarray], scores: np.ndarray) -> np.ndarray:
    """Wrapped probability for every row: one apply_alpha with routed alphas."""
    scores = np.asarray(scores, dtype=float)
    alphas = alpha_at_rows(tree, columns, scores.shape[0])
    return apply_alpha(scores, alphas)
