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
* leaf ids are unique integers in [0, 2 * leaves], kept by serialization.

All structures here are immutable after construction and every function is
pure, so concurrent readers are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    "dot",
    "per_row",
    "evaluate_tree",
    "wrap",
    "wrap_chain",
    "wrapped_scores",
    "invert_tree",
    "single_leaf_tree",
    "stump",
    "route_rows",
    "alpha_table",
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

# Most tests on one path of a tree.  An edit and a model file's read recurse
# once per level (routing and the write walk with a stack); at this depth both
# fit Python's default recursion limit in a command (under Python 3.11 a read
# first fails at 987).
_MAX_DEPTH = 960


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
    # an |alpha * logit(q)| beyond the float range is inf, which expit maps to 0 or 1
    with np.errstate(over="ignore"):
        out = expit(aa * (np.log(qa) - np.log1p(-qa)))
    return float(out) if q_scalar and a_scalar else out


def dot(a, b) -> float:
    """Sum of a[i] * b[i] over two equal-length 1-D float vectors.

    Every weighted mean of the package is taken here, never by BLAS: a
    threaded BLAS dot adds its halves in another order than one thread,
    so its last bits would depend on the BLAS thread count.  einsum sums
    in one fixed order for a given length.  Both sides are made
    contiguous first, because einsum sums a strided vector in another
    order than its contiguous copy.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return float(np.einsum("i,i->", a, b))


def per_row(values, n: int | None, noun: str, dtype=None) -> np.ndarray:
    """values as one value per row of n rows: the one row rule of the package.

    n values are returned as they are, with no copy; one value stands for
    every row and is returned as a new array of n copies.  Any other shape
    is DomainError("{noun} has shape {shape} for {n} rows").  With n None
    the values set the row count and must be one-dimensional.  dtype, when
    given, converts first, as np.asarray does.
    """
    arr = np.asarray(values, dtype=dtype)
    if n is None:
        if arr.ndim == 1:
            return arr
        raise DomainError(f"{noun} has shape {arr.shape}; it must be one-dimensional")
    if arr.shape == (n,):
        return arr
    if arr.shape == ():
        return np.full(n, arr)
    raise DomainError(f"{noun} has shape {arr.shape} for {n} rows")


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
        # a model file holds a feature as a JSON string, and so does a CSV header
        if not isinstance(self.feature, str):
            raise SchemaError(f"test feature must be a string, got {self.feature!r}")
        if self.kind == "numeric":
            if self.threshold is None or not math.isfinite(float(self.threshold)):
                raise SchemaError("numeric test needs a finite threshold")
            if self.modality is not None:
                raise SchemaError("numeric test cannot carry a modality")
        elif self.kind == "categorical":
            # a model file holds a modality as a JSON string, and so does a CSV cell
            if not isinstance(self.modality, str):
                raise SchemaError(f"categorical test needs a string modality, got {self.modality!r}")
            if self.threshold is not None:
                raise SchemaError("categorical test cannot carry a threshold")
        else:
            raise SchemaError(f"unknown test kind {self.kind!r}")

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

    Every input record reaches exactly one leaf.  Leaf ids are unique
    integers (not bool) in [0, 2 * leaves], so `alpha_table` is small: a
    tree grown from k leaves by s splits tops out at id k - 1 + 2s, below
    2(k + s).  Any other id is a SchemaError naming the leaf's path from the
    root, ``tree``, and so is a tree more than _MAX_DEPTH tests deep.  The
    tree is walked once, here, into the leaf table that every read uses:
    the leaves in order, the leaf and the alpha at each id, and held ids.
    """

    root: Node | Leaf
    _leaves: tuple[Leaf, ...] = field(init=False, repr=False, compare=False)
    _by_id: dict = field(init=False, repr=False, compare=False)
    _alphas: np.ndarray = field(init=False, repr=False, compare=False)
    _held: np.ndarray = field(init=False, repr=False, compare=False)
    _kinds: dict | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        leaves = tuple(node for node, _, _ in _walk(self.root) if isinstance(node, Leaf))
        top = 2 * len(leaves)
        for leaf in leaves:
            leaf_id = leaf.leaf_id
            integer = isinstance(leaf_id, (int, np.integer)) and not isinstance(leaf_id, bool)
            if not (integer and 0 <= leaf_id <= top):
                where = []  # the leaf's path, built only for this message
                for node, d, side in _walk(self.root):
                    where[d:] = [side]
                    if node is leaf:
                        break
                raise SchemaError(f"{'.'.join(where)}: leaf_id must be an integer in [0, {top}], got {leaf_id}")
        by_id = {leaf.leaf_id: leaf for leaf in leaves}
        if len(by_id) != len(leaves):
            raise SchemaError("leaf identifiers must be unique")
        # a tree of k leaves is at most k - 1 tests deep
        depth = max(d for _, d, _ in _walk(self.root)) if len(leaves) > _MAX_DEPTH + 1 else 0
        if depth > _MAX_DEPTH:
            raise SchemaError(f"tree is {depth} tests deep; a model file holds at most {_MAX_DEPTH}")
        ids = np.fromiter(by_id, dtype=np.int64, count=len(leaves))
        alphas = np.zeros(ids.max() + 1)
        alphas[ids] = np.fromiter((leaf.alpha for leaf in leaves), dtype=float, count=len(leaves))
        held = np.zeros(alphas.shape[0] + 1, dtype=bool)  # the last slot holds no leaf
        held[ids] = True
        alphas.flags.writeable = held.flags.writeable = False
        for name, value in zip(("_leaves", "_by_id", "_alphas", "_held"), (leaves, by_id, alphas, held)):
            object.__setattr__(self, name, value)

    def leaves(self) -> tuple[Leaf, ...]:
        return self._leaves

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def feature_kinds(self) -> dict[str, str]:
        """Kind of test ("numeric" or "categorical") on each feature the tree tests.

        Features come in the pre-order of their first test; found on the
        first read, and copied on each.  Raises SchemaError when one
        feature is tested as both kinds.
        """
        if self._kinds is None:
            kinds: dict[str, str] = {}
            for test in (node.test for node, _, _ in _walk(self.root) if isinstance(node, Node)):
                if kinds.setdefault(test.feature, test.kind) != test.kind:
                    raise SchemaError(f"feature {test.feature!r} is tested as both numeric and categorical")
            object.__setattr__(self, "_kinds", kinds)
        return dict(self._kinds)

    def max_leaf_id(self) -> int:
        return self._alphas.shape[0] - 1

    def alpha_of(self, leaf_id: int) -> float:
        if leaf_id not in self._by_id:
            raise SchemaError(f"no leaf with id {leaf_id}")
        return self._by_id[leaf_id].alpha

    def replace_leaf(self, leaf_id: int, subtree: Node | Leaf) -> "AlphaTree":
        """Return a new tree with the identified leaf swapped for a subtree."""
        if leaf_id not in self._by_id:
            raise SchemaError(f"no leaf with id {leaf_id}")
        return AlphaTree(_rebuild(self.root, {leaf_id: subtree}))

    def with_leaf_updates(self, updates: Mapping[int, Leaf]) -> "AlphaTree":
        """Return a new tree with some leaves replaced wholesale (same ids); other ids are ignored."""
        updates = {leaf_id: new for leaf_id, new in updates.items() if leaf_id in self._by_id}
        if any(new.leaf_id != leaf_id for leaf_id, new in updates.items()):
            raise SchemaError("leaf update must preserve the leaf id")
        return AlphaTree(_rebuild(self.root, updates))


def _walk(root: Node | Leaf) -> Iterator[tuple[Node | Leaf, int, str]]:
    """(node, depth, side) of each node in pre-order, left child first, over one stack: the one walk.

    depth counts the tests above node; side is "left", "right", or "tree" at root.
    """
    stack = [(root, 0, "tree")]
    while stack:
        item = stack.pop()
        yield item
        node, depth, _ = item
        if isinstance(node, Node):
            stack.append((node.right, depth + 1, "right"))
            stack.append((node.left, depth + 1, "left"))


def _rebuild(node: Node | Leaf, replacements: dict[int, Node | Leaf]) -> Node | Leaf:
    """node with each leaf replacements names swapped for its value: the one tree edit.

    A subtree with no replaced leaf is returned as the same object.  Each
    replacement is popped from replacements once placed, so the walk stops
    descending when none is left.
    """
    if not replacements:
        return node
    if isinstance(node, Leaf):
        return replacements.pop(node.leaf_id, node)
    left = _rebuild(node.left, replacements)
    right = _rebuild(node.right, replacements)
    if left is node.left and right is node.right:
        return node
    return Node(node.test, left, right)


def single_leaf_tree(alpha: float = 1.0, leaf_id: int = 0) -> AlphaTree:
    return AlphaTree(Leaf(leaf_id, float(alpha)))


def stump(test: SplitTest, alpha_left: float, alpha_right: float) -> AlphaTree:
    return AlphaTree(Node(test, Leaf(0, float(alpha_left)), Leaf(1, float(alpha_right))))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_tree(tree: AlphaTree, x: Mapping) -> tuple[int, float]:
    """Route a single record to its leaf; returns (leaf_id, alpha).

    The record is one row: `route_rows` reads each of its values as a
    column of one value, by the same rule as any column.
    """
    leaf_id = int(route_rows(tree, x, 1)[0])
    return leaf_id, tree.alpha_of(leaf_id)


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


def read_columns(columns: Mapping, kinds: Mapping[str, str], n: int, noun: str = "column") -> dict:
    """Each column that kinds names, read once as n values of its kind.

    A missing column is a SchemaError, and the shape is read by `per_row`
    as "{noun} 'x'".  A numeric column is read as float64: one that does
    not convert is a SchemaError, and a NaN or ±inf is a DomainError.  A
    categorical column is read as an object array of strings; a numeric
    one, or one holding any other value (None, nan, 1), is a SchemaError
    naming its first such row, since a modality string never equals it.
    """
    out = {}
    for name, kind in kinds.items():
        if name not in columns:
            raise SchemaError(f"rows are missing feature {name!r}")
        col = per_row(columns[name], n, f"{noun} {name!r}")
        if kind == "numeric":
            try:
                col = np.asarray(col, dtype=float)
            except (TypeError, ValueError):
                raise SchemaError(f"feature {name!r} is tested as numeric but its column is not") from None
            if not np.isfinite(col).all():
                raise DomainError(f"feature {name!r} has non-finite values")
        elif kind == "categorical":
            if np.issubdtype(col.dtype, np.number):
                raise SchemaError(f"feature {name!r} is tested as categorical but its column is numeric")
            col = np.asarray(col, dtype=object)
            values = col.tolist()
            if any(not issubclass(t, str) for t in set(map(type, values))):
                row = next(i for i, value in enumerate(values) if not isinstance(value, str))
                raise SchemaError(f"feature {name!r} is tested as categorical but row {row} holds "
                                  f"{values[row]!r}, not a string")
        else:
            raise DomainError(f"feature {name!r} has unknown kind {kind!r}")
        out[name] = col
    return out


def row_count(columns: Mapping, names) -> int:
    """Rows of the named columns: the length of the first one-dimensional one, else 1.

    A column of one value stands for every row, so it sets no count, and
    columns of one value each are one row, as a record is.
    """
    for name in names:
        if name in columns and np.ndim(columns[name]) == 1:
            return len(columns[name])
    return 1


def route_rows(tree: AlphaTree, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Leaf id for each of n rows of column arrays: the one routing of rows.

    Every column the tree tests is read once per call, as the kind of its
    tests (see `read_columns`); columns it does not test are not read.  A
    tree that tests a feature as both kinds is a SchemaError (see
    AlphaTree.feature_kinds).
    """
    tested = read_columns(columns, tree.feature_kinds(), n)
    out = np.empty(n, dtype=np.int64)
    rows = [np.arange(n)]  # the rows of each node on the walk's stack, in its order
    for node, _, _ in _walk(tree.root):
        idx = rows.pop()
        if isinstance(node, Leaf):
            out[idx] = node.leaf_id
        else:
            mask = node.test.passes_rows(tested[node.test.feature][idx])
            rows.append(idx[~mask])
            rows.append(idx[mask])
    return out


def alpha_table(tree: AlphaTree) -> np.ndarray:
    """Leaf exponents indexed by leaf id, 0 at ids no leaf holds: the tree's own read-only table."""
    return tree._alphas


def _leaf_ids(tree: AlphaTree, leaf_ids, n: int | None) -> np.ndarray:
    """leaf_ids as integer ids of n rows (see `per_row`), each naming a leaf of tree.

    Any other id is a DomainError that names it: `alpha_table` holds 0 at
    an id no leaf holds, so an id left over from a split leaf would
    otherwise take alpha 0.
    """
    ids = per_row(leaf_ids, n, "leaf ids")
    if not np.issubdtype(ids.dtype, np.integer):
        raise DomainError(f"leaf ids must be integers, got dtype {ids.dtype}")
    held = tree._held
    # every id out of range is clipped onto the last slot, which holds no leaf: -1 is its index too
    named = held[np.clip(ids, -1, held.shape[0] - 1)]
    if not named.all():
        raise DomainError(f"leaf id {ids[np.argmin(named)]} names no leaf of the tree")
    return ids


def alpha_at_rows(tree: AlphaTree, columns: Mapping[str, np.ndarray], n: int, leaf_ids=None) -> np.ndarray:
    """Per-row leaf exponent for n rows of column arrays.

    With leaf_ids (each row's leaf id, as `route_rows` gives it) nothing is
    routed and columns are not read: the exponents are looked up at the
    ids, each of which must name a leaf of tree, else a DomainError names
    it.
    """
    if leaf_ids is None:
        return alpha_table(tree)[route_rows(tree, columns, n)]
    return alpha_table(tree)[_leaf_ids(tree, leaf_ids, n)]


def wrapped_scores(tree: AlphaTree, columns: Mapping[str, np.ndarray], scores: np.ndarray,
                   leaf_ids=None) -> np.ndarray:
    """Wrapped probability for every row: one apply_alpha with routed alphas.

    scores set the row count and must be one-dimensional; every tested
    column is then n values or one value for every row (see `route_rows`).
    leaf_ids, when given, are each row's leaf and replace routing (see
    `alpha_at_rows`).
    """
    scores = per_row(scores, None, "scores", float)
    alphas = alpha_at_rows(tree, columns, scores.shape[0], leaf_ids)
    return apply_alpha(scores, alphas)
