"""Random forest classifier built from scratch on Gini impurity.

Determinism is a hard requirement here: every tree draws from its own
RNG stream seeded by (forest seed, tree index), nodes are built in
preorder with the left child first, candidate features are evaluated
in ascending index order, and every tie has a documented winner
(lowest feature index, then lowest threshold, then smallest class
code). Fitting the same data twice with the same seed yields
byte-identical serialized forests.

Per split, ceil(sqrt(n_features)) candidate features are sampled
without replacement; thresholds are the midpoints between consecutive
distinct sorted values; a node becomes a leaf when it is pure, smaller
than min_samples_split, at the depth cap, or no split has strictly
positive Gini gain.

The builder presorts the columns once per forest (a stable argsort, so
ties keep row order, as in SLIQ). Each tree keeps the distinct rows of
its bootstrap sample and weights them by how often they were drawn: a
node's order matrix lists its rows sorted by each column, one gather
and one cumsum of the weighted one-hot labels give every candidate's
left class counts, and a stable boolean partition hands each child its
own order matrix, so no node sorts or bincounts. This grows the same
trees as splitting the duplicated rows. A gain at a boundary between
distinct values depends only on the class counts to its left, which
weights reproduce exactly; the gain keeps the float expression of the
duplicated-row split, and its sums of squared integer counts are exact
in float64. Boundaries inside a run of equal values never qualify, so
dropping duplicates removes no candidate.

The threshold between neighbours lo < hi is lo + (hi - lo) / 2, unless
hi - lo overflows; then it is lo / 2 + hi / 2. A boundary whose
midpoint rounds up to hi (adjacent floats) is skipped, because the
threshold would not separate the two values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .matrix import FeatureMatrix


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError(f"need at least one tree, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit an unsigned 64-bit integer")


class _Tree:
    """Flat node arrays; index 0 is the root."""

    __slots__ = ("feature", "threshold", "left", "right", "leaf_counts", "leaf_major")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_counts: list[np.ndarray | None] = []
        self.leaf_major = None

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_counts.append(None)
        return len(self.feature) - 1

    def finalize(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        # argmax picks the first maximum: leaf vote ties go to the
        # smallest class code (classes are kept sorted).
        self.leaf_major = np.array(
            [int(np.argmax(c)) if c is not None else -1 for c in self.leaf_counts],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class RandomForestModel:
    config: ForestConfig
    classes: np.ndarray
    n_features: int
    trees: tuple[_Tree, ...]


def _gini(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return 1.0 - float((p * p).sum())


def _best_split(columns: np.ndarray, rows: np.ndarray, table: np.ndarray,
                totals: np.ndarray, features: np.ndarray, wide: bool):
    """Best (feature, cut, threshold, left totals) by Gini gain over the
    sampled features of one node.

    `columns` is the training matrix transposed. `rows` is the node's
    (n_features, n) order matrix: row f lists the node's distinct rows
    sorted by column f. `table` holds each row's weighted one-hot class
    counts plus its weight in the last column, and `totals` is the
    node's sum of it. The first `cut` entries of the winning feature's
    order go left. `wide` says some column's span overflows, so a
    midpoint may need the overflow-safe form. Returns None when no
    candidate has strictly positive gain. `features` must be sorted
    ascending so the first argmax hit honors the lowest-feature
    tie-break; within one feature, thresholds ascend with sort position,
    so the first argmax hit is the lowest threshold.
    """
    n = int(totals[-1])
    order = rows[features]
    xs = columns[features[:, None], order]
    cum = np.cumsum(table.take(order, axis=0), axis=1)

    left = cum[:, :-1]  # class counts and size at split "after entry i"
    right = totals - left
    sumsq_left = np.einsum("ijk,ijk->ij", left[..., :-1], left[..., :-1])
    sumsq_right = np.einsum("ijk,ijk->ij", right[..., :-1], right[..., :-1])
    n_left, n_right = left[..., -1], right[..., -1]
    weighted = (n_left - sumsq_left / n_left + n_right - sumsq_right / n_right) / n
    gain = _gini(totals[:-1], n) - weighted

    lo, hi = xs[:, :-1], xs[:, 1:]
    if wide:
        with np.errstate(over="ignore"):
            step = hi - lo
            mid = np.where(np.isinf(step), lo / 2 + hi / 2, lo + step / 2.0)
    else:
        mid = lo + (hi - lo) / 2.0
    # Equal neighbours give mid == hi, so this also rejects ties.
    gain = np.where(mid < hi, gain, -np.inf)

    # The first maximum in row-major order is the lowest feature, then
    # the lowest threshold.
    winner, pos = divmod(int(np.argmax(gain)), gain.shape[1])
    if not gain[winner, pos] > 0.0:
        return None
    return int(features[winner]), pos + 1, float(mid[winner, pos]), cum[winner, pos]


def _build_tree(columns: np.ndarray, order: np.ndarray, wide: bool, y: np.ndarray,
                n_classes: int, config: ForestConfig, rng: np.random.Generator) -> _Tree:
    n_features, n_rows = columns.shape
    m_try = math.ceil(math.sqrt(n_features))
    weight = np.bincount(rng.integers(0, n_rows, size=n_rows), minlength=n_rows)
    table = np.zeros((n_rows, n_classes + 1), dtype=np.int64)
    table[np.arange(n_rows), y] = weight
    table[:, n_classes] = weight

    def can_split(totals, depth):
        if config.max_depth is not None and depth >= config.max_depth:
            return False
        *counts, size = totals.tolist()
        return size >= config.min_samples_split and max(counts) < size

    tree = _Tree()
    totals = table.sum(axis=0)
    root = order[(weight > 0)[order]].reshape(n_features, -1)
    # Stack of (order matrix, or None for a leaf; class counts plus size;
    # depth; parent node; is_left_child). Popping left children first
    # keeps the RNG draw order a fixed preorder walk.
    stack = [(root if can_split(totals, 0) else None, totals, 0, -1, False)]
    while stack:
        rows, totals, depth, parent, is_left = stack.pop()
        node = tree.add_node()
        if parent >= 0:
            if is_left:
                tree.left[parent] = node
            else:
                tree.right[parent] = node

        split = None
        if rows is not None:
            features = np.sort(rng.choice(n_features, size=m_try, replace=False))
            split = _best_split(columns, rows, table, totals, features, wide)
        if split is None:
            tree.leaf_counts[node] = totals[:n_classes]
            continue
        feature, cut, threshold, left_cum = split
        tree.feature[node] = feature
        tree.threshold[node] = threshold
        # A copy, so the child does not keep the parent's cumsum alive.
        left_totals = left_cum.copy()
        right_totals = totals - left_totals
        left_rows = right_rows = None
        left_open = can_split(left_totals, depth + 1)
        right_open = can_split(right_totals, depth + 1)
        if left_open or right_open:
            go_left = (columns[feature][rows] <= threshold).ravel()
            if left_open:
                left_rows = rows.compress(go_left).reshape(n_features, cut)
            if right_open:
                right_rows = rows.compress(~go_left).reshape(n_features, -1)
        # Push right first so the left child is popped (and built) first.
        stack.append((right_rows, right_totals, depth + 1, node, False))
        stack.append((left_rows, left_totals, depth + 1, node, True))
    tree.finalize()
    return tree


def rf_fit(X: FeatureMatrix, config: ForestConfig | None = None) -> RandomForestModel:
    """Train one tree per bootstrap sample of the labeled rows."""
    config = config or ForestConfig()
    if X.labels is None:
        raise ValidationError("random forest training matrix must carry labels")
    if X.n_rows < 2:
        raise ValidationError(f"need at least 2 training rows, got {X.n_rows}")

    classes = np.unique(X.labels)
    y = np.searchsorted(classes, X.labels)
    columns = np.ascontiguousarray(X.values.T)
    # Row f lists all rows sorted by column f; stable, so ties keep row order.
    order = np.argsort(columns, axis=1, kind="stable")
    with np.errstate(over="ignore"):
        wide = not np.isfinite(columns.max(axis=1) - columns.min(axis=1)).all()
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        trees.append(_build_tree(columns, order, wide, y, len(classes), config, rng))
    return RandomForestModel(
        config=config, classes=classes, n_features=X.n_cols, trees=tuple(trees)
    )


def _route(tree: _Tree, X: np.ndarray) -> np.ndarray:
    """Leaf node index for every query row."""
    idx = np.zeros(len(X), dtype=np.int64)
    while True:
        internal = tree.feature[idx] >= 0
        if not internal.any():
            return idx
        rows = np.nonzero(internal)[0]
        cur = idx[rows]
        go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
        idx[rows] = np.where(go_left, tree.left[cur], tree.right[cur])


def _vote_matrix(model: RandomForestModel, queries: FeatureMatrix) -> np.ndarray:
    """(queries, classes) count of the trees voting for each class."""
    if queries.n_cols != model.n_features:
        raise ValidationError(
            f"query has {queries.n_cols} columns, model expects {model.n_features}"
        )
    votes = np.zeros((queries.n_rows, len(model.classes)), dtype=np.int64)
    rows = np.arange(queries.n_rows)
    for tree in model.trees:
        leaves = _route(tree, queries.values)
        votes[rows, tree.leaf_major[leaves]] += 1
    return votes


def rf_predict_labels(model: RandomForestModel, queries: FeatureMatrix) -> np.ndarray:
    """Plurality vote over the trees' leaf-majority classes."""
    votes = _vote_matrix(model, queries)
    return model.classes[np.argmax(votes, axis=1)]


def forest_to_json(model: RandomForestModel) -> str:
    """Array-of-trees JSON; nodes are {feature, threshold, left, right}
    or {leaf_counts: {class code: count}}."""
    trees_payload = []
    for tree in model.trees:
        nodes = []
        for i in range(len(tree.feature)):
            if tree.feature[i] >= 0:
                nodes.append(
                    {
                        "feature": int(tree.feature[i]),
                        "threshold": float(tree.threshold[i]),
                        "left": int(tree.left[i]),
                        "right": int(tree.right[i]),
                    }
                )
            else:
                counts = tree.leaf_counts[i]
                nodes.append(
                    {
                        "leaf_counts": {
                            str(int(c)): int(v)
                            for c, v in zip(model.classes, counts)
                            if v > 0
                        }
                    }
                )
        trees_payload.append(nodes)
    payload = {
        "classes": [int(c) for c in model.classes],
        "n_features": model.n_features,
        "config": {
            "n_trees": model.config.n_trees,
            "max_depth": model.config.max_depth,
            "min_samples_split": model.config.min_samples_split,
            "seed": model.config.seed,
        },
        "trees": trees_payload,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def forest_from_json(text: str) -> RandomForestModel:
    """Inverse of forest_to_json. The tree structure is checked on load:
    children must come after their parent (so routing always ends),
    features must exist and leaf class codes must be in `classes`. A
    payload that is not a forest raises FormatError, naming the tree and
    node where one is at fault."""
    try:
        payload = json.loads(text)
        classes = np.asarray(payload["classes"], dtype=np.int64)
        n_features = int(payload["n_features"])
        cfg = payload["config"]
        config = ForestConfig(
            n_trees=cfg["n_trees"],
            max_depth=cfg["max_depth"],
            min_samples_split=cfg["min_samples_split"],
            seed=cfg["seed"],
        )
        trees_payload = list(payload["trees"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a forest payload: {type(exc).__name__}: {exc}") from None
    class_pos = {c: i for i, c in enumerate(classes.tolist())}
    trees = []
    for t, nodes in enumerate(trees_payload):
        if not nodes:
            raise FormatError(f"forest tree {t} has no nodes")
        tree = _Tree()
        for spec in nodes:
            i = tree.add_node()
            where = f"forest tree {t} node {i}"
            try:
                if "leaf_counts" in spec:
                    counts = np.zeros(len(classes), dtype=np.int64)
                    for code, count in spec["leaf_counts"].items():
                        if int(code) not in class_pos:
                            raise FormatError(f"{where}: leaf class {code} is not in classes")
                        if not (type(count) is int and count >= 0):
                            raise FormatError(f"{where}: leaf count {count!r} is not a count")
                        counts[class_pos[int(code)]] = count
                    tree.leaf_counts[i] = counts
                    continue
                feature, left, right = spec["feature"], spec["left"], spec["right"]
                threshold = spec["threshold"]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(
                    f"{where}: malformed node: {type(exc).__name__}: {exc}"
                ) from None
            if not (type(feature) is int and 0 <= feature < n_features):
                raise FormatError(
                    f"{where}: feature {feature} outside [0, {n_features})"
                )
            if not all(type(c) is int and i < c < len(nodes) for c in (left, right)):
                raise FormatError(
                    f"{where}: children {left}, {right} must lie in ({i}, {len(nodes)})"
                )
            if type(threshold) not in (int, float):
                raise FormatError(f"{where}: threshold {threshold!r} is not a number")
            tree.feature[i] = feature
            tree.threshold[i] = threshold
            tree.left[i] = left
            tree.right[i] = right
        tree.finalize()
        trees.append(tree)
    return RandomForestModel(
        config=config,
        classes=classes,
        n_features=n_features,
        trees=tuple(trees),
    )
