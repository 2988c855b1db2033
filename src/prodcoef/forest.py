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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


def _best_split(X_node: np.ndarray, y_node: np.ndarray, counts: np.ndarray,
                features: np.ndarray):
    """Best (feature, threshold) by Gini gain over sampled features.

    Returns (feature, threshold, gain) or None when no candidate has
    strictly positive gain. `features` must be sorted ascending so the
    first argmax hit honors the lowest-feature tie-break; within one
    feature, thresholds ascend with sort position, so the first argmax
    hit is the lowest threshold.
    """
    n, n_classes = len(y_node), len(counts)
    sub = X_node[:, features]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y_node[order]

    onehot = ys[:, :, None] == np.arange(n_classes)
    cum = np.cumsum(onehot, axis=0)

    cum_left = cum[:-1].astype(np.float64)  # counts at split "after row i"
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    sumsq_left = (cum_left**2).sum(axis=2)
    cum_right = counts.astype(np.float64) - cum_left
    sumsq_right = (cum_right**2).sum(axis=2)
    weighted = (n_left - sumsq_left / n_left + n_right - sumsq_right / n_right) / n
    gain = _gini(counts, n) - weighted

    mid = xs[:-1] + (xs[1:] - xs[:-1]) / 2.0
    valid = (xs[1:] != xs[:-1]) & (mid < xs[1:])
    gain = np.where(valid, gain, -np.inf)

    best_pos = np.argmax(gain, axis=0)
    feature_cols = np.arange(len(features))
    best_gain = gain[best_pos, feature_cols]
    winner = int(np.argmax(best_gain))
    if not best_gain[winner] > 0.0:
        return None
    return (
        int(features[winner]),
        float(mid[best_pos[winner], winner]),
        float(best_gain[winner]),
    )


def _build_tree(X: np.ndarray, y: np.ndarray, n_classes: int, config: ForestConfig,
                rng: np.random.Generator) -> _Tree:
    n_rows, n_features = X.shape
    m_try = math.ceil(math.sqrt(n_features))
    sample = rng.integers(0, n_rows, size=n_rows)

    tree = _Tree()
    # Stack of (row indices, depth, parent node, is_left_child); popping
    # left children first keeps the RNG draw order a fixed preorder walk.
    stack: list[tuple[np.ndarray, int, int, bool]] = [(sample, 0, -1, False)]
    while stack:
        rows, depth, parent, is_left = stack.pop()
        node = tree.add_node()
        if parent >= 0:
            if is_left:
                tree.left[parent] = node
            else:
                tree.right[parent] = node

        y_node = y[rows]
        counts = np.bincount(y_node, minlength=n_classes)
        at_cap = config.max_depth is not None and depth >= config.max_depth
        split = None
        if len(rows) >= config.min_samples_split and counts.max() < len(rows) and not at_cap:
            features = np.sort(rng.choice(n_features, size=m_try, replace=False))
            split = _best_split(X[rows], y_node, counts, features)
        if split is None:
            tree.leaf_counts[node] = counts
            continue
        feature, threshold, _ = split
        go_left = X[rows, feature] <= threshold
        tree.feature[node] = feature
        tree.threshold[node] = threshold
        # Push right first so the left child is popped (and built) first.
        stack.append((rows[~go_left], depth + 1, node, False))
        stack.append((rows[go_left], depth + 1, node, True))
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
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        trees.append(_build_tree(X.values, y, len(classes), config, rng))
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
    payload = json.loads(text)
    classes = np.asarray(payload["classes"], dtype=np.int64)
    class_pos = {c: i for i, c in enumerate(classes.tolist())}
    trees = []
    for nodes in payload["trees"]:
        tree = _Tree()
        for spec in nodes:
            i = tree.add_node()
            if "leaf_counts" in spec:
                counts = np.zeros(len(classes), dtype=np.int64)
                for code, count in spec["leaf_counts"].items():
                    counts[class_pos[int(code)]] = count
                tree.leaf_counts[i] = counts
            else:
                tree.feature[i] = spec["feature"]
                tree.threshold[i] = spec["threshold"]
                tree.left[i] = spec["left"]
                tree.right[i] = spec["right"]
        tree.finalize()
        trees.append(tree)
    cfg = payload["config"]
    return RandomForestModel(
        config=ForestConfig(
            n_trees=cfg["n_trees"],
            max_depth=cfg["max_depth"],
            min_samples_split=cfg["min_samples_split"],
            seed=cfg["seed"],
        ),
        classes=classes,
        n_features=int(payload["n_features"]),
        trees=tuple(trees),
    )
