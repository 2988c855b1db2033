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
duplicated-row split. Boundaries inside a run of equal values never
qualify, so dropping duplicates removes no candidate.

The weighted one-hot table is float64. Every value the split search
derives from it is an integer: class counts and sizes up to n, sums of
squared counts up to n**2, and the right side's sum of squares,
T.T - 2 L.T + L.L for left counts L and node totals T, whose partial
results stay within 2 n**2. Below 2**26 training rows all of them lie
under 2**53, so float64 holds them exactly, in any summation order,
and the gains equal those of integer arithmetic bit for bit.

A node with fewer than _SMALL_NODE_ROWS (16) distinct rows is searched
by _small_best_split instead, which walks each sampled feature's order
in Python: there _best_split's fixed cost of about two dozen numpy
calls outweighs a per-row loop. The loop's cost grows with rows times
sampled features, so the break-even node has about 30 rows at 2
sampled features and about 16 at 4 (PCA-10). Cutoffs of 16, 24 and 32
rows are within 3% of each other on desk-scale PCA-3..10 folds, and 16
is best on the PCA-10 proxy fold. The loop's running sums are the same
integers held exactly, and it repeats _best_split's float operations
in the same order, so both searches return the same split bit for bit;
a test compares them node by node.

Candidate draws do not call Generator.choice per node, whose fixed
cost outweighs the sampling: _CandidateDraws reproduces its samples
from the tree generator's own uint32 stream (see there). The equality
rests on numpy's choice and PCG64 internals; a test compares over a
million draws with choice, so a numpy release that changes them fails
loudly.

The threshold between neighbours lo < hi is lo + (hi - lo) / 2, unless
hi - lo overflows; then it is lo / 2 + hi / 2. A boundary whose
midpoint rounds up to hi (adjacent floats) is skipped, because the
threshold would not separate the two values.

A fitted tree is five arrays, one row per node in preorder: feature,
threshold, left and right child, and an (n_nodes, n_classes) table of
class counts that is zero except at leaves. The builder writes them in
place, sized by the bound 2 * distinct rows - 1, and trims them once
the tree is done; forest_from_json fills the same arrays. Loading
checks what the builder guarantees, or raises FormatError naming the
tree and node: n_features (at least 1) and the config fields are JSON
integers (max_depth may be null), classes are strictly ascending int64
codes, the tree count matches the config, children come after their
parent (so routing always ends), every node but the root has exactly
one parent (so every node is reachable), features exist, thresholds
are finite, and every leaf has at least one count, each an int64 over
a listed class that it names once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError, ValidationError
from .matrix import FeatureMatrix
from .summation import numpy_sum


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


@dataclass(frozen=True)
class _Tree:
    """One tree as node arrays; index 0 is the root.

    A split node sends rows with x[feature] <= threshold to `left`, the
    rest to `right`. A leaf has feature, left and right -1 and keeps its
    class counts in its row of `counts`; the rows of split nodes are
    zero. A tree fitted on n rows has at most 2n - 1 nodes, so int32
    indexes hold any training matrix of fewer than 2**30 rows.
    """

    feature: np.ndarray  # int32 per node
    threshold: np.ndarray  # float64 per node
    left: np.ndarray  # int32 per node
    right: np.ndarray  # int32 per node
    counts: np.ndarray  # (n_nodes, n_classes) int64

    @classmethod
    def blank(cls, n_nodes: int, n_classes: int) -> _Tree:
        """`n_nodes` leaves with no counts, to be filled in place."""
        return cls(
            feature=np.full(n_nodes, -1, dtype=np.int32),
            threshold=np.zeros(n_nodes),
            left=np.full(n_nodes, -1, dtype=np.int32),
            right=np.full(n_nodes, -1, dtype=np.int32),
            counts=np.zeros((n_nodes, n_classes), dtype=np.int64),
        )

    def head(self, n_nodes: int) -> _Tree:
        """A copy of the first `n_nodes` nodes."""
        return _Tree(*(getattr(self, f.name)[:n_nodes].copy() for f in fields(self)))

    @property
    def leaf_major(self) -> np.ndarray:
        """Majority class position per node, read at leaves. argmax
        picks the first maximum: leaf vote ties go to the smallest class
        code (classes are kept sorted)."""
        return self.counts.argmax(axis=1)


@dataclass(frozen=True)
class RandomForestModel:
    config: ForestConfig
    classes: np.ndarray
    n_features: int
    trees: tuple[_Tree, ...]


def _gini(counts: list, total: float) -> float:
    """1 - sum(p^2) for p = counts / total, from Python numbers: the
    float64 operations and summation order of numpy's
    1.0 - (p * p).sum(), without four numpy calls per searched node."""
    return 1.0 - numpy_sum([p * p for p in [c / total for c in counts]])


def _best_split(columns: np.ndarray, rows: np.ndarray, table: np.ndarray,
                totals: np.ndarray, features: list[int], wide: bool):
    """Best (feature, cut, threshold, left totals) by Gini gain over the
    sampled features of one node.

    `columns` is the training matrix transposed. `rows` is the node's
    (n_features, n) order matrix: row f lists the node's distinct rows
    sorted by column f. `table` holds each row's weighted one-hot class
    counts plus its weight in the last column, as float64, and `totals`
    is the node's sum of it. The first `cut` entries of the winning
    feature's order go left. `wide` says some column's span overflows,
    so a midpoint may need the overflow-safe form. Returns None when no
    candidate has strictly positive gain. `features` must be sorted
    ascending so the first argmax hit honors the lowest-feature
    tie-break; within one feature, thresholds ascend with sort position,
    so the first argmax hit is the lowest threshold.
    """
    n = totals[-1]
    features = np.array(features)
    order = rows[features]
    xs = columns[features[:, None], order]
    cum = np.cumsum(table.take(order, axis=0), axis=1)

    left = cum[:, :-1, :-1]  # class counts at split "after entry i"
    n_left = cum[:, :-1, -1]
    sumsq_left = np.einsum("ijk,ijk->ij", left, left)
    # sum((T - L)^2) without building T - L; exact, as every partial
    # result is an integer below 2**53 (see the module docstring).
    class_totals = totals[:-1]
    sumsq_right = (class_totals @ class_totals - 2.0 * (left @ class_totals)) + sumsq_left
    n_right = n - n_left
    weighted = (n_left - sumsq_left / n_left + n_right - sumsq_right / n_right) / n
    gain = _gini(class_totals.tolist(), float(n)) - weighted

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


# Nodes with fewer distinct rows than this take _small_best_split (see
# the module docstring for how it was chosen).
_SMALL_NODE_ROWS = 16


def _small_best_split(column_views: list[memoryview], rows: np.ndarray,
                      y_view: memoryview, weight_view: memoryview,
                      totals: np.ndarray, features: list[int]):
    """_best_split's result, from one Python walk per sampled feature.

    `column_views` holds a memoryview of each column (row of the
    transposed training matrix); `y_view` and `weight_view` give every
    training row's class position and weight. The walk keeps the left
    class counts and both sides' sizes and sums of squared class counts
    as Python ints, updated row by row. Each is an integer below 2**53,
    and so is the value _best_split's cumsum, einsum and matmul give it,
    so both searches hold the same numbers exactly; the gain, the
    midpoint, the `mid < hi` skip and the first strictly positive
    maximum then repeat _best_split's float operations in its order.
    Only a wide matrix has a step hi - lo that overflows, so testing
    every step for infinity picks the same midpoint form.
    """
    *class_totals, n = [int(t) for t in totals.tolist()]
    gini = _gini(class_totals, n)
    totals_sq = sum([t * t for t in class_totals])
    inf = math.inf
    best_gain = 0.0
    best = None
    for feature, order in zip(features, rows.take(features, axis=0).tolist()):
        x = column_views[feature]
        left = [0] * len(class_totals)
        n_left = sumsq_left = 0
        n_right, sumsq_right = n, totals_sq
        lo = x[order[0]]
        cut = 0
        for upper in order[1:]:
            row = order[cut]
            cut += 1
            c = y_view[row]
            w = weight_view[row]
            count = left[c]
            left[c] = count + w
            n_left += w
            n_right -= w
            sumsq_left += (2 * count + w) * w
            sumsq_right -= (2 * (class_totals[c] - count) - w) * w
            hi = x[upper]
            if lo == hi:
                continue
            step = hi - lo
            mid = lo / 2 + hi / 2 if step == inf else lo + step / 2.0
            if mid < hi:
                gain = gini - (n_left - sumsq_left / n_left
                               + n_right - sumsq_right / n_right) / n
                if gain > best_gain:
                    best_gain = gain
                    best = feature, cut, mid, [*left, n_left]
            lo = hi
    if best is None:
        return None
    feature, cut, mid, left_totals = best
    return feature, cut, mid, np.array(left_totals, dtype=np.float64)


class _CandidateDraws:
    """Sorted candidate features per split search, as a list equal to
    np.sort(rng.choice(d, m, replace=False)).tolist() with
    m = ceil(sqrt(d)), call after call.

    It reads the generator's uint32 stream as PCG64's next_uint32 does:
    the buffered high half first when `has_uint32` is set, then each
    random_raw word's low half before its high half. A draw follows
    choice's path for replace=False, which for this m is always Floyd's
    sampling (Bentley & Floyd, CACM 1987; choice shuffles a tail instead
    only when d > 10,000 and m > d // 50): for j = d - m ... d - 1 it
    takes t uniform on [0, j] and keeps t, or j if t is already kept.
    Then it consumes the m - 1 draws of choice's shuffle, on [0, i] for
    i = m - 1 ... 1, whose order sorting discards. Each draw on [0, j]
    is Lemire's (ACM TOMACS 2019) on 32 bits: the high word of
    u * (j + 1), drawing u again while the low word is below
    2**32 % (j + 1); j = 0 takes no draw. Numpy uses this 32-bit form
    only for j < 2**32 - 1, so d must be below 2**32.

    The stream is read ahead in blocks, so the generator must not be
    used for anything else once the draws start.
    """

    _RAW_WORDS = 256

    def __init__(self, rng: np.random.Generator, n_features: int):
        if n_features >= 2**32:
            raise ValidationError(
                f"the forest samples from fewer than 2**32 features, got {n_features}"
            )
        m_try = math.ceil(math.sqrt(n_features))
        self._next = self._uint32s(rng.bit_generator).__next__
        # Floyd's steps as (j, j + 1, rejection threshold); j = 0 keeps 0.
        self._floyd = [(j, j + 1, 2**32 % (j + 1))
                       for j in range(max(n_features - m_try, 1), n_features)]
        self._keeps_zero = m_try == n_features
        self._shuffle = [(i + 1, 2**32 % (i + 1)) for i in range(m_try - 1, 0, -1)]

    @classmethod
    def _uint32s(cls, bit_generator):
        state = bit_generator.state
        if state["has_uint32"]:
            yield state["uinteger"]
        halves = np.empty((cls._RAW_WORDS, 2), dtype=np.uint64)
        while True:
            words = bit_generator.random_raw(cls._RAW_WORDS)
            halves[:, 0] = words & 0xFFFFFFFF
            halves[:, 1] = words >> 32
            yield from halves.ravel().tolist()

    def draw(self) -> list[int]:
        next_u32 = self._next
        kept = {0} if self._keeps_zero else set()
        for j, span, threshold in self._floyd:
            m = next_u32() * span
            while m & 0xFFFFFFFF < threshold:
                m = next_u32() * span
            t = m >> 32
            kept.add(j if t in kept else t)
        for span, threshold in self._shuffle:
            while next_u32() * span & 0xFFFFFFFF < threshold:
                pass
        return sorted(kept)


def _build_tree(columns: np.ndarray, order: np.ndarray, wide: bool, y: np.ndarray,
                n_classes: int, config: ForestConfig, rng: np.random.Generator) -> _Tree:
    n_features, n_rows = columns.shape
    weight = np.bincount(rng.integers(0, n_rows, size=n_rows), minlength=n_rows)
    candidates = _CandidateDraws(rng, n_features)
    table = np.zeros((n_rows, n_classes + 1))
    table[np.arange(n_rows), y] = weight
    table[:, n_classes] = weight
    column_views = [memoryview(column) for column in columns]
    y_view, weight_view = memoryview(y), memoryview(weight)

    def can_split(totals, depth):
        if config.max_depth is not None and depth >= config.max_depth:
            return False
        *counts, size = totals.tolist()
        return size >= config.min_samples_split and max(counts) < size

    totals = table.sum(axis=0)
    root = order[(weight > 0)[order]].reshape(n_features, -1)
    # Every leaf holds at least one distinct row, which bounds the nodes.
    tree = _Tree.blank(2 * root.shape[1] - 1, n_classes)
    n_nodes = 0
    # Stack of (order matrix, or None for a leaf; class counts plus size;
    # depth; parent node; is_left_child). Popping left children first
    # keeps the RNG draw order a fixed preorder walk.
    stack = [(root if can_split(totals, 0) else None, totals, 0, -1, False)]
    while stack:
        rows, totals, depth, parent, is_left = stack.pop()
        node = n_nodes
        n_nodes += 1
        if parent >= 0:
            (tree.left if is_left else tree.right)[parent] = node

        split = None
        if rows is not None:
            features = candidates.draw()
            if rows.shape[1] < _SMALL_NODE_ROWS:
                split = _small_best_split(column_views, rows, y_view, weight_view,
                                          totals, features)
            else:
                split = _best_split(columns, rows, table, totals, features, wide)
        if split is None:
            tree.counts[node] = totals[:n_classes]
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
    return tree.head(n_nodes)


def rf_fit(X: FeatureMatrix, config: ForestConfig | None = None) -> RandomForestModel:
    """Train one tree per bootstrap sample of the labeled rows."""
    config = config or ForestConfig()
    if X.labels is None:
        raise ValidationError("random forest training matrix must carry labels")
    if X.n_cols == 0:
        raise ValidationError("random forest training matrix has no feature columns")
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
    classes = model.classes.tolist()
    trees_payload = []
    for tree in model.trees:
        nodes = []
        for feature, threshold, left, right, counts in zip(
            tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
            tree.right.tolist(), tree.counts.tolist(),
        ):
            if feature >= 0:
                nodes.append(
                    {"feature": feature, "threshold": threshold, "left": left, "right": right}
                )
            else:
                nodes.append(
                    {"leaf_counts": {str(c): v for c, v in zip(classes, counts) if v > 0}}
                )
        trees_payload.append(nodes)
    payload = {
        "classes": classes,
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


_INT64 = np.iinfo(np.int64)


def _json_int(record: dict, key: str) -> int:
    """record[key], which must be a JSON integer (not a bool or float)."""
    value = record[key]
    if type(value) is not int:
        raise FormatError(f"forest {key} {value!r} is not an integer")
    return value


def forest_from_json(text: str) -> RandomForestModel:
    """Inverse of forest_to_json, checked on load (see the module
    docstring). A payload that is not a forest raises FormatError,
    naming the tree and node where one is at fault."""
    try:
        payload = json.loads(text)
        codes = list(payload["classes"])
        n_features = _json_int(payload, "n_features")
        cfg = payload["config"]
        config = ForestConfig(
            n_trees=_json_int(cfg, "n_trees"),
            max_depth=None if cfg["max_depth"] is None else _json_int(cfg, "max_depth"),
            min_samples_split=_json_int(cfg, "min_samples_split"),
            seed=_json_int(cfg, "seed"),
        )
        trees_payload = list(payload["trees"])
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise FormatError(f"not a forest payload: {type(exc).__name__}: {exc}") from None
    if n_features < 1:
        raise FormatError(f"forest n_features {n_features} is below 1")
    if not (
        codes
        and all(type(c) is int and _INT64.min <= c <= _INT64.max for c in codes)
        and all(a < b for a, b in zip(codes, codes[1:]))
    ):
        raise FormatError(f"forest classes {codes} are not strictly ascending int64 codes")
    if len(trees_payload) != config.n_trees:
        raise FormatError(
            f"forest has {len(trees_payload)} trees, its config says {config.n_trees}"
        )
    class_pos = {c: i for i, c in enumerate(codes)}
    trees = []
    for t, nodes in enumerate(trees_payload):
        if not (isinstance(nodes, list) and nodes):
            raise FormatError(f"forest tree {t} has no nodes")
        tree = _Tree.blank(len(nodes), len(codes))
        for i, spec in enumerate(nodes):
            where = f"forest tree {t} node {i}"
            try:
                if "leaf_counts" in spec:
                    listed = set()
                    for code, count in spec["leaf_counts"].items():
                        pos = class_pos.get(int(code))
                        if pos is None:
                            raise FormatError(f"{where}: leaf class {code} is not in classes")
                        if pos in listed:
                            raise FormatError(f"{where}: leaf class {code} is listed twice")
                        if not (type(count) is int and 0 <= count <= _INT64.max):
                            raise FormatError(f"{where}: leaf count {count!r} is not a count")
                        listed.add(pos)
                        tree.counts[i, pos] = count
                    if not tree.counts[i].any():
                        raise FormatError(f"{where}: leaf has no counts")
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
            # Compares ints exactly, and is False for NaN.
            if not abs(threshold) <= sys.float_info.max:
                raise FormatError(f"{where}: threshold {threshold!r} is not finite")
            tree.feature[i] = feature
            tree.threshold[i] = threshold
            tree.left[i] = left
            tree.right[i] = right
        split = tree.feature >= 0
        parents = np.bincount(np.concatenate([tree.left[split], tree.right[split]]),
                              minlength=len(nodes))
        wrong = np.flatnonzero(parents[1:] != 1)
        if len(wrong):
            i = int(wrong[0]) + 1
            raise FormatError(f"forest tree {t} node {i}: {parents[i]} parents, needs exactly 1")
        trees.append(tree)
    return RandomForestModel(
        config=config,
        classes=np.array(codes, dtype=np.int64),
        n_features=n_features,
        trees=tuple(trees),
    )
