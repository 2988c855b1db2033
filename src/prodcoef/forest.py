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
distinct sorted values; a node becomes a leaf when it is pure, at the
depth cap, or no split has strictly positive Gini gain. (A node of one
row is pure, so no size rule is needed.)

The builder presorts the columns once per forest (a stable argsort, so
ties keep row order, as in SLIQ). Each tree keeps the distinct rows of
its bootstrap sample and weights them by how often they were drawn: a
node's order matrix lists its rows sorted by each column, one gather
and one cumsum of the weighted one-hot labels give every candidate's
left class counts, and a stable boolean partition hands each child its
own order matrix, so no large node sorts or bincounts. This grows the
same trees as splitting the duplicated rows. A gain at a boundary
between distinct values depends only on the class counts to its left,
which weights reproduce exactly; the gain keeps the float expression of
the duplicated-row split. Boundaries inside a run of equal values never
qualify, so dropping duplicates removes no candidate.

The weighted one-hot table is float64. Every value the split search
derives from it is an integer: class counts and sizes up to n, sums of
squared counts up to n**2, and the right side's sum of squares,
T.T - 2 L.T + L.L for left counts L and node totals T, whose partial
results stay within 2 n**2. Below 2**26 training rows all of them lie
under 2**53, so float64 holds them exactly, in any summation order,
with or without fused multiply-add, and the gains equal those of
integer arithmetic bit for bit. Node totals are Python ints.

A node below the root with fewer than _SMALL_NODE_ROWS (16) distinct
rows is held as one ascending list of its rows and searched by
_small_best_split, which sorts the list by each sampled feature
(stably, so ties, -0.0 and 0.0 among them, keep row order as in the
order matrix) and walks it in Python: there _best_split's fixed cost of
about two dozen numpy calls outweighs a per-row loop. A split
partitions that one list. Cutoffs of 16, 24 and 32 rows time alike on
desk-scale PCA-3..10 folds. The loop's running sums are the same
integers held exactly, and it repeats _best_split's float operations in
the same order, so both searches return the same split bit for bit; a
test compares them node by node. The root is an order matrix whatever
its size; where it has fewer distinct rows, _best_split finds the split
_small_best_split would.

Candidate draws do not call Generator.choice per node, whose fixed
cost outweighs the sampling: _CandidateDraws reproduces its samples
from the tree generator's own uint32 stream (see there). The equality
rests on numpy's choice and PCG64 internals; a test compares over a
million draws with choice, so a numpy release that changes them fails
loudly.

The threshold between neighbours lo < hi is lo + (hi - lo) / 2, unless
hi - lo overflows; then it is lo / 2 + hi / 2. A boundary whose
midpoint rounds up to hi (adjacent floats) is skipped, as that
threshold would not separate the two values. Midpoints are computed
only where they decide: by _best_split at the argmax of the gains
(taken again without that boundary if it is skipped), and by
_small_best_split where a gain beats the best so far.

A fitted tree is five arrays, one row per node in preorder: feature,
threshold, left and right child, and an (n_nodes, n_classes) table of
class counts that is zero except at leaves, made from the builder's
Python lists once the tree is done. `forest_to_json` writes them out
for inspection; no command reads a forest back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix
from .summation import numpy_sum


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError(f"need at least one tree, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError(f"max_depth must be >= 0, got {self.max_depth}")
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


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between neighbours lo < hi (see the module docstring)."""
    step = hi - lo
    return lo / 2 + hi / 2 if step == math.inf else lo + step / 2.0


def _best_split(columns: np.ndarray, rows: np.ndarray, table: np.ndarray,
                totals: list[int], features: list[int]):
    """Best (feature, cut, threshold, left totals) by Gini gain over the
    sampled features of one node, or None when no candidate has strictly
    positive gain.

    `columns` is the training matrix transposed. `rows` is the node's
    (n_features, n) order matrix: row f lists the node's distinct rows
    sorted by column f. `table` holds each row's weighted one-hot class
    counts plus its weight in the last column, as float64; `totals`, the
    node's sum of it, and the left totals returned are Python ints. The
    first `cut` entries of the winning feature's order go left.
    `features` must be sorted ascending so the first argmax hit honors
    the lowest-feature tie-break; within one feature, thresholds ascend
    with sort position, so the first argmax hit is the lowest threshold.
    """
    *class_totals, n = totals
    order = rows[features]
    xs = columns[np.array(features)[:, None], order]
    cum = np.cumsum(table.take(order, axis=0), axis=1)

    left = cum[:, :-1, :-1]  # class counts at split "after entry i"
    n_left = cum[:, :-1, -1]
    sumsq_left = np.einsum("ijk,ijk->ij", left, left)
    # sum((T - L)^2) without building T - L; exact, as every partial
    # result is an integer below 2**53 (see the module docstring).
    totals_sq = sum([t * t for t in class_totals])
    sumsq_right = (totals_sq - 2.0 * (left @ class_totals)) + sumsq_left
    n_right = n - n_left
    weighted = (n_left - sumsq_left / n_left + n_right - sumsq_right / n_right) / n
    gain = _gini(class_totals, n) - weighted
    gain[xs[:, 1:] == xs[:, :-1]] = -math.inf

    # The first maximum in row-major order is the lowest feature, then
    # the lowest threshold; a boundary whose midpoint rounds up to hi is
    # dropped and the argmax taken again.
    flat = gain.ravel()
    while True:
        best = int(flat.argmax())
        if not flat[best] > 0.0:
            return None
        winner, pos = divmod(best, gain.shape[1])
        hi = xs.item(winner, pos + 1)
        mid = _midpoint(xs.item(winner, pos), hi)
        if mid < hi:
            return features[winner], pos + 1, mid, [int(c) for c in cum[winner, pos].tolist()]
        flat[best] = -math.inf


# Nodes with fewer distinct rows than this take _small_best_split (see
# the module docstring for how it was chosen).
_SMALL_NODE_ROWS = 16


def _small_best_split(column_views: list[memoryview], rows: list[int],
                      y_view: memoryview, weight_view: memoryview,
                      totals: list[int], features: list[int]):
    """_best_split's result for a node given as the ascending list of its
    distinct rows, from one Python walk per sampled feature.

    `column_views` holds a memoryview of each column; `y_view` and
    `weight_view` give every training row's class position and weight.
    The walk keeps the left class counts and both sides' sizes and sums
    of squared class counts as Python ints, row by row: the integers
    _best_split holds exactly in float64. The gain repeats its float
    operations in the same order.
    """
    *class_totals, n = totals
    gini = _gini(class_totals, n)
    totals_sq = sum([t * t for t in class_totals])
    best_gain = 0.0
    best = None
    for feature in features:
        x = column_views[feature]
        order = sorted(rows, key=x.__getitem__)
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
            gain = gini - (n_left - sumsq_left / n_left
                           + n_right - sumsq_right / n_right) / n
            if gain > best_gain:
                mid = _midpoint(lo, hi)
                if mid < hi:
                    best_gain = gain
                    best = feature, cut, mid, [*left, n_left]
            lo = hi
    return best


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


def _build_tree(columns: np.ndarray, order: np.ndarray, y: np.ndarray,
                n_classes: int, config: ForestConfig, rng: np.random.Generator) -> _Tree:
    n_features, n_rows = columns.shape
    weight = np.bincount(rng.integers(0, n_rows, size=n_rows), minlength=n_rows)
    candidates = _CandidateDraws(rng, n_features)
    table = np.zeros((n_rows, n_classes + 1))
    table[np.arange(n_rows), y] = weight
    table[:, n_classes] = weight
    column_views = [memoryview(column) for column in columns]
    y_view, weight_view = memoryview(y), memoryview(weight)
    max_depth = math.inf if config.max_depth is None else config.max_depth

    totals = [int(t) for t in table.sum(axis=0).tolist()]
    root = order[(weight > 0)[order]].reshape(n_features, -1)
    # Node records in preorder. A split node's left child is the next
    # node; its right child is set when that child is popped.
    feature, threshold, right, counts = [], [], [], []
    no_counts = [0] * n_classes
    # Stack of (rows: an order matrix at the root and from
    # _SMALL_NODE_ROWS rows up, else an ascending list, None for a leaf;
    # class counts plus size; depth; the node whose right child this
    # is, or -1).
    grows = 0 < max_depth and max(totals[:-1]) < totals[-1]
    stack = [(root if grows else None, totals, 0, -1)]
    while stack:
        rows, totals, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        right.append(-1)
        split = None
        if rows is not None:
            features = candidates.draw()
            if isinstance(rows, list):
                split = _small_best_split(column_views, rows, y_view, weight_view,
                                          totals, features)
            else:
                split = _best_split(columns, rows, table, totals, features)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            counts.append(totals[:-1])
            continue
        f, cut, mid, left_totals = split
        feature.append(f)
        threshold.append(mid)
        counts.append(no_counts)
        right_totals = [t - l for t, l in zip(totals, left_totals)]
        depth += 1
        left_open = depth < max_depth and max(left_totals[:-1]) < left_totals[-1]
        right_open = depth < max_depth and max(right_totals[:-1]) < right_totals[-1]
        left_rows = right_rows = None
        if isinstance(rows, list):
            x = column_views[f]
            if left_open:
                left_rows = [row for row in rows if x[row] <= mid]
            if right_open:
                right_rows = [row for row in rows if x[row] > mid]
        else:
            # The first `cut` entries of the winning order go left.
            small_left = cut < _SMALL_NODE_ROWS
            small_right = rows.shape[1] - cut < _SMALL_NODE_ROWS
            if left_open and not small_left or right_open and not small_right:
                go_left = (columns[f][rows] <= mid).ravel()
            if left_open:
                left_rows = (sorted(rows[f, :cut].tolist()) if small_left
                             else rows.compress(go_left).reshape(n_features, cut))
            if right_open:
                right_rows = (sorted(rows[f, cut:].tolist()) if small_right
                              else rows.compress(~go_left).reshape(n_features, -1))
        # Push right first so the left child is popped (and built) first,
        # which keeps the RNG draw order a fixed preorder walk.
        stack.append((right_rows, right_totals, depth, node))
        stack.append((left_rows, left_totals, depth, -1))
    feature = np.array(feature, dtype=np.int32)
    return _Tree(
        feature=feature,
        threshold=np.array(threshold),
        left=np.where(feature >= 0, np.arange(1, len(feature) + 1, dtype=np.int32), -1),
        right=np.array(right, dtype=np.int32),
        counts=np.array(counts, dtype=np.int64),
    )


def rf_fit(X: FeatureMatrix, config: ForestConfig | None = None) -> RandomForestModel:
    """Train one tree per bootstrap sample of the labeled rows."""
    config = config or ForestConfig()
    if X.labels is None:
        raise ValidationError("random forest training matrix must carry labels")
    if X.n_cols == 0:
        raise ValidationError("random forest training matrix has no feature columns")
    if X.n_rows < 2:
        raise ValidationError(f"need at least 2 training rows, got {X.n_rows}")

    # With an inverse, np.unique does not import numpy.ma (numpy 2.4).
    classes, y = np.unique(X.labels, return_inverse=True)
    columns = np.ascontiguousarray(X.values.T)
    # Row f lists all rows sorted by column f; stable, so ties keep row order.
    order = np.argsort(columns, axis=1, kind="stable")
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        trees.append(_build_tree(columns, order, y, len(classes), config, rng))
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
            # Any impure node splits, and it holds at least 2 rows.
            "min_samples_split": 2,
            "seed": model.config.seed,
        },
        "trees": trees_payload,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
