import gc
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcoef.forest as forest_module
from prodcoef.errors import ValidationError
from prodcoef.evaluation import CrossValPlan, fold_assignment
from prodcoef.features import NeighborhoodSpec, extract_features
from prodcoef.forest import (
    _SMALL_NODE_ROWS,
    ForestConfig,
    RandomForestModel,
    _best_split,
    _CandidateDraws,
    _small_best_split,
    _Tree,
    _vote_matrix,
    forest_to_json,
    rf_fit,
    rf_predict_labels,
)
from prodcoef.matrix import FeatureMatrix
from prodcoef.pca import fit_pca, transform
from prodcoef.pointcloud import normalize_unit_cube
from prodcoef.synth import SceneSpec, generate_scene


def _matrix(values, labels=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values, names, labels)


def _gini(counts):
    total = counts.sum()
    p = counts / total
    return 1.0 - (p * p).sum()


def test_single_label_data_yields_single_leaf_trees():
    X = _matrix(np.random.default_rng(0).uniform(size=(20, 3)), [4] * 20)
    model = rf_fit(X, ForestConfig(n_trees=10, seed=1))
    for tree in model.trees:
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1
    pred = rf_predict_labels(model, X)
    assert (pred == 4).all()


def test_axis_separable_training_accuracy():
    rng = np.random.default_rng(42)
    values = np.concatenate([rng.uniform(0.0, 0.45, 100), rng.uniform(0.55, 1.0, 100)])
    labels = (values > 0.5).astype(int)
    X = _matrix(values[:, None], labels)
    model = rf_fit(X, ForestConfig(n_trees=100, seed=42))
    pred = rf_predict_labels(model, X)
    assert (pred == labels).mean() == 1.0


def test_byte_identical_refits_with_seed_42():
    rng = np.random.default_rng(7)
    X = _matrix(rng.uniform(size=(120, 5)), rng.integers(0, 3, size=120))
    a = forest_to_json(rf_fit(X, ForestConfig(n_trees=20, seed=42)))
    b = forest_to_json(rf_fit(X, ForestConfig(n_trees=20, seed=42)))
    assert a == b


def test_different_seeds_differ():
    rng = np.random.default_rng(8)
    X = _matrix(rng.uniform(size=(80, 4)), rng.integers(0, 2, size=80))
    a = forest_to_json(rf_fit(X, ForestConfig(n_trees=5, seed=1)))
    b = forest_to_json(rf_fit(X, ForestConfig(n_trees=5, seed=2)))
    assert a != b


def _tree(feature, threshold, left, right, counts):
    """A tree from its node lists, in the dtypes the builder uses."""
    return _Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        counts=np.array(counts, dtype=np.int64),
    )


def _hand_built_model():
    tree = _tree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                 right=[2, -1, -1], counts=[[0, 0], [10, 0], [0, 7]])
    return RandomForestModel(ForestConfig(n_trees=1), np.array([3, 8]), 2, (tree,))


def test_hand_built_tree_routing():
    model = _hand_built_model()
    pred = rf_predict_labels(model, _matrix([[0.4, 9.0], [0.5, 9.0], [0.6, 9.0]]))
    assert pred.tolist() == [3, 3, 8]  # <= threshold goes left


def test_identical_single_leaf_trees():
    leaf = _tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], counts=[[0, 5]])
    model = RandomForestModel(ForestConfig(n_trees=3), np.array([1, 3]), 1, (leaf,) * 3)
    queries = _matrix([[0.1], [0.9]])
    assert rf_predict_labels(model, queries).tolist() == [3, 3]
    assert _vote_matrix(model, queries).tolist() == [[0, 3], [0, 3]]


def test_forest_vote_matches_per_tree_recount():
    # Oracle: route every query through every tree independently and
    # recompute the argmax over summed votes.
    rng = np.random.default_rng(9)
    X = _matrix(rng.uniform(size=(150, 4)), rng.integers(0, 3, size=150))
    model = rf_fit(X, ForestConfig(n_trees=100, seed=5))
    queries = rng.uniform(size=(30, 4))

    def route(tree, row):
        node = 0
        while tree.feature[node] >= 0:
            if row[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        counts = tree.counts[node]
        best = counts.max()
        return min(c for c, v in zip(model.classes.tolist(), counts) if v == best)

    got = rf_predict_labels(model, _matrix(queries))
    for row, predicted in zip(queries, got):
        votes = {}
        for tree in model.trees:
            label = route(tree, row)
            votes[label] = votes.get(label, 0) + 1
        best = max(votes.values())
        expected = min(c for c, v in votes.items() if v == best)
        assert predicted == expected


def test_every_split_has_positive_gini_gain():
    # Replay each tree's bootstrap sample through its structure and
    # recompute the impurity decrease at every internal node.
    rng = np.random.default_rng(10)
    X = _matrix(rng.uniform(size=(100, 3)), rng.integers(0, 3, size=100))
    config = ForestConfig(n_trees=10, seed=11)
    model = rf_fit(X, config)
    classes = model.classes
    y = np.searchsorted(classes, X.labels)
    for i, tree in enumerate(model.trees):
        tree_rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        sample = tree_rng.integers(0, X.n_rows, size=X.n_rows)
        node_rows = {0: sample}
        for node in range(len(tree.feature)):
            rows = node_rows[node]
            if tree.feature[node] < 0:
                counts = np.bincount(y[rows], minlength=len(classes))
                np.testing.assert_array_equal(counts, tree.counts[node])
                assert counts.sum() == len(rows)
                continue
            go_left = X.values[rows, tree.feature[node]] <= tree.threshold[node]
            left_rows, right_rows = rows[go_left], rows[~go_left]
            assert len(left_rows) > 0 and len(right_rows) > 0
            parent = _gini(np.bincount(y[rows], minlength=len(classes)))
            left = _gini(np.bincount(y[left_rows], minlength=len(classes)))
            right = _gini(np.bincount(y[right_rows], minlength=len(classes)))
            weighted = (len(left_rows) * left + len(right_rows) * right) / len(rows)
            assert parent - weighted > 0
            node_rows[tree.left[node]] = left_rows
            node_rows[tree.right[node]] = right_rows


def test_monotone_feature_transform_invariance():
    # Thresholds adapt under a monotone warp, so predictions for points
    # drawn from the training values are unchanged (a query strictly
    # inside a split gap may legitimately flip as the midpoint moves,
    # which is why training rows are the right probe here).
    rng = np.random.default_rng(12)
    raw = rng.uniform(0.1, 1.0, size=(90, 3))
    labels = rng.integers(0, 2, size=90)
    config = ForestConfig(n_trees=30, seed=3)
    plain = rf_predict_labels(rf_fit(_matrix(raw, labels), config), _matrix(raw))
    warped = rf_predict_labels(
        rf_fit(_matrix(raw**3, labels), config), _matrix(raw**3)
    )
    np.testing.assert_array_equal(plain, warped)


def test_max_depth_zero_gives_single_leaves():
    rng = np.random.default_rng(13)
    X = _matrix(rng.uniform(size=(40, 2)), rng.integers(0, 2, size=40))
    model = rf_fit(X, ForestConfig(n_trees=5, seed=0, max_depth=0))
    assert all(len(t.feature) == 1 for t in model.trees)


def _model_from_payload(payload):
    """forest_to_json's payload read back into node arrays, checking the
    keys of every node on the way."""
    classes = payload["classes"]
    trees = []
    for nodes in payload["trees"]:
        arrays = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}
        for node in nodes:
            if "leaf_counts" in node:
                assert set(node) == {"leaf_counts"}
                counts = node["leaf_counts"]
                assert set(counts) <= {str(c) for c in classes}
                assert all(count > 0 for count in counts.values())
                record = -1, 0.0, -1, -1, [counts.get(str(c), 0) for c in classes]
            else:
                assert set(node) == {"feature", "threshold", "left", "right"}
                record = (node["feature"], node["threshold"], node["left"], node["right"],
                          [0] * len(classes))
            for values, value in zip(arrays.values(), record):
                values.append(value)
        trees.append(_tree(**arrays))
    config = dict(payload["config"])
    assert config.pop("min_samples_split") == 2
    return RandomForestModel(
        ForestConfig(**config), np.array(classes), payload["n_features"], tuple(trees)
    )


def test_json_round_trip_preserves_predictions():
    rng = np.random.default_rng(14)
    X = _matrix(rng.uniform(size=(80, 4)), rng.integers(0, 3, size=80))
    model = rf_fit(X, ForestConfig(n_trees=15, seed=21))
    queries = _matrix(rng.uniform(size=(40, 4)))
    payload = json.loads(forest_to_json(model))
    assert len(payload["trees"]) == 15
    back = _model_from_payload(payload)
    np.testing.assert_array_equal(
        rf_predict_labels(model, queries), rf_predict_labels(back, queries)
    )


def test_json_round_trip_reproduces_node_arrays():
    rng = np.random.default_rng(18)
    X = _matrix(rng.normal(size=(200, 5)) * 1e3, rng.choice([-4, 2, 7, 30], size=200))
    model = rf_fit(X, ForestConfig(n_trees=6, max_depth=6, seed=9))
    back = _model_from_payload(json.loads(forest_to_json(model)))
    assert back.config == model.config
    assert back.classes.tolist() == model.classes.tolist() == [-4, 2, 7, 30]
    assert back.n_features == model.n_features == 5
    assert len(back.trees) == len(model.trees) == 6
    for got, want in zip(back.trees, model.trees):
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert getattr(got, name).shape == getattr(want, name).shape
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_fitted_model_retains_few_bytes_per_node():
    # A node is one int32 feature, float64 threshold, two int32 children
    # and a row of int64 class counts: 44 bytes for three classes. One
    # Python object per node or leaf would cost over 100 bytes more.
    rng = np.random.default_rng(19)
    X = _matrix(rng.uniform(size=(3000, 4)), rng.integers(0, 3, size=3000))
    config = ForestConfig(n_trees=1, seed=0)
    rf_fit(X, config)  # warm up numpy's lazily built state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = rf_fit(X, config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_nodes = len(model.trees[0].feature)
    assert n_nodes > 1000
    assert retained / n_nodes < 80


def test_insufficient_data():
    with pytest.raises(ValidationError):
        rf_fit(_matrix([[0.0, 1.0]], [1]))
    with pytest.raises(ValidationError):
        rf_fit(_matrix([[0.0], [1.0]]))  # unlabeled


def test_zero_column_training_rejected():
    train = FeatureMatrix(np.empty((4, 0)), (), np.array([0, 1, 0, 1]))
    with pytest.raises(ValidationError, match="no feature columns"):
        rf_fit(train, ForestConfig(n_trees=1, seed=0))


def test_prediction_column_mismatch():
    rng = np.random.default_rng(15)
    X = _matrix(rng.uniform(size=(20, 3)), rng.integers(0, 2, size=20))
    model = rf_fit(X, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(ValidationError):
        rf_predict_labels(model, _matrix([[0.0, 1.0]]))


def test_bad_config_rejected():
    with pytest.raises(ValidationError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValidationError):
        ForestConfig(seed=-1)


# The reference builder: one Python stack iteration per node, which
# bincounts the node's duplicated bootstrap rows and argsorts its
# candidate columns. rf_fit must grow exactly these trees.


def _reference_gini(counts, total):
    p = counts / total
    return 1.0 - float((p * p).sum())


def _reference_best_split(X_node, y_node, counts, features):
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
    gain = _reference_gini(counts, n) - weighted

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


def _reference_build_tree(X, y, classes, config, rng):
    """The tree's nodes in preorder, in forest_to_json's format."""
    n_rows, n_features = X.shape
    n_classes = len(classes)
    m_try = math.ceil(math.sqrt(n_features))
    sample = rng.integers(0, n_rows, size=n_rows)

    nodes = []
    stack = [(sample, 0, -1, "")]
    while stack:
        rows, depth, parent, side = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][side] = node

        y_node = y[rows]
        counts = np.bincount(y_node, minlength=n_classes)
        at_cap = config.max_depth is not None and depth >= config.max_depth
        split = None
        if counts.max() < len(rows) and not at_cap:
            features = np.sort(rng.choice(n_features, size=m_try, replace=False))
            split = _reference_best_split(X[rows], y_node, counts, features)
        if split is None:
            nodes.append(
                {"leaf_counts": {str(c): int(v) for c, v in zip(classes, counts) if v > 0}}
            )
            continue
        feature, threshold, _ = split
        go_left = X[rows, feature] <= threshold
        nodes.append({"feature": feature, "threshold": threshold})
        stack.append((rows[~go_left], depth + 1, node, "right"))
        stack.append((rows[go_left], depth + 1, node, "left"))
    return nodes


def _reference_fit(X, config):
    """The reference builder's trees, each a list of nodes."""
    classes = np.unique(X.labels)
    y = np.searchsorted(classes, X.labels)
    return [
        _reference_build_tree(
            X.values, y, classes.tolist(), config,
            np.random.default_rng(np.random.SeedSequence([config.seed, i])),
        )
        for i in range(config.n_trees)
    ]


def _saved_trees(model):
    return json.loads(forest_to_json(model))["trees"]


@st.composite
def tie_grids(draw):
    """Tie-heavy labeled grids: few distinct values per column, repeated
    rows, sometimes signed zeros, a constant column and adjacent floats."""
    # Up to five times the small-node cutoff, so trees search nodes on
    # both sides of it.
    n_rows = draw(st.integers(2, 5 * _SMALL_NODE_ROWS))
    n_cols = draw(st.integers(1, 10))
    levels = draw(st.integers(2, 4))
    distinct = draw(st.integers(1, n_rows))
    base = draw(
        st.lists(
            st.lists(st.integers(0, levels - 1), min_size=n_cols, max_size=n_cols),
            min_size=distinct, max_size=distinct,
        )
    )
    values = np.array(base, dtype=float)[np.arange(n_rows) % distinct]
    values *= draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    if draw(st.booleans()):
        # Signed zeros: -0.0 and 0.0 are one value, which no threshold
        # separates and whose rows sort in row order.
        col = draw(st.integers(0, n_cols - 1))
        negated = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
        values[negated, col] *= -1.0
    if draw(st.booleans()):
        values[:, draw(st.integers(0, n_cols - 1))] = 0.7
    if draw(st.booleans()):
        # The midpoint of v and nextafter(v) rounds to one of them; when
        # it rounds up to the upper value that boundary is skipped.
        col = draw(st.integers(0, n_cols - 1))
        bumped = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
        values[:, col] += 1.0
        values[bumped, col] = np.nextafter(values[bumped, col], np.inf)
    n_classes = draw(st.integers(2, 4))
    labels = np.array([1, 2, 6, 9])[
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
    ]
    config = ForestConfig(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.sampled_from([None, 0, 1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return _matrix(values, labels), config


@settings(max_examples=200, deadline=None)
@given(tie_grids())
def test_trees_equal_reference_builder(case):
    X, config = case
    assert _saved_trees(rf_fit(X, config)) == _reference_fit(X, config)


def test_adjacent_float_boundary_is_skipped_when_midpoint_rounds_up():
    lo = 1.0 + 2.0**-52
    hi = np.nextafter(lo, np.inf)
    assert lo + (hi - lo) / 2.0 == hi
    X = _matrix([[lo], [hi]] * 4, [0, 1] * 4)
    model = rf_fit(X, ForestConfig(n_trees=3, seed=0))
    assert all(len(tree.feature) == 1 for tree in model.trees)
    assert _saved_trees(model) == _reference_fit(X, ForestConfig(n_trees=3, seed=0))


def test_large_node_retries_when_the_top_boundary_midpoint_rounds_up():
    # The root's best boundary, lo | hi, splits the classes perfectly,
    # but its midpoint rounds up to hi; _best_split then takes the next
    # best boundary, next to 0.5 or 2.0.
    lo = 1.0 + 2.0**-52
    hi = np.nextafter(lo, np.inf)
    values = [0.5] * 6 + [lo] * 14 + [hi] * 14 + [2.0] * 4
    labels = [0] * 20 + [1] * 18
    X = _matrix(np.array(values)[:, None], labels)
    config = ForestConfig(n_trees=4, seed=0)
    model = rf_fit(X, config)
    for i, tree in enumerate(model.trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, i]))
        assert len(np.unique(rng.integers(0, X.n_rows, size=X.n_rows))) >= _SMALL_NODE_ROWS
        assert tree.feature[0] == 0
        assert tree.threshold[0] in (0.5 + (lo - 0.5) / 2, hi + (2.0 - hi) / 2)
    assert _saved_trees(model) == _reference_fit(X, config)


@st.composite
def small_nodes(draw):
    """One split search below the small-node cutoff: weights 1-5, 2-12
    classes, and columns that are tie-heavy, adjacent floats, spread
    over +-1e308 (so hi - lo overflows) or plain floats."""
    n_features = draw(st.integers(1, 6))
    n_node = draw(st.integers(2, _SMALL_NODE_ROWS - 1))
    n_rows = n_node + draw(st.integers(0, 8))
    n_classes = draw(st.integers(2, 12))
    columns = np.empty((n_features, n_rows))
    for f in range(n_features):
        kind = draw(st.sampled_from(["ties", "adjacent", "huge", "plain"]))
        if kind == "plain":
            values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n_rows, max_size=n_rows))
        else:
            steps = np.array(draw(st.lists(st.integers(0, 3), min_size=n_rows,
                                           max_size=n_rows)), dtype=float)
            if kind == "ties":
                values = steps / 3
            elif kind == "adjacent":
                # Neighbouring floats whose midpoint rounds up or down.
                values = 1.0 + steps * 2.0**-52
            else:
                values = np.where(steps >= 2, 1e308, -1e308)
        columns[f] = values
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows,
                               max_size=n_rows)))
    weight = np.array(draw(st.lists(st.integers(1, 5), min_size=n_rows, max_size=n_rows)))
    node = np.sort(draw(st.permutations(range(n_rows)))[:n_node])
    # Each row of the order matrix sorts the node's rows stably by one column.
    rows = node[np.argsort(columns[:, node], axis=1, kind="stable")]
    features = sorted(draw(
        st.sets(st.integers(0, n_features - 1), min_size=1, max_size=n_features)))
    return columns, y, weight, n_classes, rows, features


@settings(max_examples=300, deadline=None)
@given(small_nodes())
def test_small_node_search_equals_best_split(case):
    columns, y, weight, n_classes, rows, features = case
    table = np.zeros((len(y), n_classes + 1))
    table[np.arange(len(y)), y] = weight
    table[:, n_classes] = weight
    totals = [int(t) for t in table[rows[0]].sum(axis=0).tolist()]
    expected = _best_split(columns, rows, table, totals, features)
    got = _small_best_split([memoryview(c) for c in columns], sorted(rows[0].tolist()),
                            memoryview(y), memoryview(weight), totals, features)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got[:2] == expected[:2]
    assert np.float64(got[2]).tobytes() == np.float64(expected[2]).tobytes()
    assert got[3] == expected[3]
    assert all(type(count) is int for count in got[3] + expected[3])


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**30), min_size=1, max_size=40).filter(any))
def test_gini_equals_numpy_expression(counts):
    # Up to 40 classes crosses numpy's change of summation order at 8
    # terms; both searches pass counts as Python ints or floats.
    total = sum(counts)
    expected = _reference_gini(np.array(counts, dtype=np.float64), total)
    assert forest_module._gini(counts, total) == expected
    assert forest_module._gini([float(c) for c in counts], float(total)) == expected


def test_gini_equals_numpy_expression_past_pairwise_block():
    # Above 128 terms numpy sums each half separately.
    counts = np.random.default_rng(12).integers(0, 1000, size=200)
    total = int(counts.sum())
    assert forest_module._gini(counts.tolist(), total) == _reference_gini(counts, total)


def test_golden_forest_bytes():
    # Pins the RNG layout: bootstrap draw, candidate draw per node in
    # preorder, splits and leaf counts.
    rng = np.random.default_rng(7)
    X = FeatureMatrix(
        rng.integers(0, 4, size=(300, 6)).astype(float),
        tuple("abcdef"),
        rng.integers(0, 3, 300),
    )
    assert _sha256(forest_to_json(rf_fit(X, ForestConfig(n_trees=5, seed=42)))) == (
        "bae7e4fa706bbf19e42c63104d39082edfd4524ee7dd3cc9ac766a74bd867957"
    )


def test_golden_forest_bytes_on_pca_fold():
    cloud = normalize_unit_cube(generate_scene(SceneSpec(points_per_class=60, seed=5)))
    features = extract_features(cloud, NeighborhoodSpec(radius=0.2))
    fold = fold_assignment(features.labels, CrossValPlan(folds=5, seed=0))
    train = features.take_rows(np.nonzero(fold != 0)[0])
    projected = transform(fit_pca(train, 4), train)
    model = rf_fit(projected, ForestConfig(n_trees=10, max_depth=4, seed=3))
    assert _sha256(forest_to_json(model)) == (
        "d828d4196a952ce89c0c2fab4604e22579f54f3d3717678a3598ee1ac4d95fd2"
    )


@pytest.mark.parametrize("n_rows", [4, 3 * _SMALL_NODE_ROWS])
def test_threshold_between_values_whose_difference_overflows(n_rows):
    # 4 rows search only small nodes; the larger root takes _best_split.
    X = _matrix([[1e308], [-1e308]] * (n_rows // 2), [0, 1] * (n_rows // 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = rf_fit(X, ForestConfig(n_trees=2, seed=0))
    for tree in model.trees:
        assert tree.feature[0] == 0 and tree.threshold[0] == 0.0
    assert (rf_predict_labels(model, X) == X.labels).all()


def _assert_draws_equal_choice(d, seeds, draws):
    """_CandidateDraws against np.sort(rng.choice(d, m, replace=False)).tolist()
    after bootstraps of odd and even length; returns the has_uint32
    flags seen when the draws began."""
    m = math.ceil(math.sqrt(d))
    buffered = set()
    for seed in seeds:
        for boot in (101, 100):
            expected_rng = np.random.default_rng(seed)
            expected_rng.integers(0, 1000, size=boot)
            expected = [np.sort(expected_rng.choice(d, m, replace=False)).tolist()
                        for _ in range(draws)]
            rng = np.random.default_rng(seed)
            rng.integers(0, 1000, size=boot)
            buffered.add(rng.bit_generator.state["has_uint32"])
            candidates = _CandidateDraws(rng, d)
            got = [candidates.draw() for _ in range(draws)]
            assert got == expected, (d, seed, boot)
    return buffered


def test_candidate_draws_equal_generator_choice():
    # 14 small widths x 40 seeds x 2 bootstraps x 900 draws = 1,008,000
    # draws, plus a wide one where numpy still uses Floyd's sampling.
    buffered = set()
    for d in [*range(1, 13), 33, 100]:
        buffered |= _assert_draws_equal_choice(d, range(40), 900)
    buffered |= _assert_draws_equal_choice(10_001, range(4), 100)
    assert buffered == {0, 1}


def test_candidate_draws_equal_generator_choice_under_frequent_rejection():
    # Every bound j + 1 lies near 3 * 2**30, where 2**32 % (j + 1) is
    # about 2**30: Lemire's method redraws about a quarter of the time.
    assert _assert_draws_equal_choice(3 * 2**30, range(2), 2) == {0, 1}


def test_candidate_draws_need_fewer_than_2_to_the_32_features():
    with pytest.raises(ValidationError, match="fewer than 2\\*\\*32 features"):
        _CandidateDraws(np.random.default_rng(0), 2**32)
