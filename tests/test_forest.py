import json

import numpy as np
import pytest

from prodcoef.errors import ValidationError
from prodcoef.forest import (
    ForestConfig,
    RandomForestModel,
    _Tree,
    _vote_matrix,
    forest_from_json,
    forest_to_json,
    rf_fit,
    rf_predict_labels,
)
from prodcoef.matrix import FeatureMatrix


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


def _hand_built_model():
    tree = _Tree()
    root = tree.add_node()
    tree.feature[root] = 0
    tree.threshold[root] = 0.5
    left = tree.add_node()
    tree.leaf_counts[left] = np.array([10, 0])
    right = tree.add_node()
    tree.leaf_counts[right] = np.array([0, 7])
    tree.left[root] = left
    tree.right[root] = right
    tree.finalize()
    return RandomForestModel(
        config=ForestConfig(n_trees=1, seed=0),
        classes=np.array([3, 8]),
        n_features=2,
        trees=(tree,),
    )


def test_hand_built_tree_routing():
    model = _hand_built_model()
    pred = rf_predict_labels(model, _matrix([[0.4, 9.0], [0.5, 9.0], [0.6, 9.0]]))
    assert pred.tolist() == [3, 3, 8]  # <= threshold goes left


def test_identical_single_leaf_trees():
    tree = _Tree()
    node = tree.add_node()
    tree.leaf_counts[node] = np.array([0, 5])
    tree.finalize()
    model = RandomForestModel(
        config=ForestConfig(n_trees=3, seed=0),
        classes=np.array([1, 3]),
        n_features=1,
        trees=(tree, tree, tree),
    )
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
        counts = tree.leaf_counts[node]
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
                np.testing.assert_array_equal(counts, tree.leaf_counts[node])
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


def test_json_round_trip_preserves_predictions():
    rng = np.random.default_rng(14)
    X = _matrix(rng.uniform(size=(80, 4)), rng.integers(0, 3, size=80))
    model = rf_fit(X, ForestConfig(n_trees=15, seed=21))
    queries = _matrix(rng.uniform(size=(40, 4)))
    back = forest_from_json(forest_to_json(model))
    np.testing.assert_array_equal(
        rf_predict_labels(model, queries), rf_predict_labels(back, queries)
    )
    payload = json.loads(forest_to_json(model))
    assert len(payload["trees"]) == 15
    node = payload["trees"][0][0]
    assert ("leaf_counts" in node) or {"feature", "threshold", "left", "right"} <= set(node)


def test_insufficient_data():
    with pytest.raises(ValidationError):
        rf_fit(_matrix([[0.0, 1.0]], [1]))
    with pytest.raises(ValidationError):
        rf_fit(_matrix([[0.0], [1.0]]))  # unlabeled


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
        ForestConfig(min_samples_split=1)
    with pytest.raises(ValidationError):
        ForestConfig(seed=-1)
