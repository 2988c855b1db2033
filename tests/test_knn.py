import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcoef.errors import ValidationError
import prodcoef.knn as knn_module
from prodcoef.knn import KnnModel, _vote_matrix, knn_predict_labels
from prodcoef.matrix import FeatureMatrix


def _matrix(values, labels=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values, names, labels)


def both_paths():
    """Yield "direct", then "kdtree", with _DIRECT_ROWS set so that every
    fit in the loop body takes that candidate source."""
    for path, limit in (("direct", 10**9), ("kdtree", 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(knn_module, "_DIRECT_ROWS", limit)
            yield path


def full_sort_oracle(train_x, train_y, query, k):
    """Oracle: compute every distance, sort all of them, vote by hand."""
    dists = []
    for i, row in enumerate(train_x):
        d2 = sum((row[j] - query[j]) ** 2 for j in range(len(query)))
        dists.append((d2, i))
    dists.sort()
    chosen = [train_y[i] for _, i in dists[:k]]
    candidates = sorted(set(chosen))
    return max(candidates, key=lambda c: (chosen.count(c), -c))


def brute_force_votes(model, queries):
    """Reference: the whole (m, n, d) distance table, stable-sorted per query."""
    if queries.n_cols != model.train.n_cols:
        raise ValidationError(
            f"query has {queries.n_cols} columns, training data has {model.train.n_cols}"
        )
    T = model.train.values
    classes = model.classes
    positions = np.searchsorted(classes, model.train.labels)

    votes = np.zeros((queries.n_rows, len(classes)), dtype=np.int64)
    block = max(1, knn_module._BLOCK_PAIRS // max(1, len(T)))
    for lo in range(0, queries.n_rows, block):
        Q = queries.values[lo : lo + block]
        d2 = ((Q[:, None, :] - T[None, :, :]) ** 2).sum(axis=-1)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        rows = np.arange(lo, lo + len(Q))[:, None]
        np.add.at(votes, (rows, positions[nearest]), 1)
    return votes


def test_two_separated_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 2)) + [10, 10]
    b = rng.normal(size=(30, 2)) - [10, 10]
    model = KnnModel(
        train=_matrix(np.vstack([a, b]), [0] * 30 + [1] * 30), k=1
    )
    pred = knn_predict_labels(model, _matrix([[10, 10], [-10, -10]]))
    assert pred.tolist() == [0, 1]


def test_query_equal_to_training_row():
    model = KnnModel(train=_matrix([[0, 0], [5, 5], [9, 9]], [3, 7, 2]), k=1)
    assert knn_predict_labels(model, _matrix([[5, 5]])).tolist() == [7]


def test_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    train_x = rng.uniform(size=(200, 6))
    train_y = rng.integers(0, 4, size=200)
    queries = rng.uniform(size=(40, 6))
    model = KnnModel(train=_matrix(train_x, train_y), k=10)
    got = knn_predict_labels(model, _matrix(queries))
    for q, predicted in zip(queries, got):
        assert predicted == full_sort_oracle(train_x, train_y, q, 10)


def test_distance_tie_broken_by_lower_index():
    # Two training rows equidistant from the query with different labels.
    model = KnnModel(train=_matrix([[1, 0], [-1, 0]], [9, 4]), k=1)
    assert knn_predict_labels(model, _matrix([[0, 0]])).tolist() == [9]


def test_vote_tie_broken_by_smaller_class():
    model = KnnModel(
        train=_matrix([[0, 1], [0, -1], [0, 2], [0, -2]], [7, 3, 7, 3]), k=4
    )
    assert knn_predict_labels(model, _matrix([[0, 0]])).tolist() == [3]


def test_k1_training_accuracy_on_distinct_points():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(50, 4))
    y = rng.integers(0, 5, size=50)
    model = KnnModel(train=_matrix(X, y), k=1)
    np.testing.assert_array_equal(knn_predict_labels(model, _matrix(X)), y)


def test_training_permutation_invariance_without_ties():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(100, 5))
    y = rng.integers(0, 3, size=100)
    queries = _matrix(rng.uniform(size=(20, 5)))
    perm = rng.permutation(100)
    a = knn_predict_labels(KnnModel(_matrix(X, y), k=7), queries)
    b = knn_predict_labels(KnnModel(_matrix(X[perm], y[perm]), k=7), queries)
    np.testing.assert_array_equal(a, b)


def test_vote_matrix_counts_neighbors_per_class():
    model = KnnModel(train=_matrix([[0, 0], [1, 1], [2, 2]], [5, 5, 9]), k=3)
    votes = _vote_matrix(model, _matrix([[0, 0], [2, 2]]))
    assert model.classes.tolist() == [5, 9]
    assert votes.tolist() == [[2, 1], [2, 1]]
    assert knn_predict_labels(model, _matrix([[0, 0]])).tolist() == [5]


@pytest.mark.parametrize("blocks", ["one block", "many blocks"])
@pytest.mark.parametrize("k", [1, 4, 10, 25])
def test_duplicate_grid_matches_full_sort_oracle(monkeypatch, blocks, k):
    # 400 training rows on 27 grid points: every query has many rows at
    # exactly the same distance, so the k-th neighbor is almost always a
    # distance tie that only the lower-row rule decides.
    rng = np.random.default_rng(6)
    train_x = rng.integers(0, 3, size=(400, 3)).astype(float)
    train_y = rng.integers(0, 4, size=400)
    queries = rng.integers(0, 3, size=(120, 3)).astype(float)
    if blocks == "many blocks":
        # At most 2,800 candidate pairs per step: several steps per
        # width (seven queries per direct block), with a short last one.
        monkeypatch.setattr(knn_module, "_BLOCK_PAIRS", 7 * 400)
    model = KnnModel(train=_matrix(train_x, train_y), k=k)
    expected = [full_sort_oracle(train_x, train_y, q, k) for q in queries]
    for path in both_paths():
        got = knn_predict_labels(model, _matrix(queries))
        assert got.tolist() == expected, path


@st.composite
def grid_cases(draw):
    """Training rows and queries on a small integer grid, so that most
    distances tie; some queries are copies of training rows."""
    d = draw(st.sampled_from([2, 3, 10]))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    side = draw(st.integers(2, 4))
    grid_row = st.lists(st.integers(0, side - 1), min_size=d, max_size=d)
    train = np.array(draw(st.lists(grid_row, min_size=1, max_size=60)), dtype=float)
    queries = np.array(draw(st.lists(grid_row, min_size=1, max_size=30)), dtype=float)
    n, m = len(train), len(queries)
    copied = draw(st.lists(st.integers(0, n - 1), max_size=m))
    queries[: len(copied)] = train[copied]
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    per_block = draw(st.none() | st.integers(1, m))
    return train * scale, np.array(labels), queries * scale, k, per_block


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_vote_matrix_equals_brute_force_on_tie_grids(case):
    train_x, train_y, queries, k, per_block = case
    model = KnnModel(train=_matrix(train_x, train_y), k=k)
    with pytest.MonkeyPatch.context() as patch:
        if per_block is not None:
            patch.setattr(knn_module, "_BLOCK_PAIRS", per_block * len(train_x))
        expected = brute_force_votes(model, _matrix(queries))
        for path in both_paths():
            got = _vote_matrix(model, _matrix(queries))
            np.testing.assert_array_equal(got, expected, err_msg=path)
    assert (expected.sum(axis=1) == k).all()


@st.composite
def near_tie_cases(draw):
    """Rows of 1-12 columns on a small integer grid, offset far from
    zero, scaled to magnitudes from 1e-300 to 1e150 (at 1e-161 the
    products are subnormal), and each value moved a few ulps: many
    distances tie or differ only in the last bits of the product's
    rounding."""
    d = draw(st.integers(1, 12))
    side = draw(st.integers(2, 4))
    grid_row = st.lists(st.integers(0, side - 1), min_size=d, max_size=d)
    train = np.array(draw(st.lists(grid_row, min_size=1, max_size=40)), dtype=float)
    queries = np.array(draw(st.lists(grid_row, min_size=1, max_size=12)), dtype=float)
    copied = draw(st.lists(st.integers(0, len(train) - 1), max_size=len(queries)))
    queries[: len(copied)] = train[copied]
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e8, 1e15]))
    scale = draw(st.sampled_from([1e-300, 1e-161, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def perturbed(values):
        values = (values + offset) * scale
        for _ in range(2):
            step = rng.integers(-1, 2, size=values.shape)
            moved = np.nextafter(values, np.where(step < 0, -np.inf, np.inf))
            values = np.where(step == 0, values, moved)
        return values

    k = draw(st.integers(1, len(train)))
    per_block = draw(st.none() | st.integers(1, len(queries)))
    labels = rng.integers(0, 3, size=len(train))
    return perturbed(train), labels, perturbed(queries), k, per_block


@settings(max_examples=300, deadline=None)
@given(near_tie_cases())
def test_direct_candidates_hold_every_row_up_to_the_kth_distance(case):
    train_x, train_y, queries, k, per_block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(knn_module, "_DIRECT_ROWS", 10**9)
        if per_block is not None:
            patch.setattr(knn_module, "_BLOCK_PAIRS", per_block * len(train_x))
        centers = knn_module._span_centers(train_x, queries)
        steps = list(knn_module._direct_candidates(train_x - centers, queries - centers, k))
        model = KnnModel(train=_matrix(train_x, train_y), k=k)
        expected = brute_force_votes(model, _matrix(queries))
        got = _vote_matrix(model, _matrix(queries))
    row, idx = (np.concatenate(arrays) for arrays in zip(*steps))
    kept = set(zip(row.tolist(), idx.tolist()))
    for i, q in enumerate(queries):
        # The distances the votes are decided on, recomputed as they are
        # for the candidates.
        d2 = ((q - train_x) ** 2).sum(axis=-1)
        kth = np.partition(d2, k - 1)[k - 1]
        needed = {(i, j) for j in np.nonzero(d2 <= kth)[0].tolist()}
        assert needed <= kept, (i, sorted(needed - kept))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("block_pairs", [None, 5 * 114])
def test_more_tied_rows_than_one_query_asks_for(monkeypatch, block_pairs):
    # 64 copies of one row tie at the k-th distance, so a k + 1 = 4 row
    # query is incomplete; the list doubles through 8, 16, 32 and 64
    # rows, all still inside the radius, and then takes all 114.
    rng = np.random.default_rng(10)
    train_x = np.vstack([np.zeros((64, 2)), rng.uniform(5, 9, size=(50, 2))])
    train_y = rng.integers(0, 3, size=114)
    queries = np.vstack([np.zeros((3, 2)), [[0.1, 0.0]], rng.uniform(0, 9, size=(6, 2))])
    if block_pairs is not None:
        monkeypatch.setattr(knn_module, "_BLOCK_PAIRS", block_pairs)
    model = KnnModel(train=_matrix(train_x, train_y), k=3)
    expected = brute_force_votes(model, _matrix(queries))
    for path in both_paths():
        np.testing.assert_array_equal(_vote_matrix(model, _matrix(queries)), expected, path)
    from scipy.spatial import cKDTree

    steps = list(knn_module._candidates(cKDTree(train_x), queries[:4], 3))
    row, idx = (np.concatenate(arrays) for arrays in zip(*steps))
    assert np.bincount(row).tolist() == [64] * 4
    assert set(idx.tolist()) == set(range(64))


def _huge_grid(scale):
    rng = np.random.default_rng(8)
    train_x = rng.integers(-2, 3, size=(80, 3)) * scale
    queries = np.vstack([train_x[:10], rng.integers(-2, 3, size=(20, 3)) * scale])
    return train_x, rng.integers(0, 3, size=80), queries


def test_large_finite_distances_equal_brute_force():
    # Squared spans sum to 3 * (4e153)^2, about 5e307: still finite.
    train_x, train_y, queries = _huge_grid(1e153)
    model = KnnModel(train=_matrix(train_x, train_y), k=5)
    expected = brute_force_votes(model, _matrix(queries))
    for path in both_paths():
        np.testing.assert_array_equal(_vote_matrix(model, _matrix(queries)), expected, path)


def test_overflowing_distances_rejected():
    train_x, train_y, queries = _huge_grid(1e160)
    for _ in both_paths():
        model = KnnModel(train=_matrix(train_x, train_y), k=5)
        with pytest.raises(ValidationError, match="overflow"):
            knn_predict_labels(model, _matrix(queries))
        # The queries alone can push the spans past the largest float.
        model = KnnModel(train=_matrix(train_x / 1e10, train_y), k=5)
        with pytest.raises(ValidationError, match="overflow"):
            knn_predict_labels(model, _matrix(queries))


def _traced_vote_peak(train_values, rng):
    """Peak traced allocation of _vote_matrix over 1,500 ten-column
    queries, k = 10, after checking that every query got k votes; the
    larger of the two candidate sources' peaks."""
    model = KnnModel(
        train=_matrix(train_values, rng.integers(0, 4, size=len(train_values))), k=10
    )
    queries = _matrix(rng.uniform(size=(1500, 10)))
    # Loading scipy.spatial allocates more than the call itself: load it
    # before tracing so that the bound measures only the call.
    import scipy.spatial  # noqa: F401

    peaks = []
    for _ in both_paths():
        tracemalloc.start()
        try:
            votes = _vote_matrix(model, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (votes.sum(axis=1) == 10).all()
        peaks.append(peak)
    return max(peaks)


def test_vote_matrix_memory_stays_near_candidates():
    # A (1500, 1500, 10) float64 distance table alone is 180 MB. The
    # candidates are about k = 10 rows per query: some 15,000 pairs of
    # ten columns, a few MB with their temporaries.
    rng = np.random.default_rng(9)
    peak = _traced_vote_peak(rng.uniform(size=(1500, 10)), rng)
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


def test_vote_matrix_memory_bounded_when_all_training_rows_tie():
    # Every training row is the same point, so every query doubles its
    # width up to all 1,500 rows, and every row ties at each query's
    # k-th direct distance: 2.25M candidate pairs in all. Steps of at
    # most _BLOCK_PAIRS pairs keep the peak as low as above.
    peak = _traced_vote_peak(np.full((1500, 10), 0.25), np.random.default_rng(9))
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


def test_k_larger_than_training_rejected():
    with pytest.raises(ValidationError):
        KnnModel(train=_matrix([[0, 0]], [1]), k=2)


def test_missing_labels_rejected():
    with pytest.raises(ValidationError):
        KnnModel(train=_matrix([[0, 0]]), k=1)


def test_zero_column_training_rejected():
    train = FeatureMatrix(np.empty((3, 0)), (), np.array([0, 1, 1]))
    with pytest.raises(ValidationError, match="no feature columns"):
        KnnModel(train=train, k=1)


def test_column_mismatch_rejected():
    model = KnnModel(train=_matrix([[0, 0], [1, 1]], [0, 1]), k=1)
    with pytest.raises(ValidationError):
        knn_predict_labels(model, _matrix([[0, 0, 0]]))
