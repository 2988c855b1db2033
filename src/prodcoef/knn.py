"""K-nearest-neighbors classification, Euclidean, uniform votes.

Exact KNN from one of two candidate sources, chosen by the number of
training rows. Each gives, for every query, a list of training rows
that holds every row that can be among its k nearest. The squared
distance of each candidate pair is then recomputed directly as
sum((q - t)^2) over the columns, the same expression, rounding and
summation order as a brute-force distance table, and the candidates
are ordered by (squared distance, training row). So distance ties
resolve to the lower training-row index exactly as a stable sort of all
distances would, and vote ties to the smallest class code.

A fit with at most _DIRECT_ROWS training rows takes its candidates from
a direct distance table: each block of at most _BLOCK_PAIRS // n_train
queries gets its squared distance to every training row, summed column
by column in numpy's order for that expression (prodcoef.summation), so
the table holds the recomputed values bit for bit. A query's
candidates are the rows whose value is at most its k-th smallest, all
ties at that distance included.

Larger fits use a kd-tree (Friedman, Bentley & Finkel, ACM TOMS 1977).
One cKDTree is built over the training rows per call. For each query
the tree returns its k + 1 nearest rows; with r_k the distance of the
k-th, the candidates are the returned rows within
r_k * (1 + _RADIUS_SLACK). When the (k+1)-th row is still within that
radius, rows beyond it may be too, so the query asks again for twice as
many rows, up to all n_train, until its last row lies outside. Queries
run in steps at one width each, k + 1 first and then doubled: a step
asks _BLOCK_PAIRS // width rows for their width nearest rows, so it
holds at most _BLOCK_PAIRS candidate pairs (or one query's width, when
that alone is more). Only the few queries with distance ties at the
k-th row reach the wider steps.

The table costs n_train distances per query, the tree about
log(n_train) plus the import of scipy.spatial, some 0.4 s per process.
_DIRECT_ROWS is where a 40-fit `evaluate --table 2 --components 3..10
--trees 1 --threads 1` job stopped being faster on the table than on the
tree with its import: at 1,408 training rows it ran 47 ms faster, at
1,536 138 ms slower (medians of 15 alternated pairs, 2-vCPU machine).
The tree path imports scipy.spatial when it runs, so a process whose
fits all stay at or below the limit never loads it. A north-star fold,
about 55,500 queries against 222,000 training rows, takes the tree: its
table would hold some 12 billion distances.

Squared distances must stay finite: when the squared column spans over
training and query rows sum to more than the largest float, the
distances would overflow, and _vote_matrix raises ValidationError
before computing any.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix
from .summation import numpy_sum

# Fits with at most this many training rows take their candidates from a
# direct distance table, larger ones from a kd-tree (the module docstring
# says how it was measured).
_DIRECT_ROWS = 1408

# Candidate pairs per kd step, and distance pairs per direct block. A kd
# pair's temporaries take about 220 bytes at ten columns, so a full step
# stays near 7 MB; on a 222,056-row ten-column fold, steps of 2**15 to
# 2**17 pairs predicted equally fast. A direct block's squares take 8
# bytes per pair and column, 2.6 MB at ten columns.
_BLOCK_PAIRS = 1 << 15

# cKDTree sums the squared differences in its own order, so its
# distances can differ from the direct formula's in the last bits. The
# relative slack on the candidate radius keeps every row whose direct
# distance ties or beats the k-th one among the candidates; rows it
# adds beyond those are sorted out by the recomputed distances.
_RADIUS_SLACK = 1e-9


@dataclass(frozen=True)
class KnnModel:
    train: FeatureMatrix
    k: int = 10

    def __post_init__(self):
        if self.train.labels is None:
            raise ValidationError("KNN training matrix must carry labels")
        if not 1 <= self.k <= self.train.n_rows:
            raise ValidationError(
                f"k={self.k} outside 1..{self.train.n_rows} training rows"
            )

    @property
    def classes(self) -> np.ndarray:
        """Sorted class codes; the column order of the vote matrix."""
        return np.unique(self.train.labels)


def _check_distances_finite(T: np.ndarray, Q: np.ndarray) -> None:
    """Raise unless the squared column spans of T and Q sum to a finite
    float; that sum bounds every squared distance between their rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.maximum(T.max(axis=0), Q.max(axis=0, initial=-np.inf))
        lo = np.minimum(T.min(axis=0), Q.min(axis=0, initial=np.inf))
        bound = float(((hi - lo) ** 2).sum())
    if not np.isfinite(bound):
        raise ValidationError(
            "KNN squared distances overflow: the squared column spans of the "
            f"training and query rows sum to {bound}; rescale the features"
        )


def uses_kdtree(n_train: int) -> bool:
    """Whether a fit on n_train training rows takes its candidates from
    a kd-tree, and so imports scipy.spatial, instead of a direct table."""
    return n_train > _DIRECT_ROWS


def _vote_matrix(model: KnnModel, queries: FeatureMatrix) -> np.ndarray:
    """(queries, classes) count of each class among the k nearest rows."""
    if queries.n_cols != model.train.n_cols:
        raise ValidationError(
            f"query has {queries.n_cols} columns, training data has {model.train.n_cols}"
        )
    T = model.train.values
    Q = queries.values
    k = model.k
    classes = model.classes
    positions = np.searchsorted(classes, model.train.labels)
    _check_distances_finite(T, Q)
    if uses_kdtree(len(T)):
        # Imported here so that only fits above the limit load scipy.spatial.
        from scipy.spatial import cKDTree

        steps = _candidates(cKDTree(T), Q, k)
    else:
        steps = _direct_candidates(T, Q, k)
    votes = np.zeros((queries.n_rows, len(classes)), dtype=np.int64)
    for row, idx in steps:
        d2 = ((Q[row] - T[idx]) ** 2).sum(axis=-1)
        order = np.lexsort((idx, d2, row))
        # row is sorted, and sorting by row first keeps each query's
        # candidates in the same run; a candidate's rank is its place in it.
        rank = np.arange(len(order)) - np.searchsorted(row, row)
        nearest = order[rank < k]
        np.add.at(votes, (row[nearest], positions[idx[nearest]]), 1)
    return votes


def _squared_distances(Q: np.ndarray, columns: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """(len(Q), n_train) table of sum((q - t)^2) over the columns, with
    `columns` the training matrix transposed: bit for bit
    ((Q[:, None, :] - T[None, :, :]) ** 2).sum(axis=-1), without its
    (len(Q), n_train, d) temporary. `squares` is (d, len(Q), n_train)
    scratch space, and the table is a view of it."""
    np.subtract(Q.T[:, :, None], columns[:, None, :], out=squares)
    squares *= squares
    return numpy_sum(list(squares))


def _direct_candidates(T: np.ndarray, Q: np.ndarray, k: int):
    """Yield (query row, training row) pairs, one block of at most
    _BLOCK_PAIRS // n_train queries at a time: for each query, every
    training row whose squared distance is at most its k-th smallest,
    sorted by query row."""
    columns = np.ascontiguousarray(T.T)
    block = max(1, _BLOCK_PAIRS // len(T))
    # One scratch buffer for every block: fresh arrays of this size
    # would cost page faults on each block.
    squares = np.empty((T.shape[1], min(block, len(Q)), len(T)))
    for lo in range(0, len(Q), block):
        rows = Q[lo : lo + block]
        d2 = _squared_distances(rows, columns, squares[:, : len(rows)])
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        row, idx = np.nonzero(d2 <= kth)
        yield row + lo, idx


def _candidates(tree, Q: np.ndarray, k: int):
    """Yield (query row, training row) pairs, one step at a time: for
    each query, every training row whose kd distance is at most
    r_k * (1 + _RADIUS_SLACK), all in one step, sorted by query row.

    The k + 1 nearest rows hold that list when the last of them lies
    outside the radius. A query whose last row is still inside asks
    again with twice as many rows, up to all of them. Each step queries
    _BLOCK_PAIRS // width rows at one width, so it holds at most
    _BLOCK_PAIRS pairs unless one query's width alone exceeds that."""
    n_train = tree.n
    pending = np.arange(len(Q))
    width = min(k + 1, n_train)
    while len(pending):
        block = max(1, _BLOCK_PAIRS // width)
        unfinished = []
        for lo in range(0, len(pending), block):
            rows = pending[lo : lo + block]
            dist, nbr = tree.query(Q[rows], k=width)
            dist, nbr = dist.reshape(len(rows), width), nbr.reshape(len(rows), width)
            inside = dist <= dist[:, k - 1 : k] * (1 + _RADIUS_SLACK)
            done = ~inside[:, -1] | (width == n_train)
            at, col = np.nonzero(inside[done])
            unfinished.append(rows[~done])
            yield rows[done][at], nbr[done][at, col]
        pending = np.concatenate(unfinished)
        width = min(2 * width, n_train)


def knn_predict_labels(model: KnnModel, queries: FeatureMatrix) -> np.ndarray:
    """Predicted label per query row, as an array."""
    # argmax picks the first maximum; classes are sorted ascending, so
    # vote ties fall to the smallest class code.
    return model.classes[np.argmax(_vote_matrix(model, queries), axis=1)]
