"""K-nearest-neighbors classification, Euclidean, uniform votes.

Exact KNN on a kd-tree (Friedman, Bentley & Finkel, ACM TOMS 1977). One
cKDTree is built over the training rows per call. For each query the
tree returns its k + 1 nearest rows; with r_k the distance of the k-th,
the candidates are the returned rows within r_k * (1 + _RADIUS_SLACK),
every row that can be among the k nearest. When the (k+1)-th row is
still within that radius, rows beyond it may be too, so the query asks
again for twice as many rows, up to all n_train, until its last row
lies outside. The squared distance of each candidate pair is then
recomputed directly as sum((q - t)^2) over the columns, the same
expression, rounding and summation order as a brute-force distance
table, and the candidates are ordered by (squared distance, training
row). So distance ties resolve to the lower training-row index exactly
as a stable sort of all distances would, and vote ties to the smallest
class code.

Queries run in steps at one width each, k + 1 first and then doubled:
a step asks _BLOCK_PAIRS // width rows for their width nearest rows,
so it holds at most _BLOCK_PAIRS candidate pairs (or one query's
width, when that alone is more). Only the few queries with distance
ties at the k-th row reach the wider steps.

Squared distances must stay finite: when the squared column spans over
training and query rows sum to more than the largest float, the
distances would overflow, and _vote_matrix raises ValidationError
before building the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix

# Candidate pairs per step. A pair's temporaries take about 220 bytes at
# ten columns, so a full step stays near 7 MB; on a 222,056-row
# ten-column fold, steps of 2**15 to 2**17 pairs predicted equally fast.
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


def _vote_matrix(model: KnnModel, queries: FeatureMatrix) -> np.ndarray:
    """(queries, classes) count of each class among the k nearest rows."""
    if queries.n_cols != model.train.n_cols:
        raise ValidationError(
            f"query has {queries.n_cols} columns, training data has {model.train.n_cols}"
        )
    T = model.train.values
    k = model.k
    classes = model.classes
    positions = np.searchsorted(classes, model.train.labels)
    _check_distances_finite(T, queries.values)
    # Imported here so that importing the package does not load scipy.spatial.
    from scipy.spatial import cKDTree

    tree = cKDTree(T)
    votes = np.zeros((queries.n_rows, len(classes)), dtype=np.int64)
    for row, idx in _candidates(tree, queries.values, k):
        d2 = ((queries.values[row] - T[idx]) ** 2).sum(axis=-1)
        order = np.lexsort((idx, d2, row))
        # row is sorted, and sorting by row first keeps each query's
        # candidates in the same run; a candidate's rank is its place in it.
        rank = np.arange(len(order)) - np.searchsorted(row, row)
        nearest = order[rank < k]
        np.add.at(votes, (row[nearest], positions[idx[nearest]]), 1)
    return votes


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
