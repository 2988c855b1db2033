"""K-nearest-neighbors classification, Euclidean, uniform votes.

Exact KNN from one of two candidate sources, chosen by the number of
training rows. Each gives, for every query, a list of training rows
that holds every row that can be among its k nearest. The squared
distance of each candidate pair is then recomputed directly as
sum((q - t)^2) over the columns, the same expression, rounding and
summation order as a brute-force distance table, and the candidates
are ordered by (squared distance, training row). So distance ties
resolve to the lower training-row index exactly as a stable sort of all
distances would, and vote ties to the smallest class code. Neither
source decides a result, so the votes do not depend on which one ran,
nor on the BLAS kernel that the direct source calls.

A fit with at most _DIRECT_ROWS training rows takes its candidates from
a matrix product. Every column is centered at the midpoint of its span
over the training and query rows; each block of at most
_BLOCK_PAIRS // n_train queries then gets the filter value
F = |t|^2 - 2 q.t of every training row from one BLAS product of the
centered rows. That is the squared distance less |q|^2, the same for
every row of a query, so it ranks the rows as the distances do, up to
rounding. A query's candidates are the rows whose F is at most its k-th
smallest F plus a proven bound on that rounding (_direct_candidates
derives it), so they hold every row whose recomputed distance is at
most the k-th recomputed distance, ties included. The same expansion
drives GEMM-based exact k-NN search (Johnson, Douze & Jegou,
"Billion-scale similarity search with GPUs", IEEE TBD 2019).

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

The product costs n_train multiply-adds per query and column, the tree
about log(n_train) distances plus the import of scipy.spatial, some
0.4 s per process. _DIRECT_ROWS is where a 40-fit `evaluate --table 2
--components 3..10 --trees 1 --threads 1` job stopped being faster on
the product than on the tree with its import: at 3,584 training rows it
ran 137 ms faster, at 3,840 89 ms slower (medians of 15 alternated
pairs, 2-vCPU machine, OpenBLAS on one thread).
The tree path imports scipy.spatial when it runs, and this is the only
place that loads it: a process whose fits all stay at or below the
limit never loads it, and each forked cross-validation worker imports
it at its own first kd-tree fit. A north-star fold,
about 55,500 queries against 222,000 training rows, takes the tree: its
product would hold some 12 billion values.

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

# Fits with at most this many training rows take their candidates from a
# matrix product, larger ones from a kd-tree (the module docstring says
# how it was measured).
_DIRECT_ROWS = 3584

# Candidate pairs per kd step, and filter values per direct block. A kd
# pair's temporaries take about 220 bytes at ten columns, so a full step
# stays near 7 MB; on a 222,056-row ten-column fold, steps of 2**15 to
# 2**17 pairs predicted equally fast. A direct block's product, its
# partitioned copy and its mask take 17 bytes per pair, about 0.5 MB,
# whatever the column count.
_BLOCK_PAIRS = 1 << 15

# The unit roundoff of float64 and its smallest subnormal, for the
# direct filter's rounding bound.
_UNIT = 2.0**-53
_TINY = 2.0**-1074

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
        if self.train.n_cols == 0:
            raise ValidationError("KNN training matrix has no feature columns")
        if not 1 <= self.k <= self.train.n_rows:
            raise ValidationError(
                f"k={self.k} outside 1..{self.train.n_rows} training rows"
            )

    @property
    def classes(self) -> np.ndarray:
        """Sorted class codes; the column order of the vote matrix."""
        # With an inverse, np.unique does not import numpy.ma (numpy 2.4).
        return np.unique(self.train.labels, return_inverse=True)[0]


def _span_centers(T: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Midpoint of each column's span over the rows of T and Q. Raises
    unless the squared spans sum to a finite float; that sum bounds every
    squared distance between their rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.maximum(T.max(axis=0), Q.max(axis=0, initial=-np.inf))
        lo = np.minimum(T.min(axis=0), Q.min(axis=0, initial=np.inf))
        bound = float(((hi - lo) ** 2).sum())
    if not np.isfinite(bound):
        raise ValidationError(
            "KNN squared distances overflow: the squared column spans of the "
            f"training and query rows sum to {bound}; rescale the features"
        )
    return lo + (hi - lo) * 0.5


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
    centers = _span_centers(T, Q)
    if len(T) > _DIRECT_ROWS:
        # Imported here so that only fits above the limit load scipy.spatial.
        from scipy.spatial import cKDTree

        steps = _candidates(cKDTree(T), Q, k)
    else:
        steps = _direct_candidates(T - centers, Q - centers, k)
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


def _direct_candidates(T: np.ndarray, Q: np.ndarray, k: int):
    """Yield (query row, training row) pairs, one block of at most
    _BLOCK_PAIRS // n_train queries at a time: for each query, every
    training row t whose F = fl(|t|^2 - 2 q.t) is at most F_k + S, with
    F_k the query's k-th smallest F and S the slack below, sorted by
    query row. T and Q are the rows centered at their span midpoints.

    The slack is S = (8d + 24) u (|q|^2 + M) + (8d + 16) eta, with |q|^2
    and M, the largest |t|^2, as computed; u = 2^-53 is the unit
    roundoff, eta = 2^-1075 half the smallest subnormal, and d the column
    count. It keeps every row whose recomputed squared distance r is at
    most the query's k-th smallest r. Rounding is IEEE float64 to nearest
    with gradual underflow: a product or fused multiply-add rounds to
    x(1 + e) + f with |e| <= u and |f| <= eta, a sum to x(1 + e). Below,
    g(n) = nu / (1 - nu), and [.] is a factor 1 + O(du), under 1 + 2^-30
    for fewer than 2^20 columns.

    1. Centering. Let q, t be the input rows, x = q - t, a and b their
       centered values, rounded, and P = |a|^2 + |b|^2. Then
       a - b = x + e with |e| <= g(1)(|a| + |b|), so
       ||a - b|^2 - |x|^2| <= 2|x||e| + |e|^2 <= 4u[.]P, and
       |x|^2 <= 2P[.].
    2. Product. A dot product of d terms, added in any order with or
       without fused multiply-add, as a BLAS kernel may, is off by at
       most g(d) sum|y_l z_l| + d eta[.] (Higham, Accuracy and Stability
       of Numerical Algorithms, ch. 3): each term passes at most d
       roundings, and only the d products can underflow. The factor -2
       is exact, so |t|^2, q.(-2t) and their rounded sum put F within
       g(d + 1)(|b|^2 + 2|a||b|) + 2d eta[.] <= 2(d + 1)u[.]P + 2d eta[.]
       of |a - b|^2 - |a|^2. With step 1 and alpha = |a|^2, F is within
       E = (2d + 6)u[.](alpha + M) + 2d eta[.] of |x|^2 - alpha, for
       every row of the query.
    3. Recompute. r = fl(sum fl(fl(q_l - t_l)^2)) rounds each term at
       most d + 2 times, so |r - |x|^2| <= rho|x|^2 + d eta[.] with
       rho = g(d + 2).
    4. Threshold. The k rows with F <= F_k have |x|^2 <= F_k + E +
       alpha, so the k-th smallest r is at most
       (1 + rho)(F_k + E + alpha) + d eta[.]. A row with r at most that
       has |x|^2 <= (r + d eta[.]) / (1 - rho), so
       F <= F_k + 2E + 2 rho/(1 - rho) (F_k + E + alpha) + 2d eta[.].
       By step 1, F_k + E + alpha <= 2(alpha + M)[.], and rounding
       F_k + S loses at most u 2(alpha + M)[.]. Summed, the row is kept
       when S >= (8d + 22)u[.](alpha + M) + 6d eta[.]. The computed
       |q|^2 and M are within g(d) and d eta of alpha and the true M,
       and computing S rounds it by a relative 3u and one eta, which the
       2u(alpha + M) and (2d + 16) eta to spare cover.

    Nothing overflows: the centered values are at most half their
    column's span, so every |a|^2, |b|^2 and |F| stays below the sum of
    the squared spans that _span_centers checked."""
    d = T.shape[1]
    train_norms = np.einsum("ij,ij->i", T, T)
    slack = ((8 * d + 24) * _UNIT * (np.einsum("ij,ij->i", Q, Q) + train_norms.max())
             + (4 * d + 8) * _TINY)
    # C order: BLAS packs this operand faster than the transposed view.
    columns = np.multiply(T.T, -2.0, order="C")
    block = max(1, _BLOCK_PAIRS // len(T))
    for lo in range(0, len(Q), block):
        F = Q[lo : lo + block] @ columns
        F += train_norms
        bound = np.partition(F, k - 1, axis=1)[:, k - 1] + slack[lo : lo + block]
        # Flat indices come out in row order, and faster than np.nonzero's pairs.
        row, idx = np.divmod(np.flatnonzero(F <= bound[:, None]), len(T))
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
