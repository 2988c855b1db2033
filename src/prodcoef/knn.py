"""K-nearest-neighbors classification, Euclidean, uniform votes.

Squared distances are computed directly as sum((q - t)^2) over the
columns, for every query and training row and at every size. Queries
run in blocks of at most _BLOCK_PAIRS query x train pairs, which bounds
the memory of one block's distance table. Distance ties resolve to the
lower training-row index (stable sort), vote ties to the smallest class
code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix

_BLOCK_PAIRS = 4_000_000


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


def _vote_matrix(model: KnnModel, queries: FeatureMatrix) -> np.ndarray:
    """(queries, classes) count of each class among the k nearest rows."""
    if queries.n_cols != model.train.n_cols:
        raise ValidationError(
            f"query has {queries.n_cols} columns, training data has {model.train.n_cols}"
        )
    T = model.train.values
    classes = model.classes
    positions = np.searchsorted(classes, model.train.labels)

    votes = np.zeros((queries.n_rows, len(classes)), dtype=np.int64)
    block = max(1, _BLOCK_PAIRS // max(1, len(T)))
    for lo in range(0, queries.n_rows, block):
        Q = queries.values[lo : lo + block]
        d2 = ((Q[:, None, :] - T[None, :, :]) ** 2).sum(axis=-1)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        rows = np.arange(lo, lo + len(Q))[:, None]
        np.add.at(votes, (rows, positions[nearest]), 1)
    return votes


def knn_predict_labels(model: KnnModel, queries: FeatureMatrix) -> np.ndarray:
    """Predicted label per query row, as an array."""
    # argmax picks the first maximum; classes are sorted ascending, so
    # vote ties fall to the smallest class code.
    return model.classes[np.argmax(_vote_matrix(model, queries), axis=1)]
