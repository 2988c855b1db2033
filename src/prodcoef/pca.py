"""Covariance principal component analysis with a fixed sign convention.

The projection is Z = (X - mean) M where M holds the top eigenvectors
of the unbiased sample covariance. Labels are never consulted. The
eigenvector sign ambiguity is removed deterministically: in each
component the entry of largest magnitude is made positive (first such
entry on ties), so identical input bytes give identical model bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (cols, n); columns are unit principal directions
    eigenvalues: np.ndarray  # (n,), non-increasing
    n: int

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        comps = np.array(self.components, dtype=np.float64, copy=True)
        eig = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        if comps.ndim != 2 or comps.shape != (len(mean), self.n):
            raise ValidationError(
                f"components must be ({len(mean)}, {self.n}), got {comps.shape}"
            )
        if eig.shape != (self.n,):
            raise ValidationError(f"expected {self.n} eigenvalues, got {eig.shape}")
        norms = np.linalg.norm(comps, axis=0)
        if np.abs(norms - 1.0).max() > _ORTHO_TOL:
            raise ValidationError("component columns must be unit norm")
        gram = comps.T @ comps
        if np.abs(gram - np.eye(self.n)).max() > _ORTHO_TOL:
            raise ValidationError("component columns must be pairwise orthogonal")
        if (np.diff(eig) > 0).any() or (eig < -_ORTHO_TOL).any():
            raise ValidationError("eigenvalues must be non-increasing and >= 0")
        for arr in (mean, comps, eig):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "eigenvalues", eig)


def fit_pca(X: FeatureMatrix, n: int) -> PcaModel:
    """Fit on the rows of X, keeping the top-n principal directions."""
    if not 1 <= n <= X.n_cols:
        raise ValidationError(
            f"component count {n} outside 1..{X.n_cols} (feature count)"
        )
    if X.n_rows < 2:
        raise ValidationError(f"need at least 2 rows to fit PCA, got {X.n_rows}")

    mean = X.values.mean(axis=0)
    centered = X.values - mean
    cov = centered.T @ centered / (X.n_rows - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")[:n]
    comps = eigenvectors[:, order].copy()
    for col in range(comps.shape[1]):
        pivot = np.argmax(np.abs(comps[:, col]))
        if comps[pivot, col] < 0:
            comps[:, col] = -comps[:, col]
    return PcaModel(
        mean=mean, components=comps, eigenvalues=eigenvalues[order], n=n
    )


def transform(model: PcaModel, X: FeatureMatrix) -> FeatureMatrix:
    """Project rows onto the model's components; labels ride along."""
    if X.n_cols != len(model.mean):
        raise ValidationError(
            f"matrix has {X.n_cols} columns, model expects {len(model.mean)}"
        )
    projected = (X.values - model.mean) @ model.components
    names = tuple(f"pc{i + 1}" for i in range(model.n))
    return FeatureMatrix(values=projected, column_names=names, labels=X.labels)


def pca_to_json(model: PcaModel) -> str:
    """Serialize as {"mean", "components" (column-major), "eigenvalues", "n"}."""
    payload = {
        "mean": model.mean.tolist(),
        "components": [model.components[:, j].tolist() for j in range(model.n)],
        "eigenvalues": model.eigenvalues.tolist(),
        "n": model.n,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
