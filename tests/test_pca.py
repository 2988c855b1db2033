import json
import warnings

import numpy as np
import pytest

from prodcoef.errors import ValidationError
from prodcoef.matrix import FeatureMatrix
from prodcoef.pca import PcaModel, fit_pca, pca_to_json, transform


def power_iteration_eigenpairs(cov, n, iters=20000, tol=1e-14):
    """Oracle: dominant eigenpair by power iteration, then deflation."""
    cov = cov.copy()
    dim = cov.shape[0]
    rng = np.random.default_rng(12345)
    values = []
    vectors = []
    for _ in range(n):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                lam = 0.0
                break
            w /= norm
            if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
                v = w
                lam = float(v @ cov @ v)
                break
            v = w
        else:
            lam = float(v @ cov @ v)
        values.append(lam)
        vectors.append(v.copy())
        cov -= lam * np.outer(v, v)
    return np.array(values), np.array(vectors).T


def random_matrix(seed, rows=60, cols=10):
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.1, 3.0, size=cols)
    return FeatureMatrix(
        rng.normal(size=(rows, cols)) * scales,
        tuple(f"c{i}" for i in range(cols)),
    )


def test_axis_aligned_degenerate_data():
    X = FeatureMatrix([[t, 0.0, 0.0] for t in (0, 1, 2, 3)], ("a", "b", "c"))
    model = fit_pca(X, 3)
    np.testing.assert_allclose(model.components[:, 0], [1, 0, 0], atol=1e-12)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    assert model.eigenvalues[2] == pytest.approx(0.0, abs=1e-12)


def test_isotropic_cube_corners():
    corners = [
        [x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ]
    X = FeatureMatrix(corners, ("x", "y", "z"))
    model = fit_pca(X, 3)
    assert np.ptp(model.eigenvalues) <= 1e-10
    Z = transform(model, X).values
    orig = np.asarray(corners, dtype=float)
    for i in range(8):
        for j in range(8):
            d_orig = np.linalg.norm(orig[i] - orig[j])
            d_proj = np.linalg.norm(Z[i] - Z[j])
            assert d_proj == pytest.approx(d_orig, abs=1e-10)


def test_eigenvalues_match_power_iteration_oracle():
    for seed in range(50):
        X = random_matrix(seed)
        model = fit_pca(X, 10)
        centered = X.values - X.values.mean(axis=0)
        cov = centered.T @ centered / (X.n_rows - 1)
        oracle_vals, _ = power_iteration_eigenpairs(cov, 10)
        np.testing.assert_allclose(model.eigenvalues, oracle_vals, atol=1e-8)


def test_trace_conservation():
    X = random_matrix(99)
    model = fit_pca(X, 10)
    centered = X.values - X.values.mean(axis=0)
    cov = centered.T @ centered / (X.n_rows - 1)
    assert model.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-8)


def test_mean_rows_transform_to_zero():
    X = random_matrix(5)
    model = fit_pca(X, 4)
    mean_rows = FeatureMatrix(
        np.tile(X.values.mean(axis=0), (3, 1)), X.column_names
    )
    Z = transform(model, mean_rows)
    np.testing.assert_allclose(Z.values, 0.0, atol=1e-12)


def test_full_rank_reconstruction():
    X = random_matrix(6)
    model = fit_pca(X, 10)
    Z = transform(model, X)
    reconstructed = Z.values @ model.components.T + model.mean
    np.testing.assert_allclose(reconstructed, X.values, atol=1e-8)


def test_projection_variances_equal_eigenvalues():
    X = random_matrix(7)
    model = fit_pca(X, 3)
    Z = transform(model, X).values
    variances = Z.var(axis=0, ddof=1)
    np.testing.assert_allclose(variances, model.eigenvalues, atol=1e-8)


def test_reconstruction_error_non_increasing_in_n():
    X = random_matrix(8)
    errors = []
    for n in range(1, 11):
        model = fit_pca(X, n)
        Z = transform(model, X)
        reconstructed = Z.values @ model.components.T + model.mean
        errors.append(((X.values - reconstructed) ** 2).sum())
    assert all(errors[i] >= errors[i + 1] - 1e-10 for i in range(9))


def test_rotation_invariance_up_to_sign():
    X = random_matrix(9, rows=80, cols=6)
    rng = np.random.default_rng(10)
    rotation, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rotated = FeatureMatrix(X.values @ rotation, X.column_names)
    Z1 = transform(fit_pca(X, 4), X).values
    Z2 = transform(fit_pca(rotated, 4), rotated).values
    for j in range(4):
        same = np.abs(Z1[:, j] - Z2[:, j]).max()
        flipped = np.abs(Z1[:, j] + Z2[:, j]).max()
        assert min(same, flipped) <= 1e-8


def test_deterministic_model_bytes():
    X = random_matrix(11)
    assert pca_to_json(fit_pca(X, 5)) == pca_to_json(fit_pca(X, 5))


def test_sign_convention_largest_entry_positive():
    for seed in range(10):
        model = fit_pca(random_matrix(seed), 10)
        for j in range(model.n):
            col = model.components[:, j]
            assert col[np.argmax(np.abs(col))] > 0


def test_labels_never_consulted():
    X = random_matrix(12)
    a = FeatureMatrix(X.values, X.column_names, np.zeros(X.n_rows, dtype=int))
    b = FeatureMatrix(X.values, X.column_names, np.arange(X.n_rows))
    assert pca_to_json(fit_pca(a, 4)) == pca_to_json(fit_pca(b, 4))


def test_labels_carried_through_transform():
    X = random_matrix(13)
    X = FeatureMatrix(X.values, X.column_names, np.arange(60))
    Z = transform(fit_pca(X, 2), X)
    assert Z.column_names == ("pc1", "pc2")
    np.testing.assert_array_equal(Z.labels, np.arange(60))


def test_dimension_errors():
    X = random_matrix(14)
    with pytest.raises(ValidationError):
        fit_pca(X, 11)
    with pytest.raises(ValidationError):
        fit_pca(X, 0)
    model = fit_pca(X, 3)
    with pytest.raises(ValidationError):
        transform(model, FeatureMatrix(np.zeros((2, 4)), ("a", "b", "c", "d")))


def test_insufficient_rows():
    with pytest.raises(ValidationError):
        fit_pca(FeatureMatrix([[1.0, 2.0]], ("a", "b")), 1)


def test_json_payload_equals_model():
    model = fit_pca(random_matrix(15), 6)
    payload = json.loads(pca_to_json(model))
    assert set(payload) == {"mean", "components", "eigenvalues", "n"}
    assert payload["n"] == 6

    def same(listed, array):
        got = np.array(listed, dtype=np.float64)
        assert (got.shape, got.tobytes()) == (array.shape, array.tobytes())

    same(payload["mean"], model.mean)
    same(payload["components"], model.components.T)  # one list per component
    same(payload["eigenvalues"], model.eigenvalues)


def test_model_validation_rejects_bad_components():
    with pytest.raises(ValidationError):
        PcaModel(
            mean=np.zeros(2),
            components=np.array([[1.0, 1.0], [0.0, 0.0]]),  # second not unit
            eigenvalues=np.array([1.0, 0.5]),
            n=2,
        )


def test_overflowing_covariance_raises_without_warning():
    # Every value is finite, but a column scaled by 1e200 has a variance
    # past float64's range.
    X = random_matrix(16)
    values = X.values.copy()
    values[:, 3] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="rescale the features"):
            fit_pca(FeatureMatrix(values, X.column_names), 3)


@pytest.mark.parametrize("eigenvalues", [[np.nan, np.nan], [np.inf, 0.5], [1.0, np.nan]])
def test_model_validation_rejects_non_finite_eigenvalues(eigenvalues):
    with pytest.raises(ValidationError, match="finite"):
        PcaModel(mean=np.zeros(2), components=np.eye(2),
                 eigenvalues=np.array(eigenvalues), n=2)
