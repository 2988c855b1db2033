"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines
and the reported scores.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from prodcoef.cli import main
from prodcoef.dyadic import (
    CoefficientTree,
    DyadicTree,
    coefficients_from_measure,
    measure_from_coefficients,
    product_coefficient,
)
from prodcoef.evaluation import (
    ClassifierPipeline,
    CrossValPlan,
    PipelineSpec,
    cross_validate,
    macro_f1,
)
from prodcoef.features import NeighborhoodSpec, SpatialIndex, extract_features
from prodcoef.forest import ForestConfig, forest_to_json, rf_fit, rf_predict_labels
from prodcoef.knn import KnnModel, knn_predict_labels
from prodcoef.las import read_las
from prodcoef.matrix import FeatureMatrix
from prodcoef.pca import fit_pca, transform
from prodcoef.pointcloud import PointCloud, normalize_unit_cube
from prodcoef.synth import SceneSpec, generate_scene

from conftest import dyadic_coefficients

# Frozen desk-scale experiment configuration (criterion 8).
SCENE = SceneSpec(classes=4, points_per_class=500, separation=1.0, seed=11)
SCENE_RADIUS = 0.10

# Reference score for the 277,572-point tutorial dataset at n=10 (KNN),
# from the original experiments; compared informationally only.
REFERENCE_KNN_F1_N10 = 0.85
REFERENCE_KNN_STD_N10 = 0.02
REFERENCE_TOLERANCE_BAND = 0.15


def _tutorial_dataset():
    candidates = [os.environ.get("PRODCOEF_TUTORIAL_LAS")]
    candidates.append(Path(__file__).parent / "data" / "tutorial.las")
    for candidate in candidates:
        if candidate and Path(candidate).exists():
            return Path(candidate)
    return None


def test_criterion_01_scale0_worked_example():
    assert product_coefficient(1.0, 0.25) == -0.5
    print("PASS criterion 1: product_coefficient(1, 1/4) == -0.5 exactly")


def test_criterion_02_product_formula_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        tree = DyadicTree.from_leaf_masses(rng.uniform(0, 7, size=2**depth))
        back = measure_from_coefficients(coefficients_from_measure(tree))
        assert np.abs(back.node_measure - tree.node_measure).max() <= 1e-12
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        coeffs = CoefficientTree.from_level_order(
            rng.uniform(0.1, 5.0), rng.uniform(-0.999, 0.999, size=2**depth - 1)
        )
        back = coefficients_from_measure(measure_from_coefficients(coeffs))
        assert np.abs(back.level_order - coeffs.level_order).max() <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 2: 2x200 round trips within 1e-12 in {elapsed:.2f}s")


def test_criterion_03_coefficient_boundedness():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    parents = rng.uniform(0, 1e9, size=10_000)
    parents[rng.uniform(size=10_000) < 0.05] = 0.0
    fractions = rng.uniform(size=10_000)
    for parent, fraction in zip(parents, fractions):
        a = product_coefficient(parent, parent * fraction)
        assert -1.0 <= a <= 1.0
        if parent == 0.0:
            assert a == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 3: 10,000 coefficients bounded in {elapsed:.2f}s")


def test_criterion_04_neighborhood_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    for cloud_index in range(20):
        n = int(rng.integers(500, 2001))
        radius = float(rng.uniform(0.1, 0.35))
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(-50, 50, size=(n, 3))))
        spec = NeighborhoodSpec(radius=radius)
        fm = extract_features(cloud, spec)

        # Oracle: full O(n^2) distance scan, then the dyadic definition.
        d2 = ((cloud.xyz[:, None, :] - cloud.xyz[None, :, :]) ** 2).sum(axis=2)
        raw = np.empty((n, 10))
        raw[:, :3] = cloud.xyz
        for i in range(n):
            ids = np.nonzero(d2[i] <= radius * radius)[0]
            raw[i, 3:] = dyadic_coefficients(cloud.xyz[ids], cloud.xyz[i])
        mins, maxs = raw.min(axis=0), raw.max(axis=0)
        span = np.where(maxs == mins, 1.0, maxs - mins)
        expected = np.where(maxs == mins, 0.5, (raw - mins) / span)
        np.testing.assert_array_equal(fm.values, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 4: kd-tree == naive scan on 20 clouds in {elapsed:.1f}s")


def _power_iteration_eigenvalues(cov, n, iters=60_000, tol=1e-14):
    cov = cov.copy()
    rng = np.random.default_rng(51)
    values = []
    for _ in range(n):
        v = rng.normal(size=cov.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w /= norm
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < tol:
                v = w
                break
            v = w
        lam = float(v @ cov @ v)
        values.append(lam)
        cov -= lam * np.outer(v, v)
    return np.array(values)


def test_criterion_05_pca_against_power_iteration():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows = int(rng.integers(30, 80))
        X = FeatureMatrix(
            rng.normal(size=(rows, 10)) * rng.uniform(0.1, 3.0, size=10),
            tuple(f"c{i}" for i in range(10)),
        )
        model = fit_pca(X, 10)
        centered = X.values - X.values.mean(axis=0)
        cov = centered.T @ centered / (rows - 1)
        oracle = _power_iteration_eigenvalues(cov, 10)
        assert np.abs(model.eigenvalues - oracle).max() <= 1e-8
        assert abs(model.eigenvalues.sum() - np.trace(cov)) <= 1e-8
        Z = transform(model, X)
        reconstructed = Z.values @ model.components.T + model.mean
        assert np.abs(reconstructed - X.values).max() <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 5: 100 PCA fits match the oracle in {elapsed:.1f}s")


def test_criterion_06_classifier_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(6)

    # KNN vs exhaustive full-sort oracle.
    train_x = rng.uniform(size=(200, 5))
    train_y = rng.integers(0, 4, size=200)
    queries = rng.uniform(size=(40, 5))
    names = tuple(f"f{i}" for i in range(5))
    model = KnnModel(train=FeatureMatrix(train_x, names, train_y), k=10)
    predictions = knn_predict_labels(model, FeatureMatrix(queries, names))
    for q, predicted in zip(queries, predictions):
        order = sorted(range(200), key=lambda i: (((train_x[i] - q) ** 2).sum(), i))
        top = [int(train_y[i]) for i in order[:10]]
        best = max(sorted(set(top)), key=lambda c: (top.count(c), -c))
        assert predicted == best

    # RF byte-determinism with seed 42.
    data = FeatureMatrix(
        rng.uniform(size=(150, 6)),
        tuple(f"f{i}" for i in range(6)),
        rng.integers(0, 3, size=150),
    )
    a = forest_to_json(rf_fit(data, ForestConfig(n_trees=100, seed=42)))
    b = forest_to_json(rf_fit(data, ForestConfig(n_trees=100, seed=42)))
    assert a == b

    # RF training accuracy on axis-separable one-feature data.
    values = np.concatenate([rng.uniform(0.0, 0.45, 100), rng.uniform(0.55, 1.0, 100)])
    labels = (values > 0.5).astype(int)
    sep = FeatureMatrix(values[:, None], ("v",), labels)
    forest = rf_fit(sep, ForestConfig(n_trees=100, seed=42))
    assert (rf_predict_labels(forest, sep) == labels).mean() == 1.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 6: KNN full-sort oracle, RF determinism and "
          f"separable accuracy in {elapsed:.1f}s")


def test_criterion_07_macro_f1_hand_fixture():
    assert abs(macro_f1([0, 0, 0, 1], [0, 0, 1, 1]) - 11 / 15) <= 1e-12
    print("PASS criterion 7: macro F1 hand fixture equals 11/15")


def test_criterion_08_pipeline_improvement_on_synthetic_scene():
    started = time.perf_counter()
    cloud = normalize_unit_cube(generate_scene(SCENE))
    rows, _ = SpatialIndex(cloud.xyz).radius_pairs(np.arange(len(cloud)), SCENE_RADIUS)
    neighborhood_sizes = np.bincount(rows, minlength=len(cloud))
    median_size = float(np.median(neighborhood_sizes))
    assert 35 <= median_size <= 70, f"median neighborhood {median_size}"

    features = extract_features(cloud, NeighborhoodSpec(radius=SCENE_RADIUS))
    xyz_only = features.select_columns(("x", "y", "z"))
    plan = CrossValPlan(folds=5, seed=0)

    def score(matrix, classifier, n_components=None):
        spec = PipelineSpec(
            classifier=classifier, n_components=n_components,
            k=10, n_trees=100, seed=0,
        )
        return cross_validate(matrix, plan, ClassifierPipeline(spec)).mean_f1

    knn_xyz = score(xyz_only, "knn")
    knn_n3 = score(features, "knn", 3)
    knn_n10 = score(features, "knn", 10)
    rf_xyz = score(xyz_only, "rf")
    rf_n10 = score(features, "rf", 10)

    knn_gain = knn_n10 - knn_xyz
    rf_gain = rf_n10 - rf_xyz
    elapsed = time.perf_counter() - started

    print(f"  median neighborhood size: {median_size:.0f}")
    print(f"  KNN: xyz={knn_xyz:.3f} n3={knn_n3:.3f} n10={knn_n10:.3f} "
          f"gain={knn_gain:+.3f}")
    print(f"  RF:  xyz={rf_xyz:.3f} n10={rf_n10:.3f} gain={rf_gain:+.3f}")

    assert max(knn_gain, rf_gain) >= 0.05, (knn_gain, rf_gain)
    assert knn_n10 >= knn_n3, (knn_n10, knn_n3)
    assert elapsed < 120.0
    print(f"PASS criterion 8: PCA-10 features beat the xyz baseline by "
          f"{max(knn_gain, rf_gain):+.3f} (>= 0.05) in {elapsed:.0f}s")


@pytest.mark.skipif(
    _tutorial_dataset() is None,
    reason="tutorial dataset not provided (set PRODCOEF_TUTORIAL_LAS or "
    "place tests/data/tutorial.las)",
)
def test_criterion_09_tutorial_dataset_reproduction(tmp_path):
    dataset = _tutorial_dataset()
    cloud, header = read_las(dataset)
    assert header.point_count == 277_572

    out = tmp_path / "tutorial"
    assert main([
        "run", "--input", str(dataset), "--table", "2",
        "--components", "3..10", "--out-dir", str(out),
    ]) == 0
    table_lines = (out / "table2.csv").read_text().strip().split("\n")
    assert len(table_lines) == 9  # header + n = 3..10

    report = json.loads((out / "report_t2_n10_knn.json").read_text())
    score = report["mean_f1"]
    deviation = abs(score - REFERENCE_KNN_F1_N10)
    status = "within" if deviation <= REFERENCE_TOLERANCE_BAND else "outside"
    print(
        f"INFORMATIONAL criterion 9: n=10 KNN F1 = {score:.3f}; reference "
        f"{REFERENCE_KNN_F1_N10:.2f} (± {REFERENCE_KNN_STD_N10:.2f}); "
        f"{status} the ±{REFERENCE_TOLERANCE_BAND} band (non-failing)"
    )
    print("PASS criterion 9: table-2 run completed on the tutorial dataset")


def test_criterion_10_run_determinism_across_threads(tmp_path):
    scene_dir = tmp_path / "scene"
    assert main([
        "synth", "--classes", "4", "--points-per-class", "75",
        "--seed", "5", "--out-dir", str(scene_dir),
    ]) == 0
    outputs = []
    for name, threads in (("one", "1"), ("many", "3")):
        out = tmp_path / name
        assert main([
            "run", "--input", str(scene_dir / "scene.csv"), "--has-label",
            "--radius", "0.25", "--table", "2", "--components", "3..4",
            "--folds", "3", "--trees", "12", "--seed", "17",
            "--threads", threads, "--out-dir", str(out),
        ]) == 0
        outputs.append(out)
    for report in ("report_t2_n03_knn.json", "report_t2_n03_rf.json",
                   "report_t2_n04_knn.json", "report_t2_n04_rf.json",
                   "features.csv", "table2.csv"):
        assert (outputs[0] / report).read_bytes() == (outputs[1] / report).read_bytes()
    print("PASS criterion 10: identical artifacts regardless of --threads")
