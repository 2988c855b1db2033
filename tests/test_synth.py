import numpy as np
import pytest

from prodcoef.errors import ValidationError
from prodcoef.evaluation import CrossValPlan, PipelineSpec, ClassifierPipeline, cross_validate
from prodcoef.features import NeighborhoodSpec, extract_features
from prodcoef.matrix import FeatureMatrix
from prodcoef.pointcloud import normalize_unit_cube
from prodcoef.synth import CLASS_ORDER, SceneSpec, generate_scene


def test_deterministic_given_spec():
    spec = SceneSpec(classes=4, points_per_class=100, seed=7)
    a = generate_scene(spec)
    b = generate_scene(spec)
    np.testing.assert_array_equal(a.xyz, b.xyz)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_row_count_and_label_set():
    cloud = generate_scene(SceneSpec(classes=4, points_per_class=500, seed=7))
    assert len(cloud) == 2000
    assert set(cloud.labels.tolist()) == {2, 3, 5, 6}
    for code in (2, 3, 5, 6):
        assert (cloud.labels == code).sum() == 500


def test_class_subset_follows_declared_order():
    cloud = generate_scene(SceneSpec(classes=2, points_per_class=10, seed=1))
    assert set(cloud.labels.tolist()) == set(CLASS_ORDER[:2])


def test_seed_changes_scene():
    a = generate_scene(SceneSpec(classes=3, points_per_class=50, seed=1))
    b = generate_scene(SceneSpec(classes=3, points_per_class=50, seed=2))
    assert not np.array_equal(a.xyz, b.xyz)


def test_vertical_structure_of_classes():
    # Roofs sit flat at the top of each block, ground flat at the
    # bottom, low vegetation in a thin band, high vegetation spread.
    cloud = generate_scene(SceneSpec(classes=4, points_per_class=400, seed=3))
    z = cloud.xyz[:, 2]
    ground = z[cloud.labels == 2]
    low = z[cloud.labels == 3]
    high = z[cloud.labels == 5]
    roof = z[cloud.labels == 6]
    assert np.median(ground) < np.median(low) < np.median(high) < np.median(roof)
    # Vertical spread ordering: slabs are tighter than layers, layers
    # tighter than columns (high vegetation spans whole blocks).
    assert np.ptp(high) > np.ptp(low) * 0.9
    assert high.std() > low.std() > 0


def test_separation_zero_scores_near_chance():
    # Oracle for chance level: the same pipeline scored against
    # permuted labels. At separation 0 every class is drawn from the
    # same distribution, so the real scores should sit in the same
    # band as the permutation baseline.
    spec = SceneSpec(classes=2, points_per_class=150, separation=0.0, seed=5)
    cloud = normalize_unit_cube(generate_scene(spec))
    features = extract_features(cloud, NeighborhoodSpec(radius=0.3))
    plan = CrossValPlan(folds=3, seed=0)
    pipeline = ClassifierPipeline(PipelineSpec("knn", k=5))
    real = cross_validate(features, plan, pipeline).mean_f1

    rng = np.random.default_rng(0)
    permuted = FeatureMatrix(features.values, features.column_names,
                             rng.permutation(features.labels))
    baseline = cross_validate(permuted, plan, pipeline).mean_f1
    assert abs(real - baseline) < 0.12


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SceneSpec(classes=1)
    with pytest.raises(ValidationError):
        SceneSpec(classes=5)
    with pytest.raises(ValidationError):
        SceneSpec(points_per_class=0)
    with pytest.raises(ValidationError):
        SceneSpec(separation=1.5)
