import itertools
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcoef.features as features_module
from prodcoef.errors import ValidationError
from prodcoef.features import (
    _RADIUS_CHUNK,
    FEATURE_COLUMNS,
    NeighborhoodSpec,
    SpatialIndex,
    _finish_octant_counts,
    _octant_counts_radius,
    _octant_counts_whole_cloud,
    extract_features,
)
from prodcoef.pointcloud import PointCloud, normalize_unit_cube

from conftest import dyadic_coefficients


def naive_radius_neighbors(points, center, radius):
    """Oracle: plain O(n) scan with explicit distance arithmetic, the
    squared differences summed x, then y, then z."""
    points = np.asarray(points, dtype=np.float64)
    d2 = ((points[:, 0] - center[0]) ** 2 + (points[:, 1] - center[1]) ** 2
          + (points[:, 2] - center[2]) ** 2)
    return np.flatnonzero(d2 <= radius * radius).astype(np.int64)


def all_pairs_octant_counts(xyz):
    """Oracle: compare every center with every point on each axis and
    bincount the octant codes ("<= center" goes left)."""
    codes = (xyz[None, :, 0] > xyz[:, None, 0]).astype(np.uint8) << 2
    codes |= (xyz[None, :, 1] > xyz[:, None, 1]).astype(np.uint8) << 1
    codes |= (xyz[None, :, 2] > xyz[:, None, 2]).astype(np.uint8)
    return np.array([np.bincount(row, minlength=8) for row in codes], dtype=np.int64)


def rescale_columns(raw):
    """Oracle for the final min-max step; constant columns become 0.5."""
    mins, maxs = raw.min(axis=0), raw.max(axis=0)
    return np.where(
        maxs == mins, 0.5, (raw - mins) / np.where(maxs == mins, 1.0, maxs - mins)
    )


def naive_scan_features(cloud, spec):
    """Oracle features: naive-scan neighborhoods through the dyadic
    definition of the coefficients, then the min-max rescale.

    Returns (values, empty rows); values is None when a neighborhood is
    empty, since extraction must then fail.
    """
    xyz = cloud.xyz
    raw = np.empty((len(xyz), 10))
    raw[:, :3] = xyz
    empty = []
    for i in range(len(xyz)):
        ids = naive_radius_neighbors(xyz, xyz[i], spec.radius)
        if not spec.include_center:
            ids = ids[ids != i]
        if len(ids) == 0:
            empty.append(i)
            continue
        raw[i, 3:] = dyadic_coefficients(xyz[ids], xyz[i])
    return (None if empty else rescale_columns(raw)), empty


def assert_features_equal_naive_scan(cloud, spec, threads_list=(1, 2, 3)):
    """extract_features at every thread count equals the naive-scan
    oracle or, when some neighborhood is empty, fails naming those rows
    (isolated points have nothing to measure once their center is left
    out). Returns the empty rows."""
    expected, empty = naive_scan_features(cloud, spec)
    for threads in threads_list:
        if empty:
            message = rf"empty.* {len(empty)} of {len(cloud)} rows.*first: row {empty[0]}\)"
            with pytest.raises(ValidationError, match=message):
                extract_features(cloud, spec, threads=threads)
        else:
            fm = extract_features(cloud, spec, threads=threads)
            np.testing.assert_array_equal(fm.values, expected)
    return empty


def pair_neighbor_lists(index, ids, radius):
    """The neighbor ids radius_pairs finds around each point ids[k], each
    list sorted ascending."""
    rows, neighbors = index.radius_pairs(ids, radius)
    assert rows.shape == neighbors.shape
    assert ((rows >= 0) & (rows < len(ids))).all()
    return [np.sort(neighbors[rows == k]) for k in range(len(ids))]


class TestRadiusNeighbors:
    def test_collinear_points(self):
        # Point 2 sits exactly on the sphere around point 0 (d^2 == r^2).
        pts = np.array([[0, 0, 0], [0.3, 0, 0], [0.5, 0, 0], [0.9, 0, 0]])
        got = pair_neighbor_lists(SpatialIndex(pts), np.arange(4), 0.5)
        assert [ids.tolist() for ids in got] == [[0, 1, 2], [0, 1, 2], [0, 1, 2, 3], [2, 3]]

    def test_radius_two_covers_unit_cube(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(40, 3))
        for ids in pair_neighbor_lists(SpatialIndex(pts), np.arange(5), 2.0):
            assert ids.tolist() == list(range(40))

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(500, 3))
        index = SpatialIndex(pts)
        for _ in range(10):
            ids = rng.permutation(500)[:20]
            radius = rng.uniform(0.01, 0.9)
            for center, got in zip(ids, pair_neighbor_lists(index, ids, radius)):
                np.testing.assert_array_equal(
                    got, naive_radius_neighbors(pts, pts[center], radius))

    def test_many_centers_match_single_queries(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(300, 3))
        ids = rng.permutation(300)[:40]
        got = pair_neighbor_lists(SpatialIndex(pts), ids, 0.2)
        for k in range(40):
            np.testing.assert_array_equal(got[k], naive_radius_neighbors(pts, pts[ids[k]], 0.2))

    def test_leaf_order_is_a_permutation(self):
        rng = np.random.default_rng(15)
        index = SpatialIndex(rng.uniform(size=(300, 3)))
        np.testing.assert_array_equal(np.sort(index.leaf_order), np.arange(300))


def corner_cube_cloud():
    """A center followed by the eight corners of a cube around it."""
    center = np.array([0.5, 0.5, 0.5])
    offsets = np.array(
        [
            [dx, dy, dz]
            for dx in (-0.1, 0.1)
            for dy in (-0.1, 0.1)
            for dz in (-0.1, 0.1)
        ]
    )
    return np.vstack([center, center + offsets])


class TestSphereMeasure:
    def test_center_only(self):
        xyz = np.array([[0.5, 0.5, 0.5]])
        # The <=-goes-left rule routes the center into the leftmost leaf.
        expected = [[1, 0, 0, 0, 0, 0, 0, 0]]
        assert _octant_counts_whole_cloud(xyz).tolist() == expected
        counts = _octant_counts_radius(xyz, SpatialIndex(xyz), 0.1, np.arange(1))
        assert counts.tolist() == expected

    def test_symmetric_corner_cube(self):
        xyz = corner_cube_cloud()
        counts = _octant_counts_radius(xyz, SpatialIndex(xyz), 0.2, np.arange(1))
        assert counts.tolist() == [[2, 1, 1, 1, 1, 1, 1, 1]]
        np.testing.assert_array_equal(_octant_counts_whole_cloud(xyz)[:1], counts)
        sizes, _ = _finish_octant_counts(counts, include_center=False)
        assert sizes.tolist() == [8]
        assert counts.tolist() == [[1] * 8]

    def test_matches_triple_loop_partition(self):
        # Oracle: explicit per-axis if/else partition of every point.
        rng = np.random.default_rng(5)
        xyz = rng.uniform(size=(330, 3))
        expected = np.zeros((30, 8), dtype=np.int64)
        for row, center in enumerate(xyz[:30]):
            for p in xyz:
                i = 0
                if p[0] > center[0]:
                    i += 4
                if p[1] > center[1]:
                    i += 2
                if p[2] > center[2]:
                    i += 1
                expected[row, i] += 1
        np.testing.assert_array_equal(_octant_counts_whole_cloud(xyz)[:30], expected)
        index = SpatialIndex(xyz)
        np.testing.assert_array_equal(_octant_counts_radius(xyz, index, 2.0, np.arange(30)),
                                      expected)


class TestPointCoefficients:
    def test_center_only_row(self):
        counts = _octant_counts_whole_cloud(np.array([[0.2, 0.2, 0.2]]))
        sizes, coefficients = _finish_octant_counts(counts, include_center=True)
        assert coefficients.tolist() == [[1, 1, 0, 1, 0, 0, 0]]
        assert sizes.tolist() == [1]

    def test_symmetric_row_is_all_zero(self):
        xyz = corner_cube_cloud()
        counts = _octant_counts_radius(xyz, SpatialIndex(xyz), 0.2, np.arange(1))
        _, coefficients = _finish_octant_counts(counts, include_center=False)
        assert coefficients.tolist() == [[0] * 7]

    def test_quarter_mass_left_at_root(self):
        # One point (the center) left of the root split, three right of it.
        xyz = np.array([[0.5, 0.5, 0.5], [0.6, 0.4, 0.4], [0.7, 0.5, 0.5], [0.8, 0.3, 0.2]])
        counts = _octant_counts_whole_cloud(xyz)[:1]
        assert counts.tolist() == [[1, 0, 0, 0, 3, 0, 0, 0]]
        _, coefficients = _finish_octant_counts(counts, include_center=True)
        assert coefficients[0, 0] == -0.5


class TestExtractFeatures:
    def test_two_point_cloud_hand_enumeration(self):
        # Hand partition: point 0 at the origin sees point 1 in the
        # strictly-greater octant everywhere, point 1 sees both points
        # in its <= octant. Raw coefficient rows are therefore
        # (0, 1, -1, 1, 0, 0, -1) and (1, 1, 0, 1, 0, 0, 0); columns
        # are then min-max rescaled with constants mapping to 0.5.
        cloud = normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [1, 1, 1]]))
        fm = extract_features(cloud, NeighborhoodSpec(radius=2.0))
        expected = np.array(
            [
                [0, 0, 0, 0, 0.5, 0, 0.5, 0.5, 0.5, 0],
                [1, 1, 1, 1, 0.5, 1, 0.5, 0.5, 0.5, 1],
            ]
        )
        np.testing.assert_array_equal(fm.values, expected)
        assert fm.column_names == FEATURE_COLUMNS

    def test_radius_two_gives_full_root_mass(self):
        rng = np.random.default_rng(3)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(30, 3))))
        index = SpatialIndex(cloud.xyz)
        for counts in (_octant_counts_radius(cloud.xyz, index, 2.0, np.arange(30)),
                       _octant_counts_whole_cloud(cloud.xyz)):
            sizes, _ = _finish_octant_counts(counts, include_center=True)
            assert sizes.tolist() == [30] * 30

    def test_columns_span_unit_interval_or_half(self):
        rng = np.random.default_rng(4)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(100, 3))))
        fm = extract_features(cloud, NeighborhoodSpec(radius=0.3))
        for j in range(fm.n_cols):
            col = fm.values[:, j]
            assert (col.min() == 0.0 and col.max() == 1.0) or (col == 0.5).all()

    def test_kdtree_path_equals_dense_path(self):
        rng = np.random.default_rng(6)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(150, 3))))
        index = SpatialIndex(cloud.xyz)
        counts_kd = _octant_counts_radius(cloud.xyz, index, 2.0, np.arange(150))
        counts_dense = _octant_counts_whole_cloud(cloud.xyz)
        np.testing.assert_array_equal(counts_kd, counts_dense)
        np.testing.assert_array_equal(
            _finish_octant_counts(counts_kd, True)[1],
            _finish_octant_counts(counts_dense, True)[1],
        )

    def test_kdtree_features_equal_naive_scan_features(self):
        rng = np.random.default_rng(7)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(200, 3))))
        spec = NeighborhoodSpec(radius=0.25)
        fm = extract_features(cloud, spec)
        # Oracle path: naive scan neighborhoods fed through the
        # per-point coefficient computation.
        expected, empty = naive_scan_features(cloud, spec)
        assert not empty
        np.testing.assert_array_equal(fm.values, expected)

    @pytest.mark.parametrize("include_center", [True, False])
    def test_duplicate_heavy_coordinates_equal_naive_scan_features(self, include_center):
        # Centimetre-quantized coordinates at a LAS-like offset, as real
        # tiles store them: each axis takes only 25 distinct values and
        # a fifth of the points repeat another point exactly, so many
        # neighbors tie with their center on one, two or all three axes
        # and exercise the "<= center goes left" rule.
        rng = np.random.default_rng(13)
        grid = rng.integers(0, 25, size=(160, 3))
        grid = np.vstack([grid, grid[rng.integers(0, 160, size=40)]])
        xyz = grid * 0.01 + np.array([512_340.0, 5_401_200.0, 210.0])
        cloud = normalize_unit_cube(PointCloud(xyz=xyz))
        n_failing = 0
        for radius in (0.05, 0.12, 0.3, 0.7, 2.0):
            spec = NeighborhoodSpec(radius=radius, include_center=include_center)
            n_failing += bool(assert_features_equal_naive_scan(cloud, spec, (1, 2)))
        # Both outcomes are exercised: small radii isolate some points
        # only when the center is left out.
        assert n_failing == (0 if include_center else 2)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(80, 3))
        labels = rng.integers(0, 3, size=80)
        perm = rng.permutation(80)
        spec = NeighborhoodSpec(radius=0.3)
        fm = extract_features(normalize_unit_cube(PointCloud(pts, labels)), spec)
        fm_perm = extract_features(
            normalize_unit_cube(PointCloud(pts[perm], labels[perm])), spec
        )
        np.testing.assert_array_equal(fm_perm.values, fm.values[perm])
        np.testing.assert_array_equal(fm_perm.labels, fm.labels[perm])

    def test_shift_invariance_through_normalization(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(60, 3)) * 40.0
        spec = NeighborhoodSpec(radius=0.2)
        fm = extract_features(normalize_unit_cube(PointCloud(pts)), spec)
        fm_shifted = extract_features(
            normalize_unit_cube(PointCloud(pts + np.array([123.0, -7.0, 55.0]))), spec
        )
        np.testing.assert_allclose(fm_shifted.values, fm.values, atol=1e-12)

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(10)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(600, 3))))
        spec = NeighborhoodSpec(radius=0.2)
        a = extract_features(cloud, spec, threads=1)
        # Workers write disjoint row slices of shared arrays; switch
        # threads as often as possible so a lost write would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = extract_features(cloud, spec, threads=8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("radius", [0.2, 2.0])
    def test_one_thread_runs_inline(self, monkeypatch, radius):
        # One worker needs no pool: both regimes then run in this thread.
        rng = np.random.default_rng(12)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(300, 3))))
        spec = NeighborhoodSpec(radius=radius)
        expected = extract_features(cloud, spec, threads=2)
        monkeypatch.setattr(features_module, "ThreadPoolExecutor", None)
        np.testing.assert_array_equal(extract_features(cloud, spec, threads=1).values,
                                      expected.values)

    def test_single_point_without_center_errors(self):
        cloud = normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [5, 5, 5]]))
        tiny = NeighborhoodSpec(radius=1e-6, include_center=False)
        with pytest.raises(ValidationError, match=r"empty.* 2 of 2 rows.*first: row 0"):
            extract_features(cloud, tiny)
        # Only the isolated last point has nothing but itself nearby.
        cloud = normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [0.1, 0, 0], [5, 5, 5]]))
        near = NeighborhoodSpec(radius=0.05, include_center=False)
        with pytest.raises(ValidationError, match=r"empty.* 1 of 3 rows.*first: row 2"):
            extract_features(cloud, near)

    def test_include_center_false_full_cloud_path(self):
        # Whole-cloud path with the center removed still matches the kd path.
        rng = np.random.default_rng(11)
        cloud = normalize_unit_cube(PointCloud(xyz=rng.uniform(size=(50, 3))))
        spec = NeighborhoodSpec(radius=2.0, include_center=False)
        fm_dense = extract_features(cloud, spec)
        index = SpatialIndex(cloud.xyz)
        counts = _octant_counts_radius(cloud.xyz, index, spec.radius, np.arange(50))
        sizes, out = _finish_octant_counts(counts, spec.include_center)
        assert (sizes == 49).all()
        np.testing.assert_array_equal(fm_dense.values[:, 3:], rescale_columns(out))

    def test_requires_normalized_cloud(self):
        with pytest.raises(ValidationError, match="normalized"):
            extract_features(PointCloud(xyz=[[0, 0, 0], [2, 2, 2]]))

    def test_invalid_radius(self):
        with pytest.raises(ValidationError):
            NeighborhoodSpec(radius=0.0)


class TestRadiusPairSource:
    @pytest.mark.parametrize("side", [4, 7, 11])
    def test_exact_sphere_lattices_equal_naive_scan(self, side):
        # Integer lattice normalized to steps of 1/(side-1); at a radius of
        # sqrt(m) lattice steps, neighbors lie exactly on the sphere, and
        # the rounded d^2 <= r^2 test alone decides whether they count.
        grid = np.array(list(itertools.product(range(side), repeat=3)), dtype=np.float64)
        cloud = normalize_unit_cube(PointCloud(xyz=grid))
        for m in (1, 2, 3, 4, 5):
            spec = NeighborhoodSpec(radius=np.sqrt(m) / (side - 1))
            assert not assert_features_equal_naive_scan(cloud, spec)

    @pytest.mark.parametrize("size", [1, _RADIUS_CHUNK - 1, _RADIUS_CHUNK, _RADIUS_CHUNK + 1,
                                      3 * _RADIUS_CHUNK + 5])
    @pytest.mark.parametrize("include_center", [True, False])
    def test_chunk_boundary_sizes_equal_naive_scan(self, size, include_center):
        # Five values per axis and a third of the rows repeating another
        # row: the chunks split runs of identical points and of ties on
        # one axis.
        rng = np.random.default_rng(size)
        grid = rng.integers(0, 5, size=(size - size // 3, 3))
        grid = np.vstack([grid, grid[rng.integers(0, len(grid), size=size // 3)]])
        cloud = PointCloud(xyz=grid[rng.permutation(size)] / 4.0, normalized=True)
        assert len(cloud) == size
        for radius in (0.1, 0.3, 0.8):
            spec = NeighborhoodSpec(radius=radius, include_center=include_center)
            assert_features_equal_naive_scan(cloud, spec)

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_neighborhood_sizes_logged(self, caplog, radius):
        # Normalized x = 0, 1/3, 1: at r=0.5 the sizes are 2, 2, 1; a
        # whole-cloud radius gives every point all three.
        cloud = normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [0.3, 0, 0], [0.9, 0, 0]]))
        with caplog.at_level(logging.INFO, logger="prodcoef"):
            extract_features(cloud, NeighborhoodSpec(radius=radius))
        expected = {0.5: "min 1, median 2.0, max 2", 2.0: "min 3, median 3.0, max 3"}[radius]
        assert [r.getMessage() for r in caplog.records] == [
            f"neighborhood sizes: {expected}"
        ]


def _edge_clouds():
    rng = np.random.default_rng(14)
    # Centimetre-quantized coordinates at a LAS-like offset, 12 values per axis.
    cm_grid = rng.integers(0, 12, size=(300, 3)) * 0.01 + np.array([512_340.0, 5_401_200.0, 210.0])
    clouds = {
        "n=1": np.array([[0.5, 0.5, 0.5]]),
        "n=2": normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [1, 1, 1]])).xyz,
        "n=2 mixed": normalize_unit_cube(PointCloud(xyz=[[0, 1, 0], [1, 0, 1]])).xyz,
        "identical": np.full((37, 3), 0.5),
        "constant z": normalize_unit_cube(
            PointCloud(xyz=np.c_[rng.uniform(size=(50, 2)), np.full(50, 3.0)])).xyz,
        "cm grid": normalize_unit_cube(PointCloud(xyz=cm_grid)).xyz,
    }
    for size in (31, 32, 33, 127, 128, 129):
        clouds[f"n={size}"] = rng.uniform(size=(size, 3))
        clouds[f"n={size} ties"] = rng.integers(0, 4, size=(size, 3)) / 3.0
    return clouds


class TestWholeCloudCounts:
    @pytest.mark.parametrize("name", list(_edge_clouds()))
    def test_equals_all_pairs_oracle(self, name):
        xyz = _edge_clouds()[name]
        counts = _octant_counts_whole_cloud(xyz)
        assert counts.dtype == np.int64 and counts.shape == (len(xyz), 8)
        np.testing.assert_array_equal(counts, all_pairs_octant_counts(xyz))

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_threads_equal_all_pairs_oracle(self, threads):
        # The pieces run on `threads` workers and are added as they come
        # back; integer sums in any order give the same counts. Switch
        # threads as often as possible so a lost update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, xyz in _edge_clouds().items():
                np.testing.assert_array_equal(_octant_counts_whole_cloud(xyz, threads),
                                              all_pairs_octant_counts(xyz), err_msg=name)
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=70))
    def test_small_integer_grids_equal_oracle(self, points):
        # Four values per axis: nearly every pair ties on some axis.
        xyz = np.array(points, dtype=np.float64) / 3.0
        np.testing.assert_array_equal(_octant_counts_whole_cloud(xyz),
                                      all_pairs_octant_counts(xyz))


def test_import_does_not_load_scipy_spatial():
    # Only building a kd-tree needs scipy.spatial; importing the package
    # (as every CLI stage does) must not pay for it.
    code = (
        "import sys, prodcoef, prodcoef.cli\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial imported'\n"
    )
    import prodcoef

    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
