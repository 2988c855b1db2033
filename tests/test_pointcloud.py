import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodcoef.pointcloud as pointcloud_module
from prodcoef.errors import FormatError, ValidationError
from prodcoef.matrix import FeatureMatrix
from prodcoef.pointcloud import PointCloud, normalize_unit_cube, read_csv, write_csv


def test_read_csv_labeled(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,0,2\n1,1,1,5\n")
    cloud = read_csv(path, has_label=True)
    assert len(cloud) == 2
    assert set(cloud.labels.tolist()) == {2, 5}
    assert cloud.xyz.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_read_csv_header_skip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y,z\n0.5,0.5,0.5\n")
    cloud = read_csv(path, has_label=False)
    assert len(cloud) == 1
    assert cloud.labels is None


@pytest.mark.parametrize("header", ["", "x,y,z\n"])
def test_read_csv_drops_a_leading_byte_order_mark(tmp_path, header):
    # Left in, the mark fails float() on a headerless file's first cell,
    # and that point would be dropped as a header.
    path = tmp_path / "pts.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (header + "0,0,0\n1,2,3\n4,5,6\n").encode())
    cloud = read_csv(path)
    assert cloud.xyz.tolist() == [[0, 0, 0], [1, 2, 3], [4, 5, 6]]


def test_read_csv_all_non_numeric(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("a,b,c\nq,w,e\n")
    with pytest.raises(FormatError, match="row 2"):
        read_csv(path, has_label=False)


def test_read_csv_ragged_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,0\n1,1\n")
    with pytest.raises(FormatError, match="row 2"):
        read_csv(path, has_label=False)


def test_read_csv_non_finite(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,nan\n")
    with pytest.raises(FormatError, match="row 1"):
        read_csv(path, has_label=False)


def test_read_csv_non_finite_names_first_bad_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,0\n\n1,inf,1\n2,nan,2\n")
    with pytest.raises(FormatError, match="row 3: non-finite coordinate"):
        read_csv(path, has_label=False)


@pytest.mark.parametrize("cell, reason", [
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("1e30", "int64"),
    ("99999999999999999999", "int64"),
])
def test_read_csv_bad_label_names_row(tmp_path, cell, reason):
    path = tmp_path / "pts.csv"
    path.write_text(f"x,y,z,label\n0,0,0,1\n1,1,1,{cell}\n")
    with pytest.raises(FormatError, match=f"row 3: .*{reason}"):
        read_csv(path, has_label=True)


def test_read_csv_label_at_int64_limits(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,0,-9223372036854775808\n1,1,1,9223372036854775807\n2,2,2,-4.0\n")
    cloud = read_csv(path, has_label=True)
    assert cloud.labels.tolist() == [-2**63, 2**63 - 1, -4]


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(FormatError):
        read_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe" + "x,y,z\n0,0,0\n".encode("utf-16-le"), "can't decode"),
    (b"x,y,z\n" + b"1" * 200_000 + b",0,0\n", "field limit"),
], ids=["utf-16", "long field"])
def test_read_csv_unreadable_text_names_file(tmp_path, content, reason):
    path = tmp_path / "pts.csv"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=f"pts.csv: .*{reason}"):
        read_csv(path)


def test_write_csv_exact_text(tmp_path):
    labeled = tmp_path / "labeled.csv"
    write_csv(PointCloud(xyz=[[0.1, 2.0, -3.5], [1e-17, 0.0, 7.0]], labels=[4, -2]), labeled)
    assert labeled.read_text() == "x,y,z,label\n0.1,2.0,-3.5,4\n1e-17,0.0,7.0,-2\n"
    plain = tmp_path / "plain.csv"
    write_csv(PointCloud(xyz=[[0.25, 1.0, 3.0]]), plain)
    assert plain.read_text() == "x,y,z\n0.25,1.0,3.0\n"


def test_csv_round_trip(tmp_path):
    cloud = PointCloud(xyz=[[0.125, 3.5, -2.25], [1e-9, 7.0, 0.0]], labels=[2, 19])
    path = tmp_path / "out.csv"
    write_csv(cloud, path)
    back = read_csv(path, has_label=True)
    np.testing.assert_array_equal(back.xyz, cloud.xyz)
    np.testing.assert_array_equal(back.labels, cloud.labels)


def test_labels_beyond_asprs_table_kept_verbatim(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0,0,42\n")
    assert read_csv(path, has_label=True).labels.tolist() == [42]


def test_normalize_endpoints_to_corners():
    cloud = PointCloud(xyz=[[0, 0, 0], [2, 4, 8]])
    out = normalize_unit_cube(cloud)
    assert out.xyz.tolist() == [[0, 0, 0], [1, 1, 1]]
    assert out.normalized


def test_normalize_degenerate_axis_maps_to_half():
    cloud = PointCloud(xyz=[[1, 1, 1], [3, 1, 5]])
    out = normalize_unit_cube(cloud)
    assert out.xyz.tolist() == [[0, 0.5, 0], [1, 0.5, 1]]


def test_normalize_random_cloud_matches_direct_recomputation():
    # Oracle: per-coordinate recomputation with plain Python arithmetic.
    rng = np.random.default_rng(7)
    pts = rng.uniform(-10, 10, size=(100, 3))
    out = normalize_unit_cube(PointCloud(xyz=pts))
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    for i in range(100):
        for axis in range(3):
            expected = (pts[i, axis] - mins[axis]) / (maxs[axis] - mins[axis])
            assert out.xyz[i, axis] == expected
    assert out.xyz.min() >= 0.0 and out.xyz.max() <= 1.0


def test_normalize_idempotent_in_effect():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(50, 3))
    pts[0] = 0.0
    pts[1] = 1.0  # bounds exactly (0, 1) per axis
    once = normalize_unit_cube(PointCloud(xyz=pts))
    again = normalize_unit_cube(PointCloud(xyz=once.xyz))
    assert np.abs(again.xyz - once.xyz).max() <= 1e-15


def test_normalize_preserves_rank_order():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(64, 3))
    out = normalize_unit_cube(PointCloud(xyz=pts))
    for axis in range(3):
        np.testing.assert_array_equal(
            np.argsort(pts[:, axis], kind="stable"),
            np.argsort(out.xyz[:, axis], kind="stable"),
        )


def test_normalize_uniform_mode_preserves_aspect():
    cloud = PointCloud(xyz=[[0, 0, 0], [10, 5, 2]])
    out = normalize_unit_cube(cloud, mode="uniform")
    assert out.xyz.tolist() == [[0, 0, 0], [1, 0.5, 0.2]]


def test_normalize_rejects_empty_and_double():
    with pytest.raises(ValidationError):
        normalize_unit_cube(PointCloud(xyz=np.empty((0, 3))))
    cloud = normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [1, 2, 3]]))
    with pytest.raises(ValidationError):
        normalize_unit_cube(cloud)


def test_normalize_unknown_mode():
    with pytest.raises(ValidationError):
        normalize_unit_cube(PointCloud(xyz=[[0, 0, 0], [1, 1, 1]]), mode="weird")


def test_cloud_rejects_non_finite():
    with pytest.raises(ValidationError):
        PointCloud(xyz=[[0, 0, np.nan]])


def test_cloud_label_alignment():
    with pytest.raises(ValidationError):
        PointCloud(xyz=[[0, 0, 0]], labels=[1, 2])


@pytest.mark.parametrize("xyz, labels, names", [
    ([[0, 0, np.nan]], None, ("x", "y", "z")),
    ([[0, np.inf, 0]], None, ("x", "y", "z")),
    (np.zeros(3), None, ("x", "y", "z")),
    ([[0, 0, 0]], [1, 2], ("x", "y", "z")),
    ([[0, 0, 0]], None, ("x", "y", "x")),
], ids=["nan", "inf", "1-D", "labels too long", "repeated name"])
def test_points_and_features_share_one_table_rule(monkeypatch, xyz, labels, names):
    with pytest.raises(ValidationError):
        FeatureMatrix(xyz, names, labels)
    # A cloud's columns are XYZ_COLUMNS, read when it is built.
    monkeypatch.setattr(pointcloud_module, "XYZ_COLUMNS", names)
    with pytest.raises(ValidationError):
        PointCloud(xyz=xyz, labels=labels)


def test_cloud_arrays_are_read_only_copies():
    xyz, labels = np.zeros((2, 3)), np.array([1, 2])
    cloud = PointCloud(xyz=xyz, labels=labels)
    xyz[0, 0], labels[0] = 5.0, 7
    assert cloud.xyz[0, 0] == 0.0 and cloud.labels[0] == 1
    with pytest.raises(ValueError):
        cloud.xyz[0, 0] = 1.0
    with pytest.raises(ValueError):
        cloud.labels[0] = 3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_normalize_always_lands_in_unit_cube(points):
    out = normalize_unit_cube(PointCloud(xyz=points))
    assert out.xyz.min() >= 0.0
    assert out.xyz.max() <= 1.0
    assert len(out) == len(points)
