import numpy as np
import pytest

from prodcoef.errors import ConsistencyError, FormatError, UnsupportedError
from prodcoef.las import read_las


def test_scale_offset_arithmetic(las_file):
    path = las_file(
        raw_xyz=[(100, 200, 300), (0, 0, 0), (-50, 25, 1)],
        scale=(0.01, 0.01, 0.01),
        offset=(0.0, 0.0, 0.0),
    )
    cloud, header = read_las(path)
    assert cloud.xyz[0].tolist() == [1.0, 2.0, 3.0]
    assert header.point_count == 3
    assert header.version == (1, 2)
    assert not cloud.normalized


def test_coordinates_bit_for_bit(las_file):
    rng = np.random.default_rng(3)
    raw = rng.integers(-(2**28), 2**28, size=(200, 3))
    scale = (0.001, 0.01, 0.1)
    offset = (1000.5, -2000.25, 77.0)
    cloud, _ = read_las(las_file(raw_xyz=raw, scale=scale, offset=offset))
    for axis in range(3):
        expected = raw[:, axis].astype(np.float64) * scale[axis] + offset[axis]
        np.testing.assert_array_equal(cloud.xyz[:, axis], expected)


def test_classification_low_five_bits_for_legacy_formats(las_file):
    # 0x22 = flags in the top bits + class 2 in the low five.
    path = las_file(raw_xyz=[(0, 0, 0)], classifications=[0x22], point_format=0)
    cloud, _ = read_las(path)
    assert cloud.labels.tolist() == [2]


def test_classification_full_byte_for_new_formats(las_file):
    path = las_file(
        raw_xyz=[(0, 0, 0)], classifications=[200], point_format=6, version=(1, 4)
    )
    cloud, header = read_las(path)
    assert cloud.labels.tolist() == [200]
    assert header.point_record_format == 6
    assert header.version == (1, 4)


@pytest.mark.parametrize("fmt", [0, 1, 2, 3, 4, 5])
def test_legacy_formats_parse(las_file, fmt):
    cloud, header = read_las(
        las_file(raw_xyz=[(10, 20, 30)], classifications=[5], point_format=fmt)
    )
    assert header.point_record_format == fmt
    assert cloud.labels.tolist() == [5]
    assert cloud.xyz[0].tolist() == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("fmt", [6, 7, 8])
def test_14_formats_parse(las_file, fmt):
    cloud, header = read_las(
        las_file(raw_xyz=[(10, 20, 30)], classifications=[9],
                 point_format=fmt, version=(1, 4))
    )
    assert header.point_record_format == fmt
    assert cloud.labels.tolist() == [9]


def test_extra_bytes_per_record_are_skipped(las_file):
    path = las_file(raw_xyz=[(1, 2, 3), (4, 5, 6)], record_len=25)
    cloud, _ = read_las(path)
    assert len(cloud) == 2
    assert cloud.xyz[1].tolist() == [0.04, 0.05, 0.06]


def test_truncated_body_names_byte_offset(las_file):
    path = las_file(raw_xyz=[(i, i, i) for i in range(10)], truncate_records=1)
    with pytest.raises(ConsistencyError, match="byte"):
        read_las(path)


def test_declared_count_exceeds_body(las_file):
    path = las_file(raw_xyz=[(i, i, i) for i in range(9)], declared_count=10)
    with pytest.raises(ConsistencyError):
        read_las(path)


def test_bad_magic(las_file):
    with pytest.raises(FormatError, match="magic"):
        read_las(las_file(raw_xyz=[(0, 0, 0)], magic=b"LAZF"))


def test_unsupported_version(las_file):
    with pytest.raises(UnsupportedError):
        read_las(las_file(raw_xyz=[(0, 0, 0)], version=(1, 1)))


def test_unsupported_format(las_file):
    with pytest.raises(UnsupportedError):
        read_las(las_file(raw_xyz=[(0, 0, 0)], format_byte=9, record_len=70))


def test_compressed_flag_rejected(las_file):
    with pytest.raises(UnsupportedError, match="LAZ"):
        read_las(las_file(raw_xyz=[(0, 0, 0)], format_byte=0x80))


def test_non_positive_scale_rejected(las_file):
    with pytest.raises(FormatError, match="scale"):
        read_las(las_file(raw_xyz=[(0, 0, 0)], scale=(0.0, 0.01, 0.01)))


@pytest.mark.parametrize("scale, offset, raw, field", [
    ((float("nan"), 0.01, 0.01), (0.0, 0.0, 0.0), 1, r"non-finite X coordinate scale nan"),
    ((0.01, float("inf"), 0.01), (0.0, 0.0, 0.0), 1, r"non-finite Y coordinate scale inf"),
    ((0.01, 0.01, 0.01), (0.0, 0.0, float("nan")), 1, r"non-finite Z coordinate offset nan"),
    ((0.01, 0.01, 0.01), (float("-inf"), 0.0, 0.0), 1, r"non-finite X coordinate offset -inf"),
    ((0.01, 1e308, 0.01), (0.0, 0.0, 0.0), 2, r"Y coordinate scale 1e\+308 .*overflow"),
    ((0.01, 0.01, 1e300), (0.0, 0.0, 1.7e308), 10**8, r"Z coordinate .*offset 1\.7e\+308 overflow"),
], ids=["nan scale", "inf scale", "nan offset", "-inf offset", "scale overflow",
        "offset overflow"])
def test_non_finite_or_overflowing_scale_and_offset_rejected(las_file, scale, offset, raw, field):
    path = las_file(name="odd.las", raw_xyz=[(0, 0, 0), (raw, raw, raw)], scale=scale,
                    offset=offset)
    with pytest.raises(FormatError, match=rf"odd\.las: {field}"):
        read_las(path)


def test_missing_file(tmp_path):
    with pytest.raises(FormatError):
        read_las(tmp_path / "missing.las")


def test_not_las_at_all(tmp_path):
    path = tmp_path / "short.las"
    path.write_bytes(b"LA")
    with pytest.raises(FormatError):
        read_las(path)


def test_las_14_uses_64bit_count(las_file):
    path = las_file(
        raw_xyz=[(1, 1, 1), (2, 2, 2)], version=(1, 4), point_format=6
    )
    _, header = read_las(path)
    assert header.point_count == 2
