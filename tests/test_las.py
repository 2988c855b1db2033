import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodcoef.cli import main
from prodcoef.errors import ConsistencyError, FormatError, UnsupportedError
from prodcoef.las import read_las

from conftest import build_las


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


def _uint(bits, near=None):
    """Any unsigned value of `bits` bits, with small values (0..near) drawn
    more often, since those sit next to the reader's bounds."""
    every = st.integers(0, 2**bits - 1)
    return every if near is None else st.one_of(st.integers(0, near), every)


# Header field -> (byte offset, struct layout, values to write there).
_HEADER_MUTATIONS = {
    "version": (24, "<BB", st.one_of(st.sampled_from([(1, 2), (1, 3), (1, 4)]),
                                     st.tuples(_uint(8), _uint(8)))),
    "format byte": (104, "<B", st.tuples(_uint(8, near=9))),
    "record length": (105, "<H", st.tuples(_uint(16, near=80))),
    "header size": (94, "<H", st.tuples(_uint(16, near=400))),
    "offset to points": (96, "<I", st.tuples(_uint(32, near=600))),
    "legacy count": (107, "<I", st.tuples(_uint(32, near=12))),
    "1.4 count": (247, "<Q", st.tuples(_uint(64, near=12))),
}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from([((1, 2), 0), ((1, 3), 3), ((1, 4), 1), ((1, 4), 6), ((1, 4), 8)]),
    mutations=st.fixed_dictionaries({}, optional={
        name: values for name, (_, _, values) in _HEADER_MUTATIONS.items()}),
    keep_bytes=st.one_of(st.none(), st.integers(0, 700)),
)
def test_mutated_header_reads_or_fails_with_its_exit_code(tmp_path, base, mutations,
                                                          keep_bytes):
    # A header the writer never makes either reads as a cloud or fails
    # with a format (exit 2) or consistency (exit 3) error, never with an
    # unmapped exception. A 1.2 or 1.3 file has point records where 1.4
    # keeps its 64-bit count, so that mutation hits the body there.
    version, point_format = base
    data = bytearray(build_las([(i, 2 * i, -i) for i in range(8)], classifications=range(8),
                               version=version, point_format=point_format))
    for name, values in mutations.items():
        at, layout, _ = _HEADER_MUTATIONS[name]
        struct.pack_into(layout, data, at, *values)
    if keep_bytes is not None:
        del data[keep_bytes:]
    path = tmp_path / "mutated.las"
    path.write_bytes(bytes(data))
    try:
        cloud, header = read_las(path)
    except (FormatError, ConsistencyError) as exc:
        assert exc.exit_code == (3 if isinstance(exc, ConsistencyError) else 2)
    else:
        assert cloud.xyz.shape == (header.point_count, 3)
        assert cloud.labels.shape == (header.point_count,)


def test_zero_point_las_stops_ingest_with_validation_exit(las_file, tmp_path, capsys):
    # A header that declares no points reads as an empty cloud, which
    # normalization refuses.
    path = las_file(raw_xyz=[(1, 2, 3)], declared_count=0)
    cloud, header = read_las(path)
    assert len(cloud) == header.point_count == 0
    assert main(["ingest", "--input", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: cannot normalize an empty point cloud\n"
