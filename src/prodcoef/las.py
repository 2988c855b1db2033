"""Minimal LAS reader: spatial coordinates and classification only.

Supports LAS 1.2-1.4 with point record formats 0-8 (little-endian, per
the ASPRS container layout). Intensity, return counts, RGB, GPS time
and the other per-point attributes are deliberately skipped: the
pipeline consumes coordinates and class codes, nothing else. Writing
LAS and LAZ decompression are out of scope.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, FormatError, UnsupportedError
from .pointcloud import PointCloud

MAGIC = b"LASF"
SUPPORTED_VERSIONS = ((1, 2), (1, 3), (1, 4))
MAX_FORMAT = 8

# Minimum record length per point format, formats 0-8.
MIN_RECORD_LEN = {0: 20, 1: 28, 2: 26, 3: 34, 4: 57, 5: 63, 6: 30, 7: 36, 8: 38}

# Minimum header size per minor version (1.2, 1.3, 1.4).
MIN_HEADER_SIZE = {2: 227, 3: 235, 4: 375}

# Byte offset of the classification field inside a point record.
# Formats 0-5 store class in the low 5 bits at offset 15; formats 6-8
# use the full byte at offset 16.
_CLASS_OFFSET_LEGACY = 15
_CLASS_OFFSET_14 = 16


@dataclass(frozen=True)
class LasHeaderSummary:
    version: tuple[int, int]
    point_record_format: int
    point_count: int
    scale: tuple[float, float, float]
    offset: tuple[float, float, float]


def read_las(path) -> tuple[PointCloud, LasHeaderSummary]:
    """Parse the LAS file at `path` into (cloud, header summary); see
    `parse_las`."""
    return parse_las(read_bytes(path), path)


def read_bytes(path) -> bytes:
    """Every byte of the file at `path`; one that cannot be read is a
    FormatError naming it."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None


def parse_las(data: bytes, path) -> tuple[PointCloud, LasHeaderSummary]:
    """Parse `data`, the bytes of the LAS file at `path`, into (cloud,
    header summary).

    Coordinates are reconstructed as raw * scale + offset in float64.
    The classification byte becomes the point label (low 5 bits for
    formats 0-5, full byte for 6-8).
    """
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not a LAS file (bad magic bytes {data[:4]!r})")
    if len(data) < 227:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")

    major, minor = struct.unpack_from("<BB", data, 24)
    if (major, minor) not in SUPPORTED_VERSIONS:
        raise UnsupportedError(f"{path}: LAS version {major}.{minor} not supported")

    header_size, offset_to_points = struct.unpack_from("<HI", data, 94)
    fmt_byte, record_len = struct.unpack_from("<BH", data, 104)
    if fmt_byte & 0x80:
        raise UnsupportedError(f"{path}: LAZ-compressed point data not supported")
    fmt = fmt_byte & 0x7F
    if fmt > MAX_FORMAT:
        raise UnsupportedError(f"{path}: point record format {fmt} not supported")

    if header_size < MIN_HEADER_SIZE[minor]:
        raise FormatError(
            f"{path}: header size {header_size} below the LAS 1.{minor} minimum"
        )
    if len(data) < header_size or offset_to_points < header_size:
        raise FormatError(f"{path}: point data offset {offset_to_points} is malformed")
    if record_len < MIN_RECORD_LEN[fmt]:
        raise FormatError(
            f"{path}: record length {record_len} below format {fmt} minimum"
        )

    legacy_count = struct.unpack_from("<I", data, 107)[0]
    if minor >= 4:
        count = struct.unpack_from("<Q", data, 247)[0]
        if count == 0:
            count = legacy_count
    else:
        count = legacy_count

    scale = struct.unpack_from("<3d", data, 131)
    offset = struct.unpack_from("<3d", data, 155)
    for field, values in (("scale", scale), ("offset", offset)):
        for axis, value in zip("XYZ", values):
            if not math.isfinite(value):
                raise FormatError(f"{path}: non-finite {axis} coordinate {field} {value!r}")
    if any(s <= 0 for s in scale):
        raise FormatError(f"{path}: non-positive coordinate scale {scale}")

    end = offset_to_points + count * record_len
    if len(data) < end:
        raise ConsistencyError(
            f"{path}: point data truncated at byte {len(data)}; header "
            f"declares {count} records ending at byte {end}"
        )

    cls_offset = _CLASS_OFFSET_14 if fmt >= 6 else _CLASS_OFFSET_LEGACY
    record = np.dtype(
        {
            "names": ["X", "Y", "Z", "cls"],
            "formats": ["<i4", "<i4", "<i4", "u1"],
            "offsets": [0, 4, 8, cls_offset],
            "itemsize": record_len,
        }
    )
    records = np.frombuffer(data, dtype=record, count=count, offset=offset_to_points)

    xyz = np.empty((count, 3), dtype=np.float64)
    for axis, name in enumerate("XYZ"):
        # A finite scale and offset can still overflow float64 (a scale
        # of 1e308, say).
        with np.errstate(over="ignore"):
            xyz[:, axis] = records[name] * scale[axis] + offset[axis]
        bad = np.flatnonzero(~np.isfinite(xyz[:, axis]))
        if len(bad):
            raise FormatError(
                f"{path}: {name} coordinate scale {scale[axis]!r} and offset "
                f"{offset[axis]!r} overflow float64 at record {bad[0]}"
            )

    labels = records["cls"].astype(np.int64)
    if fmt < 6:
        labels &= 0x1F

    cloud = PointCloud(xyz=xyz, labels=labels, source=str(path), normalized=False)
    summary = LasHeaderSummary(
        version=(major, minor),
        point_record_format=fmt,
        point_count=count,
        scale=tuple(scale),
        offset=tuple(offset),
    )
    return cloud, summary
