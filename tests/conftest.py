"""Shared fixtures: a minimal LAS writer for reader tests, and the
paper's per-point feature definition as the oracle for the batched
feature kernel.

The LAS writer only fabricates test inputs; the package itself never
writes LAS.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from prodcoef.dyadic import DyadicTree, coefficients_from_measure


def dyadic_coefficients(neighbors, center):
    """The seven level-order coefficients of the depth-3 counting measure of
    `neighbors` sliced at `center` (x, then y, then z; <= center goes left),
    computed by the definition in prodcoef.dyadic."""
    right = np.asarray(neighbors).reshape(-1, 3) > np.asarray(center).reshape(3)
    counts = np.bincount(right[:, 0] * 4 + right[:, 1] * 2 + right[:, 2], minlength=8)
    return coefficients_from_measure(DyadicTree.from_leaf_masses(counts)).level_order


FORMAT_MIN_LEN = {0: 20, 1: 28, 2: 26, 3: 34, 4: 57, 5: 63, 6: 30, 7: 36, 8: 38}


def build_las(raw_xyz, classifications=None, version=(1, 2), point_format=0,
              scale=(0.01, 0.01, 0.01), offset=(0.0, 0.0, 0.0),
              record_len=None, declared_count=None, truncate_records=0,
              magic=b"LASF", format_byte=None, header_size=None):
    """Assemble LAS bytes from raw integer coordinates.

    Knobs like `declared_count` and `truncate_records` exist to
    fabricate corrupt files on purpose.
    """
    raw_xyz = np.asarray(raw_xyz, dtype=np.int64)
    n = len(raw_xyz)
    if classifications is None:
        classifications = [0] * n
    minor = version[1]
    if header_size is None:
        header_size = {2: 227, 3: 235, 4: 375}.get(minor, 227)
    if record_len is None:
        record_len = FORMAT_MIN_LEN[point_format]
    if declared_count is None:
        declared_count = n
    if format_byte is None:
        format_byte = point_format

    header = bytearray(header_size)
    header[0:4] = magic
    struct.pack_into("<BB", header, 24, version[0], version[1])
    struct.pack_into("<H", header, 94, header_size)
    struct.pack_into("<I", header, 96, header_size)  # points start right after
    struct.pack_into("<BH", header, 104, format_byte, record_len)
    legacy = declared_count if (minor < 4 and declared_count < 2**32) else 0
    struct.pack_into("<I", header, 107, legacy)
    struct.pack_into("<3d", header, 131, *scale)
    struct.pack_into("<3d", header, 155, *offset)
    if minor >= 4:
        struct.pack_into("<Q", header, 247, declared_count)

    body = bytearray()
    for (x, y, z), cls in zip(raw_xyz.tolist(), classifications):
        record = bytearray(record_len)
        struct.pack_into("<iii", record, 0, x, y, z)
        if point_format >= 6:
            record[16] = cls
        else:
            record[15] = cls
        body.extend(record)
    if truncate_records:
        body = body[: len(body) - truncate_records * record_len - 1]
    return bytes(header) + bytes(body)


@pytest.fixture
def las_file(tmp_path):
    def write(name="scene.las", **kwargs):
        path = tmp_path / name
        path.write_bytes(build_las(**kwargs))
        return path

    return write
