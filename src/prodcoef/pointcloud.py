"""Point cloud container, CSV ingest, and unit-cube normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .matrix import FeatureMatrix, check_finite_rows, csv_rows, parse_label, write_feature_csv

NORMALIZE_MODES = ("per-axis", "uniform")
XYZ_COLUMNS = ("x", "y", "z")


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with optional integer class labels.

    `bounds` always refers to the ORIGINAL coordinates (row 0 mins,
    row 1 maxs), so the normalizing transform stays reconstructible
    after the fact. Arrays are locked read-only: a cloud never mutates
    and is safe to share across workers.
    """

    xyz: np.ndarray
    labels: np.ndarray | None = None
    source: str = ""
    normalized: bool = False
    bounds: np.ndarray | None = None

    def __post_init__(self):
        xyz = np.array(self.xyz, dtype=np.float64, copy=True)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValidationError(f"expected (n, 3) coordinates, got shape {xyz.shape}")
        if not np.isfinite(xyz).all():
            raise ValidationError("coordinates must be finite (no NaN/Inf)")
        xyz.flags.writeable = False
        object.__setattr__(self, "xyz", xyz)

        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64, copy=True)
            if labels.shape != (len(xyz),):
                raise ValidationError("labels must align one-to-one with points")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

        bounds = self.bounds
        if bounds is None and len(xyz) > 0:
            bounds = np.vstack([xyz.min(axis=0), xyz.max(axis=0)])
        if bounds is not None:
            bounds = np.array(bounds, dtype=np.float64, copy=True)
            if bounds.shape != (2, 3):
                raise ValidationError("bounds must be a (2, 3) min/max table")
            if (bounds[0] > bounds[1]).any():
                raise ValidationError("bounds min exceeds max")
            bounds.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)

        if self.normalized and len(xyz) > 0:
            if xyz.min() < 0.0 or xyz.max() > 1.0:
                raise ValidationError("normalized cloud has coordinates outside [0,1]")

    def __len__(self) -> int:
        return len(self.xyz)


def normalize_unit_cube(cloud: PointCloud, mode: str = "per-axis") -> PointCloud:
    """Rescale coordinates into [0,1]^3 and flag the cloud as normalized.

    `per-axis` maps each axis min/max onto 0/1 independently; `uniform`
    divides every axis by the largest span, preserving aspect ratio. An
    axis with zero span maps to the constant 0.5. Point order is kept.
    """
    if len(cloud) == 0:
        raise ValidationError("cannot normalize an empty point cloud")
    if cloud.normalized:
        raise ValidationError("point cloud is already normalized")
    if mode not in NORMALIZE_MODES:
        raise ValidationError(f"unknown normalization mode {mode!r}")

    mins = cloud.xyz.min(axis=0)
    maxs = cloud.xyz.max(axis=0)
    span = maxs - mins

    out = np.empty_like(cloud.xyz)
    if mode == "per-axis":
        for axis in range(3):
            if span[axis] == 0.0:
                out[:, axis] = 0.5
            else:
                out[:, axis] = (cloud.xyz[:, axis] - mins[axis]) / span[axis]
    else:
        scale = span.max()
        if scale == 0.0:
            out[:] = 0.5
        else:
            out[:] = (cloud.xyz - mins) / scale

    return PointCloud(
        xyz=out,
        labels=cloud.labels,
        source=cloud.source,
        normalized=True,
        bounds=np.vstack([mins, maxs]),
    )


def read_csv(path, has_label: bool = False) -> PointCloud:
    """Read a `x,y,z[,label]` CSV file into a point cloud.

    A header row is auto-detected: if the first row does not parse as
    numbers it is skipped. Errors carry 1-based row numbers that count
    the header.
    """
    expected = 4 if has_label else 3
    coords: list[tuple[float, float, float]] = []
    row_nums: list[int] = []
    labels: list[int] = []
    with csv_rows(path) as reader:
        for row_num, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row_num == 1:
                try:
                    [float(cell) for cell in row]
                except ValueError:
                    continue  # header row
            if len(row) != expected:
                raise FormatError(
                    f"{path} row {row_num}: expected {expected} fields, got {len(row)}"
                )
            try:
                coords.append(tuple(map(float, row[:3])))
            except ValueError:
                raise FormatError(f"{path} row {row_num}: non-numeric coordinate") from None
            row_nums.append(row_num)
            if has_label:
                labels.append(parse_label(row[3], path, row_num))

    xyz = np.array(coords, dtype=np.float64).reshape(len(coords), 3)
    check_finite_rows(xyz, row_nums, path, "coordinate")
    return PointCloud(
        xyz=xyz,
        labels=np.array(labels, dtype=np.int64) if has_label else None,
        source=str(path),
        normalized=False,
    )


def write_csv(cloud: PointCloud, path) -> None:
    """Write `x,y,z[,label]` rows with a header, floats in repr form."""
    write_feature_csv(FeatureMatrix(cloud.xyz, XYZ_COLUMNS, cloud.labels), path)
