"""Point cloud container, CSV ingest, and unit-cube normalization.

A cloud is checked and frozen as a `prodcoef.matrix.FeatureMatrix`, and
point CSVs share the feature CSV's format and reader; only the (n, 3)
shape, the normalized range and the optional header are particular to
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choices import NORMALIZE_MODES
from .errors import ValidationError
from .matrix import (FeatureMatrix, is_number, read_numeric_csv, rescale_unit_columns,
                     write_feature_csv)

XYZ_COLUMNS = ("x", "y", "z")


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with optional integer class labels.

    Arrays are locked read-only: a cloud never mutates and is safe to
    share across workers.
    """

    xyz: np.ndarray
    labels: np.ndarray | None = None
    source: str = ""
    normalized: bool = False

    def __post_init__(self):
        shape = np.shape(self.xyz)
        if len(shape) != 2 or shape[1] != 3:
            raise ValidationError(f"expected (n, 3) coordinates, got shape {shape}")
        table = FeatureMatrix(self.xyz, XYZ_COLUMNS, self.labels)
        xyz = table.values
        if self.normalized and len(xyz) and (xyz.min() < 0.0 or xyz.max() > 1.0):
            raise ValidationError("normalized cloud has coordinates outside [0,1]")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "labels", table.labels)

    def __len__(self) -> int:
        return len(self.xyz)


def normalize_unit_cube(cloud: PointCloud, mode: str = "per-axis") -> PointCloud:
    """Rescale coordinates into [0,1]^3 and flag the cloud as normalized.

    `per-axis` maps each axis min/max onto 0/1 independently; `uniform`
    divides every axis by the largest span, preserving aspect ratio. An
    axis with zero span maps to the constant 0.5 (per-axis) or 0
    (uniform, unless every span is zero). An axis whose span overflows
    float64 is a ValidationError. Point order is kept.
    """
    if len(cloud) == 0:
        raise ValidationError("cannot normalize an empty point cloud")
    if cloud.normalized:
        raise ValidationError("point cloud is already normalized")
    if mode not in NORMALIZE_MODES:
        raise ValidationError(f"unknown normalization mode {mode!r}")

    mins = cloud.xyz.min(axis=0)
    maxs = cloud.xyz.max(axis=0)
    with np.errstate(over="ignore"):
        span = maxs - mins
    wide = np.flatnonzero(~np.isfinite(span))
    if len(wide):
        axis = wide[0]
        raise ValidationError(
            f"axis {XYZ_COLUMNS[axis]} spans min {float(mins[axis])!r} to max "
            f"{float(maxs[axis])!r}, a range beyond float64; cannot normalize"
        )

    if mode == "per-axis":
        out = rescale_unit_columns(cloud.xyz, mins, maxs)
    else:
        scale = span.max()
        out = np.full_like(cloud.xyz, 0.5) if scale == 0.0 else (cloud.xyz - mins) / scale

    return PointCloud(xyz=out, labels=cloud.labels, source=cloud.source, normalized=True)


def read_csv(path, has_label: bool = False) -> PointCloud:
    """Read a `x,y,z[,label]` CSV file into a point cloud.

    A header row is auto-detected: the first row is skipped when none of
    its cells parses as a number. A first row with a number in it is
    data, so a bad cell there is an error rather than a dropped point.
    Rows follow the feature CSV's row rules (`read_numeric_csv`), and
    errors carry 1-based row numbers that count the header.
    """
    def layout(first):
        if first and not any(map(is_number, first)):
            return XYZ_COLUMNS, has_label, 2  # header row
        return XYZ_COLUMNS, has_label, 1

    _, xyz, labels = read_numeric_csv(path, layout, "coordinate")
    return PointCloud(xyz=xyz, labels=labels, source=str(path), normalized=False)


def write_csv(cloud: PointCloud, path) -> None:
    """Write `x,y,z[,label]` rows with a header, floats in repr form."""
    write_feature_csv(FeatureMatrix(cloud.xyz, XYZ_COLUMNS, cloud.labels), path)
