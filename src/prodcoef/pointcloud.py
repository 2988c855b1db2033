"""Point cloud container, CSV ingest, and unit-cube normalization.

Point CSVs share the feature CSV's on-disk format and its reader in
`prodcoef.matrix`; only the optional header is particular to points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix, read_numeric_csv, rescale_unit_columns, write_feature_csv

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
    numbers it is skipped. Rows follow the feature CSV's row rules
    (`prodcoef.matrix.read_numeric_csv`), and errors carry 1-based row
    numbers that count the header.
    """
    def layout(first):
        try:
            [float(cell) for cell in first or ()]
        except ValueError:
            return XYZ_COLUMNS, has_label, 2  # header row
        return XYZ_COLUMNS, has_label, 1

    _, xyz, labels = read_numeric_csv(path, layout, "coordinate")
    return PointCloud(xyz=xyz, labels=labels, source=str(path), normalized=False)


def write_csv(cloud: PointCloud, path) -> None:
    """Write `x,y,z[,label]` rows with a header, floats in repr form."""
    write_feature_csv(FeatureMatrix(cloud.xyz, XYZ_COLUMNS, cloud.labels), path)
