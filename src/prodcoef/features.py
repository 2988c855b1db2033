"""Per-point product-coefficient features from spherical neighborhoods.

For each point we gather the neighbors within a radius, then build a
depth-3 dyadic counting measure by slicing the neighborhood at the
center's own coordinate: level 1 along x, level 2 along y, level 3
along z (ties go left: coordinate <= center goes to the left child, so
the center itself always lands in the leftmost leaf). The seven
non-leaf product coefficients of that tree become the point's features,
appended to x, y, z.

A point's seven coefficients depend only on how many neighbors fall in
each of its eight octants, so extraction is a batched octant count.
Rows are processed in chunks: a radius below the unit-cube diameter
takes every neighbor id of a chunk from one kd-tree query, codes each
(center, neighbor) pair by octant and bincounts the codes; a larger
radius covers the whole cloud and compares every center with every
point. Both regimes yield (n, 8) counts that one finishing step turns
into coefficients. `dyadic_measure_from_sphere` and
`point_product_coefficients` are the per-point reference definition
that the batched path must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicTree, coefficients_from_measure
from .errors import ValidationError
from .matrix import FeatureMatrix
from .pointcloud import PointCloud

FEATURE_COLUMNS = ("x", "y", "z", "a_s", "a_ls", "a_rs", "a_lls", "a_rls", "a_lrs", "a_rrs")

# Any radius >= the unit-cube diameter makes every neighborhood the whole
# cloud; extraction then switches to a counting path that never
# materializes neighbor id lists.
_FULL_CLOUD_RADIUS = math.sqrt(3.0)

# Rows per task. A radius chunk holds every (center, neighbor) pair of
# its rows in int64/float64 temporaries, so it is kept small enough
# that the threads' pair buffers do not raise the peak memory.
_CHUNK = 256
_RADIUS_CHUNK = 32


@dataclass(frozen=True)
class NeighborhoodSpec:
    radius: float = 2.0
    include_center: bool = True

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValidationError(f"radius must be positive, got {self.radius}")


class SpatialIndex:
    """kd-tree over normalized points with deterministic radius queries.

    Queries return exactly {p : ||p - center||_2 <= radius} as ids
    sorted ascending, identical to a linear scan.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 16):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"expected (n, 3) points, got {points.shape}")
        if leaf_size < 1:
            raise ValidationError(f"leaf_size must be positive, got {leaf_size}")
        # Imported here so that stages which never build a tree do not
        # pay for loading scipy.spatial.
        from scipy.spatial import cKDTree

        self.points = points
        self._tree = cKDTree(points, leafsize=leaf_size, balanced_tree=True)

    def query_radius(self, center, radius: float) -> np.ndarray:
        ids = self._tree.query_ball_point(np.asarray(center, dtype=np.float64), radius)
        return np.sort(np.asarray(ids, dtype=np.int64))

    def query_radius_many(self, centers: np.ndarray, radius: float):
        """Neighbor ids of many centers from one tree query.

        Returns (lengths, ids): the neighbors of centers[k] are the
        lengths[k] ids that follow those of centers[:k], in no fixed
        order. Each set equals query_radius(centers[k], radius).
        """
        lists = self._tree.query_ball_point(centers, radius, return_sorted=False)
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        ids = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                          count=int(lengths.sum()))
        return lengths, ids


def radius_neighbors(index: SpatialIndex, center, radius: float) -> np.ndarray:
    """Ids of all points within Euclidean distance <= radius of center."""
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    return index.query_radius(center, radius)


def dyadic_measure_from_sphere(neighbors: np.ndarray, center) -> DyadicTree:
    """Depth-3 counting measure of a neighborhood, sliced x -> y -> z.

    Each split plane passes through the center's own coordinate; a
    point with coordinate <= the center's goes to the left child.
    """
    neighbors = np.asarray(neighbors, dtype=np.float64).reshape(-1, 3)
    if len(neighbors) == 0:
        raise ValidationError("empty neighborhood: no points to measure")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    right = neighbors > center  # False (<=) -> left child
    codes = right[:, 0] * 4 + right[:, 1] * 2 + right[:, 2] * 1
    counts = np.bincount(codes, minlength=8)
    return DyadicTree.from_leaf_masses(counts)


@dataclass(frozen=True)
class PcFeatureRow:
    """The seven level-order coefficients of one point's neighborhood."""

    a_s: float
    a_ls: float
    a_rs: float
    a_lls: float
    a_rls: float
    a_lrs: float
    a_rrs: float
    neighbor_count: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.a_s, self.a_ls, self.a_rs, self.a_lls, self.a_rls, self.a_lrs, self.a_rrs]
        )


def point_product_coefficients(tree: DyadicTree) -> PcFeatureRow:
    """Read the 1 + 2 + 4 non-leaf coefficients off a depth-3 tree."""
    if tree.depth != 3:
        raise ValidationError(f"expected a depth-3 tree, got depth {tree.depth}")
    coeffs = coefficients_from_measure(tree).a
    return PcFeatureRow(
        a_s=float(coeffs[1]),
        a_ls=float(coeffs[2]),
        a_rs=float(coeffs[3]),
        a_lls=float(coeffs[4]),
        a_rls=float(coeffs[5]),
        a_lrs=float(coeffs[6]),
        a_rrs=float(coeffs[7]),
        neighbor_count=int(tree.root_mass),
    )


def _coefficients_from_octant_counts(counts: np.ndarray) -> np.ndarray:
    """Vectorized (n, 8) octant counts -> (n, 7) level-order coefficients.

    Exactly the same float operations as DyadicTree.from_leaf_masses
    followed by coefficients_from_measure, so the batched count gives
    the per-point reference's features bit for bit.
    """
    counts = counts.astype(np.float64)
    n4 = counts[:, 0] + counts[:, 1]
    n5 = counts[:, 2] + counts[:, 3]
    n6 = counts[:, 4] + counts[:, 5]
    n7 = counts[:, 6] + counts[:, 7]
    n2 = n4 + n5
    n3 = n6 + n7
    n1 = n2 + n3
    out = np.empty((len(counts), 7), dtype=np.float64)
    parents = np.stack([n1, n2, n3, n4, n5, n6, n7], axis=1)
    lefts = np.stack([n2, n4, n6, counts[:, 0], counts[:, 2], counts[:, 4], counts[:, 6]], axis=1)
    rights = np.stack([n3, n5, n7, counts[:, 1], counts[:, 3], counts[:, 5], counts[:, 7]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (lefts - rights) / parents
    out[:] = np.where(parents > 0.0, raw, 0.0)
    return out


def _octant_counts_radius(xyz: np.ndarray, index: SpatialIndex, radius: float,
                          start: int, stop: int) -> np.ndarray:
    """(m, 8) octant counts of rows start..stop over their radius neighborhoods."""
    centers = xyz[start:stop]
    lengths, ids = index.query_radius_many(centers, radius)
    rows = np.repeat(np.arange(stop - start), lengths)
    right = xyz[ids] > centers[rows]  # False (<=) -> left child
    codes = right[:, 0] * 4 + right[:, 1] * 2 + right[:, 2] * 1
    return np.bincount(rows * 8 + codes, minlength=(stop - start) * 8).reshape(-1, 8)


def _octant_counts_full_cloud(xyz: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(m, 8) octant counts of rows start..stop over the whole cloud."""
    # Radius covers the whole normalized cloud: count octant membership
    # directly instead of materializing n-sized neighbor lists per point.
    centers = xyz[start:stop]
    m = stop - start
    codes = (xyz[None, :, 0] > centers[:, None, 0]).astype(np.uint8) << 2
    codes |= (xyz[None, :, 1] > centers[:, None, 1]).astype(np.uint8) << 1
    codes |= (xyz[None, :, 2] > centers[:, None, 2]).astype(np.uint8)
    counts = np.empty((m, 8), dtype=np.int64)
    for j in range(m):
        counts[j] = np.bincount(codes[j], minlength=8)
    return counts


def _finish_octant_counts(counts: np.ndarray, include_center: bool):
    """(m, 8) octant counts including each center -> neighborhood sizes
    and (m, 7) coefficients, leaving the center out (in place) when
    asked to."""
    if not include_center:
        counts[:, 0] -= 1  # the center itself always sits in octant 0
    return counts.sum(axis=1), _coefficients_from_octant_counts(counts)


def _rescale_unit_columns(values: np.ndarray) -> np.ndarray:
    """Min-max each column onto [0,1]; constant columns become 0.5."""
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    out = np.empty_like(values)
    for col in range(values.shape[1]):
        if maxs[col] == mins[col]:
            out[:, col] = 0.5
        else:
            out[:, col] = (values[:, col] - mins[col]) / (maxs[col] - mins[col])
    return out


def extract_features(cloud: PointCloud, spec: NeighborhoodSpec | None = None,
                     threads: int = 1) -> FeatureMatrix:
    """One 10-column feature row per point, in cloud order.

    Columns are x, y, z and the seven neighborhood coefficients in
    level order; after assembly every column is min-max rescaled onto
    [0,1] (constant columns become 0.5). Rows are computed
    independently, so the thread count never changes the result.
    """
    spec = spec or NeighborhoodSpec()
    if len(cloud) == 0:
        raise ValidationError("cannot extract features from an empty cloud")
    if not cloud.normalized:
        raise ValidationError("cloud must be normalized to the unit cube first")

    n = len(cloud)
    xyz = cloud.xyz
    if spec.radius >= _FULL_CLOUD_RADIUS:
        chunk = _CHUNK
        kernel = lambda lo, hi: _octant_counts_full_cloud(xyz, lo, hi)
    else:
        chunk = _RADIUS_CHUNK
        index = SpatialIndex(xyz)
        kernel = lambda lo, hi: _octant_counts_radius(xyz, index, spec.radius, lo, hi)

    raw = np.empty((n, 10), dtype=np.float64)
    raw[:, :3] = xyz
    sizes = np.empty(n, dtype=np.int64)

    def worker(lo, hi):
        sizes[lo:hi], raw[lo:hi, 3:] = _finish_octant_counts(kernel(lo, hi), spec.include_center)

    chunks = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, lo, hi) for lo, hi in chunks]
            for future in futures:
                future.result()
    else:
        for lo, hi in chunks:
            worker(lo, hi)

    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        raise ValidationError(
            f"empty neighborhood: {len(empty)} of {n} rows have no points to "
            f"measure besides the center (first: row {empty[0]})"
        )

    return FeatureMatrix(
        values=_rescale_unit_columns(raw),
        column_names=FEATURE_COLUMNS,
        labels=cloud.labels,
    )
