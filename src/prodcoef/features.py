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
A radius below the unit-cube diameter takes every neighbor id of a
chunk of rows from one kd-tree query, codes each (center, neighbor)
pair by octant and bincounts the codes; chunks run on `threads`
workers. A larger radius covers the whole cloud, and a center's octant
counts are then 3-D dominance counts: with L_S the number of points
whose coordinates on every axis in S are <= the center's, octant 0
holds L_xyz points and the other seven follow by inclusion-exclusion
over L_x, L_y, L_z, L_xy, L_xz, L_yz and L_xyz. Every "<=" count is a
`searchsorted(side="right")` over sorted values, so a coordinate equal
to the center's is counted as <= and goes left, as in the definition.
The 2-D and 3-D counts split each prefix of a sorted order into aligned
power-of-two blocks (Bentley, "Multidimensional divide-and-conquer",
CACM 1980), which takes O(n log^2 n) time for the whole cloud in one
single-threaded pass. Both regimes yield (n, 8) counts that one
finishing step turns into coefficients. The reference is the paper's
definition in `prodcoef.dyadic`: `DyadicTree.from_leaf_masses` of a
neighborhood's octant counts, then `coefficients_from_measure`. The
tests build their oracle from it and compare bit for bit.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix
from .pointcloud import PointCloud
from .workers import worker_count

FEATURE_COLUMNS = ("x", "y", "z", "a_s", "a_ls", "a_rs", "a_lls", "a_rls", "a_lrs", "a_rrs")

# Any radius >= the unit-cube diameter makes every neighborhood the whole
# cloud; extraction then switches to dominance counts that never
# materialize neighbor id lists.
_FULL_CLOUD_RADIUS = math.sqrt(3.0)

# Rows per radius task. A chunk holds every (center, neighbor) pair of
# its rows in int64/float64 temporaries, so it is kept small enough
# that the threads' pair buffers do not raise the peak memory.
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

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"expected (n, 3) points, got {points.shape}")
        # Imported here so that stages which never build a tree do not
        # pay for loading scipy.spatial.
        from scipy.spatial import cKDTree

        self._tree = cKDTree(points, leafsize=16, balanced_tree=True)

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


def _coefficients_from_octant_counts(counts: np.ndarray) -> np.ndarray:
    """Vectorized (n, 8) octant counts -> (n, 7) level-order coefficients.

    Exactly the same float operations as DyadicTree.from_leaf_masses
    followed by coefficients_from_measure, so the batched count gives
    the dyadic definition's coefficients bit for bit.
    """
    leaf = counts.T.astype(np.float64, order="C")
    n4 = leaf[0] + leaf[1]
    n5 = leaf[2] + leaf[3]
    n6 = leaf[4] + leaf[5]
    n7 = leaf[6] + leaf[7]
    n2 = n4 + n5
    n3 = n6 + n7
    n1 = n2 + n3
    nodes = ((n1, n2, n3), (n2, n4, n5), (n3, n6, n7), (n4, leaf[0], leaf[1]),
             (n5, leaf[2], leaf[3]), (n6, leaf[4], leaf[5]), (n7, leaf[6], leaf[7]))
    # One node at a time keeps the temporaries to single columns, which
    # matters when the whole cloud is finished in one call.
    out = np.empty((len(counts), 7), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, (parent, left, right) in enumerate(nodes):
            out[:, col] = np.where(parent > 0.0, (left - right) / parent, 0.0)
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


def _counts_in_aligned_blocks(stored: np.ndarray, block: np.ndarray, length: np.ndarray,
                              query: np.ndarray, top: int) -> np.ndarray:
    """Per query i, how many of stored[b*2^top : b*2^top + length[i]] are
    <= query[i], with b = block[i] and 0 <= length[i] <= 2^top.

    stored holds integer ranks in [0, n). The range splits into one
    aligned sub-block of size 2^level per set bit of length; for each
    level every sub-block of that size is sorted at once under the key
    sub-block*n + rank, and one searchsorted(side="right") counts the
    ranks <= the query, ties included, in all the sub-blocks asked for.
    """
    n = len(stored)
    position = np.arange(n)
    counts = np.zeros(len(length), dtype=np.int64)
    for level in range(top + 1):
        hit = np.flatnonzero((length >> level) & 1)
        if len(hit) == 0:
            continue
        sub = (block[hit] << (top - level)) + (length[hit] >> level) - 1
        keys = np.sort((position >> level) * n + stored)
        needles = sub * n + query[hit]
        # Sorted needles walk the keys in order; random probes miss the
        # cache and made the whole-cloud count 1.6x slower at 277,572
        # points (2-vCPU x86 machine).
        order = np.argsort(needles)
        found = np.empty_like(needles)
        found[order] = np.searchsorted(keys, needles[order], side="right")
        # Every sub-block before this one is full, so the count of the
        # keys in front of it is sub * 2^level.
        counts[hit] += found - (sub << level)
    return counts


def _octant_counts_whole_cloud(xyz: np.ndarray) -> np.ndarray:
    """(n, 8) octant counts of every point over the whole cloud.

    L_S[i] is the number of points j with xyz[j, a] <= xyz[i, a] on every
    axis a in S, ties counted. The 1-D counts come from a sorted axis;
    L_xz and L_yz count z-ranks within a prefix of the x (y) order;
    L_xy and L_xyz walk the aligned blocks of the x prefix, sort each
    block by y, count its y-ranks <= the center's and, within those,
    its z-ranks.
    """
    n = len(xyz)
    top = max(n - 1, 1).bit_length()  # 2**top >= n
    le = np.empty((3, n), dtype=np.int64)
    for axis in range(3):
        le[axis] = np.searchsorted(np.sort(xyz[:, axis]), xyz[:, axis], side="right")
    lx, ly, lz = le
    rank = le - 1  # equal coordinates share a rank
    by_x = np.argsort(lx)
    by_y = np.argsort(ly)
    zeros = np.zeros(n, dtype=np.int64)
    lxz = _counts_in_aligned_blocks(rank[2, by_x], zeros, lx, rank[2], top)
    lyz = _counts_in_aligned_blocks(rank[2, by_y], zeros, ly, rank[2], top)

    lxy = np.zeros(n, dtype=np.int64)
    lxyz = np.zeros(n, dtype=np.int64)
    position = np.arange(n)
    y_by_x, z_by_x = rank[1, by_x], rank[2, by_x]
    for level in range(top + 1):
        # Block (lx >> level) - 1 of 2**level points in x order is part of
        # the center's x prefix when that bit of lx is set.
        hit = np.flatnonzero((lx >> level) & 1)
        if len(hit) == 0:
            continue
        block = (lx[hit] >> level) - 1
        keys = (position >> level) * n + y_by_x
        by_block_y = np.argsort(keys)
        below = np.searchsorted(keys[by_block_y], block * n + rank[1, hit],
                                side="right") - (block << level)
        lxy[hit] += below
        lxyz[hit] += _counts_in_aligned_blocks(z_by_x[by_block_y], block, below,
                                               rank[2, hit], level)

    counts = np.empty((n, 8), dtype=np.int64)
    counts[:, 0] = lxyz
    counts[:, 1] = lxy - lxyz
    counts[:, 2] = lxz - lxyz
    counts[:, 3] = lx - lxy - lxz + lxyz
    counts[:, 4] = lyz - lxyz
    counts[:, 5] = ly - lxy - lyz + lxyz
    counts[:, 6] = lz - lxz - lyz + lxyz
    counts[:, 7] = n - lx - ly - lz + lxy + lxz + lyz - lxyz
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
    [0,1] (constant columns become 0.5). `threads` workers share the
    radius neighborhoods' row chunks; a whole-cloud radius runs one
    single-threaded pass. Rows are computed independently, so the
    thread count never changes the result.
    """
    spec = spec or NeighborhoodSpec()
    if len(cloud) == 0:
        raise ValidationError("cannot extract features from an empty cloud")
    if not cloud.normalized:
        raise ValidationError("cloud must be normalized to the unit cube first")

    n = len(cloud)
    xyz = cloud.xyz
    raw = np.empty((n, 10), dtype=np.float64)
    raw[:, :3] = xyz
    if spec.radius >= _FULL_CLOUD_RADIUS:
        sizes, raw[:, 3:] = _finish_octant_counts(_octant_counts_whole_cloud(xyz),
                                                  spec.include_center)
    else:
        index = SpatialIndex(xyz)
        sizes = np.empty(n, dtype=np.int64)

        def worker(lo, hi):
            counts = _octant_counts_radius(xyz, index, spec.radius, lo, hi)
            sizes[lo:hi], raw[lo:hi, 3:] = _finish_octant_counts(counts, spec.include_center)

        chunks = [(lo, min(lo + _RADIUS_CHUNK, n)) for lo in range(0, n, _RADIUS_CHUNK)]
        threads = worker_count(threads, len(chunks))
        if threads > 1:
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
