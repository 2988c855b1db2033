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
A radius below the unit-cube diameter splits the rows into chunks
that follow the kd-tree's leaf order, so each chunk's centers lie
close together. One kd-tree pair query per chunk (a small tree over the
chunk's centers against the cloud's tree) returns every (center,
neighbor) pair as two integer arrays, with the same d^2 <= r^2 test as
a linear scan and no Python object per pair; each pair is coded by
octant one axis at a time and the codes are bincounted. A larger
radius covers the whole cloud, and a center's octant counts are then
3-D dominance counts: with L_S the number of points whose coordinates
on every axis in S are <= the center's, octant 0 holds L_xyz points and
the other seven follow by inclusion-exclusion over L_x, L_y, L_z, L_xy,
L_xz, L_yz and L_xyz. Every "<=" count is a
`searchsorted(side="right")` over sorted values, so a coordinate equal
to the center's is counted as <= and goes left, as in the definition.
The 2-D and 3-D counts split each prefix of a sorted order into aligned
power-of-two blocks (Bentley, "Multidimensional divide-and-conquer",
CACM 1980), which takes O(n log^2 n) time for the whole cloud. Both
regimes split into independent tasks, radius chunks or the whole
cloud's axes, 2-D counts and block levels, whose numpy and kd-tree
calls run mostly without the interpreter lock; one dispatch runs them
on `threads` worker threads, or in the calling thread when that is
one. Both yield (n, 8) counts that one finishing step turns into
coefficients. The reference is the paper's
definition in `prodcoef.dyadic`: `DyadicTree.from_leaf_masses` of a
neighborhood's octant counts, then `coefficients_from_measure`. The
tests build their oracle from it and compare bit for bit. Last, every
column is min-max rescaled by `prodcoef.matrix.rescale_unit_columns`,
the same function that normalizes a cloud per axis.
"""

from __future__ import annotations

import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .matrix import FeatureMatrix, rescale_unit_columns
from .pointcloud import PointCloud
from .workers import worker_count

log = logging.getLogger("prodcoef")

FEATURE_COLUMNS = ("x", "y", "z", "a_s", "a_ls", "a_rs", "a_lls", "a_rls", "a_lrs", "a_rrs")

# Any radius >= the unit-cube diameter makes every neighborhood the whole
# cloud; extraction then switches to dominance counts that never
# enumerate (center, neighbor) pairs.
_FULL_CLOUD_RADIUS = math.sqrt(3.0)

# Rows per radius task, taken in leaf order. A chunk holds every
# (center, neighbor) pair of its rows in int64/float64 temporaries, so
# it is kept small enough that the threads' pair buffers do not raise
# the peak memory; with fewer rows the fixed cost of a pair query
# dominates. 64 was fastest at 6,000 points (r=0.12) and 40,000 points
# (r=0.06) on a 2-vCPU machine, among 16 to 256.
_RADIUS_CHUNK = 64


@dataclass(frozen=True)
class NeighborhoodSpec:
    radius: float = 2.0
    include_center: bool = True

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValidationError(f"radius must be positive, got {self.radius}")


class SpatialIndex:
    """kd-tree over normalized points with deterministic radius queries.

    Queries find exactly {p : ||p - center||_2 <= radius}, the points a
    linear scan accepts with d^2 <= radius^2.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"expected (n, 3) points, got {points.shape}")
        # Imported here so that stages which never build a tree do not
        # pay for loading scipy.spatial.
        from scipy.spatial import cKDTree

        self._tree = cKDTree(points, leafsize=16, balanced_tree=True)

    @property
    def leaf_order(self) -> np.ndarray:
        """Every point id once, leaf by leaf: ids close in this order are
        close in space."""
        return self._tree.indices

    def radius_pairs(self, ids: np.ndarray, radius: float):
        """Every (k, j) with point j within radius of point ids[k], from one
        kd-tree pair query.

        Returns (k, j) as two equal-length integer arrays in no fixed
        order; the j of one k are exactly the points a linear scan
        accepts around point ids[k].
        """
        from scipy.spatial import cKDTree

        centers = cKDTree(self._tree.data[ids], leafsize=16)
        pairs = centers.sparse_distance_matrix(self._tree, radius, output_type="ndarray")
        return pairs["i"], pairs["j"]


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
                          ids: np.ndarray) -> np.ndarray:
    """(len(ids), 8) octant counts of rows ids over their radius neighborhoods."""
    rows, neighbors = index.radius_pairs(ids, radius)
    codes = rows * 8
    # One axis at a time keeps every temporary to one value per pair.
    for axis, bit in ((0, 4), (1, 2), (2, 1)):
        column = xyz[:, axis]
        codes += (column[neighbors] > column[ids][rows]) * bit  # False (<=) -> left child
    return np.bincount(codes, minlength=len(ids) * 8).reshape(-1, 8)


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


def _map_tasks(fn, tasks, threads: int) -> list:
    """[fn(task) for task in tasks], run on a pool of
    worker_count(threads, len(tasks)) threads, or in this thread when
    that count is 1. A task's exception is raised here."""
    workers = worker_count(threads, len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, tasks))


def _axis_counts(xyz: np.ndarray, axis: int):
    """Per point, how many points are <= it on `axis`, and for x and y
    (not z) the point ids ordered by that count."""
    column = xyz[:, axis]
    le = np.searchsorted(np.sort(column), column, side="right")
    return le, np.argsort(le) if axis < 2 else None


def _xy_level_counts(lx: np.ndarray, y_by_x: np.ndarray, z_by_x: np.ndarray,
                     rank: np.ndarray, level: int):
    """(hit, L_xy part, L_xyz part): the points whose x prefix holds an
    aligned block of 2**level points in x order, and how many of that
    block's points are <= each of them on y, and on y and z."""
    # Block (lx >> level) - 1 of 2**level points in x order is part of
    # the center's x prefix when that bit of lx is set.
    hit = np.flatnonzero((lx >> level) & 1)
    if len(hit) == 0:
        return hit, hit, hit
    n = len(lx)
    block = (lx[hit] >> level) - 1
    keys = (np.arange(n) >> level) * n + y_by_x
    by_block_y = np.argsort(keys)
    below = np.searchsorted(keys[by_block_y], block * n + rank[1, hit],
                            side="right") - (block << level)
    return hit, below, _counts_in_aligned_blocks(z_by_x[by_block_y], block, below,
                                                 rank[2, hit], level)


def _octant_counts_whole_cloud(xyz: np.ndarray, threads: int = 1) -> np.ndarray:
    """(n, 8) octant counts of every point over the whole cloud.

    L_S[i] is the number of points j with xyz[j, a] <= xyz[i, a] on every
    axis a in S, ties counted. The 1-D counts come from a sorted axis;
    L_xz and L_yz count z-ranks within a prefix of the x (y) order;
    L_xy and L_xyz walk the aligned blocks of the x prefix, sort each
    block by y, count its y-ranks <= the center's and, within those,
    its z-ranks. The three axes, then L_xz, L_yz and each block level
    are independent pieces on `threads` workers; each level adds its
    integer counts as it finishes, so their order changes no bit and at
    most `threads` levels' temporaries are alive.
    """
    n = len(xyz)
    top = max(n - 1, 1).bit_length()  # 2**top >= n
    (lx, by_x), (ly, by_y), (lz, _) = _map_tasks(partial(_axis_counts, xyz), range(3),
                                                 threads)
    rank = np.stack([lx, ly, lz]) - 1  # equal coordinates share a rank
    y_by_x, z_by_x = rank[1:, by_x]
    zeros = np.zeros(n, dtype=np.int64)
    lxy, lxz, lyz, lxyz = np.zeros((4, n), dtype=np.int64)
    lock = threading.Lock()

    def add_piece(piece):
        if piece == "xz":
            lxz[:] = _counts_in_aligned_blocks(z_by_x, zeros, lx, rank[2], top)
        elif piece == "yz":
            lyz[:] = _counts_in_aligned_blocks(rank[2, by_y], zeros, ly, rank[2], top)
        else:
            hit, below, within = _xy_level_counts(lx, y_by_x, z_by_x, rank, piece)
            with lock:  # a point takes counts from several levels
                lxy[hit] += below
                lxyz[hit] += within

    # The costliest pieces first: L_xz and L_yz, then level l, which
    # sorts the whole cloud l + 2 times.
    _map_tasks(add_piece, ["xz", "yz", *range(top, -1, -1)], threads)

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


def extract_features(cloud: PointCloud, spec: NeighborhoodSpec | None = None,
                     threads: int = 1) -> FeatureMatrix:
    """One 10-column feature row per point, in cloud order.

    Columns are x, y, z and the seven neighborhood coefficients in
    level order; after assembly every column is min-max rescaled onto
    [0,1] (constant columns become 0.5). `threads` workers share the
    radius neighborhoods' row chunks or the whole-cloud count's pieces;
    every row's counts are exact integers however the work is split, so
    the thread count never changes the result. The minimum, median and
    maximum neighborhood size are logged at INFO.
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
        sizes, raw[:, 3:] = _finish_octant_counts(_octant_counts_whole_cloud(xyz, threads),
                                                  spec.include_center)
    else:
        index = SpatialIndex(xyz)
        sizes = np.empty(n, dtype=np.int64)

        def worker(ids):
            counts = _octant_counts_radius(xyz, index, spec.radius, ids)
            sizes[ids], raw[ids, 3:] = _finish_octant_counts(counts, spec.include_center)

        order = index.leaf_order
        chunks = [order[lo:lo + _RADIUS_CHUNK] for lo in range(0, n, _RADIUS_CHUNK)]
        _map_tasks(worker, chunks, threads)

    log.info("neighborhood sizes: min %d, median %s, max %d",
             sizes.min(), float(np.median(sizes)), sizes.max())

    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        raise ValidationError(
            f"empty neighborhood: {len(empty)} of {n} rows have no points to "
            f"measure besides the center (first: row {empty[0]})"
        )

    return FeatureMatrix(
        values=rescale_unit_columns(raw, raw.min(axis=0), raw.max(axis=0)),
        column_names=FEATURE_COLUMNS,
        labels=cloud.labels,
    )
