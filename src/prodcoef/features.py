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
A radius below the unit-cube diameter uses a cell list (Allen &
Tildesley, "Computer Simulation of Liquids", 1987): the points are
sorted by x-y column, a square of side r/2, and then by z, so the
points of one column within a z slab are one run of positions. A
point's candidates are the points after it in its own column and the
points of the 12 columns after its own within 2 columns on each axis,
each within the slab z +- r. So every unordered pair is tested once,
with the same d^2 <= r^2 test as a linear scan, and a pair within the
radius adds one count to each point's octant around the other. A larger
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
regimes split into independent tasks, blocks of _BLOCK_CENTERS
consecutive centers, each counted in runs of at most _RUN_PAIRS
candidate pairs, or the whole cloud's axes, 2-D counts and block
levels, whose numpy calls run mostly without the interpreter lock;
one dispatch runs them on `threads` worker threads, or in the calling
thread when that is one. Both yield (n, 8) counts that one
finishing step turns into coefficients. The reference is the paper's
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

# Candidate pairs per run of radius centers, unless one center has more.
# A candidate holds 59 bytes of index, distance and code arrays, so a run
# stays near 4 MB.
_RUN_PAIRS = 1 << 16

# Consecutive centers in grid order per radius task; a task finds its
# centers' candidates once. On a 2-vCPU machine, blocks of 512, 1,024 and
# 2,048 centers counted within 3% of each other at one thread on a
# 6,000-point tile (r=0.12), a 40,000-point scene (r=0.06) and the
# 277,572-point proxy (r=0.02). At two threads 1,024 was the fastest on
# the tile (32.1 against 35.6 and 33.4 ms) and within 2% of 2,048 on the
# others; 4,096 took 39 ms on the tile, whose 6,000 centers it splits
# into two unequal tasks.
_BLOCK_CENTERS = 1024

# Relative slack on the column side and on the z slab. A pair that the
# d^2 <= r^2 test accepts is at most r * (1 + 4e-16) apart on any axis,
# and a column index carries a rounding error below 3e-10 of a column
# with at most _MAX_COLUMNS columns per axis, so with this slack no true
# neighbor lies more than 2 columns away or outside the slab, even on a
# column edge.
_GRID_SLACK = 1e-9

# Columns per axis at most: beyond this the rounding error of a column
# index would approach _GRID_SLACK.
_MAX_COLUMNS = 1 << 20

# A column and the 12 after it in (x, y) order within 2 columns on both
# axes, as (x, y) offsets: each unordered pair of columns is visited from
# one side.
_COLUMN_OFFSETS = np.array([(a, b) for a in range(3) for b in range(-2, 3) if (a, b) >= (0, 0)])


@dataclass(frozen=True)
class NeighborhoodSpec:
    radius: float = 2.0
    include_center: bool = True

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValidationError(f"radius must be positive, got {self.radius}")


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


class _ColumnGrid:
    """The points sorted by (x-y column, z), with the candidate runs
    that pair each point once with every point that can be within the
    radius.

    Columns are squares of side r/2 (with _GRID_SLACK) on the x-y
    plane, so a neighbor lies at most 2 columns away on both axes.
    Sorted by the key column * n + z-rank, the points of one column
    within a z slab are one contiguous run of positions. Every array
    here is indexed by sorted position.
    """

    def __init__(self, xyz: np.ndarray, radius: float):
        n = len(xyz)
        side = 0.5 * radius * (1.0 + _GRID_SLACK)
        # Keys and the needles searched for stay below (columns + 1) * n,
        # with columns <= cap**2, so they cannot overflow int64.
        cap = min(_MAX_COLUMNS, math.isqrt(np.iinfo(np.int64).max // n - 1))
        cells = []
        for coord in (xyz[:, 0], xyz[:, 1]):
            low = coord.min()
            step = max(side, (coord.max() - low) / max(cap - 1, 1))
            if step > 0:
                cells.append(np.minimum(np.floor((coord - low) / step), cap - 1).astype(np.int64))
            else:  # one coordinate on this axis, and r/2 rounds to 0
                cells.append(np.zeros(n, dtype=np.int64))
        self.nx, self.ny = (int(cell.max()) + 1 for cell in cells)
        z = xyz[:, 2]
        by_z = np.argsort(z, kind="stable")
        z_rank = np.empty(n, dtype=np.int64)
        z_rank[by_z] = np.arange(n)
        keys = (cells[0] * self.ny + cells[1]) * n + z_rank
        self.order = np.argsort(keys)
        self.keys = keys[self.order]
        self.xyz = [np.ascontiguousarray(xyz[self.order, axis]) for axis in range(3)]
        # The slab's z-ranks: z_rank >= low and < high exactly when
        # center z - h <= z <= center z + h.
        h = radius * (1.0 + _GRID_SLACK)
        sorted_z = z[by_z]
        self.low = np.searchsorted(sorted_z, self.xyz[2] - h, side="left")
        self.high = np.searchsorted(sorted_z, self.xyz[2] + h, side="right")

    def ranges(self, lo: int, hi: int):
        """(starts, ends), each (hi - lo, 13): the runs of positions
        [start, end) holding the candidates of the centers at positions
        lo..hi-1 in each of _COLUMN_OFFSETS, all after the center."""
        n = len(self.keys)
        a, b = np.divmod(self.keys[lo:hi, None] // n, self.ny)
        a = a + _COLUMN_OFFSETS[:, 0]
        b = b + _COLUMN_OFFSETS[:, 1]
        inside = (a < self.nx) & (b >= 0) & (b < self.ny)
        base = np.where(inside, a * self.ny + b, 0) * n
        starts = np.searchsorted(self.keys, base + self.low[lo:hi, None])
        ends = np.searchsorted(self.keys, base + self.high[lo:hi, None])
        # In its own column a center pairs only with the points after it.
        starts[:, 0] = np.arange(lo + 1, hi + 1)
        return starts, np.where(inside, ends, starts)


def _runs(totals: np.ndarray, budget: int):
    """Yield the (start, stop) of consecutive runs of centers, in order,
    given each center's candidate count in `totals`. Each run is the
    longest from its start with at most `budget` candidates, or a single
    center that has more."""
    through = np.cumsum(totals)  # candidates of the centers up to each
    a = 0
    while a < len(totals):
        b = int(np.searchsorted(through, through[a] - totals[a] + budget, side="right"))
        b = max(b, a + 1)
        yield a, b
        a = b


def _octant_counts_radius(xyz: np.ndarray, radius: float, threads: int = 1,
                          budget: int = _RUN_PAIRS) -> np.ndarray:
    """(n, 8) octant counts of every point over its radius neighborhood.

    Each unordered pair of points is tested once, from the one that
    comes first in the grid's order, with d^2 = (dx^2 + dy^2) + dz^2 <=
    r^2, the arithmetic of a linear scan. A kept pair adds j's octant
    around i to i's counts and i's around j to j's; a coordinate equal
    to the center's goes left for both. The tasks, blocks of
    _BLOCK_CENTERS consecutive centers in grid order, run on `threads`
    workers. Each splits its centers into runs with at most `budget`
    candidates, a center with more being a run alone, and adds each
    run's exact integer counts to one array, so their order changes no
    bit.
    """
    grid = _ColumnGrid(xyz, radius)
    r2 = radius * radius
    counts = np.zeros((len(xyz), 8), dtype=np.int64)
    counts[:, 0] = 1  # every center lies in its own octant 0
    lock = threading.Lock()
    # Each worker's candidate-sized arrays, reused from run to run:
    # fresh temporaries per run made the allocator hand pages back and
    # fault them in again, which cost a third to a half of the count at
    # 6,000 points (r=0.12) and 14,000 points (r=0.3) on a 2-vCPU machine.
    scratch = threading.local()

    def count(lo, starts, ends):
        hi = lo + len(starts)
        runs = ends - starts
        per_center = runs.sum(axis=1)
        lengths = runs.ravel()
        size = int(lengths.sum())
        # Candidate positions j, each run's start plus 0, 1, ... along
        # it, and each candidate's center i as an offset from lo.
        j = np.repeat(starts.ravel() - (np.cumsum(lengths) - lengths), lengths)
        j += np.arange(size)
        i = np.repeat(np.arange(hi - lo), per_center)
        if getattr(scratch, "size", -1) < size:
            scratch.size = size
            scratch.real = np.empty((5, size))
            scratch.code = np.empty((3, size), dtype=np.uint8)
        dx, dy, dz, d2, center = scratch.real[:, :size]
        for delta, coord in zip((dx, dy, dz), grid.xyz):
            # Every index is in range; mode="clip" only skips take's
            # buffered copy for out=.
            np.take(coord, j, out=delta, mode="clip")
            np.take(coord[lo:hi], i, out=center, mode="clip")
            delta -= center
        np.multiply(dx, dx, out=d2)
        for delta in (dy, dz):
            np.multiply(delta, delta, out=center)
            d2 += center
        # Octant code of j around i and of i around j, plus 8 for a pair
        # beyond the radius. dx > 0 exactly when x_j > x_i, which sends j
        # right of i; dx < 0 sends i right of j; equal values go left.
        around_i, around_j, bits = scratch.code[:, :size]
        np.greater(d2, r2, out=bits.view(bool))
        np.left_shift(bits, 3, out=around_i)
        around_j[:] = around_i
        for shift, delta in ((2, dx), (1, dy), (0, dz)):
            np.greater(delta, 0, out=bits.view(bool))
            bits <<= shift
            around_i |= bits
            np.less(delta, 0, out=bits.view(bool))
            bits <<= shift
            around_j |= bits
        width = int(ends.max()) - lo  # the points the run's pairs touch
        i <<= 4
        i += around_i
        j -= lo
        j <<= 4
        j += around_j
        own = np.bincount(i, minlength=16 * (hi - lo)).reshape(-1, 16)[:, :8]
        other = np.bincount(j, minlength=16 * width).reshape(-1, 16)[:, :8]
        with lock:  # the points of several runs overlap
            counts[lo:hi] += own
            counts[lo:lo + width] += other

    def count_block(lo):
        starts, ends = grid.ranges(lo, min(lo + _BLOCK_CENTERS, len(xyz)))
        for a, b in _runs((ends - starts).sum(axis=1), budget):
            count(lo + a, starts[a:b], ends[a:b])

    _map_tasks(count_block, range(0, len(xyz), _BLOCK_CENTERS), threads)
    out = np.empty_like(counts)
    out[grid.order] = counts
    return out


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
    radius neighborhoods' blocks of centers or the whole-cloud count's
    pieces; every row's counts are exact integers however the work is split, so
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
        counts = _octant_counts_whole_cloud(xyz, threads)
    else:
        counts = _octant_counts_radius(xyz, spec.radius, threads)
    sizes, raw[:, 3:] = _finish_octant_counts(counts, spec.include_center)

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
