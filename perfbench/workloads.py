"""Workload definitions and the seeded input generator.

Every input is derived from the workload seed alone (see sample_scene),
before any timing starts, and the program under test only ever receives
the generated files. Sizes are scaled down from the desk/tile scale so that one CLI
job takes a few seconds on a 2-core machine and several jobs fit into
one measured run; each workload still takes the same code path as its
full-size counterpart.

Run standalone to materialize the inputs of one workload:

    PYTHONPATH=src python3 perfbench/workloads.py --workload local_features --seed 11 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from prodcoef import (
    NeighborhoodSpec,
    SceneSpec,
    extract_features,
    generate_scene,
    normalize_unit_cube,
    write_feature_csv,
)
from prodcoef.pointcloud import PointCloud, write_csv

# Real tiles store centimetre-quantized coordinates; the LAS input
# reproduces the duplicate-heavy columns that quantization causes.
LAS_SCALE = 0.01
LAYOUT_SEED = 11
THREADS = "2"
# Closed loop: one client, one CLI job at a time. BLAS/OpenMP pools are
# pinned so that --threads is the only source of parallelism.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    points_per_class: int
    input_file: str          # the one generated file the CLI job reads
    cli: tuple[str, ...]     # argv after `python -m prodcoef`; {inputs} and {out} expand
    radius: float            # neighborhood radius of the features the job reads or builds
    table: int | None        # CV table rendered by the job, if any
    components: tuple[int, int] | None = None
    trees: int | None = None

    @property
    def rows(self) -> int:
        return 4 * self.points_per_class

    def report_runs(self) -> list[tuple[str, int | None, str, str | None]]:
        """(file, PCA components, classifier, feature set) of each CV report the job writes."""
        if self.table == 1:
            return [(f"report_t1_{fs}_{clf}.json", None, clf, fs)
                    for fs in ("xyz", "full") for clf in ("knn", "rf")]
        if self.table == 2:
            lo, hi = self.components
            return [(f"report_t2_n{n:02d}_{clf}.json", n, clf, None)
                    for n in range(lo, hi + 1) for clf in ("knn", "rf")]
        return []


WORKLOADS = {
    # Per-point kd-tree loop plus the dyadic tree per point; the only LAS
    # reader workload, with cm-quantized duplicate coordinates. The radius
    # gives about 260 neighbors per point, as r = 0.05 does on the
    # 40,000-point tile, so the per-neighbor work dominates.
    "local_features": Workload(
        name="local_features", points_per_class=1500, input_file="tile.las",
        cli=("features", "--input", "{inputs}/tile.las", "--radius", "0.12",
             "--threads", THREADS, "--out-dir", "{out}"),
        radius=0.12, table=None,
    ),
    # Default radius 2.0: the O(n^2) full-cloud octant count from CSV
    # ingest; bypasses the kd-tree and the per-point dyadic path.
    "fullcloud_features": Workload(
        name="fullcloud_features", points_per_class=3500, input_file="scene.csv",
        cli=("features", "--input", "{inputs}/scene.csv", "--has-label",
             "--threads", THREADS, "--out-dir", "{out}"),
        radius=2.0, table=None,
    ),
    # One full `run` rendering table 2: 80 PCA fits, forest-dominated CV;
    # the bypass workload for KNN changes.
    "desk_table2": Workload(
        name="desk_table2", points_per_class=160, input_file="scene.csv",
        cli=("run", "--input", "{inputs}/scene.csv", "--has-label", "--radius", "0.1",
             "--table", "2", "--components", "3..10", "--trees", "1",
             "--threads", THREADS, "--out-dir", "{out}"),
        radius=0.1, table=2, components=(3, 10), trees=1,
    ),
    # Brute-force KNN on a precomputed feature file, no PCA, one-tree
    # forests; the bypass workload for forest and PCA changes.
    "knn_table1": Workload(
        name="knn_table1", points_per_class=600, input_file="features.csv",
        cli=("evaluate", "--features", "{inputs}/features.csv", "--table", "1",
             "--trees", "1", "--threads", THREADS, "--out-dir", "{out}"),
        radius=0.1, table=1, trees=1,
    ),
}


def sha256_file(path: Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_build_las():
    # The LAS writer the test suite fabricates inputs with; the package
    # itself is read-only for LAS.
    spec = importlib.util.spec_from_file_location(
        "prodcoef_test_conftest", Path("tests") / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_las


def _duplicate_share(column: np.ndarray) -> float:
    return 1.0 - len(np.unique(column)) / len(column)


def sample_scene(workload: Workload, seed: int) -> PointCloud:
    """The workload's labeled scene for one seed.

    The block layout of the scene is fixed (LAYOUT_SEED); the seed draws
    which points of a twice-as-dense scene are kept, per class, in scene
    order. Every seed therefore asks for about the same neighborhood
    sizes and so the same work, while the inputs still differ.
    """
    dense = generate_scene(SceneSpec(points_per_class=2 * workload.points_per_class,
                                     seed=LAYOUT_SEED))
    rng = np.random.default_rng(seed)
    keep = np.sort(np.concatenate([
        rng.choice(np.flatnonzero(dense.labels == c), workload.points_per_class,
                   replace=False)
        for c in np.unique(dense.labels)]))
    return PointCloud(xyz=dense.xyz[keep], labels=dense.labels[keep],
                      source=f"{dense.source} sample seed={seed}")


def generate_inputs(workload: Workload, seed: int, out_dir: Path):
    """Write the workload's input file; return (description, xyz, labels).

    The description records the digest, row count, class counts,
    per-axis duplicate share and mean neighbors per point at the
    workload radius (including the point itself). `xyz` holds the
    coordinates exactly as the program reads them back.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = sample_scene(workload, seed)
    path = out_dir / workload.input_file
    xyz = cloud.xyz
    if path.suffix == ".las":
        raw = np.round(xyz / LAS_SCALE).astype(np.int64)
        path.write_bytes(_load_build_las()(raw, cloud.labels.tolist(), version=(1, 2),
                                           point_format=0, scale=(LAS_SCALE,) * 3))
        xyz = raw * LAS_SCALE
    elif workload.input_file == "features.csv":
        matrix = extract_features(normalize_unit_cube(cloud),
                                  NeighborhoodSpec(radius=workload.radius))
        write_feature_csv(matrix, path)
    else:
        write_csv(cloud, path)

    lo, hi = xyz.min(axis=0), xyz.max(axis=0)
    unit = (xyz - lo) / np.where(hi > lo, hi - lo, 1.0)
    tree = cKDTree(unit)
    classes, counts = np.unique(cloud.labels, return_counts=True)
    info = {
        "file": workload.input_file,
        "digest": sha256_file(path),
        "bytes": path.stat().st_size,
        "rows": len(xyz),
        "class_counts": {str(c): int(n) for c, n in zip(classes, counts)},
        "duplicate_share": dict(zip("xyz", (_duplicate_share(xyz[:, a]) for a in range(3)))),
        "mean_neighbors": float(tree.count_neighbors(tree, workload.radius)) / len(xyz),
    }
    return info, xyz, cloud.labels


def main() -> int:
    parser = argparse.ArgumentParser(description="Generate one workload's inputs.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    info, _, _ = generate_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps(info, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
