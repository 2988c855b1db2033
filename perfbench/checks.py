"""Output checks for one workload job.

Every check returns a list of problems; an empty list means the job's
artifacts are correct. The oracles here are written from the paper's
definitions with plain NumPy/SciPy and never call the package, so a
rewritten kernel is checked against something it does not share code
with:

- features: the x/y/z columns must be the per-axis unit-cube
  coordinates, and for a seeded sample of rows the seven coefficient
  columns must be one increasing affine map (the min-max rescale) of
  octant-count coefficients recomputed by brute force;
- KNN reports: the pooled confusion matrix and per-fold macro-F1 must
  equal an exact k-nearest-neighbor oracle (distance ties to the lower
  training row, vote ties to the smaller class code), after an SVD
  projection fitted to each training fold where the report uses PCA;
- every report must be internally consistent and every table must have
  its expected rows with cells matching the reports;
- the forest reports' mean F1 must reach the workload's RF_F1_FLOOR;
- pca.fit_calls and knn.distance_evals must equal what the fold sizes
  give;
- for the seeds stored in expected.json, features.csv and the KNN
  reports must match stored sha256 digests, and forest mean F1 must stay
  within RF_F1_TOLERANCE of the stored reference.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

FEATURE_HEADER = "x,y,z,a_s,a_ls,a_rs,a_lls,a_rls,a_lrs,a_rrs,label"
SAMPLE_ROWS = 48
# A forest may change its bytes once (node-keyed RNG); its table cells
# must not move further than this from the stored reference. Across 12
# forest seeds one cell's mean F1 has a standard deviation of 0.010-0.024
# on these workloads, so two draws of the noisiest cell differ by about
# 0.034 (one standard deviation); this allows about three of those.
RF_F1_TOLERANCE = 0.10
# On every seed, the mean F1 of a workload's forest reports must reach
# this floor; chance is 0.25. Over seeds 1-40 the mean was 0.337 (sd
# 0.012, lowest 0.318) on desk_table2 and 0.597 (sd 0.010, lowest 0.574)
# on knn_table1; each floor is about four standard deviations below.
RF_F1_FLOOR = {"desk_table2": 0.29, "knn_table1": 0.55}
TABLE_ROWS = {
    1: ("features,knn_f1,rf_f1", ("Original features (x,y,z)", "With product coefficients")),
    2: ("n_components,knn_f1,rf_f1", None),
}


def _octant_coefficients(counts: np.ndarray) -> np.ndarray:
    """Level-order (left - right) / mass over the 8 leaves of a depth-3 tree."""
    out = []
    for level in range(3):
        width = 8 >> level
        for j in range(1 << level):
            node = counts[j * width:(j + 1) * width]
            left, right = node[: width // 2].sum(), node[width // 2:].sum()
            out.append((left - right) / (left + right) if left + right else 0.0)
    return np.array(out)


def check_features(path: Path, xyz: np.ndarray, labels: np.ndarray, radius: float,
                   seed: int) -> list[str]:
    with open(path) as handle:
        header = handle.readline().strip()
    if header != FEATURE_HEADER:
        return [f"features.csv header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (len(xyz), 11):
        return [f"features.csv shape {data.shape}, expected ({len(xyz)}, 11)"]
    problems = []
    if not np.array_equal(data[:, 10].astype(np.int64), labels):
        problems.append("features.csv labels differ from the input labels")
    values = data[:, :10]
    if values.min() < 0.0 or values.max() > 1.0:
        problems.append("features.csv values outside [0, 1]")
    lo, hi = xyz.min(axis=0), xyz.max(axis=0)
    unit = (xyz - lo) / (hi - lo)
    if np.abs(values[:, :3] - unit).max() > 1e-12:
        problems.append("features.csv x/y/z are not the unit-cube coordinates")

    rows, raw = [], []
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(unit), size=min(SAMPLE_ROWS, len(unit)), replace=False):
        dist = np.sqrt(((unit - unit[i]) ** 2).sum(axis=1))
        if np.any(np.abs(dist - radius) < 1e-9):
            continue  # a neighbor on the sphere: membership depends on rounding
        inside = unit[dist <= radius]
        codes = (inside > unit[i]).astype(np.int64) @ np.array([4, 2, 1])
        rows.append(i)
        raw.append(_octant_coefficients(np.bincount(codes, minlength=8)))
    raw = np.array(raw)
    got = values[rows, 3:]
    for col in range(7):
        lo_i, hi_i = np.argmin(raw[:, col]), np.argmax(raw[:, col])
        if raw[hi_i, col] == raw[lo_i, col]:
            ok = np.all(got[:, col] == got[lo_i, col])
        else:
            slope = (got[hi_i, col] - got[lo_i, col]) / (raw[hi_i, col] - raw[lo_i, col])
            pred = got[lo_i, col] + slope * (raw[:, col] - raw[lo_i, col])
            ok = slope > 0 and np.abs(pred - got[:, col]).max() <= 1e-9
        if not ok:
            problems.append(f"features.csv coefficient column {col + 3} disagrees "
                            "with the brute-force octant oracle")
    return problems


def _folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    perm = np.random.default_rng(seed).permutation(len(labels))
    fold = np.empty(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        rows = perm[labels[perm] == c]
        fold[rows] = np.arange(len(rows)) % folds
    return fold


def _knn_labels(train: np.ndarray, train_y: np.ndarray, queries: np.ndarray, k: int):
    classes = np.unique(train_y)
    pos = np.searchsorted(classes, train_y)
    extra = min(len(train), k + 8)
    _, cand = cKDTree(train).query(queries, k=extra)
    d2 = ((queries[:, None, :] - train[cand]) ** 2).sum(axis=-1)
    order = np.lexsort((cand, d2))
    cand = np.take_along_axis(cand, order, axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    nearest = cand[:, :k]
    # Candidates beyond the k-d tree's answer may tie the k-th distance:
    # fall back to a full scan wherever the margin is not clear.
    unsure = (extra < len(train)) & ~(d2[:, -1] > d2[:, k - 1] * (1 + 1e-9))
    for q in np.nonzero(unsure)[0]:
        full = ((train - queries[q]) ** 2).sum(axis=1)
        nearest[q] = np.lexsort((np.arange(len(train)), full))[:k]
    votes = np.zeros((len(queries), len(classes)), dtype=np.int64)
    np.add.at(votes, (np.arange(len(queries))[:, None], pos[nearest]), 1)
    return classes[np.argmax(votes, axis=1)]


def _macro_f1(truth: np.ndarray, pred: np.ndarray) -> float:
    scores = []
    for c in np.unique(truth):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * p * r / (p + r) if p + r else 0.0)
    return float(np.mean(scores))


def _project(train: np.ndarray, test: np.ndarray, n: int | None):
    """Top-n principal components of the training rows, by SVD."""
    if n is None:
        return train, test
    mean = train.mean(axis=0)
    _, _, vt = np.linalg.svd(train - mean, full_matrices=False)
    return (train - mean) @ vt[:n].T, (test - mean) @ vt[:n].T


def check_knn_reports(features_path: Path, out: Path, runs, folds: int, k: int,
                      cv_seed: int) -> list[str]:
    """KNN reports against the exact neighbor oracle.

    `runs` holds (report file, PCA components, feature set) per KNN
    report. PCA is fitted on each training fold; KNN distances do not
    depend on the sign of a component, so the SVD basis serves.
    """
    data = np.loadtxt(features_path, delimiter=",", skiprows=1, ndmin=2)
    X, y = data[:, :10], data[:, 10].astype(np.int64)
    fold = _folds(y, folds, cv_seed)
    classes = np.unique(y)
    problems = []
    for name, n_components, feature_set in runs:
        cols = slice(0, 3) if feature_set == "xyz" else slice(0, 10)
        report = json.loads((out / name).read_text())
        confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        per_fold = []
        for f in range(folds):
            train, test = fold != f, fold == f
            Z_train, Z_test = _project(X[train][:, cols], X[test][:, cols], n_components)
            pred = _knn_labels(Z_train, y[train], Z_test, k)
            per_fold.append(_macro_f1(y[test], pred))
            np.add.at(confusion, (np.searchsorted(classes, y[test]),
                                  np.searchsorted(classes, pred)), 1)
        if report["confusion"] != confusion.tolist():
            problems.append(f"{name} confusion differs from the KNN oracle")
        if np.abs(np.array(report["per_fold_f1"]) - per_fold).max() > 1e-12:
            problems.append(f"{name} per-fold F1 differs from the KNN oracle")
    return problems


def load_reports(out: Path) -> dict[str, dict]:
    return {p.name: json.loads(p.read_text()) for p in sorted(out.glob("report_*.json"))}


def check_reports(reports: dict[str, dict], expected_names: list[str],
                  class_counts: dict[str, int], folds: int) -> list[str]:
    if sorted(reports) != sorted(expected_names):
        return [f"reports {sorted(reports)}, expected {sorted(expected_names)}"]
    problems = []
    counts = [class_counts[c] for c in sorted(class_counts, key=int)]
    for name, r in reports.items():
        per_fold = np.array(r["per_fold_f1"])
        conf = np.array(r["confusion"])
        if (len(per_fold) != folds or per_fold.min() < 0 or per_fold.max() > 1
                or abs(per_fold.mean() - r["mean_f1"]) > 1e-12
                or abs(per_fold.std(ddof=1) - r["std_f1"]) > 1e-12):
            problems.append(f"{name}: per-fold F1 inconsistent with mean/std")
        if conf.sum(axis=1).tolist() != counts:
            problems.append(f"{name}: confusion rows {conf.sum(axis=1).tolist()} "
                            f"!= class counts {counts}")
    return problems


def check_table(out: Path, table: int, reports: dict[str, dict],
                components: tuple[int, int] | None) -> list[str]:
    path = out / f"table{table}.csv"
    if not path.exists():
        return [f"{path.name} missing"]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, keys = TABLE_ROWS[table]
    if table == 2:
        keys = tuple(str(n) for n in range(components[0], components[1] + 1))
    if ",".join(rows[0]) != header or [row[0] for row in rows[1:]] != list(keys):
        return [f"{path.name} rows {rows}"]
    problems = []
    for key, row in zip(keys, rows[1:]):
        for clf, cell in zip(("knn", "rf"), row[1:]):
            name = (f"report_t1_{'xyz' if key.startswith('Original') else 'full'}_{clf}.json"
                    if table == 1 else f"report_t2_n{int(key):02d}_{clf}.json")
            r = reports[name]
            if cell != f"{r['mean_f1']:.2f} (± {r['std_f1']:.2f})":
                problems.append(f"{path.name} cell {cell!r} disagrees with {name}")
    return problems


def check_forest_floor(reports: dict[str, dict], floor: float) -> list[str]:
    mean = float(np.mean([r["mean_f1"] for n, r in reports.items() if n.endswith("_rf.json")]))
    if mean < floor:
        return [f"forest reports' mean F1 {mean:.4f} is below the floor {floor}"]
    return []


def check_counts(counts: dict[str, int], runs, class_counts: dict[str, int],
                 folds: int) -> list[str]:
    """pca.fit_calls and knn.distance_evals follow from the stratified fold sizes."""
    n = sum(class_counts.values())
    test = [sum(-(-(c - f) // folds) for c in class_counts.values()) for f in range(folds)]
    want = {
        "pca.fit_calls": folds * sum(components is not None for _, components, _, _ in runs),
        "knn.distance_evals": (sum(clf == "knn" for _, _, clf, _ in runs)
                               * sum(t * (n - t) for t in test)),
    }
    return [f"{name} {counts[name]} != {value}, as the fold sizes give"
            for name, value in want.items() if counts[name] != value]


def check_expected(stored: dict, digests: dict[str, str],
                   reports: dict[str, dict]) -> list[str]:
    """Stored sha256 digests and forest F1 references for a known seed."""
    problems = []
    for name, digest in stored["sha256"].items():
        if digests.get(name) != digest:
            problems.append(f"{name} digest {digests.get(name)} != stored {digest}")
    for name, f1 in stored["rf_f1"].items():
        if abs(reports[name]["mean_f1"] - f1) > RF_F1_TOLERANCE:
            problems.append(f"{name} mean F1 {reports[name]['mean_f1']:.4f} is more than "
                            f"{RF_F1_TOLERANCE} from the reference {f1:.4f}")
    return problems
