"""Traced in-process replay of one workload's CLI job.

The replay calls the package's public functions in the order the CLI
job does and records a span around each call into a layer (name,
start, end, CPU seconds, parent, run id) plus work counts. Spans stay in
memory and are written once, at exit, to the --spans file. Per-fold
PCA and classifier calls are timed by handing `cross_validate` a
duck-typed pipeline that composes the same public functions as
`ClassifierPipeline`. The replay writes the same artifacts as the CLI
job, so the caller can prove byte for byte that the trace measured the
same program.

    PYTHONPATH=src python3 perfbench/replay.py --workload W --inputs DIR \
        --out DIR --spans FILE --run-id N
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from scipy.spatial import cKDTree

from prodcoef import (
    CrossValPlan,
    ForestConfig,
    KnnModel,
    NeighborhoodSpec,
    cross_validate,
    extract_features,
    fit_pca,
    normalize_unit_cube,
    read_csv,
    read_feature_csv,
    read_las,
    rf_fit,
    transform,
    write_feature_csv,
)
from prodcoef.evaluation import (
    ClassifierPipeline,
    PipelineSpec,
    render_report,
    report_to_json,
)
from prodcoef.forest import rf_predict_labels
from prodcoef.knn import knn_predict_labels

from workloads import THREADS, WORKLOADS, Workload, sha256_file

# CLI defaults the benchmark's jobs rely on.
CLI_SEED = 0
FOLDS = 5
K = 10

# render_report key -> file name the evaluate command writes it under.
TABLE_FILES = {
    "table_features.csv": "table{n}.csv",
    "table_features.txt": "table{n}.txt",
    "table_components.csv": "table{n}.csv",
    "table_components.txt": "table{n}.txt",
    "plot_components.csv": "plot_table{n}.csv",
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        cpu = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["cpu"] = time.process_time() - cpu
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)


class _TracedFit:
    def __init__(self, tracer: Tracer, pca, model):
        self._t = tracer
        self._pca = pca
        self._model = model

    def predict_labels(self, queries):
        if self._pca is not None:
            with self._t.span("pca.transform"):
                queries = transform(self._pca, queries)
        if isinstance(self._model, KnnModel):
            self._t.count("knn.distance_evals", queries.n_rows * self._model.train.n_rows)
            with self._t.span("knn.predict"):
                return knn_predict_labels(self._model, queries)
        with self._t.span("forest.predict"):
            return rf_predict_labels(self._model, queries)


class TracedPipeline:
    """ClassifierPipeline with a span around every PCA and classifier call."""

    def __init__(self, spec: PipelineSpec, tracer: Tracer):
        self.spec = spec
        self._t = tracer

    def describe(self) -> dict:
        return ClassifierPipeline(self.spec).describe()

    def fit(self, train):
        spec = self.spec
        pca = None
        if spec.n_components is not None:
            self._t.count("pca.fit_calls", 1)
            with self._t.span("pca.fit"):
                pca = fit_pca(train, spec.n_components)
            with self._t.span("pca.transform"):
                train = transform(pca, train)
        if spec.classifier == "knn":
            return _TracedFit(self._t, pca, KnnModel(train=train, k=spec.k))
        config = ForestConfig(n_trees=spec.n_trees, max_depth=spec.max_depth, seed=spec.seed)
        with self._t.span("forest.fit"):
            model = rf_fit(train, config)
        self._t.count("forest.nodes", sum(len(tree.feature) for tree in model.trees))
        return _TracedFit(self._t, pca, model)


def _features(t: Tracer, wl: Workload, inputs: Path, out: Path) -> Path:
    path = inputs / wl.input_file
    if path.suffix == ".las":
        with t.span("las.read"):
            cloud, _ = read_las(path)
        t.count("las.bytes", path.stat().st_size)
    else:
        with t.span("pointcloud.read_csv"):
            cloud = read_csv(path, has_label=True)
    with t.span("pointcloud.normalize"):
        cloud = normalize_unit_cube(cloud)
    with t.span("features.extract"):
        matrix = extract_features(cloud, NeighborhoodSpec(radius=wl.radius),
                                  threads=int(THREADS))
    tree = cKDTree(cloud.xyz)
    t.count("features.pairs", tree.count_neighbors(tree, wl.radius))
    features_path = out / "features.csv"
    with t.span("matrix.write_csv"):
        write_feature_csv(matrix, features_path)
    t.count("matrix.csv_bytes", features_path.stat().st_size)
    return features_path


def _evaluate(t: Tracer, wl: Workload, features_path: Path, upstream, out: Path) -> None:
    with t.span("matrix.read_csv"):
        matrix = read_feature_csv(features_path)
    t.count("matrix.csv_bytes", features_path.stat().st_size)
    base_config = {
        "features_file": features_path.name,
        "features_digest": sha256_file(features_path),
        "upstream": upstream,
        "seed": CLI_SEED,
    }
    feature_sets = {"xyz": matrix.select_columns(("x", "y", "z")), "full": matrix,
                    None: matrix}
    plan = CrossValPlan(folds=FOLDS, seed=CLI_SEED, stratified=True)
    reports = []
    for name, n_components, clf, feature_set in wl.report_runs():
        spec = PipelineSpec(classifier=clf, n_components=n_components, k=K,
                            n_trees=wl.trees, max_depth=None, seed=CLI_SEED)
        extra = {"feature_set": feature_set} if feature_set else {}
        with t.span("evaluation.cross_validate"):
            report = cross_validate(feature_sets[feature_set], plan, TracedPipeline(spec, t),
                                    f1_average="macro",
                                    extra_config={**base_config, **extra})
        (out / name).write_text(report_to_json(report) + "\n")
        reports.append(report)
    with t.span("evaluation.render"):
        artifacts = render_report(reports)
    for key, text in artifacts.items():
        (out / TABLE_FILES[key].format(n=wl.table)).write_text(text)


def replay(wl: Workload, inputs: Path, out: Path, t: Tracer) -> None:
    if wl.table is None:
        _features(t, wl, inputs, out)
    elif wl.input_file == "features.csv":
        _evaluate(t, wl, inputs / wl.input_file, None, out)
    else:
        features_path = _features(t, wl, inputs, out)
        # The `run` command records the features stage's configuration
        # as the evaluation's upstream.
        upstream = {"input": wl.input_file, "format": "auto", "has_label": True,
                    "normalize": "per-axis", "radius": wl.radius,
                    "include_center": True, "seed": CLI_SEED}
        _evaluate(t, wl, features_path, upstream, out)


def main() -> int:
    parser = argparse.ArgumentParser(description="Traced replay of one workload job.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.run_id)
    replay(WORKLOADS[args.workload], Path(args.inputs), out, tracer)
    Path(args.spans).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
