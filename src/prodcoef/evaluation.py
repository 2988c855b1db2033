"""Cross-validated F1 evaluation and table rendering.

Folds are stratified: rows are shuffled once by the plan seed, then
assigned round-robin within each class, so every fold keeps the class
proportions and the split is reproducible bit-for-bit. The pipeline
(PCA fit included) is trained on the training portion of each fold
only; held-out labels can never leak into fitting.

`cross_validate_many` evaluates many (features, pipeline) runs at once.
Each (run, fold) fit-and-predict is one independent job; with more than
one worker the jobs run in order on processes made by POSIX fork, which
inherit the data copy-on-write and send back only predicted labels.
Each worker holds one fold's model at a time. The scores are merged in
job order, so reports are the same bytes for any worker count.
`cross_validate` is its one-run, in-process case.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ProdcoefError, ValidationError
from .forest import (
    ForestConfig,
    RandomForestModel,
    forest_to_json,
    rf_fit,
    rf_predict_labels,
)
from .knn import KnnModel, knn_predict_labels
from .matrix import FeatureMatrix
from .pca import PcaModel, fit_pca, pca_to_json, transform
from .workers import worker_count

F1_AVERAGES = ("macro", "micro", "weighted")


def _check_label_pair(true_labels, predicted):
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape or true_labels.ndim != 1:
        raise ValidationError(
            f"label vectors must match: {true_labels.shape} vs {predicted.shape}"
        )
    if len(true_labels) == 0:
        raise ValidationError("need at least one label to score")
    return true_labels, predicted


def _per_class_f1(true_labels, predicted, classes):
    f1s = []
    supports = []
    for c in classes:
        tp = int(((predicted == c) & (true_labels == c)).sum())
        fp = int(((predicted == c) & (true_labels != c)).sum())
        fn = int(((predicted != c) & (true_labels == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        f1s.append(f1)
        supports.append(tp + fn)
    return np.array(f1s), np.array(supports)


def macro_f1(true_labels, predicted) -> float:
    """Unweighted mean of per-class F1 over classes present in the truth."""
    true_labels, predicted = _check_label_pair(true_labels, predicted)
    classes = np.unique(true_labels)
    f1s, _ = _per_class_f1(true_labels, predicted, classes)
    return float(f1s.mean())


def micro_f1(true_labels, predicted) -> float:
    """Global-count F1 (equals accuracy for single-label multiclass)."""
    true_labels, predicted = _check_label_pair(true_labels, predicted)
    classes = np.unique(true_labels)
    tp = int((true_labels == predicted).sum())
    fp = sum(int(((predicted == c) & (true_labels != c)).sum()) for c in classes)
    fn = int((true_labels != predicted).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def weighted_f1(true_labels, predicted) -> float:
    """Support-weighted mean of per-class F1."""
    true_labels, predicted = _check_label_pair(true_labels, predicted)
    classes = np.unique(true_labels)
    f1s, supports = _per_class_f1(true_labels, predicted, classes)
    return float((f1s * supports).sum() / supports.sum())


_F1_FUNCS = {"macro": macro_f1, "micro": micro_f1, "weighted": weighted_f1}


def f1_score(true_labels, predicted, average: str = "macro") -> float:
    if average not in _F1_FUNCS:
        raise ValidationError(f"unknown F1 average {average!r}; use one of {F1_AVERAGES}")
    return _F1_FUNCS[average](true_labels, predicted)


@dataclass(frozen=True)
class CrossValPlan:
    folds: int = 5
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise ValidationError(f"need at least 2 folds, got {self.folds}")


def fold_assignment(labels: np.ndarray, plan: CrossValPlan) -> np.ndarray:
    """Fold id per row: seeded shuffle, then round-robin within class."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n < plan.folds:
        raise ValidationError(f"{n} rows cannot fill {plan.folds} folds")
    rng = np.random.default_rng(plan.seed)
    perm = rng.permutation(n)
    fold = np.empty(n, dtype=np.int64)
    if plan.stratified:
        classes, sizes = np.unique(labels, return_counts=True)
        short = sizes < plan.folds
        if short.any():
            listed = ", ".join(
                f"class {int(c)} has {int(s)} rows"
                for c, s in zip(classes[short], sizes[short])
            )
            raise ValidationError(
                f"{listed}; stratified {plan.folds}-fold needs at least "
                f"{plan.folds} rows per class"
            )
        for c in classes:
            rows_c = perm[labels[perm] == c]
            fold[rows_c] = np.arange(len(rows_c)) % plan.folds
    else:
        fold[perm] = np.arange(n) % plan.folds
    return fold


@dataclass(frozen=True)
class PipelineSpec:
    """Configuration of one (optional PCA) -> classifier pipeline."""

    classifier: str
    n_components: int | None = None
    k: int = 10
    n_trees: int = 100
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.classifier not in ("knn", "rf"):
            raise ValidationError(f"unknown classifier {self.classifier!r}")
        if self.n_components is not None and self.n_components < 1:
            raise ValidationError("n_components must be >= 1 when set")

    def describe(self) -> dict:
        out = {"classifier": self.classifier, "n_components": self.n_components}
        if self.classifier == "knn":
            out["k"] = self.k
        else:
            out["trees"] = self.n_trees
            out["max_depth"] = self.max_depth
            out["rf_seed"] = self.seed
        return out


@dataclass(frozen=True)
class FittedPipeline:
    """A fitted (PCA?) -> classifier pair; the model's type picks the predictor."""

    pca: PcaModel | None
    model: KnnModel | RandomForestModel

    def predict_labels(self, queries: FeatureMatrix) -> np.ndarray:
        if self.pca is not None:
            queries = transform(self.pca, queries)
        if isinstance(self.model, KnnModel):
            return knn_predict_labels(self.model, queries)
        return rf_predict_labels(self.model, queries)

    def fingerprint(self) -> str:
        """Content digest of everything learned from the training data."""
        digest = hashlib.sha256()
        if self.pca is not None:
            digest.update(pca_to_json(self.pca).encode())
        if isinstance(self.model, KnnModel):
            digest.update(self.model.train.values.tobytes())
            digest.update(self.model.train.labels.tobytes())
            digest.update(str(self.model.k).encode())
        else:
            digest.update(forest_to_json(self.model).encode())
        return digest.hexdigest()


class ClassifierPipeline:
    """Builds a fresh (PCA?) -> classifier fit from a training matrix."""

    def __init__(self, spec: PipelineSpec):
        self.spec = spec

    def fit(self, train: FeatureMatrix) -> FittedPipeline:
        spec = self.spec
        pca = None
        if spec.n_components is not None:
            pca = fit_pca(train, spec.n_components)
            train = transform(pca, train)
        if spec.classifier == "knn":
            model = KnnModel(train=train, k=spec.k)
        else:
            model = rf_fit(
                train,
                ForestConfig(
                    n_trees=spec.n_trees,
                    max_depth=spec.max_depth,
                    seed=spec.seed,
                ),
            )
        return FittedPipeline(pca, model)

    def describe(self) -> dict:
        return self.spec.describe()


@dataclass(frozen=True)
class EvaluationReport:
    per_fold_f1: tuple[float, ...]
    mean_f1: float
    std_f1: float
    config: dict = field(compare=False)
    classes: tuple[int, ...] = ()
    confusion: np.ndarray | None = None

    def __post_init__(self):
        if self.confusion is not None:
            conf = np.array(self.confusion, dtype=np.int64, copy=True)
            conf.flags.writeable = False
            object.__setattr__(self, "confusion", conf)


class _FoldJobs:
    """Every (run, fold) fit-and-predict of one cross_validate_many call.

    Jobs are numbered run-major: job j is fold j % folds of run
    j // folds. A job returns its fold's predicted labels, already
    checked against the fold's truth and the run's classes, so that
    whichever process runs it, a bad prediction fails in the job that
    made it.
    """

    def __init__(self, runs, plan: CrossValPlan):
        self.runs = runs
        self.folds = plan.folds
        # Runs over one label vector (table 1's column subsets, table 2's
        # component counts) share its fold assignment and class list.
        splits = {}
        for features, _, _ in runs:
            key = id(features.labels)
            if key not in splits:
                splits[key] = (fold_assignment(features.labels, plan),
                               np.unique(features.labels))
        self.splits = [splits[id(features.labels)] for features, _, _ in runs]

    def __len__(self) -> int:
        return len(self.runs) * self.folds

    def __call__(self, job: int) -> np.ndarray:
        run, f = divmod(job, self.folds)
        features, pipeline, _ = self.runs[run]
        fold, classes = self.splits[run]
        fitted = pipeline.fit(features.take_rows(np.nonzero(fold != f)[0]))
        test_idx = np.nonzero(fold == f)[0]
        _, predicted = _check_label_pair(
            features.labels[test_idx], fitted.predict_labels(features.take_rows(test_idx))
        )
        outside = ~np.isin(predicted, classes)
        if outside.any():
            raise ValidationError(
                f"pipeline predicted label {predicted[outside][0]} outside the data's classes"
            )
        return predicted


# The jobs of the cross_validate_many call that forked this worker
# process; set once in each worker, never in the parent.
_worker_jobs: _FoldJobs | None = None


def _set_worker_jobs(jobs: _FoldJobs) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_worker_job(job: int) -> np.ndarray:
    return _worker_jobs(job)


def _run_forked(jobs: _FoldJobs, workers: int, consume):
    """consume(predictions of every job, in job order), with the jobs
    run on `workers` forked processes.

    Forked workers inherit the runs' matrices and pipelines
    copy-on-write, so only job numbers and predicted labels cross
    between processes. Jobs go out in job-order chunks, at least four
    per worker, which balances the load and, for small jobs, costs a
    fraction of one IPC round trip per job. map yields in job order, so
    the first failing job's exception is the one raised.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # KNN imports scipy.spatial on first use; importing it here once
    # spares every worker its own import.
    import scipy.spatial  # noqa: F401

    chunksize = max(1, len(jobs) // (4 * workers))
    # Frozen objects are left out of garbage collection, so the workers'
    # collections do not touch, and so copy, the pages of every object
    # they inherit.
    gc.freeze()
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_worker_jobs, initargs=(jobs,)) as pool:
            return consume(pool.map(_run_worker_job, range(len(jobs)), chunksize=chunksize))
    except BrokenProcessPool:
        raise ProdcoefError(
            "a cross-validation worker process died (killed, perhaps out of memory)"
        ) from None
    finally:
        gc.unfreeze()


def cross_validate_many(runs, plan: CrossValPlan, f1_average: str = "macro",
                        workers: int = 1) -> list[EvaluationReport]:
    """One report per run, each run a (features, pipeline, extra_config)
    triple cross-validated over the plan's folds.

    The pipeline object only needs fit(train_matrix) returning
    something with predict_labels(test_matrix); PCA fitting therefore
    happens inside each fold, on training rows only. Every (run, fold)
    fit-and-predict is an independent job. With `workers` 1 they run
    in order in this process. With more (0 = one per CPU, never more
    than there are jobs) they run on forked worker processes, which
    needs POSIX fork and a caller with no other threads running; each
    worker holds one fold's model at a time. Scores and confusion
    matrices are merged here in job order, so the reports never depend
    on `workers`, and neither does which error a failing call raises.
    """
    if f1_average not in _F1_FUNCS:
        raise ValidationError(f"unknown F1 average {f1_average!r}")
    for features, _, _ in runs:
        if features.labels is None:
            raise ValidationError("cross-validation needs labeled features")
    jobs = _FoldJobs(runs, plan)

    def merge(predictions) -> list[EvaluationReport]:
        reports = []
        for (features, pipeline, extra_config), (fold, classes) in zip(runs, jobs.splits):
            confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
            per_fold = []
            for f in range(plan.folds):
                predicted = next(predictions)
                truth = features.labels[fold == f]
                per_fold.append(f1_score(truth, predicted, f1_average))
                np.add.at(confusion, (np.searchsorted(classes, truth),
                                      np.searchsorted(classes, predicted)), 1)
            config = dict(extra_config or {})
            if hasattr(pipeline, "describe"):
                config.update(pipeline.describe())
            config.update(
                {"folds": plan.folds, "cv_seed": plan.seed, "stratified": plan.stratified,
                 "f1_average": f1_average}
            )
            per_fold_arr = np.array(per_fold)
            reports.append(EvaluationReport(
                per_fold_f1=tuple(float(v) for v in per_fold),
                mean_f1=float(per_fold_arr.mean()),
                std_f1=float(per_fold_arr.std(ddof=1)),
                config=config,
                classes=tuple(int(c) for c in classes),
                confusion=confusion,
            ))
        return reports

    workers = worker_count(workers, len(jobs))
    if workers == 1:
        return merge(map(jobs, range(len(jobs))))
    return _run_forked(jobs, workers, merge)


def cross_validate(features: FeatureMatrix, plan: CrossValPlan, pipeline,
                   f1_average: str = "macro", extra_config: dict | None = None
                   ) -> EvaluationReport:
    """Train/score the pipeline across the plan's folds: the one-run,
    in-process case of cross_validate_many."""
    return cross_validate_many([(features, pipeline, extra_config)], plan, f1_average)[0]


def report_to_json(report: EvaluationReport) -> str:
    payload = {
        "per_fold_f1": list(report.per_fold_f1),
        "mean_f1": report.mean_f1,
        "std_f1": report.std_f1,
        "config": report.config,
        "classes": list(report.classes),
        "confusion": None if report.confusion is None else report.confusion.tolist(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def report_from_json(text: str) -> EvaluationReport:
    payload = json.loads(text)
    return EvaluationReport(
        per_fold_f1=tuple(payload["per_fold_f1"]),
        mean_f1=payload["mean_f1"],
        std_f1=payload["std_f1"],
        config=payload["config"],
        classes=tuple(payload["classes"]),
        confusion=None if payload["confusion"] is None else np.array(payload["confusion"]),
    )


def format_cell(mean: float, std: float) -> str:
    return f"{mean:.2f} (± {std:.2f})"


_FEATURE_SET_TITLES = {
    "xyz": "Original features (x,y,z)",
    "full": "With product coefficients",
}


def _classifier_cell(reports, **match) -> str:
    for report in reports:
        if all(report.config.get(k) == v for k, v in match.items()):
            return format_cell(report.mean_f1, report.std_f1)
    return ""


def render_feature_table(reports) -> tuple[str, str]:
    """CSV and aligned-text table: rows per feature set, KNN/RF columns.

    Known feature sets come in _FEATURE_SET_TITLES order (xyz, full),
    then any other set in the order its first report arrives, so a
    table of the standard sets does not depend on the report order.
    """
    seen = [r.config.get("feature_set") for r in reports]
    feature_sets = [fs for fs in _FEATURE_SET_TITLES if fs in seen]
    for fs in seen:
        if fs and fs not in feature_sets:
            feature_sets.append(fs)
    rows = []
    for fs in feature_sets:
        rows.append(
            (
                _FEATURE_SET_TITLES.get(fs, fs),
                _classifier_cell(reports, feature_set=fs, classifier="knn"),
                _classifier_cell(reports, feature_set=fs, classifier="rf"),
            )
        )
    return _tables(("features", "knn_f1", "rf_f1"), rows)


def render_components_table(reports) -> tuple[str, str]:
    """CSV and aligned-text table: one row per component count."""
    counts = sorted(
        {r.config.get("n_components") for r in reports if r.config.get("n_components")}
    )
    rows = []
    for n in counts:
        rows.append(
            (
                str(n),
                _classifier_cell(reports, n_components=n, classifier="knn"),
                _classifier_cell(reports, n_components=n, classifier="rf"),
            )
        )
    return _tables(("n_components", "knn_f1", "rf_f1"), rows)


def _tables(header: tuple[str, ...], rows) -> tuple[str, str]:
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(f'"{cell}"' if "," in cell else cell for cell in row))
    csv_text = "\n".join(csv_lines) + "\n"

    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    text_lines = [fmt(header), fmt(["-" * w for w in widths])]
    text_lines.extend(fmt(row) for row in rows)
    return csv_text, "\n".join(text_lines) + "\n"


def render_plot_csv(reports) -> str:
    """Plot-ready long format: n,classifier,mean_f1,std_f1."""
    lines = ["n,classifier,mean_f1,std_f1"]
    keyed = []
    for report in reports:
        n = report.config.get("n_components")
        if n is None:
            continue
        keyed.append((int(n), report.config.get("classifier", ""), report))
    for n, clf, report in sorted(keyed, key=lambda t: (t[0], t[1])):
        lines.append(f"{n},{clf},{report.mean_f1!r},{report.std_f1!r}")
    return "\n".join(lines) + "\n"


def render_report(reports) -> dict[str, str]:
    """All table artifacts derivable from a report collection."""
    artifacts: dict[str, str] = {}
    if any(r.config.get("feature_set") for r in reports):
        csv_text, table_text = render_feature_table(reports)
        artifacts["table_features.csv"] = csv_text
        artifacts["table_features.txt"] = table_text
    if any(r.config.get("n_components") for r in reports):
        csv_text, table_text = render_components_table(reports)
        artifacts["table_components.csv"] = csv_text
        artifacts["table_components.txt"] = table_text
        artifacts["plot_components.csv"] = render_plot_csv(reports)
    return artifacts
