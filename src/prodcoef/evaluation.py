"""Cross-validated F1 evaluation and table rendering.

Folds are stratified: rows are shuffled once by the plan seed, then
assigned round-robin within each class, so every fold keeps the class
proportions and the split is reproducible bit-for-bit. The pipeline
(PCA fit included) is trained on the training portion of each fold
only; held-out labels can never leak into fitting.

`cross_validate_many` evaluates many (features, pipeline) runs at once.
Each (run, fold) fit-and-predict is one independent job; with more than
one worker the jobs run in order on processes made by POSIX fork, which
inherit the data copy-on-write and send back only each fold's confusion
matrix. Each worker holds one fold's model at a time. Every F1 and report
is read from those matrices in job order, so reports are the same bytes
for any worker count.
`cross_validate` is its one-run, in-process case.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ProdcoefError, ValidationError
from .forest import ForestConfig, RandomForestModel, rf_fit, rf_predict_labels
from .knn import KnnModel, knn_predict_labels
from .matrix import FeatureMatrix
from .pca import PcaModel, fit_pca, transform
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


def _check_average(average: str) -> None:
    if average not in F1_AVERAGES:
        raise ValidationError(f"unknown F1 average {average!r}; use one of {F1_AVERAGES}")


def _confusion(classes, true_labels, predicted) -> np.ndarray:
    """(C, C) int64 counts over sorted `classes`; rows truth, columns predictions."""
    n = len(classes)
    codes = np.searchsorted(classes, true_labels) * n + np.searchsorted(classes, predicted)
    return np.bincount(codes, minlength=n * n).reshape(n, n)


def _f1_from_confusion(confusion: np.ndarray, average: str) -> float:
    """F1 over the classes present in the truth (rows with support): per
    class 2pr / (p + r), 0 where a denominator is 0, for macro and
    weighted means; the same formula over summed counts for micro."""
    support = confusion.sum(axis=1)
    present = support > 0
    tp = np.diag(confusion)[present]
    predicted = confusion.sum(axis=0)[present]
    support = support[present]
    if average == "micro":
        tp, predicted, support = (a.sum(keepdims=True) for a in (tp, predicted, support))
    precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=predicted > 0)
    recall = tp / support
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(len(tp)), where=total > 0)
    if average == "weighted":
        return float((f1 * support).sum() / support.sum())
    return float(f1.mean())


def f1_score(true_labels, predicted, average: str = "macro") -> float:
    """Macro, micro (accuracy) or weighted F1 over the truth's classes."""
    _check_average(average)
    true_labels, predicted = _check_label_pair(true_labels, predicted)
    classes = np.unique(np.concatenate([true_labels, predicted]))
    return _f1_from_confusion(_confusion(classes, true_labels, predicted), average)


def macro_f1(true_labels, predicted) -> float:
    """Unweighted mean of per-class F1 over classes present in the truth."""
    return f1_score(true_labels, predicted)


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
    j // folds. A job checks its fold's predicted labels against the
    fold's truth and the run's classes, so that whichever process runs
    it, a bad prediction fails in the job that made it, and returns the
    fold's (C, C) int64 confusion matrix over the run's C classes.
    """

    def __init__(self, runs, plan: CrossValPlan):
        self.runs = runs
        self.folds = plan.folds
        # Runs over equal label vectors (table 1's column subsets, each a
        # FeatureMatrix with its own copy of the labels, and table 2's
        # component counts) share one fold assignment and class list.
        splits = {}
        for features, _, _ in runs:
            key = features.labels.tobytes()
            if key not in splits:
                splits[key] = (fold_assignment(features.labels, plan),
                               np.unique(features.labels))
        self.splits = [splits[features.labels.tobytes()] for features, _, _ in runs]

    def __len__(self) -> int:
        return len(self.runs) * self.folds

    def __call__(self, job: int) -> np.ndarray:
        run, f = divmod(job, self.folds)
        features, pipeline, _ = self.runs[run]
        fold, classes = self.splits[run]
        fitted = pipeline.fit(features.take_rows(np.nonzero(fold != f)[0]))
        test_idx = np.nonzero(fold == f)[0]
        truth, predicted = _check_label_pair(
            features.labels[test_idx], fitted.predict_labels(features.take_rows(test_idx))
        )
        outside = ~np.isin(predicted, classes)
        if outside.any():
            raise ValidationError(
                f"pipeline predicted label {predicted[outside][0]} outside the data's classes"
            )
        return _confusion(classes, truth, predicted)


# The jobs of the cross_validate_many call that forked this worker
# process; set once in each worker, never in the parent.
_worker_jobs: _FoldJobs | None = None


def _set_worker_jobs(jobs: _FoldJobs) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_worker_job(job: int) -> np.ndarray:
    return _worker_jobs(job)


def _run_forked(jobs: _FoldJobs, workers: int) -> list[np.ndarray]:
    """The confusion matrix of every job, in job order, with the jobs
    run on `workers` forked processes.

    Forked workers inherit the runs' matrices and pipelines
    copy-on-write, so only job numbers and confusion matrices cross
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
            return list(pool.map(_run_worker_job, range(len(jobs)), chunksize=chunksize))
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
    worker holds one fold's model at a time. Each job's confusion
    matrix gives its fold's F1, and a run's summed matrices its
    report's confusion, in job order, so the reports never depend on
    `workers`, and neither does which error a failing call raises.
    """
    _check_average(f1_average)
    for features, _, _ in runs:
        if features.labels is None:
            raise ValidationError("cross-validation needs labeled features")
    jobs = _FoldJobs(runs, plan)
    workers = worker_count(workers, len(jobs))
    confusions = (list(map(jobs, range(len(jobs)))) if workers == 1
                  else _run_forked(jobs, workers))
    reports = []
    for run, ((_, pipeline, extra_config), (_, classes)) in enumerate(zip(runs, jobs.splits)):
        folds = confusions[run * plan.folds:(run + 1) * plan.folds]
        per_fold = np.array([_f1_from_confusion(c, f1_average) for c in folds])
        config = dict(extra_config or {})
        if hasattr(pipeline, "describe"):
            config.update(pipeline.describe())
        config.update(
            {"folds": plan.folds, "cv_seed": plan.seed, "stratified": plan.stratified,
             "f1_average": f1_average}
        )
        reports.append(EvaluationReport(
            per_fold_f1=tuple(float(v) for v in per_fold),
            mean_f1=float(per_fold.mean()),
            std_f1=float(per_fold.std(ddof=1)),
            config=config,
            classes=tuple(int(c) for c in classes),
            confusion=np.sum(folds, axis=0),
        ))
    return reports


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


def _json_numbers(values, kind=(int, float)) -> bool:
    """values is a JSON array of numbers, of integers if kind is int."""
    return isinstance(values, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in values)


def report_from_json(text: str) -> EvaluationReport:
    """The report report_to_json wrote; other text raises ValueError (a
    field of the wrong type or shape, or not JSON), KeyError or TypeError.
    Of the config, the fields the table renderers read are checked where
    set: feature_set and classifier strings, n_components an int >= 1."""
    payload = json.loads(text)
    classes, confusion, config = payload["classes"], payload["confusion"], payload["config"]
    n = len(classes) if isinstance(classes, list) else -1
    table = config if isinstance(config, dict) else {}
    n_components = table.get("n_components")
    for name, ok in (
        ("per_fold_f1", _json_numbers(payload["per_fold_f1"])),
        ("mean_f1", _json_numbers([payload["mean_f1"]])),
        ("std_f1", _json_numbers([payload["std_f1"]])),
        ("config", isinstance(config, dict)),
        ("config.feature_set", isinstance(table.get("feature_set"), (str, type(None)))),
        ("config.classifier", isinstance(table.get("classifier"), (str, type(None)))),
        ("config.n_components", n_components is None
         or (_json_numbers([n_components], int) and n_components >= 1)),
        ("classes", _json_numbers(classes, int)),
        ("confusion", confusion is None or (
            isinstance(confusion, list) and len(confusion) == n
            and all(_json_numbers(row, int) and len(row) == n
                    and all(0 <= c < 2**63 for c in row) for row in confusion))),
    ):
        if not ok:
            raise ValueError(f"report field {name!r} has the wrong type or shape")
    return EvaluationReport(
        per_fold_f1=tuple(payload["per_fold_f1"]),
        mean_f1=payload["mean_f1"],
        std_f1=payload["std_f1"],
        config=config,
        classes=tuple(classes),
        confusion=None if confusion is None else np.array(confusion, dtype=np.int64).reshape(n, n),
    )


def format_cell(mean: float, std: float) -> str:
    return f"{mean:.2f} (± {std:.2f})"


_FEATURE_SET_TITLES = {
    "xyz": "Original features (x,y,z)",
    "full": "With product coefficients",
}


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
    rows = [(_FEATURE_SET_TITLES.get(fs, fs), fs) for fs in feature_sets]
    return _classifier_grid(("features", "knn_f1", "rf_f1"), "feature_set", rows, reports)


def render_components_table(reports) -> tuple[str, str]:
    """CSV and aligned-text table: one row per component count."""
    counts = sorted(
        {r.config.get("n_components") for r in reports if r.config.get("n_components")}
    )
    rows = [(str(n), n) for n in counts]
    return _classifier_grid(("n_components", "knn_f1", "rf_f1"), "n_components", rows, reports)


def _classifier_grid(header, key, rows, reports) -> tuple[str, str]:
    """Tables with one line per (title, value) row; its KNN and RF cells show
    the first report with that value under `key` and that classifier."""
    values = [value for _, value in rows]
    cells = {}
    for report in reports:
        value, clf = report.config.get(key), report.config.get("classifier")
        if clf in ("knn", "rf") and value in values:
            at = (values.index(value), clf)
            if at not in cells:
                cells[at] = format_cell(report.mean_f1, report.std_f1)
    return _tables(header, [(title, cells.get((i, "knn"), ""), cells.get((i, "rf"), ""))
                            for i, (title, _) in enumerate(rows)])


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
