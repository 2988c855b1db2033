"""Cross-validated F1 evaluation and table rendering.

Folds are stratified: rows are shuffled once by the plan seed, then
assigned round-robin within each class, so every fold keeps the class
proportions and the split is reproducible bit-for-bit. The pipeline
(PCA fit included) is trained on the training portion of each fold
only; held-out labels can never leak into fitting.

`cross_validate_many` evaluates many (features, pipeline) runs at once.
Each (run, fold) fit-and-predict is one independent job; with more than
one worker the jobs run on plain processes made by POSIX fork
(`workers.ForkedChildren`), which take job ranges in order from one pipe
(a job each up to PIPE_BUF / 4 jobs), inherit the data copy-on-write and
send back only each fold's confusion matrix, through a temporary file
read once the worker has exited. Each worker holds one fold's model at a
time. Every F1 and report is read from those matrices in job order, so
reports are the same bytes for any worker count. `cross_validate` is its
one-run, in-process case.

`render_report` turns reports into the paper's tables: it maps each
knn or rf report to its cell of table 1 (feature set by classifier) or
table 2 (component count by classifier), then writes both tables and
the plot CSV from that map, sorted so that the report order does not
matter.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import pickle
import select
import traceback
from dataclasses import dataclass, field

import numpy as np

from .choices import F1_AVERAGES
from .errors import ProdcoefError, ValidationError
from .forest import ForestConfig, RandomForestModel, rf_fit, rf_predict_labels
from .knn import KnnModel, knn_predict_labels
from .matrix import FeatureMatrix
from .pca import PcaModel, fit_pca, transform
from .workers import ForkedChildren, worker_count


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
    # With an inverse, np.unique does not import numpy.ma (numpy 2.4).
    classes = np.unique(np.concatenate([true_labels, predicted]), return_inverse=True)[0]
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
                # The inverse keeps numpy.ma unloaded, as in f1_score.
                splits[key] = (fold_assignment(features.labels, plan),
                               np.unique(features.labels, return_inverse=True)[0])
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


# A job pipe record: one job range's number, as 4 little-endian bytes.
_RECORD_BYTES = 4


class _WorkerTraceback(Exception):
    """The traceback, as text, of a job's exception in a forked worker;
    the cause of that exception where this process raises it."""


def _run_ranges(jobs: _FoldJobs, job_pipe: int, span: int, spool) -> None:
    """Run the jobs of each range read from `job_pipe`, range k being
    jobs k * span up to (k + 1) * span, in order until the pipe is empty
    or a job raises; then pickle (done, failure) into `spool`: done the
    (job, confusion matrix) of each job that returned, failure None or
    the first failing (job, exception, traceback text).

    A failing job empties the pipe first, so the other workers take no
    new range. Records leave the pipe in order, so those left name only
    later jobs, whose errors could not win."""
    done, failure = [], None
    while failure is None and (record := os.read(job_pipe, _RECORD_BYTES)):
        start = int.from_bytes(record, "little") * span
        for job in range(start, min(start + span, len(jobs))):
            try:
                done.append((job, jobs(job)))
            except Exception as exc:
                failure = (job, _picklable(exc), traceback.format_exc())
                while os.read(job_pipe, _RECORD_BYTES):
                    pass
                break
    pickle.dump((done, failure), spool, pickle.HIGHEST_PROTOCOL)


def _picklable(exc: Exception) -> Exception:
    """`exc`, or where it does not survive a pickle round trip, a
    ProdcoefError naming its type and text."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return ProdcoefError(f"a cross-validation job raised {type(exc).__name__}: {exc} "
                             "(an exception that cannot be pickled)")
    return exc


def _run_forked(jobs: _FoldJobs, workers: int) -> list[np.ndarray]:
    """The confusion matrix of every job, in job order, with the jobs
    run on `workers` processes made by POSIX fork; this process runs
    none.

    Before the first fork, every job range goes into one pipe as a
    fixed-size record, all in at most POSIX's PIPE_BUF bytes, so no
    write blocks and each read takes one whole record: one job per range
    up to PIPE_BUF / 4 jobs (1,024 on Linux), beyond that as many equal
    contiguous ranges as fit. Each worker runs the ranges it reads
    (`_run_ranges`) into its own temporary file, which is read here once
    the worker has exited. Workers inherit the runs' matrices and
    pipelines copy-on-write, so only job numbers and results cross
    between processes, and the last worker ends at most one range after
    the others. A worker stops at its first failing job, and only after
    every job before it in job order has been read; so that job's
    exception is the one raised, as in one process, with the worker's
    traceback as its cause. It empties the pipe as it stops, so the call
    fails once the running ranges end. A worker that dies is a
    ProdcoefError at once, whatever the others run.
    """
    job_pipe, write_end = os.pipe()
    try:
        try:
            span = -(-len(jobs) // (select.PIPE_BUF // _RECORD_BYTES))
            ranges = -(-len(jobs) // span)
            os.write(write_end, b"".join(k.to_bytes(_RECORD_BYTES, "little")
                                         for k in range(ranges)))
        finally:
            os.close(write_end)
        # Frozen objects are left out of garbage collection, so the
        # workers' collections do not touch, and so copy, the pages of
        # every object they inherit.
        gc.freeze()
        with ForkedChildren() as children:
            for _ in range(workers):
                children.fork(lambda spool: _run_ranges(jobs, job_pipe, span, spool),
                              "running cross-validation jobs")
            confusions = [None] * len(jobs)
            failures = []
            for _ in range(workers):
                done, failure = pickle.load(
                    children.wait_any("a cross-validation worker process"))
                for job, confusion in done:
                    confusions[job] = confusion
                if failure is not None:
                    failures.append(failure)
    finally:
        os.close(job_pipe)
        gc.unfreeze()
    if failures:
        _, exc, text = min(failures)  # the first failing job; no two share a job number
        raise exc from _WorkerTraceback(text)
    return confusions


def cross_validate_many(runs, plan: CrossValPlan, f1_average: str = "macro",
                        workers: int = 1) -> list[EvaluationReport]:
    """One report per run, each run a (features, pipeline, extra_config)
    triple cross-validated over the plan's folds.

    The pipeline object only needs fit(train_matrix) returning
    something with predict_labels(test_matrix); PCA fitting therefore
    happens inside each fold, on training rows only. Every (run, fold)
    fit-and-predict is an independent job. With `workers` 1 they run
    in order in this process. With more (0 = one per CPU, never more
    than there are jobs) they run on forked worker processes
    (`_run_forked`), which needs POSIX fork and a caller with no other
    threads running; each worker holds one fold's model at a time. Each
    job's confusion matrix gives its fold's F1, and a run's summed
    matrices its report's confusion, in job order, so the reports never
    depend on `workers`, and neither does which job's error a failing
    call raises (from a worker, an exception that cannot be pickled
    comes back as a ProdcoefError naming it).
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


def _float_holds(value) -> bool:
    try:
        float(value)
    except OverflowError:  # an integer past float64's range
        return False
    return True


def _json_numbers(values, kind=(int, float)) -> bool:
    """values is a JSON array of ints if kind is int, else of numbers float() holds."""
    return isinstance(values, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) and (kind is int or _float_holds(v))
        for v in values)


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


_FEATURE_SET_TITLES = {
    "xyz": "Original features (x,y,z)",
    "full": "With product coefficients",
}
_CLASSIFIERS = ("knn", "rf")


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _table(first_column: str, rows, cells) -> tuple[str, str]:
    """CSV and aligned text of one table: a line per (title, row) of
    `rows`, with the KNN and RF cells from `cells` ({(row, classifier):
    report}), empty where no report fills one."""
    def cell(report):
        return "" if report is None else f"{report.mean_f1:.2f} (± {report.std_f1:.2f})"
    header = (first_column, *(f"{clf}_f1" for clf in _CLASSIFIERS))
    lines = [(title, *(cell(cells.get((row, clf))) for clf in _CLASSIFIERS))
             for title, row in rows]
    widths = [max(map(len, column)) for column in zip(header, *lines)]
    def fmt(line):
        return "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
    text = [fmt(header), fmt(["-" * w for w in widths]), *map(fmt, lines)]
    return _csv([header, *lines]), "\n".join(text) + "\n"


def render_report(reports) -> dict[str, str]:
    """Table 1, table 2 and the plot CSV of a report collection.

    A report whose classifier is knn or rf fills table 1's cell
    (feature_set, classifier) where its feature_set is set, and table
    2's cell (n_components, classifier) plus one plot line where its
    n_components is set; a report of any other or no classifier fills no
    cell. Table 1 lists xyz, then full, then other feature sets by name;
    table 2 and the plot go by n_components, knn before rf, so no output
    depends on the report order. Two reports for one cell, or reports
    that fill no cell, raise ValidationError.
    """
    features, components = {}, {}
    for report in reports:
        clf = report.config.get("classifier")
        if clf not in _CLASSIFIERS:
            continue
        for cells, key in ((features, "feature_set"), (components, "n_components")):
            row = report.config.get(key)
            if row:
                if (row, clf) in cells:
                    raise ValidationError(f"two reports for the table cell {key} {row!r}, "
                                          f"classifier {clf}")
                cells[row, clf] = report
    if not features and not components:
        raise ValidationError("no report fills a table cell: each needs classifier "
                              "knn or rf and a feature_set or n_components")

    artifacts: dict[str, str] = {}
    if features:
        names = sorted({fs for fs, _ in features}, key=lambda fs: (fs != "xyz", fs != "full", fs))
        artifacts["table_features.csv"], artifacts["table_features.txt"] = _table(
            "features", [(_FEATURE_SET_TITLES.get(fs, fs), fs) for fs in names], features)
    if components:
        counts = sorted({n for n, _ in components})
        artifacts["table_components.csv"], artifacts["table_components.txt"] = _table(
            "n_components", [(str(n), n) for n in counts], components)
        artifacts["plot_components.csv"] = _csv([
            ("n", "classifier", "mean_f1", "std_f1"),
            *((n, clf, r.mean_f1, r.std_f1) for (n, clf), r in sorted(components.items())),
        ])
    return artifacts
