import csv
import os
import select
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcoef import evaluation
from prodcoef.errors import ProdcoefError, ValidationError
from prodcoef.evaluation import (
    ClassifierPipeline,
    CrossValPlan,
    EvaluationReport,
    PipelineSpec,
    _FoldJobs,
    _run_forked,
    cross_validate,
    cross_validate_many,
    f1_score,
    fold_assignment,
    macro_f1,
    render_report,
    report_from_json,
    report_to_json,
)
from prodcoef.forest import forest_to_json
from prodcoef.matrix import FeatureMatrix
from prodcoef.pca import fit_pca, pca_to_json, transform

from conftest import assert_no_child_left


def _reference_f1(true_labels, predicted, average):
    """F1 counted class by class with boolean masks, as the evaluate stage
    once did, over the classes present in the truth."""
    true_labels, predicted = np.asarray(true_labels), np.asarray(predicted)
    classes = np.unique(true_labels)
    if average == "micro":
        tp = int((true_labels == predicted).sum())
        fp = sum(int(((predicted == c) & (true_labels != c)).sum()) for c in classes)
        fn = int((true_labels != predicted).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    f1s, supports = [], []
    for c in classes:
        tp = int(((predicted == c) & (true_labels == c)).sum())
        fp = int(((predicted == c) & (true_labels != c)).sum())
        fn = int(((predicted != c) & (true_labels == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
        supports.append(tp + fn)
    if average == "macro":
        return float(np.array(f1s).mean())
    return float((np.array(f1s) * np.array(supports)).sum() / np.array(supports).sum())


def _matrix(values, labels=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values, names, labels)


class TestF1:
    def test_perfect_prediction(self):
        assert macro_f1([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_total_inversion(self):
        assert macro_f1([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0

    def test_hand_computed_fixture(self):
        # class 0: P=1, R=2/3, f1=0.8; class 1: P=0.5, R=1, f1=2/3.
        assert abs(macro_f1([0, 0, 0, 1], [0, 0, 1, 1]) - 11 / 15) <= 1e-12

    def test_macro_ignores_class_absent_from_truth(self):
        # Prediction of an unseen class costs precision nothing under
        # macro over truth classes, but recall of the true class drops.
        assert macro_f1([0, 0], [0, 9]) == pytest.approx(2 / 3)

    def test_micro_equals_accuracy(self):
        true = [0, 1, 2, 2, 1, 0]
        pred = [0, 1, 1, 2, 1, 2]
        assert f1_score(true, pred, "micro") == pytest.approx(4 / 6)

    def test_weighted_reduces_to_macro_when_balanced(self):
        true = [0, 0, 1, 1]
        pred = [0, 1, 1, 0]
        assert f1_score(true, pred, "weighted") == pytest.approx(macro_f1(true, pred))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            macro_f1([0, 1], [0])

    def test_unknown_average(self):
        with pytest.raises(ValidationError):
            f1_score([0], [0], average="harmonic")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([-7, -1, 0, 3, 1000, 2**40]),
                           st.sampled_from([-7, -1, 0, 3, 1000, 2**40, -2**35, 5])),
                 min_size=1, max_size=60),
        st.sampled_from(["macro", "micro", "weighted"]),
    )
    def test_equals_per_class_reference_exactly(self, pairs, average):
        # Predictions include classes absent from the truth (-2**35, 5),
        # and codes are negative and sparse.
        true, pred = (list(v) for v in zip(*pairs))
        assert f1_score(true, pred, average) == _reference_f1(true, pred, average)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=40),
        st.permutations(list(range(5))),
    )
    def test_relabeling_invariance(self, labels, mapping):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 5, size=len(labels))
        relabeled_true = [mapping[v] for v in labels]
        relabeled_pred = [mapping[v] for v in pred]
        assert macro_f1(labels, pred) == pytest.approx(
            macro_f1(relabeled_true, relabeled_pred), abs=1e-12
        )


class TestFolds:
    def test_partition_covers_exactly_once(self):
        labels = np.repeat([0, 1, 2], 20)
        fold = fold_assignment(labels, CrossValPlan(folds=4, seed=1))
        assert len(fold) == 60
        assert set(fold.tolist()) == {0, 1, 2, 3}
        for f in range(4):
            assert (fold == f).sum() == 15

    def test_stratification_preserves_class_shares(self):
        labels = np.repeat([0, 1], [40, 10])
        fold = fold_assignment(labels, CrossValPlan(folds=5, seed=2))
        for f in range(5):
            chunk = labels[fold == f]
            assert (chunk == 0).sum() == 8
            assert (chunk == 1).sum() == 2

    def test_small_class_error_names_class(self):
        labels = np.array([0] * 20 + [7] * 3)
        with pytest.raises(ValidationError, match="class 7"):
            fold_assignment(labels, CrossValPlan(folds=5, seed=0))

    def test_small_class_error_lists_every_short_class(self):
        labels = np.array([0] * 20 + [7] * 3 + [2] * 9 + [5] * 1)
        with pytest.raises(ValidationError) as info:
            fold_assignment(labels, CrossValPlan(folds=5, seed=0))
        message = str(info.value)
        assert "class 5 has 1 rows" in message
        assert "class 7 has 3 rows" in message
        assert "class 0" not in message and "class 2" not in message

    def test_unstratified_allows_small_classes(self):
        labels = np.array([0] * 20 + [7] * 3)
        fold = fold_assignment(labels, CrossValPlan(folds=5, seed=0, stratified=False))
        assert len(fold) == 23

    def test_deterministic_given_seed(self):
        labels = np.repeat([0, 1, 2], 10)
        a = fold_assignment(labels, CrossValPlan(folds=3, seed=9))
        b = fold_assignment(labels, CrossValPlan(folds=3, seed=9))
        np.testing.assert_array_equal(a, b)

    def test_at_least_two_folds(self):
        with pytest.raises(ValidationError):
            CrossValPlan(folds=1)


class _PerfectOracle:
    """Stub pipeline that reads the held-out labels."""

    def fit(self, train):
        return self

    def predict_labels(self, test):
        return test.labels.copy()

    def describe(self):
        return {"classifier": "oracle"}


class _ConstantStub:
    def __init__(self, label):
        self.label = label

    def fit(self, train):
        return self

    def predict_labels(self, test):
        return np.full(test.n_rows, self.label)


class TestCrossValidate:
    def _features(self, n=40, classes=2, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.tile(np.arange(classes), n // classes)
        return _matrix(rng.uniform(size=(n, 3)), labels)

    def test_perfect_oracle_scores_one(self):
        report = cross_validate(
            self._features(), CrossValPlan(folds=5, seed=0), _PerfectOracle()
        )
        assert report.mean_f1 == 1.0
        assert report.std_f1 == 0.0
        assert report.per_fold_f1 == (1.0,) * 5

    def test_constant_stub_hand_computed(self):
        # 20 balanced rows, constant prediction of class 0: per fold
        # (2+2 rows) class 0 has P=0.5, R=1 -> f1=2/3; class 1 scores 0;
        # macro = 1/3 in every fold.
        features = self._features(n=20)
        report = cross_validate(
            features, CrossValPlan(folds=5, seed=3), _ConstantStub(0)
        )
        assert report.mean_f1 == pytest.approx(1 / 3, abs=1e-12)
        assert report.std_f1 == pytest.approx(0.0, abs=1e-12)

    def test_confusion_rows_sum_to_class_counts(self):
        features = self._features(n=60, classes=3, seed=4)
        report = cross_validate(
            features, CrossValPlan(folds=5, seed=1), _ConstantStub(1)
        )
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [20, 20, 20])

    def test_unstratified_fold_missing_a_class_scores_its_own_classes(self):
        # 12 rows of class 0 and 3 of class 2 in 5 unstratified folds: the
        # seed leaves class 2 out of some folds, whose F1 then averages
        # over class 0 alone, as f1_score of that fold does.
        labels = np.array([0] * 12 + [2] * 3)
        features = _matrix(np.arange(15.0)[:, None], labels)
        plan = CrossValPlan(folds=5, seed=1, stratified=False)
        fold = fold_assignment(labels, plan)
        assert any(2 not in labels[fold == f] for f in range(5))
        report = cross_validate(features, plan, _ConstantStub(0))
        expected = tuple(f1_score(labels[fold == f], np.zeros((fold == f).sum(), int))
                         for f in range(5))
        assert report.per_fold_f1 == expected

    def test_byte_identical_reports(self):
        features = self._features(n=50, seed=5)
        pipeline = ClassifierPipeline(PipelineSpec("knn", n_components=2, k=3))
        a = cross_validate(features, CrossValPlan(folds=5, seed=7), pipeline)
        b = cross_validate(features, CrossValPlan(folds=5, seed=7), pipeline)
        assert report_to_json(a) == report_to_json(b)

    def test_unlabeled_features_rejected(self):
        with pytest.raises(ValidationError):
            cross_validate(
                _matrix(np.zeros((10, 2))), CrossValPlan(), _PerfectOracle()
            )

    def test_out_of_universe_prediction_rejected(self):
        features = self._features(n=20)
        with pytest.raises(ValidationError, match="outside"):
            cross_validate(features, CrossValPlan(folds=5, seed=0), _ConstantStub(42))

    def test_report_json_round_trip(self):
        report = cross_validate(
            self._features(), CrossValPlan(folds=4, seed=2), _PerfectOracle(),
            extra_config={"radius": 0.5},
        )
        back = report_from_json(report_to_json(report))
        assert back.mean_f1 == report.mean_f1
        assert back.per_fold_f1 == report.per_fold_f1
        assert back.config == report.config
        np.testing.assert_array_equal(back.confusion, report.confusion)


class _PcaCentroids:
    """Duck-typed table-2 pipeline: nearest class centroid in the space
    of the first n principal components."""

    def __init__(self, n):
        self.n = n

    def fit(self, train):
        pca = fit_pca(train, self.n)
        z = transform(pca, train)
        classes = np.unique(train.labels)
        centroids = np.array([z.values[z.labels == c].mean(axis=0) for c in classes])

        class Fitted:
            def predict_labels(self, test):
                d = ((transform(pca, test).values[:, None, :] - centroids) ** 2).sum(axis=2)
                return classes[np.argmin(d, axis=1)]

        return Fitted()

    def describe(self):
        return {"classifier": "centroid", "n_components": self.n}


class _FailsWithout:
    """Raises error(text) in fit when any of `rows` is held out; column 0
    holds row ids."""

    def __init__(self, name, rows, error=ValidationError):
        self.name = name
        self.rows = rows
        self.error = error

    def fit(self, train):
        missing = [r for r in self.rows if r not in train.values[:, 0]]
        if missing:
            raise self.error(f"{self.name} without row {missing[0]}")
        return _PerfectOracle()


class _DiesInWorker:
    """Ends the process that fits it, unless that is the test process."""

    def __init__(self):
        self.parent = os.getpid()

    def fit(self, train):
        if os.getpid() != self.parent:
            os._exit(3)
        raise AssertionError("fit ran in the test process")


class _KilledInWorker:
    """SIGKILLs the process that fits it, unless that is the test process."""

    def __init__(self):
        self.parent = os.getpid()

    def fit(self, train):
        if os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("fit ran in the test process")


class _Unpicklable(Exception):
    """Holds a lock, which pickle refuses."""

    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


class _Unrebuildable(Exception):
    """Pickles, but its pickle calls __init__ with one argument of two."""

    def __init__(self, text, detail):
        super().__init__(text)
        self.detail = detail


class _JobAndPid:
    """`n` trivial fold jobs: job j returns (j, id of the process that ran it)."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __call__(self, job):
        return job, os.getpid()


class _SlowJobs:
    """`n` fold jobs of 10 ms; a job in `failing` raises at once."""

    def __init__(self, n, failing):
        self.n = n
        self.failing = failing

    def __len__(self):
        return self.n

    def __call__(self, job):
        if job in self.failing:
            raise ValidationError(f"job {job}")
        time.sleep(0.01)
        return job


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class TestCrossValidateMany:
    def _features(self, n=90, classes=3, seed=6):
        rng = np.random.default_rng(seed)
        labels = np.tile(np.arange(classes), n // classes)
        values = rng.normal(size=(n, 5)) + labels[:, None] * 0.7
        values[:, 0] = np.arange(n)
        return _matrix(values, labels)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_one_cross_validate_per_run(self, workers):
        features = self._features()
        plan = CrossValPlan(folds=5, seed=4)
        runs = [(features, _PcaCentroids(n), {"n": n}) for n in (1, 2, 3)]
        runs.append((features, ClassifierPipeline(PipelineSpec("knn", n_components=2, k=3)),
                     None))
        expected = [report_to_json(cross_validate(f, plan, p, "weighted", extra))
                    for f, p, extra in runs]
        reports = cross_validate_many(runs, plan, "weighted", workers=workers)
        assert [report_to_json(r) for r in reports] == expected

        # Each fold job returns a (C, C) int64 confusion matrix whose row
        # sums are its fold's class counts; a report sums its folds'.
        jobs = _FoldJobs(runs, plan)
        confusions = ([jobs(j) for j in range(len(jobs))] if workers == 1
                      else _run_forked(jobs, workers))
        fold = fold_assignment(features.labels, plan)
        assert len(confusions) == len(runs) * 5
        for job, confusion in enumerate(confusions):
            assert confusion.dtype == np.int64 and confusion.shape == (3, 3)
            counts = np.bincount(features.labels[fold == job % 5], minlength=3)
            np.testing.assert_array_equal(confusion.sum(axis=1), counts)
        for run, report in enumerate(reports):
            np.testing.assert_array_equal(report.confusion, sum(confusions[run * 5:run * 5 + 5]))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_job_in_run_fold_order_wins(self, workers):
        features = self._features()
        plan = CrossValPlan(folds=5, seed=4)
        fold = fold_assignment(features.labels, plan)
        # Run 1 fails in folds 1 and 3; fold 1 comes first.
        early, late = (int(np.flatnonzero(fold == f)[0]) for f in (1, 3))
        runs = [
            (features, _PerfectOracle(), None),
            (features, _FailsWithout("run 1", (late, early)), None),
            (features, _FailsWithout("run 2", (0, 1, 2, 3, 4, 5)), None),
        ]
        with pytest.raises(ValidationError, match=f"^run 1 without row {early}$"):
            cross_validate_many(runs, plan, workers=workers)

    def test_equal_label_vectors_share_one_fold_assignment(self, monkeypatch):
        # As in table 1: select_columns gives the xyz runs a FeatureMatrix
        # with its own copy of the labels, equal to the full runs' labels.
        calls = []

        def counted(labels, plan):
            calls.append(len(labels))
            return fold_assignment(labels, plan)

        monkeypatch.setattr(evaluation, "fold_assignment", counted)
        features = self._features()
        xyz = features.select_columns(features.column_names[:3])
        assert xyz.labels is not features.labels
        runs = [(f, _PerfectOracle(), None) for f in (xyz, xyz, features, features)]
        cross_validate_many(runs, CrossValPlan(folds=3))
        assert calls == [len(features.labels)]

    def test_dead_worker_becomes_prodcoef_error(self):
        features = self._features()
        with pytest.raises(ProdcoefError, match="worker process died") as info:
            cross_validate_many([(features, _DiesInWorker(), None)],
                                CrossValPlan(folds=3), workers=2)
        assert info.value.exit_code == 1

    @pytest.mark.parametrize("outcome", ["returns", "raises", "killed"])
    def test_no_child_pipe_or_file_outlives_the_call(self, spools, outcome):
        features = self._features()
        pipeline = {"returns": _PerfectOracle(),
                    "raises": _FailsWithout("run", (0,)),
                    "killed": _KilledInWorker()}[outcome]
        fds = _open_fds()
        if outcome == "returns":
            cross_validate_many([(features, pipeline, None)], CrossValPlan(folds=3), workers=2)
        else:
            error = ValidationError if outcome == "raises" else ProdcoefError
            with pytest.raises(error):
                cross_validate_many([(features, pipeline, None)], CrossValPlan(folds=3),
                                    workers=2)
        assert_no_child_left()
        assert _open_fds() == fds
        assert len(spools) == 2 and all(spool.closed for spool in spools)

    def test_more_jobs_than_the_pipe_holds_records(self):
        # 20,000 4-byte records do not fit in PIPE_BUF bytes, so records
        # name ranges of ceil(20,000 / (PIPE_BUF / 4)) jobs (20 where
        # PIPE_BUF is 4,096); all of them are written before the first
        # fork, which a blocked write would never reach (SIGALRM ends it).
        def timed_out(signum, frame):
            raise TimeoutError("the forked run took over 60 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            results = _run_forked(_JobAndPid(20_000), 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [job for job, _ in results] == list(range(20_000))
        pids = [pid for _, pid in results]
        assert os.getpid() not in pids
        span = -(-20_000 // (select.PIPE_BUF // 4))
        for start in range(0, 20_000, span):
            assert len(set(pids[start:start + span])) == 1, start
        assert_no_child_left()

    @pytest.mark.parametrize("capacity, span", [(16, 3), (40, 1), (4, 10)])
    def test_records_name_contiguous_ranges_beyond_the_pipe_size(self, monkeypatch,
                                                                 capacity, span):
        # 10 jobs: a 16-byte PIPE_BUF holds 4 records, so ranges of 3
        # jobs (the last of 1); 40 bytes hold a record per job; 4 bytes,
        # one range of every job.
        monkeypatch.setattr(evaluation.select, "PIPE_BUF", capacity)
        results = _run_forked(_JobAndPid(10), 3)
        assert [job for job, _ in results] == list(range(10))
        pids = [pid for _, pid in results]
        assert os.getpid() not in pids
        for start in range(0, 10, span):
            assert len(set(pids[start:start + span])) == 1, (start, pids)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [_Unpicklable, _Unrebuildable])
    def test_unpicklable_exception_still_fails_the_call(self, error):
        features = self._features()
        plan = CrossValPlan(folds=5, seed=4)
        fold = fold_assignment(features.labels, plan)
        early, late = (int(np.flatnonzero(fold == f)[0]) for f in (1, 3))

        def raising(text):
            return error(text) if error is _Unpicklable else error(text, "detail")

        # Alone, it is a ProdcoefError naming its type and text.
        runs = [(features, _PerfectOracle(), None),
                (features, _FailsWithout("run", (late,), raising), None)]
        with pytest.raises(ProdcoefError, match=f"{error.__name__}: run without row {late} "
                                                r"\(an exception that cannot be pickled\)"):
            cross_validate_many(runs, plan, workers=2)
        # The first failing job in run-fold order still wins, either way.
        for first, second in (((raising, early), (ValidationError, late)),
                              ((ValidationError, early), (raising, late))):
            runs = [(features, _PerfectOracle(), None),
                    (features, _FailsWithout("run 1", (first[1],), first[0]), None),
                    (features, _FailsWithout("run 2", (second[1],), second[0]), None)]
            with pytest.raises(ProdcoefError, match=f"run 1 without row {early}") as info:
                cross_validate_many(runs, plan, workers=3)
            assert type(info.value) is (ValidationError if first[0] is ValidationError
                                        else ProdcoefError)
        assert_no_child_left()

    def test_dead_worker_fails_the_call_while_others_still_run(self):
        # Job 0 holds one worker for 60 s; the other takes job 1 and is
        # killed. The call fails then, not once job 0 is done, and the
        # busy worker is killed and reaped.
        class Jobs:
            def __len__(self):
                return 4

            def __call__(self, job):
                if job == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(60 if job == 0 else 0)
                return job

        started = time.perf_counter()
        with pytest.raises(ProdcoefError, match=r"worker process died \(killed by signal 9"):
            _run_forked(Jobs(), 2)
        assert time.perf_counter() - started < 30
        assert_no_child_left()

    def test_failing_job_stops_the_other_workers(self):
        # 200 jobs of 10 ms on 2 workers, job 0 raising: had the other
        # worker run the jobs left in the pipe, this would take 2 s.
        started = time.perf_counter()
        with pytest.raises(ValidationError, match="^job 0$"):
            _run_forked(_SlowJobs(200, failing=(0,)), 2)
        assert time.perf_counter() - started < 0.5
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [(1,), (3, 5), (150,)])
    def test_emptied_pipe_keeps_the_first_failing_job(self, failing):
        with pytest.raises(ValidationError, match=f"^job {failing[0]}$"):
            _run_forked(_SlowJobs(200, failing), 2)
        assert_no_child_left()

    def test_worker_exception_has_its_traceback_as_cause(self):
        features = self._features()
        with pytest.raises(ValidationError, match="^run without row 0$") as info:
            cross_validate_many([(features, _FailsWithout("run", (0,)), None)],
                                CrossValPlan(folds=3), workers=2)
        cause = info.value.__cause__
        assert type(cause).__name__ == "_WorkerTraceback"
        assert "in fit\n" in str(cause) and "ValidationError: run without row 0" in str(cause)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValidationError, match="threads must be >= 0"):
            cross_validate_many([(self._features(), _PerfectOracle(), None)],
                                CrossValPlan(), workers=-1)


class TestNoLeakage:
    def test_poisoned_test_labels_leave_fit_unchanged(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=(60, 4))
        labels = np.tile([0, 1, 2], 20)
        features = _matrix(values, labels)
        fold = fold_assignment(labels, CrossValPlan(folds=5, seed=13))
        train_idx = np.nonzero(fold != 0)[0]
        test_idx = np.nonzero(fold == 0)[0]

        poisoned_labels = labels.copy()
        poisoned_labels[test_idx] = 99
        poisoned = _matrix(values, poisoned_labels)

        for spec in (
            PipelineSpec("knn", n_components=3, k=5),
            PipelineSpec("rf", n_components=2, n_trees=10, seed=1),
        ):
            pipeline = ClassifierPipeline(spec)
            clean_fit = pipeline.fit(features.take_rows(train_idx))
            poisoned_fit = pipeline.fit(poisoned.take_rows(train_idx))
            assert pca_to_json(clean_fit.pca) == pca_to_json(poisoned_fit.pca)
            clean, dirty = clean_fit.model, poisoned_fit.model
            if spec.classifier == "rf":
                assert forest_to_json(clean) == forest_to_json(dirty)
            else:
                assert clean.k == dirty.k
                assert clean.train.values.tobytes() == dirty.train.values.tobytes()
                assert clean.train.labels.tobytes() == dirty.train.labels.tobytes()


def _report(mean, std, **config):
    return EvaluationReport(
        per_fold_f1=(mean,), mean_f1=mean, std_f1=std, config=config
    )


# Both tables' reports, an extra feature set, and two reports that fill
# no cell.
_MIXED_REPORTS = [
    *(_report(0.1 * i, 0.01 * i, feature_set=fs, classifier=clf)
      for i, (fs, clf) in enumerate([("xyz", "knn"), ("xyz", "rf"), ("full", "knn"),
                                     ("full", "rf"), ("extra", "rf")])),
    *(_report(0.5 + 0.01 * n, 0.02, n_components=n, classifier=clf)
      for n in (3, 4, 10) for clf in ("knn", "rf")),
    _report(0.9, 0.1, n_components=3, classifier=None),
    _report(0.9, 0.1, feature_set="xyz", classifier="svm"),
]


class TestRendering:
    def test_cell_format(self):
        tables = render_report([_report(0.85, 0.02, n_components=3, classifier="rf")])
        assert tables["table_components.csv"].splitlines()[1] == "3,,0.85 (± 0.02)"

    def test_single_row_feature_table(self):
        reports = [
            _report(0.33, 0.18, feature_set="xyz", classifier="knn"),
            _report(0.41, 0.16, feature_set="xyz", classifier="rf"),
        ]
        lines = render_report(reports)["table_features.csv"].strip().split("\n")
        assert lines[0] == "features,knn_f1,rf_f1"
        assert len(lines) == 2
        assert "0.33 (± 0.18)" in lines[1]
        assert "0.41 (± 0.16)" in lines[1]

    def test_feature_table_rows_do_not_follow_report_order(self):
        reports = [
            _report(0.33, 0.18, feature_set="xyz", classifier="knn"),
            _report(0.41, 0.16, feature_set="xyz", classifier="rf"),
            _report(0.52, 0.11, feature_set="full", classifier="knn"),
            _report(0.61, 0.09, feature_set="full", classifier="rf"),
            _report(0.20, 0.05, feature_set="zeta", classifier="knn"),
            _report(0.20, 0.05, feature_set="extra", classifier="knn"),
        ]
        tables = render_report(reports)
        assert render_report(reports[::-1]) == tables
        rows = [row[0] for row in csv.reader(tables["table_features.csv"].splitlines()[1:])]
        assert rows == ["Original features (x,y,z)", "With product coefficients",
                        "extra", "zeta"]

    def test_components_table_has_eight_rows(self):
        reports = []
        for n in range(3, 11):
            reports.append(_report(0.1 * n, 0.01, n_components=n, classifier="knn"))
            reports.append(_report(0.09 * n, 0.02, n_components=n, classifier="rf"))
        lines = render_report(reports)["table_components.csv"].strip().split("\n")
        assert len(lines) == 9  # header + one row per component count
        assert lines[1].startswith("3,")
        assert lines[-1].startswith("10,")

    def test_plot_csv_sorted_long_format(self):
        reports = [
            _report(0.5, 0.1, n_components=4, classifier="rf"),
            _report(0.6, 0.1, n_components=3, classifier="rf"),
            _report(0.7, 0.1, n_components=3, classifier="knn"),
        ]
        lines = render_report(reports)["plot_components.csv"].strip().split("\n")
        assert lines == ["n,classifier,mean_f1,std_f1", "3,knn,0.7,0.1", "3,rf,0.6,0.1",
                         "4,rf,0.5,0.1"]

    def test_render_report_dispatch(self):
        feature_reports = [_report(0.4, 0.1, feature_set="xyz", classifier="knn")]
        component_reports = [_report(0.4, 0.1, n_components=3, classifier="knn")]
        assert set(render_report(feature_reports)) == {
            "table_features.csv", "table_features.txt"
        }
        assert set(render_report(component_reports)) == {
            "table_components.csv", "table_components.txt", "plot_components.csv"
        }

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(_MIXED_REPORTS))
    def test_any_report_order_renders_the_same_bytes(self, reports):
        tables = render_report(reports)
        assert list(tables) == ["table_features.csv", "table_features.txt",
                                "table_components.csv", "table_components.txt",
                                "plot_components.csv"]
        assert tables == render_report(_MIXED_REPORTS)
