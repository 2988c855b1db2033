import argparse
import builtins
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import prodcoef
import prodcoef.cli as cli_module
from prodcoef.cli import build_parser, main
from prodcoef.matrix import read_feature_csv

from conftest import build_las


@pytest.fixture
def scene_csv(tmp_path):
    out = tmp_path / "scene"
    assert main([
        "synth", "--classes", "4", "--points-per-class", "60",
        "--seed", "7", "--out-dir", str(out),
    ]) == 0
    return out / "scene.csv"


def _features(tmp_path, scene_csv, name="feats", extra=()):
    out = tmp_path / name
    code = main([
        "features", "--input", str(scene_csv), "--has-label",
        "--radius", "0.3", "--out-dir", str(out), *extra,
    ])
    assert code == 0
    return out / "features.csv"


def test_synth_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main([
            "synth", "--classes", "3", "--points-per-class", "40",
            "--seed", "9", "--out-dir", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "a/scene.csv").read_bytes() == (tmp_path / "b/scene.csv").read_bytes()
    manifest = json.loads((tmp_path / "a/synth.manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_features_header_and_rerun_identical(tmp_path, scene_csv):
    first = _features(tmp_path, scene_csv, "f1")
    second = _features(tmp_path, scene_csv, "f2")
    header = first.read_text().splitlines()[0]
    assert header == "x,y,z,a_s,a_ls,a_rs,a_lls,a_rls,a_lrs,a_rrs,label"
    assert len(first.read_text().splitlines()) == 241  # header + 240 points
    assert first.read_bytes() == second.read_bytes()


def test_features_radius_validation_before_compute(tmp_path, scene_csv):
    assert main([
        "features", "--input", str(scene_csv), "--has-label",
        "--radius", "0", "--out-dir", str(tmp_path / "x"),
    ]) == 1


def test_missing_input_gives_io_exit(tmp_path):
    assert main([
        "features", "--input", str(tmp_path / "nope.csv"),
        "--out-dir", str(tmp_path),
    ]) == 2


def test_bad_label_gives_io_exit(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,z,label\n0,0,0,1\n1,1,1,nan\n")
    assert main([
        "features", "--input", str(bad), "--has-label", "--out-dir", str(tmp_path / "o"),
    ]) == 2
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["per-axis", "uniform"])
def test_overflowing_span_gives_validation_exit(tmp_path, capsys, mode):
    # Both points are finite, but x spans 2e308, beyond float64.
    huge = tmp_path / "huge.csv"
    huge.write_text("1e308,0,0\n-1e308,1,1\n")
    assert main([
        "features", "--input", str(huge), "--normalize", mode,
        "--out-dir", str(tmp_path / "o"),
    ]) == 1
    assert "axis x spans min -1e+308 to max 1e+308" in capsys.readouterr().err


def test_overflowing_pca_covariance_gives_validation_exit_and_no_model(tmp_path, capsys):
    # Finite features whose second column, scaled by 1e200, has a
    # variance past float64's range.
    features = tmp_path / "features.csv"
    features.write_text("a,b,c\n" + "".join(
        f"{i % 7 * 0.1},{(i % 5) * 1e200},{i % 3 * 0.2}\n" for i in range(60)))
    assert main(["pca", "--features", str(features), "--components", "3",
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "rescale the features" in capsys.readouterr().err
    assert not (tmp_path / "o" / "pca_model.json").exists()


@pytest.mark.parametrize("row", ["0.5,99999999999999999999", "nan,1"])
def test_bad_feature_file_gives_io_exit(tmp_path, capsys, row):
    bad = tmp_path / "features.csv"
    bad.write_text(f"a,label\n0.1,1\n{row}\n")
    assert main([
        "evaluate", "--features", str(bad), "--out-dir", str(tmp_path / "o"),
    ]) == 2
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe" + "x,y,z,label\n0,0,0,1\n".encode("utf-16-le"),
    b"x,y,z,label\n" + b"1" * 200_000 + b",0,0,1\n",
], ids=["utf-16", "long field"])
@pytest.mark.parametrize("command", [
    ["features", "--has-label", "--input"],
    ["evaluate", "--features"],
], ids=["features", "evaluate"])
def test_unreadable_csv_gives_io_exit(tmp_path, capsys, content, command):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(content)
    assert main([*command, str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "bin.csv" in capsys.readouterr().err


_FEATURE_HEADER = "x,y,z,a_s,a_ls,a_rs,a_lls,a_rls,a_lrs,a_rrs,label\n"


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["header only", "blank rows"])
@pytest.mark.parametrize("command, header, error", [
    ("ingest", "x,y,z,label\n", "cannot normalize an empty point cloud"),
    ("features", "x,y,z,label\n", "cannot normalize an empty point cloud"),
    ("evaluate", _FEATURE_HEADER, "0 rows cannot fill 5 folds"),
], ids=["ingest", "features", "evaluate"])
def test_csv_without_rows_fails_without_numpy_warning(tmp_path, body, command, header, error):
    # np.loadtxt warns "input contained no data" on such a body; the
    # readers keep that off stderr, which holds only the error line.
    path = tmp_path / "in.csv"
    path.write_text(header + body)
    flag = "--features" if command == "evaluate" else "--input"
    label = [] if command == "evaluate" else ["--has-label"]
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "prodcoef", command, flag, str(path), *label,
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == f"error: {error}\n"


def test_corrupt_las_gives_consistency_exit(tmp_path):
    bad = tmp_path / "bad.las"
    bad.write_bytes(build_las(raw_xyz=[(i, i, i) for i in range(5)], declared_count=9))
    assert main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path)]) == 3


def _program(args, **streams):
    """`python -m prodcoef ARGS...` run to its end in a fresh interpreter,
    with 80-column help; stdout and stderr are captured unless given."""
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]), COLUMNS="80")
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "prodcoef", *args], env=env, text=True,
                          timeout=60, **streams)


def test_program_exit_codes_and_complete_outputs(tmp_path, monkeypatch):
    # `python -m prodcoef` leaves by os._exit, after flushing its streams
    # and closing its files; its codes and outputs are cli.main's.
    monkeypatch.setenv("COLUMNS", "80")
    done = _program(["--help"])
    assert (done.returncode, done.stdout, done.stderr) == (0, build_parser().format_help(), "")
    done = _program(["bogus"])
    assert done.returncode == 1
    assert done.stderr.startswith("error: argument command: invalid choice: 'bogus'")
    missing = tmp_path / "nope.csv"
    done = _program(["features", "--input", str(missing), "--out-dir", str(tmp_path / "o")])
    assert (done.returncode, done.stderr) == (
        2, f"error: cannot open {missing}: [Errno 2] No such file or directory: '{missing}'\n")
    bad = tmp_path / "bad.las"
    bad.write_bytes(build_las(raw_xyz=[(i, i, i) for i in range(5)], declared_count=9))
    done = _program(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
    assert done.returncode == 3 and done.stderr.startswith("error: ")
    # A job's files and its log line are complete: the bytes cli.main writes.
    argv = ["synth", "--points-per-class", "50", "--out-dir"]
    done = _program([*argv, str(tmp_path / "program")])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "", f"INFO synth: 200 points -> {tmp_path / 'program' / 'scene.csv'}\n")
    assert main([*argv, str(tmp_path / "main")]) == 0
    _same_files(tmp_path / "program", tmp_path / "main")


@pytest.mark.parametrize("stdout", ["closed", "broken pipe"])
def test_help_into_a_closed_stdout_still_exits_0(monkeypatch, stdout):
    # With descriptor 1 closed, sys.stdout is None and argparse writes the
    # help to stderr. Into a pipe that nobody reads the write fails, and
    # argparse drops the text without an error.
    monkeypatch.setenv("COLUMNS", "80")
    if stdout == "closed":
        done = _program(["--help"], stdout=None, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (0, build_parser().format_help())
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _program(["--help"], stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("command, blocked", [("features", "features.csv"),
                                              ("evaluate", "report_t1_xyz_knn.json")])
def test_unwritable_output_file_gives_io_exit(tmp_path, scene_csv, capsys, command, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "features":
        argv = ["features", "--input", str(scene_csv), "--has-label", "--radius", "0.3"]
    else:
        argv = ["evaluate", "--features", str(_features(tmp_path, scene_csv)), "--table", "1",
                "--folds", "3", "--trees", "2"]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / blocked}: IsADirectoryError: [Errno 21] Is a directory")


def test_ingest_las_manifest_summary(tmp_path):
    las = tmp_path / "tile.las"
    las.write_bytes(build_las(
        raw_xyz=[(100, 200, 300), (400, 500, 600)], classifications=[2, 5]
    ))
    out = tmp_path / "ingested"
    assert main(["ingest", "--input", str(las), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "ingest.manifest.json").read_text())
    assert manifest["config"]["las_header"]["point_count"] == 2
    assert manifest["config"]["las_header"]["version"] == [1, 2]
    points = (out / "points.csv").read_text().splitlines()
    assert points[0] == "x,y,z,label"
    assert len(points) == 3


def test_evaluate_table1_grid(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    out = tmp_path / "eval1"
    assert main([
        "evaluate", "--features", str(features), "--table", "1",
        "--folds", "3", "--trees", "10", "--out-dir", str(out),
    ]) == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "report_t1_xyz_knn.json", "report_t1_xyz_rf.json",
        "report_t1_full_knn.json", "report_t1_full_rf.json",
        "table1.csv", "table1.txt", "evaluate.manifest.json",
    } <= names
    table = (out / "table1.csv").read_text().splitlines()
    assert len(table) == 3  # header + xyz row + full row


def test_evaluate_table2_grid_and_plot(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    out = tmp_path / "eval2"
    assert main([
        "evaluate", "--features", str(features), "--table", "2",
        "--components", "3..4", "--folds", "3", "--trees", "10",
        "--out-dir", str(out),
    ]) == 0
    table = (out / "table2.csv").read_text().splitlines()
    assert table[0] == "n_components,knn_f1,rf_f1"
    assert len(table) == 3
    plot = (out / "plot_table2.csv").read_text().splitlines()
    assert plot[0] == "n,classifier,mean_f1,std_f1"
    assert len(plot) == 5  # 2 component counts x 2 classifiers
    report = json.loads((out / "report_t2_n03_knn.json").read_text())
    assert report["config"]["upstream"]["radius"] == 0.3  # audit chain
    assert report["config"]["features_digest"].startswith("sha256:")
    assert report["config"]["n_components"] == 3


def test_evaluate_component_range_validation(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    assert main([
        "evaluate", "--features", str(features), "--table", "2",
        "--components", "12", "--out-dir", str(tmp_path / "bad"),
    ]) == 1


def test_evaluate_requires_labels(tmp_path):
    unlabeled = tmp_path / "plain.csv"
    unlabeled.write_text("x,y,z\n" + "\n".join(f"0.{i},0.{i},0.{i}" for i in range(1, 9)) + "\n")
    feat_out = tmp_path / "uf"
    assert main([
        "features", "--input", str(unlabeled), "--radius", "0.5",
        "--out-dir", str(feat_out),
    ]) == 0
    assert main([
        "evaluate", "--features", str(feat_out / "features.csv"),
        "--out-dir", str(tmp_path / "ue"),
    ]) == 1


@pytest.mark.parametrize("argv", [
    ["train", "--classifier", "knn"],
    ["train", "--classifier", "knn", "--components", "3"],
    ["train", "--classifier", "rf", "--trees", "2"],
    ["evaluate", "--table", "1", "--folds", "2", "--trees", "2"],
    ["evaluate", "--table", "2", "--components", "3", "--folds", "2", "--trees", "2"],
], ids=["train knn", "train pca knn", "train rf", "evaluate table 1", "evaluate table 2"])
def test_unlabeled_features_give_validation_exit_and_no_files(tmp_path, capsys, argv):
    # The classifiers and cross-validation refuse unlabeled rows before
    # any output is written.
    points = tmp_path / "plain.csv"
    points.write_text("x,y,z\n" + "\n".join(f"0.{i},0.{i},0.{i}" for i in range(1, 9)) + "\n")
    assert main(["features", "--input", str(points), "--radius", "0.5",
                 "--out-dir", str(tmp_path / "uf")]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([argv[0], "--features", str(tmp_path / "uf" / "features.csv"), *argv[1:],
                 "--out-dir", str(out)]) == 1
    assert "label" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_run_equals_staged_pipeline_byte_for_byte(tmp_path, scene_csv):
    staged = tmp_path / "staged"
    oneshot = tmp_path / "oneshot"
    common = ["--has-label", "--radius", "0.3", "--table", "2",
              "--components", "3..4", "--folds", "3", "--trees", "8"]
    assert main([
        "features", "--input", str(scene_csv), "--has-label",
        "--radius", "0.3", "--out-dir", str(staged),
    ]) == 0
    assert main([
        "evaluate", "--features", str(staged / "features.csv"),
        "--table", "2", "--components", "3..4", "--folds", "3",
        "--trees", "8", "--out-dir", str(staged),
    ]) == 0
    assert main([
        "run", "--input", str(scene_csv), *common, "--out-dir", str(oneshot),
    ]) == 0
    for name in (
        "features.csv", "features.manifest.json",
        "report_t2_n03_knn.json", "report_t2_n04_rf.json",
        "table2.csv", "table2.txt", "plot_table2.csv", "evaluate.manifest.json",
    ):
        assert (staged / name).read_bytes() == (oneshot / name).read_bytes(), name


def test_run_evaluates_the_matrix_it_extracted(tmp_path, scene_csv, monkeypatch):
    # The staged pipeline reads features.csv back; run must hand its
    # in-memory matrix to evaluate and still write the same files.
    staged = tmp_path / "staged"
    features = _features(tmp_path, scene_csv, "staged")
    assert main([
        "evaluate", "--features", str(features), "--table", "1", "--folds", "3",
        "--trees", "4", "--out-dir", str(staged),
    ]) == 0

    def no_reread(path):
        raise AssertionError(f"run re-read {path}")

    monkeypatch.setattr("prodcoef.matrix.read_feature_csv", no_reread)
    oneshot = tmp_path / "oneshot"
    assert main([
        "run", "--input", str(scene_csv), "--has-label", "--radius", "0.3",
        "--table", "1", "--folds", "3", "--trees", "4", "--out-dir", str(oneshot),
    ]) == 0
    _same_files(staged, oneshot)


def test_run_takes_upstream_from_memory(tmp_path, scene_csv, monkeypatch):
    # run hands evaluate the config it wrote to features.manifest.json;
    # only evaluate reads that manifest back.
    staged = tmp_path / "staged"
    features = _features(tmp_path, scene_csv, "staged")
    assert main([
        "evaluate", "--features", str(features), "--table", "1", "--folds", "3",
        "--trees", "4", "--out-dir", str(staged),
    ]) == 0

    def no_reread(path):
        raise AssertionError(f"run re-read the manifest beside {path}")

    monkeypatch.setattr(cli_module, "_upstream_config", no_reread)
    oneshot = tmp_path / "oneshot"
    assert main([
        "run", "--input", str(scene_csv), "--has-label", "--radius", "0.3",
        "--table", "1", "--folds", "3", "--trees", "4", "--out-dir", str(oneshot),
    ]) == 0
    _same_files(staged, oneshot)


def test_threads_do_not_change_artifacts(tmp_path, scene_csv):
    outs = []
    for name, threads in (("t1", "1"), ("t2", "4")):
        out = tmp_path / name
        assert main([
            "run", "--input", str(scene_csv), "--has-label",
            "--radius", "0.3", "--table", "1", "--folds", "3",
            "--trees", "8", "--threads", threads, "--out-dir", str(out),
        ]) == 0
        outs.append(out)
    for name in ("features.csv", "report_t1_full_knn.json", "table1.csv",
                 "features.manifest.json", "evaluate.manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("table", ["1", "2"])
def test_evaluate_threads_do_not_change_artifacts(tmp_path, scene_csv, table):
    # --threads 2 runs in a fresh interpreter, where evaluate forks its
    # fold workers before anything has loaded scipy.spatial.
    features = _features(tmp_path, scene_csv)
    argv = ["evaluate", "--features", str(features), "--table", table,
            *(["--components", "3..4"] if table == "2" else []), "--folds", "3",
            "--trees", "4"]
    assert main([*argv, "--threads", "1", "--out-dir", str(tmp_path / "t1")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "prodcoef", *argv, "--threads", "2",
                    "--out-dir", str(tmp_path / "t2")], env=env, check=True, timeout=120)
    _same_files(tmp_path / "t1", tmp_path / "t2")


def test_run_threads_auto_equals_one(tmp_path, scene_csv):
    for threads in ("1", "0"):
        assert main([
            "run", "--input", str(scene_csv), "--has-label", "--radius", "0.3",
            "--table", "2", "--components", "3..4", "--folds", "3", "--trees", "4",
            "--threads", threads, "--out-dir", str(tmp_path / f"t{threads}"),
        ]) == 0
    _same_files(tmp_path / "t1", tmp_path / "t0")


# Runs the Python statements in its first argument, then the command
# line ARGV... in the rest through cli.main, the in-process part of
# `python -m prodcoef`, and prints the loaded modules last.
_RUN_AND_LIST_MODULES = (
    "import json, sys\n"
    "exec(sys.argv.pop(1))\n"
    "from prodcoef.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
_PROCESS_POOL = ("multiprocessing", "concurrent.futures.process")
_NOT_FEATURES = ("scipy.spatial", "prodcoef.evaluation", "prodcoef.forest", "prodcoef.knn",
                 "prodcoef.pca", "prodcoef.dyadic", "prodcoef.synth")


@pytest.mark.parametrize("argv, unloaded", [
    pytest.param(["--help"], ("numpy", *_PROCESS_POOL), id="help"),
    pytest.param(["evaluate", "--help"], ("numpy", *_PROCESS_POOL), id="evaluate-help"),
    # Neither the whole-cloud count nor the radius cell grid needs a
    # kd-tree; importing scipy.spatial would add about 0.4 s to every
    # features job.
    pytest.param(["features", "--input", "{scene}", "--has-label", "--threads", "2",
                  "--out-dir", "{out}"], _NOT_FEATURES, id="features-default-radius"),
    pytest.param(["features", "--input", "{scene}", "--has-label", "--radius", "0.3",
                  "--threads", "2", "--out-dir", "{out}"], _NOT_FEATURES,
                 id="features-radius"),
    # Folds of a few hundred training rows take KNN's direct filter,
    # which needs no kd-tree, before and after a fork.
    # Fold workers and formatters are plain forked processes.
    # np.unique without an inverse would import numpy.ma (numpy 2.4).
    pytest.param(["evaluate", "--features", "{features}", "--table", "1", "--folds", "3",
                  "--trees", "2", "--out-dir", "{out}"],
                 ("scipy.spatial", "prodcoef.las", "prodcoef.synth", "prodcoef.dyadic",
                  "numpy.ma", *_PROCESS_POOL),
                 id="evaluate"),
    pytest.param(["run", "--input", "{scene}", "--has-label", "--radius", "0.3", "--table", "1",
                  "--folds", "3", "--trees", "2", "--threads", "2", "--out-dir", "{out}"],
                 ("scipy.spatial", "prodcoef.las", "prodcoef.synth", "prodcoef.dyadic",
                  "numpy.ma", *_PROCESS_POOL),
                 id="run-threads"),
])
def test_command_leaves_modules_unloaded(tmp_path, scene_csv, argv, unloaded):
    # Each command imports only the modules it runs, so --help, the
    # benchmark's no-op job, starts without numpy.
    out = tmp_path / "out"
    argv = [a.format(scene=scene_csv, features=_features(tmp_path, scene_csv), out=out)
            for a in argv]
    loaded = _loaded_modules(argv)
    assert [m for m in loaded
            if any(m == name or m.startswith(name + ".") for name in unloaded)] == []
    if "--out-dir" in argv:
        assert (out / ("features.csv" if argv[0] == "features" else "table1.csv")).exists()


def _loaded_modules(argv, preamble=""):
    """The modules loaded once the command line ARGV... has run through
    cli.main in a fresh interpreter, after the statements in
    `preamble`."""
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, preamble, *argv],
                          env=env, check=True, capture_output=True, text=True, timeout=60)
    return json.loads(done.stdout.splitlines()[-1])


def test_kdtree_folds_load_scipy_spatial_and_keep_the_table(tmp_path):
    # With the direct filter's limit lowered to 0 rows, every KNN fold
    # takes the kd-tree and the table is the same bytes. The kd-tree fit
    # imports scipy.spatial where it runs: at --threads 2 that is in the
    # forked workers, so the parent never loads it, direct or not; at
    # --threads 1 the fit runs in the parent, which then has it loaded,
    # so the lowered limit did reach the kd-tree path. The second shape
    # is the benchmark's knn_table1: 2,400 rows, five folds of 1,920
    # training rows.
    kdtree = "import prodcoef.knn\nprodcoef.knn._DIRECT_ROWS = 0"
    for per_class, options in ((60, ["--folds", "3", "--trees", "2"]), (600, ["--trees", "1"])):
        out = tmp_path / str(per_class)
        assert main(["synth", "--classes", "4", "--points-per-class", str(per_class),
                     "--seed", "7", "--out-dir", str(out)]) == 0
        argv = ["evaluate", "--features", str(_features(out, out / "scene.csv")), "--table", "1",
                *options, "--out-dir"]
        direct = _loaded_modules([*argv, str(out / "direct"), "--threads", "2"])
        forked = _loaded_modules([*argv, str(out / "forked"), "--threads", "2"], preamble=kdtree)
        serial = _loaded_modules([*argv, str(out / "serial"), "--threads", "1"], preamble=kdtree)
        assert "scipy.spatial" not in direct, per_class
        assert "scipy.spatial" not in forked, per_class
        assert "scipy.spatial" in serial, per_class
        table = (out / "direct" / "table1.csv").read_bytes()
        for name in ("forked", "serial"):
            assert (out / name / "table1.csv").read_bytes() == table, (per_class, name)


def test_threads_do_not_change_default_radius_features(tmp_path, scene_csv):
    outs = []
    for name, threads in (("t1", "1"), ("t2", "2")):
        out = tmp_path / name
        assert main([
            "features", "--input", str(scene_csv), "--has-label",
            "--threads", threads, "--out-dir", str(out),
        ]) == 0
        outs.append(out)
    for name in ("features.csv", "features.manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_threads_do_not_change_radius_features(tmp_path, scene_csv, monkeypatch):
    # With parts of at least 16 rows, features.csv's 240 rows are written
    # by 1, 2 and 3 processes (and one per CPU at 0).
    monkeypatch.setattr("prodcoef.matrix._WRITE_ROWS", 16)
    for threads in ("1", "2", "3", "0"):
        assert main([
            "features", "--input", str(scene_csv), "--has-label", "--radius", "0.12",
            "--threads", threads, "--out-dir", str(tmp_path / f"t{threads}"),
        ]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    for threads in ("2", "3", "0"):
        _same_files(tmp_path / "t1", tmp_path / f"t{threads}")


@pytest.mark.parametrize("command", ["ingest", "features"])
def test_las_input_is_read_once(tmp_path, monkeypatch, command):
    # The manifest's input digest comes from the bytes read_las parsed.
    las = tmp_path / "tile.las"
    las.write_bytes(build_las(raw_xyz=[(i, 7 * i % 5, 3 * i % 4) for i in range(12)],
                              classifications=[i % 3 for i in range(12)]))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    out = tmp_path / "out"
    assert main([command, "--input", str(las), "--out-dir", str(out)]) == 0
    assert [Path(f).resolve() for f in opened if isinstance(f, (str, Path))].count(
        las.resolve()) == 1
    manifest = json.loads((out / f"{command}.manifest.json").read_text())
    digest = "sha256:" + hashlib.sha256(las.read_bytes()).hexdigest()
    assert manifest["inputs"] == {"tile.las": digest}


@pytest.mark.parametrize("command", ["ingest", "features"])
def test_non_finite_las_scale_gives_format_exit(tmp_path, capsys, command):
    las = tmp_path / "odd.las"
    las.write_bytes(build_las(raw_xyz=[(0, 0, 0), (1, 2, 3)],
                              scale=(0.01, float("nan"), 0.01)))
    assert main([command, "--input", str(las), "--out-dir", str(tmp_path / "out")]) == 2
    assert "odd.las: non-finite Y coordinate scale nan" in capsys.readouterr().err


def test_pca_subcommand(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    out = tmp_path / "pca"
    assert main([
        "pca", "--features", str(features), "--components", "4",
        "--out-dir", str(out),
    ]) == 0
    model = json.loads((out / "pca_model.json").read_text())
    assert model["n"] == 4
    assert len(model["components"]) == 4
    assert len(model["components"][0]) == 10
    z = read_feature_csv(out / "z.csv")
    assert z.column_names == ("pc1", "pc2", "pc3", "pc4")
    assert z.labels is not None


def test_train_rf_and_knn(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    rf_out = tmp_path / "rf"
    assert main([
        "train", "--features", str(features), "--classifier", "rf",
        "--trees", "5", "--out-dir", str(rf_out),
    ]) == 0
    forest = json.loads((rf_out / "rf_model.json").read_text())
    assert len(forest["trees"]) == 5

    knn_out = tmp_path / "knn"
    assert main([
        "train", "--features", str(features), "--classifier", "knn",
        "--components", "3", "--k", "5", "--out-dir", str(knn_out),
    ]) == 0
    ref = json.loads((knn_out / "knn_model.json").read_text())
    assert ref["k"] == 5
    assert ref["training_csv"] == "features.csv"
    assert ref["training_digest"].startswith("sha256:")
    assert (knn_out / "pca_model.json").exists()


def test_train_refuses_the_other_classifiers_flags(tmp_path, scene_csv):
    # A flag the trained model never reads would only change the manifest.
    features = _features(tmp_path, scene_csv)
    for argv in (["--classifier", "knn", "--trees", "7"],
                 ["--classifier", "knn", "--max-depth", "3"],
                 ["--classifier", "rf", "--k", "5"]):
        assert main(["train", "--features", str(features), *argv,
                     "--out-dir", str(tmp_path / "refused")]) == 1, argv
    assert not (tmp_path / "refused").exists()
    # Unset flags are still recorded at their defaults.
    assert main(["train", "--features", str(features), "--classifier", "knn",
                 "--out-dir", str(tmp_path / "knn")]) == 0
    config = json.loads((tmp_path / "knn" / "train.manifest.json").read_text())["config"]
    assert (config["k"], config["trees"], config["max_depth"]) == (10, 100, None)


@pytest.mark.parametrize("command", ["evaluate", "run"])
def test_table1_refuses_components(tmp_path, scene_csv, command, capsys):
    features = _features(tmp_path, scene_csv)
    source = (["--features", str(features)] if command == "evaluate"
              else ["--input", str(scene_csv), "--has-label", "--radius", "0.3"])
    assert main([command, *source, "--table", "1", "--components", "5",
                 "--out-dir", str(tmp_path / "refused")]) == 1
    assert "--components" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_report_rerenders_tables(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--features", str(features), "--table", "2",
        "--components", "3", "--folds", "3", "--trees", "5",
        "--out-dir", str(eval_out),
    ]) == 0
    reports = sorted(str(p) for p in eval_out.glob("report_*.json"))
    for i, order in enumerate((reports, reports[::-1])):
        report_out = tmp_path / f"rerender{i}"
        assert main(["report", *order, "--out-dir", str(report_out)]) == 0
        _same_tables(report_out, eval_out, ["plot_table2.csv", "table2.csv", "table2.txt"])


def _same_tables(rendered, evaluated, names):
    # report writes exactly `names`, each with evaluate's bytes.
    assert sorted(p.name for p in rendered.iterdir()) == names
    for name in names:
        assert (rendered / name).read_bytes() == (evaluated / name).read_bytes(), name


_GOOD_REPORT = {
    "per_fold_f1": [0.5, 1], "mean_f1": 0.75, "std_f1": 0.25,
    "config": {"classifier": "knn", "n_components": 3},
    "classes": [-1, 4], "confusion": [[3, 1], [0, 4]],
}


def _report_with(**fields) -> str:
    return json.dumps({**_GOOD_REPORT, **fields}) + "\n"


_BAD_REPORT_FIELDS = {
    "mean_f1 text": {"mean_f1": "abc"},
    "std_f1 null": {"std_f1": None},
    "mean_f1 bool": {"mean_f1": True},
    "mean_f1 past float64": {"mean_f1": 10**400},
    "std_f1 past float64": {"std_f1": -(10**400)},
    "per_fold_f1 entry past float64": {"per_fold_f1": [0.5, 10**400]},
    "config list": {"config": []},
    "classes text": {"classes": "ab"},
    "classes floats": {"classes": [-1.0, 4.0]},
    "per_fold_f1 text": {"per_fold_f1": "ab"},
    "per_fold_f1 null entry": {"per_fold_f1": [0.5, None]},
    "confusion text": {"confusion": "ab"},
    "confusion short": {"confusion": [[3, 1]]},
    "confusion ragged": {"confusion": [[3, 1], [0]]},
    "confusion floats": {"confusion": [[3.0, 1], [0, 4]]},
    "confusion negative": {"confusion": [[3, -1], [0, 4]]},
    "confusion past int64": {"confusion": [[2**63, 1], [0, 4]]},
    **{f"config {name} {what}": {"config": {**_GOOD_REPORT["config"], name: value}}
       for name, what, value in (
           ("feature_set", "int", 5),
           ("n_components", "text", "abc"),
           ("n_components", "list", [1]),
           ("n_components", "bool", True),
           ("n_components", "zero", 0),
           ("n_components", "float", 3.0),
           ("classifier", "int", 3),
       )},
}


def test_well_typed_report_renders(tmp_path):
    # The base that the bad-field cases below each break in one field.
    path = tmp_path / "report_t2_n03_knn.json"
    path.write_text(_report_with())
    assert main(["report", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "table2.csv").read_text().splitlines()[1] == "3,0.75 (± 0.25),"


@pytest.mark.parametrize(
    "content",
    [None, "not json\n", '{"mean_f1": 0.5}\n', "[]\n", "[" * 200_000,
     *(_report_with(**fields) for fields in _BAD_REPORT_FIELDS.values())],
    ids=["missing", "not json", "no per_fold_f1", "json list", "nested too deep",
         *_BAD_REPORT_FIELDS],
)
def test_unreadable_report_gives_io_exit(tmp_path, capsys, content):
    path = tmp_path / "report_t2_n03_knn.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "cannot read report" in err and "report_t2_n03_knn.json" in err
    assert not (tmp_path / "o").exists()
    assert "Traceback" not in err


@pytest.mark.parametrize("classifier", ["a,b", None])
def test_report_ignores_other_classifiers(tmp_path, classifier):
    # Only knn and rf reports fill cells: the same files come out as
    # from the knn report alone.
    paths = [tmp_path / "knn.json", tmp_path / "other.json"]
    paths[0].write_text(_report_with())
    paths[1].write_text(_report_with(
        config={**_GOOD_REPORT["config"], "classifier": classifier}))
    assert main(["report", *map(str, paths), "--out-dir", str(tmp_path / "both")]) == 0
    assert main(["report", str(paths[0]), "--out-dir", str(tmp_path / "knn")]) == 0
    _same_files(tmp_path / "both", tmp_path / "knn")
    assert (tmp_path / "knn" / "plot_table2.csv").read_text() == (
        "n,classifier,mean_f1,std_f1\n3,knn,0.75,0.25\n")


@pytest.mark.parametrize("configs, error", [
    ([{"classifier": "knn", "n_components": 3}] * 2, "two reports"),
    ([{"classifier": "knn", "feature_set": "xyz"}] * 2, "two reports"),
    ([{"classifier": None, "n_components": 3}, {"classifier": "knn"}], "no report fills"),
], ids=["table 2 cell twice", "table 1 cell twice", "no cell"])
def test_report_cell_twice_or_no_cell_gives_validation_exit_and_no_files(
        tmp_path, capsys, configs, error):
    paths = []
    for i, config in enumerate(configs):
        paths.append(tmp_path / f"report_{i}.json")
        paths[-1].write_text(_report_with(config=config))
    out = tmp_path / "out"
    assert main(["report", *map(str, paths), "--out-dir", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_report_table_csv_quotes_any_title(tmp_path):
    # A comma, a quote or a line break in a feature set's name stays in
    # its one CSV cell.
    names = ['a"b,c', "x\ny"]
    paths = []
    for i, name in enumerate(names):
        config = {"classifier": "knn", "feature_set": name}
        paths.append(tmp_path / f"report_t1_{i}_knn.json")
        paths[-1].write_text(_report_with(config=config))
    assert main(["report", *map(str, paths), "--out-dir", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "table1.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["features", "knn_f1", "rf_f1"],
                    *([name, "0.75 (± 0.25)", ""] for name in names)]


def test_report_reproduces_evaluate_table1(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--features", str(features), "--table", "1",
        "--folds", "3", "--trees", "5", "--out-dir", str(eval_out),
    ]) == 0
    # As a shell glob expands report_t1_*.json (full before xyz), and
    # reversed (rf before knn).
    reports = sorted(str(p) for p in eval_out.glob("report_t1_*.json"))
    assert "full" in reports[0]
    for i, order in enumerate((reports, reports[::-1])):
        report_out = tmp_path / f"rerender{i}"
        assert main(["report", *order, "--out-dir", str(report_out)]) == 0
        _same_tables(report_out, eval_out, ["table1.csv", "table1.txt"])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overflowing_knn_distances_give_validation_exit(tmp_path, capsys, threads):
    # Features near 1e160: every squared distance would overflow. The
    # error is raised in a fold job, in a worker process at --threads 2.
    rows = [f"{i}e159,{i % 3}e159,0,1,2,3,4,5,6,7,{i % 2}" for i in range(12)]
    path = tmp_path / "features.csv"
    path.write_text(
        "x,y,z,a_s,a_ls,a_rs,a_lls,a_rls,a_lrs,a_rrs,label\n" + "\n".join(rows) + "\n"
    )
    assert main([
        "evaluate", "--features", str(path), "--table", "1", "--folds", "2",
        "--k", "3", "--threads", threads, "--out-dir", str(tmp_path / "o"),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: KNN squared distances overflow: the squared column spans of the "
        "training and query rows sum to inf; rescale the features\n"
    )


def test_unknown_flag_maps_to_validation_exit(tmp_path):
    # --threads is only on features, evaluate and run; report takes no --seed.
    for argv in (
        ["synth", "--bogus"],
        ["synth", "--threads", "2"],
        ["ingest", "--input", "scene.las", "--threads", "2"],
        ["pca", "--features", "features.csv", "--components", "3", "--threads", "2"],
        ["train", "--features", "features.csv", "--classifier", "rf", "--threads", "2"],
        ["report", "report.json", "--threads", "2"],
        ["report", "report.json", "--seed", "1"],
    ):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1, argv


class _ReadRecorder(argparse.Namespace):
    """A Namespace that records the name of every attribute read from it
    in `reads`, a slot, so that vars() lists only the parsed dests."""

    __slots__ = ("reads",)

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


# Tiny inputs for each subcommand; {root} holds the files that
# stage_inputs writes.
_STAGE_ARGS = {
    "synth": ["--classes", "3", "--points-per-class", "30"],
    "ingest": ["--input", "{root}/scene.csv", "--has-label"],
    "features": ["--input", "{root}/scene.csv", "--has-label", "--radius", "0.4"],
    "pca": ["--features", "{root}/features.csv", "--components", "3"],
    "train": ["--features", "{root}/features.csv", "--classifier", "rf", "--trees", "2"],
    "evaluate": ["--features", "{root}/features.csv", "--components", "3", "--folds", "3",
                 "--trees", "2"],
    "run": ["--input", "{root}/scene.csv", "--has-label", "--radius", "0.4",
            "--components", "3", "--folds", "3", "--trees", "2"],
    "report": ["{root}/report_t2_n03_knn.json", "{root}/report_t2_n03_rf.json"],
}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("stages")
    for command in ("synth", "features", "evaluate"):
        argv = [a.format(root=root) for a in _STAGE_ARGS[command]]
        assert main([command, *argv, "--out-dir", str(root)]) == 0
    return root


def test_every_subcommand_has_tiny_inputs():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_STAGE_ARGS)


@pytest.mark.parametrize("command", list(_STAGE_ARGS))
def test_every_flag_is_read(tmp_path, stage_inputs, command):
    # A flag that its command's handler never reads only adds a setting
    # that does nothing.
    argv = [command, *(a.format(root=stage_inputs) for a in _STAGE_ARGS[command]),
            "--out-dir", str(tmp_path)]
    args = build_parser().parse_args(argv, namespace=_ReadRecorder())
    declared = set(vars(args)) - {"func", "command"}
    args.reads.clear()
    assert args.func(args) == 0
    assert declared - args.reads == set()


@pytest.mark.parametrize("command", list(_STAGE_ARGS))
def test_out_dir_that_cannot_be_made_gives_io_exit(tmp_path, stage_inputs, command, capsys):
    # A regular file, or a path through one, cannot be an output
    # directory; that is an I/O error naming the path, not a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        argv = [command, *(a.format(root=stage_inputs) for a in _STAGE_ARGS[command]),
                "--out-dir", str(out)]
        assert main(argv) == 2, out
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err, err


def test_manifest_records_digests(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    manifest = json.loads((features.parent / "features.manifest.json").read_text())
    assert manifest["inputs"]["scene.csv"].startswith("sha256:")
    assert manifest["outputs"]["features.csv"].startswith("sha256:")
    assert manifest["config"]["radius"] == 0.3
    assert "threads" not in manifest["config"]


@pytest.mark.parametrize("manifest, upstream", [
    (None, None),
    (b'{"config": {"radius": 0.3}}', {"radius": 0.3}),
    (b"[1, 2]", None),
    (b'{"config": 5}', None),
    (b'{"config": [1]}', None),
    (b'\xff\xfe{"config": {}}', None),
    (b'{"config": {"radius": ', None),
    (b"[" * 100_000 + b"]" * 100_000, None),
], ids=["missing", "object", "list", "number config", "list config", "not utf-8",
        "truncated", "deeply nested"])
def test_upstream_is_an_object_config_or_null(tmp_path, scene_csv, manifest, upstream):
    features = _features(tmp_path, scene_csv)
    manifest_path = features.parent / "features.manifest.json"
    if manifest is None:
        manifest_path.unlink()
    else:
        manifest_path.write_bytes(manifest)
    out = tmp_path / "eval"
    assert main(["evaluate", "--features", str(features), "--table", "1", "--folds", "2",
                 "--trees", "2", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report_t1_full_knn.json").read_text())
    assert report["config"]["upstream"] == upstream


@pytest.mark.parametrize("argv", [
    ["evaluate", "--features", "{features}", "--table", "1", "--folds", "2", "--trees", "2"],
    ["train", "--features", "{features}", "--classifier", "knn", "--components", "3"],
    ["run", "--input", "{scene}", "--has-label", "--radius", "0.3", "--table", "1",
     "--folds", "2", "--trees", "2"],
    ["ingest", "--input", "{scene}", "--has-label"],
], ids=["evaluate", "train knn", "run", "ingest"])
def test_each_file_is_digested_once(tmp_path, scene_csv, monkeypatch, argv):
    # run digests features.csv for the features manifest and reuses
    # that digest as evaluate's input.
    features = _features(tmp_path, scene_csv)
    digested = []
    digest = cli_module._digest

    def counting_digest(path):
        digested.append(Path(path).resolve())
        return digest(path)

    monkeypatch.setattr(cli_module, "_digest", counting_digest)
    argv = [a.format(features=features, scene=scene_csv) for a in argv]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    counts = Counter(digested)
    assert Path(argv[2]).resolve() in counts
    assert set(counts.values()) == {1}, counts

