import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodcoef
from prodcoef.cli import main
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


def test_corrupt_las_gives_consistency_exit(tmp_path):
    bad = tmp_path / "bad.las"
    bad.write_bytes(build_las(raw_xyz=[(i, i, i) for i in range(5)], declared_count=9))
    assert main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path)]) == 3


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
            "--components", "3..4", "--folds", "3", "--trees", "4"]
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


def test_help_loads_no_process_pool():
    code = (
        "import sys\n"
        "from prodcoef.cli import main\n"
        "try:\n"
        "    main(['evaluate', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing'\n"
        "             or m == 'concurrent.futures.process'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(prodcoef.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "[]"


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


def test_report_rerenders_tables(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--features", str(features), "--table", "2",
        "--components", "3", "--folds", "3", "--trees", "5",
        "--out-dir", str(eval_out),
    ]) == 0
    report_out = tmp_path / "rerender"
    reports = sorted(str(p) for p in eval_out.glob("report_*.json"))
    assert main(["report", *reports, "--out-dir", str(report_out)]) == 0
    rendered = (report_out / "table2.csv").read_text()
    original = (eval_out / "table2.csv").read_text()
    assert rendered == original


@pytest.mark.parametrize("content", [None, "not json\n", '{"mean_f1": 0.5}\n'],
                         ids=["missing", "not json", "no per_fold_f1"])
def test_unreadable_report_gives_io_exit(tmp_path, capsys, content):
    path = tmp_path / "report_t2_n03_knn.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "report_t2_n03_knn.json" in capsys.readouterr().err


def test_report_reproduces_evaluate_table1(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    eval_out = tmp_path / "eval"
    assert main([
        "evaluate", "--features", str(features), "--table", "1",
        "--folds", "3", "--trees", "5", "--out-dir", str(eval_out),
    ]) == 0
    report_out = tmp_path / "rerender"
    # As a shell glob expands report_t1_*.json: full before xyz.
    reports = sorted(str(p) for p in eval_out.glob("report_t1_*.json"))
    assert "full" in reports[0]
    assert main(["report", *reports, "--out-dir", str(report_out)]) == 0
    for name in ("table1.csv", "table1.txt"):
        assert (report_out / name).read_bytes() == (eval_out / name).read_bytes()


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
    assert main(["synth", "--bogus", "--out-dir", str(tmp_path)]) == 1


def test_manifest_records_digests(tmp_path, scene_csv):
    features = _features(tmp_path, scene_csv)
    manifest = json.loads((features.parent / "features.manifest.json").read_text())
    assert manifest["inputs"]["scene.csv"].startswith("sha256:")
    assert manifest["outputs"]["features.csv"].startswith("sha256:")
    assert manifest["config"]["radius"] == 0.3
    assert "threads" not in manifest["config"]
