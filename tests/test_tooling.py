"""The benchmark harness in perfbench/ still imports against the package,
and its jobs load no more than they use."""

import json
import subprocess
import sys
from pathlib import Path

from prodcoef import cli
from prodcoef.evaluation import EvaluationReport, render_report

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_replay_imports():
    # replay.py imports every package name the benchmark replays with, so
    # a renamed or deleted public name fails here and not only in a
    # benchmark run.
    code = "import sys; sys.path[:0] = sys.argv[1:]; import replay"
    subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )


def test_default_radius_features_does_not_load_scipy_spatial(tmp_path):
    # The whole-cloud count needs no kd-tree; importing scipy.spatial
    # would add about 0.4 s to every default-radius features job.
    scene = tmp_path / "scene.csv"
    scene.write_text("x,y,z,label\n0.1,0.2,0.3,1\n0.4,0.1,0.9,2\n0.7,0.5,0.2,1\n")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from prodcoef.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial imported'\n"
        "sys.exit(code)\n"
    )
    subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "src"), "features", "--input",
         str(scene), "--has-label", "--threads", "2", "--out-dir", str(tmp_path / "out")],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )
    assert (tmp_path / "out" / "features.csv").exists()


def test_render_keys_have_table_files_in_cli_and_replay():
    # evaluate, report and the benchmark's replay each map render_report's
    # keys to file names; a renamed key must fail here, not in a benchmark.
    code = ("import sys, json; sys.path[:0] = sys.argv[1:]; import replay; "
            "print(json.dumps(sorted(replay.TABLE_FILES)))")
    replay_keys = json.loads(subprocess.run(
        [sys.executable, "-B", "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    ).stdout)
    for table_config in ({"feature_set": "xyz"}, {"n_components": 3}):
        reports = [EvaluationReport(per_fold_f1=(0.5, 0.5), mean_f1=0.5, std_f1=0.0,
                                    config={**table_config, "classifier": clf})
                   for clf in ("knn", "rf")]
        keys = set(render_report(reports))
        assert keys and keys <= set(cli.TABLE_FILES) and keys <= set(replay_keys)
