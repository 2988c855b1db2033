"""The benchmark harness in perfbench/ still imports against the package."""

import subprocess
import sys
from pathlib import Path

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
