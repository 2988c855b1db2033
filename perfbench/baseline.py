#!/usr/bin/env python3
"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py

Runs perfbench/run.py once per workload and seed in SEEDS with tracing
off, then once per workload with tracing on at TRACE_SEED, all with the
run length from BENCHMARK.json. For each end-to-end metric it reports
the median and quartiles over the seeds and the spread: the distance
between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them. The result, together with
LAYER_MAP, is written to perfbench/baseline.json. Exits non-zero if any
run is incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALL = ("local_features", "fullcloud_features", "desk_table2", "knn_table1")
FEATURES = ("local_features", "fullcloud_features")
CV = ("desk_table2", "knn_table1")
SEEDS = tuple(range(1, 11))
TRACE_SEED = 11

# Which end-to-end metrics each per-layer metric should move, and on
# which workloads. The other workloads are the bypass for that layer.
LAYER_MAP = {
    "las.read_s": (("wall_s", "peak_rss_mb"), ("local_features",)),
    "las.mb_per_s": (("wall_s", "peak_rss_mb"), ("local_features",)),
    "pointcloud.read_csv_s": (("wall_s",), ("fullcloud_features", "desk_table2")),
    "pointcloud.normalize_s": (("wall_s",), FEATURES),
    "features.extract_s": (("wall_s", "points_per_s", "cpu_s"), FEATURES),
    "features.cpu_s": (("wall_s", "points_per_s", "cpu_s"), FEATURES),
    "features.pairs": (("wall_s", "points_per_s", "cpu_s"), FEATURES),
    "features.ns_per_pair": (("wall_s", "points_per_s", "cpu_s"), FEATURES),
    "matrix.write_csv_s": (("wall_s",), FEATURES),
    "matrix.read_csv_s": (("wall_s",), ("knn_table1",)),
    "matrix.csv_bytes": (("wall_s",), ALL),
    "pca.fit_s": (("wall_s",), ("desk_table2",)),
    "pca.transform_s": (("wall_s",), ("desk_table2",)),
    "pca.fit_calls": (("wall_s",), ("desk_table2",)),
    "knn.predict_s": (("wall_s", "peak_rss_mb"), ("knn_table1",)),
    "knn.distance_evals": (("wall_s", "peak_rss_mb"), ("knn_table1",)),
    "knn.ns_per_distance": (("wall_s", "peak_rss_mb"), ("knn_table1",)),
    "forest.fit_s": (("wall_s", "cpu_s"), ("desk_table2",)),
    "forest.predict_s": (("wall_s", "cpu_s"), ("desk_table2",)),
    "forest.nodes": (("wall_s", "cpu_s"), ("desk_table2",)),
    "forest.us_per_node": (("wall_s", "cpu_s"), ("desk_table2",)),
    "evaluation.cv_s": (("wall_s",), CV),
    "evaluation.self_s": (("wall_s",), CV),
    "evaluation.render_s": (("wall_s",), CV),
    "cli.self_s": (("wall_s",), ALL),
    "trace.overhead_s": ((), ()),
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))
                            .split(" ", 1)[1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return result, provenance


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
                "trace_seed": TRACE_SEED, "workloads": {},
                "layer_map": {name: {"moves": list(moves), "on": list(on)}
                              for name, (moves, on) in LAYER_MAP.items()}}
    for workload in ALL:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, provenance = _run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:20s} {name:14s} median {median:.6g}  spread {spread:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        result, _ = _run(workload, TRACE_SEED, spec["run_seconds"], 1)
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {n: m["value"] for n, m in result["metrics"].items()},
        }
        baseline["provenance"] = {k: provenance[k] for k in
                                  ("commit", "python", "numpy", "scipy", "nproc", "threads")}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
