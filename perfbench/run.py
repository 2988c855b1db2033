#!/usr/bin/env python3
"""The prodcoef benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from the root of a prodcoef checkout. The workload's inputs are
generated from the seed before timing starts. Then, in a closed loop
(one client, the next job starts when the previous one exits) until S
seconds have passed, the benchmark runs a no-op CLI job
(`python -m prodcoef --help`, the set-up cost every stage invocation
pays), a calibration job that does not touch the program, and the
workload's CLI job, each in a fresh subprocess; one more calibration
job follows the last iteration. The end-to-end times are scaled by
REFERENCE_CAL_S over the time of the adjacent calibration jobs, which
cancels the machine's drift in speed. Every job's artifacts are
checked (see checks.py); later jobs must reproduce the first job's
bytes.

With --trace 1 each loop iteration also runs replay.py, which replays
the job in-process through the package's public functions with spans
around each layer; its artifacts must equal the CLI job's byte for byte.

Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1. A per-run record with provenance, every sample
and every span is written under .perfbench_work/.

--record stores this seed's digests, forest F1 and work counts in
expected.json (use it with --trace 1 so the counts are included).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORK = Path(".perfbench_work")
JOB_TIMEOUT_S = 150
# A fixed job that does not touch the program: interpreter start, NumPy
# and SciPy imports, a bytecode loop and memory-bound array passes.
CALIBRATION = """
import numpy, scipy.spatial
total = 0
for i in range(600_000):
    total += i * i
a = numpy.arange(2_000_000, dtype=numpy.float64)
for _ in range(8):
    a = numpy.sqrt(a * 1.0001 + 1.0)
"""
# The calibration job's median time on the 2-vCPU machine baseline.json
# was measured on: scaled times read as seconds on that machine.
REFERENCE_CAL_S = 0.8
# Work counts that must repeat exactly between runs of one workload.
REPEATING_COUNTS = ("features.pairs", "knn.distance_evals", "forest.nodes", "pca.fit_calls")


def _spawn(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child to completion; wall time from spawn to exit, rusage of that child."""
    start = time.perf_counter()
    with open(log, "wb") as handle:
        proc = subprocess.Popen(argv, env=env, stdout=handle, stderr=subprocess.STDOUT)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _digests(out: Path, sha256_file) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())}


def _commit() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = Path(".git") / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else "unknown"


def _layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer totals of one replay, from its spans and counts."""
    spans, counts = trace["spans"], trace["counts"]

    def dur(span):
        return span["end"] - span["start"]

    def total(name, key=None):
        return sum(s["cpu"] if key else dur(s) for s in spans if s["name"] == name)

    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += dur(s)
    m = {
        "las.read_s": total("las.read"),
        "pointcloud.read_csv_s": total("pointcloud.read_csv"),
        "pointcloud.normalize_s": total("pointcloud.normalize"),
        "features.extract_s": total("features.extract"),
        "features.cpu_s": total("features.extract", key="cpu"),
        "matrix.write_csv_s": total("matrix.write_csv"),
        "matrix.read_csv_s": total("matrix.read_csv"),
        "pca.fit_s": total("pca.fit"),
        "pca.transform_s": total("pca.transform"),
        "knn.predict_s": total("knn.predict"),
        "forest.fit_s": total("forest.fit"),
        "forest.predict_s": total("forest.predict"),
        "evaluation.cv_s": total("evaluation.cross_validate"),
        "evaluation.self_s": sum(dur(s) - children[i] for i, s in enumerate(spans)
                                 if s["name"] == "evaluation.cross_validate"),
        "evaluation.render_s": total("evaluation.render"),
        "layers_s": sum(dur(s) for s in spans if s["parent"] is None),
    }
    for name in REPEATING_COUNTS + ("matrix.csv_bytes",):
        m[name] = counts.get(name, 0)

    # Rates are 0 where the layer does not run in this workload.
    def rate(num, den):
        return num / den if den else 0.0

    m["las.mb_per_s"] = rate(counts.get("las.bytes", 0) / 1e6, m["las.read_s"])
    m["features.ns_per_pair"] = rate(m["features.extract_s"] * 1e9, m["features.pairs"])
    m["knn.ns_per_distance"] = rate(m["knn.predict_s"] * 1e9, m["knn.distance_evals"])
    m["forest.us_per_node"] = rate(m["forest.fit_s"] * 1e6, m["forest.nodes"])
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not (Path("src/prodcoef").is_dir() and Path("tests/conftest.py").is_file()
            and Path("BENCHMARK.json").is_file()):
        print("error: run from the root of a prodcoef checkout "
              "(src/prodcoef, tests/conftest.py and BENCHMARK.json are required)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    src = str(Path("src").resolve())
    sys.path.insert(0, src)
    import checks
    from replay import CLI_SEED, FOLDS, K
    from workloads import PINNED_THREADS, THREADS, WORKLOADS, generate_inputs, sha256_file

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    info, xyz, labels = generate_inputs(wl, args.seed, inputs)
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    help_argv = [sys.executable, "-m", "prodcoef", "--help"]
    cal_argv = [sys.executable, "-c", CALIBRATION]

    def job_argv(out: Path) -> list[str]:
        return [sys.executable, "-m", "prodcoef"] + [
            a.format(inputs=inputs, out=out) for a in wl.cli]

    def replay_argv(out: Path, spans: Path, run_id: int) -> list[str]:
        return [sys.executable, str(HERE / "replay.py"), "--workload", wl.name,
                "--inputs", str(inputs), "--out", str(out), "--spans", str(spans),
                "--run-id", str(run_id)]

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    stored = expected.get(wl.name, {}).get(str(args.seed))
    report_names = [run[0] for run in wl.report_runs()]

    def check_first(out: Path, digests: dict) -> tuple[list[str], dict]:
        problems = []
        reports = {}
        if (out / "features.csv").exists():
            problems += checks.check_features(out / "features.csv", xyz, labels,
                                              wl.radius, args.seed)
        elif wl.table is None:
            problems.append("features.csv missing")
        if wl.table is not None:
            reports = checks.load_reports(out)
            problems += checks.check_reports(reports, report_names,
                                             info["class_counts"], FOLDS)
            if not problems:
                problems += checks.check_table(out, wl.table, reports, wl.components)
            if not problems:
                knn_runs = [(name, n, fs) for name, n, clf, fs in wl.report_runs()
                            if clf == "knn"]
                features = out / "features.csv"
                if not features.exists():
                    features = inputs / wl.input_file
                problems += checks.check_knn_reports(features, out, knn_runs,
                                                     FOLDS, K, CLI_SEED)
                problems += checks.check_forest_floor(reports, checks.RF_F1_FLOOR[wl.name])
        if stored and not problems:
            problems += checks.check_expected(stored, digests, reports)
        return problems, reports

    # Untimed warm-up: compile bytecode and fill the page cache.
    _spawn(help_argv, env, work / "warmup.log")

    setups, jobs, replays, traces, cals = [], [], [], [], []
    problems: list[str] = []
    reference = None
    reports = {}
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        setups.append(_spawn(help_argv, env, work / f"setup{i}.log"))
        cals.append(_spawn(cal_argv, env, work / f"cal{i}.log"))
        out = work / f"job{i}"
        out.mkdir()
        job = _spawn(job_argv(out), env, work / f"job{i}.log")
        jobs.append(job)
        job_problems, replay_problems = [], []
        if job["exit"] != 0:
            job_problems.append(f"job {i} exited {job['exit']}; see {work}/job{i}.log")
        else:
            digests = _digests(out, sha256_file)
            if reference is None:
                job_problems, reports = check_first(out, digests)
                reference = digests
            elif digests != reference:
                job_problems.append(f"job {i} artifacts differ from job 0")
            shutil.rmtree(out)
        if args.trace:
            r_out, r_spans = work / f"replay{i}", work / f"spans{i}.json"
            rep = _spawn(replay_argv(r_out, r_spans, i), env, work / f"replay{i}.log")
            replays.append(rep)
            if rep["exit"] != 0:
                replay_problems.append(f"replay {i} exited {rep['exit']}; "
                                       f"see {work}/replay{i}.log")
            else:
                traces.append(json.loads(r_spans.read_text()))
                replayed = _digests(r_out, sha256_file)
                mismatch = [n for n, d in replayed.items() if (reference or {}).get(n) != d]
                if mismatch:
                    replay_problems.append(f"replay {i} artifacts differ from the CLI "
                                           f"job: {mismatch}")
                shutil.rmtree(r_out)
        failed += bool(job_problems) + bool(replay_problems)
        problems += job_problems + replay_problems
        i += 1
    cals.append(_spawn(cal_argv, env, work / f"cal{i}.log"))

    def med(samples, key):
        return statistics.median(s[key] for s in samples)

    # The machine's speed drifts by up to a third over minutes. A job's
    # times are scaled by the calibration jobs just before and after it,
    # a no-op job's by the calibration job right after it.
    around = [(a["wall_s"] + b["wall_s"]) / 2 for a, b in zip(cals, cals[1:])]

    def scaled(samples, key, cal_s):
        return statistics.median(s[key] * REFERENCE_CAL_S / c for s, c in zip(samples, cal_s))

    wall = scaled(jobs, "wall_s", around)
    values = {
        "wall_s": wall,
        "points_per_s": wl.rows / wall,
        "cpu_s": scaled(jobs, "cpu_s", around),
        "peak_rss_mb": med(jobs, "peak_rss_mb"),
        "setup_s": scaled(setups, "wall_s", [c["wall_s"] for c in cals]),
    }
    counts = {}
    if args.trace:
        layers = [_layer_metrics(t) for t in traces] or [_layer_metrics(
            {"spans": [], "counts": {}})]
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        # Differences between processes are taken within one loop
        # iteration, where the machine's speed is most alike.
        values["cli.self_s"] = statistics.median(
            j["wall_s"] - s["wall_s"] - layer["layers_s"]
            for j, s, layer in zip(jobs, setups, layers))
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] - j["wall_s"] for r, j in zip(replays, jobs))
        # Counts are reported as counted, not as a median.
        for name in REPEATING_COUNTS + ("matrix.csv_bytes",):
            values[name] = layers[0][name]
        counts = {n: layers[0][n] for n in REPEATING_COUNTS}
        if any(layer[n] != counts[n] for layer in layers for n in counts):
            problems.append("work counts differ between replays: "
                            f"{[{n: layer[n] for n in counts} for layer in layers]}")
        problems += checks.check_counts(counts, wl.report_runs(), info["class_counts"], FOLDS)
        if stored and stored.get("counts") and stored["counts"] != counts:
            problems.append(f"work counts {counts} != stored {stored['counts']}")

    attempted = len(jobs) + len(replays)
    f1_mean = (statistics.fmean(r["mean_f1"] for r in reports.values())
               if reports else None)
    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {"--threads": int(THREADS), **PINNED_THREADS},
        "input": info,
    }

    if args.record:
        entry = {"sha256": {n: d for n, d in (reference or {}).items()
                            if n == "features.csv" or n.endswith("_knn.json")},
                 "rf_f1": {n: r["mean_f1"] for n, r in reports.items()
                           if n.endswith("_rf.json")}}
        if counts:
            entry["counts"] = counts
        expected.setdefault(wl.name, {})[str(args.seed)] = entry
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    record = {"provenance": provenance, "problems": problems, "setups": setups, "cals": cals,
              "jobs": jobs, "replays": replays, "values": values, "traces": traces}
    shutil.rmtree(inputs)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in problems:
        print("problem " + problem)
    print(f"measured medians: job {med(jobs, 'wall_s'):.4f} s, no-op job "
          f"{med(setups, 'wall_s'):.4f} s, calibration job {med(cals, 'wall_s'):.4f} s")
    print(f"jobs {len(jobs)}  replays {len(replays)}  "
          f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    if f1_mean is not None:
        print(f"f1_mean {f1_mean:.6f} (mean of the table's macro-F1 cells)")
    for name, metric in metrics.items():
        print(f"{name:24s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
