"""Composable pipeline commands with persisted, auditable artifacts.

Every stage writes plain CSV/JSON plus a manifest embedding its own
configuration and content digests of its inputs, so staged invocations
and the one-shot `run` command produce byte-identical files. Manifests
record file basenames, never absolute paths, and never the thread
count (threads must not affect results).

`--seed` and `--out-dir` are on every stage command (`report` takes
only `--out-dir`). `--threads`, on `features`, `evaluate` and `run`
only, sets the workers of the three parallel steps: in `features`,
threads for the kd-tree pair queries of radius neighborhoods and
threads for the pieces of the whole-cloud count at a radius of sqrt(3)
or more; in `evaluate`, forked processes for the cross-validation folds
(POSIX fork; each worker process holds one fold's model at a time). 0
means one per CPU; the default 1 runs everything in this thread.

Exit codes: 0 success, 1 validation, 2 I/O or format, 3 data
consistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .errors import FormatError, ProdcoefError, ValidationError
from .evaluation import (
    F1_AVERAGES,
    ClassifierPipeline,
    CrossValPlan,
    PipelineSpec,
    cross_validate_many,
    render_report,
    report_from_json,
    report_to_json,
)
from .features import FEATURE_COLUMNS, NeighborhoodSpec, extract_features
from .forest import forest_to_json
from .las import read_las
from .matrix import FeatureMatrix, read_feature_csv, write_feature_csv
from .pca import fit_pca, pca_to_json, transform
from .pointcloud import (
    NORMALIZE_MODES,
    XYZ_COLUMNS,
    normalize_unit_cube,
    read_csv,
    write_csv,
)
from .synth import SceneSpec, generate_scene

log = logging.getLogger("prodcoef")

# render_report key -> file name, shared by evaluate and report. Table 1
# reports carry a feature_set and no n_components, table 2 reports the
# reverse, so each table always lands in the same file.
TABLE_FILES = {
    "table_features.csv": "table1.csv",
    "table_features.txt": "table1.txt",
    "table_components.csv": "table2.csv",
    "table_components.txt": "table2.txt",
    "plot_components.csv": "plot_table2.csv",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: dict[str, Path], outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {name: _digest(p) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _digest(p) for p in sorted(outputs)},
    }
    path = out_dir / f"{command}.manifest.json"
    _write_json(path, manifest)
    return path


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cloud(args):
    path = Path(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "las" if path.suffix.lower() == ".las" else "csv"
    if fmt == "las":
        cloud, header = read_las(path)
        return cloud, header
    return read_csv(path, has_label=args.has_label), None


def _input_config(args) -> dict:
    return {
        "input": Path(args.input).name,
        "format": args.format,
        "has_label": args.has_label,
        "normalize": args.normalize,
        "seed": args.seed,
    }


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    cloud, header = _load_cloud(args)
    cloud = normalize_unit_cube(cloud, mode=args.normalize)
    points_path = out / "points.csv"
    write_csv(cloud, points_path)
    config = _input_config(args)
    if header is not None:
        config["las_header"] = {
            "version": list(header.version),
            "point_record_format": header.point_record_format,
            "point_count": header.point_count,
            "scale": list(header.scale),
            "offset": list(header.offset),
        }
    _write_manifest(out, "ingest", config, {Path(args.input).name: Path(args.input)},
                    [points_path])
    log.info("ingest: %d points -> %s", len(cloud), points_path)
    return 0


def cmd_synth(args) -> int:
    out = _out_dir(args)
    spec = SceneSpec(
        classes=args.classes,
        points_per_class=args.points_per_class,
        separation=args.separation,
        seed=args.seed,
    )
    cloud = generate_scene(spec)
    scene_path = out / "scene.csv"
    write_csv(cloud, scene_path)
    _write_manifest(out, "synth", asdict(spec), {}, [scene_path])
    log.info("synth: %d points -> %s", len(cloud), scene_path)
    return 0


def _run_features(args, out: Path) -> tuple[Path, FeatureMatrix]:
    started = time.perf_counter()
    cloud, _ = _load_cloud(args)
    cloud = normalize_unit_cube(cloud, mode=args.normalize)
    spec = NeighborhoodSpec(radius=args.radius, include_center=not args.no_include_center)
    matrix = extract_features(cloud, spec, threads=args.threads)
    features_path = out / "features.csv"
    write_feature_csv(matrix, features_path)
    config = {**_input_config(args), "radius": spec.radius,
              "include_center": spec.include_center}
    _write_manifest(out, "features", config, {Path(args.input).name: Path(args.input)},
                    [features_path])
    log.info("features: %d rows in %.2fs -> %s",
             matrix.n_rows, time.perf_counter() - started, features_path)
    return features_path, matrix


def cmd_features(args) -> int:
    _run_features(args, _out_dir(args))
    return 0


def cmd_pca(args) -> int:
    out = _out_dir(args)
    features_path = Path(args.features)
    matrix = read_feature_csv(features_path)
    model = fit_pca(matrix, args.components)
    model_path = out / "pca_model.json"
    model_path.write_text(pca_to_json(model) + "\n")
    projected = transform(model, matrix)
    z_path = out / "z.csv"
    write_feature_csv(projected, z_path)
    config = {
        "features": features_path.name,
        "n_components": args.components,
        "seed": args.seed,
    }
    _write_manifest(out, "pca", config, {features_path.name: features_path},
                    [model_path, z_path])
    log.info("pca: kept %d components -> %s", args.components, model_path)
    return 0


def _classifier_config(args) -> dict:
    """The manifest fields of _add_classifier_params' flags and --seed."""
    return {"k": args.k, "trees": args.trees, "max_depth": args.max_depth, "seed": args.seed}


def _pipeline_spec(args, classifier: str, n_components: int | None) -> PipelineSpec:
    return PipelineSpec(classifier=classifier, n_components=n_components, k=args.k,
                        n_trees=args.trees, max_depth=args.max_depth, seed=args.seed)


def cmd_train(args) -> int:
    out = _out_dir(args)
    features_path = Path(args.features)
    matrix = read_feature_csv(features_path)
    if matrix.labels is None:
        raise ValidationError("training requires a labeled feature file")

    spec = _pipeline_spec(args, args.classifier, args.components)
    fitted = ClassifierPipeline(spec).fit(matrix)

    outputs = []
    if fitted.pca is not None:
        pca_path = out / "pca_model.json"
        pca_path.write_text(pca_to_json(fitted.pca) + "\n")
        outputs.append(pca_path)
    if args.classifier == "knn":
        model_path = out / "knn_model.json"
        _write_json(
            model_path,
            {
                "k": fitted.model.k,
                "training_csv": features_path.name,
                "training_digest": _digest(features_path),
                "n_components": args.components,
            },
        )
    else:
        model_path = out / "rf_model.json"
        model_path.write_text(forest_to_json(fitted.model) + "\n")
    outputs.append(model_path)

    config = {"features": features_path.name, "classifier": args.classifier,
              "n_components": args.components, **_classifier_config(args)}
    _write_manifest(out, "train", config, {features_path.name: features_path}, outputs)
    log.info("train: %s -> %s", args.classifier, model_path)
    return 0


def _parse_components(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValidationError(f"cannot parse component range {text!r}") from None
    if not 1 <= lo <= hi:
        raise ValidationError(f"component range {text!r} must satisfy 1 <= lo <= hi")
    return lo, hi


def _upstream_config(features_path: Path):
    manifest = features_path.parent / "features.manifest.json"
    if manifest.exists():
        try:
            return json.loads(manifest.read_text()).get("config")
        except (OSError, json.JSONDecodeError):
            return None
    return None


def _run_evaluate(args, out: Path, features_path: Path, matrix: FeatureMatrix) -> None:
    """Cross-validate `matrix`, the contents of `features_path`."""
    started = time.perf_counter()
    if matrix.labels is None:
        raise ValidationError("evaluation requires a labeled feature file")

    plan = CrossValPlan(folds=args.folds, seed=args.seed, stratified=True)
    base_config = {
        "features_file": features_path.name,
        "features_digest": _digest(features_path),
        "upstream": _upstream_config(features_path),
        "seed": args.seed,
    }

    if args.table == 1:
        missing = [c for c in FEATURE_COLUMNS if c not in matrix.column_names]
        if missing:
            raise ValidationError(
                f"table 1 expects the standard feature columns; missing {missing}"
            )
        sets = [(f"report_t1_{fs_name}", features, None, {"feature_set": fs_name})
                for fs_name, features in (("xyz", matrix.select_columns(XYZ_COLUMNS)),
                                          ("full", matrix))]
    else:
        lo, hi = args.components
        if hi > matrix.n_cols:
            raise ValidationError(
                f"component range up to {hi} exceeds the {matrix.n_cols} feature columns"
            )
        sets = [(f"report_t2_n{n:02d}", matrix, n, {}) for n in range(lo, hi + 1)]

    runs = []
    outputs = []
    for prefix, features, n_components, extra in sets:
        for clf in ("knn", "rf"):
            pipeline = ClassifierPipeline(_pipeline_spec(args, clf, n_components))
            runs.append((features, pipeline, {**base_config, **extra}))
            outputs.append(out / f"{prefix}_{clf}.json")
    reports = cross_validate_many(runs, plan, f1_average=args.f1, workers=args.threads)
    for path, report in zip(outputs, reports):
        path.write_text(report_to_json(report) + "\n")

    for name, text in render_report(reports).items():
        path = out / TABLE_FILES[name]
        path.write_text(text)
        outputs.append(path)

    config = {
        "features": features_path.name,
        "table": args.table,
        "components": None if args.table == 1 else list(args.components),
        "folds": args.folds,
        "f1": args.f1,
        **_classifier_config(args),
    }
    _write_manifest(out, "evaluate", config, {features_path.name: features_path}, outputs)
    log.info("evaluate: table %d done in %.2fs", args.table, time.perf_counter() - started)


def cmd_evaluate(args) -> int:
    features_path = Path(args.features)
    _run_evaluate(args, _out_dir(args), features_path, read_feature_csv(features_path))
    return 0


def cmd_run(args) -> int:
    out = _out_dir(args)
    # repr round-trips every float, so the matrix in memory equals what
    # reading features.csv back would give.
    _run_evaluate(args, out, *_run_features(args, out))
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    reports = []
    for path_text in args.reports:
        path = Path(path_text)
        try:
            reports.append(report_from_json(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # ValueError covers bytes that are not UTF-8, text that is not
            # JSON and fields of the wrong type; KeyError and TypeError
            # other JSON that is not a report.
            raise FormatError(
                f"cannot read report {path}: {type(exc).__name__}: {exc}"
            ) from None
    if not reports:
        raise ValidationError("no reports given")
    artifacts = {TABLE_FILES[name]: text for name, text in render_report(reports).items()}
    for name, text in artifacts.items():
        (out / name).write_text(text)
    log.info("report: wrote %s", ", ".join(sorted(artifacts)))
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="run seed (recorded in artifacts)")
    parser.add_argument("--out-dir", default=".", help="output directory")


def _add_threads(parser: _Parser) -> None:
    parser.add_argument("--threads", type=int, default=1,
                        help="workers: threads for the radius neighborhoods' "
                             "kd-tree pair queries and for the whole-cloud "
                             "count's pieces, forked processes for "
                             "cross-validation folds; 0 = auto; never changes "
                             "results")


def _add_input(parser: _Parser) -> None:
    parser.add_argument("--input", required=True, help="input point file")
    parser.add_argument("--format", choices=("las", "csv", "auto"), default="auto")
    parser.add_argument("--has-label", action="store_true",
                        help="CSV rows carry a trailing integer label")
    parser.add_argument("--normalize", choices=NORMALIZE_MODES, default="per-axis")


def _add_neighborhood(parser: _Parser) -> None:
    parser.add_argument("--radius", type=float, default=2.0,
                        help="neighborhood radius in normalized units")
    parser.add_argument("--no-include-center", action="store_true",
                        help="exclude each point from its own neighborhood")


def _add_classifier_params(parser: _Parser) -> None:
    parser.add_argument("--k", type=int, default=10, help="KNN neighbor count")
    parser.add_argument("--trees", type=int, default=100, help="random forest size")
    parser.add_argument("--max-depth", type=int, default=None)


def _add_evaluate_params(parser: _Parser) -> None:
    parser.add_argument("--table", type=int, choices=(1, 2), default=2,
                        help="1: xyz vs full features; 2: PCA component sweep")
    parser.add_argument("--components", type=_parse_components, default=(3, 10),
                        help="component range for table 2, e.g. 3..10 or 5")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--f1", choices=F1_AVERAGES, default="macro")
    _add_classifier_params(parser)


def build_parser() -> _Parser:
    parser = _Parser(prog="prodcoef",
                     description="Point-cloud classification with dyadic "
                                 "product-coefficient features")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read LAS/CSV, normalize, write points.csv")
    _add_input(p)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a labeled synthetic scene")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--points-per-class", type=int, default=500)
    p.add_argument("--separation", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract the 10-column feature matrix")
    _add_input(p)
    _add_neighborhood(p)
    _add_common(p)
    _add_threads(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("pca", help="fit PCA on a feature file and project it")
    p.add_argument("--features", required=True)
    p.add_argument("--components", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("train", help="train a classifier on all labeled rows")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", choices=("knn", "rf"), required=True)
    p.add_argument("--components", type=int, default=None,
                   help="optional PCA step before the classifier")
    _add_classifier_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validated F1 tables from features")
    p.add_argument("--features", required=True)
    _add_evaluate_params(p)
    _add_common(p)
    _add_threads(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="features + evaluate in one shot")
    _add_input(p)
    _add_neighborhood(p)
    _add_evaluate_params(p)
    _add_common(p)
    _add_threads(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-render tables from report JSON files")
    p.add_argument("reports", nargs="+", help="report JSON paths")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 0:
            raise ValidationError("--threads must be >= 0")
        if getattr(args, "seed", 0) < 0:
            raise ValidationError("--seed must be >= 0")
        return args.func(args)
    except ProdcoefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
