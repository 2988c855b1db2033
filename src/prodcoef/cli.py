"""Composable pipeline commands with persisted, auditable artifacts.

Every stage writes plain CSV/JSON plus a manifest embedding its own
configuration and content digests of its inputs, so staged invocations
and the one-shot `run` command produce byte-identical files. Manifests
record file basenames, never absolute paths, and never the thread
count (threads must not affect results).

`--seed` and `--out-dir` are on every stage command (`report` takes
only `--out-dir`). `--threads`, on `features`, `evaluate` and `run`
only, sets the workers of the four parallel steps: in `features`,
threads for the blocks of centers of radius neighborhoods, threads for
the pieces of the whole-cloud count at a radius of sqrt(3) or more,
and forked formatter processes for contiguous row ranges of
features.csv (each range of at least `matrix._WRITE_ROWS` rows); in
`evaluate`, forked processes for the cross-validation folds (each
worker process holds one fold's model at a time). Forking needs POSIX
fork. 0 means one per CPU; the default 1 runs everything in this
thread.

Each command imports the stage modules it runs when it runs, so
`--help` and argument errors load no numpy. `synth` loads the `synth`
and `pointcloud` modules; `ingest` loads `pointcloud`, and `las` for LAS
input; `features` loads what `ingest` does plus `features` and
`matrix`, never `evaluation`, `forest`, `knn`, `pca`, `dyadic` or
`synth`; `pca` loads `matrix` and `pca`; `train`, `evaluate` and
`report` load `evaluation`, which loads `forest`, `knn` and `pca`; `run`
loads what `features` and `evaluate` load. `scipy.spatial` is imported
only where a KNN fit on more than `knn._DIRECT_ROWS` (3,584) training
rows builds its kd-tree, in whichever process runs that fit. `features`
and `train` never load it, and neither do `evaluate` and `run` when
every KNN fold is smaller, as on a 2,400-row table-1 feature file.

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
from typing import TYPE_CHECKING

from .choices import F1_AVERAGES, NORMALIZE_MODES
from .errors import FormatError, ProdcoefError, ValidationError

if TYPE_CHECKING:
    from .evaluation import PipelineSpec
    from .matrix import FeatureMatrix

log = logging.getLogger("prodcoef")

# Defaults of --k, --trees and --components, filled in after parsing:
# the flags default to None, so that train can refuse the other
# classifier's flags and table 1 can refuse --components.
_DEFAULT_K = 10
_DEFAULT_TREES = 100
_DEFAULT_COMPONENTS = (3, 10)

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


def _digest_bytes(data: bytes) -> str:
    """`_digest` of a file that holds `data`."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: dict[str, str], outputs: list[Path]) -> dict[str, str]:
    """Write `<command>.manifest.json` with `config`, the `inputs`
    ({name: digest}) and a digest of each output; returns the outputs'
    {name: digest}."""
    digests = {p.name: _digest(p) for p in outputs}
    _write_json(out_dir / f"{command}.manifest.json",
                {"command": command, "config": config, "inputs": inputs, "outputs": digests})
    return digests


def _make_dir(path: Path) -> Path:
    """Make the directory `path` and its parents if missing; one that
    cannot be made, such as a path through a regular file, is an I/O
    error naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(
            f"cannot make output directory {path}: {type(exc).__name__}: {exc}"
        ) from None
    return path


def _out_dir(args) -> Path:
    return _make_dir(Path(args.out_dir))


def _load_cloud(args):
    """(cloud, LAS header summary or None, input digest) of --input. A
    LAS file is read once, for both; a CSV file is digested by a second
    read."""
    path = Path(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "las" if path.suffix.lower() == ".las" else "csv"
    if fmt == "las":
        from .las import parse_las, read_bytes

        data = read_bytes(path)
        return *parse_las(data, path), _digest_bytes(data)
    from .pointcloud import read_csv

    return read_csv(path, has_label=args.has_label), None, _digest(path)


def _input_config(args) -> dict:
    return {
        "input": Path(args.input).name,
        "format": args.format,
        "has_label": args.has_label,
        "normalize": args.normalize,
        "seed": args.seed,
    }


def cmd_ingest(args) -> int:
    from .pointcloud import normalize_unit_cube, write_csv

    out = _out_dir(args)
    cloud, header, input_digest = _load_cloud(args)
    cloud = normalize_unit_cube(cloud, mode=args.normalize)
    points_path = out / "points.csv"
    write_csv(cloud, points_path)
    config = _input_config(args)
    if header is not None:
        config["las_header"] = asdict(header)
    _write_manifest(out, "ingest", config, {Path(args.input).name: input_digest},
                    [points_path])
    log.info("ingest: %d points -> %s", len(cloud), points_path)
    return 0


def cmd_synth(args) -> int:
    from .pointcloud import write_csv
    from .synth import SceneSpec, generate_scene

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


def _run_features(args, out: Path) -> tuple[Path, str, FeatureMatrix, dict]:
    """Extract features.csv into `out`; returns its path, digest, matrix
    and manifest config."""
    from .features import NeighborhoodSpec, extract_features
    from .matrix import write_feature_csv
    from .pointcloud import normalize_unit_cube

    started = time.perf_counter()
    cloud, _, input_digest = _load_cloud(args)
    cloud = normalize_unit_cube(cloud, mode=args.normalize)
    spec = NeighborhoodSpec(radius=args.radius, include_center=not args.no_include_center)
    matrix = extract_features(cloud, spec, threads=args.threads)
    features_path = out / "features.csv"
    write_feature_csv(matrix, features_path, args.threads)
    config = {**_input_config(args), "radius": spec.radius,
              "include_center": spec.include_center}
    digests = _write_manifest(out, "features", config,
                              {Path(args.input).name: input_digest}, [features_path])
    log.info("features: %d rows in %.2fs -> %s",
             matrix.n_rows, time.perf_counter() - started, features_path)
    return features_path, digests[features_path.name], matrix, config


def cmd_features(args) -> int:
    _run_features(args, _out_dir(args))
    return 0


def cmd_pca(args) -> int:
    from .matrix import read_feature_csv, write_feature_csv
    from .pca import fit_pca, pca_to_json, transform

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
    _write_manifest(out, "pca", config, {features_path.name: _digest(features_path)},
                    [model_path, z_path])
    log.info("pca: kept %d components -> %s", args.components, model_path)
    return 0


def _classifier_config(args) -> dict:
    """The manifest fields of _add_classifier_params' flags and --seed,
    with unset flags at their defaults."""
    return {"k": _DEFAULT_K if args.k is None else args.k,
            "trees": _DEFAULT_TREES if args.trees is None else args.trees,
            "max_depth": args.max_depth, "seed": args.seed}


def _pipeline_spec(args, classifier: str, n_components: int | None) -> PipelineSpec:
    from .evaluation import PipelineSpec

    config = _classifier_config(args)
    return PipelineSpec(classifier=classifier, n_components=n_components, k=config["k"],
                        n_trees=config["trees"], max_depth=config["max_depth"],
                        seed=config["seed"])


def cmd_train(args) -> int:
    from .evaluation import ClassifierPipeline
    from .forest import forest_to_json
    from .matrix import read_feature_csv
    from .pca import pca_to_json

    other_flags = ({"--trees": args.trees, "--max-depth": args.max_depth}
                   if args.classifier == "knn" else {"--k": args.k})
    given = [flag for flag, value in other_flags.items() if value is not None]
    if given:
        raise ValidationError(f"{' and '.join(given)} cannot be used with "
                              f"--classifier {args.classifier}")

    out = _out_dir(args)
    features_path = Path(args.features)
    matrix = read_feature_csv(features_path)
    features_digest = _digest(features_path)

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
                "training_digest": features_digest,
                "n_components": args.components,
            },
        )
    else:
        model_path = out / "rf_model.json"
        model_path.write_text(forest_to_json(fitted.model) + "\n")
    outputs.append(model_path)

    config = {"features": features_path.name, "classifier": args.classifier,
              "n_components": args.components, **_classifier_config(args)}
    _write_manifest(out, "train", config, {features_path.name: features_digest}, outputs)
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


def _upstream_config(features_path: Path) -> dict | None:
    """The `config` object of the features manifest beside
    `features_path`; None where that manifest is missing, is not
    readable JSON or has no object `config`."""
    try:
        manifest = json.loads((features_path.parent / "features.manifest.json").read_text())
    except (OSError, ValueError, RecursionError):
        # ValueError covers bytes that are not UTF-8 and text that is not JSON.
        return None
    config = manifest.get("config") if isinstance(manifest, dict) else None
    return config if isinstance(config, dict) else None


def _table_components(args) -> tuple[int, int] | None:
    """The component range that table 2 sweeps; None for table 1, which
    takes no --components."""
    if args.table == 1:
        if args.components is not None:
            raise ValidationError("--components applies only to --table 2")
        return None
    return _DEFAULT_COMPONENTS if args.components is None else args.components


def _run_evaluate(args, out: Path, components: tuple[int, int] | None,
                  features_path: Path, features_digest: str, matrix: FeatureMatrix,
                  upstream: dict | None) -> None:
    """Cross-validate `matrix`, the contents of `features_path` (whose
    digest is `features_digest` and whose features manifest config is
    `upstream`), over `components` (see _table_components)."""
    from .evaluation import (
        ClassifierPipeline,
        CrossValPlan,
        cross_validate_many,
        report_to_json,
    )

    started = time.perf_counter()
    plan = CrossValPlan(folds=args.folds, seed=args.seed, stratified=True)
    base_config = {
        "features_file": features_path.name,
        "features_digest": features_digest,
        "upstream": upstream,
        "seed": args.seed,
    }

    if args.table == 1:
        from .features import FEATURE_COLUMNS
        from .pointcloud import XYZ_COLUMNS

        missing = [c for c in FEATURE_COLUMNS if c not in matrix.column_names]
        if missing:
            raise ValidationError(
                f"table 1 expects the standard feature columns; missing {missing}"
            )
        sets = [(f"report_t1_{fs_name}", features, None, {"feature_set": fs_name})
                for fs_name, features in (("xyz", matrix.select_columns(XYZ_COLUMNS)),
                                          ("full", matrix))]
    else:
        lo, hi = components
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

    outputs.extend(_write_tables(out, reports))

    config = {
        "features": features_path.name,
        "table": args.table,
        "components": None if components is None else list(components),
        "folds": args.folds,
        "f1": args.f1,
        **_classifier_config(args),
    }
    _write_manifest(out, "evaluate", config, {features_path.name: features_digest}, outputs)
    log.info("evaluate: table %d done in %.2fs", args.table, time.perf_counter() - started)


def cmd_evaluate(args) -> int:
    from .matrix import read_feature_csv

    components = _table_components(args)
    features_path = Path(args.features)
    matrix = read_feature_csv(features_path)
    _run_evaluate(args, _out_dir(args), components, features_path,
                  _digest(features_path), matrix, _upstream_config(features_path))
    return 0


def cmd_run(args) -> int:
    components = _table_components(args)
    out = _out_dir(args)
    # repr and JSON round-trip every float, so the matrix and config in
    # memory equal what evaluate reads back from features.csv and its manifest.
    _run_evaluate(args, out, components, *_run_features(args, out))
    return 0


def _write_tables(out: Path, reports) -> list[Path]:
    """Render `reports` (see render_report) and write each table into
    `out`, made if missing; when rendering fails nothing is written and
    no directory is made."""
    from .evaluation import render_report

    tables = render_report(reports)
    _make_dir(out)
    paths = []
    for name, text in tables.items():
        paths.append(out / TABLE_FILES[name])
        paths[-1].write_text(text)
    return paths


def cmd_report(args) -> int:
    from .evaluation import report_from_json

    reports = []
    for path_text in args.reports:
        path = Path(path_text)
        try:
            reports.append(report_from_json(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            # ValueError covers bytes that are not UTF-8, text that is not
            # JSON and fields of the wrong type; KeyError and TypeError
            # other JSON that is not a report; RecursionError JSON nested
            # too deep to parse.
            raise FormatError(
                f"cannot read report {path}: {type(exc).__name__}: {exc}"
            ) from None
    paths = _write_tables(Path(args.out_dir), reports)
    log.info("report: wrote %s", ", ".join(sorted(p.name for p in paths)))
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="run seed (recorded in artifacts)")
    parser.add_argument("--out-dir", default=".", help="output directory")


def _add_threads(parser: _Parser) -> None:
    parser.add_argument("--threads", type=int, default=1,
                        help="workers: threads for the radius neighborhoods' "
                             "blocks of centers and for the whole-cloud "
                             "count's pieces, forked formatter processes for "
                             "features.csv's row ranges, forked processes for "
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
    parser.add_argument("--k", type=int, help=f"KNN neighbor count (default {_DEFAULT_K})")
    parser.add_argument("--trees", type=int,
                        help=f"random forest size (default {_DEFAULT_TREES})")
    parser.add_argument("--max-depth", type=int, default=None)


def _add_evaluate_params(parser: _Parser) -> None:
    parser.add_argument("--table", type=int, choices=(1, 2), default=2,
                        help="1: xyz vs full features; 2: PCA component sweep")
    parser.add_argument("--components", type=_parse_components,
                        help="component range for table 2, e.g. 3..10 or 5 "
                             "(default {}..{})".format(*_DEFAULT_COMPONENTS))
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
