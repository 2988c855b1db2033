#!/usr/bin/env python3
"""Desk-scale experiment: build the seeded synthetic scene and emit both
result tables (feature comparison and PCA component sweep).

Features are extracted once into OUT; table 1 is evaluated into
OUT/table1 and table 2 into OUT/table2, so each directory keeps its own
evaluate manifest. Every stage runs with `--threads 0`, one worker per
CPU; the thread count never changes the results.

Usage: python scripts/reproduce_tables.py [--out-dir OUT] [--seed N]
           [--radius R] [--points-per-class N] [--trees N] [--folds K]
"""

import argparse
import sys
from pathlib import Path

from prodcoef.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/desk_scale")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--radius", type=float, default=0.10)
    parser.add_argument("--points-per-class", type=int, default=500)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--folds", type=int, default=5)
    args = parser.parse_args()

    out = Path(args.out_dir)
    code = cli([
        "synth", "--classes", "4",
        "--points-per-class", str(args.points_per_class),
        "--seed", str(args.seed), "--out-dir", str(out),
    ])
    if code != 0:
        return code

    code = cli([
        "features", "--input", str(out / "scene.csv"), "--has-label",
        "--radius", str(args.radius), "--threads", "0", "--out-dir", str(out),
    ])
    if code != 0:
        return code

    for table, extra in (("1", []), ("2", ["--components", "3..10"])):
        table_out = out / f"table{table}"
        code = cli([
            "evaluate", "--features", str(out / "features.csv"), "--table", table, *extra,
            "--folds", str(args.folds), "--trees", str(args.trees),
            "--threads", "0", "--out-dir", str(table_out),
        ])
        if code != 0:
            return code
        name = f"table{table}.txt"
        print(f"\n== {name} ==")
        print((table_out / name).read_text())
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
