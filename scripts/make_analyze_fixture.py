#!/usr/bin/env python3
"""Regenerate the golden JSON report of the analyze fixture.

The fixture dataset is a seeded draw from an interacted linear RCT model, so
the residualized and long-regression coefficients genuinely differ. The draw
no longer goes through BLAS, but the committed CSV was drawn when it did, so
its last bits need not match a fresh draw: an existing ``rct_fixture.csv`` is
kept as it is and the report is built from it; the CSV is drawn only when it
is absent. The golden report is produced by the library itself and frozen;
test_io_cli.py verifies the frozen bytes and independently recomputes the
adjustment coefficient from the raw CSV.
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from residcheck.dgps import RctLinearDGP  # noqa: E402
from residcheck.io import AnalyzeConfig  # noqa: E402
from residcheck.report import build_analyze_report, json_bytes  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
SEED = 20240817
N = 2000


def draw_fixture_csv(csv_path: pathlib.Path) -> None:
    dgp = RctLinearDGP(
        tau=1.0,
        beta=np.array([0.5, -0.25, 0.1]),
        interaction=np.array([0.4, 0.0, -0.2]),
        pi=0.4,
        noise_sd=1.0,
    )
    rng = np.random.default_rng(SEED)
    matrix = dgp.draw_matrix(rng, N)
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "t", "x1", "x2", "x3"])
        for row in matrix:
            writer.writerow([repr(float(row[0])), int(row[1]), *[repr(float(v)) for v in row[2:]]])
    print(f"wrote {csv_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=str(DATA_DIR))
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "rct_fixture.csv"
    if not csv_path.exists():
        draw_fixture_csv(csv_path)

    config = AnalyzeConfig(
        input_path=str(csv_path),
        outcome="y",
        treatment="t",
        covariates=("x1", "x2", "x3"),
    )
    report = build_analyze_report(config)
    golden_path = out_dir / "rct_fixture_report.json"
    golden_path.write_bytes(json_bytes(report))
    print(f"wrote {golden_path}")


if __name__ == "__main__":
    main()
