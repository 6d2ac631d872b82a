#!/usr/bin/env python3
"""End-to-end demo on synthetic tracks: ingest -> fit -> grid -> predict.

Generates a CSV best-track file with smooth bow-shaped storms, then drives
the CLI exactly as one would on real data. Everything lands in --out.
"""

import argparse
import io
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from fofcast import StormRecordSet, time_grid, write_csv
from fofcast.cli import main as cli_main
from fofcast.ingest import StormRecord


def make_storms(n: int, length: int, seed: int) -> list[StormRecordSet]:
    rng = np.random.default_rng(seed)
    grid = time_grid(length)
    storms = []
    for i in range(n):
        lat = (rng.uniform(8, 18) + rng.uniform(8, 20) * grid
               + rng.uniform(-3, 3) * np.sin(np.pi * grid)
               + rng.normal(0, 0.15, length))
        dip = rng.uniform(5, 20)
        lon = (rng.uniform(130, 150) - dip * grid
               + (dip + rng.uniform(0, 10)) * grid**2
               + rng.normal(0, 0.15, length))
        start = datetime(2015, 6, 1) + timedelta(days=3 * i)
        records = tuple(
            StormRecord(time=start + timedelta(hours=6 * j), grade=5,
                        lat=float(lat[j]), lon=float(lon[j]))
            for j in range(length))
        storms.append(StormRecordSet.from_records(storm_id=f"D{i:04d}", name="DEMO",
                                                  records=records))
    return storms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--n-storms", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "storms.csv"
    buf = io.StringIO()
    write_csv(make_storms(args.n_storms, 40, args.seed), buf)
    csv_path.write_text(buf.getvalue())
    print(f"wrote {args.n_storms} synthetic storms -> {csv_path}")

    steps = [
        ["ingest", "--format", "csv", "--input", str(csv_path),
         "--out", str(args.out / "dataset")],
        ["fit", "--data", str(args.out / "dataset"),
         "--out", str(args.out / "models")],
        ["grid", "--data", str(args.out / "dataset"),
         "--out", str(args.out / "grid"),
         "--k-lat", "3", "--k-lon", "3", "--reps", "3",
         "--min-cluster-size", "10"],
        ["export", "--data", str(args.out / "dataset"),
         "--models", str(args.out / "models"),
         "--out", str(args.out / "forecasts.geojson")],
    ]
    for step in steps:
        print(f"\n$ fofcast {' '.join(step)}")
        code = cli_main(step)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
