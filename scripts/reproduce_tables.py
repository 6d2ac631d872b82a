#!/usr/bin/env python3
"""Full reproduction protocol on the RSMC Tokyo best-track archive.

Drives the ``fofcast`` CLI: ``ingest`` filters the archive to storms of
>= 32 records and windows each to its last 32 points (24 predictor + 8
response), ``grid`` averages a 10x10 cluster-pair grid search and the single
global model over --reps repeated train/test splits, and, with
--with-length-study, ``length-study`` runs the length/data-size study.
Outputs land in --out/dataset, --out/grid and --out/length_study.

On a synthetic archive of the RSMC archive's shape (1107 windows, 885
training storms, ``perfbench/archive_gen.py`` seed 1) on a 2-vCPU Intel
Xeon, the script with its defaults (ingest, then 10 repetitions of the
10x10 grid) took 2.3 s under ``OPENBLAS_NUM_THREADS=1``, which lets the
splits run in 2 worker processes, and 3.6-4.1 s under the default BLAS
threads, which runs them serially; with --with-length-study it took 17 s.
"""

import argparse
import sys
from pathlib import Path

from fofcast.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("archive", type=Path,
                        help="RSMC best-track file (e.g. bst_all.txt)")
    parser.add_argument("--out", type=Path, default=Path("reproduction"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--with-length-study", action="store_true")
    args = parser.parse_args()

    seed_reps = ["--seed", str(args.seed), "--reps", str(args.reps)]
    steps = [
        ["ingest", "--input", str(args.archive), "--min-len", "32",
         "--total-len", "32", "--predictor-len", "24",
         "--out", str(args.out / "dataset")],
        ["grid", "--data", str(args.out / "dataset"),
         "--out", str(args.out / "grid"), *seed_reps],
    ]
    if args.with_length_study:
        steps.append(["length-study", "--input", str(args.archive),
                      "--out", str(args.out / "length_study"), *seed_reps])
    for step in steps:
        print(f"\n$ fofcast {' '.join(step)}")
        code = cli_main(step)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
