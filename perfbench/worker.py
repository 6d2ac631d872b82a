"""One benchmark process: set fofcast up, run one workload's operation back
to back (a closed loop with a single caller), and print what it measured
and the outputs the checks need as one JSON line.

Run by ``run.py``, which has already written the input file:

    python3 perfbench/worker.py --workload protocol --input bst.txt \\
        --work DIR --seed 1 --seconds 50 --trace 0 [--setup-only]

Only the standard library is imported before the program, so that the set-up
time includes the import of fofcast and of numpy under it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

WORKLOADS = ("protocol", "archive_forecast", "length_study")
# the workloads BENCHMARK.json lists. length_study runs only by hand: three
# workloads at the run length that steadies run_s take longer than the time
# allowed for all benchmark runs (README.md)
LISTED = ("protocol", "archive_forecast")
# protocol: two repetitions of the paper's grid, L=32, P=24, 8:2 split. The
# k-means iterations and FoF fits of one split move by about 10% with the
# split, so an operation averages two of them
PROTOCOL = {"total_len": 32, "predictor_len": 24, "ratio": 0.8, "reps": 2}
# archive_forecast: half the storms held out, so that the error rests on
# about 550 exported forecasts
ARCHIVE = {"total_len": 32, "predictor_len": 24, "ratio": 0.5}
# length_study: many splits with few cells each. Six repetitions, so that
# the best entry, on the 425 storms of >= 48 records, rests on about 510
# test forecasts; from eight on, the report's cell (1,1) and global mean are
# averaged in different orders and may differ in the last bit (CHANGES.md).
LENGTH = {"lengths": (32, 40, 48), "response_len": 8, "grid": 2, "reps": 6}


def import_program():
    from fofcast import basis, cli, clustering, experiment, ingest, regression
    return {"basis": basis, "cli": cli, "clustering": clustering,
            "experiment": experiment, "ingest": ingest, "regression": regression}


def prepare(mods: dict, workload: str, input_path: Path) -> dict:
    """The program's own set-up before the timed operation."""
    if workload == "archive_forecast":
        return {}             # the operation starts from the raw text
    ingest = mods["ingest"]
    storms = ingest.parse_rsmc(input_path.read_text())
    if workload == "length_study":
        return {"storms": storms}
    L, P = PROTOCOL["total_len"], PROTOCOL["predictor_len"]
    windows = [ingest.extract_tail(s, L, P)
               for s in ingest.filter_min_length(storms, L)]
    return {"matrices": ingest.build_matrices(windows)}


def run_protocol(mods, state, seed, op_dir):
    experiment = mods["experiment"]
    config = experiment.ExperimentConfig(
        total_len=PROTOCOL["total_len"], predictor_len=PROTOCOL["predictor_len"],
        ratio=PROTOCOL["ratio"], seed=seed, n_repetitions=PROTOCOL["reps"])
    report = experiment.repeated_simulation(*state["matrices"], config)
    return {"traces": [{"global_error": t["global_error"], "cells": t["cells"]}
                       for t in report.repetition_traces],
            "cell_means": report.cell_means.tolist(),
            "global_mean": report.global_mean,
            "best_error": report.best_error,
            "best_pair": list(report.best_pair)}


def run_archive(mods, state, seed, op_dir):
    cli = mods["cli"]
    data, models = op_dir / "dataset", op_dir / "models"
    steps = [
        ["ingest", "--format", "rsmc", "--input", str(state["input"]),
         "--total-len", str(ARCHIVE["total_len"]),
         "--predictor-len", str(ARCHIVE["predictor_len"]),
         "--min-len", str(ARCHIVE["total_len"]), "--out", str(data)],
        ["fit", "--data", str(data), "--out", str(models),
         "--seed", str(seed), "--ratio", str(ARCHIVE["ratio"])],
        ["export", "--data", str(data), "--models", str(models),
         "--out", str(op_dir / "export.geojson")],
        ["predict", "--data", str(data), "--models", str(models),
         "--out", str(op_dir / "predict.geojson")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for step in steps:
            code = cli.main(step)
            if code != 0:
                raise RuntimeError(f"fofcast {step[0]} exited with {code}")
    return {"dir": str(op_dir)}


def run_length(mods, state, seed, op_dir):
    experiment = mods["experiment"]
    L0 = LENGTH["lengths"][0]
    config = experiment.ExperimentConfig(
        total_len=L0, predictor_len=L0 - LENGTH["response_len"], seed=seed,
        k_lat_max=LENGTH["grid"], k_lon_max=LENGTH["grid"],
        n_repetitions=LENGTH["reps"])
    entries = experiment.length_study(state["storms"], config,
                                      lengths=LENGTH["lengths"],
                                      response_len=LENGTH["response_len"])
    return {"entries": [{
        "min_records": e.min_records, "data_size": e.data_size,
        "total_len": e.total_len,
        "cell11": float(e.report.cell_means[0, 0]),
        "global_mean": e.report.global_mean,
        "best_error": e.report.best_error,
        "rep0_global": e.report.repetition_traces[0]["global_error"],
    } for e in entries]}


OPERATIONS = {"protocol": run_protocol, "archive_forecast": run_archive,
              "length_study": run_length}


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    mods = import_program()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(mods)
        tracer.install()
    state = prepare(mods, args.workload, args.input)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    state["input"] = args.input

    operation = OPERATIONS[args.workload]
    op_s: list[float] = []         # untraced operations
    traced_s: list[float] = []
    ops: list[dict | None] = []
    op_phases: list[str] = []
    bytes_written: list[int] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(ops)
        # with tracing on, traced and untraced operations alternate, so that
        # the difference of their medians is the tracing overhead
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.uninstall()
            if traced:
                tracer.phase = f"op{i}"
                op_phases.append(tracer.phase)
                tracer.install()
        op_dir = args.work / f"op{i}"
        op_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        try:
            facts = operation(mods, state, args.seed, op_dir)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            facts = None
        (traced_s if traced else op_s).append(time.perf_counter() - start)
        ops.append(facts)
        if traced:
            bytes_written.append(_bytes_under(op_dir))
        # start another operation only if it should end no later than half
        # an operation past the deadline, so that a run lasts about --seconds
        typical = statistics.median(op_s + traced_s)
        if (time.perf_counter() + typical / 2 >= deadline
                and (tracer is None or len(ops) >= 2)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    result = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": peak_rss_mb,
              "ops": ops}
    if args.workload == "archive_forecast":
        storms = mods["ingest"].parse_rsmc(args.input.read_text())
        result["parsed"] = {"storms": len(storms),
                            "records": sum(len(s) for s in storms)}
    if tracer is not None:
        layers = tracer.layer_values(op_phases)
        layers["cli.bytes_written"] = statistics.median(bytes_written)
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(op_s))
        result["traced_s"] = traced_s
        result["per_layer"] = layers
        tracer.write(args.work / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
