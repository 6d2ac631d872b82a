"""Benchmark command for fofcast on a synthetic, archive-shaped RSMC archive.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. The command writes the input for
``--seed`` under ``.perfbench_run/``, measures the program's set-up in
several fresh processes, runs the workload's operation back to back in one
more process for ``--seconds``, checks every operation's output against the
generator and the independent oracle, and prints one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import archive_gen
import checks
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 5      # set-up runs per benchmark run, the median is reported
TIME_LIMIT_S = 170     # every process of one run ends within this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "global_km": "km", "best_km": "km"}
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.records": "count", "ingest.window_s": "s",
    "basis.basis_matrix_s": "s", "basis.basis_matrix_calls": "count",
    "basis.fit_bundle_s": "s", "basis.fit_coefficients_s": "s",
    "basis.fit_coefficients_calls": "count", "basis.gram_s": "s",
    "clustering.kmeans_s": "s", "clustering.kmeans_calls": "count",
    "clustering.lloyd_iterations_best": "count", "clustering.assign_s": "s",
    "regression.fit_fof_s": "s", "regression.fit_fof_calls": "count",
    "regression.predict_s": "s", "regression.predict_calls": "count",
    "experiment.scoring_s": "s", "experiment.split_setup_s": "s",
    "experiment.model_requests": "count", "experiment.model_cache_hit_ratio": "ratio",
    "experiment.geojson_s": "s",
    "cli.ingest_s": "s", "cli.fit_s": "s", "cli.export_s": "s", "cli.predict_s": "s",
    "cli.bytes_written": "B", "trace.overhead_s": "s",
}


def _worker(args, work: Path, input_path: Path, deadline: float, *extra) -> dict:
    src = Path.cwd() / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # one caller and no added threads: BLAS runs on the calling thread alone
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--input", str(input_path), "--work", str(work), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layer_metrics(layers: dict) -> dict:
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "experiment.model_cache_hit_ratio":
            requests = layers.get("experiment.model_requests", 0.0)
            fits = layers.get("regression.fit_fof_calls", 0.0)
            value = 1.0 - fits / requests if requests else 0.0
        else:
            value = layers.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def _check(workload: str, result: dict, expect: dict
           ) -> tuple[list[list[str] | None], float, float]:
    """Problems per operation (None for one that raised), then problems of
    the whole run, and the workload's (global_km, best_km)."""
    problems, quality = [], []
    for facts in result["ops"]:
        if facts is None:
            problems.append(None)
            continue
        if workload == "protocol":
            problems.append(checks.check_protocol(facts, expect))
            quality.append((facts["global_mean"], facts["best_error"]))
        elif workload == "archive_forecast":
            found, mean = checks.check_archive(Path(facts["dir"]), expect)
            problems.append(found)
            quality.append((mean, mean))
        else:
            problems.append(checks.check_length(facts, expect))
            entries = facts["entries"]
            quality.append((sum(e["global_mean"] for e in entries) / len(entries),
                            min(e["best_error"] for e in entries)))
    if len(set(quality)) > 1:
        # the same seed must give the same numbers on every repetition
        problems.append([f"operations disagree: {sorted(set(quality))}"])
    if "parsed" in result:
        problems.append(checks.check_parsed(result["parsed"], expect))
    global_km, best_km = quality[0]
    return problems, global_km, best_km


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (Path.cwd() / "src" / "fofcast" / "__init__.py").is_file():
        print("perfbench: run from the root of a fofcast checkout "
              "(src/fofcast not found)", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    archive = archive_gen.generate(args.seed)
    input_path = work / "bst_synthetic.txt"
    input_path.write_text(archive.text)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, work, input_path, deadline,
                                  "--setup-only")["setup_s"])
    result = _worker(args, work, input_path, deadline)
    setups.append(result["setup_s"])

    if all(facts is None for facts in result["ops"]):
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    expect = checks.expected(archive, args.workload, args.seed)
    problems, global_km, best_km = _check(args.workload, result, expect)
    for found in problems:
        for line in found or []:
            print(f"perfbench: check failed: {line}", file=sys.stderr)
    attempted = len(result["ops"])
    failed = sum(1 for found in problems[:attempted] if found is None or found)
    correct = all(not found for found in problems if found is not None)

    if args.trace:
        metrics = _layer_metrics(result["per_layer"])
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(result["op_s"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "global_km": global_km, "best_km": best_km}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    (work / "result.json").write_text(json.dumps(
        {"seed": args.seed, "input": archive.summary(), "setup_samples_s": setups,
         "op_s": result["op_s"], "traced_s": result.get("traced_s", []),
         "oracle_km": expect["oracle_km"], "metrics": metrics}, indent=2))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
