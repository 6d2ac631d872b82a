"""Output checks: each compares what fofcast produced with what the
generator wrote or with the independent oracle. A check returns a list of
problems; an empty list means the operation's output is correct."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle
from archive_gen import Archive
from worker import ARCHIVE, LENGTH, PROTOCOL

ORACLE_RTOL = 1e-6
DISTANCE_ATOL_KM = 1e-9


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ORACLE_RTOL * abs(reference)


def expected(archive: Archive, workload: str, seed: int) -> dict:
    """Counts from the generator and the oracle's global error of the first
    split the workload evaluates."""
    if workload == "archive_forecast":
        L, P, ratio = ARCHIVE["total_len"], ARCHIVE["predictor_len"], ARCHIVE["ratio"]
    elif workload == "protocol":
        L, P, ratio = PROTOCOL["total_len"], PROTOCOL["predictor_len"], PROTOCOL["ratio"]
    else:
        L = LENGTH["lengths"][0]
        P, ratio = L - LENGTH["response_len"], 0.8
    ids, lat, lon = archive.windows(L, L)
    train, test = oracle.split(len(ids), ratio, seed)
    return {
        "storms": len(archive.storm_ids),
        "records": archive.n_records,
        "at_least": {n: archive.count_at_least(n) for n in (32, 40, 48)},
        "window_ids": ids,
        "test_ids": [ids[j] for j in test],
        "oracle_km": oracle.global_error_km(lat, lon, P, train, test),
    }


def check_protocol(facts: dict, expect: dict) -> list[str]:
    problems = []
    for r, trace in enumerate(facts["traces"]):
        if trace["cells"][0][0] != trace["global_error"]:
            problems.append(f"rep {r}: cell (1,1) {trace['cells'][0][0]!r} != "
                            f"global {trace['global_error']!r}")
    cells = np.array(facts["cell_means"])
    if facts["best_error"] != cells.min():
        problems.append(f"best {facts['best_error']} is not the grid minimum {cells.min()}")
    if list(np.unravel_index(cells.argmin(), cells.shape)) != [k - 1 for k in facts["best_pair"]]:
        problems.append(f"best pair {facts['best_pair']} is not the argmin cell")
    if not facts["best_error"] < facts["global_mean"]:
        problems.append(f"best {facts['best_error']} does not beat global {facts['global_mean']}")
    first = facts["traces"][0]["global_error"]
    if not _close(first, expect["oracle_km"]):
        problems.append(f"first split global {first!r} != oracle {expect['oracle_km']!r}")
    return problems


def _features(path: Path) -> list[dict]:
    return json.loads(path.read_text())["features"]


def _check_geojson(features: list[dict], storm_ids: list[str], name: str
                   ) -> tuple[list[str], list[float]]:
    problems, errors = [], []
    P, L = ARCHIVE["predictor_len"], ARCHIVE["total_len"]
    if len(features) != 3 * len(storm_ids):
        return [f"{name}: {len(features)} features for {len(storm_ids)} storms"], []
    for j, sid in enumerate(storm_ids):
        pred_in, truth, pred = features[3 * j: 3 * j + 3]
        segments = [f["properties"]["segment"] for f in (pred_in, truth, pred)]
        if segments != ["observed_predictor", "observed_response", "predicted_response"]:
            problems.append(f"{name} {sid}: segments {segments}")
            continue
        if {f["properties"]["storm_id"] for f in (pred_in, truth, pred)} != {sid}:
            problems.append(f"{name}: features of storm {sid} carry another id")
            continue
        c_in, c_truth, c_pred = (np.array(f["geometry"]["coordinates"])
                                 for f in (pred_in, truth, pred))
        if len(c_in) != P or len(c_truth) != L - P or len(c_pred) != L - P:
            problems.append(f"{name} {sid}: {len(c_in)}/{len(c_truth)}/{len(c_pred)} points")
            continue
        # GeoJSON positions are [lon, lat]
        km = float(oracle.great_circle_km(c_pred[:, 1], c_pred[:, 0],
                                          c_truth[:, 1], c_truth[:, 0]).mean())
        reported = pred["properties"]["avg_dist_km"]
        if abs(reported - km) > DISTANCE_ATOL_KM:
            problems.append(f"{name} {sid}: avg_dist_km {reported!r} != {km!r}")
        errors.append(reported)
    return problems, errors


def check_archive(op_dir: Path, expect: dict) -> tuple[list[str], float]:
    """Problems with one CLI chain's outputs, and its mean exported error."""
    problems = []
    meta = json.loads((op_dir / "dataset" / "dataset.json").read_text())
    if meta["n_storms"] != expect["at_least"][32]:
        problems.append(f"ingest kept {meta['n_storms']} storms, generator wrote "
                        f"{expect['at_least'][32]} with >= 32 records")
    with (op_dir / "dataset" / "lat.csv").open() as fh:
        ids = fh.readline().rstrip("\r\n").split(",")
    if ids != expect["window_ids"]:
        problems.append("ingested storm ids differ from the generator's")
    found, errors = _check_geojson(_features(op_dir / "export.geojson"),
                                   expect["test_ids"], "export")
    problems += found
    found, _ = _check_geojson(_features(op_dir / "predict.geojson"),
                              expect["window_ids"], "predict")
    problems += found
    mean = float(np.mean(errors)) if errors else float("nan")
    if not _close(mean, expect["oracle_km"]):
        problems.append(f"exported mean {mean!r} != oracle {expect['oracle_km']!r}")
    return problems, mean


def check_parsed(parsed: dict, expect: dict) -> list[str]:
    if (parsed["storms"], parsed["records"]) != (expect["storms"], expect["records"]):
        return [f"parsed {parsed['storms']} storms / {parsed['records']} records, "
                f"generator wrote {expect['storms']} / {expect['records']}"]
    return []


def check_length(facts: dict, expect: dict) -> list[str]:
    problems = []
    entries = facts["entries"]
    lengths = LENGTH["lengths"]
    layout = [(t, L) for t in lengths for L in lengths if L <= t]
    got = [(e["min_records"], e["total_len"]) for e in entries]
    if got != layout:
        return [f"entries {got} are not the lower-triangular layout {layout}"]
    for e in entries:
        if e["data_size"] != expect["at_least"][e["min_records"]]:
            problems.append(f"T={e['min_records']}: data size {e['data_size']} != "
                            f"{expect['at_least'][e['min_records']]}")
        if e["cell11"] != e["global_mean"]:
            problems.append(f"T={e['min_records']} L={e['total_len']}: cell (1,1) "
                            f"{e['cell11']!r} != global {e['global_mean']!r}")
    if not _close(entries[0]["rep0_global"], expect["oracle_km"]):
        problems.append(f"first split global {entries[0]['rep0_global']!r} != "
                        f"oracle {expect['oracle_km']!r}")
    return problems
