"""Fast tests of the benchmark itself: the generator's claims, the checks'
power to fail, and the printed metric names.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import archive_gen
import checks
import oracle
import run
import worker

HERE = Path(__file__).resolve().parent
SEED = 4


@pytest.fixture(scope="module")
def archive():
    return archive_gen.generate(SEED)


@pytest.fixture(scope="module")
def mods():
    return worker.import_program()


@pytest.fixture(scope="module")
def storms(mods, archive):
    return mods["ingest"].parse_rsmc(archive.text)


def test_generator_counts_match_its_claims(archive, storms):
    assert len(storms) == archive_gen.N_STORMS == len(archive.storm_ids)
    assert sum(len(s) for s in storms) == archive_gen.N_RECORDS == archive.n_records
    for n, claimed in zip((32, 40, 48), (1107, 709, 425)):
        assert sum(len(s) >= n for s in storms) == archive.count_at_least(n) == claimed
    summary = archive.summary()
    assert sum(summary["families"].values()) == archive_gen.N_STORMS
    assert sum(summary["length_histogram"].values()) == archive_gen.N_STORMS
    assert len(set(archive.storm_ids)) == archive_gen.N_STORMS


def test_generator_windows_are_what_the_program_parses(mods, archive, storms):
    ingest = mods["ingest"]
    for L in (32, 48):
        ids, lat, lon = archive.windows(L, L)
        lat_m, lon_m = ingest.build_matrices(
            [ingest.extract_tail(s, L, L - 8) for s in ingest.filter_min_length(storms, L)])
        assert list(lat_m.storm_ids) == ids
        np.testing.assert_array_equal(lat_m.values, lat)
        np.testing.assert_array_equal(lon_m.values, lon)
    lons = np.concatenate(archive.lon10) / 10.0
    assert lons.min() >= 0.0 and lons.max() < 360.0


def test_generator_is_deterministic(archive):
    assert archive_gen.generate(SEED).text == archive.text
    assert archive_gen.generate(SEED + 1).text != archive.text


def test_oracle_agrees_with_program(mods, archive, storms):
    ingest, experiment = mods["ingest"], mods["experiment"]
    lat_m, lon_m = ingest.build_matrices(
        [ingest.extract_tail(s, 32, 24) for s in ingest.filter_min_length(storms, 32)])
    train, test = oracle.split(lat_m.n_storms, 0.8, SEED)
    np.testing.assert_array_equal(train, ingest.train_test_split(lat_m.n_storms, 0.8, SEED)[0])
    runner = experiment.SplitRunner(lat_m, lon_m, train, test, experiment.ExperimentConfig())
    program = float(runner.global_errors().mean())
    _, lat, lon = archive.windows(32, 32)
    reference = oracle.global_error_km(lat, lon, 24, train, test)
    assert abs(program - reference) <= 1e-9 * reference


def test_great_circle_known_distances():
    quarter = np.pi * oracle.EARTH_RADIUS_KM / 2
    assert oracle.great_circle_km(0.0, 0.0, 0.0, 90.0) == pytest.approx(quarter, rel=1e-15)
    assert oracle.great_circle_km(0.0, 0.0, 90.0, 123.0) == pytest.approx(quarter, rel=1e-15)
    assert oracle.great_circle_km(12.3, 222.2, 12.3, 222.2) == 0.0


# ---- checks fail when the output they check is perturbed ------------------

def _protocol_facts(reference: float) -> dict:
    cells = np.full((10, 10), reference - 10.0)
    cells[0, 0] = reference
    cells[4, 2] = reference - 30.0
    return {"traces": [{"global_error": reference, "cells": cells.tolist()}],
            "cell_means": cells.tolist(), "global_mean": reference,
            "best_error": reference - 30.0, "best_pair": [5, 3]}


def test_protocol_check_fails_on_each_perturbation():
    expect = {"oracle_km": 150.0}
    good = _protocol_facts(150.0)
    assert checks.check_protocol(good, expect) == []
    bad = copy.deepcopy(good)
    bad["traces"][0]["cells"][0][0] = float(np.nextafter(150.0, 200.0))
    assert checks.check_protocol(bad, expect)
    bad = copy.deepcopy(good)
    bad["best_error"] = 125.0
    assert checks.check_protocol(bad, expect)
    bad = copy.deepcopy(good)
    bad["best_pair"] = [3, 5]
    assert checks.check_protocol(bad, expect)
    bad = copy.deepcopy(good)
    bad["global_mean"] = 100.0
    assert checks.check_protocol(bad, expect)
    assert checks.check_protocol(good, {"oracle_km": 150.0 * (1 + 2e-6)})


def _length_facts(expect: dict) -> dict:
    entries = []
    for t, L in [(32, 32), (40, 32), (40, 40), (48, 32), (48, 40), (48, 48)]:
        g = expect["oracle_km"] + L
        entries.append({"min_records": t, "data_size": expect["at_least"][t],
                        "total_len": L, "cell11": g, "global_mean": g,
                        "best_error": g - 5.0, "rep0_global": expect["oracle_km"]})
    return {"entries": entries}


def test_length_check_fails_on_each_perturbation():
    expect = {"oracle_km": 140.0, "at_least": {32: 1107, 40: 709, 48: 425}}
    good = _length_facts(expect)
    assert checks.check_length(good, expect) == []
    bad = copy.deepcopy(good)
    bad["entries"].pop(2)
    assert checks.check_length(bad, expect)
    bad = copy.deepcopy(good)
    bad["entries"][4]["data_size"] -= 1
    assert checks.check_length(bad, expect)
    bad = copy.deepcopy(good)
    bad["entries"][3]["cell11"] = float(np.nextafter(bad["entries"][3]["cell11"], 0.0))
    assert checks.check_length(bad, expect)
    bad = copy.deepcopy(good)
    bad["entries"][0]["rep0_global"] *= 1 + 2e-6
    assert checks.check_length(bad, expect)


@pytest.fixture(scope="module")
def chain(mods, archive, tmp_path_factory):
    """One real CLI chain (ingest, fit, export, predict) and its expectations."""
    root = tmp_path_factory.mktemp("chain")
    path = root / "bst.txt"
    path.write_text(archive.text)
    worker.run_archive(mods, {"input": path}, SEED, root / "op")
    return root / "op", checks.expected(archive, "archive_forecast", SEED)


def _bump_avg_dist(export, predict, meta):
    export[2]["properties"]["avg_dist_km"] += 1e-6


def _drop_feature(export, predict, meta):
    export.pop()


def _shorten_segment(export, predict, meta):
    predict[5]["geometry"]["coordinates"].pop()


def _move_point(export, predict, meta):
    predict[5]["geometry"]["coordinates"][0][1] += 0.01


def _wrong_forecast(export, predict, meta):
    """A forecast whose own distance is consistent: only the mean against
    the oracle can tell."""
    truth, pred = export[1], export[2]
    coords = np.array(pred["geometry"]["coordinates"]) + [0.0, 0.5]
    pred["geometry"]["coordinates"] = coords.tolist()
    c_truth = np.array(truth["geometry"]["coordinates"])
    pred["properties"]["avg_dist_km"] = float(oracle.great_circle_km(
        coords[:, 1], coords[:, 0], c_truth[:, 1], c_truth[:, 0]).mean())


def _lose_storm(export, predict, meta):
    meta["n_storms"] -= 1


def test_archive_check_passes_on_real_chain(chain):
    problems, mean = checks.check_archive(*chain)
    assert problems == []
    assert mean == pytest.approx(chain[1]["oracle_km"], rel=1e-6)


@pytest.mark.parametrize("edit", [_bump_avg_dist, _drop_feature, _shorten_segment,
                                  _move_point, _wrong_forecast, _lose_storm])
def test_archive_check_fails_on_each_perturbation(chain, tmp_path, edit):
    src, expect = chain
    op_dir = tmp_path / "op"
    shutil.copytree(src, op_dir)
    paths = [op_dir / "export.geojson", op_dir / "predict.geojson",
             op_dir / "dataset" / "dataset.json"]
    docs = [json.loads(p.read_text()) for p in paths]
    edit(docs[0]["features"], docs[1]["features"], docs[2])
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    assert checks.check_archive(op_dir, expect)[0]


def test_parsed_counts_check():
    expect = {"storms": 1894, "records": 71088}
    assert checks.check_parsed({"storms": 1894, "records": 71088}, expect) == []
    assert checks.check_parsed({"storms": 1894, "records": 71087}, expect)


# ---- the command -----------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(worker.LISTED)
    assert set(worker.LISTED) <= set(worker.WORKLOADS)
    assert set(run._layer_metrics({})) == set(run.PER_LAYER)


def test_command_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "protocol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
