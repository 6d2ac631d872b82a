import contextlib
import csv
import hashlib
import inspect
import io
import json
import locale
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fofcast import DatasetMatrix, ExperimentConfig, train_test_split, write_csv
from fofcast.errors import SchemaError
from fofcast import cli, experiment, ingest
from fofcast.cli import (_config, _load_dataset, _read_matrix_csv, _write_geojson,
                         _write_matrix_csv, build_parser, main)
from fofcast.experiment import SplitRunner, forecasts_to_geojson

from conftest import (make_rsmc_storm, make_storm, rsmc_data_line, rsmc_header,
                      synthetic_tracks)

from datetime import datetime


@pytest.fixture(scope="module")
def csv_input(tmp_path_factory):
    """A CSV best-track file with 40 synthetic storms of 40 records each."""
    lat_v, lon_v = synthetic_tracks(n=40, L=40, seed=20, noise=0.1)
    storms = [make_storm(f"C{i:03d}", lat_v[:, i], lon_v[:, i],
                         start=datetime(2012, 8, 1), name="CLI")
              for i in range(40)]
    buf = io.StringIO()
    write_csv(storms, buf)
    path = tmp_path_factory.mktemp("input") / "storms.csv"
    path.write_text(buf.getvalue())
    return path


@pytest.fixture(scope="module")
def ingested(csv_input, tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    code = main(["ingest", "--format", "csv", "--input", str(csv_input),
                 "--min-len", "32", "--total-len", "32",
                 "--predictor-len", "24", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fitted(ingested, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = main(["fit", "--data", str(ingested), "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_outputs(self, ingested):
        meta = json.loads((ingested / "dataset.json").read_text())
        assert meta["n_storms"] == 40
        assert meta["total_len"] == 32 and meta["predictor_len"] == 24
        lat_rows = (ingested / "lat.csv").read_text().strip().splitlines()
        assert len(lat_rows) == 33  # id row + 32 time rows
        assert len(lat_rows[0].split(",")) == 40
        assert (ingested / "ingest_manifest.json").exists()

    def test_bad_pressure_field_parses_bad_position_fails(self, tmp_path, capsys):
        j = np.arange(32)
        lines = make_rsmc_storm("0501", 15.0 + 0.2 * j, 140.0 - 0.3 * j).splitlines()
        line = lines[2]

        def ingest(a):
            # "ab12" over columns a to a + 3 of line 3
            lines[2] = line[:a] + "ab12" + line[a + 4:]
            (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
            return main(["ingest", "--input", str(tmp_path / "bad.txt"),
                         "--out", str(tmp_path / f"o{a}")])

        assert ingest(24) == 0   # the pressure columns are not read
        for a in (14, 19):       # the lat field (and the blank before it), the lon field
            capsys.readouterr()
            assert ingest(a) == 2
            assert "error: line 3: " in capsys.readouterr().err

    def test_bad_window_config(self, csv_input, tmp_path, capsys):
        code = main(["ingest", "--format", "csv", "--input", str(csv_input),
                     "--total-len", "32", "--predictor-len", "32",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "predictor-len" in capsys.readouterr().err

    def test_repeated_storm_id_is_refused(self, tmp_path, capsys):
        # two storms under one id: a dataset of them would serve one storm
        # for the other, so nothing is written
        j = np.arange(8)
        text = "".join(make_rsmc_storm("5101", 15.0 + 0.2 * j, lon0 - 0.3 * j)
                       for lon0 in (128.4, 149.0))
        (tmp_path / "twice.txt").write_text(text)
        code = main(["ingest", "--input", str(tmp_path / "twice.txt"), "--min-len", "8",
                     "--total-len", "8", "--predictor-len", "4", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "twice.txt" in err and "5101" in err
        assert not (tmp_path / "o").exists()

    def test_csv_row_missing_fields(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("storm_id,time,lat,lon\nA,2005-07-01 00:00:00,15.0\n")
        code = main(["ingest", "--format", "csv", "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "storm A" in err and "lon" in err

    @pytest.mark.parametrize("fmt, text, line_no", [
        ("rsmc", rsmc_header("0501", 2) + "\n"
         + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n"
         + rsmc_data_line(datetime(2005, 7, 1), 15.5, 139.5) + "\n", 1),    # ParseError
        ("csv", "storm_id,time,lon\nA,2005-07-01 00:00:00,140.0\n", 1),      # SchemaError
        ("csv", "storm_id,time,lat,lon\nA,2005-07-01 00:00:00,15.0,140.0\n"
         "A,2005-07-01 06:00:00,-95.0,140.0\n", 3),                          # ValidationError
        # a field past the csv module's field limit: ParseError
        pytest.param("csv", "storm_id,time,lat,lon\nA,2005-07-01 00:00:00,15.0,140.0\n"
                     "A,2005-07-01 06:00:00,15.5,139.0," + "x" * 140_000 + "\n", 3,
                     id="csv-overlong-field"),
    ])
    def test_typed_input_errors_exit_2(self, tmp_path, capsys, fmt, text, line_no):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["ingest", "--format", fmt, "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: line {line_no}: " in capsys.readouterr().err

    def test_rsmc_file_is_held_a_piece_at_a_time(self, tmp_path, monkeypatch):
        """The traced peak of loading an RSMC file of ten pieces stays below
        twice its length; holding the whole text as a str and as lines takes
        more than four times it."""
        j = np.arange(40)
        text = "".join(make_rsmc_storm(f"{k:04d}", 15.0 + 0.1 * j, 140.0 - 0.2 * j)
                       for k in range(200))
        path = tmp_path / "bst.txt"
        path.write_text(text)
        monkeypatch.setattr(ingest, "RSMC_PIECE", len(text) // 10)
        with path.open() as fh:
            assert len(list(ingest._pieces(fh))) >= 8
        expected = ingest.parse_rsmc(text)
        tracemalloc.start()
        try:
            storms = cli._load_storms(path, "rsmc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.storm_id for s in storms] == [s.storm_id for s in expected]
        assert all(np.array_equal(a.lons, b.lons) for a, b in zip(storms, expected))
        assert peak < 2 * len(text)

    @pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                        reason="files are opened in the locale's encoding, here not UTF-8")
    @pytest.mark.parametrize("command", ["ingest", "length-study"])
    @pytest.mark.parametrize("fmt", ["rsmc", "csv"])
    def test_undecodable_byte_names_its_line(self, tmp_path, capsys, monkeypatch,
                                             command, fmt):
        j = np.arange(10)
        if fmt == "rsmc":   # CRLF and LF line ends; the byte is read 300 reads in
            text = "".join(make_rsmc_storm(f"{k:04d}", 15.0 + 0.2 * j, 140.0 - 0.3 * j)
                           .replace("\n", "\r\n" if k % 2 else "\n") for k in range(30))
            monkeypatch.setattr(ingest, "RSMC_PIECE", 32)
        else:               # csv.writer ends its rows with CRLF
            buf = io.StringIO()
            write_csv([make_storm(f"C{k:03d}", 15.0 + 0.2 * j, 140.0 - 0.3 * j)
                       for k in range(30)], buf)
            text = buf.getvalue()
        lines = text.encode().splitlines(keepends=True)
        body = lines[249].rstrip(b"\r\n")   # the byte ends line 250
        lines[249] = body + b"\xff" + lines[249][len(body):]
        path = tmp_path / "bst.txt"
        path.write_bytes(b"".join(lines))
        code = main([command, "--format", fmt, "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == ("error: line 250: 'utf-8' codec can't decode "
                                           "byte 0xff: invalid start byte\n")
        assert not (tmp_path / "o").exists()

    def test_irregular_cadence_is_counted(self, tmp_path, capsys):
        j = np.arange(40)
        # storm C001 pauses a week mid-window
        storms = [make_storm(f"C{i:03d}", 15.0 + 0.2 * j, 140.0 - 0.3 * j,
                             hours=6 * j + 24 * gap * (j >= 20),
                             start=datetime(2012, 8, 1), name="CLI")
                  for i, gap in enumerate((0, 7, 0))]
        buf = io.StringIO()
        write_csv(storms, buf)
        (tmp_path / "gap.csv").write_text(buf.getvalue())
        code = main(["ingest", "--format", "csv", "--input", str(tmp_path / "gap.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out == f"ingested 3 storms (L=32, P=24) -> {tmp_path / 'o'}\n"
        manifest = json.loads((tmp_path / "o" / "ingest_manifest.json").read_text())
        assert manifest["counts"] == {"storms": 3, "records": 120, "windows": 3,
                                      "irregular_windows": 1}
        assert set(manifest["timings_s"]) == {"parse", "window", "write", "total"}
        meta = json.loads((tmp_path / "o" / "dataset.json").read_text())
        assert meta["irregular_windows"] == 1
        code = main(["grid", "--data", str(tmp_path / "o"), "--out", str(tmp_path / "g"),
                     "--k-lat", "1", "--k-lon", "1", "--reps", "1"])
        assert code == 0
        manifest = json.loads((tmp_path / "g" / "grid_manifest.json").read_text())
        assert manifest["counts"] == {"irregular_windows": 1}

    def test_track_across_greenwich(self, tmp_path):
        j = np.arange(32)
        storms = [make_storm(sid, 15.0 + 0.2 * j, lon0 + step * j,
                             start=datetime(2012, 8, 1), name="CLI")
                  for sid, lon0, step in (("E", -10.0, 0.7), ("W", 10.0, -0.7),
                                          ("P", 140.0, -0.3))]
        buf = io.StringIO()
        write_csv(storms, buf)
        (tmp_path / "g.csv").write_text(buf.getvalue())
        assert main(["ingest", "--format", "csv", "--input", str(tmp_path / "g.csv"),
                     "--out", str(tmp_path / "o")]) == 0
        lon = np.loadtxt(tmp_path / "o" / "lon.csv", delimiter=",", skiprows=1)
        # each window is continuous from its first longitude, which is in [0, 360)
        np.testing.assert_allclose(lon, [[350.0, 10.0, 140.0]]
                                   + np.arange(32)[:, None] * [0.7, -0.7, -0.3],
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(lon[:, 2], storms[2].lons)
        _load_dataset(tmp_path / "o")        # and the commands read them back


@pytest.mark.parametrize("command", ["ingest", "length-study"])
def test_missing_input(tmp_path, capsys, command):
    code = main([command, "--format", "csv", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(tmp_path / "nope.csv") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestPredict:
    def test_single_storm_geojson(self, ingested, fitted, tmp_path):
        out = tmp_path / "fc.geojson"
        code = main(["predict", "--data", str(ingested), "--models",
                     str(fitted), "--out", str(out), "C003"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 3
        roles = [f["properties"]["segment"] for f in doc["features"]]
        assert roles == ["observed_predictor", "observed_response",
                         "predicted_response"]
        predicted = doc["features"][2]
        assert len(predicted["geometry"]["coordinates"]) == 8
        assert predicted["properties"]["avg_dist_km"] >= 0

    def test_without_truth(self, ingested, fitted, tmp_path):
        out = tmp_path / "fc.geojson"
        code = main(["predict", "--data", str(ingested), "--models",
                     str(fitted), "--out", str(out), "--no-truth", "C001"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["features"]) == 2
        assert all("avg_dist_km" not in f["properties"] for f in doc["features"])

    def test_repeated_storm_ids_are_refused(self, ingested, fitted, tmp_path, capsys):
        out = tmp_path / "fc" / "x.geojson"
        code = main(["predict", "--data", str(ingested), "--models", str(fitted),
                     "--out", str(out), "C001", "C002", "C001"])
        assert code == 2
        assert "storm ids repeated: C001" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unknown_storm(self, ingested, fitted, tmp_path, capsys):
        code = main(["predict", "--data", str(ingested), "--models",
                     str(fitted), "--out", str(tmp_path / "x.geojson"),
                     "NOPE"])
        assert code == 4
        err = capsys.readouterr().err
        assert "NOPE" in err and "C000" in err


class TestGrid:
    def test_single_cell_equals_global(self, ingested, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main(["grid", "--data", str(ingested), "--out", str(out),
                     "--k-lat", "1", "--k-lon", "1", "--reps", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cell_means"][0][0] == report["global_mean"]
        assert "best pair: k_lat=1, k_lon=1" in capsys.readouterr().out

    def test_byte_identical_reruns(self, ingested, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["grid", "--data", str(ingested), "--out", str(out),
                         "--k-lat", "2", "--k-lon", "2", "--reps", "2",
                         "--seed", "5"])
            assert code == 0
            outs.append((out / "grid.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_workers_write_the_same_files(self, ingested, tmp_path, monkeypatch):
        outs = []
        for n in (1, 2):
            monkeypatch.setattr(experiment, "split_workers",
                                lambda n_splits, n=n: min(n_splits, n))
            out = tmp_path / str(n)
            assert main(["grid", "--data", str(ingested), "--out", str(out),
                         "--k-lat", "3", "--k-lon", "2", "--reps", "3"]) == 0
            outs.append([(out / f).read_bytes() for f in ("grid.csv", "report.json")])
        assert outs[0] == outs[1]

    def test_worker_singularity_exits_3(self, ingested, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "split_workers", lambda n_splits: n_splits)
        code = main(["grid", "--data", str(ingested), "--out", str(tmp_path / "g"),
                     "--ridge", "0", "--min-cluster-size", "2", "--reps", "2"])
        assert code == 3
        assert "ridge" in capsys.readouterr().err

    def test_manifest(self, ingested, tmp_path, monkeypatch):
        # a dataset ingested before dataset.json held the irregular window count
        data = shutil.copytree(ingested, tmp_path / "data")
        meta = json.loads((data / "dataset.json").read_text())
        del meta["irregular_windows"]
        (data / "dataset.json").write_text(json.dumps(meta))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(experiment, "_threaded", lambda: False)
        assert main(["grid", "--data", str(data), "--out", str(tmp_path / "g"),
                     "--k-lat", "1", "--k-lon", "1", "--reps", "2"]) == 0
        manifest = json.loads((tmp_path / "g" / "grid_manifest.json").read_text())
        assert manifest["workers"] == 2
        assert manifest["counts"] == {"irregular_windows": None}
        assert set(manifest["timings_s"]) == {"load", "splits", "write", "total"}

    @pytest.mark.parametrize("flags, name", [(["--k-lat", "33", "--k-lon", "1"], "k_lat_max"),
                                             (["--k-lon", "33"], "k_lon_max")])
    def test_grid_beyond_the_training_count(self, ingested, tmp_path, monkeypatch,
                                            capsys, flags, name):
        # 32 of the 40 storms train; the refusal comes before any k-means
        calls = []
        monkeypatch.setattr(experiment, "kmeans_fit", lambda *a, **kw: calls.append(a))
        out = tmp_path / "g"
        code = main(["grid", "--data", str(ingested), "--out", str(out), "--reps", "1",
                     *flags])
        assert code == 2
        assert f"{name}=33 exceeds the 32 training storms" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_oversized_grid_is_refused_before_any_split(self, ingested, tmp_path,
                                                        monkeypatch, capsys):
        def split_row(*args):
            raise AssertionError("a split ran")
        monkeypatch.setattr(experiment, "_split_row", split_row)
        out = tmp_path / "g"
        code = main(["grid", "--data", str(ingested), "--out", str(out),
                     "--k-lat", "1000", "--reps", "2"])
        assert code == 2
        assert "k_lat_max=1000 exceeds the 32 training storms" in capsys.readouterr().err
        assert not out.exists()

    def test_min_cluster_size_zero(self, ingested, tmp_path, capsys):
        code = main(["grid", "--data", str(ingested), "--out", str(tmp_path / "g"),
                     "--min-cluster-size", "0"])
        assert code == 2
        assert "min_cluster_size" in capsys.readouterr().err


class TestExportAndLengthStudy:
    def test_export_test_set(self, ingested, fitted, tmp_path):
        out = tmp_path / "export.geojson"
        code = main(["export", "--data", str(ingested), "--models",
                     str(fitted), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        split = json.loads((fitted / "model.json").read_text())
        assert len(doc["features"]) == 3 * len(split["test_ids"])
        assert [f["properties"]["storm_id"] for f in doc["features"][::3]] == \
            split["test_ids"]

    @pytest.mark.parametrize("command, stages", [
        ("fit", {"load", "fit", "write", "total"}),
        ("predict", {"load", "forecast", "geojson", "write", "total"}),
        ("export", {"load", "forecast", "geojson", "write", "total"}),
    ])
    def test_manifest_stages(self, ingested, fitted, tmp_path, command, stages):
        out = tmp_path / "m" if command == "fit" else tmp_path / "fc.geojson"
        models = [] if command == "fit" else ["--models", str(fitted)]
        assert main([command, "--data", str(ingested), *models, "--out", str(out)]) == 0
        # fit writes its manifest into --out, predict and export beside the GeoJSON
        manifest = (out if command == "fit" else out.parent) / f"{command}_manifest.json"
        timings = json.loads(manifest.read_text())["timings_s"]
        assert set(timings) == stages
        total = timings.pop("total")
        assert min(timings.values()) >= 0 and sum(timings.values()) == pytest.approx(total)

    def test_length_study(self, csv_input, tmp_path):
        out = tmp_path / "study"
        code = main(["length-study", "--format", "csv", "--input",
                     str(csv_input), "--out", str(out), "--lengths", "32",
                     "40", "--k-lat", "1", "--k-lon", "1", "--reps", "1"])
        assert code == 0
        summary = json.loads((out / "length_study.json").read_text())
        assert len(summary) == 3  # 32 on both subsets, 40 on the >=40 subset
        assert {e["total_len"] for e in summary} == {32, 40}
        manifest = json.loads((out / "length-study_manifest.json").read_text())
        assert manifest["workers"] == experiment.split_workers(3)
        assert set(manifest["timings_s"]) == {"load", "splits", "write", "total"}

    def test_length_study_repeated_lengths(self, csv_input, tmp_path, capsys):
        out = tmp_path / "study"
        code = main(["length-study", "--format", "csv", "--input", str(csv_input),
                     "--out", str(out), "--lengths", "32", "40", "32", "40", "36"])
        assert code == 2
        assert "lengths repeated: 32, 40" in capsys.readouterr().err
        assert not out.exists()


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--ratio", "--seed", "--k-t", "--k-s", "--ridge", "--k-lat",
                 "--k-lon", "--reps", "--min-cluster-size"):
        assert flag in out


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    window = {"total_len": 40, "predictor_len": 30}
    args = parser.parse_args(["grid", "--data", "d", "--out", "o"])
    assert _config(args, window) == ExperimentConfig(**window)
    args = parser.parse_args(["ingest", "--input", "i", "--out", "o"])
    assert (args.total_len, args.predictor_len) == (ExperimentConfig.total_len,
                                                    ExperimentConfig.predictor_len)
    assert args.min_len == ExperimentConfig.total_len
    args = parser.parse_args(["length-study", "--input", "i", "--out", "o"])
    study = inspect.signature(experiment.length_study).parameters
    assert (tuple(args.lengths), args.response_len) == (study["lengths"].default,
                                                        study["response_len"].default)


def test_manifests_name_settings_as_the_config_does(ingested, tmp_path):
    settings = ["--seed", "3", "--k-t", "8", "--k-s", "4", "--ridge", "0.5"]
    assert main(["fit", "--data", str(ingested), "--out", str(tmp_path / "m"),
                 *settings]) == 0
    assert main(["grid", "--data", str(ingested), "--out", str(tmp_path / "g"), *settings,
                 "--k-lat", "2", "--k-lon", "3", "--reps", "2", "--min-cluster-size", "9"]) == 0
    model = json.loads((tmp_path / "m" / "model.json").read_text())
    report = json.loads((tmp_path / "g" / "report.json").read_text())
    model_settings = {"ratio", "seed", "K_t", "K_s", "ridge"}
    for out, keys, saved in (("m/fit", model_settings, model),
                             ("g/grid", set(report["config"]) - {"total_len", "predictor_len"},
                              report["config"])):
        arguments = json.loads((tmp_path / f"{out}_manifest.json").read_text())["arguments"]
        assert set(arguments) - {"command", "data", "out"} == keys
        # model.json holds all of fit's settings but the ridge
        shared = keys & set(saved)
        assert shared >= keys - {"ridge"}
        assert {k: arguments[k] for k in shared} == {k: saved[k] for k in shared}


def test_fit_rejects_grid_flags(ingested, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(ingested), "--out", str(tmp_path / "m"),
              "--k-lat", "7"])
    assert exc.value.code == 2
    assert "--k-lat" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "grid"])
@pytest.mark.parametrize("flags, message", [
    (["--ratio", "0.005"], "ratio 0.005 of 40 storms leaves 0 training"),
    (["--k-t", "30"], "K_t=30 exceeds the 24 predictor points"),
    (["--k-s", "12", "--ridge", "1"], "K_s=12 exceeds the 8 response points"),
    (["--k-s", "9"], "K_s=9 exceeds the 8 response points"),
    (["--ridge", "nan"], "ridge must be >= 0"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_unfittable_settings_are_input_errors(ingested, tmp_path, capsys, command,
                                              flags, message):
    out = tmp_path / "out"
    assert main([command, "--data", str(ingested), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "ridge > 0" not in err
    assert not out.exists()


def test_fit_solves_each_coordinate_once(ingested, tmp_path, monkeypatch):
    from fofcast import experiment, regression
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(args[0].shape[0])
            return solve(*args, **kwargs)
        return wrapper

    for module in (experiment, regression):
        monkeypatch.setattr(module, "solve_fof", counted(module.solve_fof))
    assert main(["fit", "--data", str(ingested), "--out", str(tmp_path / "m")]) == 0
    # one group, every training storm, for both coordinates
    assert calls == [1]


class TestShippedModelIsScored:
    """``fit`` saves the grid engine's global models, and ``export`` scores
    them as ``grid`` does, at the default basis sizes and at others."""

    @pytest.fixture(scope="class", params=[
        ([], {}),
        (["--k-t", "8", "--k-s", "4", "--ridge", "1e-3"], {"K_t": 8, "K_s": 4, "ridge": 1e-3}),
    ], ids=["defaults", "kt8-ks4-ridge"])
    def shipped(self, request, ingested, tmp_path_factory):
        """The model flags, the directory ``fit`` wrote with them, and the
        runner of the matching config."""
        flags, settings = request.param
        models = tmp_path_factory.mktemp("models")
        assert main(["fit", "--data", str(ingested), "--out", str(models), *flags]) == 0
        lat, lon, *_ = _load_dataset(ingested)
        config = ExperimentConfig(total_len=32, predictor_len=24, **settings)
        train, test = train_test_split(lat.n_storms, config.ratio, config.seed)
        return flags, models, SplitRunner(lat, lon, train, test, config)

    def test_saved_model_is_the_global_model(self, shipped):
        _, models, runner = shipped
        assert sorted(p.name for p in models.iterdir()) == ["fit_manifest.json",
                                                            "model.json"]
        model = json.loads((models / "model.json").read_text())
        for coord in ("lat", "lon"):
            saved = model[coord]
            coefficients, center = runner.fit_coordinate(coord)
            np.testing.assert_array_equal(np.array(saved["coefficients"]), coefficients)
            np.testing.assert_array_equal(np.array(saved["center"]), center)

    def test_export_errors_are_the_global_errors(self, ingested, shipped, tmp_path):
        flags, models, runner = shipped
        out = tmp_path / "export.geojson"
        assert main(["export", "--data", str(ingested), "--models", str(models),
                     "--out", str(out)]) == 0
        features = json.loads(out.read_text())["features"]
        errors = np.array([f["properties"]["avg_dist_km"] for f in features[2::3]])
        np.testing.assert_array_equal(errors, runner.global_errors())
        assert main(["grid", "--data", str(ingested), "--out", str(tmp_path / "g"),
                     "--k-lat", "1", "--k-lon", "1", "--reps", "1", *flags]) == 0
        report = json.loads((tmp_path / "g" / "report.json").read_text())
        assert errors.mean() == report["global_mean"]


class TestInputFiles:
    """Missing or mismatched inputs end in a typed error naming the file."""

    @pytest.mark.parametrize("command", ["predict", "export"])
    @pytest.mark.parametrize("damage, message", [
        (lambda model: model.pop("lat"), "'lat'"),
        (lambda model: model["lat"]["coefficients"][2].__setitem__(1, float("nan")),
         "not finite"),
        (lambda model: model["lat"]["center"].__setitem__(0, float("inf")), "not finite"),
        (lambda model: model.__setitem__("K_t", 30), "K_t=30 exceeds the 24 predictor"),
        (lambda model: model.__setitem__("test_ids", "C001"), "test_ids must be a list"),
        (lambda model: model.__setitem__("K_t", 12.9), "K_t must be an integer, got 12.9"),
        (lambda model: model.__setitem__("K_s", "6"), "K_s must be an integer, got '6'"),
        (lambda model: model["lat"]["coefficients"].pop(), "lat coefficients or centre"),
        (lambda model: model["lon"]["center"].pop(), "lon coefficients or centre"),
    ], ids=["no-lat", "nan-coefficient", "inf-center", "k-t-above-p", "test-ids-string",
            "fractional-k-t", "string-k-s", "lat-row-dropped", "lon-center-short"])
    def test_model_without_a_key(self, ingested, fitted, tmp_path, capsys, command,
                                 damage, message):
        models = shutil.copytree(fitted, tmp_path / "models")
        model = json.loads((models / "model.json").read_text())
        damage(model)
        (models / "model.json").write_text(json.dumps(model))
        code = main([command, "--data", str(ingested), "--models", str(models),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.json" in err and message in err
        assert not (tmp_path / "fc.geojson").exists()

    def test_model_directory_of_an_earlier_version(self, ingested, fitted, tmp_path,
                                                   capsys):
        # earlier versions wrote the split and each coordinate's model apart
        models = tmp_path / "models"
        models.mkdir()
        model = json.loads((fitted / "model.json").read_text())
        (models / "split.json").write_text(json.dumps(
            {k: v for k, v in model.items() if k not in ("lat", "lon")}))
        for coord in ("lat", "lon"):
            (models / f"{coord}_model.json").write_text(json.dumps(model[coord]))
        code = main(["export", "--data", str(ingested), "--models", str(models),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        assert str(models / "model.json") in capsys.readouterr().err
        assert not (tmp_path / "fc.geojson").exists()

    @pytest.mark.parametrize("command", ["fit", "predict", "export"])
    @pytest.mark.parametrize("damage", [
        lambda meta: meta.pop("predictor_len"),
        lambda meta: meta.__setitem__("predictor_len", 24.7),
        lambda meta: meta.__setitem__("predictor_len", True),
    ], ids=["missing", "fractional", "boolean"])
    def test_dataset_without_predictor_len(self, ingested, fitted, tmp_path, capsys,
                                           command, damage):
        data = shutil.copytree(ingested, tmp_path / "data")
        meta = json.loads((data / "dataset.json").read_text())
        damage(meta)
        (data / "dataset.json").write_text(json.dumps(meta))
        out = tmp_path / ("m" if command == "fit" else "fc.geojson")
        flags = [] if command == "fit" else ["--models", str(fitted)]
        code = main([command, "--data", str(data), *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.json" in err and "predictor_len" in err
        assert not out.exists()

    def test_export_refuses_repeated_test_ids(self, ingested, fitted, tmp_path, capsys):
        models = shutil.copytree(fitted, tmp_path / "models")
        model = json.loads((models / "model.json").read_text())
        model["test_ids"] = model["test_ids"] + model["test_ids"][:1]
        (models / "model.json").write_text(json.dumps(model))
        out = tmp_path / "x" / "export.geojson"
        code = main(["export", "--data", str(ingested), "--models", str(models),
                     "--out", str(out)])
        assert code == 2
        assert f"storm ids repeated: {model['test_ids'][0]}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_export_on_fewer_storms(self, ingested, fitted, tmp_path, capsys):
        # as if re-ingested with a larger --min-len: the first 10 storms stay
        data = shutil.copytree(ingested, tmp_path / "data")
        for name in ("lat.csv", "lon.csv"):
            rows = (data / name).read_text().splitlines()
            (data / name).write_text(
                "\n".join(",".join(r.split(",")[:10]) for r in rows) + "\n")
        code = main(["export", "--data", str(data), "--models", str(fitted),
                     "--out", str(tmp_path / "x.geojson")])
        assert code == 4
        assert "unknown storm ids" in capsys.readouterr().err

    def test_export_on_another_window(self, csv_input, fitted, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["ingest", "--format", "csv", "--input", str(csv_input),
                     "--total-len", "32", "--predictor-len", "20",
                     "--out", str(data)]) == 0
        code = main(["export", "--data", str(data), "--models", str(fitted),
                     "--out", str(tmp_path / "x.geojson")])
        assert code == 2
        assert "model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda rows: [],                                         # empty file
        lambda rows: rows[:5] + ["x" + rows[5]] + rows[6:],      # non-numeric cell
        lambda rows: rows[:5] + [rows[5] + ",1.0"] + rows[6:],   # ragged row
        lambda rows: rows + [""],                                # trailing blank line
        lambda rows: rows[:-1],                                  # dropped row
        lambda rows: rows[:5] + ["nan," + rows[5].split(",", 1)[1]] + rows[6:],
        lambda rows: rows[:5] + ["inf," + rows[5].split(",", 1)[1]] + rows[6:],
        # a cell past the csv module's field limit
        lambda rows: rows[:5] + ["1" * 140_000 + "," + rows[5].split(",", 1)[1]] + rows[6:],
    ], ids=["empty", "non-numeric", "ragged", "blank-line", "dropped-row", "nan",
            "inf", "overlong-cell"])
    def test_damaged_matrix_file(self, ingested, fitted, tmp_path, capsys, damage):
        data = shutil.copytree(ingested, tmp_path / "data")
        rows = (data / "lat.csv").read_text().splitlines()
        (data / "lat.csv").write_text("".join(r + "\n" for r in damage(rows)))
        code = main(["predict", "--data", str(data), "--models", str(fitted),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        assert "lat.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "grid", "predict", "export"])
    @pytest.mark.parametrize("name, row, message", [
        ("lat.csv", 5, "a latitude is outside [-90, 90]"),
        ("lon.csv", 1, "a longitude column starts outside [0, 360)"),
        ("lon.csv", 5, "or steps by more than 180 degrees"),
    ], ids=["lat", "first-lon", "later-lon"])
    def test_position_ingest_could_not_write(self, ingested, fitted, tmp_path, capsys,
                                             command, name, row, message):
        """A finite value far out of range, in a latitude or in the first or a
        later longitude of a window, is refused before any fit; passed on, it
        makes fit write a non-finite model and predict a position at 1e300."""
        data = shutil.copytree(ingested, tmp_path / "data")
        rows = (data / name).read_text().splitlines()
        rows[row] = "1e300," + rows[row].split(",", 1)[1]
        (data / name).write_text("".join(r + "\n" for r in rows))
        flags = {"fit": [], "grid": ["--k-lat", "2", "--k-lon", "2", "--reps", "1"]}.get(
            command, ["--models", str(fitted)])
        out = tmp_path / "out"
        assert main([command, "--data", str(data), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{data / name}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "export", "grid"])
    def test_repeated_id_in_matrix_header(self, ingested, fitted, tmp_path, capsys,
                                          command):
        data = shutil.copytree(ingested, tmp_path / "data")
        for name in ("lat.csv", "lon.csv"):
            text = (data / name).read_text()
            (data / name).write_text(text.replace("C002", "C001", 1))
        flags = ["--k-lat", "1", "--k-lon", "1", "--reps", "1"] if command == "grid" \
            else ["--models", str(fitted)]
        out = tmp_path / "out"
        assert main([command, "--data", str(data), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lat.csv" in err and "C001" in err and "C002" not in err
        assert not out.exists()

    def test_matrix_csv_round_trip(self, tmp_path):
        """Values come back bit for bit, ids as written, and the file is what
        csv.writer writes for the same rows."""
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                           [0.1 + 0.2, 1e-7, -1.5]])
        ids = ("05,01", '05"02', "05 03")
        path = tmp_path / "m.csv"
        _write_matrix_csv(path, DatasetMatrix(values=values, storm_ids=ids))
        back = _read_matrix_csv(path, 2)
        assert back.storm_ids == ids
        assert back.values.tobytes() == values.tobytes()
        buf = io.StringIO()
        csv.writer(buf).writerows([ids, *([repr(v) for v in row] for row in values.tolist())])
        assert path.read_bytes() == buf.getvalue().encode()
        assert path.read_bytes().startswith(b'"05,01","05""02",05 03\r\n-0.0,5e-324,')

    @pytest.mark.parametrize("damage, message", [
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0]], "row 2 holds 2 values for 3"),
        (lambda rows: rows[:-1] + [rows[-1] + ",1.0"], "row 2 holds 4 values for 3"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",inf"], "not finite"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",nan"], "not finite"),
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",x"], "could not convert"),
        (lambda rows: rows[:-1], "1 rows of values for a window of 2"),
        (lambda rows: rows + [rows[-1]], "3 rows of values for a window of 2"),
        (lambda rows: rows[:-1] + [rows[-1].replace(",", "\x0b,", 1)], "row 2 holds 1 values"),
        (lambda rows: [], "0 rows of values"),
    ], ids=["ragged-last-row", "long-last-row", "inf-last-value", "nan-last-value",
            "text-last-value", "row-missing", "row-added", "vertical-tab", "no-rows"])
    def test_damaged_matrix_csv_names_the_file(self, tmp_path, damage, message):
        path = tmp_path / "m.csv"
        _write_matrix_csv(path, DatasetMatrix(values=np.arange(6.0).reshape(2, 3) + 0.5,
                                              storm_ids=("A", "B", "C")))
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *damage(rows)]) + "\n")
        with pytest.raises(SchemaError, match=message) as info:
            _read_matrix_csv(path, 2)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("command", ["predict", "export"])
    @pytest.mark.parametrize("change", ["one-column-fewer", "reordered-ids"])
    def test_lon_ids_differ_from_lat(self, ingested, fitted, tmp_path, capsys,
                                     command, change):
        data = shutil.copytree(ingested, tmp_path / "data")
        rows = [r.split(",") for r in (data / "lon.csv").read_text().splitlines()]
        if change == "one-column-fewer":
            rows = [r[:-1] for r in rows]
        else:
            rows[0][:2] = rows[0][1::-1]
        (data / "lon.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        code = main([command, "--data", str(data), "--models", str(fitted),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        assert "lon.csv" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 1, 2, 256, 257, 513])
@pytest.mark.parametrize("include_truth", [True, False])
def test_geojson_written_in_chunks_is_the_whole_document(tmp_path, monkeypatch, n,
                                                         include_truth):
    """The chunks, near-equal and at most GEOJSON_CHUNK storms each, write the
    bytes of json.dumps of the whole batch's document."""
    rng = np.random.default_rng(n)
    lat, lon = rng.uniform(-60, 60, (32, n)), rng.uniform(-20, 380, (32, n))
    lat_hat, lon_hat = lat[24:] + rng.normal(0, 1, (8, n)), lon[24:] + rng.normal(0, 1, (8, n))
    ids = [f"S{j:04d}" for j in range(n)]
    sizes = []
    monkeypatch.setattr(cli, "forecasts_to_geojson",
                        lambda storm_ids, *a, **kw: sizes.append(len(storm_ids))
                        or forecasts_to_geojson(storm_ids, *a, **kw))
    path = tmp_path / "fc.geojson"
    _write_geojson(path, ids, lat, lon, lat_hat, lon_hat, include_truth=include_truth)
    whole = forecasts_to_geojson(ids, lat, lon, lat_hat, lon_hat, include_truth=include_truth)
    assert path.read_text() == json.dumps(whole)
    assert sizes == {0: [0], 1: [1], 2: [2], 256: [256], 257: [129, 128],
                     513: [171, 171, 171]}[n]


# byte strings that JSON, CSV and RSMC readers each treat specially
TOKENS = [b"[]", b"{}", b"null", b'"x"', b"0", b"-", b"1e999", b",", b"\n", b"\x00", b"\xff"]
EDITS = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 4) | st.just(1 << 30),
                           st.binary(max_size=4) | st.sampled_from(TOKENS)),
                 min_size=1, max_size=3)


def _damaged(data: bytes, edits) -> bytes:
    """``data`` with each (position, span, bytes) edit applied in turn: the span
    of bytes at the position, a fraction of the length, replaced by the bytes."""
    for where, span, insert in edits:
        i = int(where * len(data))
        data = data[:i] + insert + data[i + span:]
    return data


@pytest.fixture(scope="module")
def damage_inputs(csv_input, ingested, fitted, tmp_path_factory):
    """A directory of every file the commands read: the source texts, a
    dataset in data/ and its model in models/."""
    root = tmp_path_factory.mktemp("inputs")
    lat, lon = synthetic_tracks(n=30, L=32, seed=22, noise=0.1)
    (root / "archive.txt").write_text("".join(make_rsmc_storm(f"{i:04d}", lat[:, i], lon[:, i])
                                              for i in range(30)))
    shutil.copy(csv_input, root / "storms.csv")
    shutil.copytree(ingested, root / "data")
    shutil.copytree(fitted, root / "models")
    return root


# the commands that read each file, with their arguments but --out; {} is the
# directory of the inputs
DATASET_READERS = [["fit", "--data", "{}/data"],
                   ["predict", "--data", "{}/data", "--models", "{}/models"],
                   ["export", "--data", "{}/data", "--models", "{}/models"],
                   ["grid", "--data", "{}/data", "--k-lat", "2", "--k-lon", "2", "--reps", "1"]]
READERS = {
    "archive.txt": [["ingest", "--input", "{}/archive.txt"]],
    "storms.csv": [["ingest", "--format", "csv", "--input", "{}/storms.csv"]],
    "data/lat.csv": DATASET_READERS,
    "data/dataset.json": DATASET_READERS,
    "models/model.json": DATASET_READERS[1:3],
}


@settings(max_examples=50, deadline=3000)
@given(name=st.sampled_from(sorted(READERS)), edits=EDITS)
# a model.json that is no JSON object fails on its first lookup
@example(name="models/model.json", edits=[(0.0, 1 << 30, b"[]")])
def test_damaged_inputs_fail_cleanly(damage_inputs, name, edits):
    """Every command on a damaged input exits 0 with its output, or 2, 3 or 4
    with one error line and no output."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        shutil.copytree(damage_inputs, inputs)
        (inputs / name).write_bytes(_damaged((inputs / name).read_bytes(), edits))
        for command, *args in READERS[name]:
            out = Path(tmp) / f"out_{command}"
            target = out / "forecasts.geojson" if command in ("predict", "export") else out
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, *(a.format(inputs) for a in args), "--out", str(target)])
            assert code in (0, 2, 3, 4), (command, code)
            lines = err.getvalue().splitlines()
            if code:
                assert lines[0].startswith("error: ") and not any(
                    line.startswith("error:") for line in lines[1:]), (command, lines)
            assert out.exists() == (code == 0), (command, code)


def test_synthetic_demo_runs_and_repeats(tmp_path):
    """README's entry point runs end to end, writes the known dataset, grid
    table and forecasts, and a second run writes the same grid table, report
    and forecasts byte for byte."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    outputs = ("grid/grid.csv", "grid/report.json", "forecasts.geojson",
               "dataset/lat.csv", "dataset/lon.csv")
    runs = []
    for name in ("a", "b"):
        done = subprocess.run([sys.executable, str(root / "scripts/run_synthetic_demo.py"),
                               "--out", str(tmp_path / name)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        runs.append([(tmp_path / name / f).read_bytes() for f in outputs])
    assert runs[0] == runs[1]
    # pinned, so that a change that moves a cell by 0.005 km fails here
    assert runs[0][0].decode() == ("k_lon\\k_lat,1,2,3\n"
                                   "1,29.78,32.31,50.15\n"
                                   "2,32.10,58.80,58.55\n"
                                   "3,34.16,68.32,110.39\n")
    assert [hashlib.sha256(data).hexdigest() for data in runs[0][2:]] == [
        "f2615360cc3e06f37c9ffc80355a60c1e812ff2564767a04f18fd17639cd4b9f",
        "e3cf935ac68b461c14b7edd8cc588d3929314decdde443658f023592c474f7f1",
        "fcbb98679c87af1e341e19c125c75ab2f2875878f5ffc56e6da4345a8c01a62c"]


def test_reproduce_tables_runs(tmp_path):
    """The reproduction script drives ingest, grid and length-study."""
    root = Path(__file__).resolve().parents[1]
    lat, lon = synthetic_tracks(n=40, L=48, seed=21, noise=0.1)
    archive = tmp_path / "bst.txt"
    archive.write_text("".join(make_rsmc_storm(f"{i:04d}", lat[:, i], lon[:, i])
                               for i in range(40)))
    done = subprocess.run([sys.executable, str(root / "scripts/reproduce_tables.py"),
                           str(archive), "--out", str(tmp_path / "r"), "--reps", "1",
                           "--with-length-study"],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "r" / "grid" / "report.json").read_text())
    assert report["n_storms"] == 40 and np.shape(report["cell_means"]) == (10, 10)
    summary = json.loads((tmp_path / "r" / "length_study" / "length_study.json").read_text())
    assert [(e["min_records"], e["total_len"]) for e in summary] == [
        (32, 32), (40, 32), (40, 40), (48, 32), (48, 40), (48, 48)]
