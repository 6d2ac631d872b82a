import io
import json
import shutil

import numpy as np
import pytest

from fofcast import ExperimentConfig, StormRecordSet, train_test_split, write_csv
from fofcast.cli import _load_dataset, main
from fofcast.experiment import SplitRunner
from fofcast.ingest import StormRecord

from conftest import rsmc_data_line, rsmc_header, synthetic_tracks

from datetime import datetime, timedelta


@pytest.fixture(scope="module")
def csv_input(tmp_path_factory):
    """A CSV best-track file with 40 synthetic storms of 40 records each."""
    lat_v, lon_v = synthetic_tracks(n=40, L=40, seed=20, noise=0.1)
    storms = []
    for i in range(40):
        start = datetime(2012, 8, 1)
        records = tuple(
            StormRecord(time=start + timedelta(hours=6 * j), grade=4,
                        lat=float(lat_v[j, i]), lon=float(lon_v[j, i]))
            for j in range(40))
        storms.append(StormRecordSet.from_records(storm_id=f"C{i:03d}", name="CLI",
                                                  records=records))
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

    def test_missing_input(self, tmp_path, capsys):
        code = main(["ingest", "--format", "csv", "--input",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_pressure_field(self, tmp_path, capsys):
        line = rsmc_data_line(datetime(2005, 7, 1, 6), 15.5, 139.5)
        path = tmp_path / "bad.txt"
        path.write_text(rsmc_header("0501", 2) + "\n"
                        + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n"
                        + line[:24] + "ab12" + line[28:] + "\n")
        code = main(["ingest", "--input", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_window_config(self, csv_input, tmp_path, capsys):
        code = main(["ingest", "--format", "csv", "--input", str(csv_input),
                     "--total-len", "32", "--predictor-len", "32",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "predictor-len" in capsys.readouterr().err

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
    ])
    def test_typed_input_errors_exit_2(self, tmp_path, capsys, fmt, text, line_no):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["ingest", "--format", fmt, "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: line {line_no}: " in capsys.readouterr().err

    def test_irregular_cadence_is_counted(self, tmp_path, capsys):
        start = datetime(2012, 8, 1)
        storms = []
        for i, gap in enumerate((0, 7, 0)):   # storm C001 pauses a week mid-window
            hours = [6 * j + 24 * gap * (j >= 20) for j in range(40)]
            storms.append(StormRecordSet.from_records(f"C{i:03d}", "CLI", [
                StormRecord(time=start + timedelta(hours=h), grade=4, lat=15.0 + 0.2 * j,
                            lon=140.0 - 0.3 * j) for j, h in enumerate(hours)]))
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
        split = json.loads((fitted / "split.json").read_text())
        assert len(doc["features"]) == 3 * len(split["test_ids"])
        assert [f["properties"]["storm_id"] for f in doc["features"][::3]] == \
            split["test_ids"]

    def test_length_study(self, csv_input, tmp_path):
        out = tmp_path / "study"
        code = main(["length-study", "--format", "csv", "--input",
                     str(csv_input), "--out", str(out), "--lengths", "32",
                     "40", "--k-lat", "1", "--k-lon", "1", "--reps", "1"])
        assert code == 0
        summary = json.loads((out / "length_study.json").read_text())
        assert len(summary) == 3  # 32 on both subsets, 40 on the >=40 subset
        assert {e["total_len"] for e in summary} == {32, 40}


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--ratio", "--seed", "--k-t", "--k-s", "--ridge", "--k-lat",
                 "--k-lon", "--reps", "--min-cluster-size"):
        assert flag in out


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
    assert calls == [1, 1]


class TestShippedModelIsScored:
    """``fit`` saves the grid engine's global models, and ``export`` scores
    them as ``grid`` does."""

    @pytest.fixture(scope="class")
    def runner(self, ingested):
        lat, lon, _ = _load_dataset(ingested)
        config = ExperimentConfig(total_len=32, predictor_len=24)
        train, test = train_test_split(lat.n_storms, config.ratio, config.seed)
        return SplitRunner(lat, lon, train, test, config)

    def test_saved_model_is_the_global_model(self, fitted, runner):
        for coord in ("lat", "lon"):
            saved = json.loads((fitted / f"{coord}_model.json").read_text())
            np.testing.assert_array_equal(np.array(saved["coefficients"]),
                                          runner.global_coeffs[coord][0])
            np.testing.assert_array_equal(np.array(saved["center"]), runner.center[coord])

    def test_export_errors_are_the_global_errors(self, ingested, fitted, runner,
                                                 tmp_path):
        out = tmp_path / "export.geojson"
        assert main(["export", "--data", str(ingested), "--models", str(fitted),
                     "--out", str(out)]) == 0
        features = json.loads(out.read_text())["features"]
        errors = np.array([f["properties"]["avg_dist_km"] for f in features[2::3]])
        np.testing.assert_allclose(errors, runner.global_errors(), rtol=0, atol=1e-9)
        assert main(["grid", "--data", str(ingested), "--out", str(tmp_path / "g"),
                     "--k-lat", "1", "--k-lon", "1", "--reps", "1"]) == 0
        report = json.loads((tmp_path / "g" / "report.json").read_text())
        assert abs(errors.mean() - report["global_mean"]) <= 1e-9


class TestInputFiles:
    """Missing or mismatched inputs end in a typed error naming the file."""

    def test_model_without_a_key(self, ingested, fitted, tmp_path, capsys):
        models = shutil.copytree(fitted, tmp_path / "models")
        model = json.loads((models / "lat_model.json").read_text())
        del model["coefficients"]
        (models / "lat_model.json").write_text(json.dumps(model))
        code = main(["predict", "--data", str(ingested), "--models", str(models),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        err = capsys.readouterr().err
        assert "lat_model.json" in err and "coefficients" in err

    def test_dataset_without_predictor_len(self, ingested, tmp_path, capsys):
        data = shutil.copytree(ingested, tmp_path / "data")
        meta = json.loads((data / "dataset.json").read_text())
        del meta["predictor_len"]
        (data / "dataset.json").write_text(json.dumps(meta))
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.json" in err and "predictor_len" in err

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
        assert "split.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda rows: [],                                         # empty file
        lambda rows: rows[:5] + ["x" + rows[5]] + rows[6:],      # non-numeric cell
        lambda rows: rows[:5] + [rows[5] + ",1.0"] + rows[6:],   # ragged row
        lambda rows: rows + [""],                                # trailing blank line
        lambda rows: rows[:-1],                                  # dropped row
    ], ids=["empty", "non-numeric", "ragged", "blank-line", "dropped-row"])
    def test_damaged_matrix_file(self, ingested, fitted, tmp_path, capsys, damage):
        data = shutil.copytree(ingested, tmp_path / "data")
        rows = (data / "lat.csv").read_text().splitlines()
        (data / "lat.csv").write_text("".join(r + "\n" for r in damage(rows)))
        code = main(["predict", "--data", str(data), "--models", str(fitted),
                     "--out", str(tmp_path / "fc.geojson")])
        assert code == 2
        assert "lat.csv" in capsys.readouterr().err

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
