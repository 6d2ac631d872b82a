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
        storms.append(StormRecordSet(storm_id=f"C{i:03d}", name="CLI",
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
            z_mean = (runner.gram @ runner.x_train[coord]).mean(axis=1)
            np.testing.assert_array_equal(np.array(saved["coefficients"]),
                                          runner.global_coeffs[coord][0])
            np.testing.assert_array_equal(np.array(saved["center"]), z_mean)

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
