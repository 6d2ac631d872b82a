import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofcast import (ExperimentConfig, GeoPoint, forecasts_to_geojson,
                     haversine, length_study, repeated_simulation, time_grid,
                     train_test_split)
from fofcast.errors import SingularityError
from fofcast.experiment import (EARTH_RADIUS_KM, SplitRunner, _best_cell,
                                grid_search, ladder, track_errors)
from fofcast.ingest import StormRecord, StormRecordSet
from fofcast.regression import fof_forecast

from conftest import synthetic_matrices, two_regime_matrices

from datetime import datetime, timedelta


def law_of_cosines_km(p1: GeoPoint, p2: GeoPoint) -> float:
    """Independent great-circle oracle (spherical law of cosines)."""
    phi1, phi2 = np.radians(p1.lat), np.radians(p2.lat)
    dlam = np.radians(p2.lon - p1.lon)
    cos_d = (np.sin(phi1) * np.sin(phi2)
             + np.cos(phi1) * np.cos(phi2) * np.cos(dlam))
    return EARTH_RADIUS_KM * float(np.arccos(np.clip(cos_d, -1.0, 1.0)))


class TestHaversine:
    def test_identical_points(self):
        p = GeoPoint(37.0, 127.3)
        assert haversine(p, p) == 0.0

    def test_half_great_circle(self):
        d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert abs(d - np.pi * EARTH_RADIUS_KM) < 1e-9

    def test_seoul_tokyo_vs_law_of_cosines(self):
        p1, p2 = GeoPoint(37.5665, 126.9780), GeoPoint(35.6762, 139.6503)
        d = haversine(p1, p2)
        assert abs(d - law_of_cosines_km(p1, p2)) < 1e-6 * d

    @given(st.floats(-90, 90), st.floats(0, 360 - 1e-9),
           st.floats(-90, 90), st.floats(0, 360 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        d_ab, d_ba = haversine(a, b), haversine(b, a)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= np.pi * EARTH_RADIUS_KM + 1e-9


class TestTrajectoryError:
    @staticmethod
    def _error(points, truth):
        """track_errors of one storm from its q (lat, lon) forecast and truth points."""
        pred, true = np.array(points), np.array(truth)
        return float(track_errors(pred[:, :1], pred[:, 1:], true[:, :1], true[:, 1:])[0])

    def test_exact_forecast(self):
        pts = [(20.0 + i, 140.0 + i) for i in range(8)]
        assert self._error(pts, pts) == 0.0

    def test_one_point_off(self):
        pts = [(20.0, 140.0 + i) for i in range(8)]
        shifted = list(pts)
        shifted[3] = (21.0, 143.0)
        d = haversine(GeoPoint(*pts[3]), GeoPoint(*shifted[3]))
        err = self._error(shifted, pts)
        assert abs(err - d / 8.0) < 1e-12

    def test_constant_offset(self):
        pts = [(10.0 + i, 130.0 + 2 * i) for i in range(8)]
        offset = [(lat + 0.5, lon + 0.8) for lat, lon in pts]
        oracle = np.mean([
            law_of_cosines_km(GeoPoint(*a), GeoPoint(*b))
            for a, b in zip(offset, pts)])
        err = self._error(offset, pts)
        assert abs(err - oracle) < 1e-6 * oracle


class TestBestCell:
    def test_min_and_lexicographic_ties(self):
        cells = np.array([[2.0, 1.0], [1.0, 3.0]])
        pair, err = _best_cell(cells)
        assert err == 1.0
        assert pair == (1, 2)  # (k_lat=1, k_lon=2) beats (2, 1) lexicographically


@pytest.mark.parametrize("field, value", [("min_cluster_size", 0),
                                          ("kmeans_restarts", 0), ("ridge", -1e-8)])
def test_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


@pytest.fixture(scope="module")
def small_dataset():
    return synthetic_matrices(n=80, seed=3, noise=0.15)


class TestEvaluation:
    def test_cluster_one_equals_global_bitwise(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=2, k_lon_max=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=5)
        runner = SplitRunner(lat, lon, train, test, config)
        np.testing.assert_array_equal(runner.global_errors(),
                                      runner.clustered_errors(1, 1))

    def test_grid_shape_and_consistency(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=3, k_lon_max=2,
                                  seed=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=2)
        report = grid_search(lat, lon, train, test, config)
        assert report.cell_means.shape == (3, 2)
        assert np.all(report.cell_means >= 0)
        assert report.cell_means[0, 0] == report.global_mean
        assert report.best_error == report.cell_means.min()
        i, j = report.best_pair
        assert report.cell_means[i - 1, j - 1] == report.best_error

    def test_repeated_simulation_single_rep_equals_grid(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=2, k_lon_max=2,
                                  seed=4)
        rep = repeated_simulation(lat, lon, config)
        train, test = train_test_split(lat.n_storms, 0.8, seed=4)
        single = grid_search(lat, lon, train, test, config, kmeans_seed=4)
        np.testing.assert_array_equal(rep.cell_means, single.cell_means)
        assert rep.global_mean == single.global_mean
        np.testing.assert_array_equal(rep.cell_stds, 0.0)

    def test_global_mean_averaged_like_the_cells(self):
        # from 8 repetitions on, a pairwise 1-D sum and the sequential
        # stack sum differ in the last bit on this input
        lat, lon = synthetic_matrices(n=60, seed=1, noise=0.2)
        config = ExperimentConfig(n_repetitions=10, k_lat_max=1, k_lon_max=2,
                                  seed=1)
        report = repeated_simulation(lat, lon, config)
        for trace in report.repetition_traces:
            assert trace["cells"][0][0] == trace["global_error"]
        assert report.cell_means[0, 0] == report.global_mean
        assert report.cell_stds[0, 0] == report.global_std

    def test_identical_seeds_give_identical_results(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=2, k_lat_max=2, k_lon_max=1,
                                  seed=11)
        a = repeated_simulation(lat, lon, config)
        b = repeated_simulation(lat, lon, config)
        np.testing.assert_array_equal(a.cell_means, b.cell_means)
        assert a.to_json() == b.to_json()

    def test_two_regime_clustering_beats_global(self):
        lat, lon = two_regime_matrices(n=100)
        config = ExperimentConfig(n_repetitions=1, k_lat_max=2, k_lon_max=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=0)
        runner = SplitRunner(lat, lon, train, test, config)
        global_err = runner.global_errors().mean()
        clustered_err = runner.clustered_errors(2, 2).mean()
        assert clustered_err < 0.5 * global_err

    def test_error_shrinks_with_sample_size(self):
        # noisy synthetic data: more training storms, lower test error
        def run(n):
            lat, lon = synthetic_matrices(n=n, seed=6, noise=0.5)
            config = ExperimentConfig(n_repetitions=1, k_lat_max=1, k_lon_max=1)
            train, test = train_test_split(n, 0.8, seed=1)
            return SplitRunner(lat, lon, train, test, config).global_errors().mean()

        assert run(400) < run(50)


class TestEngine:
    def test_grouped_models_equal_fit_fof(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1)
        train, test = train_test_split(lat.n_storms, 0.8, seed=5)
        runner = SplitRunner(lat, lon, train, test, config)
        k_lat, k_lon = 2, 3
        c = {coord: runner.kmeans_for(coord, k)
             for coord, k in (("lat", k_lat), ("lon", k_lon))}
        n_pairs = k_lat * k_lon
        pair_tr = c["lat"][0] * k_lon + c["lon"][0]
        for coord, k in (("lat", k_lat), ("lon", k_lon)):
            train, _, unions = c[coord]
            member, rungs = ladder(pair_tr, train, pair_tr, train, n_pairs, k,
                                   config.min_cluster_size)
            # every group large enough to fit: pairs, unions and the global one
            codes = np.flatnonzero(np.bincount(member.ravel()) >= config.min_cluster_size)
            assert codes.min() < n_pairs and codes.max() == n_pairs + k
            assert np.any((codes >= n_pairs) & (codes < n_pairs + k))
            # the training storms, scored as test storms, reach every such pair
            pairs = codes[codes < n_pairs]
            np.testing.assert_array_equal(np.unique(rungs[rungs < n_pairs]), pairs)
            # pairs are solved per cell; unions and the global model are the
            # cached rows, and a union too small to fit holds the global model
            coeffs = np.concatenate([
                runner.group_models(coord, member[0] == pairs[:, None]),
                unions[codes[codes >= n_pairs] - n_pairs]])
            np.testing.assert_array_equal(unions[k], runner.global_coeffs[coord][0])
            small = np.setdiff1d(np.arange(k + 1), codes - n_pairs)
            np.testing.assert_array_equal(
                unions[small],
                np.repeat(runner.global_coeffs[coord], len(small), axis=0))
            np.testing.assert_array_equal(
                runner.kmeans_for(coord, 1)[2],
                np.repeat(runner.global_coeffs[coord], 2, axis=0))
            # the engine's regressors are centred on the training mean, and
            # a model is compared by its forecasts: its coefficients are only
            # as well determined as the design is conditioned
            z_mean = (runner.gram @ runner.x_train[coord]).mean(axis=1)
            W = runner.w_test[coord]
            for g, C in zip(codes, coeffs):
                model = runner.fit_coordinate(
                    coord, np.flatnonzero((member == g).any(axis=0)))
                # W moved from the engine's centre to the model's own
                expected = fof_forecast(model.coefficients, runner.theta,
                                        W + np.r_[0.0, z_mean - model.center][:, None])
                np.testing.assert_allclose(fof_forecast(C, runner.theta, W), expected,
                                           rtol=1e-9)

    def test_rank_deficient_group_raises(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, ridge=0.0, min_cluster_size=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=5)
        runner = SplitRunner(lat, lon, train, test, config)
        with pytest.raises(SingularityError, match="ridge"):
            runner.clustered_errors(3, 3)

    def test_ladder_follows_the_rule(self):
        rng = np.random.default_rng(21)
        k_lat, k_lon, min_size = 3, 4, 10
        n_pairs = k_lat * k_lon

        def draw(n):
            return (rng.choice(k_lat, size=n, p=[0.7, 0.25, 0.05]),
                    rng.choice(k_lon, size=n, p=[0.6, 0.3, 0.05, 0.05]))

        (lat_tr, lon_tr), (lat_te, lon_te) = draw(120), draw(60)
        pair_tr, pair_te = lat_tr * k_lon + lon_tr, lat_te * k_lon + lon_te
        for own_tr, own_te, k in ((lat_tr, lat_te, k_lat), (lon_tr, lon_te, k_lon)):
            member, rungs = ladder(pair_tr, own_tr, pair_te, own_te, n_pairs, k,
                                   min_size)
            expected = self._rule(pair_tr, own_tr, pair_te, own_te, n_pairs, k,
                                  min_size)
            assert rungs.tolist() == expected
            kinds = {0 if r < n_pairs else 1 if r < n_pairs + k else 2 for r in expected}
            assert kinds == {0, 1, 2}
            np.testing.assert_array_equal(
                member, np.stack([pair_tr, n_pairs + own_tr,
                                  np.full_like(pair_tr, n_pairs + k)]))
        # with one cluster per coordinate, the pair and the union hold every
        # training storm: they are the global group
        ones_tr, ones_te = np.zeros(120, int), np.zeros(60, int)
        _, rungs = ladder(ones_tr, ones_tr, ones_te, ones_te, 1, 1, min_size)
        assert rungs.tolist() == self._rule(ones_tr, ones_tr, ones_te, ones_te, 1, 1,
                                            min_size) == [2] * 60

    @staticmethod
    def _rule(pair_tr, own_tr, pair_te, own_te, n_pairs, k, min_size):
        expected = []
        for p, a in zip(pair_te, own_te):
            if min_size <= np.sum(pair_tr == p) < len(pair_tr):
                expected.append(p)
            elif min_size <= np.sum(own_tr == a) < len(own_tr):
                expected.append(n_pairs + a)
            else:
                expected.append(n_pairs + k)
        return expected


class TestGeoJSON:
    def test_longitudes_east_of_180(self):
        grid = np.linspace(0.0, 1.0, 32)[:, None]
        lat = np.tile(15.0 + 15.0 * grid, (1, 2))
        lon = np.array([170.0, 120.0]) + 30.0 * grid     # storms "E" and "W"
        lat_hat, lon_hat = lat[24:] + 0.3, lon[24:] + 0.5
        doc = forecasts_to_geojson(["E", "W"], lat, lon, lat_hat, lon_hat)
        features = doc["features"]
        assert len(features) == 6
        for f in features:
            lons = np.array(f["geometry"]["coordinates"])[:, 0]
            assert np.all((-180.0 <= lons) & (lons <= 180.0))
        # positions up to 180 are written unchanged, the others one turn west
        east = lon[:, 0]
        np.testing.assert_array_equal(
            np.array(features[0]["geometry"]["coordinates"])[:, 0],
            np.where(east[:24] > 180.0, east[:24] - 360.0, east[:24]))
        assert features[0]["geometry"]["coordinates"][0][0] == 170.0
        assert features[0]["geometry"]["coordinates"][-1][0] < 0
        # the error is the one of the track as forecast, before wrapping
        for j, f in enumerate(features[2::3]):
            expected = np.mean([haversine(GeoPoint(*hat), GeoPoint(*true)) for hat, true
                                in zip(zip(lat_hat[:, j], lon_hat[:, j]),
                                       zip(lat[24:, j], lon[24:, j]))])
            assert f["properties"]["avg_dist_km"] == pytest.approx(expected, rel=1e-12)


class TestLengthStudy:
    def _storms(self, n=40, max_len=48):
        rng = np.random.default_rng(12)
        storms = []
        for i in range(n):
            length = int(rng.integers(32, max_len + 1))
            start = datetime(2010, 6, 1)
            records = tuple(
                StormRecord(time=start + timedelta(hours=6 * j), grade=5,
                            lat=10 + 0.3 * j + rng.normal(0, 0.1),
                            lon=150 - 0.2 * j + rng.normal(0, 0.1))
                for j in range(length))
            storms.append(StormRecordSet(storm_id=f"L{i}", name="",
                                         records=records))
        return storms

    def test_lower_triangular_layout(self):
        storms = self._storms()
        config = ExperimentConfig(n_repetitions=1, k_lat_max=1, k_lon_max=1)
        entries = length_study(storms, config, lengths=(32, 40, 48))
        layout = {(e.min_records, e.total_len) for e in entries}
        assert layout == {(32, 32), (40, 32), (40, 40),
                          (48, 32), (48, 40), (48, 48)}
        sizes = {e.min_records: e.data_size for e in entries}
        assert sizes[32] >= sizes[40] >= sizes[48]
        for e in entries:
            assert e.report.config.predictor_len == e.total_len - 8


def test_report_csv_format(small_dataset):
    lat, lon = small_dataset
    config = ExperimentConfig(n_repetitions=1, k_lat_max=2, k_lon_max=2)
    report = repeated_simulation(lat, lon, config)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "k_lon\\k_lat,1,2"
    assert len(lines) == 3
    first_cell = lines[1].split(",")[1]
    assert first_cell == f"{report.cell_means[0, 0]:.2f}"
