import concurrent.futures
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofcast import (ExperimentConfig, fit_coefficients, fit_fof,
                     forecasts_to_geojson, haversine, length_study, predict_trajectory,
                     repeated_simulation, time_grid, train_test_split)
from fofcast import experiment
from fofcast.errors import SingularityError
from fofcast.clustering import assign_batch, kmeans_fit
from fofcast.experiment import (EARTH_RADIUS_KM, SplitRunner, _best_cell, fittable,
                                track_errors)
from fofcast.regression import fof_forecast, fof_statistics, regressors, solve_fof

from conftest import make_storm, synthetic_matrices, two_regime_matrices

from datetime import datetime


def law_of_cosines_km(p1, p2) -> float:
    """Independent great-circle oracle (spherical law of cosines) between
    two (lat, lon) points."""
    (lat1, lon1), (lat2, lon2) = p1, p2
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dlam = np.radians(lon2 - lon1)
    cos_d = (np.sin(phi1) * np.sin(phi2)
             + np.cos(phi1) * np.cos(phi2) * np.cos(dlam))
    return EARTH_RADIUS_KM * float(np.arccos(np.clip(cos_d, -1.0, 1.0)))


class TestHaversine:
    def test_identical_points(self):
        assert haversine(37.0, 127.3, 37.0, 127.3) == 0.0

    def test_half_great_circle(self):
        d = haversine(0.0, 0.0, 0.0, 180.0)
        assert abs(d - np.pi * EARTH_RADIUS_KM) < 1e-9

    def test_seoul_tokyo_vs_law_of_cosines(self):
        p1, p2 = (37.5665, 126.9780), (35.6762, 139.6503)
        d = haversine(*p1, *p2)
        assert abs(d - law_of_cosines_km(p1, p2)) < 1e-6 * d

    @given(st.floats(-90, 90), st.floats(0, 360 - 1e-9),
           st.floats(-90, 90), st.floats(0, 360 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, lat1, lon1, lat2, lon2):
        d_ab, d_ba = haversine(lat1, lon1, lat2, lon2), haversine(lat2, lon2, lat1, lon1)
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
        d = haversine(*pts[3], *shifted[3])
        err = self._error(shifted, pts)
        assert abs(err - d / 8.0) < 1e-12

    def test_constant_offset(self):
        pts = [(10.0 + i, 130.0 + 2 * i) for i in range(8)]
        offset = [(lat + 0.5, lon + 0.8) for lat, lon in pts]
        oracle = np.mean([
            law_of_cosines_km(a, b)
            for a, b in zip(offset, pts)])
        err = self._error(offset, pts)
        assert abs(err - oracle) < 1e-6 * oracle


class TestBestCell:
    def test_min_and_lexicographic_ties(self):
        cells = np.array([[2.0, 1.0], [1.0, 3.0]])
        pair, err = _best_cell(cells)
        assert err == 1.0
        assert pair == (1, 2)  # (k_lat=1, k_lon=2) beats (2, 1) lexicographically


@pytest.mark.parametrize("field, value", [("min_cluster_size", 0), ("ridge", -1e-8),
                                          ("ridge", float("nan")), ("ridge", float("inf")),
                                          ("K_t", 25), ("K_s", 9)])
def test_config_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_bases_fit_their_points():
    ExperimentConfig(K_t=24, K_s=8)
    # the bound is the window's own predictor length
    ExperimentConfig(total_len=40, predictor_len=30, K_t=30)


def runner_cells(runner, config):
    """The k_lat_max x k_lon_max mean errors of one split, cell by cell."""
    return np.array([[runner.clustered_errors(i, j).mean()
                      for j in range(1, config.k_lon_max + 1)]
                     for i in range(1, config.k_lat_max + 1)])


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
        report = repeated_simulation(lat, lon, config)
        train, test = train_test_split(lat.n_storms, 0.8, seed=2)
        runner = SplitRunner(lat, lon, train, test, config)
        np.testing.assert_array_equal(report.cell_means, runner_cells(runner, config))
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
        runner = SplitRunner(lat, lon, train, test, replace(config, seed=4))
        np.testing.assert_array_equal(rep.cell_means, runner_cells(runner, config))
        assert rep.global_mean == runner.global_errors().mean()
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
        train_idx, test_idx = train_test_split(lat.n_storms, 0.8, seed=5)
        runner = SplitRunner(lat, lon, train_idx, test_idx, config)
        P, n_train = config.predictor_len, len(train_idx)
        k_lat, k_lon = 2, 3
        c = {coord: runner.kmeans_for(coord, k)
             for coord, k in (("lat", k_lat), ("lon", k_lon))}
        pair_tr = c["lat"][0] * k_lon + c["lon"][0]
        pairs = np.flatnonzero(fittable(np.bincount(pair_tr, minlength=k_lat * k_lon),
                                        config.min_cluster_size))
        assert len(pairs) > 0
        pair_models = solve_fof(runner.group_stats(pair_tr, pairs), runner.eig, config.ridge)
        for i, (coord, k) in enumerate((("lat", k_lat), ("lon", k_lon))):
            train, test = c[coord]
            glob = runner.fit_coordinate(coord)[0][None]
            # the unions are the pairs of the edge cell, one row per cluster;
            # a union too small to fit, or serving no test storm, holds the
            # global model, and k = 1 is the global model alone
            unions = runner.cell_models(*{"lat": (k, 1), "lon": (1, k)}[coord])[1][i]
            assert unions.shape[0] == k
            own = np.intersect1d(np.flatnonzero(fittable(
                np.bincount(train, minlength=k), config.min_cluster_size)), test)
            assert 0 < len(own)
            small = np.setdiff1d(np.arange(k), own)
            np.testing.assert_array_equal(unions[small],
                                          np.repeat(glob, len(small), axis=0))
            np.testing.assert_array_equal(runner.cell_models(1, 1)[1][i], glob)
            # every group large enough to fit: the pairs, solved per cell, and
            # the cached unions and global model
            groups = np.concatenate([pair_tr == pairs[:, None], train == own[:, None],
                                     np.ones((1, n_train), bool)])
            coeffs = np.concatenate([pair_models[:, i], unions[own], glob])
            # the engine's regressors are centred on the training mean, and
            # a model is compared by its forecasts: its coefficients are only
            # as well determined as the design is conditioned
            values = {"lat": lat, "lon": lon}[coord].values
            X = fit_coefficients(runner.predictor_basis, runner.predictor_grid,
                                 values[:P])[:, train_idx]
            Y = values[P:, train_idx]
            z_mean = runner.center[i]
            W = runner.w_test[i]
            for members, C in zip(groups, coeffs):
                own_C, own_center = fit_fof(runner.predictor_basis, X[:, members],
                                            runner.response_basis, runner.response_grid,
                                            Y[:, members], ridge=config.ridge)
                # W moved from the engine's centre to the model's own
                expected = fof_forecast(own_C, runner.theta,
                                        W + np.r_[0.0, z_mean - own_center][:, None])
                np.testing.assert_allclose(fof_forecast(C, runner.theta, W), expected,
                                           rtol=1e-9)

    @classmethod
    def _reference_errors(cls, runner, k_lat, k_lon):
        """``clustered_errors`` from an own k-means fit per coordinate and k,
        each test storm's model picked by ``_rule``, and one ``group_stats``
        and ``solve_fof`` call per coordinate for its global group, one for
        its unions and one for its pairs; and the kinds of model that serve
        some test storm."""
        config = runner.config
        clusters = {}
        for i, (coord, k) in enumerate((("lat", k_lat), ("lon", k_lon))):
            model = kmeans_fit(runner.train_segments[i], k, seed=runner.config.seed)
            clusters[coord] = (assign_batch(model, runner.train_segments[i]),
                               assign_batch(model, runner.test_segments[i]))
        (lat_tr, lat_te), (lon_tr, lon_te) = clusters["lat"], clusters["lon"]
        pair_tr, pair_te = lat_tr * k_lon + lon_tr, lat_te * k_lon + lon_te
        hats, kinds = [], set()
        for i, (coord, k) in enumerate((("lat", k_lat), ("lon", k_lon))):
            train, test = clusters[coord]
            rungs = cls._rule(pair_tr, train, pair_te, test, config.min_cluster_size)
            # the global group, the unions of every cluster that fits and the
            # pairs that serve a test storm, solved apart from the engine's
            # batches: a group's sum and its solve do not depend on the other
            # groups in the call
            own = np.flatnonzero(fittable(np.bincount(train, minlength=k),
                                          config.min_cluster_size))
            pairs = np.unique([g for r, g in rungs if r == "pair"])
            models = {}
            for kind, labels, groups in (("global", 0 * train, [0]), ("union", train, own),
                                         ("pair", pair_tr, pairs)):
                solved = solve_fof(runner.group_stats(labels, groups)[:, i], runner.eig,
                                   config.ridge)
                models.update(((kind, g), C) for g, C in zip(groups, solved))
            kinds.update(kind for kind, _ in rungs)
            hats.append(fof_forecast(np.stack([models[r] for r in rungs]),
                                     runner.theta, runner.w_test[i]))
        return track_errors(*hats, *runner.truth), kinds

    @staticmethod
    def _rule(pair_tr, own_tr, pair_te, own_te, min_size):
        """Per test storm, the first group with at least ``min_size`` training
        storms but not all of them: its pair, its union in the coordinate, or
        else the global group."""
        rungs = []
        for p, a in zip(pair_te, own_te):
            if min_size <= np.sum(pair_tr == p) < len(pair_tr):
                rungs.append(("pair", p))
            elif min_size <= np.sum(own_tr == a) < len(own_tr):
                rungs.append(("union", a))
            else:
                rungs.append(("global", 0))
        return rungs

    def test_cells_equal_independent_fits(self, small_dataset, monkeypatch):
        # the engine seeds every k of a coordinate at once and solves the
        # pairs of both coordinates of a cell in one call; the unions are the
        # pairs of the edge cells (k, 1) and (1, k), solved once
        from fofcast import experiment
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=4, k_lon_max=3)
        train, test = train_test_split(lat.n_storms, 0.8, seed=6)
        runner = SplitRunner(lat, lon, train, test, replace(config, seed=6))
        calls = {"kmeans_fit": 0, "solve_fof": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiment, name, counted(name, getattr(experiment, name)))
        # the global models are cell (1, 1)'s one pair, solved with it
        runner.global_errors()
        assert calls == {"kmeans_fit": 0, "solve_fof": 1}
        runner.clustered_errors(2, 1)
        assert calls == {"kmeans_fit": 3, "solve_fof": 2}
        runner.clustered_errors(1, 3)
        assert calls == {"kmeans_fit": 5, "solve_fof": 3}
        # an inner cell solves its own pairs and reads the cached edge cells
        runner.clustered_errors(2, 3)
        assert calls == {"kmeans_fit": 5, "solve_fof": 4}
        runner.clustered_errors(2, 1)
        assert calls == {"kmeans_fit": 5, "solve_fof": 4}
        monkeypatch.undo()
        served = {}
        for k_lat in range(1, 5):
            for k_lon in range(1, 4):
                expected, served[k_lat, k_lon] = self._reference_errors(runner, k_lat,
                                                                        k_lon)
                np.testing.assert_array_equal(runner.clustered_errors(k_lat, k_lon),
                                              expected)
        # every kind of model serves some test storm, and cell (1, 1) only the
        # global one
        assert set().union(*served.values()) == {"pair", "union", "global"}
        assert served[1, 1] == {"global"}
        # a coordinate serves only the k of its grid
        with pytest.raises(ValueError, match=r"k=5 is outside the lat grid 1\.\.4"):
            runner.kmeans_for("lat", config.k_lat_max + 1)
        with pytest.raises(ValueError, match=r"k=0 is outside the lon grid 1\.\.3"):
            runner.kmeans_for("lon", 0)

    def test_grid_beyond_the_training_count_is_refused_before_seeding(
            self, small_dataset, monkeypatch):
        lat, lon = small_dataset
        train, test = train_test_split(lat.n_storms, 0.8, seed=6)
        config = ExperimentConfig(seed=6, k_lat_max=2, k_lon_max=len(train) + 1)
        runner = SplitRunner(lat, lon, train, test, config)
        monkeypatch.setattr(experiment, "kmeans_seeds", None)   # any call fails
        with pytest.raises(ValueError, match=f"k_lon_max={len(train) + 1} exceeds "
                                             f"the {len(train)} training storms"):
            runner.kmeans_for("lon", 2)
        # k = 1 needs no clustering, so the global model is still served
        assert runner.global_errors().shape == (len(test),)

    def test_edge_cells_hold_the_unions(self, small_dataset):
        # every fittable union that serves a test storm is a pair of its edge
        # cell, to the bit of the union solved alone in its coordinate
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=4, k_lon_max=4)
        train, test = train_test_split(lat.n_storms, 0.8, seed=6)
        runner = SplitRunner(lat, lon, train, test, replace(config, seed=6))
        served = 0
        for c, coord in enumerate(("lat", "lon")):
            for k in range(2, 5):
                labels, test_labels = runner.kmeans_for(coord, k)
                table = runner.cell_models(*{"lat": (k, 1), "lon": (1, k)}[coord])[1][c]
                own = fittable(np.bincount(labels, minlength=k), config.min_cluster_size)
                for a in np.unique(test_labels[own[test_labels]]):
                    alone = solve_fof(runner.group_stats(labels, np.array([a]))[:, c],
                                      runner.eig, config.ridge)[0]
                    assert np.array_equal(table[a], alone)
                    served += 1
        assert served > 6

    def test_group_sums_do_not_depend_on_the_batch(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1)
        train_idx, test_idx = train_test_split(lat.n_storms, 0.8, seed=3)
        runner = SplitRunner(lat, lon, train_idx, test_idx, config)
        P = config.predictor_len
        labels = np.random.default_rng(8).integers(0, 5, size=len(train_idx))
        groups = np.array([4, 0, 2, 3, 1, 2])
        batch = runner.group_stats(labels, groups)
        assert batch.shape == (len(groups), 2, 1 + config.K_t, 1 + config.K_t + config.K_s)
        assert runner.group_stats(labels, groups[:0]).shape == (0, *batch.shape[1:])
        for i in range(len(groups)):
            assert np.array_equal(batch[i], runner.group_stats(labels, groups[i:i + 1])[0])
        # lat first: each slice sums the coordinate's own per-storm statistics
        for c, (coord, mat) in enumerate((("lat", lat), ("lon", lon))):
            # the training columns fitted alone, centred on their own mean
            W, center = regressors(runner.predictor_basis, runner.predictor_grid,
                                   mat.values[:P, train_idx])
            assert np.array_equal(center, runner.center[c])
            stats = fof_statistics(W, runner.theta.T @ mat.values[P:, train_idx])
            for i, g in enumerate(groups):
                assert np.array_equal(batch[i, c], stats[labels == g].sum(axis=0))

    def test_statistics_are_storm_major(self, small_dataset):
        # a group sum reads whole storms; with the storm axis varying fastest
        # (the layout of ``fof_statistics``), it ran ten times slower
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1)
        train_idx, test_idx = train_test_split(lat.n_storms, 0.8, seed=3)
        runner = SplitRunner(lat, lon, train_idx, test_idx, config)
        m = 1 + config.K_t
        assert runner.stats.shape == (len(train_idx), 2, m, m + config.K_s)
        assert runner.stats.flags.c_contiguous

    def test_group_of_min_size_gets_its_own_model(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, k_lat_max=3, k_lon_max=3,
                                  min_cluster_size=13)
        train, test = train_test_split(lat.n_storms, 0.8, seed=6)
        runner = SplitRunner(lat, lon, train, test, replace(config, seed=6))
        # on this split a lat cluster of k = 3, and a pair of cell (3, 2),
        # hold exactly min_cluster_size training storms and serve test storms
        lat_tr, lat_te = runner.kmeans_for("lat", 3)
        lon_tr, lon_te = runner.kmeans_for("lon", 2)
        assert 13 in np.bincount(lat_tr)[lat_te]
        assert 13 in np.bincount(lat_tr * 2 + lon_tr)[lat_te * 2 + lon_te]
        for k_lon in (1, 2, 3):
            np.testing.assert_array_equal(runner.clustered_errors(3, k_lon),
                                          self._reference_errors(runner, 3, k_lon)[0])

    def test_rank_deficient_group_raises(self, small_dataset):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=1, ridge=0.0, min_cluster_size=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=5)
        runner = SplitRunner(lat, lon, train, test, config)
        with pytest.raises(SingularityError, match="ridge"):
            runner.clustered_errors(3, 3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shipped_forecast_is_the_scored_one(self, seed):
        """predict_trajectory, on fit_coordinate's models and the test storms'
        segments as the CLI takes them, scores the global errors bit for bit.
        Taking the test storms' coefficients as a slice of a fit of all storms
        moves a few of these 220 errors in the last bits, and none of 80 at
        400 storms: hence 1100."""
        lat, lon = synthetic_matrices(1100, noise=0.3)
        config = ExperimentConfig(n_repetitions=1)
        train_idx, test_idx = train_test_split(lat.n_storms, config.ratio, seed)
        runner = SplitRunner(lat, lon, train_idx, test_idx, replace(config, seed=seed))
        cols = list(test_idx)
        P = config.predictor_len
        lat_hat, lon_hat = predict_trajectory(
            runner.predictor_basis, runner.response_basis, runner.fit_coordinate("lat"),
            runner.fit_coordinate("lon"), lat.values[:P, cols], lon.values[:P, cols],
            time_grid(config.total_len))
        errors = track_errors(lat_hat, lon_hat, lat.values[:, cols][P:],
                              lon.values[:, cols][P:])
        assert np.array_equal(errors, runner.global_errors())


class TestGeoJSON:
    def test_longitudes_east_of_180(self):
        grid = np.linspace(0.0, 1.0, 32)[:, None]
        lat = np.tile(15.0 + 15.0 * grid, (1, 2))
        lon = np.array([170.0, 120.0]) + 30.0 * grid     # storms "E" and "W"
        lat_hat, lon_hat = lat[24:] + 0.3, lon[24:] + 0.5
        features = json.loads(f'[{forecasts_to_geojson(["E", "W"], lat, lon, lat_hat, lon_hat)}]')
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
            expected = np.mean([haversine(*hat, *true) for hat, true
                                in zip(zip(lat_hat[:, j], lon_hat[:, j]),
                                       zip(lat[24:, j], lon[24:, j]))])
            assert f["properties"]["avg_dist_km"] == pytest.approx(expected, rel=1e-12)


class TestLengthStudy:
    @staticmethod
    def _storms(n=40, max_len=48):
        rng = np.random.default_rng(12)
        storms = []
        for i in range(n):
            length = int(rng.integers(32, max_len + 1))
            j = np.arange(length)
            noise = rng.normal(0, 0.1, (length, 2))   # lat, lon noise per record
            storms.append(make_storm(f"L{i}", 10 + 0.3 * j + noise[:, 0],
                                     150 - 0.2 * j + noise[:, 1],
                                     start=datetime(2010, 6, 1), name=""))
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


def _force_workers(monkeypatch, n):
    monkeypatch.setattr(experiment, "split_workers", lambda n_splits: min(n_splits, n))


class TestSplitPool:
    """The splits run in forked worker processes where there are CPUs for them."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the process pools started from now on."""
        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        return started

    def test_pool_equals_in_process(self, small_dataset, monkeypatch, pools):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=3, k_lat_max=3, k_lon_max=2, seed=7)
        outputs = []
        for n in (1, 2):
            _force_workers(monkeypatch, n)
            report = repeated_simulation(lat, lon, config)
            outputs.append(report.to_json() + report.to_csv())
        assert pools == [2]
        assert outputs[0] == outputs[1]

    def test_length_study_pool_equals_in_process(self, monkeypatch, pools):
        storms = TestLengthStudy._storms()
        config = ExperimentConfig(n_repetitions=2, k_lat_max=1, k_lon_max=1)
        outputs = []
        for n in (1, 2):
            _force_workers(monkeypatch, n)
            outputs.append([(e.min_records, e.data_size, e.total_len,
                             e.report.to_json(), e.report.to_csv())
                            for e in length_study(storms, config, lengths=(32, 40, 48))])
        assert pools == [2]          # one pool for the 12 splits of the 6 entries
        assert outputs[0] == outputs[1]

    def test_worker_error_reaches_caller(self, small_dataset, monkeypatch, pools):
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=2, ridge=0.0, min_cluster_size=2,
                                  k_lat_max=3, k_lon_max=3)
        messages = []
        for n in (1, 2):
            _force_workers(monkeypatch, n)
            with pytest.raises(SingularityError, match="ridge") as exc:
                repeated_simulation(lat, lon, config)
            messages.append(str(exc.value))
        assert pools == [2]
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("reps, cpus, forks", [(1, {0, 1}, False), (3, {0}, False),
                                                   (2, {0, 1}, True)])
    def test_no_fork_for_one_split_or_one_cpu(self, small_dataset, monkeypatch,
                                              reps, cpus, forks):
        def forbidden(*args, **kwargs):
            raise RuntimeError("forked")

        monkeypatch.setattr(experiment, "_threaded", lambda: False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        lat, lon = small_dataset
        config = ExperimentConfig(n_repetitions=reps, k_lat_max=2, k_lon_max=1)
        if forks:
            with pytest.raises(RuntimeError, match="forked"):
                repeated_simulation(lat, lon, config)
        else:
            assert len(repeated_simulation(lat, lon, config).repetition_traces) == reps

    def test_split_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(experiment, "_threaded", lambda: False)
        assert [experiment.split_workers(n) for n in (1, 2, 5)] == [1, 2, 3]
        # forking a process with other threads is unsafe
        monkeypatch.setattr(experiment, "_threaded", lambda: True)
        assert experiment.split_workers(5) == 1
        monkeypatch.setattr(experiment, "_threaded", lambda: False)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiment.split_workers(5) == 1


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_python(code: str, one_blas_thread: bool = True) -> str:
    """stdout of ``code`` in a fresh interpreter with BLAS on one thread, or
    else on BLAS's default thread count."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(str(root / d) for d in ("src", "tests", "perfbench"))
    if one_blas_thread:
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_pool_modules():
    out = _run_python("import sys, fofcast\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert out == "[]\n"


def test_each_call_forks_right_after_a_pool():
    # a pool's threads outlive its shutdown by a moment; the next call must
    # still fork, so the check for other threads is made once, before any pool
    out = _run_python("""
import concurrent.futures, os
from conftest import synthetic_matrices
from fofcast import ExperimentConfig, experiment, repeated_simulation
os.sched_getaffinity = lambda pid: {0, 1}
started = []
class Counted(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        started.append(1)
        super().__init__(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = Counted
lat, lon = synthetic_matrices(n=40, seed=2)
config = ExperimentConfig(n_repetitions=2, k_lat_max=1, k_lon_max=1)
for _ in range(3):
    repeated_simulation(lat, lon, config)
print(len(started), experiment.split_workers(2))
""")
    assert out == "3 2\n"


def test_report_does_not_depend_on_blas_threads_or_the_pool(tmp_path):
    # on one BLAS thread the two splits run in a forked pool (on a multi-CPU
    # host), by default serially on multi-threaded BLAS; a one-hot GEMM group
    # sum gave this grid different last bits in the two runs
    archive = tmp_path / "archive.txt"
    _run_python(f"import archive_gen, pathlib\n"
                f"pathlib.Path({str(archive)!r}).write_text(archive_gen.generate(1).text)")
    code = f"""
from pathlib import Path
from fofcast import ExperimentConfig, ingest, repeated_simulation
storms = ingest.filter_min_length(ingest.parse_rsmc(Path({str(archive)!r}).read_text()), 32)
lat, lon = ingest.build_matrices([ingest.extract_tail(s, 32, 24) for s in storms])
config = ExperimentConfig(seed=1, n_repetitions=2, k_lat_max=3, k_lon_max=3)
print(repeated_simulation(lat, lon, config).to_json())
"""
    assert _run_python(code) == _run_python(code, one_blas_thread=False)


def test_a_grid_imports_no_masked_arrays():
    # NumPy 2's np.unique imports numpy.ma on its first call, which costs each
    # forked split worker about 20 ms; NumPy 1 imports it with numpy
    out = _run_python("""
import sys
import numpy
before = set(sys.modules)
from conftest import synthetic_matrices
from fofcast.experiment import ExperimentConfig, SplitRunner
from fofcast.ingest import train_test_split
lat, lon = synthetic_matrices(n=60, seed=3, noise=0.1)
config = ExperimentConfig(k_lat_max=3, k_lon_max=3, min_cluster_size=5)
runner = SplitRunner(lat, lon, *train_test_split(60, config.ratio, 0), config)
[runner.clustered_errors(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
print(sorted(m for m in set(sys.modules) - before if m.split(".")[:2] == ["numpy", "ma"]))
""")
    assert out == "[]\n"
