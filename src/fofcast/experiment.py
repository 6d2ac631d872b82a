"""Evaluation metric and experiment harness.

Distances are great-circle (haversine, r = 6371 km). The harness covers:
one global regression per coordinate, cluster-pair-local regressions with a
fallback ladder for sparse pairs, the k_lat x k_lon grid search, repeated
simulations with derived seeds, and the trajectory-length study.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .basis import CurveBundle, basis_matrix, bspline_basis, fit_bundle, gram_matrix
from .clustering import KMeansModel, assign_batch, kmeans_fit
from .errors import ShapeError, ValidationError
from .ingest import (DatasetMatrix, StormRecordSet, TrajectoryWindow,
                     build_matrices, extract_tail, filter_min_length,
                     train_test_split)
from .regression import FoFModel, TrajectoryForecast, fit_fof, fof_forecast

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")


def haversine(p1: GeoPoint, p2: GeoPoint) -> float:
    """Great-circle distance in km on a sphere of radius 6371 km."""
    return float(_haversine_arrays(p1.lat, p1.lon, p2.lat, p2.lon))


def _haversine_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def track_errors(lat_hat, lon_hat, lat_true, lon_true) -> np.ndarray:
    """Mean haversine over the response grid per storm; inputs are q x n."""
    return _haversine_arrays(lat_hat, lon_hat, lat_true, lon_true).mean(axis=0)


def trajectory_error(forecast: TrajectoryForecast,
                     truth: Sequence[GeoPoint]) -> float:
    """Mean pointwise haversine distance between forecast and truth."""
    if len(forecast.points) != len(truth):
        raise ShapeError(
            f"forecast has {len(forecast.points)} points, truth has {len(truth)}")
    pred = np.array(forecast.points)
    true = np.array([(p.lat, p.lon) for p in truth])
    return float(track_errors(pred[:, :1], pred[:, 1:], true[:, :1], true[:, 1:])[0])


@dataclass(frozen=True)
class ExperimentConfig:
    total_len: int = 32
    predictor_len: int = 24
    ratio: float = 0.8
    seed: int = 0
    K_t: int = 12
    K_s: int = 6
    ridge: float = 1e-8
    curve_ridge: float = 0.0
    k_lat_max: int = 10
    k_lon_max: int = 10
    n_repetitions: int = 10
    min_cluster_size: int = 15
    kmeans_max_iter: int = 100
    kmeans_restarts: int = 10

    def __post_init__(self):
        if not 0 < self.predictor_len < self.total_len:
            raise ValueError("need 0 < predictor_len < total_len")
        if self.n_repetitions < 1:
            raise ValueError("n_repetitions must be >= 1")
        if not (1 <= self.k_lat_max and 1 <= self.k_lon_max):
            raise ValueError("cluster ranges must start at 1")


@dataclass
class ExperimentReport:
    """Grid of mean errors over repetitions, mirroring the error tables."""

    config: ExperimentConfig
    n_storms: int
    cell_means: np.ndarray            # k_lat_max x k_lon_max
    cell_stds: np.ndarray
    global_mean: float
    global_std: float
    best_pair: tuple[int, int]        # (k_lat, k_lon), 1-based
    best_error: float
    repetition_traces: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "n_storms": self.n_storms,
            "cell_means": self.cell_means.tolist(),
            "cell_stds": self.cell_stds.tolist(),
            "global_mean": self.global_mean,
            "global_std": self.global_std,
            "best_pair": {"k_lat": self.best_pair[0], "k_lon": self.best_pair[1]},
            "best_error": self.best_error,
            "repetitions": self.repetition_traces,
        }, indent=2)

    def to_csv(self) -> str:
        """Table with rows = k_lon, columns = k_lat, 2 decimal places."""
        k_lat_max, k_lon_max = self.cell_means.shape
        lines = ["k_lon\\k_lat," + ",".join(str(k) for k in range(1, k_lat_max + 1))]
        for j in range(k_lon_max):
            row = ",".join(f"{self.cell_means[i, j]:.2f}" for i in range(k_lat_max))
            lines.append(f"{j + 1},{row}")
        return "\n".join(lines) + "\n"


def make_bases(config: ExperimentConfig,
               time_grid: np.ndarray) -> tuple:
    """Predictor and response B-spline bases over their index sub-domains."""
    P = config.predictor_len
    predictor_domain = (float(time_grid[0]), float(time_grid[P - 1]))
    response_domain = (float(time_grid[P]), float(time_grid[-1]))
    return (bspline_basis(config.K_t, predictor_domain),
            bspline_basis(config.K_s, response_domain))


class SplitRunner:
    """Fits and evaluates coordinate models on one train/test split.

    All model fits funnel through one column-indexed code path so that the
    clustered evaluation with k_lat = k_lon = 1 is bit-identical to the
    global evaluation.
    """

    def __init__(self, lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                 train_idx: np.ndarray, test_idx: np.ndarray,
                 config: ExperimentConfig, kmeans_seed: int | None = None):
        if lat_mat.values.shape != lon_mat.values.shape:
            raise ShapeError("lat and lon matrices must have equal shape")
        L, _ = lat_mat.values.shape
        if L != config.total_len:
            raise ShapeError(f"matrix has {L} rows, config expects {config.total_len}")
        P = config.predictor_len
        self.config = config
        self.kmeans_seed = config.seed if kmeans_seed is None else kmeans_seed
        self.train_idx = np.asarray(train_idx)
        self.test_idx = np.asarray(test_idx)
        grid = lat_mat.time_grid
        self.predictor_grid = grid[:P]
        self.response_grid = grid[P:]
        self.predictor_basis, self.response_basis = make_bases(config, grid)
        self.gram = gram_matrix(self.predictor_basis)
        self.theta = basis_matrix(self.response_basis, self.response_grid)

        values = {"lat": lat_mat.values, "lon": lon_mat.values}
        ids = lat_mat.storm_ids
        self.train_ids = tuple(ids[i] for i in self.train_idx)
        self.test_ids = tuple(ids[i] for i in self.test_idx)
        self.x_train: dict[str, np.ndarray] = {}
        self.y_train: dict[str, np.ndarray] = {}
        self.z_test: dict[str, np.ndarray] = {}
        self.train_segments: dict[str, np.ndarray] = {}
        self.test_segments: dict[str, np.ndarray] = {}
        self.truth: dict[str, np.ndarray] = {}
        for coord in ("lat", "lon"):
            v = values[coord]
            x_tr = v[:P, :][:, self.train_idx]
            x_te = v[:P, :][:, self.test_idx]
            self.train_segments[coord] = x_tr.T.copy()
            self.test_segments[coord] = x_te.T.copy()
            tr_mat = DatasetMatrix(values=x_tr, time_grid=self.predictor_grid,
                                   storm_ids=self.train_ids)
            te_mat = DatasetMatrix(values=x_te, time_grid=self.predictor_grid,
                                   storm_ids=self.test_ids)
            self.x_train[coord] = fit_bundle(
                self.predictor_basis, self.predictor_grid, tr_mat,
                ridge=config.curve_ridge).coefficient_matrix
            c_test = fit_bundle(
                self.predictor_basis, self.predictor_grid, te_mat,
                ridge=config.curve_ridge).coefficient_matrix
            self.z_test[coord] = self.gram @ c_test
            self.y_train[coord] = v[P:, :][:, self.train_idx]
            self.truth[coord] = v[P:, :][:, self.test_idx]

        self._model_cache: dict = {}
        self._kmeans_cache: dict = {}

    @property
    def n_train(self) -> int:
        return len(self.train_idx)

    def fit_coordinate(self, coord: str, cols: np.ndarray) -> FoFModel:
        key = (coord, tuple(cols.tolist()))
        model = self._model_cache.get(key)
        if model is None:
            bundle = CurveBundle(
                basis=self.predictor_basis,
                coefficient_matrix=self.x_train[coord][:, cols],
                ids=tuple(self.train_ids[i] for i in cols))
            y = DatasetMatrix(values=self.y_train[coord][:, cols],
                              time_grid=self.response_grid,
                              storm_ids=bundle.ids)
            model = fit_fof(bundle, y, self.response_basis,
                            ridge=self.config.ridge, predictor_gram=self.gram)
            self._model_cache[key] = model
        return model

    def _storm_errors(self, groups) -> np.ndarray:
        """Mean haversine per test storm.

        ``groups`` yields (test columns, lat model, lon model); each group
        takes one batched forecast per coordinate.
        """
        errors = np.empty(len(self.test_idx))
        for idx, lat_model, lon_model in groups:
            lat_hat = fof_forecast(lat_model, self.theta, self.z_test["lat"][:, idx])
            lon_hat = fof_forecast(lon_model, self.theta, self.z_test["lon"][:, idx])
            errors[idx] = track_errors(lat_hat, lon_hat, self.truth["lat"][:, idx],
                                       self.truth["lon"][:, idx])
        return errors

    def global_errors(self) -> np.ndarray:
        cols = np.arange(self.n_train)
        return self._storm_errors([(np.arange(len(self.test_idx)),
                                    self.fit_coordinate("lat", cols),
                                    self.fit_coordinate("lon", cols))])

    def kmeans_for(self, coord: str, k: int) -> KMeansModel:
        key = (coord, k)
        if key not in self._kmeans_cache:
            self._kmeans_cache[key] = kmeans_fit(
                self.train_segments[coord], k, seed=self.kmeans_seed,
                max_iter=self.config.kmeans_max_iter,
                n_restarts=self.config.kmeans_restarts)
        return self._kmeans_cache[key]

    def clustered_errors(self, k_lat: int, k_lon: int) -> np.ndarray:
        """Pair-local models with the sparse-pair fallback ladder.

        Ladder: pair model (>= min_cluster_size training members) ->
        per-coordinate cluster-union model (same threshold) -> global model.
        Test storms are scored together per distinct (lat, lon) cluster pair.
        """
        cfg = self.config
        lat_km = self.kmeans_for("lat", k_lat)
        lon_km = self.kmeans_for("lon", k_lon)
        lat_tr = assign_batch(lat_km, self.train_segments["lat"])
        lon_tr = assign_batch(lon_km, self.train_segments["lon"])
        lat_te = assign_batch(lat_km, self.test_segments["lat"])
        lon_te = assign_batch(lon_km, self.test_segments["lon"])
        all_cols = np.arange(self.n_train)

        def models_for(lat_c: int, lon_c: int) -> tuple[FoFModel, FoFModel]:
            pair_cols = np.where((lat_tr == lat_c) & (lon_tr == lon_c))[0]
            if len(pair_cols) >= cfg.min_cluster_size:
                return (self.fit_coordinate("lat", pair_cols),
                        self.fit_coordinate("lon", pair_cols))
            lat_cols = np.where(lat_tr == lat_c)[0]
            lon_cols = np.where(lon_tr == lon_c)[0]
            lat_model = self.fit_coordinate(
                "lat", lat_cols if len(lat_cols) >= cfg.min_cluster_size else all_cols)
            lon_model = self.fit_coordinate(
                "lon", lon_cols if len(lon_cols) >= cfg.min_cluster_size else all_cols)
            return lat_model, lon_model

        pair_codes = lat_te * k_lon + lon_te
        return self._storm_errors(
            (np.flatnonzero(pair_codes == code), *models_for(*divmod(code, k_lon)))
            for code in np.unique(pair_codes))


def _best_cell(cell_means: np.ndarray) -> tuple[tuple[int, int], float]:
    """Smallest cell, 1-based; ties go to the first in row-major order."""
    i, j = np.unravel_index(np.argmin(cell_means), cell_means.shape)
    return (int(i) + 1, int(j) + 1), float(cell_means[i, j])


def grid_search(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                train_idx: np.ndarray, test_idx: np.ndarray,
                config: ExperimentConfig,
                kmeans_seed: int | None = None) -> ExperimentReport:
    """Evaluate every (k_lat, k_lon) on one shared split and clustering set."""
    runner = SplitRunner(lat_mat, lon_mat, train_idx, test_idx, config,
                         kmeans_seed=kmeans_seed)
    cells = np.empty((config.k_lat_max, config.k_lon_max))
    for i in range(config.k_lat_max):
        for j in range(config.k_lon_max):
            cells[i, j] = runner.clustered_errors(i + 1, j + 1).mean()
    global_error = float(runner.global_errors().mean())
    best_pair, best_error = _best_cell(cells)
    return ExperimentReport(
        config=config, n_storms=lat_mat.n_storms,
        cell_means=cells, cell_stds=np.zeros_like(cells),
        global_mean=global_error, global_std=0.0,
        best_pair=best_pair, best_error=best_error,
        repetition_traces=[{
            "seed": int(config.seed), "global_error": global_error,
            "cells": cells.tolist(),
        }],
    )


def repeated_simulation(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                        config: ExperimentConfig) -> ExperimentReport:
    """Average grid search and global evaluation over derived-seed repetitions."""
    n = lat_mat.n_storms
    rows = []
    traces = []
    for rep in range(config.n_repetitions):
        seed_r = config.seed + rep
        train_idx, test_idx = train_test_split(n, config.ratio, seed_r)
        rep_report = grid_search(lat_mat, lon_mat, train_idx, test_idx,
                                 config, kmeans_seed=seed_r)
        # the global error rides as one more column, so that it is averaged
        # in the same order as the cells and cell (1,1) stays equal to it
        rows.append(np.append(rep_report.cell_means.ravel(), rep_report.global_mean))
        traces.append({
            "repetition": rep, "seed": seed_r,
            "global_error": rep_report.global_mean,
            "cells": rep_report.cell_means.tolist(),
        })
    stack = np.stack(rows)
    means, stds = stack.mean(axis=0), stack.std(axis=0)
    shape = (config.k_lat_max, config.k_lon_max)
    cell_means = means[:-1].reshape(shape)
    best_pair, best_error = _best_cell(cell_means)
    return ExperimentReport(
        config=config, n_storms=n,
        cell_means=cell_means, cell_stds=stds[:-1].reshape(shape),
        global_mean=float(means[-1]), global_std=float(stds[-1]),
        best_pair=best_pair, best_error=best_error,
        repetition_traces=traces,
    )


@dataclass(frozen=True)
class LengthStudyEntry:
    min_records: int
    data_size: int
    total_len: int
    report: ExperimentReport


def length_study(storms: Sequence[StormRecordSet], config: ExperimentConfig,
                 lengths: Sequence[int] = (32, 40, 48),
                 response_len: int = 8) -> list[LengthStudyEntry]:
    """Length/data-size trade-off study with a lower-triangular layout.

    For each length threshold T the storm set is restricted to storms with
    at least T records, and every window length L <= T is evaluated on that
    fixed subset (window = last L points, predictor = L - response_len).
    """
    entries = []
    for threshold in lengths:
        subset = filter_min_length(storms, threshold)
        for L in lengths:
            if L > threshold:
                continue
            cfg = replace(config, total_len=L, predictor_len=L - response_len)
            windows = [extract_tail(s, L, L - response_len) for s in subset]
            lat_mat, lon_mat = build_matrices(windows)
            report = repeated_simulation(lat_mat, lon_mat, cfg)
            entries.append(LengthStudyEntry(
                min_records=threshold, data_size=len(subset),
                total_len=L, report=report))
    return entries


def forecasts_to_geojson(windows: Sequence[TrajectoryWindow],
                         forecasts: Sequence[TrajectoryForecast],
                         include_truth: bool = True) -> dict:
    """One LineString per trajectory segment: observed X, observed Y, predicted Y.

    GeoJSON positions are [lon, lat]; the mean error property is attached to
    the predicted segment when the observed response is available.
    """
    by_id = {w.storm_id: w for w in windows}
    features = []
    for fc in forecasts:
        w = by_id.get(fc.storm_id)
        if w is None:
            raise ShapeError(f"no window for forecast {fc.storm_id}")
        features.append(_linestring(
            fc.storm_id, "observed_predictor",
            list(zip(w.lon_predictor.tolist(), w.lat_predictor.tolist()))))
        predicted_props = {}
        if include_truth:
            features.append(_linestring(
                fc.storm_id, "observed_response",
                list(zip(w.lon_response.tolist(), w.lat_response.tolist()))))
            truth = [GeoPoint(lat, lon)
                     for lat, lon in zip(w.lat_response, w.lon_response)]
            predicted_props["avg_dist_km"] = trajectory_error(fc, truth)
        features.append(_linestring(
            fc.storm_id, "predicted_response",
            [(lon, lat) for lat, lon in fc.points], **predicted_props))
    return {"type": "FeatureCollection", "features": features}


def _linestring(storm_id: str, segment: str, coords, **extra) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "LineString",
                     "coordinates": [[float(x), float(y)] for x, y in coords]},
        "properties": {"storm_id": storm_id, "segment": segment, **extra},
    }
