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

from .basis import basis_matrix, bspline_basis, fit_bundle, gram_matrix
from .clustering import assign_batch, kmeans_fit
from .errors import ShapeError
from .ingest import (DatasetMatrix, StormRecordSet, build_matrices, extract_tail,
                     filter_min_length, train_test_split)
from .regression import FoFModel, design, fof_forecast, fof_statistics, solve_fof
# not called here: perfbench/spans.py traces the one-model fit by this name
from .regression import fit_fof  # noqa: F401

EARTH_RADIUS_KM = 6371.0


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km, element by element over arrays of degrees."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def track_errors(lat_hat, lon_hat, lat_true, lon_true) -> np.ndarray:
    """Mean haversine over the response grid per storm; inputs are q x n."""
    return haversine(lat_hat, lon_hat, lat_true, lon_true).mean(axis=0)


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
        # more basis functions than points leave a curve or model undetermined
        if self.K_t > self.predictor_len and self.curve_ridge == 0:
            raise ValueError(f"K_t={self.K_t} exceeds the {self.predictor_len} "
                             f"predictor points")
        if self.K_s > self.total_len - self.predictor_len:
            raise ValueError(f"K_s={self.K_s} exceeds the "
                             f"{self.total_len - self.predictor_len} response points")
        for name, low in (("k_lat_max", 1), ("k_lon_max", 1), ("n_repetitions", 1),
                          ("min_cluster_size", 1), ("kmeans_restarts", 1), ("ridge", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


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


def fittable(size: np.ndarray, min_size: int, n_train: int) -> np.ndarray:
    """Whether pair or union groups of ``size`` training storms get their own
    model; a group with every training storm is the global one."""
    return (size >= min_size) & (size < n_train)


def ladder(pair_tr: np.ndarray, own_tr: np.ndarray, pair_te: np.ndarray,
           own_te: np.ndarray, n_pairs: int, k_own: int,
           min_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the 3 groups each training storm is in (3 x n_train) and,
    per test storm, the first ``fittable`` of its pair, union and global
    group. Pair p has code p, the coordinate's cluster union a has
    n_pairs + a and the global group n_pairs + k_own."""
    n_global = n_pairs + k_own
    member = np.stack([pair_tr, n_pairs + own_tr, np.full_like(pair_tr, n_global)])
    chain = np.stack([pair_te, n_pairs + own_te, np.full_like(pair_te, n_global)])
    ok = fittable(np.bincount(member.ravel(), minlength=n_global + 1)[chain],
                  min_size, len(pair_tr))
    ok[2] = True
    return member, chain[ok.argmax(axis=0), np.arange(chain.shape[1])]


class SplitRunner:
    """Fits and evaluates coordinate models on one train/test split.

    Models are group sums of per-storm sufficient statistics, solved in
    batches: the global ones once, the cluster unions once per (coordinate,
    k) and, per cell, the pairs that serve a test storm. Cell (1, 1) is
    served by the global models alone, as is the global evaluation.
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
        self.eig = np.linalg.eigh(self.theta.T @ self.theta)

        self.train_segments, self.test_segments = {}, {}
        self.stats, self.center, self.w_test, self.truth = {}, {}, {}, {}
        for coord, v in (("lat", lat_mat.values), ("lon", lon_mat.values)):
            self.train_segments[coord] = v[:P, self.train_idx].T.copy()
            self.test_segments[coord] = v[:P, self.test_idx].T.copy()
            coeffs = fit_bundle(
                self.predictor_basis, self.predictor_grid,
                DatasetMatrix(values=v[:P], time_grid=self.predictor_grid,
                              storm_ids=lat_mat.storm_ids),
                ridge=config.curve_ridge)
            self.truth[coord] = v[P:, self.test_idx]
            # the engine centres the regressors on the training mean, so its
            # intercepts are a + B z_mean
            z_train = self.gram @ coeffs[:, self.train_idx]
            z_mean = self.center[coord] = z_train.mean(axis=1)
            self.stats[coord] = fof_statistics(design(z_train, z_mean),
                                               self.theta.T @ v[P:, self.train_idx])
            self.w_test[coord] = design(self.gram @ coeffs[:, self.test_idx], z_mean)
        self.global_coeffs = {c: solve_fof(st.sum(axis=0, keepdims=True), self.eig,
                                           config.ridge) for c, st in self.stats.items()}
        self._kmeans_cache: dict = {}

    def fit_coordinate(self, coord: str) -> FoFModel:
        """The global model of a coordinate, as the engine solved it."""
        return FoFModel(self.predictor_basis, self.response_basis,
                        self.global_coeffs[coord][0], self.center[coord])

    def group_models(self, coord: str, onehot: np.ndarray) -> np.ndarray:
        """Coefficients (G x K_s x (1 + K_t)) of the groups of training storms
        marked in the G rows of ``onehot``: one group sum, one solve."""
        stats = np.tensordot(onehot.astype(float), self.stats[coord], axes=1)
        return solve_fof(stats, self.eig, self.config.ridge)

    def global_errors(self) -> np.ndarray:
        """Cell (1, 1), which the global models serve alone."""
        return self.clustered_errors(1, 1)

    def kmeans_for(self, coord: str, k: int) -> tuple[np.ndarray, ...]:
        """Cluster labels of the training and test storms of ``coord``, and the
        coefficients of its k union models, then the global one ((k + 1) x
        K_s x m); a union that is not ``fittable`` holds the global model."""
        key = (coord, k)
        if key not in self._kmeans_cache:
            model = kmeans_fit(self.train_segments[coord], k, seed=self.kmeans_seed,
                               max_iter=self.config.kmeans_max_iter,
                               n_restarts=self.config.kmeans_restarts)
            train = assign_batch(model, self.train_segments[coord])
            coeffs = np.repeat(self.global_coeffs[coord], k + 1, axis=0)
            own = np.flatnonzero(fittable(np.bincount(train, minlength=k),
                                          self.config.min_cluster_size, len(train)))
            coeffs[own] = self.group_models(coord, train == own[:, None])
            self._kmeans_cache[key] = (
                train, assign_batch(model, self.test_segments[coord]), coeffs)
        return self._kmeans_cache[key]

    def clustered_errors(self, k_lat: int, k_lon: int) -> np.ndarray:
        """Pair-local models with the sparse-pair fallback ladder.

        Ladder: pair model (>= min_cluster_size training members) ->
        per-coordinate cluster-union model (same threshold) -> global model.
        """
        lat, lon = self.kmeans_for("lat", k_lat), self.kmeans_for("lon", k_lon)
        n_pairs = k_lat * k_lon
        pair_tr, pair_te = lat[0] * k_lon + lon[0], lat[1] * k_lon + lon[1]
        hats = []
        for coord, k, (train, test, unions) in (("lat", k_lat, lat),
                                                ("lon", k_lon, lon)):
            member, rungs = ladder(pair_tr, train, pair_te, test, n_pairs, k,
                                   self.config.min_cluster_size)
            # the pair models are solved here, the others are cached rows
            groups, index = np.unique(rungs, return_inverse=True)
            pairs = groups[groups < n_pairs]
            coeffs = np.concatenate([
                self.group_models(coord, member[0] == pairs[:, None]),
                unions[groups[len(pairs):] - n_pairs]])
            hats.append(fof_forecast(coeffs[index], self.theta, self.w_test[coord]))
        return track_errors(*hats, self.truth["lat"], self.truth["lon"])


def _best_cell(cell_means: np.ndarray) -> tuple[tuple[int, int], float]:
    """Smallest cell, 1-based; ties go to the first in row-major order."""
    i, j = np.unravel_index(np.argmin(cell_means), cell_means.shape)
    return (int(i) + 1, int(j) + 1), float(cell_means[i, j])


def repeated_simulation(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                        config: ExperimentConfig) -> ExperimentReport:
    """Every (k_lat, k_lon) cell and the global evaluation on the split of
    each derived-seed repetition, averaged over the repetitions."""
    n = lat_mat.n_storms
    shape = (config.k_lat_max, config.k_lon_max)
    rows = []
    traces = []
    for rep in range(config.n_repetitions):
        seed_r = config.seed + rep
        train_idx, test_idx = train_test_split(n, config.ratio, seed_r)
        runner = SplitRunner(lat_mat, lon_mat, train_idx, test_idx, config,
                             kmeans_seed=seed_r)
        cells = np.empty(shape)
        for i in range(config.k_lat_max):
            for j in range(config.k_lon_max):
                cells[i, j] = runner.clustered_errors(i + 1, j + 1).mean()
        global_error = float(runner.global_errors().mean())
        # freed now, this split's caches are gone before the next split's are built
        del runner
        # the global error rides as one more column, so that it is averaged
        # in the same order as the cells and cell (1,1) stays equal to it
        rows.append(np.append(cells.ravel(), global_error))
        traces.append({
            "repetition": rep, "seed": seed_r,
            "global_error": global_error,
            "cells": cells.tolist(),
        })
    stack = np.stack(rows)
    means, stds = stack.mean(axis=0), stack.std(axis=0)
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


def forecasts_to_geojson(storm_ids: Sequence[str], lat: np.ndarray, lon: np.ndarray,
                         lat_hat: np.ndarray, lon_hat: np.ndarray,
                         include_truth: bool = True) -> dict:
    """One LineString per trajectory segment: observed X, observed Y, predicted Y.

    ``lat`` and ``lon`` hold the storms' observed L x n windows, and
    ``lat_hat`` and ``lon_hat`` the q x n forecasts of their last q points.
    GeoJSON positions are [lon, lat] with longitudes in [-180, 180]
    (RFC 7946). The mean error property of the predicted segment, when the
    observed response is included, is scored before the wrap.
    """
    q, n = lat_hat.shape
    P = lat.shape[0] - q
    if (lat.shape != lon.shape or lon_hat.shape != (q, n) or lat.shape[1:] != (n,)
            or len(storm_ids) != n):
        raise ShapeError("observed windows, forecasts and storm ids do not match")
    errors = [{}] * n
    if include_truth:
        errors = [{"avg_dist_km": e} for e in
                  track_errors(lat_hat, lon_hat, lat[P:], lon[P:]).tolist()]
    features = []
    for j, (sid, error) in enumerate(zip(storm_ids, errors)):
        features.append(_linestring(sid, "observed_predictor", lon[:P, j], lat[:P, j]))
        if include_truth:
            features.append(_linestring(sid, "observed_response",
                                        lon[P:, j], lat[P:, j]))
        features.append(_linestring(sid, "predicted_response",
                                    lon_hat[:, j], lat_hat[:, j], **error))
    return {"type": "FeatureCollection", "features": features}


def _linestring(storm_id: str, segment: str, lon, lat, **extra) -> dict:
    lon = np.asarray(lon, dtype=float)
    # whole turns only outside [-180, 180], so in-range positions stay as they are
    turns = np.where(np.abs(lon) > 180.0, np.floor((lon + 180.0) / 360.0), 0.0)
    coordinates = np.column_stack([lon - 360.0 * turns, lat]).tolist()
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coordinates},
        "properties": {"storm_id": storm_id, "segment": segment, **extra},
    }
