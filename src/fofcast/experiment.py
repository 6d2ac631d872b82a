"""Evaluation metric and experiment harness.

Distances are great-circle (haversine, r = 6371 km). The harness covers:
one global regression per coordinate, cluster-pair regressions with union
and global fallbacks for sparse pairs, the k_lat x k_lon grid search,
repeated simulations with derived seeds, and the trajectory-length study.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .basis import basis_matrix, bspline_basis, fit_bundle, gram_matrix
from .clustering import assign_batch, kmeans_fit, kmeans_seeds
from .errors import ShapeError
from .ingest import (DatasetMatrix, StormRecordSet, build_matrices, extract_tail,
                     filter_min_length, time_grid, train_test_split)
from .regression import design, fof_forecast, fof_statistics, solve_fof
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
    k_lat_max: int = 10
    k_lon_max: int = 10
    n_repetitions: int = 10
    min_cluster_size: int = 15

    def __post_init__(self):
        if not 0 < self.predictor_len < self.total_len:
            raise ValueError("need 0 < predictor_len < total_len")
        # more basis functions than points leave a curve or model undetermined
        if self.K_t > self.predictor_len:
            raise ValueError(f"K_t={self.K_t} exceeds the {self.predictor_len} "
                             f"predictor points")
        if self.K_s > self.total_len - self.predictor_len:
            raise ValueError(f"K_s={self.K_s} exceeds the "
                             f"{self.total_len - self.predictor_len} response points")
        for name, low in (("k_lat_max", 1), ("k_lon_max", 1), ("n_repetitions", 1),
                          ("min_cluster_size", 1), ("ridge", 0)):
            if not getattr(self, name) >= low:     # refuses NaN as well
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


def make_bases(config: ExperimentConfig) -> tuple:
    """Predictor and response B-spline bases over their sub-domains of the
    window's time grid."""
    P = config.predictor_len
    grid = time_grid(config.total_len)
    predictor_domain = (float(grid[0]), float(grid[P - 1]))
    response_domain = (float(grid[P]), float(grid[-1]))
    return (bspline_basis(config.K_t, predictor_domain),
            bspline_basis(config.K_s, response_domain))


def fittable(size: np.ndarray, min_size: int, n_train: int) -> np.ndarray:
    """Whether pair or union groups of ``size`` training storms get their own
    model; a group with every training storm is the global one."""
    return (size >= min_size) & (size < n_train)


class SplitRunner:
    """Fits and evaluates coordinate models on one train/test split.

    Models are group sums of per-storm sufficient statistics, solved in
    batches: the global ones once, the cluster unions of every k once per
    coordinate and, per cell, the pairs of both coordinates that serve a
    test storm. A cell reads each test storm's model from a table with one
    row per cluster pair: the pair's own model, else its union's, which is
    the global one where the union is too small. Cell (1, 1) is served by
    the global models alone, as is the global evaluation.
    """

    def __init__(self, lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                 train_idx: np.ndarray, test_idx: np.ndarray,
                 config: ExperimentConfig):
        if lat_mat.values.shape != lon_mat.values.shape:
            raise ShapeError("lat and lon matrices must have equal shape")
        L, _ = lat_mat.values.shape
        if L != config.total_len:
            raise ShapeError(f"matrix has {L} rows, config expects {config.total_len}")
        P = config.predictor_len
        self.config = config
        self.train_idx = np.asarray(train_idx)
        self.test_idx = np.asarray(test_idx)
        grid = time_grid(L)
        self.predictor_grid = grid[:P]
        self.response_grid = grid[P:]
        self.predictor_basis, self.response_basis = make_bases(config)
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
                DatasetMatrix(values=v[:P], storm_ids=lat_mat.storm_ids))
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

    def fit_coordinate(self, coord: str) -> tuple[np.ndarray, np.ndarray]:
        """The global (coefficients, center) model of a coordinate, as solved."""
        return self.global_coeffs[coord][0], self.center[coord]

    def group_models(self, parts: Sequence[tuple[str, np.ndarray]]) -> np.ndarray:
        """Coefficients (G x K_s x (1 + K_t)) of the groups of training storms
        marked in the rows of each (coordinate, one-hot) part, in order: one
        group sum per part, one solve for all."""
        stats = [np.tensordot(onehot.astype(float), self.stats[coord], axes=1)
                 for coord, onehot in parts]
        return solve_fof(np.concatenate(stats), self.eig, self.config.ridge)

    def global_errors(self) -> np.ndarray:
        """Cell (1, 1), which the global models serve alone."""
        return self.clustered_errors(1, 1)

    def kmeans_for(self, coord: str, k: int) -> tuple[np.ndarray, ...]:
        """Cluster labels of the training and test storms of ``coord``, and the
        coefficients of its k union models (k x K_s x m); a union that is not
        ``fittable`` holds the global model.

        k = 1 puts every storm in cluster 0, whose union is the global group.
        The first k > 1 asked of a coordinate clusters every k up to the
        coordinate's grid maximum.
        """
        if k < 1:
            raise ValueError(f"k={k} must be >= 1")
        if (coord, k) not in self._kmeans_cache:
            if k == 1:
                self._kmeans_cache[coord, 1] = (
                    np.zeros(len(self.train_idx), dtype=np.intp),
                    np.zeros(len(self.test_idx), dtype=np.intp),
                    self.global_coeffs[coord])
            else:
                self._cluster(coord, k)
        return self._kmeans_cache[coord, k]

    def _cluster(self, coord: str, k: int) -> None:
        """Caches ``kmeans_for`` of every uncached k from 2 to the larger of k
        and the grid maximum (at most the training count): the restarts are
        seeded once for the largest k, and the unions of all k are solved in
        one call."""
        points = self.train_segments[coord]
        k_max = {"lat": self.config.k_lat_max, "lon": self.config.k_lon_max}[coord]
        k_top = max(k, min(k_max, len(points)))
        seeds = kmeans_seeds(points, k_top, self.config.seed)
        todo = [j for j in range(2, k_top + 1) if (coord, j) not in self._kmeans_cache]
        fits, parts = [], []
        for j in todo:
            model = kmeans_fit(points, j, init=seeds)
            train = assign_batch(model, points)
            own = np.flatnonzero(fittable(np.bincount(train, minlength=j),
                                          self.config.min_cluster_size, len(train)))
            fits.append((train, assign_batch(model, self.test_segments[coord]), own))
            parts.append((coord, train == own[:, None]))
        solved = np.split(self.group_models(parts),
                          np.cumsum([len(own) for *_, own in fits])[:-1])
        for j, (train, test, own), models in zip(todo, fits, solved):
            coeffs = np.repeat(self.global_coeffs[coord], j, axis=0)
            coeffs[own] = models
            self._kmeans_cache[coord, j] = (train, test, coeffs)

    def clustered_errors(self, k_lat: int, k_lon: int) -> np.ndarray:
        """Errors of the test storms, each forecast per coordinate by its
        cluster pair's model where the pair is ``fittable``, else by its
        cluster union's model, which is the global one where the union is not.
        """
        (lat_tr, lat_te, lat_unions), (lon_tr, lon_te, lon_unions) = (
            self.kmeans_for("lat", k_lat), self.kmeans_for("lon", k_lon))
        pair_tr, pair_te = lat_tr * k_lon + lon_tr, lat_te * k_lon + lon_te
        ok = fittable(np.bincount(pair_tr, minlength=k_lat * k_lon),
                      self.config.min_cluster_size, len(pair_tr))
        pairs = np.unique(pair_te[ok[pair_te]])
        onehot = pair_tr == pairs[:, None]
        # the pair models of both coordinates are solved here, the unions are
        # cached rows; the group sums stay one per coordinate, since a GEMM's
        # rounding depends on its row count and merged sums would move models
        pair_models = np.split(self.group_models([("lat", onehot), ("lon", onehot)]), 2)
        # one model per pair code: the pair's own, else its union's in the coordinate
        codes = np.arange(k_lat * k_lon)
        tables = {"lat": lat_unions[codes // k_lon], "lon": lon_unions[codes % k_lon]}
        for table, models in zip(tables.values(), pair_models):
            table[pairs] = models
        hats = [fof_forecast(table[pair_te], self.theta, self.w_test[coord])
                for coord, table in tables.items()]
        return track_errors(*hats, self.truth["lat"], self.truth["lon"])


def _best_cell(cell_means: np.ndarray) -> tuple[tuple[int, int], float]:
    """Smallest cell, 1-based; ties go to the first in row-major order."""
    i, j = np.unravel_index(np.argmin(cell_means), cell_means.shape)
    return (int(i) + 1, int(j) + 1), float(cell_means[i, j])


def _split_row(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
               config: ExperimentConfig, rep: int) -> dict:
    """The trace of repetition ``rep``: its seed, grid cells and global error."""
    seed_r = config.seed + rep
    runner = SplitRunner(lat_mat, lon_mat, *train_test_split(
        lat_mat.n_storms, config.ratio, seed_r), replace(config, seed=seed_r))
    cells = [[float(runner.clustered_errors(i, j).mean())
              for j in range(1, config.k_lon_max + 1)]
             for i in range(1, config.k_lat_max + 1)]
    return {"repetition": rep, "seed": seed_r,
            "global_error": float(runner.global_errors().mean()), "cells": cells}


@functools.cache
def _threaded() -> bool:
    """Whether this process ran other threads when first asked, before any pool ran."""
    return len(os.listdir("/proc/self/task")) > 1


def split_workers(n_splits: int) -> int:
    """Processes for ``n_splits`` splits: one per CPU in the affinity mask, at most
    one per split; 1 without affinity or /proc, or with other threads, since forking
    is unsafe then and each worker's multi-threaded BLAS would contend for the CPUs."""
    try:
        return 1 if _threaded() else min(n_splits, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return 1


def _reports(cases: list[tuple]) -> Iterator[ExperimentReport]:
    """The report of each (lat_mat, lon_mat, config); all splits share one pool."""
    tasks = [(*case, rep) for case in cases for rep in range(case[2].n_repetitions)]
    traces = map(_split_row, *zip(*tasks))
    if (workers := split_workers(len(tasks))) > 1:
        # imported here, as importing them costs set-up time
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
            traces = iter(list(pool.map(_split_row, *zip(*tasks))))
    for lat_mat, _, config in cases:
        rep_traces = [next(traces) for _ in range(config.n_repetitions)]
        # the global error rides as one more column, so that it is averaged
        # in the same order as the cells and cell (1,1) stays equal to it
        stack = np.array([np.append(t["cells"], t["global_error"]) for t in rep_traces])
        means, stds = stack.mean(axis=0), stack.std(axis=0)
        cell_means = means[:-1].reshape(config.k_lat_max, config.k_lon_max)
        best_pair, best_error = _best_cell(cell_means)
        yield ExperimentReport(
            config=config, n_storms=lat_mat.n_storms, cell_means=cell_means,
            cell_stds=stds[:-1].reshape(cell_means.shape), global_mean=float(means[-1]),
            global_std=float(stds[-1]), best_pair=best_pair, best_error=best_error,
            repetition_traces=rep_traces)


def repeated_simulation(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
                        config: ExperimentConfig) -> ExperimentReport:
    """Every (k_lat, k_lon) cell and the global evaluation on the split of
    each derived-seed repetition, averaged over the repetitions."""
    return next(_reports([(lat_mat, lon_mat, config)]))


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
    layout = [(t, L) for t in lengths for L in lengths if L <= t]
    subsets = {t: filter_min_length(storms, t) for t in lengths}
    cases = [(*build_matrices([extract_tail(s, L, L - response_len) for s in subsets[t]]),
              replace(config, total_len=L, predictor_len=L - response_len))
             for t, L in layout]
    return [LengthStudyEntry(t, len(subsets[t]), L, report)
            for (t, L), report in zip(layout, _reports(cases))]


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

    def positions(seg_lon, seg_lat) -> list:
        """The n [lon, lat] position lists of a segment's columns."""
        # whole turns only outside [-180, 180], so in-range positions stay as they are
        turns = np.where(np.abs(seg_lon) > 180.0, np.floor((seg_lon + 180.0) / 360.0), 0.0)
        return np.stack([seg_lon - 360.0 * turns, seg_lat], axis=-1).transpose(1, 0, 2).tolist()

    segments = [("observed_predictor", positions(lon[:P], lat[:P]), [{}] * n)]
    if include_truth:
        segments.append(("observed_response", positions(lon[P:], lat[P:]), [{}] * n))
    segments.append(("predicted_response", positions(lon_hat, lat_hat), errors))
    features = [
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": coordinates[j]},
         "properties": {"storm_id": sid, "segment": segment, **extra[j]}}
        for j, sid in enumerate(storm_ids) for segment, coordinates, extra in segments]
    return {"type": "FeatureCollection", "features": features}
