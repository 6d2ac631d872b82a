"""Evaluation metric and experiment harness.

Distances are great-circle (haversine, r = 6371 km). The harness covers:
cluster-pair regressions with union and global fallbacks for sparse pairs
(the global model is cell (1, 1)'s one pair), the k_lat x k_lon grid search,
repeated simulations with derived seeds, and the trajectory-length study.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .clustering import assign_batch, kmeans_fit, kmeans_seeds
from .errors import ShapeError
from .ingest import (DatasetMatrix, StormRecordSet, build_matrices, extract_tail,
                     filter_min_length, time_grid, train_count, train_test_split)
from .regression import fof_forecast, fof_statistics, regressors, solve_fof
# fit_bundle, gram_matrix, fit_fof: not called here; perfbench/spans.py traces them
from .basis import basis_matrix, bspline_basis, fit_bundle, gram_matrix  # noqa: F401
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
                          ("min_cluster_size", 1), ("ridge", 0), ("seed", 0)):
            if not low <= getattr(self, name) < np.inf:     # refuses NaN as well
                raise ValueError(f"{name} must be >= {low} and finite")


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


def _check_grid(config: ExperimentConfig, coord: str, n_train: int) -> None:
    """ValueError if the ``coord`` grid of ``config`` has more clusters than
    the ``n_train`` training storms it clusters."""
    if (k_max := getattr(config, f"k_{coord}_max")) > n_train:
        raise ValueError(f"k_{coord}_max={k_max} exceeds the {n_train} training storms")


def fittable(size: np.ndarray, min_size: int) -> np.ndarray:
    """Whether each group of a partition of the training storms, of ``size``
    storms, gets its own model: at ``min_size`` or more, or all of them."""
    return size >= min(min_size, size.sum())


class SplitRunner:
    """Fits and evaluates coordinate models on one train/test split.

    Arrays hold lat and lon on a leading axis of 2, lat first. Models are
    group sums of per-storm sufficient statistics, solved per cell for both
    coordinates of the pairs that serve a test storm. A group sums its storms
    in storm order, so its model is the same in any batch. A cell reads each
    test storm's model from a table with one row per cluster pair: the pair's
    own model, else its union's, which is a pair of the edge cell (k, 1) or
    (1, k), else the global one, the one pair of cell (1, 1).
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
        self.theta = basis_matrix(self.response_basis, self.response_grid)
        self.eig = np.linalg.eigh(self.theta.T @ self.theta)

        values = (lat_mat.values, lon_mat.values)
        self.train_segments = np.stack([v[:P, self.train_idx].T for v in values])
        self.test_segments = np.stack([v[:P, self.test_idx].T for v in values])
        self.truth = np.stack([v[P:, self.test_idx] for v in values])
        m = 1 + config.K_t
        self.center, self.w_test = np.empty((2, config.K_t)), np.empty((2, m, len(test_idx)))
        # storm-major, one coordinate at a time: a group sum reads whole storms
        self.stats = np.empty((len(self.train_idx), 2, m, m + config.K_s))
        for c, v in enumerate(values):
            w_train, self.center[c] = regressors(self.predictor_basis, self.predictor_grid,
                                                 v[:P, self.train_idx])
            self.stats[:, c] = fof_statistics(w_train, self.theta.T @ v[P:, self.train_idx])
            self.w_test[c] = regressors(self.predictor_basis, self.predictor_grid,
                                        v[:P, self.test_idx], self.center[c])[0]
        zeros = (np.zeros(len(self.train_idx), np.intp), np.zeros(len(self.test_idx), np.intp))
        self._kmeans_cache = {("lat", 1): zeros, ("lon", 1): zeros}
        self._edge_tables: dict = {}

    def fit_coordinate(self, coord: str) -> tuple[np.ndarray, np.ndarray]:
        """The global (coefficients, center) model of a coordinate: cell (1, 1)'s."""
        c = ("lat", "lon").index(coord)
        return self.cell_models(1, 1)[1][c, 0], self.center[c]

    def group_stats(self, labels: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """G x 2 x m x (m + K_s) statistics, lat first, of the training storms
        with each label of ``groups``, each summed in storm order: the same in
        any batch."""
        return np.array([self.stats[labels == g].sum(axis=0) for g in groups]
                        ).reshape(len(groups), *self.stats.shape[1:])

    def global_errors(self) -> np.ndarray:
        """Cell (1, 1), which the global models serve alone."""
        return self.clustered_errors(1, 1)

    def kmeans_for(self, coord: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Cluster labels of the training and test storms of ``coord`` for a k
        of its grid, 1..k_max; k = 1 puts every storm in cluster 0. The first
        k > 1 fits every k of the grid, from restarts seeded once for k_max."""
        k_max = getattr(self.config, f"k_{coord}_max")
        if not 1 <= k <= k_max:
            raise ValueError(f"k={k} is outside the {coord} grid 1..{k_max}")
        if (coord, k) not in self._kmeans_cache:
            c = ("lat", "lon").index(coord)
            points = self.train_segments[c]
            _check_grid(self.config, coord, len(points))
            seeds = kmeans_seeds(points, k_max, self.config.seed)
            for j in range(2, k_max + 1):
                model = kmeans_fit(points, j, init=seeds)
                self._kmeans_cache[coord, j] = (model.labels,
                                                assign_batch(model, self.test_segments[c]))
        return self._kmeans_cache[coord, k]

    def cell_models(self, k_lat: int, k_lon: int) -> tuple[np.ndarray, np.ndarray]:
        """The test storms' pair codes (lat cluster * k_lon + lon cluster) in
        cell (k_lat, k_lon) and a table of models, 2 x codes x K_s x m: the
        pair's own where it is ``fittable`` and serves a test storm, else the
        one its lat (lon) cluster takes in the cached edge cell (k_lat, 1)
        ((1, k_lon)), where the unions are the pairs; an edge cell falls back
        on cell (1, 1), whose one pair is the global model."""
        (lat_tr, lat_te), (lon_tr, lon_te) = (self.kmeans_for("lat", k_lat),
                                              self.kmeans_for("lon", k_lon))
        pair_tr, pair_te = lat_tr * k_lon + lon_tr, lat_te * k_lon + lon_te
        if (k_lat, k_lon) in self._edge_tables:
            return pair_te, self._edge_tables[k_lat, k_lon]
        lat_code, lon_code = np.divmod(np.arange(k_lat * k_lon), k_lon)
        if k_lat * k_lon > 1:    # an edge cell falls back on cell (1, 1) in its own coordinate
            lat_k, lon_k = (k_lat if k_lon > 1 else 1), (k_lon if k_lat > 1 else 1)
            tables = np.stack([self.cell_models(lat_k, 1)[1][0, lat_code % lat_k],
                               self.cell_models(1, lon_k)[1][1, lon_code % lon_k]])
        else:                    # whose one pair, every training storm, always fits
            tables = np.full((2, 1, self.config.K_s, 1 + self.config.K_t), np.nan)
        ok = fittable(np.bincount(pair_tr, minlength=k_lat * k_lon),
                      self.config.min_cluster_size)
        pairs = np.flatnonzero(ok & (np.bincount(pair_te, minlength=k_lat * k_lon) > 0))
        # the pair models of both coordinates, in one solve
        tables[:, pairs] = np.moveaxis(solve_fof(self.group_stats(pair_tr, pairs), self.eig,
                                                 self.config.ridge), 1, 0)
        if 1 in (k_lat, k_lon):
            self._edge_tables[k_lat, k_lon] = tables
        return pair_te, tables

    def clustered_errors(self, k_lat: int, k_lon: int) -> np.ndarray:
        """Errors of the test storms, each forecast by its ``cell_models``."""
        pair_te, tables = self.cell_models(k_lat, k_lon)
        return track_errors(*(fof_forecast(table[pair_te], self.theta, w)
                              for table, w in zip(tables, self.w_test)), *self.truth)


def _best_cell(cell_means: np.ndarray) -> tuple[tuple[int, int], float]:
    """Smallest cell, 1-based; ties go to the first in row-major order."""
    i, j = np.unravel_index(np.argmin(cell_means), cell_means.shape)
    return (int(i) + 1, int(j) + 1), float(cell_means[i, j])


def _split_row(lat_mat: DatasetMatrix, lon_mat: DatasetMatrix,
               config: ExperimentConfig, rep: int) -> dict:
    """The trace of repetition ``rep``: its seed, grid cells and global error, cell (1, 1)."""
    seed_r = config.seed + rep
    runner = SplitRunner(lat_mat, lon_mat, *train_test_split(
        lat_mat.n_storms, config.ratio, seed_r), replace(config, seed=seed_r))
    cells = [[float(runner.clustered_errors(i, j).mean())
              for j in range(1, config.k_lon_max + 1)]
             for i in range(1, config.k_lat_max + 1)]
    return {"repetition": rep, "seed": seed_r, "global_error": cells[0][0], "cells": cells}


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
    """The report of each (lat_mat, lon_mat, config); all splits share one pool,
    which starts only if every case's grid fits its training storms."""
    for lat_mat, _, config in cases:
        n_train = train_count(lat_mat.n_storms, config.ratio)
        for coord in ("lat", "lon"):
            _check_grid(config, coord, n_train)
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
        stack = np.array([t["cells"] for t in rep_traces])
        cell_means, cell_stds = stack.mean(axis=0), stack.std(axis=0)
        best_pair, best_error = _best_cell(cell_means)
        yield ExperimentReport(
            config=config, n_storms=lat_mat.n_storms, cell_means=cell_means,
            cell_stds=cell_stds, global_mean=float(cell_means[0, 0]),
            global_std=float(cell_stds[0, 0]), best_pair=best_pair, best_error=best_error,
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
    if repeated := sorted({L for L in lengths if list(lengths).count(L) > 1}):
        raise ValueError(f"lengths repeated: {', '.join(map(str, repeated))}")
    layout = [(t, L) for t in lengths for L in lengths if L <= t]
    subsets = {t: filter_min_length(storms, t) for t in lengths}
    cases = [(*build_matrices([extract_tail(s, L, L - response_len) for s in subsets[t]]),
              replace(config, total_len=L, predictor_len=L - response_len))
             for t, L in layout]
    return [LengthStudyEntry(t, len(subsets[t]), L, report)
            for (t, L), report in zip(layout, _reports(cases))]


def float_reprs(a: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``a``, as a str array of ``a``'s shape: repr runs
    once per distinct value, told apart by its bits, so -0.0 stays apart from 0.0."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inverse = np.unique(a.reshape(-1).view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in bits.view(np.float64).tolist()],
                    dtype=object)[inverse].reshape(a.shape)


def forecasts_to_geojson(storm_ids: Sequence[str], lat: np.ndarray, lon: np.ndarray,
                         lat_hat: np.ndarray, lon_hat: np.ndarray,
                         include_truth: bool = True) -> str:
    """One LineString feature per trajectory segment: observed X, observed Y,
    predicted Y; the features' text, comma-separated, as json.dumps writes them.

    ``lat`` and ``lon`` hold the storms' observed L x n windows, and
    ``lat_hat`` and ``lon_hat`` the q x n forecasts of their last q points,
    all finite (ValueError otherwise). GeoJSON positions are [lon, lat] with
    longitudes in [-180, 180] (RFC 7946), written as the shortest decimal
    strings that read back bit for bit (``repr``). The mean error property of
    the predicted segment, when the observed response is included, is scored
    before the wrap.
    """
    q, n = lat_hat.shape
    P = lat.shape[0] - q
    if (lat.shape != lon.shape or lon_hat.shape != (q, n) or lat.shape[1:] != (n,)
            or len(storm_ids) != n):
        raise ShapeError("observed windows, forecasts and storm ids do not match")
    if not all(np.isfinite(a).all() for a in (lat, lon, lat_hat, lon_hat)):
        raise ValueError("a position is not finite, which JSON cannot write")
    extras = [""] * n
    if include_truth:
        extras = [', "avg_dist_km": ' + e for e in
                  float_reprs(track_errors(lat_hat, lon_hat, lat[P:], lon[P:])).tolist()]

    def positions(seg_lon, seg_lat) -> list[str]:
        """The n "[[lon, lat], ...]" position lists of a segment's columns."""
        # whole turns only outside [-180, 180], so in-range positions stay as they are
        turns = np.where(np.abs(seg_lon) > 180.0, np.floor((seg_lon + 180.0) / 360.0), 0.0)
        m = len(seg_lon)
        tokens = np.empty((n, m, 4), dtype=object)
        tokens[:, :, 0] = float_reprs(seg_lon - 360.0 * turns).T
        tokens[:, :, 1] = ", "
        tokens[:, :, 2] = float_reprs(seg_lat).T
        tokens[:, :, 3] = "], ["
        tokens[:, -1:, 3] = "]]"
        return ["[[" + "".join(row) if m else "[]" for row in tokens.reshape(n, 4 * m).tolist()]

    segments = [("observed_predictor", positions(lon[:P], lat[:P]), [""] * n)]
    if include_truth:
        segments.append(("observed_response", positions(lon[P:], lat[P:]), [""] * n))
    segments.append(("predicted_response", positions(lon_hat, lat_hat), extras))
    ids = [json.dumps(sid) for sid in storm_ids]
    return ", ".join(
        f'{{"type": "Feature", "geometry": {{"type": "LineString", "coordinates": '
        f'{coordinates[j]}}}, "properties": {{"storm_id": {ids[j]}, "segment": '
        f'"{segment}"{extra[j]}}}}}'
        for j in range(n) for segment, coordinates, extra in segments)
