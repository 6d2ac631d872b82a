"""K-means over discretized predictor segments, per coordinate.

Lloyd's algorithm with k-means++ seeding and restarts. Latitude and
longitude are clustered independently; each storm then belongs to a
(lat-cluster, lon-cluster) pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class KMeansModel:
    k: int
    centroids: np.ndarray            # k x P
    inertia: float
    seed: int
    iterations_run: int
    inertia_trace: tuple[float, ...] = ()

    def __post_init__(self):
        if self.centroids.shape[0] != self.k:
            raise ShapeError("centroid count does not match k")
        if self.inertia < 0:
            raise ShapeError("inertia must be non-negative")

    @property
    def segment_length(self) -> int:
        return self.centroids.shape[1]

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "P": self.segment_length,
            "seed": self.seed,
            "centroids": self.centroids.ravel().tolist(),
            "inertia": self.inertia,
            "iterations_run": self.iterations_run,
            "inertia_trace": list(self.inertia_trace),
        })

    @staticmethod
    def from_json(text: str) -> "KMeansModel":
        d = json.loads(text)
        return KMeansModel(
            k=d["k"],
            centroids=np.array(d["centroids"]).reshape(d["k"], d["P"]),
            inertia=d["inertia"], seed=d["seed"],
            iterations_run=d["iterations_run"],
            inertia_trace=tuple(d["inertia_trace"]),
        )


def _labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by the GEMM form ||c||^2 - 2 x.c of the squared
    distance less ||x||^2; ties go to the lowest index. The -2 rides on the
    centroids: scaling by a power of two is exact."""
    d = points @ (-2.0 * centroids).T
    d += (centroids ** 2).sum(axis=1)
    return np.argmin(d, axis=1)


def _inertia(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Summed squared distance of each point to its assigned centroid."""
    r = (points - centroids.take(labels, axis=0)).ravel()
    return float(r @ r)


def _kmeanspp_init(points: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iter: int) -> tuple[np.ndarray, int, list[float]]:
    """Centroids, iterations run and the inertia after each label pass."""
    centroids = _kmeanspp_init(points, k, rng)
    labels = _labels(points, centroids)
    trace = [_inertia(points, centroids, labels)]
    clusters = np.arange(k)[:, None]
    for it in range(1, max_iter + 1):
        counts = np.bincount(labels, minlength=k)
        new_centroids = ((labels == clusters).astype(float) @ points
                         / np.maximum(counts, 1)[:, None])
        if not counts.all():
            # reseed an empty cluster at the point farthest from its centroid
            d2 = ((points - centroids[labels]) ** 2).sum(axis=1)
            new_centroids[counts == 0] = points[int(np.argmax(d2))]
        centroids, old_labels = new_centroids, labels
        labels = _labels(points, centroids)
        trace.append(_inertia(points, centroids, labels))
        if np.array_equal(labels, old_labels):
            return centroids, it, trace
    return centroids, max_iter, trace


def kmeans_fit(segments: np.ndarray, k: int, seed: int = 0,
               max_iter: int = 100, n_restarts: int = 10) -> KMeansModel:
    """Best-of-restarts Lloyd's algorithm; deterministic for a fixed seed."""
    points = np.asarray(segments, dtype=float)
    if points.ndim != 2:
        raise ShapeError("segments must be an n x P array")
    n = len(points)
    if k < 1 or n_restarts < 1:
        raise ValueError("k and n_restarts must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")

    best = None
    for restart in range(n_restarts):
        result = _lloyd(points, k, np.random.default_rng(seed + restart), max_iter)
        if best is None or result[2][-1] < best[2][-1]:
            best = result
    centroids, iters, trace = best
    return KMeansModel(k=k, centroids=centroids, inertia=trace[-1], seed=seed,
                       iterations_run=iters, inertia_trace=tuple(trace))


def assign(model: KMeansModel, segment: Sequence[float]) -> int:
    """Nearest centroid in squared Euclidean distance; ties go to the lowest index."""
    segment = np.asarray(segment, dtype=float)
    if segment.shape != (model.segment_length,):
        raise ShapeError(
            f"segment length {segment.shape} does not match centroid length "
            f"{model.segment_length}")
    return int(assign_batch(model, segment[None, :])[0])


def assign_batch(model: KMeansModel, segments: np.ndarray) -> np.ndarray:
    segments = np.asarray(segments, dtype=float)
    if segments.shape[1] != model.segment_length:
        raise ShapeError("segment length does not match centroid length")
    return _labels(segments, model.centroids)
