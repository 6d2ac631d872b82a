"""K-means over discretized predictor segments, per coordinate.

Lloyd's algorithm with k-means++ seeding and restarts, the restarts of one
k stepped together. Latitude and longitude are clustered independently;
each storm then belongs to a (lat-cluster, lon-cluster) pair. A restart's
seeds of k are the first k of its seeds of any larger k, so one
``kmeans_seeds`` call seeds every k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray            # k x P
    inertia: float
    iterations_run: int
    labels: np.ndarray               # n: each fitted point's nearest centroid


def _lift(points: np.ndarray) -> np.ndarray:
    """The (P + 1) x n points over a row of ones, so that the label pass's
    centroid norms and the update's cluster counts come out of its GEMMs."""
    return np.vstack([points.T, np.ones(len(points))])


def _labels(lifted: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid (R x n) of each ``_lift`` point in each R x k x P set
    by one centroid-major GEMM: [-2c, ||c||^2] . [x, 1] is the squared distance
    less ||x||^2. Of the rows j at the column minimum the first has the largest
    weight k - 1 - j, so ties go to the lowest j; a NaN column gets k - 1."""
    R, k, P = centroids.shape
    rows = np.concatenate([-2.0 * centroids, (centroids ** 2).sum(axis=2, keepdims=True)],
                          axis=2)
    d = (rows.reshape(R * k, P + 1) @ lifted).reshape(R, k, -1)
    at_min = d == d.min(axis=1, keepdims=True)
    weights = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k))[:, None]
    return k - 1 - (at_min * weights).max(axis=1).astype(np.intp)


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


def _lloyd(points: np.ndarray, centroids: np.ndarray,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Centroids (R x k x P), iterations run, final labels (R x n) and
    their inertias of the R restarts seeded at ``centroids``, stepped together:
    a restart leaves the batch when its labels repeat or at ``max_iter``."""
    R, k, P = centroids.shape
    lifted = _lift(points)
    final, iters = centroids.copy(), np.full(R, max_iter)
    labels = _labels(lifted, centroids)
    final_labels = labels.copy()
    live = np.arange(R)
    for it in range(1, max_iter + 1):
        A = len(live)
        one_hot = labels[:, None, :] == np.arange(k)[:, None]
        sums = (one_hot.reshape(A * k, -1).astype(float) @ lifted.T).reshape(A, k, P + 1)
        counts = sums[:, :, P]
        new_centroids = sums[:, :, :P] / np.maximum(counts, 1)[:, :, None]
        for a in np.flatnonzero(~counts.all(axis=1)):
            # reseed an empty cluster at the point farthest from its centroid
            d2 = ((points - centroids[a, labels[a]]) ** 2).sum(axis=1)
            new_centroids[a, counts[a] == 0] = points[int(np.argmax(d2))]
        centroids, old_labels = new_centroids, labels
        labels = _labels(lifted, centroids)
        final[live], final_labels[live] = centroids, labels
        done = (labels == old_labels).all(axis=1)
        iters[live[done]] = it
        live, centroids, labels = live[~done], centroids[~done], labels[~done]
        if not len(live):
            break
    # one restart at a time: a residual array of all of them costs page faults
    return final, iters, final_labels, np.array([np.square(points - c[lab]).sum()
                                                 for c, lab in zip(final, final_labels)])


def _points(segments: np.ndarray, k: int, n_restarts: int) -> np.ndarray:
    points = np.asarray(segments, dtype=float)
    if points.ndim != 2:
        raise ShapeError("segments must be an n x P array")
    n = len(points)
    if k < 1 or n_restarts < 1:
        raise ValueError("k and n_restarts must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds sample count n={n}")
    return points


def kmeans_seeds(segments: np.ndarray, k_max: int, seed: int = 0,
                 n_restarts: int = 10) -> np.ndarray:
    """k-means++ seeds (n_restarts x k_max x P) of the restarts
    ``default_rng(seed + r)``. Each centre is drawn, by one draw of the
    restart's generator, from the distances to the centres before it, so
    the seeds of any k <= k_max are the first k rows."""
    points = _points(segments, k_max, n_restarts)
    return np.stack([_kmeanspp_init(points, k_max, np.random.default_rng(seed + r))
                     for r in range(n_restarts)])


def kmeans_fit(segments: np.ndarray, k: int, seed: int = 0,
               max_iter: int = 100, n_restarts: int = 10,
               init: np.ndarray | None = None) -> KMeansModel:
    """Best-of-restarts Lloyd's algorithm; deterministic for a fixed seed.

    Restart r starts from ``init[r, :k]``, ``kmeans_seeds`` of any k_max >= k
    and the same seed giving the fit's own seeds; without ``init`` exactly k
    centres are seeded. The model keeps the best restart's final labels.
    """
    points = _points(segments, k, n_restarts)
    if max_iter < 0:
        raise ValueError(f"max_iter={max_iter} must be >= 0")
    if init is None:
        init = kmeans_seeds(points, k, seed, n_restarts)
    init = np.asarray(init, dtype=float)
    if (init.ndim != 3 or init.shape[0] != n_restarts or init.shape[1] < k
            or init.shape[2] != points.shape[1]):
        raise ShapeError(f"init must be n_restarts x >= {k} x {points.shape[1]}")

    centroids, iters, labels, inertia = _lloyd(points, init[:, :k], max_iter)
    best = int(np.argmin(inertia))
    return KMeansModel(centroids=centroids[best], inertia=float(inertia[best]),
                       iterations_run=int(iters[best]), labels=labels[best].copy())


def assign_batch(model: KMeansModel, segments: np.ndarray) -> np.ndarray:
    """Nearest centroid of each row of ``segments``; ties go to the lowest index."""
    segments = np.asarray(segments, dtype=float)
    if segments.ndim != 2 or segments.shape[1] != model.centroids.shape[1]:
        raise ShapeError("segment length does not match centroid length")
    return _labels(_lift(segments), model.centroids[None])[0]
