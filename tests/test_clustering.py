import itertools

import numpy as np
import pytest

from fofcast import assign, kmeans_fit
from fofcast.clustering import KMeansModel, assign_batch
from fofcast.errors import ShapeError

from conftest import synthetic_matrices, two_regime_matrices


def brute_force_two_partition(points):
    """Optimal 2-partition by enumerating every split (the oracle)."""
    n = len(points)
    best_cost, best_partition = np.inf, None
    for size in range(1, n // 2 + 1):
        for group in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(group)] = True
            cost = 0.0
            for m in (mask, ~mask):
                centroid = points[m].mean(axis=0)
                cost += ((points[m] - centroid) ** 2).sum()
            if cost < best_cost:
                best_cost = cost
                best_partition = frozenset(
                    [frozenset(np.where(mask)[0].tolist()),
                     frozenset(np.where(~mask)[0].tolist())])
    return best_cost, best_partition


def partition_of(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


class TestKMeansFit:
    def test_k1_is_mean(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 6))
        model = kmeans_fit(points, k=1, seed=0)
        np.testing.assert_allclose(model.centroids[0], points.mean(axis=0),
                                   atol=1e-12)
        expected_inertia = ((points - points.mean(axis=0)) ** 2).sum()
        assert abs(model.inertia - expected_inertia) < 1e-9

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(7, 3))
        model = kmeans_fit(points, k=7, seed=0)
        assert model.inertia < 1e-20
        assert partition_of(assign_batch(model, points)) == frozenset(
            frozenset([i]) for i in range(7))

    def test_recovers_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        points = np.vstack([rng.normal(0, 0.5, size=(6, 4)),
                            rng.normal(30, 0.5, size=(6, 4))])
        model = kmeans_fit(points, k=2, seed=0)
        oracle_cost, oracle_partition = brute_force_two_partition(points)
        labels = assign_batch(model, points)
        assert partition_of(labels) == oracle_partition
        assert abs(model.inertia - oracle_cost) < 1e-9

    def test_bad_k(self):
        points = np.zeros((5, 3))
        with pytest.raises(ValueError):
            kmeans_fit(points, k=6)
        with pytest.raises(ValueError):
            kmeans_fit(points, k=0)

    def test_no_restarts(self):
        with pytest.raises(ValueError, match="n_restarts"):
            kmeans_fit(np.zeros((5, 3)), k=2, n_restarts=0)

    def test_lloyd_monotone_inertia(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 8))
        model = kmeans_fit(points, k=4, seed=1, n_restarts=1)
        trace = np.array(model.inertia_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_converged_state_is_fixed_point(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(50, 5))
        model = kmeans_fit(points, k=3, seed=2)
        labels = assign_batch(model, points)
        new_centroids = np.array([points[labels == j].mean(axis=0)
                                  for j in range(3)])
        new_labels = np.argmin(
            ((points[:, None, :] - new_centroids[None]) ** 2).sum(axis=2), axis=1)
        np.testing.assert_array_equal(new_labels, labels)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 6))
        a = kmeans_fit(points, k=5, seed=9)
        b = kmeans_fit(points, k=5, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        points = np.vstack([rng.normal(c, 0.5, size=(10, 4))
                            for c in (0.0, 20.0, 40.0)])
        perm = rng.permutation(30)
        a = kmeans_fit(points, k=3, seed=7)
        b = kmeans_fit(points[perm], k=3, seed=7)
        labels_a = assign_batch(a, points)
        labels_b = assign_batch(b, points[perm])
        # same partition of the original indices, possibly relabeled
        part_a = partition_of(labels_a)
        part_b = frozenset(
            frozenset(int(perm[i]) for i in group)
            for group in partition_of(labels_b))
        assert part_a == part_b
        assert abs(a.inertia - b.inertia) < 1e-10


class TestAssign:
    def test_centroid_maps_to_itself(self):
        rng = np.random.default_rng(7)
        centroids = rng.normal(size=(4, 5))
        model = KMeansModel(k=4, centroids=centroids, inertia=0.0, seed=0,
                            iterations_run=0)
        for j in range(4):
            assert assign(model, centroids[j]) == j

    def test_k1_always_zero(self):
        model = KMeansModel(k=1, centroids=np.zeros((1, 3)), inertia=0.0,
                            seed=0, iterations_run=0)
        assert assign(model, [5.0, -2.0, 1.0]) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        centroids = rng.normal(size=(6, 9))
        model = KMeansModel(k=6, centroids=centroids, inertia=0.0, seed=0,
                            iterations_run=0)
        for _ in range(50):
            seg = rng.normal(size=9)
            dists = [((seg - c) ** 2).sum() for c in centroids]
            assert assign(model, seg) == int(np.argmin(dists))

    def test_length_mismatch(self):
        model = KMeansModel(k=1, centroids=np.zeros((1, 3)), inertia=0.0,
                            seed=0, iterations_run=0)
        with pytest.raises(ShapeError):
            assign(model, [1.0, 2.0])


def test_serialization_round_trip():
    rng = np.random.default_rng(10)
    model = kmeans_fit(rng.normal(size=(20, 6)), k=3, seed=4)
    back = KMeansModel.from_json(model.to_json())
    np.testing.assert_array_equal(back.centroids, model.centroids)
    assert back.k == model.k and back.inertia == model.inertia
    assert back.iterations_run == model.iterations_run > 0
    assert back.inertia_trace == model.inertia_trace
    assert len(model.inertia_trace) == model.iterations_run + 1


def test_gemm_labels_match_broadcast_form():
    rng = np.random.default_rng(11)
    fixtures = [rng.normal(size=(60, 8))]
    for lat, lon in (synthetic_matrices(n=80, seed=3, noise=0.15),
                     two_regime_matrices(n=100)):
        fixtures += [lat.values[:24].T, lon.values[:24].T]
    for points in fixtures:
        for k in (2, 5, 10):
            model = kmeans_fit(points, k=k, seed=1)
            broadcast = np.argmin(
                ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2), axis=1)
            np.testing.assert_array_equal(assign_batch(model, points), broadcast)
