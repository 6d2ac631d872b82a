import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fofcast import assign_batch, kmeans_fit, kmeans_seeds
from fofcast.clustering import KMeansModel, _lloyd
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


def lloyd_trace(points, k, seed):
    """Inertia of a single-restart fit after each of its label passes: the
    fit stopped after i passes, for i = 0 .. the passes it runs to converge."""
    full = kmeans_fit(points, k=k, seed=seed, n_restarts=1)
    return np.array([kmeans_fit(points, k=k, seed=seed, n_restarts=1, max_iter=i).inertia
                     for i in range(full.iterations_run + 1)])


def reference_labels(points, centroids):
    """Nearest centroid of each point, point-major: an n x k GEMM and ``argmin``."""
    d = points @ (-2.0 * centroids).T
    d += (centroids ** 2).sum(axis=1)
    return np.argmin(d, axis=1)


def reference_lloyd(points, centroids, max_iter):
    """Lloyd's algorithm for one restart, a pass at a time: the reference for the
    restarts that ``kmeans_fit`` steps together. Returns the final centroids and
    labels, the iterations run and the inertia."""
    k = len(centroids)
    labels = reference_labels(points, centroids)
    clusters = np.arange(k)[:, None]
    it = 0
    for it in range(1, max_iter + 1):
        counts = np.bincount(labels, minlength=k)
        new_centroids = ((labels == clusters).astype(float) @ points
                         / np.maximum(counts, 1)[:, None])
        if not counts.all():
            # reseed an empty cluster at the point farthest from its centroid
            d2 = ((points - centroids[labels]) ** 2).sum(axis=1)
            new_centroids[counts == 0] = points[int(np.argmax(d2))]
        centroids, old_labels = new_centroids, labels
        labels = reference_labels(points, centroids)
        if np.array_equal(labels, old_labels):
            break
    r = (points - centroids[labels]).ravel()
    return centroids, labels, it, float(r @ r)


def assert_restarts_match_reference(points, seeds, max_iter=100):
    """Every restart of the batch ends with the reference's labels and iterations
    and, within 1e-12 relative, its inertia; the fit's best restart is the
    reference's first of lowest inertia."""
    k = seeds.shape[1]
    reference = [reference_lloyd(points, s, max_iter) for s in seeds]
    centroids, iters, _, inertias = _lloyd(points, seeds, max_iter)
    for (_, labels, ref_iters, ref_inertia), c, it, inertia in zip(
            reference, centroids, iters, inertias):
        np.testing.assert_array_equal(reference_labels(points, c), labels)
        assert it == ref_iters
        assert abs(inertia - ref_inertia) <= 1e-12 * ref_inertia
    best = min(range(len(seeds)), key=lambda r: reference[r][3])
    model = kmeans_fit(points, k, n_restarts=len(seeds), max_iter=max_iter, init=seeds)
    assert partition_of(assign_batch(model, points)) == partition_of(reference[best][1])
    # the winner's final labels are those of its centroids
    np.testing.assert_array_equal(model.labels, assign_batch(model, points))
    assert model.iterations_run == reference[best][2]
    assert abs(model.inertia - reference[best][3]) <= 1e-12 * reference[best][3]
    return reference


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

    def test_negative_max_iter(self):
        points = np.random.default_rng(12).normal(size=(10, 2))
        with pytest.raises(ValueError, match="max_iter"):
            kmeans_fit(points, k=3, max_iter=-2)
        # no Lloyd pass: the best restart's seeds, scored as they are
        model = kmeans_fit(points, k=3, max_iter=0, n_restarts=1)
        assert model.iterations_run == 0
        np.testing.assert_array_equal(model.centroids,
                                      kmeans_seeds(points, 3, n_restarts=1)[0])

    def test_lloyd_monotone_inertia(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 8))
        model = kmeans_fit(points, k=4, seed=1, n_restarts=1)
        assert model.iterations_run > 0
        trace = lloyd_trace(points, k=4, seed=1)
        assert len(trace) == model.iterations_run + 1
        assert trace[-1] == model.inertia
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


@st.composite
def clumped_points(draw):
    """Up to 12 points of P <= 3 integer coordinates, drawn with repeats
    from at most 4 distinct rows, and a k_max <= n that can exceed the
    distinct count."""
    n, P = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    distinct = draw(st.lists(st.lists(st.integers(-3, 3), min_size=P, max_size=P),
                             min_size=1, max_size=4))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return np.array([distinct[r] for r in rows], dtype=float), draw(st.integers(1, n))


class TestSharedSeeds:
    """``kmeans_seeds`` of k_max seeds the fit of every k <= k_max as the
    fit's own seeding does."""

    @given(clumped_points(), st.integers(0, 1000), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    # one distinct point: every centre after the first is drawn with total <= 0
    @example((np.ones((5, 2)), 5), 3, 2)
    def test_prefix_fits_equal_own_fits(self, points_k_max, seed, n_restarts):
        points, k_max = points_k_max
        seeds = kmeans_seeds(points, k_max, seed, n_restarts)
        assert seeds.shape == (n_restarts, k_max, points.shape[1])
        for k in range(1, k_max + 1):
            shared = kmeans_fit(points, k, seed, n_restarts=n_restarts, init=seeds)
            own = kmeans_fit(points, k, seed, n_restarts=n_restarts)
            np.testing.assert_array_equal(shared.centroids, own.centroids)
            assert shared.inertia == own.inertia
            assert shared.iterations_run == own.iterations_run

    def test_k_max_exceeds_samples(self):
        with pytest.raises(ValueError, match="exceeds sample count"):
            kmeans_seeds(np.zeros((4, 2)), 5)

    # not 3-D, too few restarts, too few centres, centres of the wrong length
    @pytest.mark.parametrize("shape", [(3, 2), (9, 3, 2), (10, 2, 2), (10, 3, 3)])
    def test_malformed_init(self, shape):
        points = np.random.default_rng(13).normal(size=(8, 2))
        with pytest.raises(ShapeError, match="init"):
            kmeans_fit(points, k=3, n_restarts=10, init=np.zeros(shape))


class TestAssign:
    @staticmethod
    def _model(centroids):
        return KMeansModel(centroids=centroids, inertia=0.0, iterations_run=0,
                           labels=np.zeros(0, np.intp))

    def test_centroid_maps_to_itself(self):
        rng = np.random.default_rng(7)
        centroids = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(
            assign_batch(self._model(centroids), centroids), np.arange(4))

    def test_k1_always_zero(self):
        model = self._model(np.zeros((1, 3)))
        np.testing.assert_array_equal(assign_batch(model, [[5.0, -2.0, 1.0]]), [0])

    def test_ties_go_to_lowest_index(self):
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        labels = assign_batch(self._model(centroids), [[0.0, 3.0], [1.0, 0.0]])
        np.testing.assert_array_equal(labels, [0, 0])

    def test_nan_segment_keeps_labels_in_range(self):
        rng = np.random.default_rng(8)
        centroids = rng.normal(size=(4, 3))
        segments = rng.normal(size=(6, 3))
        segments[2, 1] = np.nan
        labels = assign_batch(self._model(centroids), segments)
        assert labels[2] == 3
        np.testing.assert_array_equal(
            np.delete(labels, 2), assign_batch(self._model(centroids), np.delete(segments, 2, 0)))
        # the NaN point's cluster gets a NaN centre, and the columns no minimum;
        # a cluster left empty is still reseeded at a point
        model = kmeans_fit(segments, k=3, n_restarts=1, init=segments[None, [0, 1, 3]])
        labels = assign_batch(model, segments)
        assert ((labels >= 0) & (labels < 3)).all()

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(8)
        centroids = rng.normal(size=(6, 9))
        segments = rng.normal(size=(50, 9))
        expected = [int(np.argmin([((seg - c) ** 2).sum() for c in centroids]))
                    for seg in segments]
        np.testing.assert_array_equal(
            assign_batch(self._model(centroids), segments), expected)

    def test_length_mismatch(self):
        model = self._model(np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            assign_batch(model, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            assign_batch(model, [1.0, 2.0, 3.0])


def gemm_fixtures():
    rng = np.random.default_rng(11)
    fixtures = [rng.normal(size=(60, 8))]
    for lat, lon in (synthetic_matrices(n=80, seed=3, noise=0.15),
                     two_regime_matrices(n=100)):
        fixtures += [lat.values[:24].T, lon.values[:24].T]
    return fixtures


def test_gemm_labels_match_broadcast_form():
    for points in gemm_fixtures():
        for k in (2, 5, 10):
            model = kmeans_fit(points, k=k, seed=1)
            broadcast = np.argmin(
                ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2), axis=1)
            np.testing.assert_array_equal(assign_batch(model, points), broadcast)


class TestLockstepRestarts:
    """The restarts of one k, stepped together, each follow the one-restart
    reference: the label pass and the update differ from it only in rounding."""

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_restarts_match_reference(self, k):
        for points in gemm_fixtures():
            seeds = kmeans_seeds(points, k, seed=1)
            assert_restarts_match_reference(points, seeds)
            # a restart run alone ends as it does inside the batch
            centroids, iters, *_ = _lloyd(points, seeds, 100)
            for r in range(len(seeds)):
                alone = kmeans_fit(points, k, n_restarts=1, init=seeds[r:r + 1])
                assert partition_of(assign_batch(alone, points)) == partition_of(
                    reference_labels(points, centroids[r]))
                assert alone.iterations_run == iters[r]

    def test_one_restart_empties_a_cluster(self):
        points = gemm_fixtures()[0]
        seeds = kmeans_seeds(points, 5, seed=1)
        # restart 1 starts with a duplicate centre, which the first pass leaves empty
        seeds[1, 3] = seeds[1, 0]
        labels = reference_labels(points, seeds[1])
        assert np.flatnonzero(np.bincount(labels, minlength=5) == 0).tolist() == [3]
        assert all(np.bincount(reference_labels(points, s), minlength=5).all()
                   for s in np.delete(seeds, 1, axis=0))
        # the point farthest from its old centre, where the empty one is reseeded,
        # is not the one farthest from its cluster's mean
        means = np.array([points[labels == j].mean(axis=0) if j != 3 else seeds[1, 3]
                          for j in range(5)])
        assert (np.argmax(((points - seeds[1, labels]) ** 2).sum(axis=1))
                != np.argmax(((points - means[labels]) ** 2).sum(axis=1)))
        assert_restarts_match_reference(points, seeds)

    def test_no_pass(self):
        points = gemm_fixtures()[0]
        seeds = kmeans_seeds(points, 5, seed=1)
        reference = assert_restarts_match_reference(points, seeds, max_iter=0)
        model = kmeans_fit(points, 5, max_iter=0, init=seeds)
        best = min(range(len(seeds)), key=lambda r: reference[r][3])
        np.testing.assert_array_equal(model.centroids, seeds[best])
        assert model.iterations_run == 0

    def test_cap_that_some_restarts_reach(self):
        points = gemm_fixtures()[0]
        seeds = kmeans_seeds(points, 5, seed=1)
        converged = [reference_lloyd(points, s, 100)[2] for s in seeds]
        cap = int(np.median(converged))
        assert min(converged) < cap < max(converged)
        reference = assert_restarts_match_reference(points, seeds, max_iter=cap)
        assert [it for *_, it, _ in reference] == [min(it, cap) for it in converged]
