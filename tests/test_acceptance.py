"""Acceptance criteria, one test per criterion, one PASS line each.

Criteria 1-3 and 5 need the full RSMC best-track archive and are skipped
when it is absent (see conftest.archive_path). The synthetic-oracle and
property criteria run everywhere.
"""

import time

import numpy as np
import pytest

from fofcast import (ExperimentConfig, basis_matrix, bspline_basis,
                     filter_min_length, fit_coefficients, gram_matrix,
                     haversine, kmeans_fit,
                     length_study, parse_rsmc, repeated_simulation, time_grid,
                     train_test_split)
from fofcast.clustering import assign_batch
from fofcast.experiment import EARTH_RADIUS_KM, SplitRunner, make_bases
from fofcast.ingest import DatasetMatrix
from fofcast.regression import design, fit_fof, fof_forecast

from conftest import (archive_path, requires_archive, synthetic_matrices,
                      two_regime_matrices)
from test_clustering import brute_force_two_partition, lloyd_trace, partition_of


@pytest.fixture(scope="module")
def archive_storms():
    path = archive_path()
    t0 = time.perf_counter()
    storms = parse_rsmc(path.read_text())
    return storms, time.perf_counter() - t0


@pytest.fixture(scope="module")
def archive_full_run(archive_storms):
    """Full protocol: L=32, P=24, 8:2 split, 10 reps, 10x10 grid."""
    from fofcast import build_matrices, extract_tail
    storms, _ = archive_storms
    subset = filter_min_length(storms, 32)
    windows = [extract_tail(s, 32, 24) for s in subset]
    lat, lon = build_matrices(windows)
    config = ExperimentConfig()
    return repeated_simulation(lat, lon, config)


@requires_archive
def test_criterion_1_golden_counts(archive_storms):
    storms, elapsed = archive_storms
    n_records = sum(len(s) for s in storms)
    assert len(storms) == 1894, f"expected 1894 storms, parsed {len(storms)}"
    assert n_records == 71088, f"expected 71088 records, parsed {n_records}"
    assert len(filter_min_length(storms, 32)) == 1107
    assert len(filter_min_length(storms, 40)) == 709
    assert len(filter_min_length(storms, 48)) == 425
    assert elapsed < 5.0, f"parse took {elapsed:.1f}s, budget is 5s"
    print("ACCEPTANCE 1 (golden counts): PASS")


@requires_archive
def test_criterion_2_paired_improvement(archive_full_run):
    report = archive_full_run
    reduction = 1.0 - report.best_error / report.global_mean
    assert reduction >= 0.25, (
        f"best clustered {report.best_error:.2f} km is only "
        f"{100 * reduction:.1f}% below global {report.global_mean:.2f} km")
    print("ACCEPTANCE 2 (paired improvement >= 25%): PASS")


@requires_archive
def test_criterion_3_magnitude_band(archive_full_run):
    report = archive_full_run
    assert 300.0 <= report.global_mean <= 700.0, report.global_mean
    assert 180.0 <= report.best_error <= 450.0, report.best_error
    print("ACCEPTANCE 3 (magnitude bands): PASS")


def test_criterion_4_grid_identity():
    lat, lon = synthetic_matrices(n=60, seed=40, noise=0.2)
    config = ExperimentConfig(n_repetitions=3, k_lat_max=2, k_lon_max=2)
    report = repeated_simulation(lat, lon, config)
    for trace in report.repetition_traces:
        assert trace["cells"][0][0] == trace["global_error"]
    print("ACCEPTANCE 4 (grid cell (1,1) == global, bit-for-bit): PASS")


@requires_archive
def test_criterion_5_length_trend(archive_storms):
    storms, _ = archive_storms
    subset_48 = filter_min_length(storms, 48)
    config = ExperimentConfig()
    entries = [e for e in length_study(subset_48, config, lengths=(32, 40, 48))
               if e.min_records == 48]
    errors = {e.total_len: e.report.best_error for e in entries}
    seq = [errors[32], errors[40], errors[48]]
    inversions = [(a - b) / a for a, b in zip(seq, seq[1:]) if b < a]
    assert len(inversions) <= 1 and all(inv <= 0.05 for inv in inversions), seq
    print("ACCEPTANCE 5 (length study trend on 425-storm subset): PASS")


class TestCriterion6SyntheticOracles:
    def test_a_generator_refit(self):
        # exact data from a known affine operator; noise-free refit is exact
        n, L, P = 400, 32, 24
        config = ExperimentConfig(n_repetitions=1)
        grid = time_grid(L)
        pred_basis, resp_basis = make_bases(config)
        rng = np.random.default_rng(60)
        J = gram_matrix(pred_basis)
        Theta = basis_matrix(resp_basis, grid[P:])
        Phi = basis_matrix(pred_basis, grid[:P])
        ids = tuple(f"G{i}" for i in range(n))

        def coordinate(center, scale):
            a = center + rng.normal(size=resp_basis.K)
            B = rng.normal(size=(resp_basis.K, pred_basis.K)) * scale
            C = center + rng.normal(size=(pred_basis.K, n))
            values = np.vstack([Phi @ C, Theta @ (a[:, None] + B @ (J @ C))])
            return values

        lat = DatasetMatrix(values=coordinate(20.0, 0.3), storm_ids=ids)
        lon = DatasetMatrix(values=coordinate(140.0, 0.3), storm_ids=ids)
        train_idx, test_idx = train_test_split(n, 0.8, seed=0)

        for coord_mat in (lat, lon):
            x_train = DatasetMatrix(
                values=coord_mat.values[:P, train_idx],
                storm_ids=tuple(ids[i] for i in train_idx))
            from fofcast import fit_bundle
            X = fit_bundle(pred_basis, grid[:P], x_train)
            y_train = coord_mat.values[P:, train_idx]
            coefficients, center = fit_fof(pred_basis, X, resp_basis, grid[P:],
                                           y_train, ridge=0.0)
            train_pred = fof_forecast(coefficients, Theta, design(J @ X, center))
            train_rms = np.sqrt(np.mean((train_pred - y_train) ** 2))
            x_test = DatasetMatrix(
                values=coord_mat.values[:P, test_idx],
                storm_ids=tuple(ids[i] for i in test_idx))
            X_test = fit_bundle(pred_basis, grid[:P], x_test)
            test_pred = fof_forecast(coefficients, Theta, design(J @ X_test, center))
            test_rms = np.sqrt(np.mean(
                (test_pred - coord_mat.values[P:, test_idx]) ** 2))
            assert train_rms < 1e-6, train_rms
            assert test_rms < 1e-6, test_rms
        print("ACCEPTANCE 6a (generator refit, RMS < 1e-6): PASS")

    def test_b_two_regime_recovery(self):
        lat, lon = two_regime_matrices(n=100)
        config = ExperimentConfig(n_repetitions=1, k_lat_max=2, k_lon_max=2)
        train, test = train_test_split(lat.n_storms, 0.8, seed=0)
        runner = SplitRunner(lat, lon, train, test, config)
        global_err = runner.global_errors().mean()
        clustered_err = runner.clustered_errors(2, 2).mean()
        assert clustered_err < 0.5 * global_err, (clustered_err, global_err)
        print("ACCEPTANCE 6b (two-regime recovery): PASS")

    def test_c_haversine_oracle(self):
        # independent oracle: the atan2 form of the great-circle distance
        def vincenty_sphere_km(lat1, lon1, lat2, lon2):
            phi1, phi2 = np.radians(lat1), np.radians(lat2)
            dlam = np.radians(lon2 - lon1)
            num = np.hypot(
                np.cos(phi2) * np.sin(dlam),
                np.cos(phi1) * np.sin(phi2)
                - np.sin(phi1) * np.cos(phi2) * np.cos(dlam))
            den = (np.sin(phi1) * np.sin(phi2)
                   + np.cos(phi1) * np.cos(phi2) * np.cos(dlam))
            return EARTH_RADIUS_KM * np.arctan2(num, den)

        rng = np.random.default_rng(61)
        # 10,000 pairs, one (lat1, lon1, lat2, lon2) row each
        pairs = rng.uniform([-90, 0, -90, 0], [90, 360, 90, 360], size=(10_000, 4)).T
        d = haversine(*pairs)
        oracle = vincenty_sphere_km(*pairs)
        assert d.shape == (10_000,)
        assert np.all(np.abs(d - oracle) <= 1e-6 * np.maximum(oracle, 1e-9))
        assert haversine(12.3, 222.2, 12.3, 222.2) == 0.0
        anti = haversine(0.0, 0.0, 0.0, 180.0)
        assert abs(anti - np.pi * EARTH_RADIUS_KM) < 1e-9
        print("ACCEPTANCE 6c (haversine vs independent oracle): PASS")

    def test_d_kmeans_exhaustive(self):
        rng = np.random.default_rng(62)
        points = np.vstack([rng.normal(0, 1.0, size=(6, 4)),
                            rng.normal(25, 1.0, size=(6, 4))])
        model = kmeans_fit(points, k=2, seed=0)
        _, oracle_partition = brute_force_two_partition(points)
        assert partition_of(assign_batch(model, points)) == oracle_partition
        print("ACCEPTANCE 6d (k-means vs exhaustive partition): PASS")


class TestCriterion7Properties:
    def test_partition_of_unity(self):
        basis = bspline_basis(12, (0.0, 1.0))
        rng = np.random.default_rng(70)
        ts = rng.uniform(1e-9, 1 - 1e-9, size=1000)
        sums = basis_matrix(basis, ts).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12
        print("ACCEPTANCE 7 (partition of unity): PASS")

    def test_projection_orthogonality_and_idempotence(self):
        rng = np.random.default_rng(71)
        basis = bspline_basis(12, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        Phi = basis_matrix(basis, grid)
        x = rng.normal(size=24) * 40
        coeffs = fit_coefficients(basis, grid, x)
        resid = Phi.T @ (x - Phi @ coeffs)
        assert np.abs(resid).max() < 1e-8 * np.abs(x).max()
        refit = fit_coefficients(basis, grid, Phi @ coeffs)
        assert np.abs(refit - coeffs).max() < 1e-10
        print("ACCEPTANCE 7 (projection orthogonality/idempotence): PASS")

    def test_lloyd_monotone_and_fixed_point(self):
        rng = np.random.default_rng(72)
        points = rng.normal(size=(80, 10))
        model = kmeans_fit(points, k=5, seed=3, n_restarts=1)
        trace = lloyd_trace(points, k=5, seed=3)
        assert len(trace) == model.iterations_run + 1
        assert np.all(np.diff(trace) <= 1e-9)
        labels = assign_batch(model, points)
        means = np.array([points[labels == j].mean(axis=0) for j in range(5)])
        relabeled = np.argmin(
            ((points[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        np.testing.assert_array_equal(relabeled, labels)
        print("ACCEPTANCE 7 (Lloyd monotonicity and fixed point): PASS")

    def test_gram_symmetry_psd(self):
        for K in (6, 12, 18):
            J = gram_matrix(bspline_basis(K, (0.0, 1.0)))
            assert np.abs(J - J.T).max() < 1e-14
            assert np.linalg.eigvalsh(J).min() >= -1e-12
        print("ACCEPTANCE 7 (Gram symmetry and PSD): PASS")

    def test_full_pipeline_determinism(self):
        lat, lon = synthetic_matrices(n=50, seed=73, noise=0.2)
        config = ExperimentConfig(n_repetitions=2, k_lat_max=2, k_lon_max=2)
        a = repeated_simulation(lat, lon, config)
        b = repeated_simulation(lat, lon, config)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()
        print("ACCEPTANCE 7 (full-pipeline determinism): PASS")
