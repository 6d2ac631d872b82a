import numpy as np
import pytest

from fofcast import (CurveBundle, basis_matrix, bspline_basis, fit_fof,
                     gram_matrix, predict_trajectory)
from fofcast.errors import BasisMismatchError, SingularityError
from fofcast.ingest import DatasetMatrix, TrajectoryWindow, time_grid
from fofcast.regression import (FoFModel, fof_statistics, predict_fof_batch,
                                solve_fof)


PRED_BASIS = bspline_basis(5, (0.0, 0.6))
RESP_BASIS = bspline_basis(4, (0.7, 1.0))
RESP_GRID = np.linspace(0.7, 1.0, 8)


def synthetic_fof(n, seed=0, noise=0.0):
    """Data generated exactly from a known affine operator (the oracle)."""
    rng = np.random.default_rng(seed)
    J = gram_matrix(PRED_BASIS)
    a_true = rng.normal(size=RESP_BASIS.K)
    B_true = rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K))
    C = rng.normal(size=(PRED_BASIS.K, n))
    Theta = basis_matrix(RESP_BASIS, RESP_GRID)
    Y = Theta @ (a_true[:, None] + B_true @ (J @ C))
    if noise:
        Y = Y + rng.normal(0, noise, Y.shape)
    ids = tuple(f"S{i}" for i in range(n))
    X = CurveBundle(basis=PRED_BASIS, coefficient_matrix=C, ids=ids)
    Y_obs = DatasetMatrix(values=Y, time_grid=RESP_GRID, storm_ids=ids)
    return X, Y_obs, a_true, B_true, J


class TestFit:
    def test_generate_and_refit(self):
        X, Y_obs, a_true, B_true, J = synthetic_fof(30, seed=1)
        model = fit_fof(X, Y_obs, RESP_BASIS, ridge=0.0)
        preds = predict_fof_batch(model, X, RESP_GRID)
        np.testing.assert_allclose(preds, Y_obs.values, atol=1e-8)
        # parameters are identifiable here (n > K_t, generic curves)
        np.testing.assert_allclose(model.alpha_coeffs, a_true, atol=1e-6)
        np.testing.assert_allclose(model.B, B_true, atol=1e-6)

    def test_identical_responses_intercept_only(self):
        rng = np.random.default_rng(2)
        n = 25
        C = rng.normal(size=(PRED_BASIS.K, n))
        g = np.sin(np.linspace(0, 3, 8)) + 2.0
        Y = np.tile(g[:, None], (1, n))
        ids = tuple(f"S{i}" for i in range(n))
        X = CurveBundle(basis=PRED_BASIS, coefficient_matrix=C, ids=ids)
        Y_obs = DatasetMatrix(values=Y, time_grid=RESP_GRID, storm_ids=ids)
        Theta = basis_matrix(RESP_BASIS, RESP_GRID)
        g_fit = Theta @ np.linalg.lstsq(Theta, g, rcond=None)[0]

        model = fit_fof(X, Y_obs, RESP_BASIS, ridge=10.0)
        preds = predict_fof_batch(model, X, RESP_GRID)
        np.testing.assert_allclose(preds, np.tile(g_fit[:, None], (1, n)),
                                   atol=1e-3)
        weak = fit_fof(X, Y_obs, RESP_BASIS, ridge=1.0)
        strong = fit_fof(X, Y_obs, RESP_BASIS, ridge=1e6)
        assert np.linalg.norm(strong.B) < 1e-3 * max(np.linalg.norm(weak.B), 1e-12) + 1e-9

    def test_single_sample_singular(self):
        X, Y_obs, *_ = synthetic_fof(1, seed=3)
        with pytest.raises(SingularityError, match="ridge"):
            fit_fof(X, Y_obs, RESP_BASIS, ridge=0.0)

    def test_first_order_optimality(self):
        X, Y_obs, *_ = synthetic_fof(40, seed=4, noise=0.3)
        model = fit_fof(X, Y_obs, RESP_BASIS, ridge=0.0)

        def objective(a, B):
            preds = basis_matrix(RESP_BASIS, RESP_GRID) @ (
                a[:, None] + B @ (model.predictor_gram @ X.coefficient_matrix))
            return float(((Y_obs.values - preds) ** 2).sum())

        base = objective(model.alpha_coeffs, model.B)
        rng = np.random.default_rng(5)
        for _ in range(10):
            da = rng.normal(size=model.alpha_coeffs.shape)
            dB = rng.normal(size=model.B.shape)
            norm = np.sqrt((da**2).sum() + (dB**2).sum())
            da, dB = 1e-3 * da / norm, 1e-3 * dB / norm
            assert objective(model.alpha_coeffs + da, model.B + dB) >= base - 1e-9

    def test_gradient_matches_finite_differences(self):
        X, Y_obs, *_ = synthetic_fof(20, seed=6, noise=0.5)
        rng = np.random.default_rng(7)
        a = rng.normal(size=RESP_BASIS.K)
        B = rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K))
        Theta = basis_matrix(RESP_BASIS, RESP_GRID)
        J = gram_matrix(PRED_BASIS)
        Z = J @ X.coefficient_matrix
        W = np.vstack([np.ones((1, Z.shape[1])), Z])
        C = np.column_stack([a, B])

        def objective(Cmat):
            return float(((Y_obs.values - Theta @ Cmat @ W) ** 2).sum())

        analytic = 2.0 * Theta.T @ (Theta @ C @ W - Y_obs.values) @ W.T
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (3, 5), (2, 2)]:
            Cp, Cm = C.copy(), C.copy()
            Cp[idx] += eps
            Cm[idx] -= eps
            fd = (objective(Cp) - objective(Cm)) / (2 * eps)
            assert abs(fd - analytic[idx]) < 1e-5 * max(abs(fd), 1.0)

    def test_refit_stability(self):
        X, Y_obs, *_ = synthetic_fof(30, seed=8, noise=0.4)
        model = fit_fof(X, Y_obs, RESP_BASIS, ridge=0.0)
        fitted = predict_fof_batch(model, X, RESP_GRID)
        Y2 = DatasetMatrix(values=fitted, time_grid=RESP_GRID,
                           storm_ids=Y_obs.storm_ids)
        model2 = fit_fof(X, Y2, RESP_BASIS, ridge=0.0)
        np.testing.assert_allclose(predict_fof_batch(model2, X, RESP_GRID),
                                   fitted, atol=1e-8)


def predict_one(model, c, basis=PRED_BASIS):
    """Prediction for one coefficient vector c, through a one-column bundle."""
    bundle = CurveBundle(basis=basis, coefficient_matrix=np.asarray(c)[:, None],
                         ids=("x",))
    return predict_fof_batch(model, bundle, RESP_GRID)[:, 0]


def test_solve_fof_matches_assembled_systems():
    # the K_s (1 + K_t) normal equations (S (x) T + ridge D (x) I) vec(C) =
    # vec(R) of each group, assembled whole and solved by LU
    rng = np.random.default_rng(30)
    K_s, m, G, n = 6, 13, 5, 40
    Theta = rng.normal(size=(8, K_s))
    T = Theta.T @ Theta
    W = np.vstack([np.ones((1, G * n)), rng.normal(size=(m - 1, G * n))])
    stats = fof_statistics(W, rng.normal(size=(K_s, G * n)))
    stats = stats.reshape(G, n, m, m + K_s).sum(axis=1)
    D = np.diag(np.r_[0.0, np.ones(m - 1)])
    for ridge in (0.0, 0.1):
        C = solve_fof(stats, np.linalg.eigh(T), ridge)
        for g in range(G):
            S, R = stats[g, :, :m], stats[g, :, m:].T
            A = np.kron(S, T) + ridge * np.kron(D, np.eye(K_s))
            expected = np.linalg.solve(A, R.T.ravel()).reshape(m, K_s).T
            assert np.abs(C[g] - expected).max() <= 1e-12 * np.abs(expected).max()


class TestPredict:
    def _model(self, a, B):
        return FoFModel(predictor_basis=PRED_BASIS, response_basis=RESP_BASIS,
                        alpha_coeffs=a, B=B,
                        predictor_gram=gram_matrix(PRED_BASIS), ridge=0.0)

    def test_zero_surface_returns_intercept(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=RESP_BASIS.K)
        model = self._model(a, np.zeros((RESP_BASIS.K, PRED_BASIS.K)))
        alpha_values = basis_matrix(RESP_BASIS, RESP_GRID) @ a
        x = rng.normal(size=PRED_BASIS.K)
        np.testing.assert_allclose(predict_one(model, x),
                                   alpha_values, atol=1e-12)
        zero_x = np.zeros(PRED_BASIS.K)
        full = self._model(a, rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K)))
        np.testing.assert_allclose(predict_one(full, zero_x),
                                   alpha_values, atol=1e-12)

    def test_matches_quadrature_oracle(self):
        # yhat(s) = alpha(s) + integral beta(s,t) x(t) dt, dense trapezoid
        rng = np.random.default_rng(10)
        a = rng.normal(size=RESP_BASIS.K)
        B = rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K))
        model = self._model(a, B)
        x = rng.normal(size=PRED_BASIS.K)
        ts = np.linspace(*PRED_BASIS.domain, 10_001)
        Phi = basis_matrix(PRED_BASIS, ts)
        x_values = Phi @ x
        integral = np.trapezoid(Phi * x_values[:, None], ts, axis=0)
        Theta = basis_matrix(RESP_BASIS, RESP_GRID)
        oracle = Theta @ (a + B @ integral)
        pred = predict_one(model, x)
        np.testing.assert_allclose(pred, oracle, rtol=1e-6)

    def test_basis_mismatch(self):
        rng = np.random.default_rng(11)
        model = self._model(rng.normal(size=RESP_BASIS.K),
                            rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K)))
        other = bspline_basis(6, (0.0, 0.6))
        with pytest.raises(BasisMismatchError):
            predict_one(model, np.zeros(6), basis=other)

    def test_affine_in_input(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=RESP_BASIS.K)
        B = rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K))
        model = self._model(a, B)
        c1, c2 = rng.normal(size=PRED_BASIS.K), rng.normal(size=PRED_BASIS.K)
        alpha_values = basis_matrix(RESP_BASIS, RESP_GRID) @ a
        lhs = predict_one(model, c1 + c2)
        rhs = predict_one(model, c1) + predict_one(model, c2) - alpha_values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_model_serialization_round_trip():
    X, Y_obs, *_ = synthetic_fof(20, seed=15)
    model = fit_fof(X, Y_obs, bspline_basis(4, (0.7, 1.0)))
    back = FoFModel.from_json(model.to_json())
    assert back.predictor_basis == model.predictor_basis
    assert back.response_basis == model.response_basis
    np.testing.assert_array_equal(back.alpha_coeffs, model.alpha_coeffs)
    np.testing.assert_array_equal(back.B, model.B)
    np.testing.assert_array_equal(back.predictor_gram, model.predictor_gram)
    assert back.ridge == model.ridge


class TestTrajectory:
    grid = time_grid(32)
    pred_basis = bspline_basis(12, (float(grid[0]), float(grid[23])))
    resp_basis = bspline_basis(6, (float(grid[24]), float(grid[31])))

    def _windows(self, n, seed=13):
        rng = np.random.default_rng(seed)
        windows = []
        for i in range(n):
            lat = 12 + 10 * np.linspace(0, 1, 32) + rng.normal(0, 0.2, 32)
            lon = 140 - 5 * np.linspace(0, 1, 32) + rng.normal(0, 0.2, 32)
            windows.append(TrajectoryWindow(
                storm_id=f"W{i}", lat_series=lat, lon_series=lon,
                total_length=32, predictor_length=24))
        return windows

    def _model(self, B, seed=14):
        rng = np.random.default_rng(seed)
        return FoFModel(predictor_basis=self.pred_basis,
                        response_basis=self.resp_basis,
                        alpha_coeffs=rng.normal(size=6), B=B,
                        predictor_gram=gram_matrix(self.pred_basis), ridge=0.0)

    def test_forecast_point_count(self):
        grid = self.grid
        model = self._model(np.zeros((6, 12)))
        windows = self._windows(4)
        forecasts = predict_trajectory(model, model, windows, grid[:24], grid[24:])
        assert [fc.storm_id for fc in forecasts] == ["W0", "W1", "W2", "W3"]
        assert all(len(fc.points) == 8 for fc in forecasts)
        # intercept-only models give every storm the same forecast
        assert all(fc.points == forecasts[0].points for fc in forecasts)
        # forecasts do not depend on position within the batch
        again = predict_trajectory(model, model, windows[::-1], grid[:24], grid[24:])
        assert again[1].points == forecasts[2].points

    def test_alone_and_in_batch_agree(self):
        grid = self.grid
        lat_model = self._model(np.random.default_rng(15).normal(size=(6, 12)))
        lon_model = self._model(np.random.default_rng(16).normal(size=(6, 12)),
                                seed=17)
        windows = self._windows(4)
        batch = predict_trajectory(lat_model, lon_model, windows, grid[:24], grid[24:])
        for j, w in enumerate(windows):
            alone = predict_trajectory(lat_model, lon_model, [w], grid[:24],
                                       grid[24:])[0]
            # a one-column product runs another BLAS kernel, so the last
            # bits may differ
            np.testing.assert_allclose(alone.points, batch[j].points,
                                       rtol=0, atol=1e-9)
