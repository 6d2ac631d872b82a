import json

import numpy as np
import pytest

from fofcast import (basis_matrix, bspline_basis, fit_fof, gram_matrix,
                     predict_trajectory)
from fofcast.errors import ShapeError, SingularityError
from fofcast.ingest import time_grid
from fofcast.regression import (FoFModel, design, fof_forecast, fof_statistics,
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
    return C, Y, a_true, B_true, J


def fit(C, Y, ridge, response_basis=RESP_BASIS):
    """``fit_fof`` on predictor coefficients C and responses Y on RESP_GRID."""
    return fit_fof(PRED_BASIS, C, response_basis, RESP_GRID, Y, ridge=ridge)


def forecast(model, C):
    """q x n forecasts of a model for the predictor coefficient columns C,
    by the expression ``predict_trajectory`` applies after its curve fit."""
    return fof_forecast(model.coefficients, basis_matrix(model.response_basis, RESP_GRID),
                        design(gram_matrix(model.predictor_basis) @ C, model.center))


def uncentred(model):
    """Intercept a and surface B of yhat = theta'(a + B J c)."""
    B = model.coefficients[:, 1:]
    return model.coefficients[:, 0] - B @ model.center, B


class TestFit:
    def test_generate_and_refit(self):
        X, Y, a_true, B_true, J = synthetic_fof(30, seed=1)
        model = fit(X, Y, ridge=0.0)
        preds = forecast(model, X)
        np.testing.assert_allclose(preds, Y, atol=1e-8)
        # parameters are identifiable here (n > K_t, generic curves)
        alpha, B = uncentred(model)
        np.testing.assert_allclose(alpha, a_true, atol=1e-6)
        np.testing.assert_allclose(B, B_true, atol=1e-6)

    def test_identical_responses_intercept_only(self):
        rng = np.random.default_rng(2)
        n = 25
        C = rng.normal(size=(PRED_BASIS.K, n))
        g = np.sin(np.linspace(0, 3, 8)) + 2.0
        Y = np.tile(g[:, None], (1, n))
        Theta = basis_matrix(RESP_BASIS, RESP_GRID)
        g_fit = Theta @ np.linalg.lstsq(Theta, g, rcond=None)[0]

        model = fit(C, Y, ridge=10.0)
        preds = forecast(model, C)
        np.testing.assert_allclose(preds, np.tile(g_fit[:, None], (1, n)),
                                   atol=1e-3)
        weak = fit(C, Y, ridge=1.0)
        strong = fit(C, Y, ridge=1e6)
        strong_B, weak_B = strong.coefficients[:, 1:], weak.coefficients[:, 1:]
        assert np.linalg.norm(strong_B) < 1e-3 * max(np.linalg.norm(weak_B), 1e-12) + 1e-9

    def test_single_sample_singular(self):
        X, Y, *_ = synthetic_fof(1, seed=3)
        with pytest.raises(SingularityError, match="ridge"):
            fit(X, Y, ridge=0.0)

    def test_bad_shapes_rejected(self):
        X, Y, *_ = synthetic_fof(6, seed=3)
        with pytest.raises(ShapeError, match="basis dimension"):
            fit(X[1:], Y, ridge=0.0)
        with pytest.raises(ShapeError, match="sample counts"):
            fit(X, Y[:, 1:], ridge=0.0)

    def test_first_order_optimality(self):
        X, Y, *_ = synthetic_fof(40, seed=4, noise=0.3)
        model = fit(X, Y, ridge=0.0)
        alpha, B = uncentred(model)

        def objective(a, B):
            preds = basis_matrix(RESP_BASIS, RESP_GRID) @ (
                a[:, None] + B @ (gram_matrix(PRED_BASIS) @ X))
            return float(((Y - preds) ** 2).sum())

        base = objective(alpha, B)
        rng = np.random.default_rng(5)
        for _ in range(10):
            da = rng.normal(size=alpha.shape)
            dB = rng.normal(size=B.shape)
            norm = np.sqrt((da**2).sum() + (dB**2).sum())
            da, dB = 1e-3 * da / norm, 1e-3 * dB / norm
            assert objective(alpha + da, B + dB) >= base - 1e-9

    def test_gradient_matches_finite_differences(self):
        X, Y, *_ = synthetic_fof(20, seed=6, noise=0.5)
        rng = np.random.default_rng(7)
        a = rng.normal(size=RESP_BASIS.K)
        B = rng.normal(size=(RESP_BASIS.K, PRED_BASIS.K))
        Theta = basis_matrix(RESP_BASIS, RESP_GRID)
        J = gram_matrix(PRED_BASIS)
        Z = J @ X
        W = np.vstack([np.ones((1, Z.shape[1])), Z])
        C = np.column_stack([a, B])

        def objective(Cmat):
            return float(((Y - Theta @ Cmat @ W) ** 2).sum())

        analytic = 2.0 * Theta.T @ (Theta @ C @ W - Y) @ W.T
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (3, 5), (2, 2)]:
            Cp, Cm = C.copy(), C.copy()
            Cp[idx] += eps
            Cm[idx] -= eps
            fd = (objective(Cp) - objective(Cm)) / (2 * eps)
            assert abs(fd - analytic[idx]) < 1e-5 * max(abs(fd), 1.0)

    def test_refit_stability(self):
        X, Y, *_ = synthetic_fof(30, seed=8, noise=0.4)
        model = fit(X, Y, ridge=0.0)
        fitted = forecast(model, X)
        model2 = fit(X, fitted, ridge=0.0)
        np.testing.assert_allclose(forecast(model2, X), fitted, atol=1e-8)


def predict_one(model, c):
    """Prediction for one coefficient vector c, as a one-column batch."""
    return forecast(model, np.asarray(c)[:, None])[:, 0]


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
        # regressors centred on 0: a is the intercept of yhat = theta'(a + B J c)
        return FoFModel(predictor_basis=PRED_BASIS, response_basis=RESP_BASIS,
                        coefficients=np.column_stack([a, B]),
                        center=np.zeros(PRED_BASIS.K))

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
    X, Y, *_ = synthetic_fof(20, seed=15)
    model = fit(X, Y, ridge=1e-8, response_basis=bspline_basis(4, (0.7, 1.0)))
    back = FoFModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert back.predictor_basis == model.predictor_basis
    assert back.response_basis == model.response_basis
    np.testing.assert_array_equal(back.coefficients, model.coefficients)
    np.testing.assert_array_equal(back.center, model.center)


class TestTrajectory:
    grid = time_grid(32)
    pred_basis = bspline_basis(12, (float(grid[0]), float(grid[23])))
    resp_basis = bspline_basis(6, (float(grid[24]), float(grid[31])))

    def _predictors(self, n, seed=13):
        """P x n latitude and longitude predictor segments."""
        rng = np.random.default_rng(seed)
        lat = 12 + 10 * np.linspace(0, 1, 32)[:, None] + rng.normal(0, 0.2, (32, n))
        lon = 140 - 5 * np.linspace(0, 1, 32)[:, None] + rng.normal(0, 0.2, (32, n))
        return lat[:24], lon[:24]

    def _model(self, B, seed=14):
        rng = np.random.default_rng(seed)
        return FoFModel(predictor_basis=self.pred_basis,
                        response_basis=self.resp_basis,
                        coefficients=np.column_stack([rng.normal(size=6), B]),
                        center=np.zeros(12))

    def test_forecast_point_count(self):
        grid = self.grid
        model = self._model(np.zeros((6, 12)))
        lat, lon = self._predictors(4)
        lat_hat, lon_hat = predict_trajectory(model, model, lat, lon, grid[:24],
                                              grid[24:])
        assert lat_hat.shape == lon_hat.shape == (8, 4)
        # intercept-only models give every storm the same forecast
        assert np.all(lat_hat == lat_hat[:, :1]) and np.all(lon_hat == lon_hat[:, :1])
        # forecasts do not depend on position within the batch
        again = predict_trajectory(model, model, lat[:, ::-1], lon[:, ::-1],
                                   grid[:24], grid[24:])
        np.testing.assert_array_equal(again[0][:, 1], lat_hat[:, 2])
        np.testing.assert_array_equal(again[1][:, 1], lon_hat[:, 2])

    def test_alone_and_in_batch_agree(self):
        grid = self.grid
        lat_model = self._model(np.random.default_rng(15).normal(size=(6, 12)))
        lon_model = self._model(np.random.default_rng(16).normal(size=(6, 12)),
                                seed=17)
        lat, lon = self._predictors(4)
        batch = predict_trajectory(lat_model, lon_model, lat, lon, grid[:24], grid[24:])
        for j in range(4):
            alone = predict_trajectory(lat_model, lon_model, lat[:, [j]],
                                       lon[:, [j]], grid[:24], grid[24:])
            # a one-column product runs another BLAS kernel, so the last
            # bits may differ
            for a, b in zip(alone, batch):
                np.testing.assert_allclose(a[:, 0], b[:, j], rtol=0, atol=1e-9)
