"""Function-on-function regression linking predictor and response curves.

The response at s is modeled as alpha(s) + integral of beta(s, t) x(t) dt.
Expanding alpha on the response basis theta and beta on the tensor product
theta x phi turns the integral into matrix algebra: with J the predictor
Gram matrix and c the predictor coefficients,

    yhat(s) = theta(s)' (a + B J c).

Intercept a and coefficient matrix B are fitted jointly by (ridge) least
squares against the raw response grid values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (BasisSystem, CurveBundle, basis_matrix, fit_coefficients,
                    gram_matrix)
from .errors import BasisMismatchError, ShapeError, SingularityError
from .ingest import DatasetMatrix, TrajectoryWindow


@dataclass(frozen=True)
class FoFModel:
    """Fitted function-on-function regression model."""

    predictor_basis: BasisSystem
    response_basis: BasisSystem
    alpha_coeffs: np.ndarray          # length K_s, intercept curve
    B: np.ndarray                     # K_s x K_t, coefficient surface
    predictor_gram: np.ndarray        # K_t x K_t
    ridge: float

    def __post_init__(self):
        K_s, K_t = self.response_basis.K, self.predictor_basis.K
        if self.alpha_coeffs.shape != (K_s,):
            raise ShapeError("alpha coefficient length does not match response basis")
        if self.B.shape != (K_s, K_t):
            raise ShapeError("B shape does not match basis dimensions")
        if self.predictor_gram.shape != (K_t, K_t):
            raise ShapeError("Gram matrix shape does not match predictor basis")

    def to_json(self) -> str:
        return json.dumps({
            "predictor_basis": self.predictor_basis.to_dict(),
            "response_basis": self.response_basis.to_dict(),
            "alpha": self.alpha_coeffs.tolist(),
            "B": {"shape": list(self.B.shape), "data": self.B.ravel().tolist()},
            "gram": self.predictor_gram.ravel().tolist(),
            "ridge": self.ridge,
        })

    @staticmethod
    def from_json(text: str) -> "FoFModel":
        d = json.loads(text)
        pb = BasisSystem.from_dict(d["predictor_basis"])
        rb = BasisSystem.from_dict(d["response_basis"])
        B = np.array(d["B"]["data"]).reshape(d["B"]["shape"])
        return FoFModel(
            predictor_basis=pb, response_basis=rb,
            alpha_coeffs=np.array(d["alpha"]), B=B,
            predictor_gram=np.array(d["gram"]).reshape(pb.K, pb.K),
            ridge=d["ridge"],
        )


@dataclass(frozen=True)
class TrajectoryForecast:
    """Forecast (lat, lon) points at the response grid for one storm."""

    storm_id: str
    points: tuple[tuple[float, float], ...]


def design(Z: np.ndarray, center: np.ndarray | float) -> np.ndarray:
    """Regressors w = [1; z - center] for the columns z = J c of Z. Centring
    leaves the fit the same problem (the unpenalized intercept absorbs
    B center) and conditions it far better, as tracks share a large level."""
    return np.vstack([np.ones((1, Z.shape[1])), Z - np.reshape(center, (-1, 1))])


def fof_statistics(W: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Per-storm terms w [w; u]' of the normal equations, n x m x (m + K_s),
    for the columns w of W and u = Theta'y of U; a model sums its storms'."""
    return np.einsum("in,jn->nij", W, np.vstack([W, U]))


def solve_fof(stats: np.ndarray, eig: tuple[np.ndarray, np.ndarray],
              ridge: float) -> np.ndarray:
    """C = [a | B] (G x K_s x m) of G models from summed ``fof_statistics``.

    With S = sum w w', R = sum u w' and T = Theta'Theta = V diag(lam) V'
    (``eig``, from ``np.linalg.eigh(T)``), the normal equations (S (x) T +
    ridge * D (x) I) vec(C) = vec(R), with D penalizing only B, split into
    K_s systems (lam_k S + ridge * D) c_k = (V'R)_k for the rows c_k of V'C.
    Each is positive definite exactly when the whole system is; its
    Cholesky factor is solved by forward and back substitution.
    """
    lam, V = eig
    m = stats.shape[1]
    A = lam[:, None, None] * stats[:, None, :, :m]       # G x K_s x m x m
    A[..., np.arange(1, m), np.arange(1, m)] += ridge     # penalizes B only
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "function-on-function design is rank deficient (too few samples "
            "or degenerate predictors); use ridge > 0") from exc
    del A
    L = np.moveaxis(L, (-2, -1), (0, 1)).copy()          # unknowns first
    x = np.moveaxis(stats[:, :, m:] @ V, 1, 0).copy()    # (V'R)', m x G x K_s
    for j in range(m):                                    # L y = V'R
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in range(m - 1, -1, -1):                        # L' c = y
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return V @ x.transpose(1, 2, 0)


def fit_fof(X: CurveBundle, Y_obs: DatasetMatrix, response_basis: BasisSystem,
            ridge: float = 1e-8,
            predictor_gram: np.ndarray | None = None) -> FoFModel:
    """Fit intercept and coefficient surface by joint penalized least squares.

    Minimizes sum_ij (y_i(s_j) - theta(s_j)'a - theta(s_j)'B J c_i)^2
    + ridge * ||B||_F^2 over (a, B): ``solve_fof`` with one group.
    """
    if Y_obs.values.shape[1] != X.coefficient_matrix.shape[1]:
        raise ShapeError("predictor and response sample counts differ")
    if predictor_gram is None:
        predictor_gram = gram_matrix(X.basis)
    Theta = basis_matrix(response_basis, Y_obs.time_grid)      # q x K_s
    Z = predictor_gram @ X.coefficient_matrix
    z_mean = Z.mean(axis=1)
    stats = fof_statistics(design(Z, z_mean), Theta.T @ Y_obs.values)
    C = solve_fof(stats.sum(axis=0, keepdims=True), np.linalg.eigh(Theta.T @ Theta),
                  ridge)[0]
    return FoFModel(
        predictor_basis=X.basis, response_basis=response_basis,
        alpha_coeffs=C[:, 0] - C[:, 1:] @ z_mean, B=C[:, 1:].copy(),
        predictor_gram=predictor_gram, ridge=ridge,
    )


def fof_forecast(coefficients: np.ndarray, theta: np.ndarray,
                 W: np.ndarray) -> np.ndarray:
    """q x n forecasts theta C w for the columns w of W (``design``), with
    one C = [a | B] for all columns or one per column (n x K_s x m); each
    column is its own product, independent of the others."""
    return theta @ (coefficients @ W.T[:, :, None])[:, :, 0].T


def predict_fof_batch(model: FoFModel, X: CurveBundle,
                      response_grid: Sequence[float]) -> np.ndarray:
    """q x n matrix of predictions for every curve in the bundle."""
    if X.basis != model.predictor_basis:
        raise BasisMismatchError("bundle basis differs from model's predictor basis")
    return fof_forecast(np.column_stack([model.alpha_coeffs, model.B]),
                        basis_matrix(model.response_basis, response_grid),
                        design(model.predictor_gram @ X.coefficient_matrix, 0.0))


def predict_trajectory(lat_model: FoFModel, lon_model: FoFModel,
                       windows: Sequence[TrajectoryWindow],
                       predictor_grid: Sequence[float],
                       response_grid: Sequence[float],
                       fit_ridge: float = 0.0) -> list[TrajectoryForecast]:
    """Forecast storms: represent their predictor segments, apply both models.

    Each coordinate takes one curve fit and one forecast over all windows.
    """
    ids = tuple(w.storm_id for w in windows)
    hats = []
    for model, segments in ((lat_model, [w.lat_predictor for w in windows]),
                            (lon_model, [w.lon_predictor for w in windows])):
        coeffs = fit_coefficients(model.predictor_basis, predictor_grid,
                                  np.column_stack(segments), ridge=fit_ridge)
        hats.append(predict_fof_batch(
            model, CurveBundle(model.predictor_basis, coeffs, ids), response_grid))
    return [TrajectoryForecast(storm_id=sid,
                               points=tuple(zip(lat.tolist(), lon.tolist())))
            for sid, lat, lon in zip(ids, hats[0].T, hats[1].T)]
