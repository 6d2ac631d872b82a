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


def fit_fof(X: CurveBundle, Y_obs: DatasetMatrix, response_basis: BasisSystem,
            ridge: float = 1e-8,
            predictor_gram: np.ndarray | None = None) -> FoFModel:
    """Fit intercept and coefficient surface by joint penalized least squares.

    Minimizes sum_ij (y_i(s_j) - theta(s_j)'a - theta(s_j)'B J c_i)^2
    + ridge * ||B||_F^2 over (a, B).
    """
    n = X.coefficient_matrix.shape[1]
    if Y_obs.values.shape[1] != n:
        raise ShapeError("predictor and response sample counts differ")
    if predictor_gram is None:
        predictor_gram = gram_matrix(X.basis)
    K_t = X.basis.K
    K_s = response_basis.K
    Theta = basis_matrix(response_basis, Y_obs.time_grid)      # q x K_s
    Z = predictor_gram @ X.coefficient_matrix                  # K_t x n
    W = np.vstack([np.ones((1, n)), Z])                        # (1+K_t) x n

    # normal equations for vec(C), C = [a | B] of shape K_s x (1+K_t):
    #   (WW' (x) Theta'Theta + ridge * D) vec(C) = vec(Theta' Y W')
    # with D penalizing only the B block.
    G = np.kron(W @ W.T, Theta.T @ Theta)
    penalty = np.repeat(np.concatenate([[0.0], np.ones(K_t)]), K_s)
    A = G + ridge * np.diag(penalty)
    rhs = (Theta.T @ Y_obs.values @ W.T).reshape(-1, order="F")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "function-on-function design is rank deficient (too few samples "
            "or degenerate predictors); use ridge > 0") from exc
    vec_C = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    C = vec_C.reshape(K_s, 1 + K_t, order="F")
    return FoFModel(
        predictor_basis=X.basis, response_basis=response_basis,
        alpha_coeffs=C[:, 0].copy(), B=C[:, 1:].copy(),
        predictor_gram=predictor_gram, ridge=ridge,
    )


def fof_forecast(model: FoFModel, theta: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """q x n forecasts theta (a + B z) for the columns z = J c of Z.

    ``theta`` is the response basis evaluated at the response grid (q x K_s).
    """
    return theta @ (model.alpha_coeffs[:, None] + model.B @ Z)


def predict_fof_batch(model: FoFModel, X: CurveBundle,
                      response_grid: Sequence[float]) -> np.ndarray:
    """q x n matrix of predictions for every curve in the bundle."""
    if X.basis != model.predictor_basis:
        raise BasisMismatchError("bundle basis differs from model's predictor basis")
    return fof_forecast(model, basis_matrix(model.response_basis, response_grid),
                        model.predictor_gram @ X.coefficient_matrix)


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
