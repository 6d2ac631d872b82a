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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisSystem, basis_matrix, fit_coefficients, gram_matrix
from .errors import ShapeError, SingularityError


@dataclass(frozen=True)
class FoFModel:
    """Fitted function-on-function regression model, in the form the grid
    engine solves and scores: the forecast of a predictor curve c is
    theta' C w with w = ``design(J c, center)``, J the predictor basis's
    Gram matrix."""

    predictor_basis: BasisSystem
    response_basis: BasisSystem
    coefficients: np.ndarray          # K_s x (1 + K_t), C = [a | B]
    center: np.ndarray                # length K_t, training mean of J c

    def __post_init__(self):
        K_s, K_t = self.response_basis.K, self.predictor_basis.K
        if self.coefficients.shape != (K_s, 1 + K_t):
            raise ShapeError("coefficient shape does not match basis dimensions")
        if self.center.shape != (K_t,):
            raise ShapeError("centre length does not match predictor basis")

    def to_dict(self) -> dict:
        return {"predictor_basis": self.predictor_basis.to_dict(),
                "response_basis": self.response_basis.to_dict(),
                "coefficients": self.coefficients.tolist(),
                "center": self.center.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "FoFModel":
        return FoFModel(predictor_basis=BasisSystem.from_dict(d["predictor_basis"]),
                        response_basis=BasisSystem.from_dict(d["response_basis"]),
                        coefficients=np.array(d["coefficients"], dtype=float),
                        center=np.array(d["center"], dtype=float))


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


def fit_fof(predictor_basis: BasisSystem, X: np.ndarray, response_basis: BasisSystem,
            response_grid: Sequence[float], Y: np.ndarray,
            ridge: float = 1e-8) -> FoFModel:
    """One model from the K_t x n predictor coefficients X and the q x n
    responses Y observed on ``response_grid``.

    Minimizes sum_ij (y_i(s_j) - theta(s_j)'a - theta(s_j)'B J c_i)^2
    + ridge * ||B||_F^2 over (a, B): ``solve_fof`` with one group. The
    regressors J c are centred on their training mean z_mean (``design``),
    so the model's intercept column is a + B z_mean in these terms.
    """
    if X.shape[0] != predictor_basis.K:
        raise ShapeError("coefficient rows do not match basis dimension")
    if Y.shape[1] != X.shape[1]:
        raise ShapeError("predictor and response sample counts differ")
    Theta = basis_matrix(response_basis, response_grid)      # q x K_s
    Z = gram_matrix(predictor_basis) @ X
    z_mean = Z.mean(axis=1)
    stats = fof_statistics(design(Z, z_mean), Theta.T @ Y)
    C = solve_fof(stats.sum(axis=0, keepdims=True), np.linalg.eigh(Theta.T @ Theta),
                  ridge)[0]
    return FoFModel(predictor_basis=predictor_basis, response_basis=response_basis,
                    coefficients=C, center=z_mean)


def fof_forecast(coefficients: np.ndarray, theta: np.ndarray,
                 W: np.ndarray) -> np.ndarray:
    """q x n forecasts theta C w for the columns w of W (``design``), with
    one C = [a | B] for all columns or one per column (n x K_s x m); each
    column is its own product, independent of the others."""
    return theta @ (coefficients @ W.T[:, :, None])[:, :, 0].T


def predict_trajectory(lat_model: FoFModel, lon_model: FoFModel,
                       lat_predictor: np.ndarray, lon_predictor: np.ndarray,
                       predictor_grid: Sequence[float],
                       response_grid: Sequence[float]) -> tuple[np.ndarray, ...]:
    """Forecast storms from their P x n predictor segments: q x n latitude
    and longitude forecasts, each from one curve fit of all the columns and
    the forecast expression the grid engine scores."""
    hats = []
    for model, segments in ((lat_model, lat_predictor), (lon_model, lon_predictor)):
        coeffs = fit_coefficients(model.predictor_basis, predictor_grid, segments)
        hats.append(fof_forecast(
            model.coefficients, basis_matrix(model.response_basis, response_grid),
            design(gram_matrix(model.predictor_basis) @ coeffs, model.center)))
    return tuple(hats)
