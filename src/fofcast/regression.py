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

from typing import Sequence

import numpy as np

from .basis import BasisSystem, basis_matrix, fit_coefficients, gram_matrix
from .errors import ShapeError, SingularityError


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
    """C = [a | B] (... x K_s x m) of a batch of models, of any leading
    shape, from summed ``fof_statistics`` (... x m x (m + K_s)).

    With S = sum w w', R = sum u w' and T = Theta'Theta = V diag(lam) V'
    (``eig``, from ``np.linalg.eigh(T)``), the normal equations (S (x) T +
    ridge * D (x) I) vec(C) = vec(R), with D penalizing only B, split into
    K_s systems (lam_k S + ridge * D) c_k = (V'R)_k for the rows c_k of V'C.
    Each is positive definite exactly when the whole system is; its
    Cholesky factor is solved by forward and back substitution.
    """
    lam, V = eig
    m = stats.shape[-2]
    A = lam[:, None, None] * stats[..., None, :, :m]     # ... x K_s x m x m
    A[..., np.arange(1, m), np.arange(1, m)] += ridge     # penalizes B only
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "function-on-function design is rank deficient (too few samples "
            "or degenerate predictors); use ridge > 0") from exc
    del A
    L = np.moveaxis(L, (-2, -1), (0, 1)).copy()          # unknowns first
    x = np.moveaxis(stats[..., m:] @ V, -2, 0).copy()    # (V'R)', m x ... x K_s
    for j in range(m):                                    # L y = V'R
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in range(m - 1, -1, -1):                        # L' c = y
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return V @ np.moveaxis(x, 0, -1)


def fit_fof(predictor_basis: BasisSystem, X: np.ndarray, response_basis: BasisSystem,
            response_grid: Sequence[float], Y: np.ndarray,
            ridge: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """One model, its coefficients C = [a | B] (K_s x (1 + K_t)) and centre
    z_mean, from the K_t x n predictor coefficients X and the q x n responses
    Y observed on ``response_grid``.

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
    return solve_fof(stats.sum(axis=0, keepdims=True), np.linalg.eigh(Theta.T @ Theta),
                     ridge)[0], z_mean


def fof_forecast(coefficients: np.ndarray, theta: np.ndarray,
                 W: np.ndarray) -> np.ndarray:
    """q x n forecasts theta C w for the columns w of W (``design``), with
    one C = [a | B] for all columns or one per column (n x K_s x m); each
    column is its own product, independent of the others."""
    return theta @ (coefficients @ W.T[:, :, None])[:, :, 0].T


def regressors(predictor_basis: BasisSystem, grid: Sequence[float], segments: np.ndarray,
               center: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(``design(J c, center)``, center) of the P x n predictor ``segments`` on ``grid``,
    from one curve fit of all the columns; the centre defaults to the mean of J c."""
    Z = gram_matrix(predictor_basis) @ fit_coefficients(predictor_basis, grid, segments)
    center = Z.mean(axis=1) if center is None else center
    return design(Z, center), center


def predict_trajectory(predictor_basis: BasisSystem, response_basis: BasisSystem,
                       lat_model: tuple, lon_model: tuple, lat_predictor: np.ndarray,
                       lon_predictor: np.ndarray, grid: Sequence[float]
                       ) -> tuple[np.ndarray, ...]:
    """q x n latitude and longitude forecasts of the (coefficients, center)
    models for P x n predictor segments on ``grid[:P]``, the window's time grid:
    the forecast the grid engine scores."""
    P = len(lat_predictor)
    theta = basis_matrix(response_basis, grid[P:])
    return tuple(fof_forecast(C, theta, regressors(predictor_basis, grid[:P], seg, center)[0])
                 for (C, center), seg in ((lat_model, lat_predictor), (lon_model, lon_predictor)))
