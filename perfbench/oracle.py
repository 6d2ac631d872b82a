"""Reference computations made apart from ``fofcast``.

The benchmark checks the program's errors against these. Nothing here
imports ``fofcast``; the B-spline bases come from ``scipy.interpolate``, the
curve fits and the function-on-function (FoF) fit from ``numpy.linalg.lstsq``
and the distance from the atan2 form of the great-circle formula, where the
program uses its own Cox-de Boor recursion, Cholesky solves and the arcsin
(haversine) form.

The protocol constants (B-spline order 4 with uniform interior knots,
K_t = 12 predictor and K_s = 6 response functions, ridge 1e-8 on the
coefficient surface, observations on an even grid over [0, 1], a seeded
permutation split with floor(ratio * n) training storms) are those the
paper and the README state.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0
ORDER = 4
K_T, K_S = 12, 6
RIDGE = 1e-8


def great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Central angle by atan2 of the chord components, times the radius."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dlam = np.radians(np.asarray(lon2) - np.asarray(lon1))
    num = np.hypot(np.cos(phi2) * np.sin(dlam),
                   np.cos(phi1) * np.sin(phi2)
                   - np.sin(phi1) * np.cos(phi2) * np.cos(dlam))
    den = np.sin(phi1) * np.sin(phi2) + np.cos(phi1) * np.cos(phi2) * np.cos(dlam)
    return EARTH_RADIUS_KM * np.arctan2(num, den)


def split(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(ratio * n))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _knots(K: int, lo: float, hi: float) -> np.ndarray:
    interior = np.linspace(lo, hi, K - ORDER + 2)[1:-1]
    return np.concatenate([[lo] * ORDER, interior, [hi] * ORDER])


def bspline_design(K: int, lo: float, hi: float, t: np.ndarray) -> np.ndarray:
    """len(t) x K matrix of the order-4 B-splines on [lo, hi] at t."""
    # imported here so that importing this module stays numpy-only
    from scipy.interpolate import BSpline
    t = np.clip(np.asarray(t, dtype=float), lo, hi)
    return BSpline.design_matrix(t, _knots(K, lo, hi), ORDER - 1).toarray()


def gram(K: int, lo: float, hi: float) -> np.ndarray:
    """Inner products of the basis by 8-point Gauss-Legendre per knot span."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    breaks = np.unique(_knots(K, lo, hi))
    G = np.zeros((K, K))
    for a, b in zip(breaks, breaks[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        D = bspline_design(K, lo, hi, x)
        G += D.T @ (D * (0.5 * (b - a) * weights)[:, None])
    return G


def global_error_km(lat: np.ndarray, lon: np.ndarray, predictor_len: int,
                    train: np.ndarray, test: np.ndarray) -> float:
    """Mean over test storms of the mean great-circle error of the global
    model, for L x n lat/lon degree matrices."""
    L = lat.shape[0]
    P = predictor_len
    grid = np.linspace(0.0, 1.0, L)
    t_pred, t_resp = grid[:P], grid[P:]
    Phi = bspline_design(K_T, t_pred[0], t_pred[-1], t_pred)
    Theta = bspline_design(K_S, t_resp[0], t_resp[-1], t_resp)
    J = gram(K_T, t_pred[0], t_pred[-1])
    q = L - P
    forecasts = []
    for values in (lat, lon):
        c_train = np.linalg.lstsq(Phi, values[:P, train], rcond=None)[0]
        c_test = np.linalg.lstsq(Phi, values[:P, test], rcond=None)[0]
        W = np.vstack([np.ones(len(train)), J @ c_train])            # (1+K_t) x n
        # one design row per (storm, response time): y = theta' C w
        rows = np.einsum("in,jk->njik", W, Theta).reshape(len(train) * q, -1)
        y = values[P:, train].T.reshape(-1)
        penalty = np.repeat(np.r_[0.0, np.ones(K_T)], K_S)
        A = rows.T @ rows + RIDGE * np.diag(penalty)
        vec_c = np.linalg.lstsq(A, rows.T @ y, rcond=None)[0]
        C = vec_c.reshape(1 + K_T, K_S).T                              # K_s x (1+K_t)
        forecasts.append(Theta @ (C[:, :1] + C[:, 1:] @ (J @ c_test)))
    d = great_circle_km(forecasts[0], forecasts[1], lat[P:, test], lon[P:, test])
    return float(d.mean(axis=0).mean())
