"""Basis systems and least-squares functional representation.

A discrete series observed on a grid is represented as a smooth curve
x(t) = sum_k c_k * phi_k(t) over a B-spline basis; coefficients come from
(optionally ridge-stabilized) least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, SingularityError

ENDPOINT_TOL = 1e-10


@dataclass(frozen=True)
class BasisSystem:
    """A family of K B-spline basis functions over [lo, hi].

    ``order`` is m (polynomial degree m - 1) and ``knots`` holds the
    interior knots; K = len(knots) + order.
    """

    K: int
    domain: tuple[float, float]
    order: int = 4
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.domain
        if hi <= lo:
            raise ShapeError(f"empty domain [{lo}, {hi}]")
        if self.K < 1:
            raise ShapeError("basis dimension must be >= 1")
        if self.K != len(self.knots) + self.order:
            raise ShapeError(
                f"K={self.K} must equal interior knots "
                f"({len(self.knots)}) + order ({self.order})")
        if any(b < a for a, b in zip(self.knots, self.knots[1:])):
            raise ShapeError("interior knots must be non-decreasing")
        if self.knots and (self.knots[0] < lo or self.knots[-1] > hi):
            raise ShapeError("interior knots must lie inside the domain")

    @property
    def full_knots(self) -> np.ndarray:
        """Knot vector with endpoint knots repeated ``order`` times."""
        lo, hi = self.domain
        return np.concatenate([
            np.full(self.order, lo), np.asarray(self.knots), np.full(self.order, hi)
        ])

    def to_dict(self) -> dict:
        return {"kind": "bspline", "K": self.K, "domain": list(self.domain),
                "order": self.order, "knots": list(self.knots)}

    @staticmethod
    def from_dict(d: dict) -> "BasisSystem":
        if d["kind"] != "bspline":
            raise ShapeError(f"unknown basis kind {d['kind']!r}")
        return BasisSystem(K=d["K"], domain=tuple(d["domain"]),
                           order=d["order"], knots=tuple(d["knots"]))


def bspline_basis(K: int, domain: tuple[float, float],
                  order: int = 4) -> BasisSystem:
    """Order-m B-spline basis with K - order uniformly spaced interior knots."""
    n_interior = K - order
    if n_interior < 0:
        raise ShapeError(f"K={K} too small for order {order}")
    lo, hi = domain
    knots = tuple(np.linspace(lo, hi, n_interior + 2)[1:-1])
    return BasisSystem(K=K, domain=domain, order=order, knots=knots)


def basis_matrix(basis: BasisSystem, grid: Sequence[float]) -> np.ndarray:
    """p x K matrix of basis values; row j holds the K functions at grid[j].

    De Boor's triangular scheme runs over the whole grid at once: round r
    turns the order-r values of the m functions alive on each point's knot
    span into their order-(r + 1) values.
    """
    t = np.asarray(grid, dtype=float).reshape(-1)
    lo, hi = basis.domain
    outside = (t < lo - ENDPOINT_TOL) | (t > hi + ENDPOINT_TOL)
    if outside.any():
        raise DomainError(f"t={t[outside][0]} outside basis domain [{lo}, {hi}]")
    t = np.clip(t, lo, hi)
    knots = basis.full_knots
    m = basis.order
    K = basis.K
    # span index mu with knots[mu] <= t < knots[mu + 1]; the right end of
    # the domain belongs to the last non-empty span
    mu = np.maximum(np.searchsorted(knots, t, side="right") - 1, m - 1)
    mu[t >= hi] = np.searchsorted(knots, hi, side="left") - 1
    # N[:, j] holds B_{mu-r+j, r+1}(t) after round r
    N = np.zeros((len(t), m))
    N[:, 0] = 1.0
    for r in range(1, m):
        saved = np.zeros(len(t))
        for j in range(r):
            i = mu - r + 1 + j
            denom = knots[i + r] - knots[i]
            term = np.divide(N[:, j], denom, out=np.zeros(len(t)), where=denom > 0)
            N[:, j] = saved + (knots[i + r] - t) * term
            saved = (t - knots[i]) * term
        N[:, r] = saved
    out = np.zeros((len(t), K))
    out[np.arange(len(t))[:, None], mu[:, None] + np.arange(1 - m, 1)] = N
    return out


def fit_coefficients(basis: BasisSystem, grid: Sequence[float],
                     observations, ridge: float = 0.0) -> np.ndarray:
    """Least-squares curve representation: solve (Phi'Phi + ridge I) C = Phi'X.

    ``observations`` holds p values of one series or a p x n matrix of n
    series on the same grid; the coefficients come back as K or K x n, all
    columns from one factorization.
    """
    grid = np.asarray(grid, dtype=float)
    X = np.asarray(observations, dtype=float)
    if grid.ndim != 1 or X.shape[:1] != grid.shape or X.ndim > 2:
        raise ShapeError("observations must have one row per grid point")
    Phi = basis_matrix(basis, grid)
    A = Phi.T @ Phi
    if ridge > 0:
        A = A + ridge * np.eye(A.shape[0])
    rhs = Phi.T @ X.reshape(len(grid), -1)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "normal equations are rank deficient; use ridge > 0 or a "
            "smaller basis dimension") from exc
    coeffs = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    return coeffs if X.ndim == 2 else coeffs[:, 0]


def fit_bundle(basis: BasisSystem, grid: Sequence[float],
               matrix, ridge: float = 0.0) -> np.ndarray:
    """K x n coefficients of the columns of a DatasetMatrix, from a single
    factorization."""
    return fit_coefficients(basis, grid, matrix.values, ridge)


def gram_matrix(basis: BasisSystem) -> np.ndarray:
    """K x K matrix of pairwise basis inner products over the domain.

    Gauss-Legendre quadrature per knot span; exact for the piecewise
    polynomial products a B-spline basis produces.
    """
    breakpoints = np.unique(basis.full_knots)
    n_quad = basis.order  #  exact for degree 2(order-1) products
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    half = 0.5 * (breakpoints[1:] - breakpoints[:-1])
    mid = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    Phi = basis_matrix(basis, (mid[:, None] + half[:, None] * nodes).ravel())
    # the node terms are added one at a time: one product Phi' diag(w) Phi
    # sums them in another order, and its last bits differ
    J = np.zeros((basis.K, basis.K))
    for phi, w in zip(Phi, (weights * half[:, None]).ravel()):
        J += w * np.outer(phi, phi)
    return J
