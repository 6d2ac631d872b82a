import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fofcast import (BasisSystem, basis_matrix, bspline_basis, fit_bundle,
                     fit_coefficients, gram_matrix, time_grid)
from fofcast.errors import DomainError, ShapeError, SingularityError
from fofcast.ingest import DatasetMatrix


def scipy_basis_matrix(basis, grid):
    """Independent B-spline evaluation oracle built on scipy."""
    kn = basis.full_knots
    cols = []
    for i in range(basis.K):
        spline = BSpline.basis_element(kn[i:i + basis.order + 1], extrapolate=False)
        vals = np.nan_to_num(spline(grid))
        # scipy's basis_element is 0 at the right endpoint of the last span
        if i == basis.K - 1:
            vals[np.asarray(grid) >= basis.domain[1]] = 1.0
        cols.append(vals)
    return np.column_stack(cols)


def scalar_de_boor(basis, t):
    """De Boor's triangular scheme at one point, as a plain loop: the
    reference that the whole-grid evaluation must equal bit for bit."""
    knots, m, K = basis.full_knots, basis.order, basis.K
    lo, hi = basis.domain
    t = min(max(t, lo), hi)
    if t >= hi:
        mu = K - 1
        while knots[mu + 1] <= knots[mu]:
            mu -= 1
    else:
        mu = max(int(np.searchsorted(knots, t, side="right")) - 1, m - 1)
    N = np.zeros(m)
    N[0] = 1.0
    for r in range(1, m):
        saved = 0.0
        for j in range(r):
            i = mu - r + 1 + j
            denom = knots[i + r] - knots[i]
            term = N[j] / denom if denom > 0 else 0.0
            N[j] = saved + (knots[i + r] - t) * term
            saved = (t - knots[i]) * term
        N[r] = saved
    out = np.zeros(K)
    out[mu - m + 1: mu + 1] = N
    return out


class TestEvalBasis:
    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_partition_of_unity(self, t):
        basis = bspline_basis(12, (0.0, 1.0))
        assert abs(basis_matrix(basis, [t])[0].sum() - 1.0) < 1e-12

    def test_order_one_is_indicator(self):
        basis = bspline_basis(5, (0.0, 1.0), order=1)
        values = basis_matrix(basis, [0.3])[0]
        expected = np.zeros(5)
        expected[1] = 1.0  # 0.3 lies in the second of five uniform spans
        np.testing.assert_array_equal(values, expected)

    def test_domain_error(self):
        basis = bspline_basis(6, (0.0, 1.0))
        with pytest.raises(DomainError):
            basis_matrix(basis, [1.5])
        # endpoint tolerance admits tiny overshoot
        basis_matrix(basis, [1.0 + 1e-12])

    def test_domain_error_anywhere_in_grid(self):
        basis = bspline_basis(6, (0.0, 1.0))
        with pytest.raises(DomainError, match="t=-0.25"):
            basis_matrix(basis, [0.0, 0.5, -0.25, 1.0])

    def test_grid_equals_scalar_reference(self):
        rng = np.random.default_rng(4)
        bases = [bspline_basis(12, (0.0, 23 / 31)), bspline_basis(6, (24 / 31, 1.0)),
                 bspline_basis(5, (0.0, 1.0), order=1),
                 bspline_basis(8, (0.0, 1.0), order=2),
                 BasisSystem(K=7, domain=(0.0, 1.0), order=4, knots=(0.3, 0.3, 0.7))]
        for basis in bases:
            lo, hi = basis.domain
            # endpoints, knots (repeated ones too) and the endpoint tolerance
            grid = np.r_[np.linspace(lo, hi, 24), basis.knots, rng.uniform(lo, hi, 40),
                         lo - 1e-12, hi + 1e-12]
            expected = np.array([scalar_de_boor(basis, t) for t in grid])
            np.testing.assert_array_equal(basis_matrix(basis, grid), expected)

    def test_matches_scipy_oracle(self):
        basis = bspline_basis(12, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        ours = basis_matrix(basis, grid)
        np.testing.assert_allclose(ours, scipy_basis_matrix(basis, grid),
                                   atol=1e-12)

    def test_basis_matrix_rows(self):
        basis = bspline_basis(8, (0.0, 1.0))
        grid = np.linspace(0, 1, 30)
        M = basis_matrix(basis, grid)
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)
        single = basis_matrix(basis, [0.37])
        assert single.shape == (1, 8)
        # a point's row does not depend on the other points of the grid
        np.testing.assert_array_equal(single[0], basis_matrix(basis, [0.1, 0.37, 0.9])[1])


class TestFit:
    def test_constant_series(self):
        basis = bspline_basis(9, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        coeffs = fit_coefficients(basis, grid, np.full(24, 7.25))
        np.testing.assert_allclose(coeffs, 7.25, atol=1e-10)

    def test_linear_series_zero_residual(self):
        basis = bspline_basis(10, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        obs = 3.0 - 1.7 * grid
        coeffs = fit_coefficients(basis, grid, obs)
        fitted = basis_matrix(basis, grid) @ coeffs
        np.testing.assert_allclose(fitted, obs, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        basis = bspline_basis(12, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        obs = rng.normal(size=24)
        coeffs = fit_coefficients(basis, grid, obs)
        Phi = scipy_basis_matrix(basis, grid)
        oracle = np.linalg.inv(Phi.T @ Phi) @ (Phi.T @ obs)
        np.testing.assert_allclose(coeffs, oracle, rtol=1e-8)

    def test_bundle_matches_per_column(self):
        rng = np.random.default_rng(6)
        basis = bspline_basis(12, (0.0, 1.0))
        grid = np.linspace(0, 1, 24)
        values = rng.normal(size=(24, 7))
        mat = DatasetMatrix(values=values, storm_ids=tuple(f"S{i}" for i in range(7)))
        coeffs = fit_bundle(basis, grid, mat)
        assert coeffs.shape == (12, 7)
        for j in range(7):
            single = fit_coefficients(basis, grid, values[:, j])
            np.testing.assert_allclose(coeffs[:, j], single, atol=1e-12)

    def test_singular_without_ridge(self):
        basis = bspline_basis(12, (0.0, 1.0))
        grid = np.linspace(0, 1, 5)  # fewer points than basis functions
        with pytest.raises(SingularityError, match="rank deficient"):
            fit_coefficients(basis, grid, np.zeros(5))

    def test_projection_orthogonality(self):
        rng = np.random.default_rng(7)
        basis = bspline_basis(10, (0.0, 1.0))
        grid = np.linspace(0, 1, 32)
        for _ in range(5):
            x = rng.normal(size=32) * rng.uniform(0.1, 100)
            coeffs = fit_coefficients(basis, grid, x)
            Phi = basis_matrix(basis, grid)
            resid = Phi.T @ (x - Phi @ coeffs)
            assert np.abs(resid).max() < 1e-8 * np.abs(x).max()

    def test_projection_idempotence(self):
        rng = np.random.default_rng(8)
        basis = bspline_basis(10, (0.0, 1.0))
        grid = np.linspace(0, 1, 32)
        x = rng.normal(size=32)
        coeffs = fit_coefficients(basis, grid, x)
        fitted = basis_matrix(basis, grid) @ coeffs
        again = fit_coefficients(basis, grid, fitted)
        np.testing.assert_allclose(again, coeffs, atol=1e-10)

    def test_residual_monotone_in_refinement(self):
        # nested bases: each level inserts midpoints into the knot vector
        rng = np.random.default_rng(9)
        grid = np.linspace(0, 1, 48)
        x = rng.normal(size=48).cumsum()
        prev_rss = np.inf
        for level in range(4):
            knots = tuple(np.linspace(0, 1, 2**level + 1)[1:-1])
            basis = BasisSystem(K=len(knots) + 4, domain=(0.0, 1.0), order=4,
                                knots=knots)
            coeffs = fit_coefficients(basis, grid, x)
            rss = np.sum((x - basis_matrix(basis, grid) @ coeffs) ** 2)
            assert rss <= prev_rss + 1e-10
            prev_rss = rss


class TestEvalCurve:
    """A curve is a coefficient vector c; its value at t is the basis_matrix
    row of t times c."""

    def test_zero_and_constant(self):
        basis = bspline_basis(7, (0.0, 1.0))
        zero, const = np.zeros(7), np.full(7, 4.5)
        for t in np.linspace(0, 1, 9):
            row = basis_matrix(basis, [t])[0]
            assert float(row @ zero) == 0.0
            assert abs(float(row @ const) - 4.5) < 1e-12

    def test_fitted_curve_at_grid(self):
        rng = np.random.default_rng(10)
        basis = bspline_basis(9, (0.0, 1.0))
        grid = np.linspace(0, 1, 20)
        coeffs = fit_coefficients(basis, grid, rng.normal(size=20))
        expected = basis_matrix(basis, grid) @ coeffs
        actual = [float(basis_matrix(basis, [t])[0] @ coeffs) for t in grid]
        np.testing.assert_allclose(actual, expected, atol=1e-12)


class TestGram:
    def test_order_one_diagonal(self):
        basis = bspline_basis(5, (0.0, 1.0), order=1)
        np.testing.assert_allclose(gram_matrix(basis), 0.2 * np.eye(5),
                                   atol=1e-14)

    def test_symmetric_psd(self):
        for K in (6, 12):
            J = gram_matrix(bspline_basis(K, (0.0, 1.0)))
            assert np.abs(J - J.T).max() < 1e-14
            assert np.linalg.eigvalsh(J).min() >= -1e-12

    def test_equals_node_by_node_reference(self):
        # Gauss-Legendre nodes per knot span, each node's term added in turn
        basis = bspline_basis(12, (0.0, 23 / 31))
        breakpoints = np.unique(basis.full_knots)
        nodes, weights = np.polynomial.legendre.leggauss(basis.order)
        J = np.zeros((12, 12))
        for a, b in zip(breakpoints, breakpoints[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            for node, w in zip(nodes, weights):
                phi = scalar_de_boor(basis, mid + half * node)
                J += (w * half) * np.outer(phi, phi)
        np.testing.assert_array_equal(gram_matrix(basis), J)

    def test_computed_once_per_basis_and_read_only(self):
        # an equal basis is the same cache key, so callers share one matrix
        J = gram_matrix(bspline_basis(12, (0.0, 23 / 31)))
        assert gram_matrix(bspline_basis(12, (0.0, 23 / 31))) is J
        assert not J.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            J[0, 0] = 1.0

    def test_matches_dense_trapezoid(self):
        basis = bspline_basis(6, (0.0, 1.0))
        ts = np.linspace(0, 1, 100_001)
        Phi = basis_matrix(basis, ts)
        oracle = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                oracle[i, j] = np.trapezoid(Phi[:, i] * Phi[:, j], ts)
        np.testing.assert_allclose(gram_matrix(basis), oracle, atol=1e-9)


class TestSerialization:
    def test_bad_shapes_rejected(self):
        basis = bspline_basis(8, (0.0, 1.0))
        with pytest.raises(ShapeError):
            fit_coefficients(basis, np.linspace(0, 1, 24), np.zeros(23))
