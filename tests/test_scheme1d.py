"""Reconstruction, fluxes, residual assembly, and CFL bounds in 1D."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from aggdiff.kernels import EXPLICIT, IMPLICIT, MIDPOINT, make_kernel_1d
from aggdiff.model import InternalEnergy
from aggdiff.scheme1d import (
    S1,
    S2,
    SchemeConfig,
    assemble_flux,
    chemical_potential,
    face_velocities,
    max_stable_dt,
    minmod,
    reconstruct_faces,
    residual,
    Tridiagonal,
    residual_jacobian,
)
from aggdiff.solver import newton_solve, NewtonConfig


class TestMinmod:
    def test_all_positive(self):
        assert minmod(1.0, 2.0, 3.0) == 1.0

    def test_all_negative(self):
        assert minmod(-1.0, -2.0, -3.0) == -1.0

    def test_mixed_signs(self):
        assert minmod(1.0, -2.0, 3.0) == 0.0

    def test_zero_argument_kills_slope(self):
        assert minmod(0.0, 1.0, 2.0) == 0.0

    def test_vectorized(self):
        out = minmod(np.array([1.0, -1.0]), np.array([2.0, -0.5]), np.array([3.0, -2.0]))
        assert np.allclose(out, [1.0, -0.5])


class TestReconstruction:
    def test_constant_state(self):
        east, west = reconstruct_faces(np.full(5, 3.0))
        assert np.allclose(east, 3.0) and np.allclose(west, 3.0)

    def test_linear_ramp_middle_cell(self):
        east, west = reconstruct_faces(np.array([0.0, 1.0, 2.0]), theta=2.0)
        assert east[1] == pytest.approx(1.5)
        assert west[1] == pytest.approx(0.5)

    def test_local_extremum_flattened(self):
        east, west = reconstruct_faces(np.array([0.0, 1.0, 0.0]))
        assert east[1] == 1.0 and west[1] == 1.0

    def test_boundary_cells_first_order(self):
        east, west = reconstruct_faces(np.array([1.0, 2.0, 3.0, 4.0]))
        assert east[0] == west[0] == 1.0
        assert east[-1] == west[-1] == 4.0

    def test_positivity_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rho = rng.random(12) * rng.choice([1e-6, 1.0, 100.0])
            rho[rng.integers(0, 12)] = 0.0
            east, west = reconstruct_faces(rho, theta=2.0)
            assert east.min() >= 0.0
            assert west.min() >= 0.0


class TestVelocityAndFlux:
    def test_velocity_from_potential_differences(self):
        u = face_velocities(np.array([0.0, 1.0, 3.0]), 1.0)
        assert np.allclose(u, [-1.0, -2.0])

    def test_constant_potential_no_velocity(self):
        assert not face_velocities(np.full(6, 2.3), 0.5).any()

    def test_velocity_scaling(self):
        assert face_velocities(np.array([1.0, 0.0]), 0.5)[0] == pytest.approx(2.0)

    def test_s2_upwind_left(self):
        f = assemble_flux(S2, np.array([0.5]), np.array([2.0, 1.0]))
        assert f[0] == pytest.approx(1.0)

    def test_s2_upwind_right(self):
        f = assemble_flux(S2, np.array([-0.5]), np.array([2.0, 1.0]))
        assert f[0] == pytest.approx(-0.5)

    def test_zero_velocity_zero_flux(self):
        f = assemble_flux(S2, np.zeros(3), np.ones(4))
        assert not f.any()

    def test_s1_uses_reconstructed_faces(self):
        east = np.array([1.5, 2.5, 3.5])
        west = np.array([0.5, 1.5, 2.5])
        f = assemble_flux(S1, np.array([1.0, -1.0]), None, east, west)
        assert f[0] == pytest.approx(1.5)   # left east value
        assert f[1] == pytest.approx(-2.5)  # right west value


class TestChemicalPotential:
    def test_power_diffusion(self):
        e = InternalEnergy.power(1.0, 2.0)
        xi = chemical_potential(np.array([1.0, 2.0]), np.zeros(2), e, np.zeros(2), None)
        assert np.allclose(xi, [2.0, 4.0])

    def test_uniform_state_constant_xi(self):
        e = InternalEnergy.power(2.0, 3.0)
        xi = chemical_potential(np.full(5, 1.7), np.zeros(5), e, np.zeros(5), None)
        assert np.allclose(xi, xi[0])

    def test_confinement_added(self):
        e = InternalEnergy.entropy(1.0)
        xi = chemical_potential(
            np.array([1.0, 1.0]), np.zeros(2), e, np.array([0.0, 1.0]), None
        )
        assert np.allclose(xi, [0.0, 1.0])


class TestResidual:
    def setup_method(self):
        self.energy = InternalEnergy.entropy(1.0)

    def test_stationary_uniform(self):
        rho = np.full(6, 1.3)
        r = residual(S2, rho, rho, 0.1, 0.5, self.energy, np.zeros(6), None, MIDPOINT)
        assert np.allclose(r, 0.0, atol=1e-14)

    def test_uniform_shift_gives_mass_rate(self):
        rho = np.full(6, 1.0)
        r = residual(S1, rho + 0.25, rho, 0.1, 0.5, self.energy, np.zeros(6), None, EXPLICIT)
        assert np.allclose(r, 2.5)

    def test_conservation_telescopes(self):
        rng = np.random.default_rng(4)
        for kind in (S1, S2):
            for _ in range(50):
                n = 16
                old = rng.random(n) + 0.1
                new = rng.random(n) + 0.1
                dt, dx = 0.05, 0.25
                r = residual(kind, new, old, dt, dx, self.energy, rng.random(n), None, MIDPOINT)
                expected = (new.sum() - old.sum()) / dt
                assert abs(r.sum() - expected) <= 1e-13 * max(abs(expected), 1.0)

    def test_flux_velocity_product_nonnegative(self):
        # The dissipation workhorse: sum of F*u over faces is >= 0 for
        # non-negative densities.
        rng = np.random.default_rng(9)
        n = 20
        for kind in (S1, S2):
            for _ in range(100):
                old = rng.random(n)
                new = rng.random(n)
                from aggdiff.scheme1d import face_data

                faces = face_data(kind, new, old, 0.5, self.energy,
                                  rng.random(n), None, MIDPOINT)
                assert (faces.flux * faces.velocity).sum() >= -1e-13

    def test_translation_covariance_bitwise(self):
        # Dyadic data keeps all arithmetic exact, so adding a constant to V
        # must leave velocities, fluxes, and residuals bit-identical.
        from aggdiff.scheme1d import face_data

        energy = InternalEnergy.power(1.0, 2.0)
        new = np.array([0.5, 1.0, 0.25, 0.75])
        old = np.array([1.0, 0.5, 0.5, 0.5])
        v = np.array([0.0, 1.0, 0.5, 2.0])
        for c in (0.0, 5.0):
            faces = face_data(S2, new, old, 0.5, energy, v + c, None, EXPLICIT)
            resid = residual(S2, new, old, 0.25, 0.5, energy, v + c, None, EXPLICIT)
            if c == 0.0:
                base_u, base_f, base_r = faces.velocity, faces.flux, resid
            else:
                assert np.array_equal(faces.velocity, base_u)
                assert np.array_equal(faces.flux, base_f)
                assert np.array_equal(resid, base_r)

    def test_two_cell_s2_heat_root_matches_bisection(self):
        # Mass conservation reduces the 2-cell step to one scalar equation,
        # solved here by bisection as an independent oracle.
        dt, dx = 0.1, 1.0
        old = np.array([1.5, 0.5])

        def scalar(a):
            state = np.array([a, 2.0 - a])
            return residual(S2, state, old, dt, dx, self.energy, np.zeros(2), None, MIDPOINT)[0]

        lo, hi = 0.5, 1.5
        assert scalar(lo) * scalar(hi) < 0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scalar(lo) * scalar(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert abs(scalar(root)) <= 1e-12

        def f(state):
            return dt * residual(S2, state, old, dt, dx, self.energy,
                                 np.zeros(2), None, MIDPOINT)

        solved, _, _ = newton_solve(f, old.copy(), NewtonConfig())
        assert abs(solved[0] - root) <= 1e-9


class TestJacobian:
    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("stage", [EXPLICIT, IMPLICIT, MIDPOINT])
    def test_analytic_matches_fd(self, kind, stage):
        rng = np.random.default_rng(1)
        n = 12
        energy = InternalEnergy.power(1.0, 2.0)
        old = rng.random(n) + 0.2
        at = rng.random(n) + 0.2
        v = rng.random(n)
        offsets = np.arange(-(n - 1), n)
        kernel = make_kernel_1d(np.exp(-0.5 * (0.3 * offsets) ** 2), 0.25)
        dt, dx = 0.03, 0.25

        def f(a):
            return residual(kind, a, old, dt, dx, energy, v, kernel, stage)

        exact = residual_jacobian(kind, at, old, dt, dx, energy, v, kernel, stage)
        if not isinstance(exact, np.ndarray):
            exact = exact.to_dense()
        fd = np.empty((n, n))
        f0 = f(at)
        for j in range(n):
            h = 1e-7 * max(abs(at[j]), 1.0)
            pert = at.copy()
            pert[j] += h
            fd[:, j] = (f(pert) - f0) / h
        scale = np.abs(exact).max()
        assert np.abs(exact - fd).max() <= 1e-5 * scale

    def test_tridiagonal_when_uncoupled(self):
        from aggdiff.scheme1d import Tridiagonal

        energy = InternalEnergy.entropy(1.0)
        rho = np.linspace(0.2, 1.0, 8)
        jac = residual_jacobian(S2, rho, rho, 0.1, 0.5, energy, np.zeros(8), None, MIDPOINT)
        assert isinstance(jac, Tridiagonal)

    def test_dense_when_kernel_implicit(self):
        energy = InternalEnergy.entropy(1.0)
        n = 8
        offsets = np.arange(-(n - 1), n)
        kernel = make_kernel_1d(np.exp(-np.abs(offsets) * 0.2), 0.5)
        rho = np.linspace(0.2, 1.0, n)
        jac = residual_jacobian(S2, rho, rho, 0.1, 0.5, energy, np.zeros(n), kernel, MIDPOINT)
        assert isinstance(jac, np.ndarray)


class TestTridiagonalBatch:
    def _bands(self, lines, n, seed):
        rng = np.random.default_rng(seed)
        diag = 4.0 + rng.random((lines, n))
        return Tridiagonal(rng.random((lines, n - 1)) - 0.5, diag, rng.random((lines, n - 1)) - 0.5)

    def test_one_concatenated_solve_equals_per_line_solves(self):
        jac = self._bands(7, 9, 0)
        rhs = np.random.default_rng(1).random((7, 9))
        together = solve_banded((1, 1), jac.to_banded(), rhs.ravel()).reshape(rhs.shape)
        for k in range(7):
            line = Tridiagonal(jac.lower[k], jac.diag[k], jac.upper[k])
            alone = solve_banded((1, 1), line.to_banded(), rhs[k])
            assert np.array_equal(together[k], alone)

    def test_dense_and_scaled_agree_line_by_line(self):
        jac = self._bands(3, 6, 2)
        dense, scaled = jac.to_dense(), jac.scaled(0.3)
        for k in range(3):
            line = Tridiagonal(jac.lower[k], jac.diag[k], jac.upper[k])
            expected = (np.diag(line.diag) + np.diag(line.upper, 1) + np.diag(line.lower, -1))
            assert np.array_equal(dense[k], expected)
            assert np.array_equal(line.to_dense(), expected)
            for band, whole in zip(line.scaled(0.3), scaled):
                assert np.array_equal(band, whole[k])


class TestCFLBound:
    def test_second_order_bound(self):
        assert max_stable_dt(S1, np.array([2.0, -2.0]), 0.5, order=2) == pytest.approx(0.125)

    def test_zero_velocities_unlimited(self):
        assert max_stable_dt(S1, np.zeros(5), 0.5) == np.inf

    def test_s2_unconditional(self):
        assert max_stable_dt(S2, np.array([100.0]), 0.1) == np.inf

    def test_first_order_variant(self):
        # Each cell sees (right face u)^+ - (left face u)^-, walls at zero.
        # Outflow from both faces of the middle cell doubles the spread.
        assert max_stable_dt(S1, np.array([-1.0, 1.0]), 1.0, order=1) == pytest.approx(0.5)
        # One-sided flow never exceeds a single face's magnitude.
        assert max_stable_dt(S1, np.array([1.0, -1.0]), 1.0, order=1) == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(Exception):
            SchemeConfig("s3")
        with pytest.raises(Exception):
            SchemeConfig(S1, theta=2.5)
