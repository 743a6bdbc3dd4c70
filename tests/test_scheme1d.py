"""Reconstruction, fluxes, residual assembly, and the scheme configuration in 1D."""

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_banded

import draws
from aggdiff import scheme1d
from aggdiff.errors import DomainError
from aggdiff.kernels import EXPLICIT, IMPLICIT, MIDPOINT, KernelTable, convolve
from aggdiff.model import InternalEnergy
from aggdiff.scheme1d import (
    S1,
    S2,
    LineProblem,
    SchemeConfig,
    chemical_potential,
    face_data,
    face_velocities,
    minmod,
    reconstruct_faces,
    residual,
    Tridiagonal,
    TridiagonalLowRank,
    residual_jacobian,
)
from aggdiff.solver import _solve_linear, newton_solve, NewtonConfig, solve_lines


def same_bits(x, y):
    """Equal shapes and equal bytes: -0.0 and 0.0 differ, equal NaNs agree."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def slope_formula_faces(rho, theta=2.0):
    """reconstruct_faces as first written: minmod by sign tests, r +- 0.5 * slope."""
    r = np.asarray(rho, dtype=float)
    slopes = np.zeros(r.shape)
    if r.shape[-1] >= 3:
        fwd, bwd = r[..., 2:] - r[..., 1:-1], r[..., 1:-1] - r[..., :-2]
        z1, z2, z3 = theta * fwd, 0.5 * (fwd + bwd), theta * bwd
        mn = np.minimum(np.minimum(z1, z2), z3)
        mx = np.maximum(np.maximum(z1, z2), z3)
        slopes[..., 1:-1] = np.where(mn > 0, mn, np.where(mx < 0, mx, 0.0))
    return r + 0.5 * slopes, r - 0.5 * slopes


def walled(interior):
    """Interior-face values (..., n-1) in the face-slot layout (..., n): the wall slot +0.0."""
    interior = np.asarray(interior, dtype=float)
    return np.concatenate((interior, np.zeros(interior.shape[:-1] + (1,))), axis=-1)


def banded(tri):
    """scipy.linalg.solve_banded's (3, N) layout of a Tridiagonal's lines laid end to end."""
    ab = np.zeros((3,) + tri.diag.shape)
    ab[0, ..., 1:] = tri.upper[..., :-1]
    ab[1] = tri.diag
    ab[2, ..., :-1] = tri.lower[..., :-1]
    return ab.reshape(3, -1)


def assemble_flux(kind, velocity, rho_new, east=None, west=None):
    """Reference upwind flux per interior face: S1 upwinds the reconstructed
    old-state face values, S2 the state itself."""
    u = np.asarray(velocity, dtype=float)
    up = np.maximum(u, 0.0)
    um = np.minimum(u, 0.0)
    if kind == S1:
        return east[..., :-1] * up + west[..., 1:] * um
    return rho_new[..., :-1] * up + rho_new[..., 1:] * um


def line_flux(kind, velocity, a):
    """LineProblem.flux at state a from old state a (dx = 1), with V chosen so
    that the face velocities are ``velocity`` up to roundoff."""
    energy = InternalEnergy("entropy", 1.0)
    xi = np.concatenate(([0.0], -np.cumsum(velocity)))
    v = xi - energy.slope_regularized(a)
    scheme = SchemeConfig(kind, IMPLICIT)
    return LineProblem(scheme, a, 1.0, 1.0, energy, v, None).flux(a)


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

    def test_equals_the_three_sign_tests(self):
        """Every triple of special values against a reference testing each argument's sign."""
        values = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 2.0, -2.0, np.inf, -np.inf, np.nan]
        z1, z2, z3 = np.array(list(itertools.product(values, repeat=3))).T
        all_pos = (z1 > 0) & (z2 > 0) & (z3 > 0)
        all_neg = (z1 < 0) & (z2 < 0) & (z3 < 0)
        mn = np.minimum(np.minimum(z1, z2), z3)
        mx = np.maximum(np.maximum(z1, z2), z3)
        assert same_bits(minmod(z1, z2, z3), np.where(all_pos, mn, np.where(all_neg, mx, 0.0)))


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

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_slope_formula_bit_for_bit(self, seed):
        """Lines with signed zeros, the smallest subnormal and flat runs, in every layout."""
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.25, 3.0])
        for _ in range(200):
            lines, n = rng.integers(1, 6), rng.integers(1, 10)
            if rng.random() < 0.5:
                field = rng.choice(special, size=(lines, n))
            else:
                field = rng.random((lines, n)) * rng.choice([1e-310, 1.0, 1e3])
            if n > 3:  # a flat run
                start = rng.integers(0, n - 2)
                field[:, start : start + 3] = field[:, start : start + 1]
            theta = rng.choice([1.0, 1.3, 2.0])
            transposed = np.ascontiguousarray(field.T).T  # the x-pass hands field.T
            for rho in (field, transposed, field[0], field[:, ::-1]):
                got = reconstruct_faces(rho, theta)
                assert all(same_bits(x, y) for x, y in zip(got, slope_formula_faces(rho, theta)))

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
        assert same_bits(u, np.array([-1.0, -2.0, 0.0]))  # the wall slot +0.0

    def test_constant_potential_no_velocity(self):
        assert not face_velocities(np.full(6, 2.3), 0.5).any()

    def test_velocity_scaling(self):
        assert face_velocities(np.array([1.0, 0.0]), 0.5)[0] == pytest.approx(2.0)

    def test_s2_upwind_left(self):
        f = line_flux(S2, np.array([0.5]), np.array([2.0, 1.0]))
        assert f[0] == pytest.approx(1.0)

    def test_s2_upwind_right(self):
        f = line_flux(S2, np.array([-0.5]), np.array([2.0, 1.0]))
        assert f[0] == pytest.approx(-0.5)

    def test_zero_velocity_zero_flux(self):
        f = line_flux(S2, np.zeros(3), np.ones(4))
        assert not f.any()

    def test_s1_uses_reconstructed_faces(self):
        # The middle cell's limited slope is 1: west face 1.5, east face 2.5.
        f = line_flux(S1, np.array([-1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert f[0] == pytest.approx(-1.5)  # u < 0: the right cell's west value
        assert f[1] == pytest.approx(2.5)   # u > 0: the left cell's east value


class TestChemicalPotential:
    def test_power_diffusion(self):
        e = InternalEnergy("power", 1.0, 2.0)
        xi = chemical_potential(np.array([1.0, 2.0]), e, np.zeros(2), None)
        assert np.allclose(xi, [2.0, 4.0])

    def test_uniform_state_constant_xi(self):
        e = InternalEnergy("power", 2.0, 3.0)
        xi = chemical_potential(np.full(5, 1.7), e, np.zeros(5), None)
        assert np.allclose(xi, xi[0])

    def test_confinement_added(self):
        e = InternalEnergy("entropy", 1.0)
        xi = chemical_potential(np.array([1.0, 1.0]), e, np.array([0.0, 1.0]), None)
        assert np.allclose(xi, [0.0, 1.0])


class TestResidual:
    def setup_method(self):
        self.energy = InternalEnergy("entropy", 1.0)

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

        energy = InternalEnergy("power", 1.0, 2.0)
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

        problem = LineProblem(SchemeConfig(S2, MIDPOINT), old, dt, dx, self.energy,
                              np.zeros(2), None)
        solved, _, _ = newton_solve(problem.update_residual, old.copy(), NewtonConfig(),
                                    jacobian=problem.update_jacobian)
        assert abs(solved[0] - root) <= 1e-9


class TestSliceDifferencesMatchNpDiff:
    """The residual's divergence and the face velocities against np.diff, bit for bit."""

    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batched_lines(self, kind, seed):
        rng = np.random.default_rng(seed)
        lines, n, dt, dx = 6, 11, 0.07, 0.25
        old = rng.random((lines, n))
        at = old + 0.1 * rng.standard_normal((lines, n))
        old[rng.random(old.shape) < 0.2] = 0.0  # vacuum cells and zero fluxes
        at[rng.random(at.shape) < 0.2] = 0.0
        at[0] = old[0]  # a line at its old state
        v = rng.random((lines, n))
        for energy in (InternalEnergy("entropy", 1.0), InternalEnergy("power", 1.0, 2.0)):
            problem = LineProblem(SchemeConfig(kind, MIDPOINT), old, dt, dx, energy, v, None)
            xi = chemical_potential(at, energy, v, None)
            u = -np.diff(xi) / dx
            assert same_bits(face_velocities(xi, dx), walled(u))
            faces = reconstruct_faces(old) if kind == S1 else (None, None)
            flux = assemble_flux(kind, u, at, *faces)
            expected = (at - old) / dt + np.diff(flux, prepend=0.0, append=0.0) / dx
            assert same_bits(residual(kind, at, old, dt, dx, energy, v, None, MIDPOINT), expected)
            assert same_bits(problem.update_residual(at), dt * expected)
            for lines in (np.array([0, 2, 5]), np.array([4])):
                subset = at[lines]
                assert same_bits(problem.update_residual(subset, lines), dt * expected[lines])


class TestWallSlots:
    """Lines laid end to end: a batch's line is the line alone, bit for bit.

    Wall cells of 0.0, -0.0 and 1e-300 sit next to a line 10^6 times larger
    (draws.wall_lines), in the old state and in the state evaluated.
    """

    lines, n, dt, dx = 6, 9, 1e-3, 0.25

    def _case(self, kind, seed):
        rng = np.random.default_rng(seed)
        old = draws.wall_lines(rng, self.lines, self.n, 0.2, 1.0)
        at = draws.wall_lines(rng, self.lines, self.n)
        v = draws.floats(rng, old.shape, -1.0, 1.0)

        def make(rows):
            return LineProblem(SchemeConfig(kind, MIDPOINT), old[rows], self.dt, self.dx,
                               InternalEnergy("entropy", 1.0), v[rows], None)

        return make, at

    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_each_line_alone(self, kind, seed):
        make, at = self._case(kind, seed)
        batch = make(slice(None))
        r, jac = batch.update_residual(at), batch.update_jacobian(at)
        draws.assert_walls_positive_zero(batch, at, jac)
        root, _, _ = solve_lines(make(slice(None)))
        dense = jac.to_dense()
        for k in range(self.lines):
            line = make(k)  # the 1D line, shaped (n,)
            line_jac = line.update_jacobian(at[k])
            assert same_bits(r[k], line.update_residual(at[k]))
            assert same_bits(dense[k], line_jac.to_dense())
            assert all(same_bits(x[k], y) for x, y in zip(jac, line_jac))
            draws.assert_walls_positive_zero(line, at[k], line_jac)
            assert same_bits(root[k], solve_lines(make(k))[0])


class TestRecordReuse:
    """A subset's Jacobian from the rows of the full record; S1's speeds from records made."""

    @staticmethod
    def _problem(kind, seed, dt=0.07):
        rng = np.random.default_rng(seed)
        old = rng.random((6, 11))
        old[rng.random(old.shape) < 0.2] = 0.0
        v = 3.0 * rng.random((6, 11))

        def make():
            return LineProblem(SchemeConfig(kind, MIDPOINT), old, dt, 0.25,
                               InternalEnergy("entropy", 1.0), v, None)

        return make, old + 0.1 * rng.standard_normal(old.shape)

    @pytest.mark.parametrize("kind", [S1, S2])
    def test_subset_jacobian_reads_the_full_record(self, kind, monkeypatch):
        make, at = self._problem(kind, 0)
        lines = np.array([1, 2, 5])
        fresh = make().update_jacobian(at[lines], lines)
        problem = make()
        problem.update_residual(at)
        made = []  # a record computes the face velocities once
        monkeypatch.setattr(scheme1d, "face_velocities",
                            lambda xi, dx: made.append(xi.shape) or face_velocities(xi, dx))
        served = problem.update_jacobian(at[lines], lines)
        assert made == [] and all(same_bits(x, y) for x, y in zip(served, fresh))
        # Rows that differ from the record's by one bit get a record of their own.
        other = at[lines]
        other[0, 3] = np.nextafter(other[0, 3], np.inf)
        problem.update_jacobian(other, lines)
        assert made == [other.shape]

    def test_peak_speed_is_the_roots(self, monkeypatch):
        # Lines converge after different numbers of iterations, so their
        # last records come from different iterates.
        make, _ = self._problem(S1, 1, dt=0.005)
        problem = make()
        made = []  # a record computes the face velocities once
        monkeypatch.setattr(scheme1d, "face_velocities",
                            lambda xi, dx: made.append(len(xi)) or face_velocities(xi, dx))
        root, _, _ = solve_lines(problem)
        assert min(made) < len(problem.old)  # some records hold only the active lines
        assert problem.peak_speed() == np.abs(make().potential(root)[1]).max() > 0.0


class TestCallsOwnTheirResults:
    """What a LineProblem returned is never written by a later call."""

    @staticmethod
    def _make(kind):
        rng = np.random.default_rng(5)
        old = rng.random((5, 9))
        old[rng.random(old.shape) < 0.2] = 0.0
        v = rng.random((5, 9))

        def make(dt=0.05):
            return LineProblem(SchemeConfig(kind, MIDPOINT), old, dt, 0.25,
                               InternalEnergy("entropy", 1.0), v, None)

        x0 = old + 0.05 * rng.standard_normal(old.shape)
        return make, x0, x0 + 0.05 * rng.standard_normal(old.shape)

    @pytest.mark.parametrize("kind", [S1, S2])
    def test_results_survive_later_calls(self, kind):
        make, x0, x1 = self._make(kind)
        problem = make()
        r0 = problem.update_residual(x0)
        kept = r0.copy()
        jac0 = problem.update_jacobian(x0)
        bands = [band.copy() for band in jac0]
        problem.update_residual(x1)
        problem.update_jacobian(x1)
        assert same_bits(r0, kept)
        assert all(same_bits(x, y) for x, y in zip(jac0, bands))
        # Asked for again after those calls, x0's Jacobian is a fresh problem's.
        fresh = make().update_jacobian(x0)
        assert all(same_bits(x, y) for x, y in zip(problem.update_jacobian(x0), fresh))

    @pytest.mark.parametrize("kind", [S1, S2])
    def test_update_forms_are_dt_times_the_unscaled(self, kind):
        # The unscaled forms are the module-level residual and residual_jacobian.
        make, x0, _ = self._make(kind)
        lines = np.array([0, 2, 3])
        for at, rows in ((x0, None), (x0[lines], lines)):
            problem = make()
            dt, old, v = problem.dt, problem.old, problem.v
            if rows is not None:
                old, v = old[rows], v[rows]
            args = (kind, at, old, dt, problem.dx, problem.energy, v, None, MIDPOINT)
            assert same_bits(problem.update_residual(at, rows), dt * residual(*args))
            scaled, unscaled = problem.update_jacobian(at, rows), residual_jacobian(*args)
            assert all(same_bits(x, dt * y) for x, y in zip(scaled, unscaled))


def _upwind_terms(problem, a, rows):
    """(u, m_face, g): face velocities, upwinded face masses and H'' at state a."""
    dx = problem.dx
    xi = chemical_potential(a, problem.energy, rows(problem.v), None)
    if problem.coupled:
        stage = a if problem.stage_rule == IMPLICIT else 0.5 * (a + problem.old)
        xi = xi + problem.kernel.cell_measure * (problem.kernel.toeplitz @ stage)
    elif problem.conv is not None:
        xi = xi + rows(problem.conv)
    u = -np.diff(xi) / dx
    pos, neg = u > 0, u < 0
    g = problem.energy.curvature_regularized(a)
    if problem.kind == S1:
        east, west = rows(problem.east), rows(problem.west)
        m_face = np.where(pos, east[..., :-1], 0.0) + np.where(neg, west[..., 1:], 0.0)
    else:
        m_face = np.where(pos, a[..., :-1], 0.0) + np.where(neg, a[..., 1:], 0.0)
    return u, m_face, g


def old_order_dense_jacobian(problem, a):
    """dt times the dense Jacobian in the earlier term order, one line.

    The diffusion and upwind terms enter the face derivatives first, which
    then go through the divergence, and 1/dt is added last.
    """
    dx, dt = problem.dx, problem.dt
    u, m_face, g = _upwind_terms(problem, a, lambda values: values)
    n = a.size
    c_rule = 1.0 if problem.stage_rule == IMPLICIT else 0.5
    du = (c_rule * problem.kernel.cell_measure / dx) * problem.kernel.toeplitz_difference
    idx = np.arange(n - 1)
    du[idx, idx] += g[:-1] / dx
    du[idx, idx + 1] -= g[1:] / dx
    dF = m_face[:, None] * du
    if problem.kind == S2:
        dF[idx, idx] += np.maximum(u, 0.0)
        dF[idx, idx + 1] += np.minimum(u, 0.0)
    jac = np.zeros((n, n))
    jac[:-1, :] += dF / dx
    jac[1:, :] -= dF / dx
    jac[np.diag_indices(n)] += 1.0 / dt
    return dt * jac


def reference_update_jacobian(problem, a, lines=None):
    """dt times the Jacobian as assembled before the update form, kept as the oracle.

    The potential is rebuilt from public pieces; the bands and the rank-2
    factors follow the unscaled assembly term by term and are then
    multiplied by dt, as the removed ``scaled`` methods did. A dense Jacobian
    is the dense tridiagonal part plus the coupling through the face
    differences, summed unscaled and then multiplied by dt.
    """
    rows = (lambda values: values) if lines is None else (lambda values: values[lines])
    dx, dt = problem.dx, problem.dt
    u, m_face, g = _upwind_terms(problem, a, rows)
    c_rule = 1.0 if problem.stage_rule == IMPLICIT else 0.5
    dF_dleft = m_face * g[..., :-1] / dx
    dF_dright = -m_face * g[..., 1:] / dx
    if problem.kind == S2:
        dF_dleft = dF_dleft + np.maximum(u, 0.0)
        dF_dright = dF_dright + np.minimum(u, 0.0)
    diag = np.full(a.shape, 1.0 / dt)
    diag[..., :-1] += dF_dleft / dx
    diag[..., 1:] += -dF_dright / dx
    if problem.coupled and problem.kernel.exact_form is None:
        n = a.size
        dF = ((c_rule * problem.kernel.cell_measure / dx) * m_face[:, None]
              * problem.kernel.toeplitz_difference / dx)
        coupling = np.zeros((n, n))
        coupling[:-1] += dF
        coupling[1:] -= dF
        banded = Tridiagonal(walled(-dF_dleft / dx), diag, walled(dF_dright / dx)).to_dense()
        return dt * (banded + coupling)
    tri = Tridiagonal(walled(dt * (-dF_dleft / dx)), dt * diag, walled(dt * (dF_dright / dx)))
    if not problem.coupled:
        return tri
    faces, cells = problem.kernel.difference_factors
    dF = faces[:, :-1].T * ((c_rule * problem.kernel.cell_measure / dx) * m_face)[:, None]
    left = np.zeros(cells.shape)
    left[:-1] += dF / dx
    left[1:] -= dF / dx
    # A single coupled line is the pass of one line; the factor is laid out (rank, L, n).
    one_line = Tridiagonal(*(band[None] for band in tri))
    return TridiagonalLowRank(one_line, dt * left.T[:, None], cells, 1.0 / c_rule)


def jacobian_parts(jac):
    if isinstance(jac, np.ndarray):
        return [jac]
    if isinstance(jac, TridiagonalLowRank):
        return [*jac.tri, jac.left, jac.right, jac.below]
    return list(jac)


class TestUpdateJacobianBits:
    """The update-form Jacobian equals dt times the unscaled assembly, byte for byte."""

    n, dx, dt = 12, 0.25, 0.37

    def _kernels(self):
        offsets = self.dx * np.arange(-(self.n - 1), self.n)
        gaussian = -np.exp(-0.5 * (offsets / 0.6) ** 2)
        return {
            "none": None,
            "gaussian": KernelTable(gaussian, self.dx),
            "quadratic+": KernelTable(0.5 * offsets**2, self.dx, "quadratic+"),
            "quadratic-": KernelTable(-0.5 * offsets**2, self.dx, "quadratic-"),
        }

    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("stage", [EXPLICIT, IMPLICIT, MIDPOINT])
    @pytest.mark.parametrize("kernel_name", ["none", "gaussian", "quadratic+", "quadratic-"])
    @pytest.mark.parametrize("energy", [InternalEnergy("entropy", 0.7),
                                        InternalEnergy("power", 1.0, 3.0)],
                             ids=["entropy", "power"])
    def test_random_lines_with_vacuum(self, kind, stage, kernel_name, energy):
        rng = np.random.default_rng(len(kernel_name) + 7 * len(stage) + (kind == S1))
        lines, n, dt = 5, self.n, self.dt
        old = rng.random((lines, n))
        at = old + 0.2 * rng.standard_normal((lines, n))
        old[rng.random(old.shape) < 0.25] = 0.0  # vacuum cells
        at[rng.random(at.shape) < 0.25] = 0.0
        at[rng.random(at.shape) < 0.1] = -0.0
        at[0] = old[0]  # a line at its old state: zero velocities where xi is flat
        v = rng.random((lines, n))
        kernel = self._kernels()[kernel_name]
        scheme = SchemeConfig(kind, stage)
        if kernel is not None:  # a kernel convolves one line per problem
            cases = [(LineProblem(scheme, old[k], dt, self.dx, energy, v[k], kernel),
                      at[k], None) for k in range(lines)]
        else:
            batch = LineProblem(scheme, old, dt, self.dx, energy, v, kernel)
            subset = np.array([1, 3, 4])
            cases = [(batch, at, None), (batch, at[subset], subset)]
        for problem, a, rows in cases:
            expected = jacobian_parts(reference_update_jacobian(problem, a, rows))
            jac = problem.update_jacobian(a, rows)
            got = jacobian_parts(jac)
            assert len(got) == len(expected)
            assert all(same_bits(x, y) for x, y in zip(got, expected))
            if isinstance(jac, np.ndarray):  # the earlier term order agrees to roundoff
                before = old_order_dense_jacobian(problem, a)
                assert np.abs(jac - before).max() <= 1e-15 * np.abs(before).max()
            unscaled = problem.with_dt(1.0).update_jacobian(a, rows)
            # With dt = 1 the unscaled assembly and the reference coincide too.
            assert all(same_bits(x, y) for x, y in zip(
                jacobian_parts(unscaled),
                jacobian_parts(reference_update_jacobian(problem.with_dt(1.0), a, rows))))


class TestJacobian:
    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("stage", [EXPLICIT, IMPLICIT, MIDPOINT])
    def test_analytic_matches_fd(self, kind, stage):
        rng = np.random.default_rng(1)
        n = 12
        energy = InternalEnergy("power", 1.0, 2.0)
        old = rng.random(n) + 0.2
        at = rng.random(n) + 0.2
        v = rng.random(n)
        offsets = np.arange(-(n - 1), n)
        symmetric = np.exp(-0.5 * (0.3 * offsets) ** 2)
        dt, dx = 0.03, 0.25
        for values in (symmetric, symmetric * (1.0 + 0.5 * np.sin(offsets))):
            kernel = KernelTable(values, 0.25)

            def f(a):
                return residual(kind, a, old, dt, dx, energy, v, kernel, stage)

            # The residual against one assembled from kernels.convolve.
            conv_of = {EXPLICIT: old, IMPLICIT: at, MIDPOINT: 0.5 * (at + old)}[stage]
            xi = chemical_potential(at, energy, v, None) + convolve(kernel, conv_of)
            u = face_velocities(xi, dx)[..., :-1]  # the interior faces
            faces = reconstruct_faces(old) if kind == S1 else (None, None)
            flux = assemble_flux(kind, u, at, *faces)
            expected = (at - old) / dt + np.diff(flux, prepend=0.0, append=0.0) / dx
            assert np.abs(f(at) - expected).max() <= 1e-12 * np.abs(expected).max()

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

        energy = InternalEnergy("entropy", 1.0)
        rho = np.linspace(0.2, 1.0, 8)
        jac = residual_jacobian(S2, rho, rho, 0.1, 0.5, energy, np.zeros(8), None, MIDPOINT)
        assert isinstance(jac, Tridiagonal)

    def test_dense_when_kernel_implicit(self):
        energy = InternalEnergy("entropy", 1.0)
        n = 8
        offsets = np.arange(-(n - 1), n)
        kernel = KernelTable(np.exp(-np.abs(offsets) * 0.2), 0.5)
        rho = np.linspace(0.2, 1.0, n)
        jac = residual_jacobian(S2, rho, rho, 0.1, 0.5, energy, np.zeros(n), kernel, MIDPOINT)
        assert isinstance(jac, np.ndarray)


class TestTridiagonalBatch:
    def _bands(self, lines, n, seed):
        rng = np.random.default_rng(seed)
        diag = 4.0 + rng.random((lines, n))
        return Tridiagonal(walled(rng.random((lines, n - 1)) - 0.5), diag,
                           walled(rng.random((lines, n - 1)) - 0.5))

    def test_one_concatenated_solve_equals_per_line_solves(self):
        jac = self._bands(7, 9, 0)
        rhs = np.random.default_rng(1).random((7, 9))
        together = solve_banded((1, 1), banded(jac), rhs.ravel()).reshape(rhs.shape)
        for k in range(7):
            line = Tridiagonal(jac.lower[k], jac.diag[k], jac.upper[k])
            alone = solve_banded((1, 1), banded(line), rhs[k])
            assert np.array_equal(together[k], alone)

    @pytest.mark.parametrize("lines, n", [(1, 2), (7, 9), (3, 80), (2, 240)])
    def test_newton_solve_equals_solve_banded(self, lines, n):
        jac = self._bands(lines, n, n)
        rhs = np.random.default_rng(n + 1).standard_normal((lines, n))
        expected = solve_banded((1, 1), banded(jac), rhs.ravel()).reshape(rhs.shape)
        assert same_bits(_solve_linear(jac, rhs), expected)

    def test_bad_bands_fail_like_solve_banded(self):
        from scipy.linalg import LinAlgError

        jac = self._bands(2, 5, 3)
        rhs = np.ones((2, 5))
        jac.diag[1, 2] = np.nan
        with pytest.raises(ValueError):
            _solve_linear(jac, rhs)
        singular = Tridiagonal(np.zeros((1, 5)), np.zeros((1, 5)), np.zeros((1, 5)))
        with pytest.raises(LinAlgError):
            _solve_linear(singular, np.ones((1, 5)))

    def test_dense_agrees_line_by_line(self):
        jac = self._bands(3, 6, 2)
        dense = jac.to_dense()
        for k in range(3):
            line = Tridiagonal(jac.lower[k], jac.diag[k], jac.upper[k])
            expected = (np.diag(line.diag) + np.diag(line.upper[:-1], 1)
                        + np.diag(line.lower[:-1], -1))
            assert np.array_equal(dense[k], expected)
            assert np.array_equal(line.to_dense(), expected)


class TestSchemeConfig:
    def test_config_validation(self):
        with pytest.raises(Exception):
            SchemeConfig("s3")
        with pytest.raises(Exception):
            SchemeConfig(S1, theta=2.5)

    def test_unknown_stage_rule_rejected(self):
        with pytest.raises(DomainError, match="unknown stage rule 'sideways'"):
            SchemeConfig(S2, "sideways")

    @pytest.mark.parametrize("kind", [S1, S2])
    @pytest.mark.parametrize("theta", [5.0, -3.0])
    def test_theta_outside_its_range_rejected_on_every_path(self, kind, theta):
        energy = InternalEnergy("entropy", 1.0)
        rho, v = np.full(4, 0.5), np.zeros(4)
        with pytest.raises(DomainError, match="theta"):
            LineProblem(SchemeConfig(kind, MIDPOINT, theta), rho, 0.1, 0.5, energy, v, None)
        with pytest.raises(DomainError, match="theta"):
            residual(kind, rho, rho, 0.1, 0.5, energy, v, None, MIDPOINT, theta)
        with pytest.raises(DomainError, match="theta"):
            residual_jacobian(kind, rho, rho, 0.1, 0.5, energy, v, None, MIDPOINT, theta)
        with pytest.raises(DomainError, match="theta"):
            face_data(kind, rho, rho, 0.5, energy, v, None, MIDPOINT, theta)
