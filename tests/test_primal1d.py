"""Unit tests for the 1D primal energy, variations, Newton solver, and the
second-order condition, each checked against an independent oracle."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from elastodual import primal1d
from elastodual.errors import NonConvergence, SingularHessian
from elastodual.mesh1d import Grid1D, norm_U, norm_V
from elastodual.primal1d import BarModel, PrimalState

from conftest import bb_minimize_1d, energy_oracle_1d


def _random_state(rng, n, scale=0.05):
    u = np.zeros(n + 1)
    u[1:-1] = scale * rng.uniform(-1.0, 1.0, n - 1)
    return PrimalState(u)


def _model(n=16, P=None, E=1.0, A=1.0, L=1.0):
    g = Grid1D(L, n)
    if P is None:
        P = np.zeros(n)
    return BarModel(E, A, g, P)


class TestEnergy:
    def test_zero_state(self):
        m = _model(P=np.ones(16))
        assert primal1d.energy(m, PrimalState(np.zeros(17))) == 0.0

    def test_high_resolution_quadrature_oracle(self):
        m = _model(n=256)
        u = m.grid.nodes * (1.0 - m.grid.nodes)
        val = primal1d.energy(m, PrimalState(u))
        oracle = energy_oracle_1d(m, u)
        assert abs(val - oracle) <= 1e-6 * abs(oracle)

    def test_oracle_with_load(self):
        g = Grid1D(1.0, 128)
        m = BarModel(1.0, 1.0, g, 0.3 * np.sin(np.pi * g.midpoints))
        u = 0.1 * np.sin(np.pi * g.nodes)
        u[0] = u[-1] = 0.0
        val = primal1d.energy(m, PrimalState(u))
        oracle = energy_oracle_1d(m, u)
        assert abs(val - oracle) <= 1e-6 * (1.0 + abs(oracle))

    def test_homogeneity_in_E(self):
        g = Grid1D(1.0, 32)
        u = 0.05 * np.sin(2 * np.pi * g.nodes)
        u[0] = u[-1] = 0.0
        e1 = primal1d.energy(BarModel(1.0, 1.0, g, np.zeros(32)), PrimalState(u))
        e2 = primal1d.energy(BarModel(2.0, 1.0, g, np.zeros(32)), PrimalState(u))
        assert e2 == pytest.approx(2.0 * e1)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            BarModel(0.0, 1.0, Grid1D(1.0, 4), np.zeros(4))
        with pytest.raises(ValueError):
            PrimalState(np.ones(5))

    def test_stacked_states(self):
        # one clamped state per row; a free end in any row is rejected
        g = Grid1D(1.0, 8)
        m = BarModel(1.0, 1.0, g, np.sin(np.pi * g.midpoints))
        u = np.zeros((3, 9))
        u[:, 1:-1] = np.random.default_rng(4).uniform(-0.1, 0.1, (3, 7))
        energies = primal1d.energy(m, PrimalState(u))
        assert energies.shape == (3,)
        for row, value in zip(u, energies):
            assert value == primal1d.energy(m, PrimalState(row))
        for end in (0, -1):
            bad = u.copy()
            bad[2, end] = 1e-3
            with pytest.raises(ValueError):
                PrimalState(bad)

    @pytest.mark.parametrize("shape", [(1025,), (7, 1025)])
    def test_bit_identical_to_plain_expression(self, shape):
        # energy works on in-place temporaries; every rounding must stay that
        # of the plain expression below, for a single field and for a stack
        g = Grid1D(1.3, 1024)
        m = BarModel(1.7, 0.6, g, 0.4 * np.sin(np.pi * g.midpoints / g.length))
        u = np.zeros(shape)
        u[..., 1:-1] = np.random.default_rng(6).uniform(-1e-2, 1e-2, shape[:-1] + (1023,))
        ux = np.diff(u) / g.h
        strain = ux + 0.5 * ux**2
        f = 0.5 * m.EA * strain**2 - m.P * (0.5 * (u[..., :-1] + u[..., 1:]))
        plain = np.sum(f, axis=-1) * g.h
        assert np.array_equal(primal1d.energy(m, PrimalState(u)), plain)


class TestResidual:
    def test_rest_state(self):
        m = _model()
        assert np.all(primal1d.residual(m, PrimalState(np.zeros(17))) == 0.0)

    def test_load_only(self):
        n = 8
        rng = np.random.default_rng(0)
        P = rng.standard_normal(n)
        m = _model(n=n, P=P)
        r = primal1d.residual(m, PrimalState(np.zeros(n + 1)))
        h = m.grid.h
        expected = -0.5 * (P[:-1] + P[1:]) * h
        assert np.allclose(r[1:-1], expected)
        assert r[0] == 0.0 and r[-1] == 0.0

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(1)
        n = 16
        m = _model(n=n, P=rng.standard_normal(n))
        eps = 1e-5
        for _ in range(20):
            s = _random_state(rng, n)
            phi = np.zeros(n + 1)
            phi[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
            dj = float(primal1d.residual(m, s) @ phi)
            fd = (
                primal1d.energy(m, PrimalState(s.u + eps * phi))
                - primal1d.energy(m, PrimalState(s.u - eps * phi))
            ) / (2.0 * eps)
            assert abs(dj - fd) <= 1e-6 * (1.0 + abs(dj))


class TestHessian:
    def test_rest_state_is_laplacian(self):
        m = _model(n=8, E=2.0, A=3.0)
        diag, off = primal1d.hessian(m, PrimalState(np.zeros(9)))
        h = m.grid.h
        assert np.allclose(diag, 2.0 * m.EA / h)
        assert np.allclose(off, -m.EA / h)

    def test_symmetry_and_matvec(self):
        rng = np.random.default_rng(2)
        n = 12
        m = _model(n=n)
        s = _random_state(rng, n)
        diag, off = primal1d.hessian(m, s)
        H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(H, H.T)
        # H x against the element-wise weak form of the spring chain
        x = rng.standard_normal(n - 1)
        w = primal1d.hessian_coefficients(m, s) * np.diff(np.r_[0.0, x, 0.0]) / m.grid.h
        assert np.allclose(H @ x, w[:-1] - w[1:])

    def test_finite_difference_of_residual(self):
        rng = np.random.default_rng(3)
        n = 16
        m = _model(n=n, P=rng.standard_normal(n))
        eps = 1e-5
        for _ in range(20):
            s = _random_state(rng, n)
            psi = np.zeros(n + 1)
            psi[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
            diag, off = primal1d.hessian(m, s)
            hv = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) @ psi[1:-1]
            fd = (
                primal1d.residual(m, PrimalState(s.u + eps * psi))
                - primal1d.residual(m, PrimalState(s.u - eps * psi))
            )[1:-1] / (2.0 * eps)
            denom = 1.0 + np.max(np.abs(hv))
            assert np.max(np.abs(hv - fd)) <= 1e-6 * denom


class TestSolveTridiagonal:
    def test_against_dense_solve(self):
        rng = np.random.default_rng(4)
        n = 20
        diag = 2.0 + rng.uniform(0, 1, n)
        off = rng.uniform(-0.5, 0.5, n - 1)
        rhs = rng.standard_normal(n)
        A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = primal1d.solve_tridiagonal(diag, off, rhs)
        assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-12)

    def test_singular_pivot(self):
        with pytest.raises(SingularHessian):
            primal1d.solve_tridiagonal(
                np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 1.0])
            )


def _thomas_numpy_scalars(diag, off, rhs):
    """The Thomas loop on numpy float64 scalars, in solve_tridiagonal's
    operation order."""
    n = diag.size
    d, b = diag.copy(), rhs.copy()
    for i in range(1, n):
        w = off[i - 1] / d[i - 1]
        d[i] -= w * off[i - 1]
        b[i] -= w * b[i - 1]
    x = np.empty(n)
    x[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - off[i] * x[i + 1]) / d[i]
    return x


@pytest.mark.parametrize("n", [1, 2, 7, 4095])
def test_solve_tridiagonal_bit_identical_to_numpy_loop(n):
    rng = np.random.default_rng(n)
    diag = 2.0 + rng.uniform(0, 1, n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    rhs = rng.standard_normal(n)
    x = primal1d.solve_tridiagonal(diag, off, rhs)
    assert x.dtype == np.float64 and x.shape == (n,)
    assert x.tobytes() == _thomas_numpy_scalars(diag, off, rhs).tobytes()


class TestSolveNewton:
    def test_unloaded_bar(self):
        m = _model()
        log = []
        s = primal1d.solve_newton(m, iteration_log=log)
        assert np.all(s.u == 0.0)
        assert sum(log) == 0

    def test_residual_tolerance_and_bb_oracle(self, bar_model, bar_solution):
        r = primal1d.residual(bar_model, bar_solution)
        assert norm_V(r[1:-1]) <= 1e-12
        oracle = bb_minimize_1d(bar_model)
        assert norm_U(bar_solution.u - oracle.u, bar_model.grid) <= 1e-8

    def test_antisymmetric_load(self):
        g = Grid1D(1.0, 64)
        m = BarModel(1.0, 1.0, g, 0.05 * np.sin(2 * np.pi * g.midpoints))
        s = primal1d.solve_newton(m)
        assert abs(s.u[32]) <= 1e-10

    def test_non_finite_load(self):
        with pytest.raises(NonConvergence, match="residual nan after 0"):
            primal1d.solve_newton(_model(P=np.full(16, np.nan)))

    def test_line_search_gives_up(self, monkeypatch):
        monkeypatch.setattr(primal1d, "energy_change", lambda m, s, du: 1.0)
        with pytest.raises(NonConvergence, match="no descent"):
            primal1d.solve_newton(_model(P=np.ones(16)))

    def test_invalid_arguments(self):
        m = _model()
        with pytest.raises(ValueError):
            primal1d.solve_newton(m, continuation_steps=0)
        with pytest.raises(ValueError):
            primal1d.solve_newton(m, tol=-1.0)


def _sine_model(amp, n):
    g = Grid1D(1.0, n)
    return BarModel(1.0, 1.0, g, amp * np.sin(np.pi * g.midpoints))


def _dense_hessian(m, s):
    diag, off = primal1d.hessian(m, s)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _undamped_newton(m, steps=4, tol=1e-12, max_iter=50):
    """Continuation Newton with unit steps, each solved densely; returns the
    state and the per-stage iteration counts."""
    u = np.zeros(m.grid.n_elem + 1)
    log = []
    for k in range(1, steps + 1):
        mk = BarModel(m.E, m.A, m.grid, (k / steps) * m.P)
        for it in range(max_iter + 1):
            r = primal1d.residual(mk, PrimalState(u))[1:-1]
            if norm_V(r) <= tol:
                log.append(it)
                break
            assert it < max_iter, "undamped Newton oracle did not converge"
            u = u.copy()
            u[1:-1] += np.linalg.solve(_dense_hessian(mk, PrimalState(u)), -r)
    return PrimalState(u), log


class TestLineSearchNewton:
    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("amp", [0.05, 0.2, 0.5])
    def test_unit_steps_inside_hypothesis(self, amp, n):
        m = _sine_model(amp, n)
        log = []
        s = primal1d.solve_newton(m, iteration_log=log)
        oracle, oracle_log = _undamped_newton(m)
        assert primal1d.condition_check(s, m.grid)[1]
        assert log == oracle_log
        assert np.max(np.abs(s.u - oracle.u)) <= 1e-13

    @pytest.mark.parametrize("amp,n", [(2.0, 64), (5.0, 16), (10.0, 128)])
    def test_every_step_decreases_the_stage_energy(self, amp, n, monkeypatch):
        iterates = []
        residual = primal1d.residual

        def record(mk, s):
            iterates.append((mk, s))
            return residual(mk, s)

        monkeypatch.setattr(primal1d, "residual", record)
        primal1d.solve_newton(_sine_model(amp, n))
        steps = 0
        for (m0, s0), (m1, s1) in zip(iterates, iterates[1:]):
            if m1 is m0:
                steps += 1
                assert primal1d.energy_change(m0, s0, s1.u - s0.u) < 0.0
        assert steps == len(iterates) - 4

    @pytest.mark.parametrize("amp,n", [(10.0, 64), (2.0, 128), (3.0, 256)])
    def test_past_limit_point_is_local_minimum(self, amp, n):
        m = _sine_model(amp, n)
        s = primal1d.solve_newton(m)
        assert norm_V(primal1d.residual(m, s)[1:-1]) <= 1e-12
        assert not primal1d.condition_check(s, m.grid)[1]
        assert primal1d.second_variation_min_eig(m, s) > 0.0


class TestEnergyChange:
    def test_matches_energy_difference(self):
        rng = np.random.default_rng(6)
        n = 32
        m = _model(n=n, P=rng.standard_normal(n))
        for _ in range(20):
            s = _random_state(rng, n)
            du = _random_state(rng, n, scale=1e-2).u
            plain = primal1d.energy(m, PrimalState(s.u + du)) - primal1d.energy(m, s)
            change = primal1d.energy_change(m, s, du)
            assert abs(change - plain) <= 1e-12 * abs(plain)

    def test_newton_step_near_convergence(self):
        # ½ r·du is the decrease a Newton step makes to second order; at a
        # residual near 1e-8 the energies themselves differ only in rounding.
        m = _sine_model(10.0, 16)
        u = primal1d.solve_newton(m).u.copy()
        u[1:-1] += 1e-10 * np.random.default_rng(8).uniform(-1.0, 1.0, 15)
        s = PrimalState(u)
        r = primal1d.residual(m, s)[1:-1]
        assert 1e-9 <= norm_V(r) <= 1e-7
        du = np.zeros(17)
        du[1:-1] = np.linalg.solve(_dense_hessian(m, s), -r)
        expected = 0.5 * float(r @ du[1:-1])
        assert abs(primal1d.energy_change(m, s, du) - expected) <= 1e-6 * abs(expected)


class TestConditionCheck:
    def test_zero(self):
        value, ok = primal1d.condition_check(
            PrimalState(np.zeros(9)), Grid1D(1.0, 8)
        )
        assert value == 0.0 and ok

    def test_above_threshold(self):
        g = Grid1D(1.0, 8)
        u = np.minimum(g.nodes, 1.0 - g.nodes) * 0.3
        value, ok = primal1d.condition_check(PrimalState(u), g)
        assert value == pytest.approx(0.3)
        assert not ok

    def test_threshold_is_strict(self):
        g = Grid1D(1.0, 8)
        u = np.minimum(g.nodes, 1.0 - g.nodes) * 0.25
        value, ok = primal1d.condition_check(PrimalState(u), g)
        assert value == pytest.approx(0.25)
        assert not ok


class TestSecondVariationMinEig:
    def test_rest_state_spectrum(self):
        m = _model(n=64)
        val = primal1d.second_variation_min_eig(m, PrimalState(np.zeros(65)))
        assert abs(val - np.pi**2) <= 0.02 * np.pi**2

    def test_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(5)
        n = 32
        m = _model(n=n)
        s = _random_state(rng, n)
        val = primal1d.second_variation_min_eig(m, s)
        diag, off = primal1d.hessian(m, s)
        H = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) / m.grid.h
        oracle = float(np.linalg.eigvalsh(H)[0])
        assert abs(val - oracle) <= 1e-10

    def test_scaling_in_E(self):
        g = Grid1D(1.0, 16)
        zero = PrimalState(np.zeros(17))
        e1 = primal1d.second_variation_min_eig(
            BarModel(1.0, 1.0, g, np.zeros(16)), zero
        )
        e2 = primal1d.second_variation_min_eig(
            BarModel(2.0, 1.0, g, np.zeros(16)), zero
        )
        assert e2 == pytest.approx(2.0 * e1)
