"""Unit tests for the 1D primal energy, variations, force solve, and the
second-order condition, each checked against an independent oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elastodual import dual1d, primal1d
from elastodual.errors import ConditionViolated, NonConvergence, SingularSystem
from elastodual.mesh1d import Grid1D, derivative, norm_V
from elastodual.primal1d import BarModel, PrimalState

import conftest
from conftest import (
    bb_minimize_1d,
    bisection_min_eig,
    chain_is_positive_definite,
    chain_matrix,
    change_along,
    curvature,
    energy_change,
    energy_oracle_1d,
    hessian,
    norm_U,
    reference_newton,
)


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
        for end in (0, -1):  # a free end at either node is rejected
            u = np.zeros(5)
            u[end] = 1e-3
            with pytest.raises(ValueError):
                PrimalState(u)

    @pytest.mark.parametrize("shape", [(1025,)])
    def test_bit_identical_to_plain_expression(self, shape):
        # energy works on in-place temporaries; every rounding must stay that
        # of the plain expression below
        g = Grid1D(1.3, 1024)
        m = BarModel(1.7, 0.6, g, 0.4 * np.sin(np.pi * g.midpoints / g.length))
        u = np.zeros(shape)
        u[1:-1] = np.random.default_rng(6).uniform(-1e-2, 1e-2, 1023)
        ux = np.diff(u) / g.h
        strain = ux + 0.5 * ux**2
        f = 0.5 * m.EA * strain**2 - m.P * (0.5 * (u[:-1] + u[1:]))
        plain = np.sum(f) * g.h
        assert primal1d.energy(m, PrimalState(u)) == plain


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
        diag, off = hessian(m, PrimalState(np.zeros(9)))
        h = m.grid.h
        assert np.allclose(diag, 2.0 * m.EA / h)
        assert np.allclose(off, -m.EA / h)

    def test_symmetry_and_matvec(self):
        rng = np.random.default_rng(2)
        n = 12
        m = _model(n=n)
        s = _random_state(rng, n)
        diag, off = hessian(m, s)
        H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(H, H.T)
        # H x against the element-wise weak form of the spring chain
        x = rng.standard_normal(n - 1)
        c = curvature(m, s.terms(m.grid))
        w = c * np.diff(np.r_[0.0, x, 0.0]) / m.grid.h
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
            diag, off = hessian(m, s)
            hv = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) @ psi[1:-1]
            fd = (
                primal1d.residual(m, PrimalState(s.u + eps * psi))
                - primal1d.residual(m, PrimalState(s.u - eps * psi))
            )[1:-1] / (2.0 * eps)
            denom = 1.0 + np.max(np.abs(hv))
            assert np.max(np.abs(hv - fd)) <= 1e-6 * denom


EPS = np.finfo(float).eps
#: least delta = |sum 1/c| / sum_{e != k} 1/c_e of a drawn chain with one
#: negative spring k: its distance from the positive-definiteness boundary,
#: so that Cholesky's decision on it is not a matter of rounding
PD_MARGIN = 1e-3


def _dense_chain(c, h):
    return (np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)) / h


@st.composite
def _chains(draw, kind, max_n=40):
    """Springs of magnitude 1e-3 to 1e3 and a load of 1e-3 to 1e3 per node.

    positive: every spring > 0.  one_negative: spring k < 0 with
    sum 1/c = -delta sum_{e != k} 1/c_e, a positive definite chain.
    indefinite: the same with sum 1/c = +delta sum_{e != k} 1/c_e.  negative:
    every spring < 0, a negative definite chain.  two_negative: springs
    k and k + 1 < 0, the others of random sign.  near_zero: spring k within
    1e-9 of 0, the others > 0.
    """
    n = draw(st.integers(2, max_n))
    c = 10.0 ** draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    b = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(-3.0, 3.0)))
    b = np.where(draw(hnp.arrays(bool, n - 1)), -1.0, 1.0) * 10.0**b
    k = draw(st.integers(0, n - 1))
    others = np.sum(1.0 / np.delete(c, k))
    if kind == "one_negative":
        c[k] = -1.0 / (others * (1.0 + draw(st.floats(PD_MARGIN, 10.0))))
    elif kind == "indefinite":
        c[k] = -1.0 / (others * (1.0 - draw(st.floats(PD_MARGIN, 0.999))))
    elif kind == "negative":
        c = -c
    elif kind == "two_negative":
        c *= np.where(draw(hnp.arrays(bool, n)), -1.0, 1.0)
        pair = [k - 1, k] if k else [0, 1]
        c[pair] = -np.abs(c[pair])
    elif kind == "near_zero":
        c[k] = draw(st.floats(-1e-9, 1e-9))
    return c, 2.0 ** -draw(st.integers(0, 12)), b


class TestSolveSpringChain:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["positive", "one_negative", "negative"]).flatmap(_chains))
    def test_against_dense_solve(self, chain):
        # The closed form is exact for springs and loads perturbed by a few
        # rounding units, except that sum(1/c) amplifies a perturbation of
        # the compliances by sum|1/c| / |sum 1/c| (1 on a definite chain).
        # Both solutions then lie within n eps cond(A) of the exact one,
        # times that amplification; the factor 4 is slack for both.
        c, h, b = chain
        A = _dense_chain(c, h)
        want = np.linalg.solve(A, b)
        got = primal1d.solve_spring_chain(c, h, b)
        amplification = np.sum(np.abs(1.0 / c)) / abs(np.sum(1.0 / c))
        bound = 4.0 * c.size * EPS * np.linalg.cond(A, np.inf) * amplification
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(
            ["positive", "one_negative", "indefinite", "negative", "two_negative"]
        ).flatmap(_chains)
    )
    def test_positive_definite_decision_matches_cholesky(self, chain):
        c, h, _ = chain
        try:
            np.linalg.cholesky(_dense_chain(c, h))
            cholesky = True
        except np.linalg.LinAlgError:
            cholesky = False
        assert chain_is_positive_definite(c) == cholesky

    @pytest.mark.parametrize(
        "c",
        [
            [1.0, 1.0, -0.5],  # sum 1/c = 0
            [4.0, -4.0],
            [0.5, -0.125, 0.25, 0.5],
            [1.0, 0.0, 2.0, 0.0],  # two zero springs
            [0.0, 0.0],
            [1.0, 0.0, 2.0],  # one zero spring: regular, but no finite compliance
        ],
    )
    def test_singular_chain(self, c):
        c = np.array(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem):
                primal1d.solve_spring_chain(c, 0.5, np.ones(c.size - 1))
            assert not chain_is_positive_definite(c)


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
        # the oracle's failure path: every Armijo trial of every step of
        # reference_newton reports an energy increase
        monkeypatch.setattr(conftest, "change_along", lambda m, e, du: lambda t: 1.0)
        log = []
        with pytest.raises(NonConvergence, match="no descent"):
            reference_newton(_model(P=np.ones(16)), iteration_log=log)
        assert log == [0]

    def test_failed_solve_logs_its_iterations(self, monkeypatch):
        # a tolerance no residual meets: all 50 Newton steps run and are logged
        monkeypatch.setattr(primal1d, "NEWTON_TOL", -1.0)
        log = []
        with pytest.raises(NonConvergence, match=r"^residual .* after 50 iterations$"):
            primal1d.solve_newton(_sine_model(0.3, 2048), iteration_log=log)
        assert log == [50]

    @pytest.mark.parametrize("amp,n", [(10.0, 2048), (1.0, 4096), (0.8, 64)])
    def test_no_stable_root(self, amp, n):
        # past the limit point: decided in closed form, before any Newton step
        log = []
        with pytest.raises(ConditionViolated, match="no equilibrium on the stable branch"):
            primal1d.solve_newton(_sine_model(amp, n), iteration_log=log)
        assert log == [0]

    @pytest.mark.parametrize("n", [2, 3, 64, 4096])
    def test_residual_at_the_slopes(self, n):
        # the solve stops at its residual, and the residual it reports is the
        # one at the slopes it returns; u sums them, its end node set to 0
        m = _sine_model(0.5, n)
        s = primal1d.solve_newton(m)
        r = primal1d.residual(m, s)[1:-1]
        assert np.array_equal(r, s.r)
        total = float(np.sum(s.e.ux))
        assert s.res == norm_V(r) + 4.0 * m.EA * abs(total) / n <= primal1d.NEWTON_TOL
        assert s.shift == abs(total) / n + primal1d.U * float(np.sum(np.abs(s.e.ux)))
        assert np.array_equal(s.u[1:-1], np.cumsum(s.e.ux[:-1] - total / n) * m.grid.h)
        assert s.u[0] == s.u[-1] == 0.0


def _sine_model(amp, n):
    g = Grid1D(1.0, n)
    return BarModel(1.0, 1.0, g, amp * np.sin(np.pi * g.midpoints))


def _dense_hessian(m, s):
    diag, off = hessian(m, s)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _undamped_newton(m, tol=1e-12, max_iter=50):
    """Newton with unit steps from u = 0 at the full load, each solved
    densely; returns the state and the iteration count."""
    u = np.zeros(m.grid.n_elem + 1)
    for it in range(max_iter + 1):
        r = primal1d.residual(m, PrimalState(u))[1:-1]
        if norm_V(r) <= tol:
            return PrimalState(u), it
        u = u.copy()
        u[1:-1] += np.linalg.solve(_dense_hessian(m, PrimalState(u)), -r)
    raise AssertionError("undamped Newton oracle did not converge")


class TestLineSearchNewton:
    """conftest.reference_newton, the line-search Newton over the nodal
    displacements that solved the bar before the force method, and the
    far-branch minima that it finds past the limit point."""

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("amp", [0.05, 0.2, 0.5])
    def test_unit_steps_inside_hypothesis(self, amp, n):
        m = _sine_model(amp, n)
        log = []
        ref = reference_newton(m, iteration_log=log)
        oracle, oracle_iters = _undamped_newton(m)
        s = primal1d.solve_newton(m)
        assert primal1d.condition_check(s, m.grid)[1]
        assert log == [oracle_iters]
        assert np.max(np.abs(ref.u - oracle.u)) <= 1e-13
        r1 = primal1d.residual(m, PrimalState(s.u))[1:-1]
        r2 = primal1d.residual(m, oracle)[1:-1]
        bound = _clamped_distance_bound(m, r1, r2, 64.0 * primal1d.U * m.EA)
        assert np.max(np.abs(s.u - oracle.u)) <= bound

    @pytest.mark.parametrize("amp,n", [(2.0, 64), (5.0, 16), (10.0, 128)])
    def test_every_step_decreases_the_stage_energy(self, amp, n):
        iterates = []
        m = _sine_model(amp, n)
        log = []
        reference_newton(m, iteration_log=log, iterates=iterates)
        assert len(iterates) - 1 == log[0] > 0
        for u0, u1 in zip(iterates, iterates[1:]):
            assert energy_change(m, PrimalState(u0), u1 - u0) < 0.0

    @pytest.mark.parametrize("amp,n", [(10.0, 64), (2.0, 128), (3.0, 256)])
    def test_past_limit_point_is_local_minimum(self, amp, n):
        m = _sine_model(amp, n)
        s = reference_newton(m)
        assert norm_V(primal1d.residual(m, s)[1:-1]) <= 1e-12
        assert not primal1d.condition_check(s, m.grid)[1]
        c = curvature(m, s.terms(m.grid))
        assert bisection_min_eig(c, m.grid.h) > 0.0

    @pytest.mark.parametrize(
        "amp,n,log",
        [
            (10.0, 64, [10]),
            (3.0, 256, [12]),
            (10.0, 512, [12]),
            (1.5, 2048, [14]),
            (1.0, 4096, [16]),
            (2.0, 128, [12]),
            (1.0, 1024, [16]),
            (1.5, 4096, [14]),
        ],
    )
    def test_past_limit_iteration_logs(self, amp, n, log):
        # every past-limit case of the benchmark's bar1d_recover mix, solved
        # by the reference line-search Newton in one stage at the full load
        got = []
        reference_newton(_sine_model(amp, n), iteration_log=got)
        assert got == log


def _clamped_distance_bound(m, r1, r2, scale):
    """Bound on max |u1 - u2| for two clamped fields whose slopes lie in
    |x| <= 1/4, of residuals r1 and r2: there J's Hessian is at least
    M = (c/h) D^T D, c = EA g'(-1/4) = 0.34375 EA, so (r1 - r2).(u1 - u2) >=
    |u1 - u2|_M^2, and a clamped v has |v|_inf^2 <= (L/4) h sum v_x^2 =
    (L/4) |v|_M^2/c.  ``scale`` widens |r1| + |r2| by the rounding of the
    residuals themselves."""
    c, h = 0.34375 * m.EA, m.grid.h
    a = np.abs(r1) + np.abs(r2) + scale
    energy = float(a @ primal1d.solve_spring_chain(np.full(m.grid.n_elem, c), h, a))
    return math.sqrt(m.grid.length / 4.0 * energy / c)


class TestForceSolve:
    """The force solve against conftest.reference_newton, the line-search
    Newton over the nodal displacements: the same equilibrium inside the
    hypothesis, and past the limit point no equilibrium on the stable branch."""

    @settings(max_examples=60, deadline=None)
    @given(
        E=st.floats(0.5, 2.0), A=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        load=st.floats(0.0, 0.5), n=st.integers(2, 4096),
    )
    @example(E=1.0, A=1.0, L=1.0, load=0.5, n=4096)
    @example(E=1.0, A=1.0, L=1.0, load=0.3, n=2)
    def test_u_matches_reference_newton(self, E, A, L, load, n):
        # both u are clamped fields of slopes below 1/4; the residuals are
        # recomputed from each u, so the bound holds for the floats themselves
        m = dual1d.sine_load_model(E, A, L, load * E * A / L, n)
        s, ref = primal1d.solve_newton(m), reference_newton(m)
        r1 = primal1d.residual(m, PrimalState(s.u))[1:-1]
        r2 = primal1d.residual(m, ref)[1:-1]
        assert max(norm_V(derivative(s.u, m.grid)), norm_V(derivative(ref.u, m.grid))) < 0.25
        scale = 64.0 * primal1d.U * (m.EA + m.grid.h * np.max(np.abs(m.P)))
        bound = _clamped_distance_bound(m, r1, r2, scale)
        assert np.max(np.abs(s.u - ref.u)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(EA=st.floats(1e-3, 1e3), L=st.floats(0.1, 10.0), load=st.floats(0.0, 1.0),
           n=st.integers(2, 1024), seed=st.integers(0, 2**16))
    def test_random_loads_match_reference_newton(self, EA, L, load, n, seed):
        # any load, not only the sine: where the force solve finds slopes
        # below 1/4, the same bound to the reference Newton's u holds
        P = load * EA / L * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        m = BarModel(EA, 1.0, Grid1D(L, n), P)
        try:
            s = primal1d.solve_newton(m)
        except ConditionViolated:
            assume(False)
        assume(primal1d.condition_check(s, m.grid)[1])
        try:
            ref = reference_newton(m)
        except NonConvergence:  # the oracle's own residual floor, ulp(u)/h
            assume(False)
        r1 = primal1d.residual(m, PrimalState(s.u))[1:-1]
        r2 = primal1d.residual(m, ref)[1:-1]
        assume(norm_V(derivative(ref.u, m.grid)) < 0.25)
        scale = 64.0 * primal1d.U * (m.EA + m.grid.h * np.max(np.abs(m.P)))
        assert np.max(np.abs(s.u - ref.u)) <= _clamped_distance_bound(m, r1, r2, scale)

    @settings(max_examples=60, deadline=None)
    @given(
        E=st.floats(0.5, 2.0), A=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0),
        load=st.floats(0.5, 10.0), n=st.integers(2, 512),
    )
    @example(E=1.0, A=1.0, L=1.0, load=10.0, n=64)
    @example(E=1.0, A=1.0, L=1.0, load=2.0, n=128)
    def test_no_stable_root_bounds_the_reference_slopes(self, E, A, L, load, n):
        # where the force solve proves that no stable root exists and the
        # reference Newton finds an equilibrium, that equilibrium has a slope
        # at or beyond the limit point
        m = dual1d.sine_load_model(E, A, L, load * E * A / L, n)
        try:
            primal1d.solve_newton(m)
            return
        except ConditionViolated:
            pass
        try:
            ref = reference_newton(m)
        except NonConvergence:
            return
        assert primal1d.condition_check(ref, m.grid)[0] >= primal1d.FAR_SLOPE

    @settings(max_examples=20, deadline=None)
    @given(E=st.floats(0.5, 2.0), L=st.floats(0.5, 2.0), n=st.integers(2, 24))
    @example(E=1.0, L=1.0, n=8)
    def test_no_stable_root_decision_is_sharp(self, E, L, n):
        # S(N_lo) rises with the load, from below 0 to above it at the limit
        # load.  Just below that load (where S(N_lo) at 50 digits from the
        # float data is < 0) the decision must not claim a proof, and just
        # above it, a rounding term too coarse would stop it proving one
        import mpmath

        def model(load):
            return dual1d.sine_load_model(E, 1.0, L, load * E / L, n)

        def float_sum(m):
            C = m.prefix_loads
            return float(np.sum(primal1d._stable_slopes(
                (np.max(C) + m.EA * primal1d.G_STAR - C) / m.EA)))

        def exact_sum(m):
            with mpmath.workdps(50):
                C = [mpmath.mpf(0)]
                for half in m.half_loads:
                    C.append(C[-1] + mpmath.mpf(float(half)))
                EA, total = mpmath.mpf(m.EA), 0
                n_lo = max(C) - EA / (3 * mpmath.sqrt(3))
                for c in C:
                    w = max(mpmath.re(w) for w in mpmath.polyroots(
                        [1, 0, -1, -2 * (n_lo - c) / EA], maxsteps=200, extraprec=200)
                        if abs(mpmath.im(w)) < 1e-15)
                    total += w - 1
                return total

        def decided(m):
            C = m.prefix_loads
            return primal1d._no_stable_root(m, float(np.max(C)) + m.EA * primal1d.G_STAR)

        lo, hi = 0.1, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if float_sum(model(mid)) <= 0.0 else (lo, mid)
        below, above = model(lo * (1.0 - 1e-6)), model(hi * (1.0 + 1e-3))
        assert exact_sum(below) < 0 < exact_sum(above)
        assert not decided(below)
        assert decided(above)

    def test_far_slope_below_exact(self):
        import mpmath  # a test-only dependency, declared in the test extra

        with mpmath.workdps(50):
            exact = 1 - 1 / mpmath.sqrt(3)
            assert primal1d.FAR_SLOPE < exact
            assert primal1d.FAR_SLOPE > 0.25
            x_star = -exact
            g_star = x_star * (1 + x_star) * (2 + x_star) / 2
            assert abs(primal1d.G_STAR - g_star) <= 4 * primal1d.U * abs(g_star)

    @settings(max_examples=100, deadline=None)
    @given(y=st.floats(primal1d.G_STAR, 1e6), n=st.integers(1, 8))
    @example(y=0.0, n=1)
    @example(y=float(np.nextafter(primal1d.G_STAR, 0.0)), n=1)
    @example(y=1.0 / (3.0 * math.sqrt(3.0)), n=1)  # t = 1, the branches meet
    def test_stable_slopes_closed_form(self, y, n):
        # g(x) = y on the stable branch: x = w - 1 for the largest root w of
        # w^3 - w = 2y at 50 digits, to a relative error of a few U where g'
        # is not small (near the limit point, to sqrt(U)); exactly 0 at y = 0
        import mpmath

        x = primal1d._stable_slopes(np.full(n, y))
        assert np.all(x == x[0])
        with mpmath.workdps(50):
            y_mp = mpmath.mpf(y)
            assume(y_mp >= -1 / (3 * mpmath.sqrt(3)))  # the float G_STAR may lie below
            roots = mpmath.polyroots([1, 0, -1, -2 * y_mp], maxsteps=200, extraprec=200)
            w = max(mpmath.re(w) for w in roots if abs(mpmath.im(w)) < 1e-20)
            x_exact = 2 * y_mp / (w * (1 + w))  # w - 1, without its cancellation
            gp = 1 + 3 * x_exact + mpmath.mpf(1.5) * x_exact**2
            tol = 64 * primal1d.U * abs(x_exact) + (0 if gp > 0.1 else mpmath.mpf("1e-7"))
            assert abs(mpmath.mpf(float(x[0])) - x_exact) <= tol
        assert (x[0] == 0.0) == (y == 0.0)


@st.composite
def _bar_increments(draw):
    """A loaded bar, a state with slopes up to 1/2 and a clamped increment of
    magnitude 1e-6 to 10 per node, some entries zero.  Magnitudes stay far
    from underflow, where a scaling by 2^-k would round."""
    n = draw(st.integers(2, 40))
    E, A, L = (draw(st.floats(0.1, 10.0)) for _ in range(3))
    P = draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))
    m = BarModel(E, A, Grid1D(L, n), P)
    u, du = np.zeros(n + 1), np.zeros(n + 1)
    u[1:-1] = m.grid.h * draw(
        hnp.arrays(np.float64, n - 1, elements=st.floats(-0.25, 0.25))
    )
    sizes = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(-6.0, 1.0)))
    signs = draw(hnp.arrays(np.int8, n - 1, elements=st.integers(-1, 1)))
    du[1:-1] = signs * 10.0**sizes
    return m, PrimalState(u), du


class TestEnergyChange:
    @settings(max_examples=200, deadline=None)
    @given(_bar_increments())
    def test_trials_are_exact_scalings(self, case):
        # the line search only halves t from 1, and scaling by t = 2^-k is
        # exact, so each trial equals a fresh energy_change of t du bit for bit
        m, s, du = case
        change = change_along(m, s.terms(m.grid), du)
        for k in range(50):
            t = 2.0**-k
            assert change(t) == energy_change(m, s, t * du)

    @settings(max_examples=200, deadline=None)
    @given(_bar_increments())
    def test_formula_is_unchanged(self, case):
        # energy_change written out term by term: its rounding must not move
        m, s, du = case
        h = m.grid.h
        ux, d = np.diff(s.u) / h, np.diff(du) / h
        d_strain = d * (1.0 + ux + 0.5 * d)
        d_stored = 0.5 * m.EA * d_strain * (2.0 * (ux + 0.5 * ux**2) + d_strain)
        load = m.P * ((du[:-1] + du[1:]) * 0.5)
        assert energy_change(m, s, du) == float(np.sum(d_stored - load) * h)

    def test_matches_energy_difference(self):
        rng = np.random.default_rng(6)
        n = 32
        m = _model(n=n, P=rng.standard_normal(n))
        for _ in range(20):
            s = _random_state(rng, n)
            du = _random_state(rng, n, scale=1e-2).u
            plain = primal1d.energy(m, PrimalState(s.u + du)) - primal1d.energy(m, s)
            change = energy_change(m, s, du)
            assert abs(change - plain) <= 1e-12 * abs(plain)

    def test_newton_step_near_convergence(self):
        # ½ r·du is the decrease a Newton step makes to second order; at a
        # residual near 1e-8 the energies themselves differ only in rounding.
        m = _sine_model(10.0, 16)
        u = reference_newton(m).u.copy()
        u[1:-1] += 1e-10 * np.random.default_rng(8).uniform(-1.0, 1.0, 15)
        s = PrimalState(u)
        r = primal1d.residual(m, s)[1:-1]
        assert 1e-9 <= norm_V(r) <= 1e-7
        du = np.zeros(17)
        du[1:-1] = np.linalg.solve(_dense_hessian(m, s), -r)
        expected = 0.5 * float(r @ du[1:-1])
        assert abs(energy_change(m, s, du) - expected) <= 1e-6 * abs(expected)


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


#: rounding of the oracles' smallest eigenvalue: 16 eps (max|d| + 2 max|e|),
#: of the same order as the rounding of T itself
EIG_ACCURACY = 16.0 * EPS


def _eig_floor(m, ux):
    """The certificate's floor on the second variation's smallest eigenvalue
    at the slopes ux."""
    return dual1d._min_eig_floor(m, norm_V(ux))


@st.composite
def _in_hypothesis_slopes(draw, max_n=4096):
    """A bar of EA 1e-3 to 1e3, L 0.1 to 10 and 2 to max_n elements, and a
    slope field of sup norm s in [0.2, 1/4).  pinned: a drawn share of the
    slopes is -s, the softest spring the hypothesis allows, the rest uniform
    in [-s, s] (all -s is the uniform chain the floor is exact on).  clamped:
    the slopes of a clamped field, sum 0, from the same draw less its mean
    and scaled to sup norm s."""
    n = draw(st.integers(2, max_n))
    EA, L = 10.0 ** draw(st.floats(-3.0, 3.0)), 10.0 ** draw(st.floats(-1.0, 1.0))
    s = draw(st.one_of(st.floats(0.2, 0.25, exclude_max=True),
                       st.just(float(np.nextafter(0.25, 0.0)))))
    share = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ux = np.where(rng.random(n) < share, -1.0, rng.uniform(-1.0, 1.0, n))
    if draw(st.sampled_from(["pinned", "clamped"])) == "clamped":
        ux -= np.mean(ux)
        ux /= np.max(np.abs(ux)) or 1.0  # all pinned leaves u = 0
    return BarModel(EA, 1.0, Grid1D(L, n), np.zeros(n)), s * ux


class TestSecondVariationMinEig:
    """The certificate's closed-form floor on the second variation's smallest
    eigenvalue (proof 5 of ``dual1d``), against the eigenvalue that dense and
    bisection eigensolvers find: below it by no more than the spread of W''
    over the slope ball, max W''/min W'' < 6."""

    @settings(max_examples=300, deadline=None)
    @given(_in_hypothesis_slopes())
    def test_floor_below_bisection(self, bar):
        m, ux = bar
        c, h = curvature(m, primal1d.slope_terms(ux)), m.grid.h
        want = bisection_min_eig(c, h)
        floor = _eig_floor(m, ux)
        assert 0.0 < floor <= want + EIG_ACCURACY * chain_matrix(c, h)[2]
        assert want <= 6.0 * floor

    @settings(max_examples=100, deadline=None)
    @given(_in_hypothesis_slopes(max_n=256))
    def test_against_dense_eigensolver(self, bar):
        m, ux = bar
        c, h = curvature(m, primal1d.slope_terms(ux)), m.grid.h
        want = np.linalg.eigvalsh(_dense_chain(c, h) / h)[0]
        floor = _eig_floor(m, ux)
        assert 0.0 < floor <= want + EIG_ACCURACY * chain_matrix(c, h)[2]

    def test_bisection_oracle_on_benchmark_bars(self):
        # bars drawn as the benchmark's certify1d ops, up to the CLI's mesh
        # cap: the report carries the floor, below the certified state's
        # smallest eigenvalue
        rng = np.random.default_rng(19)
        for n in (4, 64, 256, 1024, 2048, 4096) * 4:
            E, A, L = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3))
            m = dual1d.sine_load_model(E, A, L, rng.uniform(0.05, 0.5) * E * A / L, n)
            report = dual1d.certify(m)
            assert report.passed
            s = primal1d.solve_newton(m)
            want = bisection_min_eig(curvature(m, s.terms(m.grid)), m.grid.h)
            assert 0.0 < report.min_eig_floor <= want <= 6.0 * report.min_eig_floor

    @pytest.mark.parametrize("n", [2, 3, 64, 4096])
    def test_rest_state_closed_form(self, n):
        # at u = 0 every spring is EA and T has the eigenvalues
        # EA (4/h^2) sin^2(k pi/(2n)); at n = 2 T is the 1 x 1 matrix 2 EA/h^2,
        # and the floor is the first less its rounding term
        m = _model(n=n, E=1.3, A=0.7)
        got = _eig_floor(m, np.zeros(n))
        want = m.EA * 4.0 / m.grid.h**2 * np.sin(np.pi / (2 * n)) ** 2
        assert got == pytest.approx(want, rel=32.0 * EPS)

    def test_rest_state_spectrum(self):
        val = _eig_floor(_model(n=64), np.zeros(64))
        assert abs(val - np.pi**2) <= 0.02 * np.pi**2

    def test_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(5)
        n = 32
        m = _model(n=n)
        s = _random_state(rng, n, scale=0.003)  # slopes below 0.2
        ux = derivative(s.u, m.grid)
        val = _eig_floor(m, ux)
        diag, off = hessian(m, s)
        H = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) / m.grid.h
        oracle = float(np.linalg.eigvalsh(H)[0])
        assert 0.0 < val <= oracle <= 6.0 * val

    def test_scaling_in_E(self):
        g = Grid1D(1.0, 16)
        zero = np.zeros(16)
        e1 = _eig_floor(BarModel(1.0, 1.0, g, np.zeros(16)), zero)
        e2 = _eig_floor(BarModel(2.0, 1.0, g, np.zeros(16)), zero)
        assert e2 == pytest.approx(2.0 * e1)
