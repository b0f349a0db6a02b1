"""Unit tests for the 1D dual side: conjugates, dual construction, gap
identities, saddle sampling, the KKT solver, and certification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elastodual import dual1d, primal1d
from elastodual.dual1d import DualConfig, DualState1D
from elastodual.errors import (
    ConditionViolated,
    PositivityViolated,
    SingularHessian,
    SingularKKTMatrix,
)
from elastodual.mesh1d import Grid1D, derivative, norm_U, norm_V
from elastodual.primal1d import BarModel, PrimalState

from conftest import f_star_sup_oracle, g_star_k_sup_oracle


def _model(n=16, P=None, E=1.0, A=1.0, L=1.0):
    g = Grid1D(L, n)
    if P is None:
        P = np.zeros(n)
    return BarModel(E, A, g, P)


class TestFStar:
    def test_zero(self):
        g = Grid1D(1.0, 8)
        assert dual1d.F_star(np.zeros(8), DualConfig(1.0), g) == 0.0

    def test_constant(self):
        g = Grid1D(2.0, 8)
        cfg = DualConfig(0.5)
        assert dual1d.F_star(np.full(8, 3.0), cfg, g) == pytest.approx(
            9.0 * 2.0 / (2.0 * 0.5)
        )

    def test_grid_search_sup_oracle(self):
        cfg = DualConfig(0.5)
        rng = np.random.default_rng(0)
        for z in rng.uniform(-1.0, 1.0, 8):
            closed = float(dual1d.F_star_density(np.array([z]), cfg)[0])
            assert abs(closed - f_star_sup_oracle(z, cfg.K)) <= 1e-4

    def test_fenchel_young(self):
        cfg = DualConfig(0.7)
        rng = np.random.default_rng(1)
        v = rng.uniform(-2.0, 2.0, 1000)
        z = rng.uniform(-2.0, 2.0, 1000)
        lhs = v * z
        rhs = 0.5 * cfg.K * v**2 + dual1d.F_star_density(z, cfg)
        assert np.all(lhs <= rhs + 1e-12)
        # equality exactly on the graph z = K v
        zeq = cfg.K * v
        req = 0.5 * cfg.K * v**2 + dual1d.F_star_density(zeq, cfg)
        assert np.allclose(v * zeq, req, atol=1e-12)
        off = np.abs(lhs - rhs) > 1e-12
        assert np.all(np.abs(z[off] - cfg.K * v[off]) > 0)


class TestGStarK:
    def test_zero(self):
        m = _model(n=4)
        d = DualState1D(np.zeros(4), np.zeros(4), np.zeros(4))
        assert dual1d.G_star_K(d, m, DualConfig(1.0)) == 0.0

    def test_constant_closed_form(self):
        m = _model(n=4, E=2.0, A=1.0)
        d = DualState1D(np.ones(4), np.zeros(4), np.zeros(4))
        assert dual1d.G_star_K(d, m, DualConfig(1.0)) == pytest.approx(0.5)

    def test_positivity_violation(self):
        m = _model(n=4)
        d = DualState1D(np.zeros(4), np.full(4, -2.0), np.zeros(4))
        with pytest.raises(PositivityViolated) as exc:
            dual1d.G_star_K(d, m, DualConfig(1.0))
        assert exc.value.margin <= 0.0
        assert exc.value.location == 0

    def test_brute_force_sup_oracle(self, bar_model, bar_duals):
        d, cfg = bar_duals
        closed = dual1d.G_star_K_density(d, bar_model, cfg)
        for e in (0, 10, 31, 63):
            sup = g_star_k_sup_oracle(
                d.v1[e], d.v2[e], d.z[e], bar_model.EA, cfg.K
            )
            assert abs(sup - closed[e]) <= 1e-3


class TestConstructDuals:
    def test_zero_state(self):
        m = _model()
        d = dual1d.construct_duals(
            m, PrimalState(np.zeros(17)), DualConfig(0.5)
        )
        assert np.all(d.v1 == 0.0) and np.all(d.v2 == 0.0) and np.all(d.z == 0.0)

    def test_hand_values(self):
        g = Grid1D(1.0, 2)
        m = BarModel(1.0, 1.0, g, np.zeros(2))
        u = np.array([0.0, 0.05, 0.0])  # slopes +0.1 and -0.1
        d = dual1d.construct_duals(m, PrimalState(u), DualConfig(0.5))
        assert d.z[0] == pytest.approx(0.05)
        assert d.v2[0] == pytest.approx(0.055)
        assert d.v1[0] == pytest.approx(0.0605)

    def test_condition_violated(self):
        g = Grid1D(1.0, 2)
        m = BarModel(1.0, 1.0, g, np.zeros(2))
        u = np.array([0.0, 0.2, 0.0])  # slope 0.4
        with pytest.raises(ConditionViolated):
            dual1d.construct_duals(m, PrimalState(u), DualConfig(0.5))

    def test_positivity_bound_random_states(self):
        rng = np.random.default_rng(2)
        n = 16
        m = _model(n=n)
        cfg = DualConfig(m.EA / 2.0)
        for _ in range(50):
            ux = rng.uniform(-0.24, 0.24, n)
            u = np.concatenate([[0.0], np.cumsum(ux) * m.grid.h])
            u -= m.grid.nodes * u[-1]  # re-clamp; slopes stay within bounds
            s = PrimalState(u)
            value, ok = primal1d.condition_check(s, m.grid)
            if not ok:
                continue
            d = dual1d.construct_duals(m, s, cfg)
            assert d.positivity_margin(cfg) > (7.0 / 32.0) * m.EA - 1e-12

    def test_total_stress_identity(self, bar_model, bar_solution, bar_duals):
        d, _ = bar_duals
        ux = derivative(bar_solution.u, bar_model.grid)
        n = bar_model.EA * (ux + 0.5 * ux**2) * (1.0 + ux)
        assert np.allclose(d.v1 + d.v2, n, atol=1e-15)


class TestDualFunctional:
    def test_zero(self):
        m = _model(n=4)
        d = DualState1D(np.zeros(4), np.zeros(4), np.zeros(4))
        assert dual1d.dual_functional(d, m, DualConfig(1.0)) == 0.0

    def test_constants_example(self):
        m = _model(n=4, E=2.0, A=1.0)
        d = DualState1D(np.ones(4), np.zeros(4), np.zeros(4))
        assert dual1d.dual_functional(d, m, DualConfig(1.0)) == pytest.approx(
            -0.5
        )

    def test_zero_gap_at_constructed_duals(
        self, bar_model, bar_solution, bar_duals
    ):
        d, cfg = bar_duals
        J = primal1d.energy(bar_model, bar_solution)
        J_star = dual1d.dual_functional(d, bar_model, cfg)
        assert abs(J - J_star) <= 1e-10 * (1.0 + abs(J))


class TestEquilibriumResidual:
    def test_constant_total_stress(self):
        m = _model(n=8)
        d = DualState1D(np.full(8, 0.3), np.full(8, -0.1), np.zeros(8))
        assert np.all(dual1d.equilibrium_residual(d, m) == 0.0)

    def test_linear_stress_balances_constant_load(self):
        n = 8
        g = Grid1D(1.0, n)
        slope = 2.0
        m = BarModel(1.0, 1.0, g, np.full(n, -slope))
        t = slope * g.midpoints
        d = DualState1D(t, np.zeros(n), np.zeros(n))
        assert np.allclose(dual1d.equilibrium_residual(d, m), 0.0, atol=1e-14)

    def test_matches_primal_residual(self, bar_model, bar_solution, bar_duals):
        d, _ = bar_duals
        r_dual = dual1d.equilibrium_residual(d, bar_model)
        r_primal = primal1d.residual(bar_model, bar_solution)
        assert np.allclose(r_dual, r_primal, atol=1e-15)


class TestDstarHessianZ:
    def test_zero_state_value(self):
        m = _model(n=4)
        d = DualState1D(np.zeros(4), np.zeros(4), np.zeros(4))
        hz = dual1d.dstar_hessian_z(d, m, DualConfig(0.5))
        assert np.allclose(hz, 1.0)

    def test_lower_bound_at_constructed(self, bar_model, bar_duals):
        d, cfg = bar_duals
        hz = dual1d.dstar_hessian_z(d, bar_model, cfg)
        assert np.min(hz) > 5.0 / (7.0 * bar_model.EA) - 1e-12

    def test_finite_difference_oracle(self, bar_model, bar_duals):
        d, cfg = bar_duals
        h = bar_model.grid.h
        eps = 1e-5
        hz = dual1d.dstar_hessian_z(d, bar_model, cfg)
        for e in (0, 17, 40):
            zp = d.z.copy()
            zp[e] += eps
            zm = d.z.copy()
            zm[e] -= eps
            vals = [
                dual1d.dual_functional(
                    DualState1D(d.v1, d.v2, zz), bar_model, cfg
                )
                for zz in (zp, d.z, zm)
            ]
            fd = (vals[0] - 2.0 * vals[1] + vals[2]) / (eps**2 * h)
            assert abs(fd - hz[e]) <= 1e-5 * (1.0 + abs(hz[e]))


@st.composite
def _admissible_states(draw):
    """(model, cfg, state) with den = v2 + z + K of at least 1e-2: one state
    or a stack of them."""
    shape = draw(st.sampled_from([(6,), (1, 6), (4, 6)]))
    E, K = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
    field = hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0))
    v1, z = draw(field), draw(field)
    margin = draw(hnp.arrays(np.float64, shape, elements=st.floats(1e-2, 4.0)))
    return _model(n=6, E=E), DualConfig(K), DualState1D(v1, margin - K - z, z)


class TestZKernel:
    @settings(max_examples=200, deadline=None)
    @given(_admissible_states())
    def test_fused_kernel_matches_textbook_expressions(self, case):
        m, cfg, d = case
        K, EA = cfg.K, m.EA
        den_t = d.v2 + d.z + K
        grad_t = d.z / K + 0.5 * d.v1**2 / den_t**2 - (d.v2 + d.z) / EA
        curv_t = 1.0 / K - d.v1**2 / den_t**3 - 1.0 / EA
        # first-order rounding error of each path, in units u = eps/2 of each
        # term's magnitude (den and v2 + z are shared and drop out; a square
        # doubles its argument's error; pow counts as one ulp).  grad, terms
        # z/K, v1^2/(2 den^2), (v2+z)/EA: kernel 3, 4, 3, textbook 3, 5, 2.
        # curv, terms 1/K, v1^2/den^3, 1/EA: kernel 3, 5, 3, textbook 3, 6, 2.
        u = 0.5 * np.finfo(float).eps
        a, b, c = np.abs(d.z / K), 0.5 * d.v1**2 / den_t**2, np.abs(d.v2 + d.z) / EA
        grad_bound = u * (6.0 * a + 9.0 * b + 5.0 * c)
        curv_bound = u * (6.0 / K + 11.0 * d.v1**2 / den_t**3 + 5.0 / EA)
        den, grad, curv = dual1d._z_derivatives(d, m, cfg)
        assert np.array_equal(den, den_t)
        assert np.all(np.abs(grad - grad_t) <= grad_bound)
        assert np.all(np.abs(curv - curv_t) <= curv_bound)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("size, hits", [(1e-4, False), (1e-2, True)])
    def test_warm_start_reaches_the_cold_minimum(self, n, size, hits):
        # v-perturbations of sup norm ``size`` around the constructed duals,
        # with z confined to the 1e-2 ball certify uses: the small ones keep
        # every minimum inside it, the large ones push some onto its boundary
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, n)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, primal1d.solve_newton(m), cfg)
        rng = np.random.default_rng(n)
        d1, d2 = rng.uniform(-size, size, size=(2, 8, n))
        v1, v2, r1 = d.v1 + d1, d.v2 + d2, 1e-2
        dz_dv1, dz_dv2 = dual1d._z_sensitivities(d, m, cfg)
        z_warm = d.z + dz_dv1 * d1 + dz_dv2 * d2
        cold, cold_hits = dual1d.minimize_in_z_ball(
            DualState1D(v1, v2, d.z), m, cfg, d.z, r1
        )
        warm, warm_hits = dual1d.minimize_in_z_ball(
            DualState1D(v1, v2, z_warm), m, cfg, d.z, r1
        )
        assert np.max(np.abs(warm.z - cold.z)) <= 1e-14
        assert np.array_equal(warm_hits, cold_hits)
        assert np.any(cold_hits) == hits
        if not hits:  # a first-order start: its error is second order
            err = np.max(np.abs(z_warm - cold.z))
            assert err <= 1e-3 * np.max(np.abs(d.z - cold.z))

    def test_saddle_kernel_passes(self, monkeypatch):
        # the warm start saves one Newton step per v-sample: 4.01 kernel
        # evaluations per sample element here against 5.00 from a cold
        # start, the last of them the final stationarity check
        n, n_samples = 1024, 100
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, n)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, primal1d.solve_newton(m), cfg)
        kernel, evaluated = dual1d._z_derivatives, []

        def counted(*args):
            out = kernel(*args)
            evaluated.append(out[1].size)
            return out

        monkeypatch.setattr(dual1d, "_z_derivatives", counted)
        res = dual1d.saddle_verify(m, d, cfg, 1e-2, 1e-2, n_samples=n_samples)
        assert res.passed_v == n_samples
        assert sum(evaluated) <= 4.1 * n_samples * n


class TestSaddleVerify:
    def test_canonical_case(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 32)
        u0 = primal1d.solve_newton(m)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, u0, cfg)
        res = dual1d.saddle_verify(
            m, d, cfg, r1=1e-2, r2=1e-2, n_samples=100, seed=0, tol=1e-10
        )
        assert res.passed_z == 100
        assert res.passed_v == 100

    def test_corrupted_duals_rejected(self, bar_model, bar_duals):
        d, cfg = bar_duals
        v2 = d.v2.copy()
        v2[5] += 0.1
        bad = DualState1D(d.v1, v2, d.z)
        with pytest.raises(ValueError):
            dual1d.saddle_verify(
                bar_model, bad, cfg, r1=1e-2, r2=1e-2
            )

    def test_deterministic_given_seed(self, bar_model, bar_duals):
        d, cfg = bar_duals
        a = dual1d.saddle_verify(
            bar_model, d, cfg, 1e-2, 1e-2, n_samples=20, seed=3
        )
        b = dual1d.saddle_verify(
            bar_model, d, cfg, 1e-2, 1e-2, n_samples=20, seed=3
        )
        assert (a.passed_z, a.passed_v, a.boundary_hits) == (
            b.passed_z,
            b.passed_v,
            b.boundary_hits,
        )


def _saddle_counts_per_sample(m, d_hat, cfg, r1, r2, seed, n_samples=100, tol=1e-10):
    """Oracle of saddle_verify's (passed_z, passed_v, boundary_hits): one
    sample at a time, each z-sample through the single-state dual_functional
    and each v-sample through a projected Newton with the z-derivatives of
    the dual density written out here."""
    rng = np.random.default_rng(seed)
    n = m.grid.n_elem
    z_deltas = rng.uniform(-1.0, 1.0, size=(n_samples, n))
    v_deltas = rng.uniform(-1.0, 1.0, size=(n_samples, n))
    v_consts = rng.uniform(-1.0, 1.0, size=n_samples)
    J_center = dual1d.dual_functional(d_hat, m, cfg)
    passed_z = passed_v = hits = 0
    for delta in z_deltas:
        z = d_hat.z + delta * (r1 / np.max(np.abs(delta)))
        J = dual1d.dual_functional(DualState1D(d_hat.v1, d_hat.v2, z), m, cfg)
        passed_z += int(J >= J_center - tol)
    lo, hi = d_hat.z - r1, d_hat.z + r1
    for d1, c in zip(v_deltas, v_consts):
        d2 = c - d1
        scale = r2 / max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        v1, v2 = d_hat.v1 + d1 * scale, d_hat.v2 + d2 * scale
        z = np.clip(d_hat.z, lo, hi)
        for _ in range(100):
            den = v2 + z + cfg.K
            grad = z / cfg.K + 0.5 * v1**2 / den**2 - (v2 + z) / m.EA
            curv = 1.0 / cfg.K - v1**2 / den**3 - 1.0 / m.EA
            assert np.all(den > 0.0) and np.all(curv > 0.0)
            z_new = np.clip(z - grad / curv, lo, hi)
            step, z = np.max(np.abs(z_new - z)), z_new
            if step <= 1e-14:
                break
        hits += int(np.any((z <= lo + 1e-13) | (z >= hi - 1e-13)))
        J = dual1d.dual_functional(DualState1D(v1, v2, z), m, cfg)
        passed_v += int(J <= J_center + tol)
    return passed_z, passed_v, hits


class TestBatchedSamples:
    """The stacked, chunked sample checks against per-sample loops."""

    N = 512  # 100 saddle samples in 4 chunks, 200 local-min samples in 7

    def test_saddle_counts_match_per_sample_loop(self):
        # z does not enter the weak equilibrium constraint, so a shifted z is
        # a valid centre off the stationary point.  The first centre leaves
        # passed_z and passed_v strictly between 0 and 100, the second one
        # boundary_hits.
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, self.N)
        assert len(dual1d._chunks(100, self.N)) >= 3
        u0 = primal1d.solve_newton(m)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, u0, cfg)
        partial = set()
        for shift, r1, r2 in ((3e-3, 1e-4, 1e-3), (5e-3, 1e-2, 1e-2)):
            centre = DualState1D(d.v1, d.v2, d.z + shift)
            res = dual1d.saddle_verify(m, centre, cfg, r1, r2, seed=5)
            assert (res.r1, res.r2, res.n_samples) == (r1, r2, 100)
            counts = (res.passed_z, res.passed_v, res.boundary_hits)
            assert counts == _saddle_counts_per_sample(m, centre, cfg, r1, r2, seed=5)
            partial |= {i for i, c in enumerate(counts) if 0 < c < 100}
        assert partial == {0, 1, 2}

    @pytest.mark.parametrize("bump", [0.0, 1e-5])
    def test_local_min_matches_per_sample_replay(self, bump, monkeypatch):
        # a bump alternating from node to node moves the centre off the
        # minimum (inside the slope condition), so part of the samples fail
        n = self.N
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, n)
        assert len(dual1d._chunks(dual1d.N_LOCAL, n + 1)) >= 3
        u0 = primal1d.solve_newton(m).u.copy()
        u0[1:-1] += bump * (-1.0) ** np.arange(n - 1)
        monkeypatch.setattr(primal1d, "solve_newton", lambda *a, **k: PrimalState(u0))
        report = dual1d.certify(m, seed=4)
        rng = np.random.default_rng(4 + 1)  # certify's local-min stream
        J0 = primal1d.energy(m, PrimalState(u0))
        passed = 0
        for _ in range(dual1d.N_LOCAL):
            delta = np.zeros(n + 1)
            delta[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
            delta *= 1e-3 / norm_U(delta, m.grid)
            passed += int(primal1d.energy(m, PrimalState(u0 + delta)) >= J0 - 1e-12)
        assert report.condition_ok
        assert (report.local_min_passed, report.local_min_total) == (
            passed, dual1d.N_LOCAL
        )
        assert 0 < passed < dual1d.N_LOCAL if bump else passed == dual1d.N_LOCAL


class TestStreamedVDraws:
    def test_chunks_match_one_full_draw(self):
        # saddle_verify's stream: z-deltas, v-deltas, then the v2 constants
        n, n_samples = 512, 100
        full = np.random.default_rng(9)
        z_deltas = full.uniform(-1.0, 1.0, size=(n_samples, n))
        v_deltas = full.uniform(-1.0, 1.0, size=(n_samples, n))
        v_consts = full.uniform(-1.0, 1.0, size=n_samples)
        rng = np.random.default_rng(9)
        assert np.array_equal(rng.uniform(-1.0, 1.0, size=(n_samples, n)), z_deltas)
        chunks = list(dual1d._v_perturbations(rng, n_samples, n))
        assert len(chunks) == len(dual1d._chunks(n_samples, n)) >= 3
        assert np.array_equal(np.concatenate([d1 for d1, _ in chunks]), v_deltas)
        assert np.array_equal(np.concatenate([c for _, c in chunks]), v_consts)


def _kkt_residual(d, u, m, cfg):
    """Stationarity residual stacked as (r_z, r_v1, r_v2, interior r_u)."""
    den = d.v2 + d.z + cfg.K
    w = derivative(u, m.grid)
    s = d.v2 + d.z
    r_z = d.z / cfg.K + 0.5 * d.v1**2 / den**2 - s / m.EA
    r_v1 = -d.v1 / den + w
    r_v2 = 0.5 * d.v1**2 / den**2 - s / m.EA + w
    r_u = dual1d.equilibrium_residual(d, m)[1:-1]
    return np.concatenate([r_z, r_v1, r_v2, r_u])


def _dense_kkt_jacobian(d, m, cfg):
    """Full (4n-1)^2 Jacobian of ``_kkt_residual`` in (z, v1, v2, u) order."""
    n = m.grid.n_elem
    h, EA, K = m.grid.h, m.EA, cfg.K
    v1 = d.v1
    den = d.v2 + d.z + K
    N = 3 * n + (n - 1)
    Jm = np.zeros((N, N))
    iz, iv1, iv2 = np.arange(n), n + np.arange(n), 2 * n + np.arange(n)
    iu = 3 * n + np.arange(n - 1)
    c3 = v1**2 / den**3
    Jm[iz, iz] = 1.0 / K - c3 - 1.0 / EA
    Jm[iz, iv1] = v1 / den**2
    Jm[iz, iv2] = -c3 - 1.0 / EA
    Jm[iv1, iz] = v1 / den**2
    Jm[iv1, iv1] = -1.0 / den
    Jm[iv1, iv2] = v1 / den**2
    Jm[iv2, iz] = -c3 - 1.0 / EA
    Jm[iv2, iv1] = v1 / den**2
    Jm[iv2, iv2] = -c3 - 1.0 / EA
    # dw_e/du_i: +1/h for i = e+1, -1/h for i = e (interior nodes 1..n-1)
    for e in range(n):
        if e + 1 <= n - 1:
            Jm[iv1[e], iu[e]] += 1.0 / h
            Jm[iv2[e], iu[e]] += 1.0 / h
        if e >= 1:
            Jm[iv1[e], iu[e - 1]] -= 1.0 / h
            Jm[iv2[e], iu[e - 1]] -= 1.0 / h
    # d(r_u)_i = (v1+v2)_{i-1} - (v1+v2)_i - load
    for i in range(1, n):
        Jm[iu[i - 1], iv1[i - 1]] += 1.0
        Jm[iu[i - 1], iv2[i - 1]] += 1.0
        Jm[iu[i - 1], iv1[i]] -= 1.0
        Jm[iu[i - 1], iv2[i]] -= 1.0
    return Jm


def _dense_kkt_newton(m, cfg, init, tol, max_iter=50):
    """Reference Newton loop on the dense Jacobian; returns every iterate
    (dual state, nodal u) and the residual norm at each."""
    n = m.grid.n_elem
    d, u = init
    states, norms = [], []
    for _ in range(max_iter + 1):
        r = _kkt_residual(d, u, m, cfg)
        states.append((d, u))
        norms.append(norm_V(r))
        if norms[-1] <= tol:
            return states, norms
        step = np.linalg.solve(_dense_kkt_jacobian(d, m, cfg), -r)
        d = DualState1D(
            d.v1 + step[n : 2 * n], d.v2 + step[2 * n : 3 * n], d.z + step[:n]
        )
        u = u.copy()
        u[1:-1] += step[3 * n :]
    raise AssertionError("dense KKT Newton did not converge")


def _perturbed_kkt_start(m, seed, eps=1e-3):
    """Constructed duals and primal solution, and a start perturbed by up to
    ``eps`` in every field."""
    cfg = DualConfig(K=m.EA / 2.0)
    u0 = primal1d.solve_newton(m)
    d = dual1d.construct_duals(m, u0, cfg)
    rng = np.random.default_rng(seed)
    n = m.grid.n_elem
    zp = d.z + eps * rng.uniform(-1, 1, n)
    v1p = d.v1 + eps * rng.uniform(-1, 1, n)
    v2p = d.v2 + eps * rng.uniform(-1, 1, n)
    up = u0.u.copy()
    up[1:-1] += eps * rng.uniform(-1, 1, n - 1)
    return cfg, (d, u0.u), (DualState1D(v1p, v2p, zp), up)


class TestKKTSolve:
    def test_unloaded_zero_start(self):
        m = _model(n=8)
        cfg = DualConfig(0.5)
        zeros = DualState1D(np.zeros(8), np.zeros(8), np.zeros(8))
        d, u, iters = dual1d.kkt_solve(m, cfg, (zeros, np.zeros(9)))
        assert iters == 0
        assert np.all(u == 0.0)

    def test_stationarity_at_constructed(
        self, bar_model, bar_solution, bar_duals
    ):
        d, cfg = bar_duals
        res = dual1d.stationarity_residuals(d, bar_solution.u, bar_model, cfg)
        assert max(res.values()) <= 1e-12

    def test_reconvergence_from_perturbed_start(
        self, bar_model, bar_solution, bar_duals
    ):
        d, cfg = bar_duals
        rng = np.random.default_rng(5)
        n = bar_model.grid.n_elem
        zp = d.z + 1e-3 * rng.uniform(-1, 1, n)
        v1p = d.v1 + 1e-3 * rng.uniform(-1, 1, n)
        v2p = d.v2 + 1e-3 * rng.uniform(-1, 1, n)
        up = bar_solution.u.copy()
        up[1:-1] += 1e-3 * rng.uniform(-1, 1, n - 1)
        d2, u2, iters = dual1d.kkt_solve(
            bar_model, cfg, (DualState1D(v1p, v2p, zp), up), tol=1e-12
        )
        assert iters <= 10
        assert norm_V(d2.v1 - d.v1) <= 1e-8
        assert norm_V(d2.v2 - d.v2) <= 1e-8
        assert norm_V(d2.z - d.z) <= 1e-8
        assert norm_U(u2 - bar_solution.u, bar_model.grid) <= 1e-8

    @pytest.mark.parametrize("n", [8, 33])
    def test_iterates_match_dense_newton(self, n):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.2, n)
        cfg, _, start = _perturbed_kkt_start(m, seed=n)
        states, norms = _dense_kkt_newton(m, cfg, start, tol=1e-12)
        assert len(states) >= 3
        _, _, iters = dual1d.kkt_solve(m, cfg, start, tol=1e-12)
        assert iters == len(states) - 1
        # a tolerance of half the previous residual stops kkt_solve at iterate k
        for k in range(1, len(states)):
            d2, u2, iters = dual1d.kkt_solve(m, cfg, start, tol=0.5 * norms[k - 1])
            assert iters == k
            dk, uk = states[k]
            for got, want in ((d2.z, dk.z), (d2.v1, dk.v1), (d2.v2, dk.v2), (u2, uk)):
                assert np.max(np.abs(got - want)) <= 1e-13

    def test_reconvergence_at_cli_mesh_cap(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 4096)
        cfg, (d, u), start = _perturbed_kkt_start(m, seed=11)
        d2, u2, iters = dual1d.kkt_solve(m, cfg, start, tol=1e-12)
        assert iters <= 10
        for got, want in ((d2.z, d.z), (d2.v1, d.v1), (d2.v2, d.v2), (u2, u)):
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_singular_schur_complement(self, monkeypatch):
        def singular(c, h, b):
            raise SingularHessian("spring chain with sum(1/c) = 0")

        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 8)
        cfg, _, start = _perturbed_kkt_start(m, seed=1)
        monkeypatch.setattr(primal1d, "solve_spring_chain", singular)
        with pytest.raises(SingularKKTMatrix):
            dual1d.kkt_solve(m, cfg, start)


class TestCertify:
    def test_zero_amplitude(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.0, 16)
        report = dual1d.certify(m)
        assert report.gap == 0.0
        assert report.passed

    def test_canonical_case(self, bar_model):
        report = dual1d.certify(bar_model)
        assert report.passed
        assert abs(report.gap) <= 1e-10 * (1.0 + abs(report.J_primal))
        assert report.gap == report.J_primal - report.J_dual

    def test_failed_check_is_named(self, bar_model, monkeypatch):
        monkeypatch.setattr(dual1d, "GAP_TOL", 0.0)
        report = dual1d.certify(bar_model)
        assert report.gap != 0.0
        assert not report.passed
        assert len(report.errors) == 1
        assert report.errors[0].startswith("gap: ")

    def test_condition_violation_path(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 10.0, 16)
        report = dual1d.certify(m)
        assert not report.passed
        assert not report.condition_ok
        assert any(e.startswith("hypothesis") for e in report.errors)

    def test_memory_is_bounded(self):
        # peak traced allocation of one n = 4096 certification: 7.4 MB for a
        # loop over single samples with the draws held up front, 6.0 MB in
        # chunks of 2^14 values, 2.4 MB with the v-samples also drawn chunk
        # by chunk, 53 MB for one unchunked batch of the samples
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, 4096)
        tracemalloc.start()
        try:
            report = dual1d.certify(m, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4.5e6

    def test_upper_bound_chain(self, bar_model, bar_solution, bar_duals):
        d, cfg = bar_duals
        report = dual1d.certify(bar_model)
        J_star = dual1d.dual_functional(d, bar_model, cfg)
        rng = np.random.default_rng(7)
        n = bar_model.grid.n_elem
        for _ in range(100):
            delta = np.zeros(n + 1)
            delta[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
            scale = norm_U(delta, bar_model.grid)
            delta *= report.r / scale
            u = bar_solution.u + delta
            assert J_star <= primal1d.energy(
                bar_model, PrimalState(u)
            ) + 1e-12
