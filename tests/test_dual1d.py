"""Unit tests for the 1D dual side: conjugates, dual construction, gap
identities, the saddle and local-minimality bounds against the samplers they
replaced, the KKT solver, and certification."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elastodual import cli, dual1d, primal1d
from elastodual.dual1d import DualConfig, DualState1D
from elastodual.errors import (
    ConditionViolated,
    PositivityViolated,
    SingularHessian,
    SingularKKTMatrix,
)
from elastodual.mesh1d import Grid1D, derivative, integrate, norm_V
from elastodual.primal1d import BarModel, PrimalState

from conftest import (
    f_star_sup_oracle, g_star_k_sup_oracle, norm_U, stationarity_residuals,
)


def _model(n=16, P=None, E=1.0, A=1.0, L=1.0):
    g = Grid1D(L, n)
    if P is None:
        P = np.zeros(n)
    return BarModel(E, A, g, P)


class TestFStar:
    def test_zero(self):
        g = Grid1D(1.0, 8)
        assert integrate(dual1d.F_star_density(np.zeros(8), DualConfig(1.0)), g) == 0.0

    def test_constant(self):
        g = Grid1D(2.0, 8)
        cfg = DualConfig(0.5)
        assert integrate(dual1d.F_star_density(np.full(8, 3.0), cfg), g) == pytest.approx(
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
        assert integrate(dual1d.G_star_K_density(d, m, DualConfig(1.0)), m.grid) == 0.0

    def test_constant_closed_form(self):
        m = _model(n=4, E=2.0, A=1.0)
        d = DualState1D(np.ones(4), np.zeros(4), np.zeros(4))
        assert integrate(dual1d.G_star_K_density(d, m, DualConfig(1.0)), m.grid) == pytest.approx(0.5)

    def test_positivity_violation(self):
        m = _model(n=4)
        d = DualState1D(np.zeros(4), np.full(4, -2.0), np.zeros(4))
        with pytest.raises(PositivityViolated) as exc:
            integrate(dual1d.G_star_K_density(d, m, DualConfig(1.0)), m.grid)
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


class TestSaddleVerify:
    """The closed-form saddle and weak-equilibrium checks of ``certify``."""

    def test_canonical_case(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 32)
        report = dual1d.certify(m)
        assert report.passed
        assert (report.r, report.r1, report.r2) == (2e-2, 1e-2, 1e-2)
        assert report.z_curvature_floor > 0.5
        assert report.z_deficit <= dual1d.SADDLE_TOL
        assert report.v_excess <= dual1d.SADDLE_TOL

    def test_corrupted_duals_rejected(self, bar_model, monkeypatch):
        construct = dual1d.construct_duals

        def corrupted(m, u0, cfg):
            d = construct(m, u0, cfg)
            v2 = d.v2.copy()
            v2[5] += 0.1
            return DualState1D(d.v1, v2, d.z)

        monkeypatch.setattr(dual1d, "construct_duals", corrupted)
        report = dual1d.certify(bar_model)
        assert not report.passed
        assert report.constraint_residual_norm > dual1d.CONSTRAINT_TOL
        assert any(e.startswith("constraint: ") for e in report.errors)

    def test_deterministic_given_seed(self, capsys):
        # the bounds draw no samples: --seed changes only its echo
        docs = []
        for seed in ("3", "3", "4"):
            cli.main(["certify1d", "--amp", "0.1", "--n", "64", "--seed", seed])
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]
        assert docs[2]["config_echo"].pop("seed") == 4
        docs[0]["config_echo"].pop("seed")
        assert docs[0] == docs[2]

    def test_radius_is_halved_once_near_the_positivity_boundary(self):
        # min den is about 0.014 at EA = 0.05: r = margin/2 is halved once,
        # and 3r < margin afterwards
        m = dual1d.sine_load_model(0.05, 1.0, 1.0, 0.02, 64)
        report = dual1d.certify(m)
        margin, r0 = report.min_positivity_margin, 0.5 * report.min_positivity_margin
        assert margin < 0.03
        assert report.r == r0 / (m.EA / 2.0)
        assert report.r1 == report.r2 == 0.5 * r0
        assert 3.0 * report.r1 < margin


def _saddle_counts_per_sample(m, d_hat, cfg, r1, r2, seed, n_samples=100, tol=1e-10):
    """Oracle of the saddle check, the sampler it replaced: (passed_z,
    passed_v, lost) from one sample at a time, each z-sample through the
    single-state dual_functional and each v-sample through a projected
    Newton in z, with the z-derivatives of the dual density written out
    here.  ``lost`` counts the v-samples whose Newton met a z-curvature
    <= 0 inside the ball; they do not pass."""
    rng = np.random.default_rng(seed)
    n = m.grid.n_elem
    z_deltas = rng.uniform(-1.0, 1.0, size=(n_samples, n))
    v_deltas = rng.uniform(-1.0, 1.0, size=(n_samples, n))
    v_consts = rng.uniform(-1.0, 1.0, size=n_samples)
    J_center = dual1d.dual_functional(d_hat, m, cfg)
    passed_z = passed_v = lost = 0
    for delta in z_deltas:
        z = d_hat.z + delta * (r1 / np.max(np.abs(delta)))
        J = dual1d.dual_functional(DualState1D(d_hat.v1, d_hat.v2, z), m, cfg)
        passed_z += int(J >= J_center - tol)
    lo, hi = d_hat.z - r1, d_hat.z + r1
    for d1, c in zip(v_deltas, v_consts):
        d2 = c - d1  # constant sum: weak divergence is unchanged
        scale = r2 / max(np.max(np.abs(d1)), np.max(np.abs(d2)))
        v1, v2 = d_hat.v1 + d1 * scale, d_hat.v2 + d2 * scale
        z = np.clip(d_hat.z, lo, hi)
        for _ in range(100):
            den = v2 + z + cfg.K
            grad = z / cfg.K + 0.5 * v1**2 / den**2 - (v2 + z) / m.EA
            curv = 1.0 / cfg.K - v1**2 / den**3 - 1.0 / m.EA
            assert np.all(den > 0.0)
            if np.any(curv <= 0.0):
                lost += 1
                break
            z_new = np.clip(z - grad / curv, lo, hi)
            step, z = np.max(np.abs(z_new - z)), z_new
            if step <= 1e-14:
                break
        else:
            raise AssertionError("projected z-Newton did not converge")
        if np.all(curv > 0.0):
            J = dual1d.dual_functional(DualState1D(v1, v2, z), m, cfg)
            passed_v += int(J <= J_center + tol)
    return passed_z, passed_v, lost


def _local_min_per_sample(m, u0, seed, n_samples=200, radius=1e-3, tol=1e-12):
    """Oracle of the local-minimality check, the sampler it replaced: how many
    clamped perturbations of norm_U ``radius`` drawn from default_rng(seed)
    keep J(u0 + delta) >= J(u0) - tol."""
    rng = np.random.default_rng(seed)
    n = m.grid.n_elem
    J0 = primal1d.energy(m, PrimalState(u0))
    passed = 0
    for _ in range(n_samples):
        delta = np.zeros(n + 1)
        delta[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
        delta *= radius / norm_U(delta, m.grid)
        passed += int(primal1d.energy(m, PrimalState(u0 + delta)) >= J0 - tol)
    return passed


def _certify_at(m, u0, shift=0.0, split=0.0):
    """certify with the primal solve returning u0 and the dual centre moved
    off its stationary point: z by ``shift``, and v1 by ``split`` and v2 by
    -split, so that v1 + v2 and with it the weak equilibrium stay."""
    construct = dual1d.construct_duals

    def shifted(m, u, cfg):
        d = construct(m, u, cfg)
        return DualState1D(d.v1 + split, d.v2 - split, d.z + shift)

    with mock.patch.object(primal1d, "solve_newton", lambda *a, **k: PrimalState(u0)):
        with mock.patch.object(dual1d, "construct_duals", shifted):
            return dual1d.certify(m)


def _bumped_solution(m, bump):
    """The Newton solution plus a bump alternating from node to node."""
    u0 = primal1d.solve_newton(m).u.copy()
    u0[1:-1] += bump * (-1.0) ** np.arange(m.grid.n_elem - 1)
    return u0


class TestBatchedSamples:
    """The closed-form local-minimality check of ``certify`` against a
    per-sample replay of the sampler it replaced."""

    N = 512

    @pytest.mark.parametrize("bump", [0.0, 1e-5])
    def test_local_min_matches_per_sample_replay(self, bump):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, self.N)
        u0 = _bumped_solution(m, bump)
        report = _certify_at(m, u0)
        passed = _local_min_per_sample(m, u0, seed=5)
        assert report.condition_ok
        assert report.slope_radius > 1.0 / 12.0
        assert (passed == 200) == (report.energy_deficit <= dual1d.LOCAL_MIN_TOL)
        assert 0 < passed < 200 if bump else passed == 200


@st.composite
def _certified_states(draw):
    """(E, n, load, shift, split, bump, seed): a bar with A = L = 1 under the
    sine load load * E, half of the loads near the slope limit |u_x| = 1/4,
    and the perturbations of ``_certify_at`` (in units of EA) and
    ``_bumped_solution`` (in units of h)."""
    E = draw(st.floats(0.05, 4.0))
    n = draw(st.sampled_from([4, 16, 64]))
    load = draw(st.one_of(st.floats(-0.61, 0.61), st.floats(0.55, 0.61)))
    shift, split = (draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05))) * E
                    for _ in range(2))
    bump = draw(st.one_of(st.just(0.0), st.floats(-2e-3, 2e-3))) / n  # h = 1/n
    return E, n, load, shift, split, bump, draw(st.integers(0, 2**16))


class TestSampleOracles:
    @settings(max_examples=60, deadline=None)
    @given(_certified_states())
    def test_bounds_fail_whenever_a_sampler_does(self, case):
        E, n, load, shift, split, bump, seed = case
        m = dual1d.sine_load_model(E, 1.0, 1.0, load * E, n)
        u0 = _bumped_solution(m, bump)
        report = _certify_at(m, u0, shift, split)
        assume(report.condition_ok)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, PrimalState(u0), cfg)
        centre = DualState1D(d.v1 + split, d.v2 - split, d.z + shift)
        pz, pv, lost = _saddle_counts_per_sample(
            m, centre, cfg, report.r1, report.r2, seed
        )
        failed = {e.split(":")[0] for e in report.errors}
        if lost:
            assert report.z_curvature_floor <= 0.0 and "saddle_z" in failed
        if pz < 100:
            assert report.z_deficit > dual1d.SADDLE_TOL and "saddle_z" in failed
        if pv + lost < 100:
            assert report.v_excess > dual1d.SADDLE_TOL and "saddle_v" in failed
        if _local_min_per_sample(m, u0, seed) < 200:
            assert "local_min" in failed
        if shift == split == bump == 0.0:
            # constructed duals: every bound holds; the curvature floor
            # needs den ~ EA/2 well above r = 1e-2, here EA >= 0.3
            assert not failed & {"constraint", "saddle_v", "local_min"}
            if E >= 0.5:
                assert report.passed

    def test_saddle_bounds_are_attained_where_samples_miss(self):
        # moving the centre's z by 3e-3 off its stationary point opens a drop
        # of J* inside the z-ball, at the unshifted z, that all 100 random
        # z-samples miss; z_deficit bounds it to a few percent.  The v-samples
        # pass there too, while the v-side bound fails.
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, 512)
        u0 = primal1d.solve_newton(m).u
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, PrimalState(u0), cfg)
        for shift in (0.0, 3e-3):
            report = _certify_at(m, u0, shift)
            centre = DualState1D(d.v1, d.v2, d.z + shift)
            pz, pv, lost = _saddle_counts_per_sample(
                m, centre, cfg, report.r1, report.r2, seed=5
            )
            assert lost == 0 and report.z_curvature_floor > 0.0
            assert pz == pv == 100
            assert (report.z_deficit <= dual1d.SADDLE_TOL) == (shift == 0.0)
            assert (report.v_excess <= dual1d.SADDLE_TOL) == (shift == 0.0)
        J_c = dual1d.dual_functional(centre, m, cfg)
        drop = J_c - dual1d.dual_functional(d, m, cfg)
        assert dual1d.SADDLE_TOL < 0.9 * report.z_deficit < drop <= report.z_deficit

    @pytest.mark.parametrize("E, load", [(1.0, 0.3), (4.0, -0.6), (0.1, 0.3), (0.05, 0.6)])
    def test_curvature_floor_is_attained_at_the_worst_corner(self, E, load):
        m = dual1d.sine_load_model(E, 1.0, 1.0, load * E, 64)
        report = dual1d.certify(m)
        cfg = DualConfig(m.EA / 2.0)
        K, EA, r = cfg.K, m.EA, report.r1
        d = dual1d.construct_duals(m, primal1d.solve_newton(m), cfg)
        corner = DualState1D(d.v1 + np.copysign(r, d.v1), d.v2 - r, d.z - r)
        curv = dual1d.dstar_hessian_z(corner, m, cfg)
        # both roundings, in units u of each term: the floor's (its
        # docstring) and the kernel's at the corner, whose den also carries
        # the shifts: 1/K, 1/EA, k and t = v1^2/den^3 carry 4, 4, 3 and
        # 12 + 3 (|v2| + |z| + 2r + 2 |s| + 2 den + b)/b
        u = 0.5 * np.finfo(float).eps
        s, den = np.abs(d.v2 + d.z), d.v2 + d.z + K
        b = den - 2.0 * r
        t = (np.abs(d.v1) + r) ** 2 / b**3
        spread = np.abs(d.v2) + np.abs(d.z) + 2.0 * r + 2.0 * s + 2.0 * den + b
        bound = u * (4.0 / K + 4.0 / EA + 3.0 * np.abs(curv) + t * (12.0 + 3.0 * spread / b))
        assert report.z_curvature_floor <= curv.min()
        assert curv.min() - report.z_curvature_floor <= np.max(bound)
        assert (report.z_curvature_floor > 0.0) == (E >= 1.0)


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
        res = stationarity_residuals(d, bar_solution.u, bar_model, cfg)
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

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    @pytest.mark.parametrize("amp", [0.05, 0.2, 0.5])
    def test_newton_iterations_inside_hypothesis(self, amp, n):
        # one line-search Newton stage at the full load: 3-5 unit steps
        report = dual1d.certify(dual1d.sine_load_model(1.0, 1.0, 1.0, amp, n))
        assert report.passed
        assert 1 <= report.newton_iters <= 5

    def test_failed_newton_reports_its_iterations(self):
        report = dual1d.certify(dual1d.sine_load_model(1.0, 1.0, 1.0, 10.0, 2048))
        # the residual floor of ROADMAP item 8 stops all 50 iterations
        assert len(report.errors) == 1
        assert report.errors[0].startswith("newton: residual ")
        assert report.errors[0].endswith(" after 50 iterations")
        assert report.newton_iters == 50
        assert json.loads(report.to_json())["primal"]["newton_iters"] == 50

    def test_condition_violation_path(self):
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 10.0, 16)
        report = dual1d.certify(m)
        assert not report.passed
        assert not report.condition_ok
        assert any(e.startswith("hypothesis") for e in report.errors)

    def test_memory_is_bounded(self):
        # peak traced allocation of one n = 4096 certification: 0.96 MB of
        # O(n) arrays, no sample stacks
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, 0.3, 4096)
        tracemalloc.start()
        try:
            report = dual1d.certify(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1.5e6

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
