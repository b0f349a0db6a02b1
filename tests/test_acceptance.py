"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each test also asserts, so a plain pytest run is authoritative.
"""

import json
import time

import numpy as np
import pytest

from elastodual import cli, dual1d, fem3d, primal1d, tensor3d
from elastodual.dual1d import DualConfig, DualState1D
from elastodual.fem3d import BoxMesh, SolidModel
from elastodual.mesh1d import Grid1D, norm_V
from elastodual.primal1d import BarModel, PrimalState
from elastodual.tensor3d import I3, LameParams

from conftest import (
    dense_tangent_3d,
    f_star_sup_oracle,
    g_star_k_sup_oracle,
    golden_max,
    hessian,
    m_tensor_oracle,
    norm_U,
    random_rotation,
    stationarity_residuals,
)

AMPLITUDES = (0.02, 0.05, 0.1)


def _report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def one_d_cases():
    """Converged primal/dual data for the three canonical 1D amplitudes."""
    cases = {}
    for amp in AMPLITUDES:
        t0 = time.perf_counter()
        m = dual1d.sine_load_model(1.0, 1.0, 1.0, amp, 64)
        report = dual1d.certify(m)
        elapsed = time.perf_counter() - t0
        u0 = primal1d.solve_newton(m)
        cfg = DualConfig(m.EA / 2.0)
        d = dual1d.construct_duals(m, u0, cfg)
        cases[amp] = (m, u0, d, cfg, report, elapsed)
    return cases


@pytest.fixture(scope="module")
def three_d_case():
    m = SolidModel(
        lx=1.0, ly=1.0, lz=1.0, nx=4, ny=4, nz=4,
        lame=LameParams(1.0, 1.0),
        body_force=np.zeros(3), traction=np.array([0.02, 0.0, 0.0]),
    )
    t0 = time.perf_counter()
    report = fem3d.certify_3d(m)
    elapsed = time.perf_counter() - t0
    return m, report, elapsed


def test_criterion_01_zero_gap_1d(one_d_cases):
    ok = True
    details = []
    for amp, (m, u0, d, cfg, report, elapsed) in one_d_cases.items():
        rel = abs(report.gap) / (1.0 + abs(report.J_primal))
        ok = ok and report.condition_ok and rel <= 1e-10 and elapsed < 1.0
        details.append(f"p0={amp}: gap={report.gap:.2e}, t={elapsed:.2f}s")
    _report(1, "1D zero duality gap at p0 in {0.02, 0.05, 0.1}", ok,
            "; ".join(details))


def test_criterion_02_positivity_bound(one_d_cases):
    ok = True
    worst = np.inf
    for amp, (m, u0, d, cfg, report, _) in one_d_cases.items():
        margin = d.positivity_margin(cfg)
        worst = min(worst, margin)
        ok = ok and margin > (7.0 / 32.0) * m.EA - 1e-12
    _report(2, "pointwise bound v2+z+EA/2 > (7/32) EA", ok,
            f"min margin {worst:.6f} vs 7/32 = {7 / 32:.6f}")


def test_criterion_03_hessian_bound(one_d_cases):
    ok = True
    worst = np.inf
    for amp, (m, u0, d, cfg, report, _) in one_d_cases.items():
        hz = float(np.min(dual1d.dstar_hessian_z(d, m, cfg)))
        worst = min(worst, hz)
        ok = ok and hz > 5.0 / (7.0 * m.EA) - 1e-12
    _report(3, "dual z-Hessian > 5/(7 EA) elementwise", ok,
            f"min {worst:.6f} vs 5/7 = {5 / 7:.6f}")


def test_criterion_04_stationarity_and_kkt(one_d_cases):
    m, u0, d, cfg, _, _ = one_d_cases[0.1]
    res = stationarity_residuals(d, u0.u, m, cfg)
    ok = max(res.values()) <= 1e-11

    rng = np.random.default_rng(11)
    n = m.grid.n_elem
    zp = d.z + 1e-3 * rng.uniform(-1, 1, n)
    v1p = d.v1 + 1e-3 * rng.uniform(-1, 1, n)
    v2p = d.v2 + 1e-3 * rng.uniform(-1, 1, n)
    up = u0.u.copy()
    up[1:-1] += 1e-3 * rng.uniform(-1, 1, n - 1)
    d2, u2, _ = dual1d.kkt_solve(m, cfg, (DualState1D(v1p, v2p, zp), up))
    delta = max(
        norm_V(d2.v1 - d.v1), norm_V(d2.v2 - d.v2),
        norm_V(d2.z - d.z), float(np.max(np.abs(u2 - u0.u))),
    )
    ok = ok and delta <= 1e-8
    _report(4, "stationarity residuals <= 1e-11 and KKT reconvergence", ok,
            f"max residual {max(res.values()):.2e}, reconverged delta {delta:.2e}")


def test_criterion_05_saddle_sampling(one_d_cases):
    # the closed-form bounds replace 100 z- and 100 v-samples on the same
    # ball and are held to the samples' tolerance, 1e-10
    ok = True
    details = []
    for amp, (m, u0, d, cfg, report, _) in one_d_cases.items():
        ok = ok and report.r1 == report.r2 == 1e-2
        ok = ok and report.z_curvature_floor > 0.0
        ok = ok and report.z_deficit <= 1e-10 and report.v_excess <= 1e-10
        details.append(f"p0={amp}: floor {report.z_curvature_floor:.3f}, "
                       f"z {report.z_deficit:.1e}, v {report.v_excess:.1e}")
    _report(5, "saddle: z-convex on the ball, z deficit and v excess <= 1e-10",
            ok, "; ".join(details))


def test_criterion_06_local_minimality(one_d_cases):
    # the slope ball of the bound holds the 1e-3 sample ball it replaces
    ok = True
    for amp, (m, u0, d, cfg, report, _) in one_d_cases.items():
        ok = ok and report.slope_radius > 1.0 / 12.0 > 1e-3
        ok = ok and report.energy_deficit <= 1e-12
        ok = ok and report.min_eig_floor > 0.0
    _report(6, "local minimality: energy deficit <= 1e-12 on a slope ball "
            "> 1/12 and a positive second-variation floor", ok)


def test_criterion_07_derivative_oracles(one_d_cases):
    eps = 1e-5
    rng = np.random.default_rng(21)
    ok = True
    # 1D: 20 random states
    n = 24
    g = Grid1D(1.0, n)
    m = BarModel(1.0, 1.0, g, rng.standard_normal(n) * 0.1)
    for _ in range(20):
        u = np.zeros(n + 1)
        u[1:-1] = 0.05 * rng.uniform(-1, 1, n - 1)
        s = PrimalState(u)
        phi = np.zeros(n + 1)
        phi[1:-1] = rng.uniform(-1, 1, n - 1)
        dj = float(primal1d.residual(m, s) @ phi)
        fd = (
            primal1d.energy(m, PrimalState(u + eps * phi))
            - primal1d.energy(m, PrimalState(u - eps * phi))
        ) / (2 * eps)
        ok = ok and abs(dj - fd) <= 1e-6 * (1.0 + abs(dj))
        diag, off = hessian(m, s)
        hv = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) @ phi[1:-1]
        fdh = (
            primal1d.residual(m, PrimalState(u + eps * phi))
            - primal1d.residual(m, PrimalState(u - eps * phi))
        )[1:-1] / (2 * eps)
        ok = ok and np.max(np.abs(hv - fdh)) <= 1e-6 * (1 + np.max(np.abs(hv)))

    # 3D: 20 random states on a 2x2x2 mesh
    sm = SolidModel(
        1.0, 1.0, 1.0, 2, 2, 2, LameParams(1.0, 1.0),
        body_force=np.array([0.05, 0.0, -0.02]),
        traction=np.array([0.02, 0.0, 0.0]),
    )
    mesh = BoxMesh(sm)
    for _ in range(20):
        u = np.zeros((mesh.n_nodes, 3))
        u.reshape(-1)[mesh.free_dofs] = 0.02 * rng.uniform(
            -1, 1, mesh.free_dofs.size
        )
        phi = np.zeros((mesh.n_nodes, 3))
        phi.reshape(-1)[mesh.free_dofs] = rng.uniform(
            -1, 1, mesh.free_dofs.size
        )
        dj = float(np.sum(fem3d.residual_3d(sm, mesh, u) * phi))
        fd = (
            fem3d.energy_3d(sm, mesh, u + eps * phi)
            - fem3d.energy_3d(sm, mesh, u - eps * phi)
        ) / (2 * eps)
        ok = ok and abs(dj - fd) <= 1e-6 * (1.0 + abs(dj))
        Kg = dense_tangent_3d(sm, mesh, u)
        hv = (Kg @ phi.ravel())[mesh.free_dofs]
        fdh = (
            fem3d.residual_3d(sm, mesh, u + eps * phi)
            - fem3d.residual_3d(sm, mesh, u - eps * phi)
        ).ravel()[mesh.free_dofs] / (2 * eps)
        ok = ok and np.max(np.abs(hv - fdh)) <= 1e-6 * (1 + np.max(np.abs(hv)))
    _report(7, "gradient/Hessian match central differences (1D and 3D)", ok)


def test_criterion_08_conjugate_oracles(one_d_cases):
    m, u0, d, cfg, _, _ = one_d_cases[0.1]
    ok = True
    # 1D F*: grid-search sup
    for z in d.z[::16]:
        closed = float(dual1d.F_star_density(np.array([z]), cfg)[0])
        ok = ok and abs(closed - f_star_sup_oracle(float(z), cfg.K)) <= 1e-3
    # 1D G*_K: two-stage grid search of the defining sup
    closed = dual1d.G_star_K_density(d, m, cfg)
    worst = 0.0
    for e in (0, 21, 42, 63):
        sup = g_star_k_sup_oracle(d.v1[e], d.v2[e], d.z[e], m.EA, cfg.K)
        worst = max(worst, abs(sup - closed[e]))
    ok = ok and worst <= 1e-3

    # 3D density: coordinate ascent must not exceed the closed form by 1e-6
    rng = np.random.default_rng(31)
    p = LameParams(1.0, 1.0)
    K = 1.0
    g0 = 0.05 * rng.uniform(-1, 1, (3, 3))
    v1, v2, z = tensor3d.construct_duals_pointwise(p, K, g0)
    closed3 = tensor3d.g_star_k_density(v1, v2, z, p, K)
    s = v2 + z

    def phi(a, b):
        X = a + 0.5 * b.T @ b
        return float(
            np.sum(a * s) + np.sum(b * v1)
            - 0.5 * np.sum(X * tensor3d.hooke_apply(p, X))
            - 0.5 * K * np.sum(b * b)
        )

    b = v1 @ np.linalg.inv(s + K * I3)
    a = tensor3d.hooke_apply(tensor3d.compliance_params(p), s) - 0.5 * b.T @ b
    for _ in range(8):
        for M in (a, b):
            for i in range(3):
                for j in range(3):
                    x0 = M[i, j]

                    def slice_f(x, M=M, i=i, j=j):
                        old = M[i, j]
                        M[i, j] = x
                        val = phi(a, b)
                        M[i, j] = old
                        return val

                    M[i, j] = golden_max(slice_f, x0 - 0.5, x0 + 0.5)
    excess = phi(a, b) - closed3
    ok = ok and excess <= 1e-6
    _report(8, "conjugate closed forms match brute-force sup oracles", ok,
            f"1D worst {worst:.2e}, 3D ascent excess {excess:.2e}")


def test_criterion_09_tensor_algebra():
    p = LameParams(1.0, 1.0)
    c = tensor3d.compliance_params(p)
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        S = tensor3d.sym(rng.uniform(-1, 1, (3, 3)))
        HbHS = tensor3d.hooke_apply(c, tensor3d.hooke_apply(p, S))
        ok = ok and np.max(np.abs(HbHS - S)) <= 1e-12
    worst_rot = 0.0
    for _ in range(50):
        R = random_rotation(rng)
        worst_rot = max(
            worst_rot, float(np.max(np.abs(tensor3d.green_strain(R - I3))))
        )
    ok = ok and worst_rot <= 1e-12
    _report(9, "H.Hbar identity and Green strain kills 50 rigid rotations",
            ok, f"worst rotation strain {worst_rot:.2e}")


def test_criterion_10_zero_gap_3d(three_d_case):
    m, report, elapsed = three_d_case
    rel = abs(report.gap) / (1.0 + abs(report.J_primal))
    ok = (
        report.passed
        and report.condition_ok
        and rel <= 1e-8
        and report.constraint_residual_norm <= 1e-9
        and elapsed < 60.0
    )
    _report(10, "3D zero duality gap on 4x4x4 mesh", ok,
            f"rel gap {rel:.2e}, constraint {report.constraint_residual_norm:.2e}, "
            f"t={elapsed:.1f}s")


def test_criterion_11_m_tensor_report(tmp_path):
    p = LameParams(1.0, 1.0)
    out = tmp_path / "ktensor.json"
    code = cli.main(["ktensor", "--lam", "1", "--mu", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    ok = code == 0
    details = []
    for mode in tensor3d.M_TENSOR_MODES:
        k_closed = doc["modes"][mode]["K_max"]
        ks = np.linspace(1e-4, 4.0, 10_000)
        eigs = np.linalg.eigvalsh(m_tensor_oracle(p.lam, p.mu, ks, mode))[:, 0]
        idx = int(np.argmax(eigs <= 0.0))
        k0, k1 = ks[idx - 1], ks[idx]
        e0, e1 = eigs[idx - 1], eigs[idx]
        k_grid = k0 - e0 * (k1 - k0) / (e1 - e0)
        ok = ok and abs(k_closed - k_grid) <= 1e-6
        details.append(f"{mode}: closed form {k_closed:.8f}, sweep {k_grid:.8f}")
    _report(11, "K_max closed form matches 10^4-point grid sweep, JSON published",
            ok, "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    ok = True
    pairs = [
        ["certify1d", "--amp", "0.1", "--n", "64", "--seed", "9"],
        ["certify3d", "--mesh", "2,2,2", "--seed", "9"],
        ["ktensor"],
    ]
    for args in pairs:
        a = tmp_path / (args[0] + "_a.json")
        b = tmp_path / (args[0] + "_b.json")
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(12, "identical config and seed give byte-identical reports", ok)
