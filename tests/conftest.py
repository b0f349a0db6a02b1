"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they are meant to check:
high-resolution quadrature instead of the package's midpoint rule, dense
eigensolvers and LAPACK bisection instead of the closed-form eigenvalue floor,
Barzilai-Borwein descent and a line-search Newton over the nodal
displacements instead of the force solve, brute-force grid search instead
of closed-form conjugates, and einsum-built 3x3x3x3 tensors, taken on a
symmetric basis built here, instead of the closed-form isotropic tensors.
"""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from elastodual import dual1d, fem3d, primal1d, tensor3d
from elastodual.errors import ConditionViolated, NonConvergence, SingularSystem
from elastodual.mesh1d import Grid1D, average_to_midpoints, derivative, norm_V
from elastodual.primal1d import PrimalState


@pytest.fixture(scope="session")
def bar_model():
    """Canonical certification case: E=A=L=1, P = 0.1 sin(pi x), n=64."""
    return dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 64)


@pytest.fixture(scope="session")
def bar_solution(bar_model):
    return primal1d.solve_newton(bar_model)


@pytest.fixture(scope="session")
def bar_duals(bar_model, bar_solution):
    cfg = dual1d.DualConfig(K=bar_model.EA / 2.0)
    return dual1d.construct_duals(bar_model, bar_solution, cfg), cfg


def interp_linear(u: np.ndarray, g: Grid1D, x: np.ndarray):
    """Evaluate a piecewise-linear nodal field and its slope at points x."""
    e = np.clip((x / g.h).astype(int), 0, g.n_elem - 1)
    ux = np.diff(u) / g.h
    return u[e] + ux[e] * (x - g.nodes[e]), ux[e]


def energy_oracle_1d(m, u, n_fine=1_000_000):
    """High-resolution midpoint quadrature of the energy of the P1 field u.

    The load P is the model's elementwise field (piecewise constant), matched
    to the same fine quadrature.
    """
    g = m.grid
    x = (np.arange(n_fine) + 0.5) * (g.length / n_fine)
    uval, ux = interp_linear(u, g, x)
    e = np.clip((x / g.h).astype(int), 0, g.n_elem - 1)
    strain = ux + 0.5 * ux**2
    dens = 0.5 * m.EA * strain**2 - m.P[e] * uval
    return float(np.sum(dens) * g.length / n_fine)


def bb_minimize_1d(m, tol=1e-11, max_iter=50_000):
    """Barzilai-Borwein gradient descent on the 1D energy.

    Uses the residual as the gradient (itself validated against finite
    differences of the energy), providing a Newton-free route to u0.
    """
    u = np.zeros(m.grid.n_elem + 1)
    r_prev = s_prev = None
    for _ in range(max_iter):
        r = primal1d.residual(m, primal1d.PrimalState(u))[1:-1]
        if np.max(np.abs(r)) < tol:
            return primal1d.PrimalState(u)
        if r_prev is None:
            step = 1e-2
        else:
            dg = r - r_prev
            denom = float(np.dot(dg, dg))
            step = abs(float(np.dot(s_prev, dg))) / denom if denom > 0 else 1e-2
        s_prev = -step * r
        r_prev = r
        u = u.copy()
        u[1:-1] += s_prev
    raise AssertionError("BB descent oracle did not converge")


def f_star_sup_oracle(z: float, K: float) -> float:
    """Grid-search sup_v {v z - K v^2 / 2} over [-10, 10], step 1e-3."""
    v = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    return float(np.max(v * z - 0.5 * K * v**2))


def g_star_k_sup_oracle(v1s, v2s, zs, EA, K):
    """Two-stage grid search of the defining sup of the 1D G*_K density:
    sup_{a,b} a (z + v2) + b v1 - EA/2 (a + b^2/2)^2 - K/2 b^2."""

    def val(a, b):
        return (
            a * (zs + v2s) + b * v1s
            - 0.5 * EA * (a + 0.5 * b**2) ** 2 - 0.5 * K * b**2
        )

    g = np.arange(-10.0, 10.0 + 1e-9, 1e-2)
    A, B = np.meshgrid(g, g)
    F = val(A, B)
    i = np.unravel_index(np.argmax(F), F.shape)
    a0, b0 = float(A[i]), float(B[i])
    ga = np.arange(a0 - 0.02, a0 + 0.02 + 1e-12, 1e-4)
    gb = np.arange(b0 - 0.02, b0 + 0.02 + 1e-12, 1e-4)
    A, B = np.meshgrid(ga, gb)
    return float(np.max(val(A, B)))


def golden_max(f, lo, hi, iters=60):
    """Golden-section maximization of a unimodal scalar function."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - gr * (hi - lo), lo + gr * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def random_rotation(rng):
    """Haar-ish random proper rotation from a QR factorization."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def isotropic_tensor(lam, mu):
    """lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk) as a 3x3x3x3 array."""
    d = np.eye(3)
    return lam * np.einsum("ij,kl->ijkl", d, d) + mu * (
        np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)
    )


def sym_basis():
    """Orthonormal basis of the symmetric 3x3 tensors, (6, 3, 3): the three
    diagonal units, then the (1,2), (0,2), (0,1) shears scaled by 1/sqrt(2)."""
    E = np.zeros((6, 3, 3))
    for a, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))):
        E[a, i, j] = E[a, j, i] = 1.0 if i == j else 1.0 / math.sqrt(2.0)
    return E


def on_sym(T):
    """6x6 matrix of a fourth-order tensor (3x3x3x3 or 9x9) on sym_basis()."""
    E = sym_basis()
    return np.einsum("aij,ijkl,bkl->ab", E, np.reshape(T, (3, 3, 3, 3)), E)


def m_tensor_oracle(lam, mu, K, mode):
    """The K-feasibility tensor (D - (3/32) delta-term)/K - Hbar on
    sym_basis(), (..., 6, 6) for K of shape (...): the delta term is
    assembled as a 9x9 array and projected, Hbar is the numerical inverse of
    the projected stiffness."""
    i9 = np.eye(3).reshape(9)
    delta = np.eye(9) if mode == "identity" else np.outer(i9, i9)
    Hbar = np.linalg.inv(on_sym(isotropic_tensor(lam, mu)))
    K = np.asarray(K, dtype=float)[..., None, None]
    return on_sym(np.eye(9) - (3.0 / 32.0) * delta) / K - Hbar


def chain_matrix(c, h):
    """Diagonal d and off-diagonal e of the clamped spring chain
    T = (1/h^2) D^T diag(c) D, the bar's second variation against the
    discrete L2 inner product, and the norm max|d| + 2 max|e| that scales the
    rounding of its eigenvalues."""
    d, e = (c[:-1] + c[1:]) / h / h, -c[1:-1] / h / h
    return d, e, float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))


def bisection_min_eig(c, h):
    """Smallest eigenvalue of the spring chain by LAPACK dstebz bisection
    (Sturm counts), not the package's closed-form floor."""
    d, e, _ = chain_matrix(c, h)
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def curvature(m, e):
    """Elementwise second-variation coefficient EA*((1+u_x)^2 + u_x + u_x^2/2)
    of the slope terms e: the springs of the bar's Hessian."""
    return m.EA * (e.opx**2 + e.ux + e.half_sq)


def chain_is_positive_definite(c):
    """Whether the clamped spring chain of c has no zero spring and is positive
    definite: every c > 0, or exactly one c < 0 and sum 1/c < 0."""
    neg = np.count_nonzero(c < 0.0)
    return bool(c.all() and (neg == 0 or neg == 1 and np.sum(1.0 / c) < 0.0))


def change_along(m, e, du):
    """t -> J(u + t du) - J(u) for u of slope terms e and a clamped nodal
    increment du, summed per element: a plain difference of two energies
    loses the O(|du|^2) decrease of a Newton step near convergence to rounding."""
    d, load = derivative(du, m.grid), m.P * average_to_midpoints(du, m.grid)
    opx, two_strain = e.opx, 2.0 * e.strain
    td, s, w = (np.empty_like(d) for _ in range(3))

    def change(t):  # in place: three buffers, the same roundings
        np.multiply(t, d, out=td)
        np.add(opx, np.multiply(0.5, td, out=s), out=s)
        np.multiply(td, s, out=s)  # the strain change
        np.multiply(0.5 * m.EA, s, out=w)
        np.multiply(w, np.add(two_strain, s, out=s), out=w)
        np.subtract(w, np.multiply(t, load, out=td), out=w)
        return float(np.sum(w) * m.grid.h)
    return change


def hessian(m, s):
    """Interior-node tridiagonal second variation of the bar, as (diagonal,
    off-diagonal): the clamped spring chain of the curvatures on the hat
    functions."""
    c, h = curvature(m, s.terms(m.grid)), m.grid.h
    return (c[:-1] + c[1:]) / h, -c[1:-1] / h


def energy_change(m, s, du):
    """J(u + du) - J(u) for a clamped nodal increment du: the t = 1 trial of
    reference_newton's line search."""
    return change_along(m, s.terms(m.grid), du)(1.0)


def bar_newton_state(m, u):
    """The NewtonState of the clamped nodal field u, formed from u alone by
    the public helpers: its slopes u_x, the residual at them and its norm, and
    the shift of the exact mean of the slopes, whose float sum is 0 only to
    rounding."""
    e = PrimalState(u).terms(m.grid)
    r = primal1d.residual(m, PrimalState(u))[1:-1]
    n = m.grid.n_elem
    shift = abs(float(np.sum(e.ux))) / n + primal1d.U * float(np.sum(np.abs(e.ux)))
    return primal1d.NewtonState(u, e, r, norm_V(r) + 4.0 * m.EA * shift, shift)


def reference_newton(m, iteration_log=None, iterates=None):
    """The bar's line-search Newton over the nodal displacements, as the bar
    was solved before its force solve: an oracle for primal1d.solve_newton
    that shares none of its steps.  From u = 0 each iteration forms the
    residual from u, the clamped spring chain of the curvatures (raised to
    1e-2 max|c| where it is not positive definite) and an Armijo line search
    (c1 = 1e-4, t halved from 1 and given up below 1e-15) on change_along.
    Appends each iterate to ``iterates`` and the number of steps taken to
    ``iteration_log``; NonConvergence at a non-finite residual or after
    NEWTON_MAX_ITER steps, where its residual stops at the rounding of u."""
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    du = np.zeros(g.n_elem + 1)
    it = 0
    try:
        for it in range(primal1d.NEWTON_MAX_ITER + 1):
            if iterates is not None:
                iterates.append(u)
            e = PrimalState(u).terms(g)
            r = primal1d.weak_residual(m, m.EA * e.strain * e.opx)
            res = norm_V(r)
            if res <= primal1d.NEWTON_TOL:
                return PrimalState(u)
            if it == primal1d.NEWTON_MAX_ITER or not np.isfinite(res):
                raise NonConvergence(f"residual {res:.3e} after {it} iterations")
            c = curvature(m, e)
            if not chain_is_positive_definite(c):
                c = np.maximum(c, 1e-2 * np.max(np.abs(c)))
            du[1:-1] = primal1d.solve_spring_chain(c, g.h, -r)
            change = change_along(m, e, du)
            slope, t = float(r @ du[1:-1]), 1.0
            while not change(t) <= 1e-4 * t * slope:
                t *= 0.5
                if t < 1e-15:
                    raise NonConvergence(f"no descent at residual {res:.3e}")
            u = u + t * du
    finally:
        if iteration_log is not None:
            iteration_log.append(it)
    raise NonConvergence("unreachable")


def certify_reference(m):
    """dual1d.certify assembled from the public helpers in the order it had
    before its per-op quantities were shared: the residual at the solved
    slopes, their clamp shift, (s, den, a), the equilibrium residual and the
    stationarity parts are formed anew by each helper that reads them, and
    the KKT re-check starts from scratch at the differenced u."""
    report = dual1d.GapReport()
    cfg = dual1d.DualConfig(K=m.EA / 2.0)
    iters = []
    try:
        state = primal1d.solve_newton(m, iteration_log=iters)
    except ConditionViolated as exc:
        report.condition_norm = primal1d.FAR_SLOPE
        report.errors.append(f"hypothesis: {exc}, no certification claimed")
        return report
    except NonConvergence as exc:
        report.errors.append(f"newton: {exc}")
        return report
    finally:
        report.newton_iters = sum(iters)
    u0, ux, n = state, state.e.ux, m.grid.n_elem
    res = primal1d.residual(m, u0)[1:-1]
    total = float(np.sum(ux))
    shift = abs(total) / n + primal1d.U * float(np.sum(np.abs(ux)))
    report.residual_norm = norm_V(res) + 4.0 * m.EA * abs(total) / n
    report.J_primal = primal1d.energy(m, u0)
    report.condition_norm, report.condition_ok = primal1d.condition_check(u0, m.grid)
    if not report.condition_ok:
        report.errors.append(
            f"hypothesis: ||u_x||_inf = {report.condition_norm:.6f} >= 1/4, "
            "no certification claimed"
        )
        return report
    d_hat = dual1d.construct_duals(m, u0, cfg)
    report.J_dual = dual1d.dual_functional(d_hat, m, cfg)
    report.gap = report.J_primal - report.J_dual
    margin = report.min_positivity_margin = float(np.min(d_hat.v2 + d_hat.z + cfg.K))
    report.min_hessian_z = float(np.min(dual1d.dstar_hessian_z(d_hat, m, cfg)))
    report.constraint_residual_norm = norm_V(dual1d.equilibrium_residual(d_hat, m)[1:-1])
    report.min_eig_floor = dual1d._min_eig_floor(m, report.condition_norm + shift)
    r0 = min(1e-2, 0.5 * margin)
    r = 0.5 * r0 if 3.0 * r0 >= margin else r0
    report.r, report.r1, report.r2 = r0 / cfg.K, r, r
    bounds = dual1d._saddle_bounds(
        d_hat, ux, m, cfg, r, dual1d._stationarity(d_hat, ux, m, cfg))
    report.z_curvature_floor, report.z_deficit, report.v_excess = bounds
    report.slope_radius = 1.0 / 3.0 - (report.condition_norm + shift) - 2.0 * dual1d.U
    report.energy_deficit = dual1d._energy_deficit(m, ux, res, shift)
    try:
        # u0.u is clamped (PrimalState), so it is kkt_solve's start as it is
        stat = dual1d._stationarity(d_hat, derivative(u0.u, m.grid), m, cfg)
        report.kkt_iters = dual1d._kkt_newton(m, cfg, d_hat, u0.u, 1e-11, stat)[2]
        report.kkt_converged = True
    except (NonConvergence, SingularSystem) as exc:
        report.errors.append(f"kkt: {exc}")
    gap_bound = dual1d.GAP_TOL * (1.0 + abs(report.J_primal))
    hess_z = report.min_hessian_z
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (report.constraint_residual_norm <= dual1d.CONSTRAINT_TOL,
         f"constraint: residual {report.constraint_residual_norm:.3e}"
         f" > {dual1d.CONSTRAINT_TOL:.3e}"),
        (margin > (7.0 / 32.0) * m.EA - 1e-12,
         f"positivity: min v2 + z + K {margin:.3e} <= 7 EA/32 = {7 * m.EA / 32:.3e}"),
        (hess_z > 5.0 / (7.0 * m.EA) - 1e-12,
         f"hessian: min z-Hessian {hess_z:.3e} <= 5/(7 EA) = {5 / (7 * m.EA):.3e}"),
        (report.min_eig_floor > 0.0,
         f"min_eig: second variation floor {report.min_eig_floor:.3e} <= 0"),
        (report.z_curvature_floor > 0.0,
         f"saddle_z: z-curvature floor {report.z_curvature_floor:.3e} <= 0 at r {r:.3e}"),
        (report.z_deficit <= dual1d.SADDLE_TOL,
         f"saddle_z: z deficit {report.z_deficit:.3e} > {dual1d.SADDLE_TOL:.3e}"),
        (report.v_excess <= dual1d.SADDLE_TOL,
         f"saddle_v: v excess {report.v_excess:.3e} > {dual1d.SADDLE_TOL:.3e}"),
        (report.energy_deficit <= dual1d.LOCAL_MIN_TOL,
         f"local_min: energy deficit {report.energy_deficit:.3e}"
         f" > {dual1d.LOCAL_MIN_TOL:.3e}"),
    )
    report.errors += [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report


def reference_report_json(report, config_echo=None):
    """The two reports' JSON as written before ``cli.report_json``: the bar's
    ``GapReport.to_json`` with its hand mapping to the nested schema 1.2, and
    the box's ``Gap3DReport.to_json``, a flat ``asdict`` (schema 1.2 since
    the box's report dropped ``min_hessian_z_eig``, 1.1 before).  The one
    serializer must match them byte for byte."""
    if isinstance(report, fem3d.Gap3DReport):
        doc = {"version": "1.2", "config_echo": config_echo or {}}
        doc.update(dataclasses.asdict(report))
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    self = report
    doc = {
        "version": "1.2",
        "config_echo": config_echo or {},
        "primal": {
            "J": self.J_primal,
            "residual_norm": self.residual_norm,
            "min_eig_floor": self.min_eig_floor,
            "newton_iters": self.newton_iters,
            "condition_norm": self.condition_norm,
            "condition_ok": self.condition_ok,
        },
        "dual": {
            "J_star": self.J_dual,
            "gap": self.gap,
            "positivity_margin": self.min_positivity_margin,
            "hessian_z_min": self.min_hessian_z,
            "constraint_residual_norm": self.constraint_residual_norm,
        },
        "saddle": {
            "r": self.r, "r1": self.r1, "r2": self.r2,
            "z_curvature_floor": self.z_curvature_floor,
            "z_deficit": self.z_deficit, "v_excess": self.v_excess,
        },
        "kkt": {"converged": self.kkt_converged, "iters": self.kkt_iters},
        "local_min": {
            "slope_radius": self.slope_radius, "energy_deficit": self.energy_deficit,
        },
        "passed": self.passed,
        "errors": self.errors,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def stationarity_residuals(d, u, m, cfg):
    """Max norms of the four stationarity equations of the Lagrangian at the
    slopes of the nodal field u."""
    parts, _ = dual1d._stationarity(d, derivative(u, m.grid), m, cfg)
    return {k: norm_V(r) for k, r in zip(("z", "v1", "v2", "u"), parts)}


def dense_tangent_3d(m, mesh, u, material=None):
    """Dense tangent stiffness (material + geometric), no boundary treatment:
    the element tangents scattered into an n_dof^2 array, an oracle for the
    band storage that the Newton solve and the local-minimality bound use.
    ``material`` replaces m.lame in the material term only."""
    index = mesh.dofs[:, :, None] * mesh.n_dof + mesh.dofs[:, None, :]
    g = fem3d.displacement_gradients(mesh, u)
    Ke = fem3d._element_tangents(m, mesh, g, tensor3d.stress(m.lame, g), material).ravel()
    return np.bincount(index.ravel(), Ke, mesh.n_dof**2).reshape(mesh.n_dof, -1)


def node_coords(m):
    """Node coordinates of the BoxMesh of the SolidModel m, (n_nodes, 3), in
    its numbering: x-major, z fastest."""
    axes = (np.linspace(0.0, L, n + 1) for L, n in ((m.lx, m.nx), (m.ly, m.ny), (m.lz, m.nz)))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def residual_3d(m, mesh, u):
    """Weak-form residual of the displacements u, (n_nodes, 3), clamped rows
    zeroed: the residual that fem3d.solve_newton_3d forms at each iterate."""
    g = fem3d.displacement_gradients(mesh, u)
    return fem3d._weak_residual(mesh, (tensor3d.I3 + g) @ tensor3d.stress(m.lame, g))


def newton_state(m, mesh, u):
    """The state (mesh, u, g, sigma, R) of the iterate u, formed from u alone,
    as fem3d.solve_newton_3d returns it at convergence."""
    g = fem3d.displacement_gradients(mesh, u)
    R = residual_3d(m, mesh, u).ravel()[mesh.free_dofs]
    return mesh, u, g, tensor3d.stress(m.lame, g), R


def reference_newton_3d(m, iterates=None):
    """The box's line-search Newton as it was written before the bar and the
    box shared one solver loop, its failure messages without the former "3D
    Newton: " prefix.  The shared loop must match it bit for bit: the same
    iterates (appended to ``iterates``), (mesh, u, g, sigma, R) and failures."""
    mesh = fem3d.BoxMesh(m)
    free, u = mesh.free_dofs, np.zeros((mesh.n_nodes, 3))
    for it in range(primal1d.NEWTON_MAX_ITER + 1):
        if iterates is not None:
            iterates.append(u)
        g = fem3d.displacement_gradients(mesh, u)
        sigma = tensor3d.stress(m.lame, g)
        R = fem3d._weak_residual(mesh, (tensor3d.I3 + g) @ sigma).ravel()[free]
        res = np.max(np.abs(R))
        if res <= fem3d.NEWTON_TOL:
            return mesh, u, g, sigma, R
        if it == primal1d.NEWTON_MAX_ITER or not np.isfinite(res):
            break
        du = np.zeros_like(u)
        du.reshape(-1)[free] = fem3d._newton_step(m, mesh, g, sigma, -R)
        change = fem3d._energy_change(m, mesh, g, sigma, du)
        slope, t = float(R @ du.ravel()[free]), 1.0
        while not change(t) <= 1e-4 * t * slope:
            t *= 0.5
            if t < 1e-15:
                raise NonConvergence(f"no descent at residual {res:.3e}")
        u = u + t * du
    raise NonConvergence(f"residual {res:.3e} after {it} iterations")


def certify_3d_recorded(m, K=None, mode="identity"):
    """fem3d.certify_3d(m, K, mode) and the per-point state its z-side bound
    saw: (report, state), state a dict of v1, v2, z, lame, K, the inverse X
    of A and kappa, or None where certify_3d stops before bound 1."""
    state, bounds = {}, fem3d._z_side_bounds

    def record(v1, v2, z, lame, K, X, margin, r):
        kappa, drop = bounds(v1, v2, z, lame, K, X, margin, r)
        state.update(v1=v1, v2=v2, z=z, lame=lame, K=K, X=X, kappa=kappa)
        return kappa, drop

    with mock.patch.object(fem3d, "_z_side_bounds", record):
        report = fem3d.certify_3d(m, K, mode)
    return report, state or None


def reference_hessian_certificate(m, K=None, mode="identity"):
    """certify_3d with the Hessian-versus-M check it made before bound 3 of
    fem3d settled points from the z-curvature floor: the Mandel z-Hessian and
    its eigvalsh at every Gauss point, their minimum against m_min_eig -
    1e-10.  Returns (report, errors, min eig): certify_3d's own report, the
    errors with that check in place of certify_3d's, and the minimum (None
    where certify_3d stops before the check)."""
    report, state = certify_3d_recorded(m, K, mode)
    errors = [e for e in report.errors if not e.startswith("hessian:")]
    if state is None:
        return report, errors, None
    hessian = tensor3d.dstar_hessian_z_3d(*(state[k] for k in ("v1", "v2", "z", "lame", "K", "X")))
    min_eig = float(np.min(np.linalg.eigvalsh(hessian)[..., 0]))
    if not min_eig >= report.m_min_eig - 1e-10:
        at = sum(e.startswith(("gap:", "constraint:")) for e in errors)
        errors.insert(at, f"hessian: min z-Hessian eig {min_eig:.3e}"
                          f" < M min eig {report.m_min_eig:.3e}")
    return report, errors, min_eig


def mp_hessian_z_min_eig(v1, v2, z, p, K):
    """50-digit smallest eigenvalue of the z-Hessian of the dual density at
    one point on symmetric arguments, from the float v1, v2, z (3x3), Lame
    parameters p and K, with A = v2 + z + K I inverted at 50 digits: the
    Mandel matrix H_ab = d_ab/K - (tr(E_a X E_b Y) + tr(E_b X E_a Y))/2 -
    E_a:Hbar:E_b, X = A^-1, Y = X v1^T v1 X, on the orthonormal symmetric
    basis E_a, with Hbar's Lame parameters -lam/(2 mu (3 lam + 2 mu)), 1/(4 mu)."""
    import mpmath

    with mpmath.workdps(50):
        mat = lambda a: mpmath.matrix(np.asarray(a, dtype=float).tolist())  # noqa: E731
        K, lam, mu = (mpmath.mpf(float(x)) for x in (K, p.lam, p.mu))
        X = mpmath.inverse(mat(v2) + mat(z) + K * mpmath.eye(3))
        Y = X * mat(v1).T * mat(v1) * X
        lam_c, mu_c = -lam / (2 * mu * (3 * lam + 2 * mu)), 1 / (4 * mu)
        basis = []
        for i, j in ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)):
            E = mpmath.zeros(3, 3)
            E[i, j] = E[j, i] = 1 if i == j else 1 / mpmath.sqrt(2)
            basis.append(E)
        tr = lambda B: B[0, 0] + B[1, 1] + B[2, 2]  # noqa: E731
        H = mpmath.matrix(6, 6)
        for a, Ea in enumerate(basis):
            for b, Eb in enumerate(basis):
                T = (tr(Ea * X * Eb * Y) + tr(Eb * X * Ea * Y)) / 2
                H[a, b] = (a == b) * (1 / K - 2 * mu_c) - T - lam_c * tr(Ea) * tr(Eb)
        eigs = mpmath.eigsy(H, eigvals_only=True)
        return min(eigs[k] for k in range(6))


def norm_U(u, g):
    """Discrete max over the bar of |u| + |u_x|: per element, max(|u| at
    the two endpoints) + |slope|."""
    slope = derivative(u, g)
    np.abs(slope, out=slope)
    size = np.abs(u)
    size = np.maximum(size[:-1], size[1:])  # endpoint max
    size += slope
    return float(np.max(size))
