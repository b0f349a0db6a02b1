"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they are meant to check:
high-resolution quadrature instead of the package's midpoint rule, dense
eigensolvers and LAPACK bisection instead of the closed-form eigenvalue floor,
Barzilai-Borwein descent instead of Newton, brute-force grid search instead
of closed-form conjugates, and einsum-built 3x3x3x3 tensors, taken on a
symmetric basis built here, instead of the closed-form isotropic tensors.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from elastodual import dual1d, fem3d, primal1d, tensor3d
from elastodual.mesh1d import Grid1D, derivative, norm_V


@pytest.fixture(scope="session")
def bar_model():
    """Canonical certification case: E=A=L=1, P = 0.1 sin(pi x), n=64."""
    return dual1d.sine_load_model(1.0, 1.0, 1.0, 0.1, 64)


@pytest.fixture(scope="session")
def bar_solution(bar_model):
    return primal1d.solve_newton(bar_model, tol=1e-12)


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


def hessian(m, s):
    """Interior-node tridiagonal second variation of the bar, as (diagonal,
    off-diagonal): the clamped spring chain of the curvatures
    ``primal1d._curvature`` on the hat functions."""
    c, h = primal1d._curvature(m, derivative(s.u, m.grid)), m.grid.h
    return (c[:-1] + c[1:]) / h, -c[1:-1] / h


def energy_change(m, s, du):
    """J(u + du) - J(u) for a clamped nodal increment du: the t = 1 trial of
    primal1d.solve_newton's line search."""
    return primal1d._change_along(m, derivative(s.u, m.grid), du)(1.0)


def stationarity_residuals(d, u, m, cfg):
    """Max norms of the four stationarity equations of the Lagrangian."""
    parts, _, _ = dual1d._stationarity(d, u, m, cfg)
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


def norm_U(u, g):
    """Discrete max over the bar of |u| + |u_x|, one value per field of a
    stack: per element, max(|u| at the two endpoints) + |slope|."""
    slope = derivative(u, g)
    np.abs(slope, out=slope)
    size = np.abs(u)
    size = np.maximum(size[..., :-1], size[..., 1:])  # endpoint max
    size += slope
    x = np.max(size, axis=-1)
    return float(x) if np.ndim(x) == 0 else x
