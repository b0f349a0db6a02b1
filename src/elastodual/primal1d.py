"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first and second variations, a continuation Newton solver
for critical points, and the second-order (smallest eigenvalue) check.

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NonConvergence, SingularHessian
from .mesh1d import Grid1D, average_to_midpoints, derivative, norm_V

#: strict upper bound on ||u_x||_inf for the local duality construction
SLOPE_LIMIT = 0.25

PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class BarModel:
    """Material/geometry/load data of the bar.

    ``P`` is the axial load per unit length sampled at element midpoints.
    """

    E: float
    A: float
    grid: Grid1D
    P: np.ndarray

    def __post_init__(self):
        if not (self.E > 0 and self.A > 0):
            raise ValueError("E and A must be positive")
        self.grid.check_elem(self.P)

    @property
    def EA(self) -> float:
        return self.E * self.A


@dataclass(frozen=True)
class PrimalState:
    """Clamped nodal displacement field (u[0] = u[-1] = 0)."""

    u: np.ndarray

    def __post_init__(self):
        if self.u[0] != 0.0 or self.u[-1] != 0.0:
            raise ValueError("displacement must vanish at both ends")


def _axial_force(m: BarModel, ux: np.ndarray) -> np.ndarray:
    """Second Piola-like force EA*(u_x + u_x^2/2) per element."""
    return m.EA * (ux + 0.5 * ux**2)


def energy(m: BarModel, s: PrimalState) -> float:
    """Total potential energy J(u) under midpoint quadrature."""
    g = m.grid
    ux = derivative(s.u, g)
    strain = ux + 0.5 * ux**2
    ubar = average_to_midpoints(s.u, g)
    return float(np.sum(0.5 * m.EA * strain**2 - m.P * ubar) * g.h)


def residual(m: BarModel, s: PrimalState) -> np.ndarray:
    """First variation against the interior nodal basis; boundary entries 0."""
    g = m.grid
    ux = derivative(s.u, g)
    n = _axial_force(m, ux) * (1.0 + ux)  # elementwise dJ/d(u_x)
    r = np.zeros(g.n_elem + 1)
    # phi_i has slope +1/h on element i-1 and -1/h on element i
    r[1:-1] = n[:-1] - n[1:]
    load = m.P * g.h
    r[1:-1] -= 0.5 * (load[:-1] + load[1:])
    return r


def hessian_coefficients(m: BarModel, s: PrimalState) -> np.ndarray:
    """Elementwise second-variation coefficient EA*((1+u_x)^2 + u_x + u_x^2/2)."""
    ux = derivative(s.u, m.grid)
    return m.EA * ((1.0 + ux) ** 2 + ux + 0.5 * ux**2)


def hessian(m: BarModel, s: PrimalState) -> tuple[np.ndarray, np.ndarray]:
    """Interior-node tridiagonal second variation, as (diagonal, off-diagonal).

    Entry (i, j) is the second variation evaluated on the interior hat
    functions phi_i, phi_j.
    """
    c = hessian_coefficients(m, s)
    h = m.grid.h
    diag = (c[:-1] + c[1:]) / h
    off = -c[1:-1] / h
    return diag, off


def hessian_matvec(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm with a pivot-size guard.

    The loop runs on Python floats, which round exactly as numpy float64
    scalars do at a fraction of the indexing cost.  It stays unpivoted: a
    pivoted banded LAPACK solve rounds differently, and that alone pushes the
    far-branch Newton of ``certify1d --amp 1.5`` at n = 2048 and 4096 past
    its iteration cap.
    """
    n = diag.size
    d = diag.astype(float).tolist()
    b = rhs.astype(float).tolist()
    off = off.astype(float).tolist()
    for i in range(1, n):
        if abs(d[i - 1]) < PIVOT_TOL:
            raise SingularHessian(f"pivot {d[i - 1]:.3e} at row {i - 1}")
        w = off[i - 1] / d[i - 1]
        d[i] -= w * off[i - 1]
        b[i] -= w * b[i - 1]
    if abs(d[n - 1]) < PIVOT_TOL:
        raise SingularHessian(f"pivot {d[n - 1]:.3e} at row {n - 1}")
    x = [0.0] * n
    x[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - off[i] * x[i + 1]) / d[i]
    return np.array(x)


def solve_newton(
    m: BarModel,
    continuation_steps: int = 4,
    tol: float = 1e-12,
    max_iter: int = 50,
    iteration_log: list | None = None,
) -> PrimalState:
    """Newton solve for a critical point, warm-started over equal load steps.

    Load continuation keeps iterates on the small-strain branch where the
    slope condition holds.  ``iteration_log``, if given, receives the Newton
    iteration count of each stage.
    """
    if continuation_steps < 1:
        raise ValueError("continuation_steps must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    for k in range(1, continuation_steps + 1):
        mk = BarModel(m.E, m.A, g, (k / continuation_steps) * m.P)
        for it in range(max_iter + 1):
            r = residual(mk, PrimalState(u))
            if norm_V(r[1:-1]) <= tol:
                if iteration_log is not None:
                    iteration_log.append(it)
                break
            if it == max_iter:
                raise NonConvergence(
                    f"Newton stage {k}/{continuation_steps}: "
                    f"residual {norm_V(r[1:-1]):.3e} after {max_iter} iterations"
                )
            diag, off = hessian(mk, PrimalState(u))
            du = solve_tridiagonal(diag, off, -r[1:-1])
            u = u.copy()
            u[1:-1] += du
    return PrimalState(u)


def solve_descent(
    m: BarModel,
    tol: float = 1e-12,
    max_iter: int = 200_000,
    iteration_log: list | None = None,
) -> PrimalState:
    """Fallback solver: Barzilai-Borwein gradient iteration on the energy,
    polished by undamped Newton once the residual is small.

    The energy is coercive, so critical points exist even beyond the limit
    point of the small-strain continuation branch; this reaches them when
    ``solve_newton`` cannot.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    r_prev = s_prev = None
    for it in range(max_iter):
        r = residual(m, PrimalState(u))[1:-1]
        if norm_V(r) < 1e-9:
            break
        if r_prev is None:
            step = 1e-3
        else:
            dg = r - r_prev
            d2 = float(dg @ dg)
            step = min(abs(float(s_prev @ dg)) / d2, 1.0) if d2 > 0 else 1e-3
        s_prev = -step * r
        r_prev = r
        u = u.copy()
        u[1:-1] += s_prev
    else:
        raise NonConvergence(
            f"descent solver: residual {norm_V(r):.3e} after {max_iter} iterations"
        )
    if iteration_log is not None:
        iteration_log.append(it)
    for it in range(51):
        s = PrimalState(u)
        r = residual(m, s)[1:-1]
        if norm_V(r) <= tol:
            if iteration_log is not None:
                iteration_log.append(it)
            return s
        diag, off = hessian(m, s)
        du = solve_tridiagonal(diag, off, -r)
        u = u.copy()
        u[1:-1] += du
    raise NonConvergence("descent solver: Newton polish did not converge")


def condition_check(s: PrimalState, g: Grid1D) -> tuple[float, bool]:
    """Sup norm of u_x and whether it is strictly below the 1/4 threshold."""
    value = norm_V(derivative(s.u, g))
    return value, value < SLOPE_LIMIT


def second_variation_min_eig(m: BarModel, s: PrimalState) -> float:
    """Smallest eigenvalue of the interior second variation.

    Normalized against the discrete L2 inner product (h times the euclidean
    one), so at u = 0 the value approximates EA * (pi/L)^2.
    """
    diag, off = hessian(m, s)
    vals = eigh_tridiagonal(
        diag / m.grid.h, off / m.grid.h, select="i", select_range=(0, 0),
        eigvals_only=True,
    )
    return float(vals[0])
