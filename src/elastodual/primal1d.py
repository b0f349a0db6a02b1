"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first and second variations, a continuation line-search
Newton solver for critical points, and the second-order (smallest eigenvalue)
check.

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import (
    LinAlgError, cho_solve_banded, cholesky_banded, eigh_tridiagonal, solve_banded,
)

from .errors import NonConvergence, SingularHessian
from .mesh1d import Grid1D, average_to_midpoints, derivative, integrate, norm_V

#: strict upper bound on ||u_x||_inf for the local duality construction
SLOPE_LIMIT = 0.25


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
    """Clamped nodal displacement field (u[0] = u[-1] = 0), or a stack of them."""

    u: np.ndarray

    def __post_init__(self):
        if np.count_nonzero(self.u[..., :: max(1, self.u.shape[-1] - 1)]):  # end nodes
            raise ValueError("displacement must vanish at both ends")


def _axial_force(m: BarModel, ux: np.ndarray) -> np.ndarray:
    """Second Piola-like force EA*(u_x + u_x^2/2) per element."""
    return m.EA * (ux + 0.5 * ux**2)


def energy(m: BarModel, s: PrimalState) -> float | np.ndarray:
    """Total potential energy J(u) under midpoint quadrature, one per field
    of a stacked state."""
    g = m.grid
    ux = derivative(s.u, g)
    strain = np.square(ux)  # ux + ux^2/2, in place
    strain *= 0.5
    strain += ux
    density = np.square(strain, out=strain)  # EA/2 strain^2 - P u_mid, in place
    density *= 0.5 * m.EA
    load = average_to_midpoints(s.u, g)
    load *= m.P
    density -= load
    return integrate(density, g)


def weak_residual(m: BarModel, force: np.ndarray) -> np.ndarray:
    """Weak form of force_x + P = 0 for an element force, against the
    interior nodal basis; boundary entries 0."""
    g = m.grid
    r = np.zeros(g.n_elem + 1)
    # phi_i has slope +1/h on element i-1 and -1/h on element i
    r[1:-1] = force[:-1] - force[1:]
    load = m.P * g.h
    r[1:-1] -= 0.5 * (load[:-1] + load[1:])
    return r


def residual(m: BarModel, s: PrimalState) -> np.ndarray:
    """First variation against the interior nodal basis; boundary entries 0."""
    ux = derivative(s.u, m.grid)
    return weak_residual(m, _axial_force(m, ux) * (1.0 + ux))  # elementwise dJ/d(u_x)


def hessian_coefficients(m: BarModel, s: PrimalState) -> np.ndarray:
    """Elementwise second-variation coefficient EA*((1+u_x)^2 + u_x + u_x^2/2)."""
    ux = derivative(s.u, m.grid)
    return m.EA * ((1.0 + ux) ** 2 + ux + 0.5 * ux**2)


def hessian(m: BarModel, s: PrimalState) -> tuple[np.ndarray, np.ndarray]:
    """Interior-node tridiagonal second variation, as (diagonal, off-diagonal).

    Entry (i, j) is the second variation evaluated on the interior hat
    functions phi_i, phi_j.
    """
    return _spring_chain(hessian_coefficients(m, s), m.grid.h)


def _spring_chain(c: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal stiffness of a chain of element springs c with clamped ends."""
    return (c[:-1] + c[1:]) / h, -c[1:-1] / h


def solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric tridiagonal system by LAPACK's pivoted ``gtsv``."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = ab[2, :-1] = off
    ab[1] = diag
    try:
        return solve_banded((1, 1), ab, rhs)
    except LinAlgError as exc:
        raise SingularHessian(str(exc)) from exc


def _cholesky_solve(c: np.ndarray, h: float, rhs: np.ndarray) -> np.ndarray:
    """Solve with the spring chain of c by banded Cholesky (LinAlgError if not SPD)."""
    ab = np.empty((2, c.size - 1))
    ab[1], ab[0, 1:] = _spring_chain(c, h)
    return cho_solve_banded((cholesky_banded(ab), False), rhs)


def energy_change(m: BarModel, s: PrimalState, du: np.ndarray) -> float:
    """J(u + du) - J(u) for a clamped nodal increment du, summed from
    per-element increments: a plain difference of two energies loses the
    O(|du|^2) decrease of a Newton step near convergence to rounding."""
    g = m.grid
    ux = derivative(s.u, g)
    d = derivative(du, g)
    d_strain = d * (1.0 + ux + 0.5 * d)
    d_stored = 0.5 * m.EA * d_strain * (2.0 * (ux + 0.5 * ux**2) + d_strain)
    return float(np.sum(d_stored - m.P * average_to_midpoints(du, g)) * g.h)


def solve_newton(
    m: BarModel,
    continuation_steps: int = 4,
    tol: float = 1e-12,
    max_iter: int = 50,
    iteration_log: list | None = None,
) -> PrimalState:
    """Line-search Newton minimization of the energy over equal load steps
    (Nocedal & Wright, Numerical Optimization, section 3.4).

    The step uses the exact Hessian if its Cholesky factorization succeeds,
    else curvatures raised to 1e-2 max|c|, a positive definite spring chain;
    Armijo backtracking (c1 = 1e-4) halves it.  On the small-strain branch
    every unit step is accepted.  ``iteration_log``, if given, receives the
    iteration count of each stage.
    """
    if continuation_steps < 1:
        raise ValueError("continuation_steps must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    du = np.zeros(g.n_elem + 1)
    for k in range(1, continuation_steps + 1):
        mk = BarModel(m.E, m.A, g, (k / continuation_steps) * m.P)
        stage = f"Newton stage {k}/{continuation_steps}"
        for it in range(max_iter + 1):
            s = PrimalState(u)
            r = residual(mk, s)[1:-1]
            res = norm_V(r)
            if res <= tol:
                if iteration_log is not None:
                    iteration_log.append(it)
                break
            if it == max_iter or not np.isfinite(res):
                raise NonConvergence(
                    f"{stage}: residual {res:.3e} after {it} iterations"
                )
            c = hessian_coefficients(mk, s)
            try:
                du[1:-1] = _cholesky_solve(c, g.h, -r)
            except LinAlgError:
                c = np.maximum(c, 1e-2 * np.max(np.abs(c)))
                du[1:-1] = _cholesky_solve(c, g.h, -r)
            slope, t = float(r @ du[1:-1]), 1.0
            while not energy_change(mk, s, t * du) <= 1e-4 * t * slope:
                t *= 0.5
                if t < 1e-15:
                    raise NonConvergence(f"{stage}: no descent at residual {res:.3e}")
            u = u + t * du
    return PrimalState(u)


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
