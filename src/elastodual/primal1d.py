"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first and second variations, and a line-search Newton
solver for critical points at the full load (its tangent, a clamped spring
chain, solved in closed form).

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.  Newton forms the slope field
once per iteration for the tangent and every line-search trial of its step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularHessian
from .mesh1d import Grid1D, average_to_midpoints, derivative, integrate, norm_V

#: strict upper bound on ||u_x||_inf for the local duality construction
SLOPE_LIMIT = 0.25
#: Newton stops at ||r||_inf <= NEWTON_TOL and fails after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


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
        if not 0 < self.EA < np.inf:
            raise ValueError("E*A must be positive and finite")
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
    density = 0.5 * m.EA * (0.5 * ux**2 + ux) ** 2 - average_to_midpoints(s.u, g) * m.P
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


def _curvature(m: BarModel, ux: np.ndarray) -> np.ndarray:
    """Elementwise second-variation coefficient EA*((1+u_x)^2 + u_x + u_x^2/2)."""
    return m.EA * ((1.0 + ux) ** 2 + ux + 0.5 * ux**2)


def chain_is_positive_definite(c: np.ndarray) -> bool:
    """Whether the clamped spring chain of c has no zero spring and is positive
    definite: every c > 0, or exactly one c < 0 and sum 1/c < 0."""
    neg = np.count_nonzero(c < 0.0)
    return bool(c.all() and (neg == 0 or neg == 1 and np.sum(1.0 / c) < 0.0))


def solve_spring_chain(c: np.ndarray, h: float, b: np.ndarray) -> np.ndarray:
    """Solve (1/h) D^T diag(c) D x = b, D the clamped difference operator
    from the interior nodes to the elements, in closed form.

    With w = 1/c, W = sum(w) and wl_i, wr_i the compliance left and right of
    node i, the Green's function h wl_min(i,j) wr_max(i,j) / W gives x as four
    prefix sums that cancel no more than b does.  ``SingularHessian`` if a
    spring is zero or sum(1/c) = 0."""
    if not c.all():
        raise SingularHessian("spring chain with a zero spring")
    w = 1.0 / c
    wl, wr = np.cumsum(w), np.cumsum(w[::-1])[::-1]
    if wl[-1] == 0.0:
        raise SingularHessian("spring chain with sum(1/c) = 0")
    x = wr[1:] * np.cumsum(wl[:-1] * b)
    x[:-1] += wl[:-2] * np.cumsum((wr[2:] * b[1:])[::-1])[::-1]
    x *= h / wl[-1]
    return x


def _change_along(m: BarModel, ux: np.ndarray, du: np.ndarray):
    """t -> J(u + t du) - J(u) for u of slope field ux and a clamped nodal
    increment du, summed per element: a plain difference of two energies
    loses the O(|du|^2) decrease of a Newton step near convergence to rounding."""
    d, load = derivative(du, m.grid), m.P * average_to_midpoints(du, m.grid)
    opx, two_strain = 1.0 + ux, 2.0 * (ux + 0.5 * ux**2)
    td, s, w = (np.empty_like(d) for _ in range(3))
    def change(t: float) -> float:  # in place: three buffers, the same roundings
        np.multiply(t, d, out=td)
        np.add(opx, np.multiply(0.5, td, out=s), out=s)
        np.multiply(td, s, out=s)  # the strain change
        np.multiply(0.5 * m.EA, s, out=w)
        np.multiply(w, np.add(two_strain, s, out=s), out=w)
        np.subtract(w, np.multiply(t, load, out=td), out=w)
        return float(np.sum(w) * m.grid.h)
    return change


def solve_newton(m: BarModel, iteration_log: list | None = None) -> PrimalState:
    """Line-search Newton minimization of the energy from u = 0 at the full
    load (Nocedal & Wright, Numerical Optimization, section 3.4).

    The Hessian is the clamped spring chain of the curvatures c, positive
    definite (no c zero) iff every c > 0, or exactly one c < 0 and
    sum 1/c < 0 (Cauchy-Schwarz on the slopes, which sum to 0).  The step
    solves it, else the chain of c raised to 1e-2 max|c|, in closed form;
    Armijo backtracking (c1 = 1e-4) halves it.  Its trials t = 2^-k share
    u_x and du's slope and load work: scaling by a power of two is exact (short
    of underflow), so each equals the t = 1 trial of t du bit for bit.
    On the small-strain branch every unit step is accepted.  ``iteration_log``,
    if given, receives the number of steps taken, also when the solve fails.
    """
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    du = np.zeros(g.n_elem + 1)
    it = 0
    try:
        for it in range(NEWTON_MAX_ITER + 1):
            r = residual(m, PrimalState(u))[1:-1]
            res = norm_V(r)
            if res <= NEWTON_TOL:
                return PrimalState(u)
            if it == NEWTON_MAX_ITER or not np.isfinite(res):
                raise NonConvergence(f"residual {res:.3e} after {it} iterations")
            ux = derivative(u, g)
            c = _curvature(m, ux)
            if not chain_is_positive_definite(c):
                c = np.maximum(c, 1e-2 * np.max(np.abs(c)))
            du[1:-1] = solve_spring_chain(c, g.h, -r)
            change = _change_along(m, ux, du)
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


def condition_check(s: PrimalState, g: Grid1D) -> tuple[float, bool]:
    """Sup norm of u_x and whether it is strictly below the 1/4 threshold."""
    value = norm_V(derivative(s.u, g))
    return value, value < SLOPE_LIMIT
