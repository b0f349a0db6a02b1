"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first and second variations, and a line-search Newton
solver for critical points at the full load (its tangent, a clamped spring
chain, solved in closed form).

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.  Newton forms each iterate's
``SlopeTerms`` (u_x, 1 + u_x, u_x^2/2, the strain) once for its force,
residual, springs and line-search trials, and the load half-sums once per
model; the converged ``NewtonState`` hands them and its residual on.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NonConvergence, SingularSystem
from .mesh1d import Grid1D, average_to_midpoints, derivative, integrate, norm_V

#: strict upper bound on ||u_x||_inf for the local duality construction
SLOPE_LIMIT = 0.25
#: the bar's Newton stops at ||r||_inf <= NEWTON_TOL; every Newton (the bar's,
#: the box's and the KKT re-check) fails after NEWTON_MAX_ITER steps
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
    half_loads: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.E > 0 and self.A > 0):
            raise ValueError("E and A must be positive")
        if not 0 < self.EA < np.inf:
            raise ValueError("E*A must be positive and finite")
        self.grid.check_elem(self.P)
        load = self.P * self.grid.h  # the work h (P_e + P_{e+1})/2 of each interior hat
        object.__setattr__(self, "half_loads", 0.5 * (load[:-1] + load[1:]))

    @property
    def EA(self) -> float:
        return self.E * self.A


#: elementwise terms of a slope field: u_x, 1 + u_x, u_x^2/2 and the Green strain
SlopeTerms = namedtuple("SlopeTerms", "ux opx half_sq strain")


def slope_terms(ux: np.ndarray) -> SlopeTerms:
    """The ``SlopeTerms`` of the slope field ux."""
    half_sq = 0.5 * ux**2
    return SlopeTerms(ux, 1.0 + ux, half_sq, ux + half_sq)


@dataclass(frozen=True)
class PrimalState:
    """Clamped nodal displacement field (u[0] = u[-1] = 0), or a stack of them."""

    u: np.ndarray

    def __post_init__(self):
        if np.count_nonzero(self.u[..., :: max(1, self.u.shape[-1] - 1)]):  # end nodes
            raise ValueError("displacement must vanish at both ends")

    def terms(self, g: Grid1D) -> SlopeTerms:
        """Slope terms of u on the grid g."""
        return slope_terms(derivative(self.u, g))


@dataclass(frozen=True)
class NewtonState(PrimalState):
    """An iterate with its slope terms e, interior residual r and r's sup norm res."""

    e: SlopeTerms
    r: np.ndarray
    res: float

    def terms(self, g: Grid1D) -> SlopeTerms:
        return self.e


def energy(m: BarModel, s: PrimalState) -> float | np.ndarray:
    """Total potential energy J(u) under midpoint quadrature, one per field
    of a stacked state."""
    g = m.grid
    density = 0.5 * m.EA * s.terms(g).strain ** 2 - average_to_midpoints(s.u, g) * m.P
    return integrate(density, g)


def weak_residual(m: BarModel, force: np.ndarray) -> np.ndarray:
    """Weak form of force_x + P = 0 for an element force at the interior
    nodes: phi_i has slope +1/h on element i-1 and -1/h on element i."""
    return (force[:-1] - force[1:]) - m.half_loads


def _iterate(m: BarModel, u: np.ndarray) -> tuple:
    """u's slope terms e, the interior residual r of its force EA e (1 + u_x)
    and the sup norm of r."""
    e = slope_terms(derivative(u, m.grid))
    r = weak_residual(m, m.EA * e.strain * e.opx)
    return e, r, norm_V(r)


def residual(m: BarModel, s: PrimalState) -> np.ndarray:
    """First variation against the interior nodal basis; boundary entries 0."""
    return np.concatenate(([0.0], _iterate(m, s.u)[1], [0.0]))


def _curvature(m: BarModel, e: SlopeTerms) -> np.ndarray:
    """Elementwise second-variation coefficient EA*((1+u_x)^2 + u_x + u_x^2/2)."""
    return m.EA * (e.opx**2 + e.ux + e.half_sq)


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
    prefix sums that cancel no more than b does.  ``SingularSystem`` if a
    spring is zero or sum(1/c) = 0."""
    if not c.all():
        raise SingularSystem("spring chain with a zero spring")
    w = 1.0 / c
    wl, wr = np.cumsum(w), np.cumsum(w[::-1])[::-1]
    if wl[-1] == 0.0:
        raise SingularSystem("spring chain with sum(1/c) = 0")
    x = wr[1:] * np.cumsum(wl[:-1] * b)
    x[:-1] += wl[:-2] * np.cumsum((wr[2:] * b[1:])[::-1])[::-1]
    x *= h / wl[-1]
    return x


def _change_along(m: BarModel, e: SlopeTerms, du: np.ndarray):
    """t -> J(u + t du) - J(u) for u of slope terms e and a clamped nodal
    increment du, summed per element: a plain difference of two energies
    loses the O(|du|^2) decrease of a Newton step near convergence to rounding."""
    d, load = derivative(du, m.grid), m.P * average_to_midpoints(du, m.grid)
    opx, two_strain = e.opx, 2.0 * e.strain
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


def _newton_step(m: BarModel, e: SlopeTerms, rhs: np.ndarray) -> np.ndarray:
    """Solve the Hessian at slope terms e against rhs: the clamped spring chain
    of the curvatures c, positive definite (no c zero) iff every c > 0, or
    exactly one c < 0 and sum 1/c < 0 (Cauchy-Schwarz on the slopes, which sum
    to 0); else the chain of c raised to 1e-2 max|c|."""
    c = _curvature(m, e)
    if not chain_is_positive_definite(c):
        c = np.maximum(c, 1e-2 * np.max(np.abs(c)))
    return solve_spring_chain(c, m.grid.h, rhs)


def line_search_newton(iterate, step, change_along, u, free, tol, iteration_log=None):
    """Line-search Newton from u (Nocedal & Wright, Numerical Optimization,
    section 3.4), the bar's and the box's.  ``iterate(u)`` gives u's state,
    its residual r at the entries ``free`` of u flattened and r's sup norm;
    ``step(state, -r)`` those entries of the step du, zero elsewhere;
    ``change_along(state, du)`` the map t -> J(u + t du) - J(u).  Armijo
    backtracking (c1 = 1e-4) halves t from 1 and gives up below 1e-15.
    Returns (u, state, r, res) once res <= tol; ``NonConvergence`` at a
    non-finite residual or after ``NEWTON_MAX_ITER`` steps.  ``iteration_log``,
    if given, receives the number of steps taken, also when the solve fails."""
    it = 0
    try:
        for it in range(NEWTON_MAX_ITER + 1):
            state, r, res = iterate(u)
            if res <= tol:
                return u, state, r, res
            if it == NEWTON_MAX_ITER or not np.isfinite(res):
                raise NonConvergence(f"residual {res:.3e} after {it} iterations")
            du = np.zeros(u.shape)
            du.reshape(-1)[free] = step(state, -r)
            change = change_along(state, du)
            slope, t = float(r @ du.reshape(-1)[free]), 1.0
            while not change(t) <= 1e-4 * t * slope:
                t *= 0.5
                if t < 1e-15:
                    raise NonConvergence(f"no descent at residual {res:.3e}")
            u = u + t * du
    finally:
        if iteration_log is not None:
            iteration_log.append(it)
    raise NonConvergence("unreachable")


def solve_newton(m: BarModel, iteration_log: list | None = None) -> NewtonState:
    """``line_search_newton`` minimization of the energy from u = 0 at the
    full load, each step by ``_newton_step`` in closed form.  The Armijo
    trials t = 2^-k share the slope terms and du's slope and load work:
    scaling by a power of two is exact (short of underflow), so each equals
    the t = 1 trial of t du bit for bit.  On the small-strain branch every
    unit step is accepted.  The converged iterate is returned as a
    ``NewtonState``."""
    u, e, r, res = line_search_newton(
        partial(_iterate, m), partial(_newton_step, m), partial(_change_along, m),
        np.zeros(m.grid.n_elem + 1), slice(1, -1), NEWTON_TOL, iteration_log)
    return NewtonState(u, e, r, res)


def condition_check(s: PrimalState, g: Grid1D) -> tuple[float, bool]:
    """Sup norm of u_x and whether it is strictly below the 1/4 threshold."""
    value = norm_V(s.terms(g).ux)
    return value, value < SLOPE_LIMIT
