"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first and second variations, a line-search Newton solver
for critical points at the full load (its tangent, a clamped spring chain,
solved in closed form), and the second variation's smallest eigenvalue.

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.  Newton forms the slope field
once per iteration for the tangent and every line-search trial of its step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

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


def hessian_coefficients(m: BarModel, s: PrimalState) -> np.ndarray:
    """``_curvature`` of the state's slope field."""
    return _curvature(m, derivative(s.u, m.grid))


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


def solve_newton(
    m: BarModel,
    tol: float = 1e-12,
    max_iter: int = 50,
    iteration_log: list | None = None,
) -> PrimalState:
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
    if not tol > 0:
        raise ValueError("tol must be positive")
    g = m.grid
    u = np.zeros(g.n_elem + 1)
    du = np.zeros(g.n_elem + 1)
    it = 0
    try:
        for it in range(max_iter + 1):
            r = residual(m, PrimalState(u))[1:-1]
            res = norm_V(r)
            if res <= tol:
                return PrimalState(u)
            if it == max_iter or not np.isfinite(res):
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


def second_variation_min_eig(m: BarModel, s: PrimalState) -> float:
    """``spring_chain_min_eig`` of the state's curvatures: EA (pi/L)^2 at u = 0."""
    return spring_chain_min_eig(hessian_coefficients(m, s), m.grid.h)


def spring_chain_min_eig(c: np.ndarray, h: float) -> float:
    """Smallest eigenvalue lambda_1 of T = (1/h^2) D^T diag(c) D, the clamped
    chain against the discrete L2 inner product (h times the euclidean one),
    by Noda's iteration (Numer. Math. 1971; quadratic: Elsner, Linear Algebra
    Appl. 1976).  The off-diagonal flipped to -|e| (a +-1 diagonal similarity)
    makes T - sigma I an M-matrix for sigma < lambda_1: LAPACK dptsv's solve
    y = (T - sigma I)^-1 x sums positive terms, and min(x/y) <= lambda_1 - sigma
    <= max(x/y) (Collatz-Wielandt).  From x = sin(pi i/n) and the Gershgorin
    bound, each step moves sigma to that lower end less floor = 16 U (max|d| +
    2 max|e|), U = eps/2, and x to y / max y; the lower end is returned once the
    bracket is below floor, it stops rising, or dptsv fails (sigma ~ lambda_1)."""
    d, a = (c[:-1] + c[1:]) / h / h, np.abs(c[1:-1]) / h / h
    lo = float((d - np.concatenate(([0.0], a)) - np.concatenate((a, [0.0]))).min())
    floor = 8.0 * np.finfo(float).eps * (np.abs(d).max() + 2.0 * a.max(initial=0.0))
    e = -a if a.size else np.zeros(1)  # f2py wants one unused entry for a 1 x 1 T
    x = np.sin(np.pi / c.size * np.arange(1, c.size))
    while True:
        sigma = lo - floor
        y, info = dptsv(d - sigma, e, x)[2:]
        if info:
            return lo
        with np.errstate(invalid="ignore"):  # 0/0 where x and y underflowed
            theta = x / y
        new, hi = sigma + float(theta.min()), sigma + float(theta.max())
        if not new > lo or hi - new <= floor:
            return max(lo, new)  # lo also if new is NaN
        lo, x = new, y / y.max()
