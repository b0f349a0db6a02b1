"""Primal 1D bar problem: total potential energy with quadratic-in-Green-strain
stored energy, its first variation, and its equilibrium by the force method.

The displacement is a piecewise-linear nodal field clamped at both ends.  With
one-point quadrature every integrand below is elementwise constant, so all
expressions are exact at the discrete level.

Force method (Washizu, Variational Methods in Elasticity and Plasticity,
1982).  Nodal equilibrium, N_e - N_{e+1} = h (P_e + P_{e+1})/2, fixes the
element force N = EA g(x), g(x) = x (1 + x)(2 + x)/2 of the slope x, up to one
constant: N_e = N0 - C_e, C the prefix sums of the load half-sums
(``BarModel.prefix_loads``); the clamp is sum x = 0.  g' = 1 + 3x + 3x^2/2
vanishes at x* = 1/sqrt(3) - 1 and g'' = 3 (1 + x) >= sqrt(3) above it, so on
the stable branch x > x* each slope is the increasing, concave inverse of g at
(N0 - C_e)/EA >= g(x*) = -1/(3 sqrt(3)), and S(N0) = sum x is increasing and
concave, <= 0 at min C, >= 0 at max C, and defined from N_lo = max C +
EA g(x*) on.  So the bar has at most one equilibrium with every slope on the
stable branch, and one iff S(N_lo) <= 0.  If S(N_lo) > 0, no N0 gives stable
slopes that sum to 0, so every equilibrium has a slope <= x* and
||u_x||_inf >= 1 - 1/sqrt(3) > 1/4 (``_no_stable_root``).
The slopes are the data: the certificate proves the clamped field of slopes
x - mean x, within ``NewtonState.shift`` of x, whose nodal values serve only
J's load work, the report and the KKT seam.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionViolated, NonConvergence, SingularSystem
from .mesh1d import Grid1D, average_to_midpoints, derivative, integrate, norm_V

#: strict upper bound on ||u_x||_inf for the local duality construction
SLOPE_LIMIT = 0.25
#: the force solve stops at ``NewtonState.res`` <= NEWTON_TOL; every Newton
#: (the bar's, the box's and the KKT re-check) fails after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
U = 0.5 * float(np.finfo(float).eps)
#: g(x*) = -1/(3 sqrt(3)), the least force of a stable slope per unit EA
G_STAR = -1.0 / (3.0 * math.sqrt(3.0))
#: 1 - 1/sqrt(3) rounded down: a proven lower bound of ||u_x||_inf at every
#: equilibrium of a bar without a stable root
FAR_SLOPE = (1.0 - 1.0 / math.sqrt(3.0)) * (1.0 - 4.0 * U)


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
    prefix_loads: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.E > 0 and self.A > 0):
            raise ValueError("E and A must be positive")
        if not 0 < self.EA < np.inf:
            raise ValueError("E*A must be positive and finite")
        self.grid.check_elem(self.P)
        load = self.P * self.grid.h  # the work h (P_e + P_{e+1})/2 of each interior hat
        half = 0.5 * (load[:-1] + load[1:])
        object.__setattr__(self, "half_loads", half)
        # C: element e carries the force N0 - C_e in equilibrium
        object.__setattr__(self, "prefix_loads", np.concatenate(([0.0], np.cumsum(half))))

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
    """Clamped nodal displacement field (u[0] = u[-1] = 0)."""

    u: np.ndarray

    def __post_init__(self):
        if self.u[0] or self.u[-1]:
            raise ValueError("displacement must vanish at both ends")

    def terms(self, g: Grid1D) -> SlopeTerms:
        """Slope terms of u on the grid g."""
        return slope_terms(derivative(self.u, g))


@dataclass(frozen=True)
class NewtonState(PrimalState):
    """The force solve's equilibrium: the slope terms e of its slopes x, its
    data; u = h cumsum(x - mean x), the end node set to 0; the interior
    residual r at the slopes; res = ||r||_inf + 4 EA |mean x|, to first order
    the sup residual of the clamped field of slopes x - mean x (g' < 2 on the
    slope ball); and shift >= |mean x|, the exact mean of the float slopes."""

    e: SlopeTerms
    r: np.ndarray
    res: float
    shift: float

    def terms(self, g: Grid1D) -> SlopeTerms:
        return self.e


def energy(m: BarModel, s: PrimalState) -> float:
    """Total potential energy J(u) under midpoint quadrature."""
    g = m.grid
    density = 0.5 * m.EA * s.terms(g).strain ** 2 - average_to_midpoints(s.u, g) * m.P
    return integrate(density, g)


def weak_residual(m: BarModel, force: np.ndarray) -> np.ndarray:
    """Weak form of force_x + P = 0 for an element force at the interior
    nodes: phi_i has slope +1/h on element i-1 and -1/h on element i."""
    return (force[:-1] - force[1:]) - m.half_loads


def residual(m: BarModel, s: PrimalState) -> np.ndarray:
    """First variation against the interior nodal basis, at the slopes of s
    (a ``NewtonState``'s own); boundary entries 0."""
    e = s.terms(m.grid)
    return np.concatenate(([0.0], weak_residual(m, m.EA * e.strain * e.opx), [0.0]))


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


def _stable_slopes(y: np.ndarray) -> np.ndarray:
    """The slopes x > x* with g(x) = y >= g(x*), in closed form (x*, where the
    branch ends, below g(x*)).  w = 1 + x is the largest root of w^3 - w = 2y:
    with t = 3 sqrt(3) y, w = (2/sqrt(3)) cos(arccos(t)/3) for t <= 1, and
    (2/sqrt(3)) cosh(arccosh(t)/3) above (Cardano's trigonometric and
    hyperbolic forms).  x = 2y/(w (1 + w)) does not cancel where x is small."""
    y = np.maximum(y, G_STAR)
    t = (3.0 * math.sqrt(3.0)) * y
    w = np.cos(np.arccos(np.clip(t, -1.0, 1.0)) / 3.0)
    big = t > 1.0
    if big.any():
        w[big] = np.cosh(np.arccosh(t[big]) / 3.0)
    w *= 2.0 / math.sqrt(3.0)
    return 2.0 * y / (w * (1.0 + w))


def _no_stable_root(m: BarModel, n_lo: float) -> bool:
    """Whether S(N_lo) > 0, proven to first order in U.  S is evaluated at N,
    N_lo less its rounding, at most the exact N_lo of the float data; with
    the slopes below the stable branch held at x*, S is nondecreasing, so
    S(N) bounds S at every stable root from below.  C is off by n U H,
    H = sum |half_loads|, and y = (N - C)/EA by dy = (n + 8) U (2H +
    EA |g(x*)|)/EA.  So x(y) drops by at most sqrt(2 dy/sqrt(3)), as g'' >=
    sqrt(3) on the stable branch, by dy x/y where y >= dy, as x is concave
    with x(0) = 0, and never below x*.  The closed form is off by 60 U |x|
    (four ulps per transcendental), by (30 + 6a) U |x| more on its
    hyperbolic branch, a = arccosh(t) <= 710, and the sum by (n - 1) U sum |x|."""
    C, EA, n = m.prefix_loads, m.EA, m.grid.n_elem
    scale = (n + 8) * U * (2.0 * float(np.sum(np.abs(m.half_loads))) + EA * abs(G_STAR))
    y = ((n_lo - scale) - C) / EA
    x, dy = _stable_slopes(y), scale / EA
    drop, far = np.full(n, math.sqrt(2.0 * dy / math.sqrt(3.0))), y >= dy
    drop[far] = dy * (x[far] / y[far])
    low = np.maximum(x - drop, -0.4227)  # x* = -0.42265 rounded down
    return float(np.sum(low)) - (n + 4400) * U * float(np.sum(np.abs(x))) > 0.0


def solve_newton(m: BarModel, iteration_log: list | None = None) -> NewtonState:
    """The equilibrium on the stable branch: Newton's method on N0 from
    mean C + 3 var(C)/(2 EA) (x = y - 3y^2/2 + O(y^3) and sum x = 0), bisecting
    [max(min C, N_lo), max C] where a step leaves it, until ``NewtonState.res``
    <= NEWTON_TOL.  ``ConditionViolated`` where no stable root exists;
    ``NonConvergence`` at a non-finite residual or after ``NEWTON_MAX_ITER``
    steps.  ``iteration_log`` receives the number of steps, also on failure."""
    C, EA, n = m.prefix_loads, m.EA, m.grid.n_elem
    top, mean = float(np.max(C)), float(np.mean(C))
    n_lo = top + EA * G_STAR
    it = 0
    try:
        # x(y) <= y, the concave inverse's tangent at 0: S(N_lo) <= n (N_lo - mean C)/EA
        if mean < n_lo and _no_stable_root(m, n_lo):
            raise ConditionViolated(
                f"no equilibrium on the stable branch: ||u_x||_inf >= 1 - 1/sqrt(3) "
                f"= {FAR_SLOPE:.6f} at every equilibrium")
        lo, hi = max(float(np.min(C)), n_lo), top
        n0 = min(max(mean + 1.5 * EA * float(np.var(C / EA)), lo), hi)
        for it in range(NEWTON_MAX_ITER + 1):
            # the stable slopes under n0 - C, polished by one elementwise Newton
            # step; g' > 0.34 on |x| < 1/4 is held at 1e-6 where it vanishes
            force = n0 - C
            e = slope_terms(_stable_slopes(force / EA))
            k = EA * np.maximum(e.opx**2 + e.ux + e.half_sq, 1e-6)
            force -= EA * e.strain * e.opx
            e = slope_terms(e.ux + force / k)
            r = weak_residual(m, EA * e.strain * e.opx)
            total = float(np.sum(e.ux))
            res = norm_V(r) + 4.0 * EA * abs(total) / n
            if res <= NEWTON_TOL:
                u = np.zeros(n + 1)  # the clamped field, its end node 0 to rounding
                u[1:-1] = np.cumsum(e.ux[:-1] - total / n) * m.grid.h
                shift = abs(total) / n + U * float(np.sum(np.abs(e.ux)))
                return NewtonState(u, e, r, res, shift)
            if it == NEWTON_MAX_ITER or not np.isfinite(res):
                raise NonConvergence(f"residual {res:.3e} after {it} iterations")
            lo, hi = (n0, hi) if total < 0.0 else (lo, n0)
            n0 -= total / float(np.sum(1.0 / k))
            if not lo < n0 < hi:
                n0 = 0.5 * (lo + hi)
    finally:
        if iteration_log is not None:
            iteration_log.append(it)
    raise NonConvergence("unreachable")


def condition_check(s: PrimalState, g: Grid1D) -> tuple[float, bool]:
    """Sup norm of u_x and whether it is strictly below the 1/4 threshold."""
    value = norm_V(s.terms(g).ux)
    return value, value < SLOPE_LIMIT
