"""Dual side of the 1D bar problem: closed-form conjugates, construction of
the dual fields from a primal critical point, the dual functional, the weak
equilibrium constraint, the full stationarity (KKT) Newton solver, and the
end-to-end gap certification.

All dual fields are elementwise constant, so the conjugate integrals are exact
under midpoint quadrature and the discrete duality gap reduces to the inner
product of the displacement with the converged equilibrium residual.
``certify`` proves the saddle structure, local minimality and a positive
second variation in closed form, forming each quantity once: the force
solve's state gives the slopes u_x (its data), the residual at them and J,
and one ``_stationarity`` call gives (s, den, a) and the parts to J*, the
bounds and the warm KKT re-check.  Past the limit point it reports the
solve's proven ||u_x||_inf >= 1 - 1/sqrt(3) and claims nothing.
With J* = h sum f, f = z^2/(2K) - v1^2/(2 den) - (v2 + z)^2/(2 EA),
den = v2 + z + K, and r_z = df/dz, r_vk = df/dvk + u_x (``_stationarity``)
at the dual centre (v, z) and the primal slopes u_x, the radius r = min(1e-2,
m/2), m = min den, is halved once if 3r >= m, so den - 2r > r on the ball:

1. z-convexity.  On the product ball |dv1|, |dv2|, |dz| <= r, d2f/dz2 =
   1/K - 1/EA - v1^2/den^3 >= k_e = 1/K - 1/EA - (|v1_e| + r)^2/(den_e - 2r)^3,
   attained at the equilibrated corner dv1 = sign(v1) r, dv2 = dz = -r.
   ``z_curvature_floor`` = min k must be positive.
2. z-side.  For |dz| <= r, f(v, z + dz) >= f(v, z) + r_z dz + k_e dz^2/2
   >= f(v, z) - r_z^2/(2 k_e), or - (|r_z| r - k_e r^2/2) where the minimiser
   -r_z/k_e leaves the ball; summed, ``z_deficit`` bounds the drop of J*.
3. v-side.  v1^2/(2 den) is the perspective of v1^2/2 (Boyd & Vandenberghe,
   Convex Optimization, 3.2.6), so f(., z) is concave in (v1, v2) on the ball,
   with gradient (r_v1 - u_x, r_v2 - u_x) for any slope field u_x.
   Equilibrated perturbations have dv1 + dv2 = c constant over the bar,
   |c| <= 2r, so in the ball min_z' J*(v', z') <= J*(v', z) <= J*(v, z) +
   ``v_excess`` for each v', v_excess = r (h sum(|r_v1| + |r_v2|) +
   2 |h sum u_x|).
4. Local minimality at u0, the clamped field of slopes u_x - mean u_x, so
   ||u0_x||_inf <= ||u_x||_inf + shift (``NewtonState``).  W = EA/2 (e +
   e^2/2)^2 has W'' = EA (1 + 3e + 3e^2/2) >= EA/6 on |e| <= 1/3, holding the
   slope ball of radius ``slope_radius`` = 1/3 - ||u0_x||_inf > 1/12.  There
   the Hessian of J is at least M = (EA/6)(1/h) D^T D, so J(u) >= J(u0) +
   r.du + du.M du/2 >= J(u0) - ``energy_deficit``, r.M^-1 r/2 for u0's
   residual r, within 4 EA shift of the one at u_x.
5. Second variation at u0.  Its chain T = (1/h^2) D^T diag(c) D, against the
   discrete L2 inner product, has springs c = W''(u0_x), and W'' rises for
   e > -1, so with s = ||u0_x||_inf < 1/4 every c >= EA g, g = 1 - 3s + 3s^2/2
   > 0.34.  By the Rayleigh quotient lambda_1(T) >= EA g lambda_1 of the
   chain of unit springs, (2 sin(pi/(2n))/h)^2 in closed form:
   ``min_eig_floor`` must be positive.

Each bound adds the first-order rounding error of its evaluation, counted per
operation in units U = eps/2 of each term, so it bounds the exact quantity
at the float data (fields, slopes, EA, K, h, P).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import primal1d
from .errors import ConditionViolated, NonConvergence, PositivityViolated, SingularSystem
from .mesh1d import Grid1D, derivative, integrate, norm_V
from .primal1d import NEWTON_MAX_ITER, NEWTON_TOL, U, BarModel, PrimalState

#: bounds of ``certify``: |gap| <= GAP_TOL (1 + |J|), and the caps on the
#: equilibrium residual, z_deficit and v_excess, energy_deficit
GAP_TOL = 1e-10
CONSTRAINT_TOL = 1e-9
SADDLE_TOL = 1e-10
LOCAL_MIN_TOL = 1e-12


@dataclass(frozen=True)
class DualConfig:
    """Perturbation modulus K; the theorem-mode choice is K = EA/2."""

    K: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("K must be positive")


@dataclass(frozen=True)
class DualState1D:
    """The dual triple (v1, v2, z) of elementwise fields."""

    v1: np.ndarray
    v2: np.ndarray
    z: np.ndarray


def _require_positivity(den: np.ndarray) -> np.ndarray:
    """den = v2 + z + K, checked positive."""
    e = int(np.argmin(den))
    if den[e] <= 0.0:
        raise PositivityViolated(f"v2 + z + K = {den[e]:.6e} <= 0 at element {e}")
    return den


def F_star_density(z: np.ndarray, cfg: DualConfig) -> np.ndarray:
    """Conjugate density z^2 / (2K)."""
    return z**2 / (2.0 * cfg.K)


def G_star_K_density(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """v1^2 / (2 den) + (v2 + z)^2 / (2 EA), with den = v2 + z + K."""
    return _g_star(d, m, *_den_a(d, cfg)[:2])


def _g_star(d: DualState1D, m: BarModel, s: np.ndarray, den: np.ndarray) -> np.ndarray:
    return 0.5 * d.v1**2 / den + s**2 / (2.0 * m.EA)


def dual_functional(d: DualState1D, m: BarModel, cfg: DualConfig) -> float:
    """J*(v*, z*) = F*(z*) - G*_K(v*, z*)."""
    return _dual_functional(d, m, cfg, *_den_a(d, cfg)[:2])


def _dual_functional(d: DualState1D, m: BarModel, cfg: DualConfig, s, den) -> float:
    f, g = F_star_density(d.z, cfg), _g_star(d, m, s, den)
    return integrate(f, m.grid) - integrate(g, m.grid)


def construct_duals(m: BarModel, u0: PrimalState, cfg: DualConfig) -> DualState1D:
    """Closed-form dual triple at a primal state inside the slope condition."""
    value, ok = primal1d.condition_check(u0, m.grid)
    if not ok:
        raise ConditionViolated(f"||u_x||_inf = {value:.6f} >= 1/4")
    e = u0.terms(m.grid)
    z = cfg.K * e.ux
    v2 = m.EA * e.strain - z
    v1 = (z + v2 + cfg.K) * e.ux
    return DualState1D(v1=v1, v2=v2, z=z)


def equilibrium_residual(d: DualState1D, m: BarModel) -> np.ndarray:
    """Weak form of (v1 + v2)_x + P = 0 against interior hat functions."""
    m.grid.check_elem(d.v1)
    m.grid.check_elem(d.v2)
    return np.concatenate(([0.0], primal1d.weak_residual(m, d.v1 + d.v2), [0.0]))


def _den_a(d: DualState1D, cfg: DualConfig) -> tuple:
    """s = v2 + z, checked den = s + K and a = v1/den."""
    s = d.v2 + d.z
    den = _require_positivity(s + cfg.K)
    return s, den, d.v1 / den


def dstar_hessian_z(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """Elementwise second z-derivative of the dual density,
    (1/K - 1/EA) - a^2/den."""
    return _hessian_z(m, cfg, *_den_a(d, cfg)[1:])


def _hessian_z(m: BarModel, cfg: DualConfig, den: np.ndarray, a: np.ndarray) -> np.ndarray:
    return (1.0 / cfg.K - 1.0 / m.EA) - a * a / den


def _stationarity(d: DualState1D, ux: np.ndarray, m: BarModel, cfg: DualConfig):
    """Residuals (r_z, r_v1, r_v2, r_u at interior nodes) of the Lagrangian's
    stationarity equations at the slopes ux, and (s, den, a) of ``_den_a``:
    with q = a^2/2, r_z = q + (z/K - s/EA), r_v1 = u_x - a and
    r_v2 = (q - s/EA) + u_x."""
    s, den, a = _den_a(d, cfg)
    q, c = 0.5 * (a * a), s / m.EA
    r = (q + (d.z / cfg.K - c), ux - a, q - c + ux, equilibrium_residual(d, m)[1:-1])
    return r, (s, den, a)


def _saddle_bounds(
    d: DualState1D, ux: np.ndarray, m: BarModel, cfg: DualConfig, r: float, stat: tuple
) -> tuple[float, float, float]:
    """(z_curvature_floor, z_deficit, v_excess): proofs 1-3 of the module
    docstring on the r-ball around d.  Rounding, in units U of each term: den
    is off by s + den (s = |v2 + z|), b = den - 2r by s + den + b; in k, 1/K,
    1/EA, k and t = ((|v1| + r)/b)^2/b carry 2, 2, 2 and
    6 + 3 (s + den + b)/b; with rel = (s + den)/den, a = v1/den (off by
    1 + rel) and q = a^2/2 (by 3 + 2 rel), in r_z |z/K|, s/EA, q and r_z carry
    2, 3, 3 + 2 rel and 1, in r_v1 = u_x - a |a|, |u_x| and r_v1 1 + rel, 2
    and 1, and in r_v2 = (q - s/EA) + u_x q, s/EA, |u_x| and r_v2 4 + 2 rel,
    3, 2 and 1.  ux is the slope field and stat its ``_stationarity``."""
    (r_z, r_v1, r_v2, _), (s, den, a) = stat
    K, EA, h = cfg.K, m.EA, m.grid.h
    s = np.abs(s)
    rel, b = (s + den) / den, den - 2.0 * r
    t = ((np.abs(d.v1) + r) / b) ** 2 / b
    kappa = (1.0 / K - 1.0 / EA) - t
    kappa -= U * (2.0 / K + 2.0 / EA + 2.0 * np.abs(kappa)
                  + t * (6.0 + 3.0 * (s + den + b) / b))
    q, c = 0.5 * a**2, s / EA
    g = np.abs(r_z)
    g += U * (2.0 * np.abs(d.z / K) + 3.0 * c + (3.0 + 2.0 * rel) * q + g)
    # the minimising |dz| of the quadratic model: g/k inside the ball, else r
    dz = np.minimum(r, np.divide(g, kappa, out=np.full_like(g, r), where=kappa > 0.0))
    # a sum of n positive terms of k roundings each is off by (n + k) U
    up = 1.0 + (len(g) + 8) * U
    z_deficit = float(np.sum(dz * (g - 0.5 * kappa * dz))) * h * up
    rv = np.abs(r_v1) + np.abs(r_v2)
    rv += U * ((1.0 + rel) * np.abs(a) + (4.0 + 2.0 * rel) * q + 3.0 * c
               + 4.0 * np.abs(ux) + rv)
    v_excess = r * (float(np.sum(rv)) * h * up + 2.0 * abs(float(np.sum(ux)) * h))
    return float(np.min(kappa)), z_deficit, v_excess


def _energy_deficit(m: BarModel, ux: np.ndarray, res: np.ndarray, shift: float) -> float:
    """energy_deficit, proof 4 of the module docstring, of the interior primal
    residual res at the slopes ux, within shift of u0's, whose residual is
    within 4 EA shift of res (g' < 2).  Rounding: on |u_x| < 1/4 the force
    EA (e + e^2/2)(1 + e) is off by 5 U |force| + 2 U |e| W'' <= 11 U EA |e|,
    a load half h P/2 by U h |P|, and res by 2 U |res| more.  M^-1 is a
    positive Green's function, applied to a >= |res|; it and the dot product
    of positive terms carry (3n + 12) U."""
    h, n = m.grid.h, m.grid.n_elem
    err = 11.0 * U * m.EA * np.abs(ux)
    load = np.abs(m.P) * h
    a = np.abs(res) * (1.0 + 2.0 * U) + err[:-1] + err[1:]
    a += 1.5 * U * (load[:-1] + load[1:]) + 4.0 * m.EA * shift
    x = primal1d.solve_spring_chain(np.full(n, m.EA / 6.0), h, a)
    return 0.5 * float(a @ x) * (1.0 + (3 * n + 12) * U)


def _min_eig_floor(m: BarModel, s: float) -> float:
    """min_eig_floor, proof 5 of the module docstring, for the slope norm
    s < 1/4.  Rounding: the exact slopes exceed s by 2 U s, which lowers g by
    6 U s, and g is off by U (1 + 3s^2 + g), so g less 4 U bounds the exact
    g; pi/(2n) carries 2 U, its sine 4 U, the unit eigenvalue 11 U, and with
    the subtraction and the two products the floor 14 U."""
    g = 1.0 - 3.0 * s + 1.5 * s * s - 4.0 * U
    unit = (2.0 * math.sin(math.pi / (2 * m.grid.n_elem)) / m.grid.h) ** 2
    return m.EA * g * unit * (1.0 - 15.0 * U)  # this product 1 U more


def kkt_solve(
    m: BarModel, cfg: DualConfig, init: tuple[DualState1D, np.ndarray]
) -> tuple[DualState1D, np.ndarray, int]:
    """Newton solve of the Lagrangian's full stationarity system, to NEWTON_TOL.

    Unknowns are (z, v1, v2) per element plus the multiplier u at interior
    nodes; the converged multiplier is the primal critical point.  Returns the
    dual state, the full nodal multiplier, and the iteration count.

    Per element, with s = v2 + z and a = v1/den, r_z - r_v2 = z/K - w is
    linear, and the Jacobian of (r_v1, r_v2) in (v1, s) has determinant
    1/(EA den) and inverse -[[EA a^2 + den, EA a], [EA a, EA]], so the 3x3
    block in (z, v1, v2) has determinant 1/(K EA den) > 0 and a closed-form
    inverse.  With dw the slope of the step du in u, p, q = r_v1 + dw,
    r_v2 + dw and rho = r_z - r_v2, the Newton step is ds = EA (a p + q),
    dv1 = den p + a ds, dz = K (dw - rho), and the flux v1 + v2 changes by
    g + c dw, g = den r_v1 + (1 + a) EA (a r_v1 + r_v2) + K rho, on the
    springs c = s + EA (1 + a)^2 (the primal tangent's at the solution).  So
    du is minus the clamped chain of c solved against r_u + g_l - g_r, by the
    prefix sums of ``primal1d.solve_spring_chain``: O(n) time and memory.
    """
    d, u_full = init
    u = np.zeros(m.grid.n_elem + 1)
    u[1:-1] = u_full[1:-1]
    stat = _stationarity(d, derivative(u, m.grid), m, cfg)
    return _kkt_newton(m, cfg, d, u, NEWTON_TOL, stat)


def _kkt_newton(m: BarModel, cfg: DualConfig, d: DualState1D, u: np.ndarray,
                tol: float, stat: tuple) -> tuple[DualState1D, np.ndarray, int]:
    """``kkt_solve`` from d and u, clamped, whose ``_stationarity`` is stat
    (at u's slopes, or at the slopes that u was summed from)."""
    h, K, EA = m.grid.h, cfg.K, m.EA
    for it in range(NEWTON_MAX_ITER + 1):
        parts, (s, den, a) = stat
        res = norm_V(np.concatenate(parts))
        if res <= tol:
            return d, u, it
        if it == NEWTON_MAX_ITER:
            raise NonConvergence(f"KKT Newton: residual {res:.3e} after {it} iterations")
        r_z, r_v1, r_v2, r_u = parts
        rho = r_z - r_v2
        g = den * r_v1 + (1.0 + a) * EA * (a * r_v1 + r_v2) + K * rho
        c = s + EA * (1.0 + a) ** 2
        du = np.zeros(u.shape)
        du[1:-1] = -primal1d.solve_spring_chain(c, h, r_u + g[:-1] - g[1:])
        dw = derivative(du, m.grid)
        p, q = r_v1 + dw, r_v2 + dw
        ds = EA * (a * p + q)
        dz = K * (dw - rho)
        d = DualState1D(d.v1 + (den * p + a * ds), d.v2 + (ds - dz), d.z + dz)
        u = u + du
        stat = _stationarity(d, derivative(u, m.grid), m, cfg)
    raise NonConvergence("unreachable")


def _in(section: str, key: str, default=0.0):
    """A ``GapReport`` field that the JSON report holds at [section][key]."""
    return field(default=default, metadata={"json": (section, key)})


@dataclass
class GapReport:
    """Machine-readable certification record for one bar problem.  Each
    field names its place in the JSON report (schema ``VERSION``);
    ``passed`` and ``errors`` sit at its top level.  ``newton_iters`` counts
    the force solve's steps (0 without a stable root); ``residual_norm``
    is its ``NewtonState.res``."""

    VERSION = "1.2"

    J_primal: float = _in("primal", "J")
    J_dual: float = _in("dual", "J_star")
    gap: float = _in("dual", "gap")
    min_positivity_margin: float = _in("dual", "positivity_margin")
    min_hessian_z: float = _in("dual", "hessian_z_min")
    condition_norm: float = _in("primal", "condition_norm")
    condition_ok: bool = _in("primal", "condition_ok", False)
    min_eig_floor: float = _in("primal", "min_eig_floor")
    residual_norm: float = _in("primal", "residual_norm")
    constraint_residual_norm: float = _in("dual", "constraint_residual_norm")
    z_curvature_floor: float = _in("saddle", "z_curvature_floor")
    z_deficit: float = _in("saddle", "z_deficit")
    v_excess: float = _in("saddle", "v_excess")
    kkt_converged: bool = _in("kkt", "converged", False)
    kkt_iters: int = _in("kkt", "iters", 0)
    slope_radius: float = _in("local_min", "slope_radius")
    energy_deficit: float = _in("local_min", "energy_deficit")
    newton_iters: int = _in("primal", "newton_iters", 0)
    r: float = _in("saddle", "r")
    r1: float = _in("saddle", "r1")
    r2: float = _in("saddle", "r2")
    passed: bool = False
    errors: list[str] = field(default_factory=list)


def sine_load_model(
    E: float, A: float, L: float, amplitude: float, n_elem: int
) -> BarModel:
    """Bar under P(x) = amplitude * sin(pi x / L), sampled at midpoints."""
    g = Grid1D(L, n_elem)
    P = amplitude * np.sin(np.pi * g.midpoints / L)
    return BarModel(E, A, g, P)


def certify(m: BarModel) -> GapReport:
    """Full Theorem-1-style certification pipeline for one bar model.

    Solver or hypothesis failures are recorded in the report instead of
    raising, so sweeps can continue past bad cases.
    """
    report = GapReport()
    cfg = DualConfig(K=m.EA / 2.0)
    iters: list[int] = []
    try:
        u0 = primal1d.solve_newton(m, iteration_log=iters)
    except ConditionViolated as exc:  # no stable root: a proven slope bound
        report.condition_norm = primal1d.FAR_SLOPE
        report.errors.append(f"hypothesis: {exc}, no certification claimed")
        return report
    except NonConvergence as exc:
        report.errors.append(f"newton: {exc}")
        return report
    finally:
        report.newton_iters = sum(iters)

    report.residual_norm = u0.res
    report.J_primal = primal1d.energy(m, u0)
    report.condition_norm, report.condition_ok = primal1d.condition_check(u0, m.grid)
    if not report.condition_ok:
        report.errors.append(
            f"hypothesis: ||u_x||_inf = {report.condition_norm:.6f} >= 1/4, "
            "no certification claimed"
        )
        return report

    ux, shift = u0.e.ux, u0.shift
    d_hat = construct_duals(m, u0, cfg)
    stat = _stationarity(d_hat, ux, m, cfg)
    (_, _, _, r_u), (s, den, a) = stat
    report.J_dual = _dual_functional(d_hat, m, cfg, s, den)
    report.gap = report.J_primal - report.J_dual
    margin = report.min_positivity_margin = float(np.min(den))
    report.min_hessian_z = float(np.min(_hessian_z(m, cfg, den, a)))
    report.constraint_residual_norm = norm_V(r_u)
    report.min_eig_floor = _min_eig_floor(m, report.condition_norm + shift)

    r0 = min(1e-2, 0.5 * margin)
    r = 0.5 * r0 if 3.0 * r0 >= margin else r0  # then 3r <= 3 margin/4
    report.r, report.r1, report.r2 = r0 / cfg.K, r, r
    floor, z_deficit, v_excess = _saddle_bounds(d_hat, ux, m, cfg, r, stat)
    report.slope_radius = 1.0 / 3.0 - (report.condition_norm + shift) - 2.0 * U
    deficit = _energy_deficit(m, ux, u0.r, shift)
    # a bound with no proof (inf or NaN) is reported as the largest double, a
    # floor as its negative, as in fem3d: each then fails its check
    big = sys.float_info.max
    report.z_curvature_floor = floor if math.isfinite(floor) else -big
    report.z_deficit, report.v_excess, report.energy_deficit = (
        x if math.isfinite(x) else big for x in (z_deficit, v_excess, deficit))

    try:  # the warm re-check: converged at iteration 0 if max|parts| <= 1e-11
        report.kkt_iters = _kkt_newton(m, cfg, d_hat, u0.u, 1e-11, stat)[2]
        report.kkt_converged = True
    except (NonConvergence, SingularSystem) as exc:
        report.errors.append(f"kkt: {exc}")

    # the slope condition and every solver failure were recorded above
    gap_bound = GAP_TOL * (1.0 + abs(report.J_primal))
    hess_z = report.min_hessian_z
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (report.constraint_residual_norm <= CONSTRAINT_TOL,
         f"constraint: residual {report.constraint_residual_norm:.3e}"
         f" > {CONSTRAINT_TOL:.3e}"),
        (margin > (7.0 / 32.0) * m.EA - 1e-12,
         f"positivity: min v2 + z + K {margin:.3e} <= 7 EA/32 = {7 * m.EA / 32:.3e}"),
        (hess_z > 5.0 / (7.0 * m.EA) - 1e-12,
         f"hessian: min z-Hessian {hess_z:.3e} <= 5/(7 EA) = {5 / (7 * m.EA):.3e}"),
        (report.min_eig_floor > 0.0,
         f"min_eig: second variation floor {report.min_eig_floor:.3e} <= 0"),
        (report.z_curvature_floor > 0.0,
         f"saddle_z: z-curvature floor {report.z_curvature_floor:.3e} <= 0 at r {r:.3e}"),
        (report.z_deficit <= SADDLE_TOL,
         f"saddle_z: z deficit {report.z_deficit:.3e} > {SADDLE_TOL:.3e}"),
        (report.v_excess <= SADDLE_TOL,
         f"saddle_v: v excess {report.v_excess:.3e} > {SADDLE_TOL:.3e}"),
        (report.energy_deficit <= LOCAL_MIN_TOL,
         f"local_min: energy deficit {report.energy_deficit:.3e} > {LOCAL_MIN_TOL:.3e}"),
    )
    report.errors += [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report
