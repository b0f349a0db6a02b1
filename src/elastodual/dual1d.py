"""Dual side of the 1D bar problem: closed-form conjugates, construction of
the dual fields from a primal critical point, the dual functional, the weak
equilibrium constraint, the full stationarity (KKT) Newton solver, and the
end-to-end gap certification.

All dual fields are elementwise constant, so the conjugate integrals are exact
under midpoint quadrature and the discrete duality gap reduces to the inner
product of the displacement with the converged equilibrium residual.
``certify`` proves the saddle structure, local minimality and a positive
second variation in closed form.
With J* = h sum f, f = z^2/(2K) - v1^2/(2 den) - (v2 + z)^2/(2 EA),
den = v2 + z + K, and r_z = df/dz, r_vk = df/dvk + u_x (``_stationarity``)
at the dual centre (v, z) and the primal state u, the radius r = min(1e-2, m/2),
m = min den, is halved once if 3r >= m, so den - 2r > r on the ball:

1. z-convexity.  On the product ball |dv1|, |dv2|, |dz| <= r, d2f/dz2 =
   1/K - 1/EA - v1^2/den^3 >= k_e = 1/K - 1/EA - (|v1_e| + r)^2/(den_e - 2r)^3,
   attained at the equilibrated corner dv1 = sign(v1) r, dv2 = dz = -r.
   ``z_curvature_floor`` = min k must be positive.
2. z-side.  For |dz| <= r, f(v, z + dz) >= f(v, z) + r_z dz + k_e dz^2/2
   >= f(v, z) - r_z^2/(2 k_e), or - (|r_z| r - k_e r^2/2) where the minimiser
   -r_z/k_e leaves the ball; summed, ``z_deficit`` bounds the drop of J*.
3. v-side.  v1^2/(2 den) is the perspective of v1^2/2 (Boyd & Vandenberghe,
   Convex Optimization, 3.2.6), so f(., z) is concave in (v1, v2) on the ball,
   with gradient (r_v1 - u_x, r_v2 - u_x).  Equilibrated perturbations have
   dv1 + dv2 = c constant over the bar, |c| <= 2r, so in the ball
   min_z' J*(v', z') <= J*(v', z) <= J*(v, z) + ``v_excess`` for each v',
   v_excess = r (h sum(|r_v1| + |r_v2|) + 2 |h sum u_x|).
4. Local minimality.  W = EA/2 (e + e^2/2)^2 has W'' = EA (1 + 3e + 3e^2/2)
   >= EA/6 on |e| <= 1/3, which holds the slope ball of radius
   ``slope_radius`` = 1/3 - ||u0_x||_inf > 1/12.  There the Hessian of J is at
   least M = (EA/6)(1/h) D^T D, so J(u) >= J(u0) + r.du + du.M du/2
   >= J(u0) - ``energy_deficit``, r.M^-1 r/2 for the primal residual r.
5. Second variation.  Its chain T = (1/h^2) D^T diag(c) D, against the
   discrete L2 inner product, has springs c = W''(u0_x), and W'' rises for
   e > -1, so with s = ||u0_x||_inf < 1/4 every c >= EA g, g = 1 - 3s + 3s^2/2
   > 0.34.  By the Rayleigh quotient lambda_1(T) >= EA g lambda_1 of the
   chain of unit springs, (2 sin(pi/(2n))/h)^2 in closed form:
   ``min_eig_floor`` must be positive.

Each bound adds the first-order rounding error of its evaluation, counted per
operation in units U = eps/2 of each term, so it bounds the exact quantity
at the float data (fields, u0, EA, K, h, P).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import primal1d
from .errors import (
    ConditionViolated,
    NonConvergence,
    PositivityViolated,
    SingularHessian,
    SingularKKTMatrix,
)
from .mesh1d import Grid1D, derivative, integrate, norm_V
from .primal1d import BarModel, PrimalState

SCHEMA_VERSION = "1.2"

#: bounds of ``certify``: |gap| <= GAP_TOL (1 + |J|), and the caps on the
#: equilibrium residual, z_deficit and v_excess, energy_deficit
GAP_TOL = 1e-10
CONSTRAINT_TOL = 1e-9
SADDLE_TOL = 1e-10
LOCAL_MIN_TOL = 1e-12
U = 0.5 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class DualConfig:
    """Perturbation modulus K; the theorem-mode choice is K = EA/2."""

    K: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("K must be positive")


@dataclass(frozen=True)
class DualState1D:
    """The dual triple (v1, v2, z) as elementwise fields or broadcastable stacks."""

    v1: np.ndarray
    v2: np.ndarray
    z: np.ndarray

    def positivity_margin(self, cfg: DualConfig) -> float:
        return float(np.min(self.v2 + self.z + cfg.K))


def _require_positivity(den: np.ndarray) -> np.ndarray:
    """den = v2 + z + K, checked positive."""
    i = np.unravel_index(np.argmin(den), den.shape)  # (sample, element) of a stack
    if den[i] <= 0.0:
        e, margin = int(i[-1]), float(den[i])
        raise PositivityViolated(
            f"v2 + z + K = {margin:.6e} <= 0 at element {e}", location=e, margin=margin
        )
    return den


def F_star_density(z: np.ndarray, cfg: DualConfig) -> np.ndarray:
    """Conjugate density z^2 / (2K)."""
    return z**2 / (2.0 * cfg.K)


def G_star_K_density(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """v1^2 / (2 den) + (v2 + z)^2 / (2 EA), with den = v2 + z + K."""
    s = d.v2 + d.z
    return 0.5 * d.v1**2 / _require_positivity(s + cfg.K) + s**2 / (2.0 * m.EA)


def dual_functional(d: DualState1D, m: BarModel, cfg: DualConfig) -> float | np.ndarray:
    """J*(v*, z*) = F*(z*) - G*_K(v*, z*), one value per state of a stack."""
    f, g = F_star_density(d.z, cfg), G_star_K_density(d, m, cfg)
    return integrate(f, m.grid) - integrate(g, m.grid)


def construct_duals(m: BarModel, u0: PrimalState, cfg: DualConfig) -> DualState1D:
    """Closed-form dual triple at a primal state inside the slope condition."""
    value, ok = primal1d.condition_check(u0, m.grid)
    if not ok:
        raise ConditionViolated(f"||u_x||_inf = {value:.6f} >= 1/4")
    ux = derivative(u0.u, m.grid)
    z = cfg.K * ux
    v2 = m.EA * (ux + 0.5 * ux**2) - z
    v1 = (z + v2 + cfg.K) * ux
    return DualState1D(v1=v1, v2=v2, z=z)


def equilibrium_residual(d: DualState1D, m: BarModel) -> np.ndarray:
    """Weak form of (v1 + v2)_x + P = 0 against interior hat functions."""
    m.grid.check_elem(d.v1)
    m.grid.check_elem(d.v2)
    return primal1d.weak_residual(m, d.v1 + d.v2)


def _z_derivatives(d: DualState1D, m: BarModel, cfg: DualConfig) -> tuple:
    """Checked den = v2 + z + K and the elementwise z-derivatives of the dual
    density, z/K - (v2+z)/EA + q2/2 and (1/K - 1/EA) - q2/den, both from
    q2 = (v1/den)^2."""
    s = d.v2 + d.z
    den = _require_positivity(s + cfg.K)
    q2 = (d.v1 / den) ** 2
    curv = (1.0 / cfg.K - 1.0 / m.EA) - q2 / den
    return den, 0.5 * q2 + (d.z / cfg.K - s / m.EA), curv


def dstar_hessian_z(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """Elementwise second z-derivative of the dual density."""
    return _z_derivatives(d, m, cfg)[2]


def _stationarity(d: DualState1D, u: np.ndarray, m: BarModel, cfg: DualConfig):
    """Residuals (r_z, r_v1, r_v2, r_u at interior nodes) of the Lagrangian's
    stationarity equations, and den and the z-curvature of _z_derivatives."""
    den, r_z, curv = _z_derivatives(d, m, cfg)
    w = derivative(u, m.grid)
    r_v1 = -d.v1 / den + w
    r_v2 = 0.5 * d.v1**2 / den**2 - (d.v2 + d.z) / m.EA + w
    r_u = equilibrium_residual(d, m)[1:-1]
    return (r_z, r_v1, r_v2, r_u), den, curv


def _saddle_bounds(
    d: DualState1D, u: np.ndarray, m: BarModel, cfg: DualConfig, r: float
) -> tuple[float, float, float]:
    """(z_curvature_floor, z_deficit, v_excess): proofs 1-3 of the module
    docstring on the r-ball around d.  Rounding, in units U of each term: den
    is off by s + den (s = |v2 + z|), b = den - 2r by s + den + b; in k, 1/K,
    1/EA, k and t = (a/b)^2/b (a = |v1| + r) carry 2, 2, 2 and
    6 + 3 (s + den + b)/b; with rel = (s + den)/den and q = v1^2/(2 den^2), in
    r_z |z/K|, s/EA, q and r_z carry 2, 3, 3 + 2 rel and 1, in r_v1 |v1/den|,
    |u_x| and r_v1 1 + rel, 2 and 1, in r_v2 q, s/EA, |u_x| and r_v2 4 + 2 rel,
    3, 2 and 1.  h sum u_x is 0 for a clamped u."""
    (r_z, r_v1, r_v2, _), den, _ = _stationarity(d, u, m, cfg)
    K, EA, h = cfg.K, m.EA, m.grid.h
    ux, s = derivative(u, m.grid), np.abs(d.v2 + d.z)
    rel, b = (s + den) / den, den - 2.0 * r
    t = ((np.abs(d.v1) + r) / b) ** 2 / b
    kappa = (1.0 / K - 1.0 / EA) - t
    kappa -= U * (2.0 / K + 2.0 / EA + 2.0 * np.abs(kappa)
                  + t * (6.0 + 3.0 * (s + den + b) / b))
    q, c = 0.5 * (d.v1 / den) ** 2, s / EA
    g = np.abs(r_z)
    g += U * (2.0 * np.abs(d.z / K) + 3.0 * c + (3.0 + 2.0 * rel) * q + g)
    # the minimising |dz| of the quadratic model: g/k inside the ball, else r
    dz = np.minimum(r, np.divide(g, kappa, out=np.full_like(g, r), where=kappa > 0.0))
    # a sum of n positive terms of k roundings each is off by (n + k) U
    up = 1.0 + (len(g) + 8) * U
    z_deficit = float(np.sum(dz * (g - 0.5 * kappa * dz))) * h * up
    rv = np.abs(r_v1) + np.abs(r_v2)
    rv += U * ((1.0 + rel) * np.abs(d.v1 / den) + (4.0 + 2.0 * rel) * q + 3.0 * c
               + 4.0 * np.abs(ux) + rv)
    v_excess = r * (float(np.sum(rv)) * h * up + 2.0 * abs(float(np.sum(ux)) * h))
    return float(np.min(kappa)), z_deficit, v_excess


def _energy_deficit(m: BarModel, u0: PrimalState, res: np.ndarray) -> float:
    """energy_deficit, proof 4 of the module docstring, of the interior primal
    residual res at u0.  Rounding: on |u_x| < 1/4 the force EA (e + e^2/2)(1 + e)
    is off by 5 U |force| + 2 U |e| W'' <= 11 U EA |e|, a load half h P/2 by
    U h |P|, and res by 2 U |res| more.  M^-1 is a positive Green's function,
    applied to a >= |res|; it and the dot product of positive terms carry
    (3n + 12) U."""
    h, n = m.grid.h, m.grid.n_elem
    err = 11.0 * U * m.EA * np.abs(derivative(u0.u, m.grid))
    load = np.abs(m.P) * h
    a = np.abs(res) * (1.0 + 2.0 * U) + err[:-1] + err[1:]
    a += 1.5 * U * (load[:-1] + load[1:])
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
    m: BarModel,
    cfg: DualConfig,
    init: tuple[DualState1D, np.ndarray],
    tol: float = 1e-12,
    max_iter: int = 50,
) -> tuple[DualState1D, np.ndarray, int]:
    """Newton solve of the full stationarity system of the Lagrangian.

    Unknowns are (z, v1, v2) per element plus the multiplier u at interior
    nodes; the converged multiplier is the primal critical point.  Returns the
    dual state, the full nodal multiplier, and the iteration count.

    Element e's unknowns couple to u only through b = (0, 1, 1): w_e enters
    r_v1 and r_v2, and v1 + v2 enters r_u.  Each step eliminates the
    symmetric 3x3 block A_e of every element and solves the Schur complement
    in u, the clamped chain of the springs b.A_e^-1.b at unit spacing, by the
    prefix sums of ``primal1d.solve_spring_chain``: O(n) time and memory.
    """
    h, K = m.grid.h, cfg.K
    n = m.grid.n_elem
    d0, u_full = init
    x = np.stack([d0.z, d0.v1, d0.v2])
    u = np.zeros(n + 1)
    u[1:-1] = u_full[1:-1]
    rhs = np.zeros((n, 3, 2))
    rhs[:, 1:, 1] = 1.0  # second column: b
    for it in range(max_iter + 1):
        z, v1, v2 = x
        d = DualState1D(v1, v2, z)
        parts, den, curv = _stationarity(d, u, m, cfg)
        r = np.concatenate(parts)
        if norm_V(r) <= tol:
            return d, u, it
        if it == max_iter:
            raise NonConvergence(
                f"KKT Newton: residual {norm_V(r):.3e} after {max_iter} iterations"
            )
        c = curv - 1.0 / K  # d(r_z)/d(v2): the z-curvature less 1/K
        a = v1 / den**2
        A = np.empty((n, 3, 3))  # d(r_z, r_v1, r_v2)/d(z, v1, v2) per element
        A[:, 0, 0] = curv
        A[:, 1, 1] = -1.0 / den
        A[:, 0, 2] = A[:, 2, 0] = A[:, 2, 2] = c
        A[:, 0, 1] = A[:, 1, 0] = A[:, 1, 2] = A[:, 2, 1] = a
        rhs[:, :, 0] = r[: 3 * n].reshape(3, n).T
        try:
            sol = np.linalg.solve(A, rhs)  # A_e^-1 r_x(e), A_e^-1 b
            bAr, bAb = (sol[:, 1] + sol[:, 2]).T
            du = np.zeros(n + 1)
            rhs_u = h * (r[3 * n:] - (bAr[:-1] - bAr[1:]))
            du[1:-1] = primal1d.solve_spring_chain(bAb, 1.0, rhs_u)
        except (np.linalg.LinAlgError, SingularHessian) as exc:
            raise SingularKKTMatrix(str(exc)) from exc
        x = x - (sol[:, :, 0] + derivative(du, m.grid)[:, None] * sol[:, :, 1]).T
        u = u + du
    raise NonConvergence("unreachable")


@dataclass
class GapReport:
    """Machine-readable certification record for one bar problem."""

    J_primal: float = 0.0
    J_dual: float = 0.0
    gap: float = 0.0
    min_positivity_margin: float = 0.0
    min_hessian_z: float = 0.0
    condition_norm: float = 0.0
    condition_ok: bool = False
    min_eig_floor: float = 0.0
    residual_norm: float = 0.0
    constraint_residual_norm: float = 0.0
    z_curvature_floor: float = 0.0
    z_deficit: float = 0.0
    v_excess: float = 0.0
    kkt_converged: bool = False
    kkt_iters: int = 0
    slope_radius: float = 0.0
    energy_deficit: float = 0.0
    newton_iters: int = 0
    r: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    passed: bool = False
    errors: list[str] = field(default_factory=list)

    def to_json(self, config_echo: dict | None = None) -> str:
        doc = {
            "version": SCHEMA_VERSION,
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
    except NonConvergence as exc:
        report.errors.append(f"newton: {exc}")
        return report
    finally:
        report.newton_iters = sum(iters)

    res = primal1d.residual(m, u0)[1:-1]
    report.residual_norm = norm_V(res)
    report.J_primal = primal1d.energy(m, u0)
    report.condition_norm, report.condition_ok = primal1d.condition_check(u0, m.grid)
    if not report.condition_ok:
        report.errors.append(
            f"hypothesis: ||u_x||_inf = {report.condition_norm:.6f} >= 1/4, "
            "no certification claimed"
        )
        return report

    d_hat = construct_duals(m, u0, cfg)
    report.J_dual = dual_functional(d_hat, m, cfg)
    report.gap = report.J_primal - report.J_dual
    margin = report.min_positivity_margin = d_hat.positivity_margin(cfg)
    report.min_hessian_z = float(np.min(dstar_hessian_z(d_hat, m, cfg)))
    report.constraint_residual_norm = norm_V(
        equilibrium_residual(d_hat, m)[1:-1]
    )
    report.min_eig_floor = _min_eig_floor(m, report.condition_norm)

    r0 = min(1e-2, 0.5 * margin)
    r = 0.5 * r0 if 3.0 * r0 >= margin else r0  # then 3r <= 3 margin/4
    report.r, report.r1, report.r2 = r0 / cfg.K, r, r
    bounds = _saddle_bounds(d_hat, u0.u, m, cfg, r)
    report.z_curvature_floor, report.z_deficit, report.v_excess = bounds
    report.slope_radius = 1.0 / 3.0 - report.condition_norm - 2.0 * U
    report.energy_deficit = _energy_deficit(m, u0, res)

    try:
        report.kkt_iters = kkt_solve(m, cfg, (d_hat, u0.u), tol=1e-11)[2]
        report.kkt_converged = True
    except (NonConvergence, SingularKKTMatrix) as exc:
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
