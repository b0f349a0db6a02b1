"""Dual side of the 1D bar problem: closed-form conjugates, construction of
the dual fields from a primal critical point, the dual functional, the weak
equilibrium constraint, saddle sampling, the full stationarity (KKT) Newton
solver, and the end-to-end gap certification.

All dual fields are elementwise constant, so the conjugate integrals are exact
under midpoint quadrature and the discrete duality gap reduces to the inner
product of the displacement with the converged equilibrium residual.
The saddle and local-minimality samples are evaluated as stacks, one sample
per row, in chunks of at most ``CHUNK_ELEMS`` values per array, which bounds
their memory but not their answers.  ``saddle_verify`` draws its v-samples
chunk by chunk as well, reading their v2 constants from a copy of the stream
advanced past them, so the samples are those of one up-front draw.  Its inner
z-Newton starts each v-sample at the center moved to first order along the
sample (``_z_sensitivities``), one step closer than the center: about 4
passes of the fused kernel ``_z_derivatives`` (no ``pow``) per sample element
instead of 5, the last of them the stationarity check.
"""

from __future__ import annotations

import copy
import json
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
from .mesh1d import Grid1D, derivative, integrate, norm_U, norm_V
from .primal1d import BarModel, PrimalState

SCHEMA_VERSION = "1.0"

#: bounds of ``certify``: |gap| <= GAP_TOL (1 + |J|), second variation >= -EIG_TOL
GAP_TOL = 1e-10
EIG_TOL = 1e-10
N_LOCAL = 200
#: values per array of stacked samples: a chunk holds CHUNK_ELEMS // n rows
CHUNK_ELEMS = 2**14


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

    def denominator(self, cfg: DualConfig) -> np.ndarray:
        return self.v2 + self.z + cfg.K

    def positivity_margin(self, cfg: DualConfig) -> float:
        return float(np.min(self.denominator(cfg)))


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


def F_star(z: np.ndarray, cfg: DualConfig, g: Grid1D) -> float | np.ndarray:
    return integrate(F_star_density(z, cfg), g)


def G_star_K_density(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """v1^2 / (2 den) + (v2 + z)^2 / (2 EA), with den = v2 + z + K."""
    s = d.v2 + d.z
    return 0.5 * d.v1**2 / _require_positivity(s + cfg.K) + s**2 / (2.0 * m.EA)


def G_star_K(d: DualState1D, m: BarModel, cfg: DualConfig) -> float | np.ndarray:
    return integrate(G_star_K_density(d, m, cfg), m.grid)


def dual_functional(d: DualState1D, m: BarModel, cfg: DualConfig) -> float | np.ndarray:
    """J*(v*, z*) = F*(z*) - G*_K(v*, z*), one value per state of a stack."""
    return F_star(d.z, cfg, m.grid) - G_star_K(d, m, cfg)


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
    q2 = np.divide(d.v1, den)
    q2 *= q2
    curv = q2 / den
    np.subtract(1.0 / cfg.K - 1.0 / m.EA, curv, out=curv)
    s /= -m.EA
    s += d.z / cfg.K
    grad = np.multiply(q2, 0.5, out=q2)
    grad += s
    return den, grad, curv


def dstar_hessian_z(d: DualState1D, m: BarModel, cfg: DualConfig) -> np.ndarray:
    """Elementwise second z-derivative of the dual density."""
    return _z_derivatives(d, m, cfg)[2]


def minimize_in_z_ball(
    d: DualState1D,
    m: BarModel,
    cfg: DualConfig,
    z_center: np.ndarray,
    r1: float,
    tol: float = 1e-14,
    max_iter: int = 100,
) -> tuple[DualState1D, int | np.ndarray]:
    """Minimize J* over z within the sup-norm ball of radius r1 around
    ``z_center``, holding (v1, v2) fixed and starting from d.z clipped into
    the ball, for one state or each of a stack.

    The dual density is separable per element, so this is a bank of projected
    scalar Newton iterations on the (locally convex) density, run on the whole
    stack until its largest step is at most ``tol``.  Returns the minimizing
    state and the number of elements whose minimum sits on the ball boundary.
    """
    lo, hi = z_center - r1, z_center + r1
    shape = np.broadcast_shapes(d.v1.shape, d.v2.shape, d.z.shape)
    v1, v2, z = np.broadcast_arrays(*(np.atleast_2d(f) for f in (d.v1, d.v2, d.z)))
    z = np.clip(z, lo, hi)
    step = np.empty_like(z)
    for _ in range(max_iter):
        _, z_new, curv = _z_derivatives(DualState1D(v1, v2, z), m, cfg)
        if np.any(curv <= 0.0):
            raise NonConvergence("z-problem lost convexity inside the ball")
        z_new /= curv  # the Newton step, taken and clipped into the ball in place
        np.subtract(z, z_new, out=z_new)
        np.minimum(np.maximum(z_new, lo, out=z_new), hi, out=z_new)
        np.subtract(z_new, z, out=step)
        z = z_new
        if np.max(np.abs(step, out=step)) <= tol:
            break
    z = z.reshape(shape)
    at_boundary = np.sum((z <= lo + 1e-13) | (z >= hi - 1e-13), axis=-1)
    result = DualState1D(d.v1, d.v2, z)
    # KKT check: interior elements must have zero gradient
    grad = _z_derivatives(result, m, cfg)[1]
    interior = (z > lo + 1e-13) & (z < hi - 1e-13)
    if np.any(np.abs(grad[interior]) > 1e-9):
        raise NonConvergence("projected Newton did not reach stationarity")
    return result, at_boundary


def _chunks(n_samples: int, row_len: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) sample ranges of max(1, CHUNK_ELEMS // row_len)."""
    step = max(1, CHUNK_ELEMS // row_len)
    return [(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]


def _rescale(x: np.ndarray, size: np.ndarray, radius: float) -> np.ndarray:
    """Rows of x scaled in place from their given size to ``radius``; zero
    rows stay.  Returns x."""
    x *= np.divide(radius, size, out=np.ones_like(size), where=size > 0)[:, None]
    return x


def _v_perturbations(rng: np.random.Generator, n_samples: int, n: int):
    """Chunks (rows of v1-deltas, their v2 constants) of the v-samples: the
    n_samples x n deltas next in rng's stream, drawn a chunk at a time, and
    the constants after them, read from a copy of the bit generator advanced
    past the deltas (one 64-bit draw per uniform double)."""
    ahead = copy.deepcopy(rng.bit_generator).advance(n_samples * n)
    consts = np.random.Generator(ahead).uniform(-1.0, 1.0, size=n_samples)
    for a, b in _chunks(n_samples, n):
        yield rng.uniform(-1.0, 1.0, size=(b - a, n)), consts[a:b]


def _z_sensitivities(d: DualState1D, m: BarModel, cfg: DualConfig) -> tuple:
    """Elementwise dz/dv1 and dz/dv2 of the inner z-minimizer at d, by the
    implicit function theorem on grad(z, v1, v2) = 0: -(v1/den^2)/curv and
    (v1^2/den^3 + 1/EA)/curv = (1/K - curv)/curv."""
    den, _, curv = _z_derivatives(d, m, cfg)
    return -(d.v1 / den**2) / curv, (1.0 / cfg.K - curv) / curv


@dataclass
class SaddleResult:
    n_samples: int
    passed_z: int
    passed_v: int
    r1: float
    r2: float
    boundary_hits: int = 0
    radius_shrinks: int = 0


def saddle_verify(
    m: BarModel,
    d_hat: DualState1D,
    cfg: DualConfig,
    r1: float,
    r2: float,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    constraint_tol: float = 1e-9,
) -> SaddleResult:
    """Sample the saddle structure of J* around the constructed dual point.

    (a) random z in the r1-ball must not drop J* below the center value;
    (b) random constraint-preserving v-perturbations in the r2-ball must keep
    the inner z-ball minimum at or below the center value.

    Perturbations are uniform per element, rescaled to the requested sup norm,
    and drawn in sample order (z, then v, then the constants of the v2 shifts),
    so results are deterministic per seed and independent of the chunking.
    """
    if norm_V(equilibrium_residual(d_hat, m)[1:-1]) > constraint_tol:
        raise ValueError("dual state violates the weak equilibrium constraint")
    rng = np.random.default_rng(seed)
    n = m.grid.n_elem
    J_center = dual_functional(d_hat, m, cfg)
    margin = d_hat.positivity_margin(cfg)

    shrinks = 0
    # shrink radii until the sampled balls stay inside the positivity domain
    while r1 + 2.0 * r2 >= margin and shrinks < 60:
        r1, r2 = 0.5 * r1, 0.5 * r2
        shrinks += 1
    if r1 + 2.0 * r2 >= margin:
        raise PositivityViolated(
            "cannot fit sampling balls inside the positivity domain", margin=margin
        )

    passed_z = 0
    for a, b in _chunks(n_samples, n):
        delta = rng.uniform(-1.0, 1.0, size=(b - a, n))
        delta = _rescale(delta, np.max(np.abs(delta), axis=-1), r1)
        delta += d_hat.z
        J = dual_functional(DualState1D(d_hat.v1, d_hat.v2, delta), m, cfg)
        passed_z += int(np.count_nonzero(J >= J_center - tol))

    dz_dv1, dz_dv2 = _z_sensitivities(d_hat, m, cfg)
    passed_v = boundary_hits = 0
    for d1, c in _v_perturbations(rng, n_samples, n):
        d2 = c[:, None] - d1  # constant sum: weak divergence is unchanged
        mx = np.maximum(np.max(np.abs(d1), axis=-1), np.max(np.abs(d2), axis=-1))
        d1, d2 = _rescale(d1, mx, r2), _rescale(d2, mx, r2)
        z = dz_dv1 * d1
        z += dz_dv2 * d2
        z += d_hat.z
        d1 += d_hat.v1
        d2 += d_hat.v2
        minimized, at_boundary = minimize_in_z_ball(
            DualState1D(d1, d2, z), m, cfg, d_hat.z, r1
        )
        boundary_hits += int(np.count_nonzero(at_boundary))
        J = dual_functional(minimized, m, cfg)
        passed_v += int(np.count_nonzero(J <= J_center + tol))

    return SaddleResult(n_samples, passed_z, passed_v, r1, r2, boundary_hits, shrinks)


def _stationarity(d: DualState1D, u: np.ndarray, m: BarModel, cfg: DualConfig):
    """Residuals (r_z, r_v1, r_v2, r_u at interior nodes) of the Lagrangian's
    stationarity equations, and den and the z-curvature of _z_derivatives."""
    den, r_z, curv = _z_derivatives(d, m, cfg)
    w = derivative(u, m.grid)
    r_v1 = -d.v1 / den + w
    r_v2 = 0.5 * d.v1**2 / den**2 - (d.v2 + d.z) / m.EA + w
    r_u = equilibrium_residual(d, m)[1:-1]
    return (r_z, r_v1, r_v2, r_u), den, curv


def stationarity_residuals(
    d: DualState1D, u: np.ndarray, m: BarModel, cfg: DualConfig
) -> dict[str, float]:
    """Max norms of the four stationarity equations of the Lagrangian."""
    parts, _, _ = _stationarity(d, u, m, cfg)
    return {k: norm_V(r) for k, r in zip(("z", "v1", "v2", "u"), parts)}


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
        x = x - (sol[:, :, 0] + (np.diff(du) / h)[:, None] * sol[:, :, 1]).T
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
    min_eig: float = 0.0
    residual_norm: float = 0.0
    constraint_residual_norm: float = 0.0
    saddle_samples_passed: tuple[int, int] = (0, 0)
    saddle_samples_total: int = 0
    saddle_boundary_hits: int = 0
    kkt_converged: bool = False
    kkt_iters: int = 0
    local_min_passed: int = 0
    local_min_total: int = 0
    newton_iters: int = 0
    r: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    seed: int = 0
    passed: bool = False
    errors: list[str] = field(default_factory=list)

    def to_json(self, config_echo: dict | None = None) -> str:
        doc = {
            "version": SCHEMA_VERSION,
            "config_echo": config_echo or {},
            "primal": {
                "J": self.J_primal,
                "residual_norm": self.residual_norm,
                "min_eig": self.min_eig,
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
                "r": self.r,
                "r1": self.r1,
                "r2": self.r2,
                "samples": self.saddle_samples_total,
                "passed_z": self.saddle_samples_passed[0],
                "passed_v": self.saddle_samples_passed[1],
                "boundary_hits": self.saddle_boundary_hits,
            },
            "kkt": {"converged": self.kkt_converged, "iters": self.kkt_iters},
            "local_min": {
                "passed": self.local_min_passed,
                "total": self.local_min_total,
            },
            "seed": self.seed,
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


def certify(m: BarModel, seed: int = 0) -> GapReport:
    """Full Theorem-1-style certification pipeline for one bar model.

    Solver or hypothesis failures are recorded in the report instead of
    raising, so sweeps can continue past bad cases.
    """
    report = GapReport(seed=seed)
    cfg = DualConfig(K=m.EA / 2.0)
    iters: list[int] = []
    try:
        u0 = primal1d.solve_newton(m, iteration_log=iters)
    except NonConvergence as exc:
        report.errors.append(f"newton: {exc}")
        return report
    report.newton_iters = sum(iters)

    report.residual_norm = norm_V(primal1d.residual(m, u0)[1:-1])
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
    report.min_positivity_margin = d_hat.positivity_margin(cfg)
    report.min_hessian_z = float(np.min(dstar_hessian_z(d_hat, m, cfg)))
    report.constraint_residual_norm = norm_V(
        equilibrium_residual(d_hat, m)[1:-1]
    )
    report.min_eig = primal1d.second_variation_min_eig(m, u0)

    r1 = r2 = min(1e-2, 0.5 * report.min_positivity_margin)
    report.r = r1 / cfg.K

    try:
        saddle = saddle_verify(m, d_hat, cfg, r1, r2, seed=seed)
        report.r1, report.r2 = saddle.r1, saddle.r2
        report.saddle_samples_passed = (saddle.passed_z, saddle.passed_v)
        report.saddle_samples_total = saddle.n_samples
        report.saddle_boundary_hits = saddle.boundary_hits
    except (PositivityViolated, NonConvergence, ValueError) as exc:
        report.errors.append(f"saddle: {exc}")

    try:
        report.kkt_iters = kkt_solve(m, cfg, (d_hat, u0.u), tol=1e-11)[2]
        report.kkt_converged = True
    except (NonConvergence, SingularKKTMatrix) as exc:
        report.errors.append(f"kkt: {exc}")

    rng = np.random.default_rng(seed + 1)
    n = m.grid.n_elem
    for a, b in _chunks(N_LOCAL, n + 1):
        u = np.zeros((b - a, n + 1))  # clamped ends
        u[:, 1:-1] = rng.uniform(-1.0, 1.0, size=(b - a, n - 1))
        u = _rescale(u, norm_U(u, m.grid), 1e-3)
        u += u0.u
        J = primal1d.energy(m, PrimalState(u))
        report.local_min_passed += int(np.count_nonzero(J >= report.J_primal - 1e-12))
    report.local_min_total = N_LOCAL

    # the slope condition and every solver failure were recorded above
    gap_bound = GAP_TOL * (1.0 + abs(report.J_primal))
    margin, hess_z = report.min_positivity_margin, report.min_hessian_z
    (pz, pv), n_saddle = report.saddle_samples_passed, report.saddle_samples_total
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (margin > (7.0 / 32.0) * m.EA - 1e-12,
         f"positivity: min v2 + z + K {margin:.3e} <= 7 EA/32 = {7 * m.EA / 32:.3e}"),
        (hess_z > 5.0 / (7.0 * m.EA) - 1e-12,
         f"hessian: min z-Hessian {hess_z:.3e} <= 5/(7 EA) = {5 / (7 * m.EA):.3e}"),
        (report.min_eig >= -EIG_TOL,
         f"min_eig: second variation {report.min_eig:.3e} < {-EIG_TOL:.3e}"),
        (pz == pv == n_saddle,
         f"saddle: {pz} z and {pv} v of {n_saddle} samples passed"),
        (report.local_min_passed == N_LOCAL,
         f"local_min: {report.local_min_passed} of {N_LOCAL} samples passed"),
    )
    report.errors += [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report
