"""Desk-scale trilinear hexahedral discretization of the 3D solid problem on
a box clamped at the x = 0 face, plus the field-level duality certification.

Dual fields live at the 2x2x2 Gauss points and are never interpolated; the
equilibrium constraint is enforced weakly against the displacement test
space.  This keeps every certification identity quadrature-consistent, so the
discrete duality gap reduces to the inner product of the displacement with
the converged residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor3d
from .errors import NonConvergence, NotPositiveDefinite, SingularSystem
from .tensor3d import I3, LameParams

MAX_ELEMS_PER_AXIS = 8


@dataclass(frozen=True)
class SolidModel:
    """Box geometry, material, and loads; the x = 0 face is clamped."""

    lx: float
    ly: float
    lz: float
    nx: int
    ny: int
    nz: int
    lame: LameParams
    body_force: np.ndarray  # (3,)
    traction: np.ndarray  # (3,), applied on the x = lx face

    def __post_init__(self):
        if min(self.lx, self.ly, self.lz) <= 0:
            raise ValueError("box dimensions must be positive")
        for n in (self.nx, self.ny, self.nz):
            if not 2 <= n <= MAX_ELEMS_PER_AXIS:
                raise ValueError(
                    f"elements per axis must be in [2, {MAX_ELEMS_PER_AXIS}]"
                )
        if np.shape(self.body_force) != (3,) or np.shape(self.traction) != (3,):
            raise ValueError("loads must be 3-vectors")


# local corner signs of the reference hex, node order fixed
_CORNERS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=float,
)
_GP1 = 1.0 / np.sqrt(3.0)


def _shape_values(xi: np.ndarray) -> np.ndarray:
    """Trilinear shape values at reference points (q, 3); (q, 8)."""
    return np.prod(1.0 + _CORNERS * xi[:, None, :], axis=-1) / 8.0


def _shape_grads(xi: np.ndarray) -> np.ndarray:
    """Reference gradients at points (q, 3); (q, 8, 3)."""
    g = np.empty((xi.shape[0], 8, 3))
    for d in range(3):
        terms = 1.0 + _CORNERS * xi[:, None, :]
        terms[..., d] = _CORNERS[:, d]
        g[..., d] = np.prod(terms, axis=-1) / 8.0
    return g


def _grid_points(*axes) -> np.ndarray:
    """Tensor-product points, last axis fastest; (q, 3)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


class BoxMesh:
    """Uniform hex mesh of the box with precomputed quadrature data."""

    def __init__(self, m: SolidModel):
        self.model = m
        nx, ny, nz = m.nx, m.ny, m.nz
        self.hx, self.hy, self.hz = m.lx / nx, m.ly / ny, m.lz / nz
        xs = np.linspace(0, m.lx, nx + 1)
        ys = np.linspace(0, m.ly, ny + 1)
        zs = np.linspace(0, m.lz, nz + 1)
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        self.coords = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        self.n_nodes = self.coords.shape[0]
        self.n_dof = 3 * self.n_nodes

        # elements and nodes are numbered x-major, z fastest; corner c of
        # element (i, j, k) is node (i, j, k) + (_CORNERS[c] + 1) / 2
        i, j, k = np.indices((nx, ny, nz)).reshape(3, -1, 1)
        ci, cj, ck = (_CORNERS > 0).astype(int).T
        self.conn = ((i + ci) * (ny + 1) + j + cj) * (nz + 1) + k + ck
        self.n_elem = self.conn.shape[0]
        # flat (row, col) index of every element tangent entry, from the
        # (n_elem, 24) element DOF map
        dofs = (3 * self.conn[:, :, None] + np.arange(3)).reshape(-1, 24)
        self.tangent_index = (
            dofs[:, :, None] * self.n_dof + dofs[:, None, :]
        ).ravel()

        # 2x2x2 Gauss points; uniform box makes the Jacobian constant diagonal
        gp = (-_GP1, _GP1)
        pts = _grid_points(gp, gp, gp)
        self.N = _shape_values(pts)  # (8q, 8n)
        scale = np.array([2.0 / self.hx, 2.0 / self.hy, 2.0 / self.hz])
        self.dN = _shape_grads(pts) * scale  # (8q, 8n, 3)
        self.detJ = self.hx * self.hy * self.hz / 8.0

        # traction face x = lx: the last ny * nz elements (i = nx - 1), local
        # face xi_1 = +1
        self.face_elems = np.arange((nx - 1) * ny * nz, self.n_elem)
        self.face_N = _shape_values(_grid_points((1.0,), gp, gp))  # (4q, 8n)
        self.face_detJ = self.hy * self.hz / 4.0

        self.clamped_nodes = np.flatnonzero(self.coords[:, 0] == 0.0)
        clamped_dofs = (3 * self.clamped_nodes[:, None] + np.arange(3)).ravel()
        mask = np.ones(self.n_dof, dtype=bool)
        mask[clamped_dofs] = False
        self.free_dofs = np.flatnonzero(mask)
        self.load = _load_vector(m, self)  # (n_nodes, 3), loads of `model`


def zero_displacement(mesh: BoxMesh) -> np.ndarray:
    return np.zeros((mesh.n_nodes, 3))


def displacement_gradients(mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Displacement gradient at all quadrature points; (n_elem, 8, 3, 3)."""
    ue = u[mesh.conn]  # (ne, 8n, 3)
    return np.einsum("enI,qnJ->eqIJ", ue, mesh.dN)


def energy_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> float:
    """Stored energy (2x2x2 Gauss quadrature) minus the work L.u of the
    mesh's load vector."""
    E = tensor3d.green_strain(displacement_gradients(mesh, u))
    elastic = 0.5 * np.sum(tensor3d.hooke_apply(m.lame, E) * E) * mesh.detJ
    return float(elastic - np.sum(mesh.load * u))


def _load_vector(m: SolidModel, mesh: BoxMesh) -> np.ndarray:
    """Consistent nodal loads of the body force and the x = lx traction."""
    L = np.zeros((mesh.n_nodes, 3))
    body_el = mesh.detJ * np.einsum("qn,I->nI", mesh.N, m.body_force)
    np.add.at(L, mesh.conn, body_el)
    surf_el = mesh.face_detJ * np.einsum("qn,I->nI", mesh.face_N, m.traction)
    np.add.at(L, mesh.conn[mesh.face_elems], surf_el)
    return L


def _internal_forces(mesh: BoxMesh, flux: np.ndarray) -> np.ndarray:
    """Assemble the weak divergence of a per-quadrature-point tensor field."""
    Rel = mesh.detJ * np.einsum("eqIJ,qnJ->enI", flux, mesh.dN)
    R = np.zeros((mesh.n_nodes, 3))
    np.add.at(R, mesh.conn, Rel)
    return R


def residual_3d(
    m: SolidModel, mesh: BoxMesh, u: np.ndarray, load_factor: float = 1.0
) -> np.ndarray:
    """Weak-form residual under load_factor times the mesh's load vector;
    clamped rows zeroed.  Returns (n_nodes, 3)."""
    g = displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    piola = np.einsum("eqIm,eqmJ->eqIJ", np.broadcast_to(I3, g.shape) + g, sigma)
    R = _internal_forces(mesh, piola) - load_factor * mesh.load
    R[mesh.clamped_nodes] = 0.0
    return R


def hessian_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Dense tangent stiffness (material + geometric), no boundary treatment."""
    ne, n_dof, dN = mesh.n_elem, mesh.n_dof, mesh.dN
    g = displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    F = np.broadcast_to(I3, g.shape) + g
    # Mandel rows of sym(F^T (e_i x dN_n)) give B, element DOF (n, i) first
    # and the quadrature point last: (ne, 24, 8q, 6)
    T1 = np.einsum("eqIa,qnb->enIqab", F, dN)
    B = tensor3d.sym_to_mandel(tensor3d.sym(T1)).reshape(ne, 24, 8, 6)
    BH = (B @ tensor3d.hooke(m.lame).mandel).reshape(ne, 24, 48)
    Ke = mesh.detJ * (BH @ B.reshape(ne, 24, 48).transpose(0, 2, 1))
    G = mesh.detJ * (dN @ sigma @ dN.swapaxes(1, 2)).sum(axis=1)  # (ne, 8n, 8n)
    Ke += np.kron(G, I3)
    # bincount sums each entry in element order, a fixed order, so the
    # tangent is the same from run to run
    Kg = np.bincount(mesh.tangent_index, Ke.ravel(), n_dof * n_dof)
    return Kg.reshape(n_dof, n_dof)


def solve_newton_3d(
    m: SolidModel,
    steps: int = 3,
    tol: float = 1e-11,
    max_iter: int = 30,
) -> tuple[BoxMesh, np.ndarray]:
    """Continuation Newton solve for the 3D critical point."""
    mesh = BoxMesh(m)
    u = zero_displacement(mesh)
    free = mesh.free_dofs
    for k in range(1, steps + 1):
        for it in range(max_iter + 1):
            R = residual_3d(m, mesh, u, k / steps).ravel()
            if np.max(np.abs(R[free])) <= tol:
                break
            if it == max_iter:
                raise NonConvergence(
                    f"3D Newton stage {k}/{steps}: residual "
                    f"{np.max(np.abs(R[free])):.3e} after {max_iter} iterations"
                )
            Kg = hessian_3d(m, mesh, u)
            try:
                du = np.linalg.solve(Kg[np.ix_(free, free)], -R[free])
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(str(exc)) from exc
            u = u.copy()
            u.reshape(-1)[free] += du
    return mesh, u


def gradient_sup_norm(mesh: BoxMesh, u: np.ndarray) -> float:
    """Max over quadrature points of the largest |u_{i,j}| entry."""
    return float(np.max(np.abs(displacement_gradients(mesh, u))))


@dataclass
class Gap3DReport:
    """Certification record of the 3D duality principle on one box problem."""

    J_primal: float = 0.0
    J_dual: float = 0.0
    gap: float = 0.0
    K_used: float = 0.0
    K_max: float = 0.0
    mode: str = "identity"
    k_feasible: bool = False
    condition_max: float = 0.0
    condition_ok: bool = False
    residual_norm: float = 0.0
    constraint_residual_norm: float = 0.0
    min_pd_margin: float = 0.0
    min_hessian_z_eig: float = 0.0
    m_min_eig: float = 0.0
    local_min_passed: int = 0
    local_min_total: int = 0
    z_convex_passed: int = 0
    z_convex_total: int = 0
    seed: int = 0
    passed: bool = False
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, config_echo: dict | None = None) -> str:
        doc = {"version": "1.0", "config_echo": config_echo or {}}
        doc.update(self.to_dict())
        return json.dumps(doc, indent=2, sort_keys=True)


def certify_3d(
    m: SolidModel,
    K: float | None = None,
    seed: int = 0,
    mode: str = "identity",
    gap_tol: float = 1e-8,
    constraint_tol: float = 1e-9,
    residual_tol: float = 1e-11,
    n_local: int = 50,
    n_z_samples: int = 50,
    steps: int = 3,
) -> Gap3DReport:
    """End-to-end 3D certification: solve, construct duals at quadrature
    points, and check the gap, the weak constraints, and all pointwise bounds.

    Failures are recorded in the report rather than raised.
    """
    report = Gap3DReport(seed=seed, mode=mode)
    lame = m.lame
    try:
        mesh, u0 = solve_newton_3d(m, steps=steps, tol=residual_tol)
    except (NonConvergence, SingularSystem) as exc:
        report.errors.append(f"newton: {exc}")
        return report

    R0 = residual_3d(m, mesh, u0).ravel()
    report.residual_norm = float(np.max(np.abs(R0[mesh.free_dofs])))
    report.J_primal = energy_3d(m, mesh, u0)
    report.condition_max = gradient_sup_norm(mesh, u0)
    report.condition_ok = report.condition_max < 0.125
    if not report.condition_ok:
        report.errors.append(
            f"hypothesis: max |u_i,j| = {report.condition_max:.6f} >= 1/8"
        )
        return report

    report.K_max = tensor3d.admissible_k_max(lame, mode)
    if K is None:
        K = report.K_max * (1.0 - 1e-3)
    if not K > 0:
        report.errors.append("K hypotheses infeasible: K must be positive")
        return report
    report.K_used = K
    _, report.m_min_eig = tensor3d.m_tensor_check(lame, K, mode)

    # dual fields at every quadrature point, (n_elem, 8, 3, 3) each
    v1, v2, z = tensor3d.construct_duals_pointwise(
        lame, K, displacement_gradients(mesh, u0)
    )

    report.min_pd_margin = float(np.min(tensor3d.pd_margin(v2 + z, K)))
    report.k_feasible = report.m_min_eig > 0 and report.min_pd_margin >= 0
    if not report.k_feasible:
        report.errors.append(
            "K hypotheses infeasible: "
            f"m_min_eig={report.m_min_eig:.3e}, pd_margin={report.min_pd_margin:.3e}"
        )
        return report

    j_star = np.sum(
        tensor3d.f_star_3d_density(z, K)
        - tensor3d.g_star_k_density(v1, v2, z, lame, K)
    )
    report.J_dual = float(j_star * mesh.detJ)
    report.gap = report.J_primal - report.J_dual
    report.min_hessian_z_eig = float(np.min(tensor3d.min_eig_on_sym(
        tensor3d.dstar_hessian_z_3d(v1, v2, z, lame, K)
    )))

    Rdual = _internal_forces(mesh, v1 + v2) - mesh.load
    Rdual[mesh.clamped_nodes] = 0.0
    report.constraint_residual_norm = float(
        np.max(np.abs(Rdual.ravel()[mesh.free_dofs]))
    )

    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(n_local):
        delta = np.zeros((mesh.n_nodes, 3))
        dv = rng.uniform(-1.0, 1.0, size=mesh.free_dofs.size)
        delta.reshape(-1)[mesh.free_dofs] = dv
        mx = np.max(np.abs(delta))
        if mx > 0:
            delta *= 1e-4 / mx
        if energy_3d(m, mesh, u0 + delta) >= report.J_primal - 1e-12:
            passed += 1
    report.local_min_passed = passed
    report.local_min_total = n_local

    # z-convexity sampling: symmetric perturbations of z at every point,
    # each scaled to sup-norm radius.  One draw per sample keeps the
    # temporaries at the size of z.
    radius = min(1e-3, 0.25 * report.min_pd_margin + 1e-12)
    center = report.J_dual
    z_passed = 0
    for _ in range(n_z_samples):
        dz = tensor3d.sym(rng.uniform(-1.0, 1.0, size=z.shape))
        dz *= radius / np.max(np.abs(dz), axis=(-2, -1), keepdims=True)
        try:
            val = np.sum(
                tensor3d.f_star_3d_density(z + dz, K)
                - tensor3d.g_star_k_density(v1, v2, z + dz, lame, K)
            )
        except NotPositiveDefinite:
            continue
        if val * mesh.detJ >= center - 1e-10:
            z_passed += 1
    report.z_convex_passed = z_passed
    report.z_convex_total = n_z_samples

    # every earlier failure returned with its own message, so the report
    # passes exactly when all of these hold
    gap_bound = gap_tol * (1.0 + abs(report.J_primal))
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (report.constraint_residual_norm <= constraint_tol,
         f"constraint: residual {report.constraint_residual_norm:.3e}"
         f" > {constraint_tol:.3e}"),
        (report.min_hessian_z_eig >= report.m_min_eig - 1e-10,
         f"hessian: min z-Hessian eig {report.min_hessian_z_eig:.3e}"
         f" < M min eig {report.m_min_eig:.3e}"),
        (report.local_min_passed == n_local,
         f"local_min: {report.local_min_passed} of {n_local} samples passed"),
        (report.z_convex_passed == n_z_samples,
         f"z_convex: {report.z_convex_passed} of {n_z_samples} samples passed"),
    )
    report.errors = [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report
