"""Desk-scale trilinear hexahedral discretization of the 3D solid problem on
a box clamped at the x = 0 face, plus the field-level duality certification.

Dual fields live at the 2x2x2 Gauss points and are never interpolated; the
equilibrium constraint is enforced weakly against the displacement test
space.  This keeps every certification identity quadrature-consistent, so the
discrete duality gap reduces to the inner product of the displacement with
the converged residual.

Gradients and weak divergences are one matrix product with the (8, 24)
gradient matrix of the reference element.  The primal Newton solve starts
from u = 0 at the full load, which converges on the small-strain branch that
the certificate's hypothesis describes; only when that attempt fails does it
restart from u = 0 over three equal load stages.  A Newton step scatters the
element tangents into LAPACK band storage of the free block and solves it by
banded Cholesky, or by banded LU when the tangent is indefinite; it forms no
dense matrix.  The local-minimality and z-convexity samples are evaluated as
stacks, one sample per row, in chunks of at most ``CHUNK_ELEMS`` values per
array, which bounds their memory but not their answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solve_banded

from . import tensor3d
from .errors import NonConvergence, NotPositiveDefinite, SingularSystem
from .tensor3d import I3, LameParams

MAX_ELEMS_PER_AXIS = 8

#: strict bound on max |u_i,j|, the 3D analogue of ``primal1d.SLOPE_LIMIT``
GRADIENT_LIMIT = 0.125
#: bounds of ``certify_3d``: |gap| <= GAP_TOL (1 + |J|); N_* are sample counts
GAP_TOL = 1e-8
CONSTRAINT_TOL = 1e-9
N_LOCAL = 50
N_Z_SAMPLES = 50
#: values per array of stacked samples: a chunk holds CHUNK_ELEMS // row_len rows
CHUNK_ELEMS = 2**14


def _chunks(n_samples: int, row_len: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) sample ranges of max(1, CHUNK_ELEMS // row_len)."""
    step = max(1, CHUNK_ELEMS // row_len)
    return [(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]


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
        nx, ny, nz = m.nx, m.ny, m.nz
        self.hx, self.hy, self.hz = m.lx / nx, m.ly / ny, m.lz / nz
        self.coords = _grid_points(*(
            np.linspace(0, L, n + 1) for L, n in ((m.lx, nx), (m.ly, ny), (m.lz, nz))
        ))
        self.n_nodes = self.coords.shape[0]
        self.n_dof = 3 * self.n_nodes

        # elements and nodes are numbered x-major, z fastest; corner c of
        # element (i, j, k) is node (i, j, k) + (_CORNERS[c] + 1) / 2
        i, j, k = np.indices((nx, ny, nz)).reshape(3, -1, 1)
        ci, cj, ck = (_CORNERS > 0).astype(int).T
        self.conn = ((i + ci) * (ny + 1) + j + cj) * (nz + 1) + k + ck
        self.n_elem = self.conn.shape[0]
        # element DOF map, DOF 3 n + i of each corner node n
        dofs = self.dofs = (3 * self.conn[:, :, None] + np.arange(3)).reshape(-1, 24)

        # clamped x = 0 nodes first: the free DOFs are a trailing slice; free
        # entry (r, c) goes to band storage row band + r - c, column c
        self.clamped_nodes = np.arange((ny + 1) * (nz + 1))
        self.free_dofs = np.arange(3 * self.clamped_nodes.size, self.n_dof)
        r = dofs[:, :, None] - self.free_dofs[0]
        c = dofs[:, None, :] - self.free_dofs[0]
        free, n_free = (r >= 0) & (c >= 0), self.free_dofs.size
        self.band = int(np.max(c - r, where=free, initial=0))
        drop = (2 * self.band + 1) * n_free
        self.band_index = np.where(free, (self.band + r - c) * n_free + c, drop).ravel()

        # 2x2x2 Gauss points; uniform box makes the Jacobian constant diagonal
        gp = (-_GP1, _GP1)
        pts = _grid_points(gp, gp, gp)
        self.N = _shape_values(pts)  # (8q, 8n)
        scale = np.array([2.0 / self.hx, 2.0 / self.hy, 2.0 / self.hz])
        dN = self.dN = _shape_grads(pts) * scale  # (8q, 8n, 3)
        # column 3q + J holds dN[q, :, J]: one matmul of an element's nodal
        # values with it gives the gradients at all its quadrature points
        self.grad_matrix = dN.transpose(1, 0, 2).reshape(8, 24)
        # strain_op[q, a, (n, M)] = Mandel(sym(e_a x dN[q, n])) and
        # geometric_op[(q, a, b), (n, m)] = dN[q, n, a] dN[q, m, b]
        S = tensor3d.sym(np.einsum("ai,qnj->qanij", I3, dN))
        self.strain_op = tensor3d.sym_to_mandel(S).reshape(8, 3, 48)
        self.geometric_op = np.einsum("qna,qmb->qabnm", dN, dN).reshape(72, 64)
        self.detJ = self.hx * self.hy * self.hz / 8.0

        # traction face x = lx: the last ny * nz elements (i = nx - 1), local
        # face xi_1 = +1
        self.face_elems = np.arange((nx - 1) * ny * nz, self.n_elem)
        self.face_N = _shape_values(_grid_points((1.0,), gp, gp))  # (4q, 8n)
        self.face_detJ = self.hy * self.hz / 4.0

        self.load = _load_vector(m, self)  # (n_nodes, 3), loads of `model`


def zero_displacement(mesh: BoxMesh) -> np.ndarray:
    return np.zeros((mesh.n_nodes, 3))


def displacement_gradients(mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Displacement gradient at all quadrature points; (..., n_elem, 8, 3, 3)
    for displacements (..., n_nodes, 3)."""
    ue = np.swapaxes(u[..., mesh.conn, :], -1, -2)  # (..., ne, 3I, 8n)
    g = ue.reshape(-1, 8) @ mesh.grad_matrix  # rows (..., e, I), columns (q, J)
    return np.swapaxes(g.reshape(ue.shape[:-1] + (8, 3)), -3, -2)


def energy_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> float | np.ndarray:
    """Stored energy (2x2x2 Gauss quadrature) minus the work L.u of the
    mesh's load vector; one value per field of a stack (..., n_nodes, 3)."""
    E = tensor3d.green_strain(displacement_gradients(mesh, u))
    HE = tensor3d.hooke_apply(m.lame, E)
    elastic = 0.5 * np.sum(HE * E, axis=(-4, -3, -2, -1)) * mesh.detJ
    return elastic - np.sum(mesh.load * u, axis=(-2, -1))


def _load_vector(m: SolidModel, mesh: BoxMesh) -> np.ndarray:
    """Consistent nodal loads of the body force and the x = lx traction."""
    L = np.zeros((mesh.n_nodes, 3))
    body_el = mesh.detJ * np.einsum("qn,I->nI", mesh.N, m.body_force)
    np.add.at(L, mesh.conn, body_el)
    surf_el = mesh.face_detJ * np.einsum("qn,I->nI", mesh.face_N, m.traction)
    np.add.at(L, mesh.conn[mesh.face_elems], surf_el)
    return L


def _weak_residual(
    mesh: BoxMesh, flux: np.ndarray, load_factor: float = 1.0
) -> np.ndarray:
    """Weak divergence of a per-quadrature-point tensor field less
    load_factor times the mesh's load vector; clamped rows zeroed."""
    fq = np.swapaxes(flux, -3, -2).reshape(-1, 24)  # rows (e, I), columns (q, J)
    Rel = mesh.detJ * np.swapaxes((fq @ mesh.grad_matrix.T).reshape(-1, 3, 8), -1, -2)
    R = np.zeros((mesh.n_nodes, 3))
    np.add.at(R, mesh.conn, Rel)
    R -= load_factor * mesh.load
    R[mesh.clamped_nodes] = 0.0
    return R


def residual_3d(
    m: SolidModel, mesh: BoxMesh, u: np.ndarray, load_factor: float = 1.0
) -> np.ndarray:
    """Weak-form residual under load_factor times the mesh's load vector;
    clamped rows zeroed.  Returns (n_nodes, 3)."""
    g = displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    return _weak_residual(mesh, (I3 + g) @ sigma, load_factor)


def _element_tangents(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Element tangents (material + geometric); (n_elem, 24, 24), DOF 3 n + i."""
    ne = mesh.n_elem
    g = displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    # B[e, (n, I), (q, M)]: Mandel row M of sym(F^T (e_I x dN_n)) at point q
    B = ((I3 + g) @ mesh.strain_op).reshape(ne, 8, 3, 8, 6)
    B = B.transpose(0, 3, 2, 1, 4).reshape(ne, 24, 48)
    BH = (B.reshape(-1, 6) @ tensor3d.hooke_mandel(m.lame)).reshape(ne, 24, 48)
    Ke = mesh.detJ * (BH @ B.transpose(0, 2, 1)).reshape(ne, 8, 3, 8, 3)
    G = mesh.detJ * (sigma.reshape(ne, 72) @ mesh.geometric_op).reshape(ne, 8, 8)
    # the geometric term adds to the I == J diagonal (a writeable view)
    np.einsum("enimi->enmi", Ke)[...] += G[..., None]
    return Ke.reshape(ne, 24, 24)


def hessian_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Dense tangent stiffness (material + geometric), no boundary treatment.
    An oracle for ``band_tangent_3d``; the Newton solve never forms it."""
    # bincount sums each entry in element order, a fixed order, so the
    # tangent is the same from run to run
    index = mesh.dofs[:, :, None] * mesh.n_dof + mesh.dofs[:, None, :]
    Ke = _element_tangents(m, mesh, u).ravel()
    return np.bincount(index.ravel(), Ke, mesh.n_dof**2).reshape(mesh.n_dof, -1)


def band_tangent_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Free block of the tangent in LAPACK band storage, (2 band + 1, n_free)."""
    n_free = mesh.free_dofs.size
    Ke = _element_tangents(m, mesh, u).ravel()
    ab = np.bincount(mesh.band_index, Ke, (2 * mesh.band + 1) * n_free + 1)
    return ab[:-1].reshape(-1, n_free)


def _solve_band(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the symmetric matrix of band storage ab: banded Cholesky
    of its upper rows, or banded LU when the matrix is indefinite."""
    w = ab.shape[0] // 2
    try:
        cho = cholesky_banded(ab[: w + 1], check_finite=False)
        return cho_solve_banded((cho, False), rhs, check_finite=False)
    except LinAlgError:
        try:
            return solve_banded((w, w), ab, rhs, check_finite=False)
        except LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc


def solve_newton_3d(
    m: SolidModel, tol: float = 1e-11, max_iter: int = 30
) -> tuple[BoxMesh, np.ndarray]:
    """Newton solve for the 3D critical point from u = 0: first at the full
    load in one stage, and only if that fails, in three equal load stages.
    Raises the failure of the three-stage run."""
    mesh = BoxMesh(m)
    free = mesh.free_dofs
    for steps in (1, 3):
        u = zero_displacement(mesh)
        try:
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
                    du = _solve_band(band_tangent_3d(m, mesh, u), -R[free])
                    u.reshape(-1)[free] += du
            break
        except (NonConvergence, SingularSystem):
            if steps == 3:
                raise
    return mesh, u


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

    def to_json(self, config_echo: dict | None = None) -> str:
        doc = {"version": "1.0", "config_echo": config_echo or {}}
        doc.update(asdict(self))
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def certify_3d(
    m: SolidModel,
    K: float | None = None,
    seed: int = 0,
    mode: str = "identity",
) -> Gap3DReport:
    """End-to-end 3D certification: solve, construct duals at quadrature
    points, and check the gap, the weak constraints, and all pointwise bounds.

    Failures are recorded in the report rather than raised.
    """
    report = Gap3DReport(seed=seed, mode=mode)
    lame = m.lame
    try:
        mesh, u0 = solve_newton_3d(m)
    except (NonConvergence, SingularSystem) as exc:
        report.errors.append(f"newton: {exc}")
        return report

    R0 = residual_3d(m, mesh, u0).ravel()
    report.residual_norm = float(np.max(np.abs(R0[mesh.free_dofs])))
    report.J_primal = float(energy_3d(m, mesh, u0))
    g0 = displacement_gradients(mesh, u0)
    report.condition_max = float(np.max(np.abs(g0)))
    report.condition_ok = report.condition_max < GRADIENT_LIMIT
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
    report.m_min_eig = min(tensor3d.m_tensor_eigs(lame, K, mode))

    # dual fields at every quadrature point, (n_elem, 8, 3, 3) each
    v1, v2, z = tensor3d.construct_duals_pointwise(lame, K, g0)

    report.min_pd_margin = float(np.min(tensor3d.pd_margin(v2 + z, K)))
    report.k_feasible = report.m_min_eig > 0 and report.min_pd_margin >= 0
    if not report.k_feasible:
        report.errors.append(
            "K hypotheses infeasible: "
            f"m_min_eig={report.m_min_eig:.3e}, pd_margin={report.min_pd_margin:.3e}"
        )
        return report

    gram = np.swapaxes(v1, -1, -2) @ v1  # v1^T v1, the same for every z

    def dual_functional(zz: np.ndarray) -> np.ndarray:
        """J* = F*(z) - G*_K(v1, v2, z) under 2x2x2 Gauss quadrature, one
        value per z of a stack (..., n_elem, 8, 3, 3)."""
        return np.sum(
            tensor3d.f_star_3d_density(zz, K)
            - tensor3d.g_star_k_density(v1, v2, zz, lame, K, gram=gram),
            axis=(-2, -1),
        ) * mesh.detJ

    report.J_dual = float(dual_functional(z))
    report.gap = report.J_primal - report.J_dual
    report.min_hessian_z_eig = float(np.min(np.linalg.eigvalsh(
        tensor3d.dstar_hessian_z_3d(v1, v2, z, lame, K)
    )[..., 0]))

    Rdual = _weak_residual(mesh, v1 + v2)
    report.constraint_residual_norm = float(
        np.max(np.abs(Rdual.ravel()[mesh.free_dofs]))
    )

    # Both sample checks draw one seeded stream in sample order, a chunk of
    # rows at a time, so the samples do not depend on the chunking.  A row's
    # largest array is its stack of gradients, 72 values per element.
    rng = np.random.default_rng(seed)
    free, row_len = mesh.free_dofs, 72 * mesh.n_elem
    for a, b in _chunks(N_LOCAL, row_len):
        delta = np.zeros((b - a, mesh.n_dof))
        delta[:, free] = rng.uniform(-1.0, 1.0, size=(b - a, free.size))
        delta *= 1e-4 / np.max(np.abs(delta), axis=-1, keepdims=True)
        J = energy_3d(m, mesh, u0 + delta.reshape(b - a, mesh.n_nodes, 3))
        report.local_min_passed += int(np.count_nonzero(J >= report.J_primal - 1e-12))
    report.local_min_total = N_LOCAL

    # z-convexity sampling: symmetric perturbations of z at every point,
    # each scaled to sup-norm radius
    radius = min(1e-3, 0.25 * report.min_pd_margin + 1e-12)
    for a, b in _chunks(N_Z_SAMPLES, row_len):
        dz = tensor3d.sym(rng.uniform(-1.0, 1.0, size=(b - a,) + z.shape))
        dz *= radius / np.max(np.abs(dz), axis=(-2, -1), keepdims=True)
        zz = z + dz
        try:
            J = dual_functional(zz)
        except NotPositiveDefinite:
            # a sample with an indefinite point fails; the other rows go on
            pd = np.all(tensor3d.pd_mask(v2 + zz + K * I3), axis=(-2, -1))
            J = dual_functional(zz[pd])
        report.z_convex_passed += int(np.count_nonzero(J >= report.J_dual - 1e-10))
    report.z_convex_total = N_Z_SAMPLES

    # every earlier failure returned with its own message, so the report
    # passes exactly when all of these hold
    gap_bound = GAP_TOL * (1.0 + abs(report.J_primal))
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (report.constraint_residual_norm <= CONSTRAINT_TOL,
         f"constraint: residual {report.constraint_residual_norm:.3e}"
         f" > {CONSTRAINT_TOL:.3e}"),
        (report.min_hessian_z_eig >= report.m_min_eig - 1e-10,
         f"hessian: min z-Hessian eig {report.min_hessian_z_eig:.3e}"
         f" < M min eig {report.m_min_eig:.3e}"),
        (report.local_min_passed == N_LOCAL,
         f"local_min: {report.local_min_passed} of {N_LOCAL} samples passed"),
        (report.z_convex_passed == N_Z_SAMPLES,
         f"z_convex: {report.z_convex_passed} of {N_Z_SAMPLES} samples passed"),
    )
    report.errors = [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report
