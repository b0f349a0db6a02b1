"""Desk-scale trilinear hexahedral discretization of the 3D solid problem on
a box clamped at the x = 0 face, plus the field-level duality certification.

Dual fields live at the 2x2x2 Gauss points and are never interpolated; the
equilibrium constraint is enforced weakly against the displacement test
space.  This keeps every certification identity quadrature-consistent, so the
discrete duality gap reduces to the inner product of the displacement with
the converged residual.

Gradients and weak divergences are one matmul with the (8, 24) element
gradient matrix.  A line-search Newton minimises the energy from u = 0 at
the full load: a step solves the tangent's free block by banded Cholesky, or
where it is indefinite the tangent of each point's tensile stress.  The band
layout comes from the reference element's DOF offsets, the same in every
element of the structured mesh.  The first iterate is closed-form: at u = 0,
g = sigma = 0, so the residual is -L and every element's tangent is the linear
stiffness K0, formed from one element and scattered into the band.  Each mesh
shape's topology (connectivity, DOF maps, band layout) is built once and
shared read-only by every mesh of that shape; each op forms its compliance
and the per-point terms that J*, bound 1 and bound 3 share once.

``certify_3d`` proves three checks; each bound adds the first-order rounding
of its evaluation, in U = eps/2 of the magnitudes of its terms:

1. z-side, for symmetric dz, |dz_ij| <= r = min(1e-3, min pd_margin/4 +
   1e-12 K), ||dz||_F <= rho = 3r.  Per point let S = v2 + z, A = S + K I, G =
   v1^T v1, l0 = pd_margin + K/2 = lmin(sym A).  On the ball lmin(sym A) >= l0 - rho,
   ||A^-1||_2 <= 1/lmin(sym A), so along symmetric D the density f = z:z/(2K)
   - tr(A^-1 G)/2 - S:Hbar:S/2 has f'' = D:D/K - D:Hbar:D - tr(A^-1 D A^-1 D
   A^-1 G) >= kappa ||D||_F^2 (|tr(X G)| <= ||X||_2 tr G for G >= 0), kappa =
   1/K - max(1/(2 mu), 1/(3 lam + 2 mu)) - q, q = ||v1||_F^2/(l0 - rho)^3.  With
   g = ||sym(z/K + A^-1 G A^-1/2 - Hbar:sym S)||_F (0 to rounding at z = K g0)
   f drops by at most t (g - kappa t/2), t = min(rho, g/kappa) (rho if kappa
   <= 0); ``z_deficit`` is detJ times their sum, ``z_curvature_floor`` min kappa.
   Rounding: l0 carries 20 (||S||_F + K + rho) (3 (|S| + K) per entry, 12 in
   LAPACK's eigenvalues), kappa 2/K + 4 hbar + 13 q + |kappa|, and g 6 g +
   3 ||z||/K + 12 (3|lam'| + 2 mu') ||S|| + 3 ||X G X|| + 4.5 ||X||^2 ||G||
   plus ||X|| ||G|| times the error of the inverse X, at most ||I - A X||_F /
   (l0 - 20 (||S|| + K)), that residual carrying 8 (2 + (||S|| + 2K) ||X||).
   X is the computed inverse that J* and the z-Hessian use; the residual term
   holds for any X.  ``k_feasible`` (min pd_margin >= 0) puts l0 at K/2 less
   rounding, and the bound passes only if low = l0 - rho less l0's rounding is
   > 0 at every point (else q = inf): that proves sym A > 0 on the whole ball,
   centre included, so A is invertible and G*_K is in closed form there.
2. Local minimality, for |delta| <= ``LOCAL_RADIUS`` at the free DOFs.  With
   h = grad delta, F0 = I + g0, e1 = sym(F0^T h), e2 = h^T h/2, lam_k =
   min(lam, 0) and H_k the stiffness of (lam_k, mu) (H_k >= 0, ||H_k|| = 2 mu),
   W(E0 + e1 + e2) - W(E0) = sigma0:(e1 + e2) + e1:H_k:e1/2 + e1:H_k:e2 +
   e2:H_k:e2/2 + (lam - lam_k) tr(e1 + e2)^2/2 exactly at each Gauss point;
   the last three terms are >= -mu ||F0||_2 ||h||^3 >= -c ||h||_F^2/2, c =
   2 mu (1 + g_a) eta, eta = |delta|_inf n_d >= ||h||_F and g_a = max|u0| n_d
   >= ||g0||_F, n_d = sqrt(3 sum_j (max_q sum_n |dN_qnj|)^2).
   So J(u0 + delta) - J(u0) >= R0.delta + delta.M delta/2 >= -R0.M^-1 R0/2,
   M = K_k - c G, K_k the tangent of (lam_k, mu) at sigma0, G the Gram matrix
   of sum detJ ||grad delta||^2.  If the banded Cholesky R^T R of M - s I
   succeeds, M >= s I/2 and R0.M^-1 R0 <= ||R^-T R0||^2: by Higham (Accuracy
   and Stability of Numerical Algorithms, Thms 8.5, 10.3) factor and solve
   are exact for a matrix (3w + 5) U (2w + 1) max|M_ii| from M - s I (w the
   half-bandwidth, |R^T||R|_ij <= max M_ii), and M's assembly from u0, 110
   operations deep (c G's part 35: a sum of 24 products over (q, a), detJ, c,
   the subtraction, the sum over 8 elements and the shift), adds 110 U
   (2w + 1) beta max G_ii, beta = 3 (3|lam_k| + 2 mu) phi^2 + s_a + c from the
   absolute terms phi = sqrt 3 + g_a >= |F0| and s_a = (3|lam| + 2 mu)(g_a +
   g_a^2/2) >= |sigma0|; ``local_min_shift`` s is twice their sum.  Each entry
   of R0 is off by at most e = 60 U (max|L| + 8 detJ phi s_a max_n sum_q
   |grad N_qn|), which moves J by n e |delta|_inf more, so ``energy_deficit``
   = ||R^-T R0||^2/2 + n e ``LOCAL_RADIUS``.
3. Hessian versus M, per point.  Bound 1's ball contains its centre z, and the
   Mandel basis is orthonormal on symmetric D, so the exact z-Hessian H at the
   float data has D:H:D = f'' >= kappa ||D||_F^2 there: lmin(H) >= kappa.  M's
   smallest eigenvalue m = min(dev/K - 1/(2 mu), bulk/K - 1/(3 lam + 2 mu)) is
   off by at most U (2/K + (3 + 3|lam|/c) hbar), c = 3 lam + 2 mu (1/c carries
   (2 + 3|lam|/c)/c), and m + e_m by U (1/K + hbar) more, so a point with kappa
   >= m + e_m, e_m = U (3/K + (4 + 3|lam|/c) hbar), has lmin(H) >= m.  Only the
   points this leaves open (NaN kappa among them) are eigensolved, by LAPACK on
   the Mandel z-Hessian at X, against m less a guessed 1e-10.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import banded, tensor3d
from .errors import NonConvergence, SingularSystem
from .primal1d import BIG, NEWTON_MAX_ITER, U, reported
from .tensor3d import I3, LameParams

MAX_ELEMS_PER_AXIS = 8

#: strict bound on max |u_i,j|, the 3D analogue of ``primal1d.SLOPE_LIMIT``
GRADIENT_LIMIT = 0.125
#: bounds of ``certify_3d``: |gap| <= GAP_TOL (1 + |J|), the caps on the
#: weak constraint, z_deficit and energy_deficit, and the local-minimality ball
GAP_TOL = 1e-8
CONSTRAINT_TOL = 1e-9
SADDLE_TOL = 1e-10
LOCAL_MIN_TOL = 1e-12
LOCAL_RADIUS = 1e-4
#: Newton stops at max |R| <= NEWTON_TOL
NEWTON_TOL = 1e-11
#: elements per block of the tangent kernel: its transient (block, 24, 48)
#: arrays stay at 74 KB on any mesh, below glibc's default 128 KB mmap
#: threshold; whole-mesh ones (295 KB at 32 elements) made glibc map, or grow
#: and trim its heap, on every call, a page fault per 4 KB
TANGENT_BLOCK = 8


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
        hx, hy, hz = (float(L) / n for L, n in
                      ((self.lx, self.nx), (self.ly, self.ny), (self.lz, self.nz)))
        if not (0 < hx * hy * hz / 8.0 < np.inf and 2.0 / min(hx, hy, hz) < np.inf):
            raise ValueError("mesh steps must give finite 2/h and 0 < hx hy hz/8 < inf")


# local corner signs c of the reference hex, node order fixed
_CORNERS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=float,
)
_GP1 = 1.0 / np.sqrt(3.0)


def _grid_points(*axes) -> np.ndarray:
    """Tensor-product points, last axis fastest; (q, 3)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


# model-free: built on the first BoxMesh, not per op; built at import they
# would slow every CLI call, the bar's too (BENCH_box_once.json)
@functools.cache
def _reference_element() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trilinear shape values N_n = t_0 t_1 t_2 / 8, t_k = 1 + c_nk xi_k, and
    gradients dN_n/dxi_d = c_nd (the other two t) / 8 at the 2x2x2 Gauss points,
    (8q, 8n) and (8q, 8n, 3), and N at the 2x2 points of the face xi_1 = +1."""
    gp = (-_GP1, _GP1)
    t, face = (1.0 + _CORNERS * _grid_points(*axes)[:, None, :]
               for axes in ((gp, gp, gp), ((1.0,), gp, gp)))
    dN = _CORNERS * (t[..., [1, 2, 0]] * t[..., [2, 0, 1]]) / 8.0
    return np.prod(t, axis=-1) / 8.0, dN, np.prod(face, axis=-1) / 8.0


# an LRU smaller than the number of shapes a caller cycles through misses on
# every op; 16 holds the 7 of perfbench's box3d_certify
@functools.lru_cache(maxsize=16)
def _topology(nx: int, ny: int, nz: int) -> tuple:
    """(conn, dofs, component_dofs, clamped_nodes, free_dofs, band, band_index,
    face_elems) of the mesh shape, each array read-only: every BoxMesh of the
    shape shares them."""
    # elements and nodes are numbered x-major, z fastest; corner c of
    # element (i, j, k) is node (i, j, k) + (_CORNERS[c] + 1) / 2
    i, j, k = np.indices((nx, ny, nz)).reshape(3, -1, 1)
    ci, cj, ck = (_CORNERS > 0).astype(int).T
    conn = ((i + ci) * (ny + 1) + j + cj) * (nz + 1) + k + ck
    # element DOF map, DOF 3 n + i of each corner node n
    dofs = (3 * conn[:, :, None] + np.arange(3)).reshape(-1, 24)
    # the same DOFs with row (e, I) over the corners n: the row order of the
    # gradient matmul, so gathers and scatters need no transposed copy
    component_dofs = dofs.reshape(-1, 8, 3).transpose(0, 2, 1).reshape(-1, 8)

    # clamped x = 0 nodes first: the free DOFs are a trailing slice; free
    # entry (r, c), r <= c, goes to upper band storage row band + r - c,
    # column c.  Element e's DOFs are dofs[e, 0] + off, off = dofs[0]: c - r
    # = off[b] - off[a] in every element, and band = max(off)
    clamped_nodes = np.arange((ny + 1) * (nz + 1))
    free_dofs = np.arange(3 * clamped_nodes.size, 3 * (nx + 1) * (ny + 1) * (nz + 1))
    off, c, n_free = dofs[0], dofs - free_dofs[0], free_dofs.size
    band = int(off.max())
    upper = (c[:, :, None] >= 0) & (off[:, None] <= off)
    index = (band + off[:, None] - off) * n_free + c[:, None, :]
    # int32 (below 2^31 far past the 8^3 cap: 536544 there) halves what the
    # cache holds, 4.6 KB per element; bincount widens it per call (~3 us at
    # 32 elements)
    band_index = np.where(upper, index, (band + 1) * n_free).ravel().astype(np.int32)

    # traction face x = lx: the last ny * nz elements (i = nx - 1)
    face_elems = np.arange((nx - 1) * ny * nz, conn.shape[0])
    for a in (conn, dofs, component_dofs, clamped_nodes, free_dofs, band_index, face_elems):
        a.flags.writeable = False
    return (conn, dofs, component_dofs, clamped_nodes, free_dofs, band, band_index,
            face_elems)


class BoxMesh:
    """Uniform hex mesh of the box with precomputed quadrature data; its
    topology arrays are ``_topology``'s, shared and read-only."""

    def __init__(self, m: SolidModel):
        nx, ny, nz = m.nx, m.ny, m.nz
        self.hx, self.hy, self.hz = m.lx / nx, m.ly / ny, m.lz / nz
        self.n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
        self.n_dof = 3 * self.n_nodes
        (self.conn, self.dofs, self.component_dofs, self.clamped_nodes, self.free_dofs,
         self.band, self.band_index, self.face_elems) = _topology(nx, ny, nz)
        self.n_elem = self.conn.shape[0]

        # 2x2x2 Gauss points; uniform box makes the Jacobian constant diagonal
        self.N, dN, self.face_N = _reference_element()
        scale = np.array([2.0 / self.hx, 2.0 / self.hy, 2.0 / self.hz])
        dN = self.dN = dN * scale  # (8q, 8n, 3)
        # column 3q + J holds dN[q, :, J]: one matmul of an element's nodal
        # values with it gives the gradients at all its quadrature points
        self.grad_matrix = dN.transpose(1, 0, 2).reshape(8, 24)
        # strain_op[q, a, (n, M)] = Mandel(sym(e_a x dN[q, n])) and
        # geometric_op[(q, a, b), (n, m)] = dN[q, n, a] dN[q, m, b]
        S = tensor3d.sym(np.einsum("ai,qnj->qanij", I3, dN))
        self.strain_op = tensor3d.sym_to_mandel(S).reshape(8, 3, 48)
        self.geometric_op = np.einsum("qna,qmb->qabnm", dN, dN).reshape(72, 64)
        self.detJ = self.hx * self.hy * self.hz / 8.0

        # the traction face's elements integrate on their local face xi_1 = +1
        self.face_detJ = self.hy * self.hz / 4.0

        self.load = _load_vector(m, self)  # (n_nodes, 3), loads of `model`


def displacement_gradients(mesh: BoxMesh, u: np.ndarray) -> np.ndarray:
    """Displacement gradient at all quadrature points, (n_elem, 8, 3, 3), of
    the displacements u, (n_nodes, 3)."""
    ue = u.reshape(-1)[mesh.component_dofs]  # rows (e, I), columns n
    g = ue @ mesh.grad_matrix  # rows (e, I), columns (q, J)
    return np.swapaxes(g.reshape(-1, 3, 8, 3), 1, 2)


def energy_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> float:
    """Stored energy (2x2x2 Gauss) less the load work L.u: the change from 0."""
    return _energy_change(m, mesh, 0.0, 0.0, u)(1.0)


def _load_vector(m: SolidModel, mesh: BoxMesh) -> np.ndarray:
    """Consistent nodal loads of the body force and the x = lx traction."""
    L = np.zeros((mesh.n_nodes, 3))
    body_el = mesh.detJ * np.einsum("qn,I->nI", mesh.N, m.body_force)
    np.add.at(L, mesh.conn, body_el)
    surf_el = mesh.face_detJ * np.einsum("qn,I->nI", mesh.face_N, m.traction)
    np.add.at(L, mesh.conn[mesh.face_elems], surf_el)
    return L


def _weak_residual(mesh: BoxMesh, flux: np.ndarray) -> np.ndarray:
    """Weak divergence of a per-quadrature-point tensor field less the mesh's
    load vector; clamped rows zeroed."""
    fq = np.swapaxes(flux, -3, -2).reshape(-1, 24)  # rows (e, I), columns (q, J)
    # rows (e, I), columns n: each DOF still sums its elements in increasing order
    Rel = mesh.detJ * (fq @ mesh.grad_matrix.T)
    R = np.bincount(mesh.component_dofs.ravel(), Rel.ravel(), mesh.n_dof).reshape(-1, 3)
    R -= mesh.load
    R[mesh.clamped_nodes] = 0.0
    return R


def _element_tangents(m: SolidModel, mesh: BoxMesh, g, sigma, material=None):
    """Element tangents at displacement gradients g, (ne, 8, 3, 3), with sigma
    in the geometric term and ``material`` (else m.lame) in the material one;
    (ne, 24, 24), ne = n_elem, or 1 for the one tangent every element shares."""
    ne, H = g.shape[0], tensor3d.hooke_mandel(material or m.lame)
    Ke = np.empty((ne, 8, 3, 8, 3))
    # B[e, (n, I), (q, M)]: Mandel row M of sym(F^T (e_I x dN_n)) at point q
    for s in range(0, ne, TANGENT_BLOCK):
        B = ((I3 + g[s:s + TANGENT_BLOCK]) @ mesh.strain_op).reshape(-1, 8, 3, 8, 6)
        B = B.transpose(0, 3, 2, 1, 4).reshape(-1, 24, 48)
        BH = (B.reshape(-1, 6) @ H).reshape(B.shape)
        np.matmul(BH, B.transpose(0, 2, 1), out=Ke[s:s + TANGENT_BLOCK].reshape(-1, 24, 24))
    Ke *= mesh.detJ
    G = mesh.detJ * (sigma.reshape(ne, 72) @ mesh.geometric_op).reshape(ne, 8, 8)
    # the geometric term adds to the I == J diagonal (a writeable view)
    np.einsum("enimi->enmi", Ke)[...] += G[..., None]
    return Ke.reshape(ne, 24, 24)


def band_tangent_3d(m: SolidModel, mesh: BoxMesh, g, sigma, material=None, less=0.0):
    """Free block of the tangent less the element matrix ``less`` per element
    in LAPACK upper band storage, (band + 1, n_free), as Cholesky reads it.
    g and sigma of one element, (1, 8, 3, 3), are every element's state."""
    n_free = mesh.free_dofs.size
    Ke = _element_tangents(m, mesh, g, sigma, material)
    Ke -= less
    Ke = np.broadcast_to(Ke, (mesh.n_elem, 24, 24))
    ab = np.bincount(mesh.band_index, Ke.ravel(), (mesh.band + 1) * n_free + 1)
    return ab[:-1].reshape(-1, n_free)


def _newton_step(m: SolidModel, mesh: BoxMesh, g, sigma, rhs: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve of the tangent at (g, sigma), else of the tangent
    with tensile stress Q max(L, 0) Q^T, positive semi-definite term by term and
    shifted as in bound 2 against rounding (lam >> mu); else ``SingularSystem``."""
    try:
        cho = banded.factor(band_tangent_3d(m, mesh, g, sigma))
    except LinAlgError:
        w, Q = np.linalg.eigh(sigma)
        tensile = (Q * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(Q, -1, -2)
        ab = band_tangent_3d(m, mesh, g, tensile)
        ab[-1] += 2.0 * U * (2 * mesh.band + 1) * (3 * mesh.band + 5) * np.max(ab[-1])
        try:
            cho = banded.factor(ab)
        except LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
    return banded.solve(cho, rhs)


def _energy_change(m: SolidModel, mesh: BoxMesh, g, sigma, du: np.ndarray):
    """t -> J(u + t du) - J(u) at u's gradients g and stress sigma: h = grad du
    moves the strain by dE = t sym((I + g)^T h) + t^2 h^T h/2, J by detJ sum(sigma:dE
    + dE:H:dE/2) - t L.du, with no cancellation of two energies near convergence."""
    h = displacement_gradients(mesh, du)
    lin = tensor3d.sym(np.swapaxes(I3 + g, -1, -2) @ h)
    quad, work = 0.5 * np.swapaxes(h, -1, -2) @ h, float(np.sum(mesh.load * du))
    def change(t: float) -> float:
        dE = t * lin + (t * t) * quad
        density = sigma + 0.5 * tensor3d.hooke_apply(m.lame, dE)
        return float(np.sum(density * dE) * mesh.detJ - t * work)
    return change


def _iterate_3d(m: SolidModel, mesh: BoxMesh, u: np.ndarray) -> tuple:
    """u's gradients and stress, formed once for its residual, tangent and
    line search, its free residual R and max |R|."""
    g = displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    R = _weak_residual(mesh, (I3 + g) @ sigma).ravel()[mesh.free_dofs]
    return (g, sigma), R, np.max(np.abs(R))


def solve_newton_3d(
    m: SolidModel,
) -> tuple[BoxMesh, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line-search Newton (Nocedal & Wright, Numerical Optimization, 3.4) from
    u = 0 at the full load: steps by ``_newton_step``, Armijo trials (c1 =
    1e-4, t halved from 1 down to 1e-15) by ``_energy_change``.  Returns
    (mesh, u, g, sigma, R), the converged u, (n_nodes, 3), its gradients,
    stress and free residual; ``NonConvergence`` or ``SingularSystem``."""
    mesh = BoxMesh(m)
    free, u = mesh.free_dofs, np.zeros((mesh.n_nodes, 3))
    # u = 0 in closed form: g = sigma = 0 at every point, so R = -L, and the
    # step's tangent is K0, formed from the first element (elems) for all
    g = sigma = np.zeros((mesh.n_elem, 8, 3, 3))
    R = -mesh.load.ravel()[free]
    res, elems = np.max(np.abs(R)), slice(1)
    for it in range(NEWTON_MAX_ITER + 1):
        if it:
            (g, sigma), R, res = _iterate_3d(m, mesh, u)
            elems = slice(None)
        if res <= NEWTON_TOL:
            return mesh, u, g, sigma, R
        if it == NEWTON_MAX_ITER or not np.isfinite(res):
            raise NonConvergence(f"residual {res:.3e} after {it} iterations")
        du = np.zeros(u.shape)
        du.reshape(-1)[free] = _newton_step(m, mesh, g[elems], sigma[elems], -R)
        change = _energy_change(m, mesh, g, sigma, du)
        slope, t = float(R @ du.reshape(-1)[free]), 1.0
        while not change(t) <= 1e-4 * t * slope:
            t *= 0.5
            if t < 1e-15:
                raise NonConvergence(f"no descent at residual {res:.3e}")
        u = u + t * du
    raise NonConvergence("unreachable")


def _z_side_bounds(v1, z, S, gram, hbar_S, A, X, p: LameParams, cp: LameParams,
                   K: float, margin, r: float):
    """Per-point z-curvature floor kappa and drop of the dual density on the
    r-ball around z, bound 1 of the module docstring, from the per-point terms
    that J* shares: S = v2 + z, gram = v1^T v1, hbar_S = Hbar:sym S (cp the
    compliance of p), A = S + K I and X its computed inverse; margin is
    pd_margin."""
    norm = lambda M: np.sqrt(np.sum(M * M, axis=(-2, -1)))  # noqa: E731
    rho = 3.0 * r
    l0, nS, v1sq = margin + 0.5 * K, norm(S), norm(v1) ** 2
    low = l0 - rho - 20.0 * U * (nS + K + rho)
    hbar = max(0.5 / p.mu, 1.0 / (3.0 * p.lam + 2.0 * p.mu))
    q = tensor3d.over_cube(v1sq, low)  # low^3 leaves the range at extreme Lame scales
    kappa = (1.0 / K - hbar) - q
    kappa -= U * (2.0 / K + 4.0 * hbar + 13.0 * q + np.abs(kappa))
    P = X @ gram @ X
    g = norm(tensor3d.sym(z / K + 0.5 * P - hbar_S))
    g += U * (6.0 * g + 3.0 * norm(z) / K + 3.0 * norm(P)
              + 12.0 * (3.0 * abs(cp.lam) + 2.0 * cp.mu) * nS)
    nX = tensor3d.frobenius_norm(X)  # and so do the squares of X ~ 1/K
    res = norm(I3 - A @ X) + 8.0 * U * (2.0 + (nS + 2.0 * K) * nX)
    g += nX * v1sq * (res / (l0 - 20.0 * U * (nS + K)) + 4.5 * U * nX)
    t = np.minimum(rho, np.divide(g, kappa, out=np.full_like(g, rho), where=kappa > 0))
    return kappa, t * (g - 0.5 * kappa * t)


def _gradient_gram(mesh: BoxMesh) -> np.ndarray:
    """Element matrix of detJ sum_q ||grad v||_F^2, (24, 24): the Gram matrix
    of the rows of grad_matrix, one sum of 24 products over (q, a), times I3."""
    gm = mesh.grad_matrix
    return np.einsum("nm,ij->nimj", mesh.detJ * (gm @ gm.T), I3).reshape(24, 24)


def _local_min_bound(m: SolidModel, mesh: BoxMesh, u0, g0, sigma0, R0):
    """(energy_deficit, local_min_shift) at u0 with gradients g0, stress sigma0
    and free residual R0, bound 2 of the module docstring; energy_deficit is
    inf if the Cholesky fails."""
    p, w = m.lame, mesh.band
    # ||grad v||_F <= |v|_inf nd for a nodal field v, from the column sums of |dN|
    nd = np.sqrt(3.0 * np.sum(np.max(np.abs(mesh.dN).sum(1), 0) ** 2)) * (1.0 + 8.0 * U)
    ga = np.max(np.abs(u0)) * nd
    c = 2.0 * p.mu * (1.0 + ga) * LOCAL_RADIUS * nd * (1.0 + 4.0 * U)
    # G has one element matrix, and a node lies in at most 8 elements
    Ge = _gradient_gram(mesh)
    kept = LameParams(min(p.lam, 0.0), p.mu)
    ab = band_tangent_3d(m, mesh, g0, sigma0, kept, c * Ge)
    phi, sa = np.sqrt(3.0) + ga, (3.0 * abs(p.lam) + 2.0 * p.mu) * (ga + 0.5 * ga**2)
    beta = 3.0 * (3.0 * max(-p.lam, 0.0) + 2.0 * p.mu) * phi**2 + sa + c
    shift = 2.0 * U * (2 * w + 1) * float(
        (3 * w + 5) * np.max(np.abs(ab[w])) + 880.0 * beta * np.max(np.diag(Ge)))
    ab[w] -= shift
    try:
        cho = banded.factor(ab)
    except LinAlgError:
        return np.inf, shift
    y = banded.solve_transposed(cho, R0)
    nq = np.max(np.linalg.norm(mesh.dN, axis=-1).sum(0))
    e = 60.0 * U * (np.max(np.abs(mesh.load)) + 8.0 * mesh.detJ * phi * sa * nq)
    return (0.5 * (y @ y) + LOCAL_RADIUS * y.size * e) * (1 + (y.size + 8) * U), shift


@dataclass
class Gap3DReport:
    """Certification record of the 3D duality principle on one box problem."""

    VERSION = "1.2"

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
    m_min_eig: float = 0.0
    z_curvature_floor: float = 0.0
    z_deficit: float = 0.0
    energy_deficit: float = 0.0
    local_min_shift: float = 0.0
    passed: bool = False
    errors: list[str] = field(default_factory=list)


def certify_3d(
    m: SolidModel, K: float | None = None, mode: str = "identity"
) -> Gap3DReport:
    """End-to-end 3D certification: solve, construct duals at quadrature
    points, and check the gap, the weak constraints, the pointwise bounds,
    and the z-side and local-minimality bounds of the module docstring.

    Failures are recorded in the report rather than raised.
    """
    report = Gap3DReport(mode=mode)
    lame = m.lame
    try:
        mesh, u0, g0, sigma0, R0 = solve_newton_3d(m)
    except (NonConvergence, SingularSystem) as exc:
        report.errors.append(f"newton: {exc}")
        return report

    report.residual_norm = float(np.max(np.abs(R0)))
    report.J_primal = energy_3d(m, mesh, u0)
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
    v1, v2, z = tensor3d.construct_duals_pointwise(K, g0, sigma0)

    S = v2 + z
    margin = tensor3d.pd_margin(S, K)
    report.min_pd_margin = float(np.min(margin))
    report.k_feasible = report.m_min_eig > 0 and report.min_pd_margin >= 0
    if not report.k_feasible:
        report.errors.append(
            "K hypotheses infeasible: "
            f"m_min_eig={report.m_min_eig:.3e}, pd_margin={report.min_pd_margin:.3e}"
        )
        return report

    # J* = F*(z) - G*_K(v1, v2, z) under 2x2x2 Gauss quadrature; J*, bound 1
    # and the open points' z-Hessians share S, A, one A^-1 (sym A > 0: the
    # gate, then bound 1), v1^T v1 and Hbar:sym S, each formed once here
    A, gram = S + K * I3, np.swapaxes(v1, -1, -2) @ v1
    Ainv, cp = np.linalg.inv(A), tensor3d.compliance_params(lame)
    hbar_S = tensor3d.hooke_apply(cp, tensor3d.sym(S))
    J_dual = float(np.sum(
        tensor3d.f_star_3d_density(z, K) - tensor3d.g_star_k_density(S, gram, hbar_S, Ainv)
    )) * mesh.detJ
    report.J_dual, report.gap = reported(J_dual), reported(report.J_primal - J_dual)

    Rdual = _weak_residual(mesh, v1 + v2).ravel()[mesh.free_dofs]
    report.constraint_residual_norm = float(np.max(np.abs(Rdual)))

    # a sum of n positive terms of k roundings each is off by (n + k) U
    r = min(1e-3, 0.25 * report.min_pd_margin + 1e-12 * K)
    kappa, drop = _z_side_bounds(v1, z, S, gram, hbar_S, A, Ainv, lame, cp, K, margin, r)
    report.z_curvature_floor = reported(np.min(kappa), nan=-BIG)
    # bound 3: the z-Hessian is eigensolved only where kappa < m_min_eig + e_m,
    # and only if finite: one that is not has no proven eigenvalue (-inf)
    c = 3.0 * lame.lam + 2.0 * lame.mu
    e_m = U * (3.0 / K + (4.0 + 3.0 * abs(lame.lam) / c) * max(0.5 / lame.mu, 1.0 / c))
    open_points, hess_min = ~(kappa >= report.m_min_eig + e_m), np.inf
    if open_points.any():
        H = tensor3d.dstar_hessian_z_3d(
            v1[open_points], A[open_points], Ainv[open_points], cp, K)
        finite = np.isfinite(H).all()
        hess_min = float(np.min(np.linalg.eigvalsh(H)[..., 0])) if finite else -np.inf
    up = 1.0 + (drop.size + 8) * U
    report.z_deficit = reported(np.sum(drop) * mesh.detJ * up)
    report.energy_deficit, report.local_min_shift = map(
        reported, _local_min_bound(m, mesh, u0, g0, sigma0, R0))

    # every earlier failure returned with its own message, so the report
    # passes exactly when all of these hold
    gap_bound = GAP_TOL * (1.0 + abs(report.J_primal))
    checks = (
        (abs(report.gap) <= gap_bound,
         f"gap: |gap| {abs(report.gap):.3e} > {gap_bound:.3e}"),
        (report.constraint_residual_norm <= CONSTRAINT_TOL,
         f"constraint: residual {report.constraint_residual_norm:.3e}"
         f" > {CONSTRAINT_TOL:.3e}"),
        (hess_min >= report.m_min_eig - 1e-10,
         f"hessian: min z-Hessian eig {hess_min:.3e} < M min eig {report.m_min_eig:.3e}"),
        (report.energy_deficit <= LOCAL_MIN_TOL,
         f"local_min: energy deficit {report.energy_deficit:.3e} > {LOCAL_MIN_TOL:.3e}"),
        (report.z_curvature_floor > 0.0,
         f"z_convex: z-curvature floor {report.z_curvature_floor:.3e} <= 0 at r {r:.3e}"),
        (report.z_deficit <= SADDLE_TOL,
         f"z_convex: z deficit {report.z_deficit:.3e} > {SADDLE_TOL:.3e}"),
    )
    report.errors = [msg for ok, msg in checks if not ok]
    report.passed = not report.errors
    return report
