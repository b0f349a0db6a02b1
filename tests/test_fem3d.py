"""Unit tests for the 3D hexahedral discretization and certification."""

import numpy as np
import pytest

from elastodual import fem3d, tensor3d
from elastodual.fem3d import BoxMesh, SolidModel
from elastodual.tensor3d import I3, LameParams

P11 = LameParams(1.0, 1.0)


def _model(nx=2, ny=2, nz=2, traction=(0.02, 0.0, 0.0), body=(0.0, 0.0, 0.0)):
    return SolidModel(
        lx=1.0, ly=1.0, lz=1.0, nx=nx, ny=ny, nz=nz, lame=P11,
        body_force=np.array(body, dtype=float),
        traction=np.array(traction, dtype=float),
    )


def _random_clamped_state(mesh, rng, scale=0.02):
    u = np.zeros((mesh.n_nodes, 3))
    u.reshape(-1)[mesh.free_dofs] = scale * rng.uniform(
        -1.0, 1.0, mesh.free_dofs.size
    )
    return u


def _gauss_points_1d(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def energy_oracle_refined(m, mesh, u, order=4):
    """Independent energy evaluation with its own trilinear interpolation
    and a refined (order^3) Gauss rule per element."""
    xg, wg = _gauss_points_1d(order)
    corners = np.array(
        [
            [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
        ],
        dtype=float,
    )

    def shape_vals(xi):
        return np.prod(1.0 + corners * xi, axis=1) / 8.0

    def shape_grads(xi):
        g = np.empty((8, 3))
        for d in range(3):
            t = 1.0 + corners * xi
            t[:, d] = corners[:, d]
            g[:, d] = np.prod(t, axis=1) / 8.0
        return g

    scale = np.array([2.0 / mesh.hx, 2.0 / mesh.hy, 2.0 / mesh.hz])
    detJ = mesh.hx * mesh.hy * mesh.hz / 8.0
    total = 0.0
    for e in range(mesh.n_elem):
        ue = u[mesh.conn[e]]
        for a in range(order):
            for b in range(order):
                for c in range(order):
                    xi = np.array([xg[a], xg[b], xg[c]])
                    w = wg[a] * wg[b] * wg[c]
                    dN = shape_grads(xi) * scale
                    g = ue.T @ dN
                    E = tensor3d.green_strain(g)
                    sig = tensor3d.hooke_apply(m.lame, E)
                    dens = 0.5 * float(np.sum(sig * E))
                    uq = shape_vals(xi) @ ue
                    dens -= float(uq @ m.body_force)
                    total += w * dens * detJ
    # surface work on x = lx with its own 2D Gauss rule
    for e in mesh.face_elems:
        ue = u[mesh.conn[e]]
        for b in range(order):
            for c in range(order):
                xi = np.array([1.0, xg[b], xg[c]])
                w = wg[b] * wg[c]
                uq = shape_vals(xi) @ ue
                total -= w * float(uq @ m.traction) * mesh.hy * mesh.hz / 4.0
    return total


def loop_connectivity(nx, ny, nz):
    """Element connectivity and x = lx face elements built element by element."""

    def nid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    conn = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                conn.append(
                    [
                        nid(i, j, k), nid(i + 1, j, k),
                        nid(i + 1, j + 1, k), nid(i, j + 1, k),
                        nid(i, j, k + 1), nid(i + 1, j, k + 1),
                        nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1),
                    ]
                )
    face = [
        (i * ny + j) * nz + k
        for i in [nx - 1] for j in range(ny) for k in range(nz)
    ]
    return np.array(conn), np.array(face)


def hessian_oracle(m, mesh, u):
    """Dense tangent from one 6-index einsum and a per-element scatter,
    written independently of the batched contraction and the DOF map."""
    g = fem3d.displacement_gradients(mesh, u)
    sigma = tensor3d.stress(m.lame, g)
    T1 = np.einsum("eqIa,qnb->eqnIab", I3 + g, mesh.dN)
    B = tensor3d.sym_to_mandel(tensor3d.sym(T1))
    Hm = tensor3d.hooke(m.lame).mandel
    Kmat = mesh.detJ * np.einsum("eqniA,AB,eqmjB->enimj", B, Hm, B)
    G = mesh.detJ * np.einsum("qna,eqab,qmb->enm", mesh.dN, sigma, mesh.dN)
    Kgeo = np.einsum("enm,ij->enimj", G, I3)
    Ke = (Kmat + Kgeo).reshape(mesh.n_elem, 24, 24)
    Kg = np.zeros((mesh.n_dof, mesh.n_dof))
    for e in range(mesh.n_elem):
        idx = (3 * mesh.conn[e][:, None] + np.arange(3)).ravel()
        Kg[np.ix_(idx, idx)] += Ke[e]
    return Kg


class TestSolidModel:
    def test_invalid_mesh_sizes(self):
        with pytest.raises(ValueError):
            _model(nx=1)
        with pytest.raises(ValueError):
            _model(nx=9)

    def test_invalid_loads(self):
        with pytest.raises(ValueError):
            SolidModel(
                1, 1, 1, 2, 2, 2, P11,
                body_force=np.zeros(2), traction=np.zeros(3),
            )


class TestBoxMesh:
    def test_counts_and_clamping(self):
        mesh = BoxMesh(_model(nx=3, ny=2, nz=2))
        assert mesh.n_nodes == 4 * 3 * 3
        assert mesh.n_elem == 12
        assert np.all(mesh.coords[mesh.clamped_nodes, 0] == 0.0)
        assert mesh.clamped_nodes.size == 9
        assert mesh.free_dofs.size == mesh.n_dof - 27

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (8, 2, 2), (2, 5, 3)])
    def test_connectivity_matches_element_loop(self, dims):
        mesh = BoxMesh(_model(*dims))
        conn, face = loop_connectivity(*dims)
        for got, want in ((mesh.conn, conn), (mesh.face_elems, face)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # corners 1, 2, 5, 6 span the local xi_1 = +1 face
        face_nodes = np.unique(mesh.conn[face][:, [1, 2, 5, 6]])
        assert np.all(mesh.coords[face_nodes, 0] == 1.0)

    def test_shape_function_partition_of_unity(self):
        mesh = BoxMesh(_model())
        assert np.allclose(mesh.N.sum(axis=1), 1.0)
        assert np.allclose(mesh.dN.sum(axis=1), 0.0, atol=1e-14)

    def test_gradient_of_linear_field_is_exact(self):
        mesh = BoxMesh(_model(nx=3, ny=2, nz=4))
        G = np.array([[0.1, 0.02, -0.03], [0.0, 0.05, 0.01], [0.04, 0.0, -0.02]])
        u = mesh.coords @ G.T
        grads = fem3d.displacement_gradients(mesh, u)
        assert np.max(np.abs(grads - G)) <= 1e-13


class TestEnergy3D:
    def test_zero(self):
        m = _model()
        mesh = BoxMesh(m)
        assert fem3d.energy_3d(m, mesh, fem3d.zero_displacement(mesh)) == 0.0

    def test_patch_constant_strain(self):
        # linear displacement field: constant stress at every quadrature
        # point, energy integrated exactly
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        G = np.array([[0.05, 0.01, 0.0], [0.02, -0.03, 0.01], [0.0, 0.02, 0.04]])
        u = mesh.coords @ G.T
        E = tensor3d.green_strain(G)
        sig = tensor3d.hooke_apply(m.lame, E)
        exact = 0.5 * float(np.sum(sig * E))  # unit volume
        val = fem3d.energy_3d(m, mesh, u)
        assert val == pytest.approx(exact, rel=1e-13)
        sigma_q = tensor3d.stress(m.lame, fem3d.displacement_gradients(mesh, u))
        assert np.max(np.abs(sigma_q - sig)) <= 1e-12

    def test_refined_quadrature_oracle(self):
        m = _model(body=(0.01, -0.02, 0.005))
        mesh = BoxMesh(m)
        x = mesh.coords
        u = 0.05 * np.stack(
            [x[:, 0] ** 2, x[:, 0] * x[:, 1], x[:, 0] * x[:, 2]], axis=1
        )
        u[mesh.clamped_nodes] = 0.0
        # same trilinear interpolant, independent integration: the package's
        # 2x2x2 Gauss rule is exact only up to the quartic terms of the
        # strain energy, so compare against the refined rule on the nodal
        # interpolant and require near-agreement
        val = fem3d.energy_3d(m, mesh, u)
        oracle = energy_oracle_refined(m, mesh, u, order=4)
        assert abs(val - oracle) <= 1e-4 * (1.0 + abs(oracle))

    def test_refined_quadrature_oracle_small_strain(self):
        m = _model()
        mesh, u0 = fem3d.solve_newton_3d(m)
        val = fem3d.energy_3d(m, mesh, u0)
        oracle = energy_oracle_refined(m, mesh, u0, order=4)
        assert abs(val - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_quadratic_scaling_limit(self):
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        rng = np.random.default_rng(0)
        u = _random_clamped_state(mesh, rng, scale=1.0)
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            vals.append(fem3d.energy_3d(m, mesh, eps * u) / eps**2)
        # Richardson: quadratic part dominates, ratios approach 1
        assert abs(vals[1] / vals[0] - 1.0) < 1e-2
        assert abs(vals[2] / vals[1] - 1.0) < 1e-3


class TestResidual3D:
    def test_zero_state_no_load(self):
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        R = fem3d.residual_3d(m, mesh, fem3d.zero_displacement(mesh))
        assert np.max(np.abs(R)) == 0.0

    def test_zero_state_equals_negative_load(self):
        m = _model(body=(0.3, -0.1, 0.2), traction=(0.0, 0.1, 0.0))
        mesh = BoxMesh(m)
        R = fem3d.residual_3d(m, mesh, fem3d.zero_displacement(mesh))
        L = fem3d._load_vector(m, mesh)
        L[mesh.clamped_nodes] = 0.0
        assert np.allclose(R, -L, atol=1e-14)

    def test_load_factor_scales_the_loads(self):
        m = _model(body=(0.3, -0.1, 0.2), traction=(0.0, 0.1, 0.05))
        half = _model(body=(0.15, -0.05, 0.1), traction=(0.0, 0.05, 0.025))
        mesh = BoxMesh(m)
        u = _random_clamped_state(mesh, np.random.default_rng(5))
        R = fem3d.residual_3d(m, mesh, u, 0.5)
        assert np.max(np.abs(R - fem3d.residual_3d(half, BoxMesh(half), u))) <= 1e-15

    def test_finite_difference_consistency(self):
        m = _model(body=(0.05, 0.0, -0.02))
        mesh = BoxMesh(m)
        rng = np.random.default_rng(1)
        eps = 1e-5
        for _ in range(5):
            u = _random_clamped_state(mesh, rng)
            phi = _random_clamped_state(mesh, rng, scale=1.0)
            dj = float(np.sum(fem3d.residual_3d(m, mesh, u) * phi))
            fd = (
                fem3d.energy_3d(m, mesh, u + eps * phi)
                - fem3d.energy_3d(m, mesh, u - eps * phi)
            ) / (2.0 * eps)
            assert abs(dj - fd) <= 1e-6 * (1.0 + abs(dj))


class TestHessian3D:
    def test_symmetry(self):
        m = _model()
        mesh = BoxMesh(m)
        rng = np.random.default_rng(2)
        u = _random_clamped_state(mesh, rng)
        Kg = fem3d.hessian_3d(m, mesh, u)
        assert np.max(np.abs(Kg - Kg.T)) <= 1e-12

    def test_zero_state_is_linear_stiffness(self):
        # at u = 0 the geometric term vanishes and the tangent equals the
        # second derivative of the quadratic part of the energy
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        u0 = fem3d.zero_displacement(mesh)
        Kg = fem3d.hessian_3d(m, mesh, u0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            phi = _random_clamped_state(mesh, rng, scale=1.0).ravel()
            quad = float(phi @ Kg @ phi)
            eps = 1e-4
            fd = (
                fem3d.energy_3d(m, mesh, (eps * phi).reshape(-1, 3))
                + fem3d.energy_3d(m, mesh, (-eps * phi).reshape(-1, 3))
            ) / eps**2
            assert abs(quad - fd) <= 1e-4 * (1.0 + abs(quad))

    @pytest.mark.parametrize(
        "dims, box", [((3, 2, 4), (1.3, 0.7, 2.1)), ((8, 2, 2), (2.0, 0.5, 0.8))]
    )
    def test_matches_loop_oracle(self, dims, box):
        m = SolidModel(
            *box, *dims, lame=LameParams(1.7, 0.6),
            body_force=np.zeros(3), traction=np.zeros(3),
        )
        mesh = BoxMesh(m)
        rng = np.random.default_rng(6)
        for _ in range(3):
            u = _random_clamped_state(mesh, rng, scale=0.05)
            Kg = fem3d.hessian_3d(m, mesh, u)
            oracle = hessian_oracle(m, mesh, u)
            assert Kg.shape == (mesh.n_dof, mesh.n_dof)
            assert np.max(np.abs(Kg - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_finite_difference_of_residual(self):
        m = _model()
        mesh = BoxMesh(m)
        rng = np.random.default_rng(4)
        eps = 1e-5
        for _ in range(3):
            u = _random_clamped_state(mesh, rng)
            psi = _random_clamped_state(mesh, rng, scale=1.0)
            Kg = fem3d.hessian_3d(m, mesh, u)
            hv = (Kg @ psi.ravel())[mesh.free_dofs]
            fd = (
                fem3d.residual_3d(m, mesh, u + eps * psi)
                - fem3d.residual_3d(m, mesh, u - eps * psi)
            ).ravel()[mesh.free_dofs] / (2.0 * eps)
            assert np.max(np.abs(hv - fd)) <= 1e-6 * (1.0 + np.max(np.abs(hv)))


class TestSolveNewton3D:
    def test_zero_loads(self):
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh, u = fem3d.solve_newton_3d(m)
        assert np.max(np.abs(u)) == 0.0

    def test_small_traction_converges(self):
        m = _model()
        mesh, u = fem3d.solve_newton_3d(m, tol=1e-11)
        R = fem3d.residual_3d(m, mesh, u).ravel()
        assert np.max(np.abs(R[mesh.free_dofs])) <= 1e-11
        assert fem3d.gradient_sup_norm(mesh, u) < 0.125

    def test_bb_descent_oracle(self):
        m = _model(traction=(0.01, 0.0, 0.0))
        mesh, u_newton = fem3d.solve_newton_3d(m, tol=1e-11)
        u = fem3d.zero_displacement(mesh)
        r_prev = s_prev = None
        for _ in range(20000):
            r = fem3d.residual_3d(m, mesh, u).ravel()[mesh.free_dofs]
            if np.max(np.abs(r)) < 1e-10:
                break
            if r_prev is None:
                step = 1e-1
            else:
                dg = r - r_prev
                denom = float(np.dot(dg, dg))
                step = abs(float(np.dot(s_prev, dg))) / denom if denom > 0 else 0.1
            s_prev = -step * r
            r_prev = r
            u = u.copy()
            u.reshape(-1)[mesh.free_dofs] += s_prev
        else:
            raise AssertionError("BB descent oracle did not converge")
        assert np.max(np.abs(u - u_newton)) <= 1e-6


class TestCertify3D:
    def test_zero_loads(self):
        m = _model(traction=(0.0, 0.0, 0.0))
        report = fem3d.certify_3d(m)
        assert report.passed
        assert report.gap == 0.0

    def test_canonical_case(self):
        m = _model(nx=4, ny=4, nz=4)
        report = fem3d.certify_3d(m)
        assert report.passed
        assert abs(report.gap) <= 1e-8 * (1.0 + abs(report.J_primal))
        assert report.constraint_residual_norm <= 1e-9
        assert report.condition_max < 0.125

    def test_weak_constraint_equals_primal_residual(self):
        m = _model()
        mesh, u0 = fem3d.solve_newton_3d(m)
        K = 1.0
        g_all = fem3d.displacement_gradients(mesh, u0)
        flat = g_all.reshape(-1, 3, 3)
        duals = [
            tensor3d.construct_duals_pointwise(m.lame, K, gq) for gq in flat
        ]
        flux = np.array([v1 + v2 for (v1, v2, _) in duals]).reshape(g_all.shape)
        Rd = fem3d._internal_forces(mesh, flux) - fem3d._load_vector(m, mesh)
        Rd[mesh.clamped_nodes] = 0.0
        Rp = fem3d.residual_3d(m, mesh, u0)
        assert np.max(np.abs(Rd - Rp)) <= 1e-13

    def test_infeasible_k_path(self):
        m = _model()
        report = fem3d.certify_3d(m, K=100.0)
        assert not report.passed
        assert not report.k_feasible
        assert any("infeasible" in e for e in report.errors)

    def test_hypothesis_violation_path(self):
        m = _model(traction=(2.0, 0.0, 0.0))
        report = fem3d.certify_3d(m)
        assert not report.passed
        assert report.errors
