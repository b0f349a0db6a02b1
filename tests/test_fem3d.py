"""Unit tests for the 3D hexahedral discretization and certification."""

import collections
import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elastodual import banded, cli, fem3d, primal1d, tensor3d
from elastodual.errors import NonConvergence, SingularSystem
from elastodual.fem3d import BoxMesh, SolidModel
from elastodual.tensor3d import I3, LameParams

from conftest import (
    certify_3d_recorded, dense_tangent_3d, g_star_density, hessian_z, isotropic_tensor,
    newton_state, node_coords, on_sym, reference_hessian_certificate, reference_newton_3d,
    residual_3d, z_side_bounds,
)

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
    Hm = on_sym(isotropic_tensor(m.lame.lam, m.lame.mu))
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
        m = _model(nx=3, ny=2, nz=2)
        mesh = BoxMesh(m)
        assert mesh.n_nodes == 4 * 3 * 3 == node_coords(m).shape[0]
        assert mesh.n_elem == 12
        assert np.array_equal(
            mesh.clamped_nodes, np.flatnonzero(node_coords(m)[:, 0] == 0.0)
        )
        assert mesh.clamped_nodes.size == 9
        assert mesh.free_dofs.size == mesh.n_dof - 27

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (8, 2, 2), (2, 5, 3)])
    def test_connectivity_matches_element_loop(self, dims):
        m = _model(*dims)
        mesh = BoxMesh(m)
        conn, face = loop_connectivity(*dims)
        for got, want in ((mesh.conn, conn), (mesh.face_elems, face)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # corners 1, 2, 5, 6 span the local xi_1 = +1 face
        face_nodes = np.unique(mesh.conn[face][:, [1, 2, 5, 6]])
        assert np.all(node_coords(m)[face_nodes, 0] == 1.0)

    TOPOLOGY = ("conn", "dofs", "component_dofs", "clamped_nodes", "free_dofs",
                "band_index", "face_elems")

    def test_topology_is_shared_and_read_only(self):
        a = BoxMesh(_model(3, 2, 2))
        b = BoxMesh(dataclasses.replace(_model(3, 2, 2), lx=1.25, lame=LameParams(2.0, 0.5)))
        assert a.band == b.band and a.hx != b.hx
        for name in self.TOPOLOGY:
            shared = getattr(a, name)
            assert getattr(b, name) is shared, name
            with pytest.raises(ValueError, match="read-only"):
                shared[...] = shared.copy()

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4)])
    def test_component_dofs_are_the_dofs_by_component(self, dims):
        mesh = BoxMesh(_model(*dims))
        e, i, n = np.indices((mesh.n_elem, 3, 8)).reshape(3, -1)
        assert np.array_equal(mesh.component_dofs.ravel(), mesh.dofs[e, 3 * n + i])

    def test_topology_cache_is_bounded(self):
        maxsize = fem3d._topology.cache_info().maxsize
        # a workload cycling through 7 shapes must hit, not miss every op
        assert maxsize >= 16
        shapes = [(nx, ny, nz) for nx in range(2, 9) for ny in (2, 3, 4) for nz in (2, 5)]
        assert len(shapes) > maxsize + 1
        first = BoxMesh(_model(*shapes[0]))
        for dims in shapes[1:]:
            BoxMesh(_model(*dims))
        assert fem3d._topology.cache_info().currsize == maxsize
        # the first shape was evicted: a new mesh of it builds equal arrays
        again = BoxMesh(_model(*shapes[0]))
        assert again.conn is not first.conn
        for name in self.TOPOLOGY:
            assert np.array_equal(getattr(again, name), getattr(first, name)), name

    def test_shape_function_partition_of_unity(self):
        mesh = BoxMesh(_model())
        assert np.allclose(mesh.N.sum(axis=1), 1.0)
        assert np.allclose(mesh.dN.sum(axis=1), 0.0, atol=1e-14)

    def test_gradient_of_linear_field_is_exact(self):
        m = _model(nx=3, ny=2, nz=4)
        mesh = BoxMesh(m)
        G = np.array([[0.1, 0.02, -0.03], [0.0, 0.05, 0.01], [0.04, 0.0, -0.02]])
        u = node_coords(m) @ G.T
        grads = fem3d.displacement_gradients(mesh, u)
        assert np.max(np.abs(grads - G)) <= 1e-13


class TestEnergy3D:
    def test_zero(self):
        m = _model()
        mesh = BoxMesh(m)
        assert fem3d.energy_3d(m, mesh, np.zeros((mesh.n_nodes, 3))) == 0.0

    def test_patch_constant_strain(self):
        # linear displacement field: constant stress at every quadrature
        # point, energy integrated exactly
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        G = np.array([[0.05, 0.01, 0.0], [0.02, -0.03, 0.01], [0.0, 0.02, 0.04]])
        u = node_coords(m) @ G.T
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
        x = node_coords(m)
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
        mesh, u0 = fem3d.solve_newton_3d(m)[:2]
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
        R = residual_3d(m, mesh, np.zeros((mesh.n_nodes, 3)))
        assert np.max(np.abs(R)) == 0.0

    def test_zero_state_equals_negative_load(self):
        m = _model(body=(0.3, -0.1, 0.2), traction=(0.0, 0.1, 0.0))
        mesh = BoxMesh(m)
        R = residual_3d(m, mesh, np.zeros((mesh.n_nodes, 3)))
        L = fem3d._load_vector(m, mesh)
        L[mesh.clamped_nodes] = 0.0
        assert np.allclose(R, -L, atol=1e-14)

    def test_finite_difference_consistency(self):
        m = _model(body=(0.05, 0.0, -0.02))
        mesh = BoxMesh(m)
        rng = np.random.default_rng(1)
        eps = 1e-5
        for _ in range(5):
            u = _random_clamped_state(mesh, rng)
            phi = _random_clamped_state(mesh, rng, scale=1.0)
            dj = float(np.sum(residual_3d(m, mesh, u) * phi))
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
        Kg = dense_tangent_3d(m, mesh, u)
        assert np.max(np.abs(Kg - Kg.T)) <= 1e-12

    def test_zero_state_is_linear_stiffness(self):
        # at u = 0 the geometric term vanishes and the tangent equals the
        # second derivative of the quadratic part of the energy
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh = BoxMesh(m)
        u0 = np.zeros((mesh.n_nodes, 3))
        Kg = dense_tangent_3d(m, mesh, u0)
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
            Kg = dense_tangent_3d(m, mesh, u)
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
            Kg = dense_tangent_3d(m, mesh, u)
            hv = (Kg @ psi.ravel())[mesh.free_dofs]
            fd = (
                residual_3d(m, mesh, u + eps * psi)
                - residual_3d(m, mesh, u - eps * psi)
            ).ravel()[mesh.free_dofs] / (2.0 * eps)
            assert np.max(np.abs(hv - fd)) <= 1e-6 * (1.0 + np.max(np.abs(hv)))


def unpack_upper_band(ab):
    """Upper triangle of LAPACK upper band storage (w + 1, n), entry by entry."""
    w, n = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((n, n))
    for c in range(n):
        for r in range(max(0, c - w), c + 1):
            A[r, c] = ab[w + r - c, c]
    return A


def _gradients_and_stress(m, mesh, u):
    g = fem3d.displacement_gradients(mesh, u)
    return g, tensor3d.stress(m.lame, g)


# every mesh of the benchmark's box3d_certify workload, and 3x2x4: the closed-
# form band layout meets the dense tangent on each (the first four keep their
# test ids)
BAND_MESHES = [(2, 2, 2), (8, 2, 2), (2, 4, 4), (3, 2, 4), (3, 2, 2), (2, 3, 2), (2, 2, 3),
               (4, 4, 2)]
BAND_BOXES = [(1.0, 1.0, 1.0), (2.0, 0.5, 0.8), (0.9, 1.2, 1.1), (1.3, 0.7, 2.1),
              (1.1, 0.8, 0.9), (0.7, 1.4, 1.0), (1.2, 1.0, 0.6), (0.8, 0.9, 1.3)]


class TestBandTangent3D:
    @pytest.mark.parametrize("dims, box", list(zip(BAND_MESHES, BAND_BOXES)))
    def test_equals_free_block_of_dense_tangent(self, dims, box):
        m = SolidModel(
            *box, *dims, lame=LameParams(1.7, 0.6),
            body_force=np.zeros(3), traction=np.zeros(3),
        )
        mesh = BoxMesh(m)
        free = mesh.free_dofs
        rng = np.random.default_rng(8)
        for _ in range(2):
            u = _random_clamped_state(mesh, rng, scale=0.05)
            ab = fem3d.band_tangent_3d(m, mesh, *_gradients_and_stress(m, mesh, u))
            K = np.triu(dense_tangent_3d(m, mesh, u)[np.ix_(free, free)])
            assert ab.shape == (mesh.band + 1, free.size)
            assert np.max(np.abs(unpack_upper_band(ab) - K)) <= 1e-14 * np.max(np.abs(K))

    @pytest.mark.parametrize("dims", BAND_MESHES)
    def test_band_is_widest_free_entry(self, dims):
        mesh = BoxMesh(_model(*dims))
        free = set(mesh.free_dofs.tolist())
        widest = 0
        for nodes in mesh.conn:
            dofs = [3 * n + i for n in nodes for i in range(3) if 3 * n + i in free]
            widest = max(widest, max(dofs) - min(dofs))
        assert mesh.band == widest

    @pytest.mark.parametrize("dims", [(8, 2, 2), (3, 2, 2), (3, 3, 3), (4, 4, 4)])
    def test_blocks_equal_the_whole_mesh_kernel(self, dims, monkeypatch):
        # the kernel forms TANGENT_BLOCK elements at a time, the last block
        # short on 12 and 27 elements: bit for bit the tangents of one block
        # of all elements, in the material term of either Lame pair
        m = _model(*dims)
        mesh = BoxMesh(m)
        u = _random_clamped_state(mesh, np.random.default_rng(5), scale=0.05)
        g, sigma = _gradients_and_stress(m, mesh, u)
        assert mesh.n_elem > fem3d.TANGENT_BLOCK
        for material in (None, LameParams(-0.3, 0.6)):
            Ke = fem3d._element_tangents(m, mesh, g, sigma, material)
            with monkeypatch.context() as whole:
                whole.setattr(fem3d, "TANGENT_BLOCK", mesh.n_elem)
                assert np.array_equal(Ke, fem3d._element_tangents(m, mesh, g, sigma, material))

    @pytest.mark.parametrize("dims, box", list(zip(BAND_MESHES, BAND_BOXES)))
    def test_first_iterate_in_closed_form(self, dims, box, monkeypatch):
        # at u = 0 the Newton step takes R = -L and the band of one element's
        # tangent at g = sigma = 0: the general residual and the band of the
        # ne-element state there, bit for bit
        m = SolidModel(*box, *dims, lame=LameParams(1.7, 0.6),
                       body_force=np.array([0.01, -0.02, 0.005]),
                       traction=np.array([0.02, 0.01, -0.01]))
        steps, bands, step, band = [], [], fem3d._newton_step, fem3d.band_tangent_3d

        def recorded_step(m, mesh, g, sigma, rhs):
            steps.append((g, sigma, rhs))
            return step(m, mesh, g, sigma, rhs)

        def recorded_band(*args):
            bands.append(band(*args))
            return bands[-1]

        monkeypatch.setattr(fem3d, "_newton_step", recorded_step)
        monkeypatch.setattr(fem3d, "band_tangent_3d", recorded_band)
        mesh = fem3d.solve_newton_3d(m)[0]
        (g, sigma, rhs), (ab, *_) = steps[0], bands
        assert g.shape == sigma.shape == (1, 8, 3, 3) and not g.any() and not sigma.any()
        zero = np.zeros((mesh.n_nodes, 3))
        assert np.array_equal(-rhs, residual_3d(m, mesh, zero).ravel()[mesh.free_dofs])
        assert np.array_equal(ab, band(m, mesh, *_gradients_and_stress(m, mesh, zero)))
        assert all(g.shape[0] == mesh.n_elem for g, _, _ in steps[1:])

    def test_newton_forms_no_dense_tangent(self):
        # src has no dense tangent (the oracle lives in conftest), and the
        # solve's traced peak stays below one n_dof^2 array: 8.5 MB at 6^3
        assert not hasattr(fem3d, "hessian_3d")
        m = _model(nx=6, ny=6, nz=6)
        n_dof = 3 * 7**3
        tracemalloc.start()
        try:
            mesh, u = fem3d.solve_newton_3d(m)[:2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        R = residual_3d(m, mesh, u).ravel()
        assert np.max(np.abs(R[mesh.free_dofs])) <= 1e-11
        assert peak < 8 * n_dof**2

    def test_singular_band_raises(self, monkeypatch):
        # the tangent and its tensile-stress variant both fail to factor:
        # the step raises, after one Cholesky attempt on each
        tangents = []

        def singular(m, mesh, g, sigma):
            tangents.append(sigma)
            ab = np.zeros((mesh.band + 1, mesh.free_dofs.size))
            ab[mesh.band, 0] = -1.0
            return ab

        monkeypatch.setattr(fem3d, "band_tangent_3d", singular)
        m = _model()
        mesh = BoxMesh(m)
        g, sigma = _gradients_and_stress(m, mesh, np.zeros((mesh.n_nodes, 3)))
        with pytest.raises(SingularSystem):
            fem3d._newton_step(m, mesh, g, sigma, np.ones(mesh.free_dofs.size))
        assert len(tangents) == 2


def continuation_newton(m, steps, tol=1e-11, max_iter=30):
    """Undamped Newton from u = 0 over `steps` equal load stages, stage k on
    the model with its loads scaled by k / steps, each step a dense solve of
    the free block of the tangent; raises NonConvergence on failure."""
    mesh = BoxMesh(m)
    u = np.zeros((mesh.n_nodes, 3))
    free = mesh.free_dofs
    for k in range(1, steps + 1):
        mk = dataclasses.replace(
            m, body_force=m.body_force * k / steps, traction=m.traction * k / steps
        )
        for it in range(max_iter + 1):
            R = residual_3d(mk, mesh, u).ravel()[free]
            if np.max(np.abs(R)) <= tol:
                break
            if it == max_iter:
                raise NonConvergence(f"stage {k}/{steps} did not converge")
            Kt = dense_tangent_3d(mk, mesh, u)[np.ix_(free, free)]
            u.reshape(-1)[free] += np.linalg.solve(Kt, -R)
    return mesh, u


# in-hypothesis models; the first is the CLI's default certify3d case
IN_HYPOTHESIS_MODELS = [
    dict(nx=4, ny=4, nz=4),
    dict(nx=8, ny=2, nz=2, traction=(0.03, 0.01, 0.0)),
    dict(nx=2, ny=4, nz=4, traction=(0.01, 0.0, -0.01), body=(0.0, -0.02, 0.0)),
    dict(nx=3, ny=2, nz=4, traction=(-0.02, 0.005, 0.0), body=(0.01, 0.0, 0.01)),
]


class TestSolveNewton3D:
    @pytest.mark.parametrize(
        "kwargs", IN_HYPOTHESIS_MODELS, ids=["default", "8x2x2", "2x4x4", "3x2x4"]
    )
    def test_one_stage_inside_hypothesis(self, kwargs, monkeypatch):
        # the full load from u = 0 converges in at most 4 tangents, where
        # three load stages take at least 2 each, and it reaches the
        # critical point of the three-stage continuation
        band, calls = fem3d.band_tangent_3d, []

        def counted(*args):
            calls.append(1)
            return band(*args)

        monkeypatch.setattr(fem3d, "band_tangent_3d", counted)
        m = _model(**kwargs)
        mesh, u = fem3d.solve_newton_3d(m)[:2]
        assert 1 <= len(calls) <= 4
        _, u3 = continuation_newton(m, 3)
        J, J3 = fem3d.energy_3d(m, mesh, u), fem3d.energy_3d(m, mesh, u3)
        assert abs(J - J3) <= 1e-12 * abs(J3)

    def test_one_stage_past_the_hypothesis(self):
        # a compressive load with indefinite tangents on the way: one stage
        # reaches the critical point of undamped Newton on the dense tangent,
        # and it breaks the 1/8 gradient bound
        m = _model(nx=4, ny=4, nz=4, traction=(-0.5, 0.0, 0.0))
        mesh, u = fem3d.solve_newton_3d(m)[:2]
        R = residual_3d(m, mesh, u).ravel()[mesh.free_dofs]
        assert np.max(np.abs(R)) <= 1e-11
        assert np.max(np.abs(fem3d.displacement_gradients(mesh, u))) >= fem3d.GRADIENT_LIMIT
        _, u1 = continuation_newton(m, 1)
        J, J1 = fem3d.energy_3d(m, mesh, u), fem3d.energy_3d(m, mesh, u1)
        assert abs(J - J1) <= 1e-12 * abs(J1)

    @pytest.mark.parametrize(
        "dims, traction, indefinite",
        [
            ((2, 2, 2), (-0.5, 0.0, 0.0), True),
            ((3, 2, 2), (-0.2, 0.05, 0.0), True),
            ((4, 4, 4), (0.02, 0.0, 0.0), False),
            ((8, 2, 2), (0.5, 0.3, 0.0), False),
        ],
    )
    def test_every_step_decreases_the_energy(self, dims, traction, indefinite, monkeypatch):
        # the iterates u + t du, rebuilt from each line search's increment
        # and its last (accepted) trial, lower energy_3d at every step: by
        # more than its rounding wherever the increment-form change is above
        # 1e-12, and never by less than -1e-14 (1 + |J|) elsewhere.  Under
        # compression the tangent is indefinite on some steps, and the step
        # solves the tensile-stress tangent there.
        searches, failures = [], []
        energy_change, cholesky = fem3d._energy_change, banded.factor

        def recorded(m, mesh, g, sigma, du):
            change, trials = energy_change(m, mesh, g, sigma, du), []
            searches.append((du, trials, change))
            return lambda t: trials.append(t) or change(t)

        def counted(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(fem3d, "_energy_change", recorded)
        monkeypatch.setattr(banded, "factor", counted)
        m = _model(*dims, traction=traction)
        mesh, u_final = fem3d.solve_newton_3d(m)[:2]
        monkeypatch.setattr(fem3d, "_energy_change", energy_change)  # energy_3d's
        u = np.zeros((mesh.n_nodes, 3))
        J = fem3d.energy_3d(m, mesh, u)
        for du, trials, change in searches:
            t = trials[-1]
            u = u + t * du
            J_next = fem3d.energy_3d(m, mesh, u)
            assert change(t) < 0.0
            assert J_next - J <= 1e-14 * (1.0 + abs(J))
            if change(t) < -1e-12:
                assert J_next < J
            J = J_next
        assert np.array_equal(u, u_final)
        assert bool(failures) == indefinite

    def test_energy_change_matches_energy_difference(self):
        # on random states, large and small, and increments from 1e-6 to 1:
        # the increment form and the plain difference of two energies from
        # the Green strain agree to 16 eps S, S the summed absolute energy
        # terms of both states (each pairwise sum is off by a few eps of its
        # absolute terms; measured at most 1.7 eps S).  energy_3d, the
        # change from u = 0, is that energy bit for bit.
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps

        def energy_and_size(m, mesh, v):
            E = tensor3d.green_strain(fem3d.displacement_gradients(mesh, v))
            HE, work = tensor3d.hooke_apply(m.lame, E), mesh.load * v
            J = 0.5 * np.sum(HE * E) * mesh.detJ - np.sum(work)
            return J, 0.5 * np.sum(np.abs(HE * E)) * mesh.detJ + np.sum(np.abs(work))

        for dims, lame in (((2, 2, 2), P11), ((3, 2, 4), LameParams(3.0, 0.5)),
                           ((8, 2, 2), LameParams(-0.2, 1.0))):
            m = SolidModel(1.0, 1.2, 0.9, *dims, lame, rng.uniform(-0.05, 0.05, 3),
                           rng.uniform(-0.5, 0.5, 3))
            mesh = BoxMesh(m)
            for u_scale, du_scale in ((0.02, 1e-2), (0.2, 1e-6), (1.0, 1.0)):
                u = _random_clamped_state(mesh, rng, u_scale)
                du = _random_clamped_state(mesh, rng, du_scale)
                change = fem3d._energy_change(m, mesh, *_gradients_and_stress(m, mesh, u), du)
                J, S = energy_and_size(m, mesh, u)
                assert fem3d.energy_3d(m, mesh, u) == J
                for t in (1.0, 0.5, 0.25):
                    Jt, St = energy_and_size(m, mesh, u + t * du)
                    assert abs(change(t) - (Jt - J)) <= 16.0 * eps * (S + St)

    def test_zero_loads(self):
        m = _model(traction=(0.0, 0.0, 0.0))
        mesh, u = fem3d.solve_newton_3d(m)[:2]
        assert np.max(np.abs(u)) == 0.0

    def test_small_traction_converges(self):
        m = _model()
        mesh, u = fem3d.solve_newton_3d(m)[:2]
        R = residual_3d(m, mesh, u).ravel()
        assert np.max(np.abs(R[mesh.free_dofs])) <= 1e-11
        assert np.max(np.abs(fem3d.displacement_gradients(mesh, u))) < 0.125

    def test_bb_descent_oracle(self):
        m = _model(traction=(0.01, 0.0, 0.0))
        mesh, u_newton = fem3d.solve_newton_3d(m)[:2]
        u = np.zeros((mesh.n_nodes, 3))
        r_prev = s_prev = None
        for _ in range(20000):
            r = residual_3d(m, mesh, u).ravel()[mesh.free_dofs]
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


class TestSharedNewton3D:
    """solve_newton_3d, the line-search Newton that the bar and the box once
    shared, against the box's own loop kept in conftest.reference_newton_3d.
    Every operation and its order are the same, so the two agree bit for bit.
    solve_newton_3d takes u = 0 in closed form, so its _iterate_3d sees every
    reference iterate but the first."""

    @pytest.mark.parametrize(
        "dims, traction",
        [
            ((2, 2, 2), (0.02, 0.0, 0.0)),
            ((3, 2, 2), (0.02, 0.0, 0.0)),
            ((8, 2, 2), (0.02, 0.0, 0.0)),
            ((4, 4, 2), (0.02, 0.0, 0.0)),
            ((2, 2, 2), (-0.5, 0.0, 0.0)),  # steps on the tensile-stress tangent
            ((8, 2, 2), (-0.5, 0.0, 0.0)),
            ((8, 2, 2), (-0.2, 0.05, 0.0)),  # stops at the 50-step cap
        ],
        ids=["2x2x2", "3x2x2", "8x2x2", "4x4x2", "2x2x2-compressed", "8x2x2-compressed",
             "8x2x2-capped"],
    )
    def test_iterates_match_the_box_loop(self, dims, traction, monkeypatch):
        m = _model(*dims, traction=traction)
        want, want_state, want_error = [], None, None
        try:
            want_state = reference_newton_3d(m, want)
        except (NonConvergence, SingularSystem) as exc:
            want_error = str(exc)
        got, got_state, got_error, iterate = [], None, None, fem3d._iterate_3d

        def record(m, mesh, u):
            got.append(u)
            return iterate(m, mesh, u)

        monkeypatch.setattr(fem3d, "_iterate_3d", record)
        try:
            got_state = fem3d.solve_newton_3d(m)
        except (NonConvergence, SingularSystem) as exc:
            got_error = str(exc)
        assert got_error == want_error
        assert (got_state is None) == (want_state is None)
        if want_state is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got_state[1:], want_state[1:]))
        assert not want[0].any() and len(got) == len(want) - 1 >= 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want[1:]))

    def test_line_search_gives_up(self, monkeypatch, capsys):
        # every Armijo trial of every step reports an energy increase: the
        # first step halves t from 1 until it falls below 1e-15, and the
        # failure reaches the report and the exit code as the bar's does
        trials = []
        monkeypatch.setattr(fem3d, "_energy_change",
                            lambda m, mesh, g, sigma, du: lambda t: trials.append(t) or 1.0)
        m = _model()
        with pytest.raises(NonConvergence, match=r"^no descent at residual \S+$") as exc:
            fem3d.solve_newton_3d(m)
        assert trials == [2.0**-k for k in range(50)]
        assert fem3d.certify_3d(m).errors == [f"newton: {exc.value}"]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code = cli.main(["certify3d", "--mesh=2,2,2"])
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == cli.EXIT_SOLVER_ERROR and not doc["passed"]
        assert len(doc["errors"]) == 1
        assert doc["errors"][0].startswith("newton: no descent at residual ")


# the box of the metamorphic relations below and two images of it: mirrored
# in y (t_y and b_y flip) and with the y and z axes swapped (sides, mesh
# counts and load components)
METAMORPHIC_BOX = dict(box=(1.25, 0.8, 0.6), mesh=(4, 2, 3), lame=(1.7, 0.6),
                       traction=(0.02, 0.008, -0.005), body=(0.004, 0.001, 0.002))


def _box(box, mesh, lame, traction, body):
    return SolidModel(*box, *mesh, LameParams(*lame), np.array(body, dtype=float),
                      np.array(traction, dtype=float))


def _mirrored_y(box, mesh, lame, traction, body):
    flip = np.array([1.0, -1.0, 1.0])
    return _box(box, mesh, lame, flip * traction, flip * body)


def _swapped_yz(box, mesh, lame, traction, body):
    yz = [0, 2, 1]
    return _box(np.take(box, yz), np.take(mesh, yz), lame,
                np.take(traction, yz), np.take(body, yz))


def _benchmark_case(lam, mu, box, mesh, tau, shares, mode, k_share):
    """(case, K, mode) of one of the benchmark's box3d_certify draws: loads
    scale with mu, and spherical mode takes K well inside its admissible
    interval (identity mode its default 0.999 K_max)."""
    tau *= mu
    traction = (tau, 0.8 * tau * shares[0], 0.8 * tau * shares[1])
    body = tuple(0.008 * mu * x for x in shares[2:])
    K = None
    if mode == "spherical":
        K = k_share * min(2.0 * mu, (23.0 / 32.0) * (3.0 * lam + 2.0 * mu))
    case = dict(box=box, mesh=mesh, lame=(lam, mu), traction=traction, body=body)
    return case, K, mode


def benchmark_cases(meshes):
    """Draws of ``_benchmark_case`` on the given meshes."""
    return st.builds(
        _benchmark_case, lam=st.floats(0.5, 3.0), mu=st.floats(0.5, 2.0),
        box=st.tuples(*[st.floats(0.8, 1.25)] * 3), mesh=st.sampled_from(meshes),
        tau=st.floats(0.005, 0.02), shares=st.tuples(*[st.floats(-1.0, 1.0)] * 5),
        mode=st.sampled_from(["identity", "spherical"]), k_share=st.floats(0.2, 0.3),
    )


#: inside the benchmark's parameter box, with z_curvature_floor 2.2585 <
#: m_min_eig 2.2958 < the z-Hessian's smallest eigenvalue 2.3004: bound 3
#: leaves points open here, and their eigensolve passes the check
SPHERICAL_CORNER = (dict(box=(1.25, 0.8, 0.8), mesh=(3, 2, 2), lame=(3.0, 0.5),
                         traction=(0.01, 0.008, 0.008), body=(0.004, 0.004, 0.004)),
                    0.3, "spherical")


class TestMetamorphic3D:
    """A mirror image of the box, or the box with two axes renamed, is the
    same problem in other coordinates: the verdict and every report field
    that is not at rounding level agree, as does the z-Hessian's smallest
    eigenvalue over all points (``conftest.reference_hessian_certificate``).
    The gap, the residual and the z deficit are rounding-level (they differed
    by 0.2-70% between images), so each is checked against its bound on both
    sides instead."""

    #: the fields that agree to rounding of their own size
    INVARIANT = ("J_primal", "J_dual", "condition_max", "z_curvature_floor",
                 "energy_deficit")

    def _check(self, case, mode="identity", K=None, rtol=None):
        rtol = rtol or {}
        want, _, want_eig = reference_hessian_certificate(_box(**case), K, mode)
        for image in (_mirrored_y, _swapped_yz):
            got, _, got_eig = reference_hessian_certificate(image(**case), K, mode)
            assert got.passed == want.passed and got.errors == want.errors
            for name in self.INVARIANT:
                a, b = getattr(got, name), getattr(want, name)
                assert abs(a - b) <= rtol.get(name, 1e-14) * abs(b), (image, name)
            assert abs(got_eig - want_eig) <= 1e-14 * abs(want_eig), (image, "min eig")
            for r in (got, want):
                assert abs(r.gap) <= fem3d.GAP_TOL * (1.0 + abs(r.J_primal))
                assert r.residual_norm <= fem3d.NEWTON_TOL
                assert r.z_deficit <= fem3d.SADDLE_TOL
        return want

    def test_mirror_and_axis_swap(self):
        # measured agreement: 6.7e-16 relative at most
        assert self._check(METAMORPHIC_BOX).passed

    @settings(max_examples=6, deadline=None)
    @given(
        lam=st.floats(0.5, 3.0), mu=st.floats(0.5, 2.0),
        box=st.tuples(*[st.floats(0.8, 1.25)] * 3),
        mesh=st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (8, 2, 2),
                              (4, 4, 2), (2, 4, 4)]),
        tau=st.floats(0.005, 0.02),
        shares=st.tuples(*[st.floats(-1.0, 1.0)] * 5),
        mode=st.sampled_from(["identity", "spherical"]), k_share=st.floats(0.2, 0.3),
    )
    def test_benchmark_parameter_box(self, lam, mu, box, mesh, tau, shares, mode, k_share):
        # the benchmark's box3d_certify draws.  The energy deficit's
        # ||R^-T R0||^2/2 is formed from the rounding-level residual: over 300
        # draws it moved by 1.3e-12 relative at most
        case, K, mode = _benchmark_case(lam, mu, box, mesh, tau, shares, mode, k_share)
        assert self._check(case, mode, K, {"energy_deficit": 1e-10}).passed


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
        mesh, u0 = fem3d.solve_newton_3d(m)[:2]
        K = 1.0
        g_all = fem3d.displacement_gradients(mesh, u0)
        flat = g_all.reshape(-1, 3, 3)
        duals = [
            tensor3d.construct_duals_pointwise(K, gq, tensor3d.stress(m.lame, gq))
            for gq in flat
        ]
        flux = np.array([v1 + v2 for (v1, v2, _) in duals]).reshape(g_all.shape)
        Rd = fem3d._weak_residual(mesh, flux)
        Rp = residual_3d(m, mesh, u0)
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


class TestFormedOnce:
    """certify_3d forms each per-op quantity once: one mesh, one compliance,
    one A and A^-1, and one S = v2 + z, v1^T v1 and Hbar:sym S that J* and
    bound 1 share, rows of which the z-Hessian of the points bound 3 leaves
    open takes; the converged residual from Newton's last pass (src has no
    other residual function), and the ne-element tangent kernel once per
    Newton step after the first (one element's at u = 0) and once for bound 2."""

    def _certify_counted(self, monkeypatch, m, K=None, mode="identity"):
        """Run certify_3d with its calls counted, check that it passes, the
        counts, that J* and bound 1 receive the one A^-1 and the same per-point
        terms, and the converged residual; return the arguments bound 1
        received and what any other term taker received, by name."""
        calls, states, inverses, passed = collections.Counter(), [], [], {}
        kernels, tangents = [], fem3d._element_tangents
        monkeypatch.setattr(fem3d, "_element_tangents", lambda m, mesh, g, *args: (
            kernels.append(g.shape[0]) or tangents(m, mesh, g, *args)))

        def count(module, name, record=None):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if record is not None:
                    record.append(result)
                return result

            monkeypatch.setattr(module, name, counted)

        count(fem3d, "BoxMesh")
        count(fem3d, "solve_newton_3d", states)
        count(fem3d, "_newton_step")
        count(np.linalg, "inv", inverses)
        count(tensor3d, "compliance_params")
        for module, name in ((tensor3d, "g_star_k_density"),
                             (tensor3d, "dstar_hessian_z_3d"),
                             (fem3d, "_z_side_bounds")):
            original = getattr(module, name)

            def taking(*args, _original=original, _name=name):
                assert _name not in passed
                passed[_name] = args
                return _original(*args)

            monkeypatch.setattr(module, name, taking)
        report = fem3d.certify_3d(m, K, mode)
        assert report.passed, report.errors
        steps = calls.pop("_newton_step")
        assert calls == {"BoxMesh": 1, "solve_newton_3d": 1, "inv": 1, "compliance_params": 1}
        assert steps >= 2 and kernels == [1] + [m.nx * m.ny * m.nz] * steps
        # J* takes (S, v1^T v1, Hbar:sym S, A^-1); bound 1 (v1, z, S, v1^T v1,
        # Hbar:sym S, A, A^-1, lame, compliance, ...): the same arrays
        terms, bound1 = passed.pop("g_star_k_density"), passed.pop("_z_side_bounds")
        assert terms[3] is inverses[0] and bound1[6] is inverses[0]
        assert all(a is b for a, b in zip(terms[:3], bound1[2:5]))
        S, gram, hbar_S = terms[:3]
        v1, z = bound1[:2]
        assert np.array_equal(bound1[5], S + bound1[9] * I3)
        assert np.array_equal(gram, np.swapaxes(v1, -1, -2) @ v1)
        assert np.array_equal(hbar_S, tensor3d.hooke_apply(bound1[8], tensor3d.sym(S)))
        ((mesh, u0, _, _, R0),) = states
        R = residual_3d(m, mesh, u0)
        assert report.residual_norm == np.max(np.abs(R)) > 0.0
        assert np.array_equal(R0, R.ravel()[mesh.free_dofs])
        return bound1, passed

    def test_each_quantity_is_formed_once(self, monkeypatch):
        m = _model(nx=4, ny=4, nz=2, traction=(0.03, 0.01, -0.01), body=(0.0, 0.02, 0.0))
        # bound 3 settles every point: the z-Hessian is not formed
        _, passed = self._certify_counted(monkeypatch, m)
        assert passed == {}

    def test_open_points_take_rows_of_the_one_inverse(self, monkeypatch):
        case, K, mode = SPHERICAL_CORNER
        bound1, passed = self._certify_counted(monkeypatch, _box(**case), K, mode)
        v1, A, X = (bound1[k].reshape(-1, 3, 3) for k in (0, 5, 6))
        rows_v1, rows_A, rows_X, c, K = passed.pop("dstar_hessian_z_3d")
        taken = np.array([any(np.array_equal(p, r) for r in rows_X) for p in X])
        assert 0 < len(rows_X) < len(X) and np.array_equal(X[taken], rows_X)
        assert np.array_equal(A[taken], rows_A) and np.array_equal(v1[taken], rows_v1)
        assert c is bound1[8] and K == bound1[9]
        assert passed == {}


class TestFiniteEpilogue:
    """The reports' epilogue (``primal1d.reported``, shared by both
    certificates and ``ktensor``) maps NaN to the given fill and +-inf to
    +-the largest double, as np.nan_to_num did, and returns Python floats."""

    BIG = float(np.finfo(float).max)

    @pytest.mark.parametrize("x", [1.5, -2e-300, 0.0, -0.0, np.float64(-3.25),
                                   math.nan, math.inf, -math.inf, np.float64(np.nan)])
    @pytest.mark.parametrize("fill", ["big", "-big"])
    def test_maps_as_nan_to_num(self, x, fill):
        fill = self.BIG if fill == "big" else -self.BIG
        got, want = primal1d.reported(x, nan=fill), float(np.nan_to_num(x, nan=fill))
        assert type(got) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_fill_defaults_to_the_largest_double(self):
        got = primal1d.reported(math.nan)
        assert got == self.BIG and type(got) is float


def _certify_at(monkeypatch, m, mesh, u0, shift=None):
    """certify_3d at the fixed state u0, with z moved by ``shift`` if given."""
    monkeypatch.setattr(fem3d, "solve_newton_3d", lambda _m: newton_state(m, mesh, u0))
    if shift is not None:
        construct = tensor3d.construct_duals_pointwise

        def shifted(*args):
            v1, v2, z = construct(*args)
            return v1, v2, z + shift

        monkeypatch.setattr(tensor3d, "construct_duals_pointwise", shifted)
    return fem3d.certify_3d(m)


def _failed(report):
    return {e.split(":")[0] for e in report.errors}


class TestBounds3D:
    """The closed-form z-side and local-minimality bounds of certify_3d."""

    def test_report_schema(self):
        doc = json.loads(cli.report_json(fem3d.certify_3d(_model()), {}))
        assert doc["version"] == "1.2"
        for key in ("z_curvature_floor", "z_deficit", "energy_deficit", "local_min_shift"):
            assert np.isfinite(doc[key])
        for key in ("seed", "local_min_passed", "local_min_total",
                    "z_convex_passed", "z_convex_total", "min_hessian_z_eig"):
            assert key not in doc
        assert 0.0 < doc["local_min_shift"] < 1e-9
        assert doc["z_curvature_floor"] > 0.0 and doc["z_deficit"] <= 1e-30

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("certify_3d drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert fem3d.certify_3d(_model()).passed

    def test_z_shift_fails_z_side_bound(self, monkeypatch):
        # z + s I is stationary no more: J* drops by about 0.53 s^2 towards
        # z, a point of the ball, so s = 3e-5 breaks the 1e-10 slack; the
        # bound must fail there.  At s = 1e-6 that drop is 5e-13, inside the
        # slack, and the bound passes.
        m = _model()
        mesh, u0 = fem3d.solve_newton_3d(m)[:2]
        small = _certify_at(monkeypatch, m, mesh, u0, 1e-6 * I3)
        assert small.passed and small.z_deficit < 1e-10
        report = _certify_at(monkeypatch, m, mesh, u0, 3e-5 * I3)
        assert _failed(report) == {"z_convex"}
        assert report.z_curvature_floor > 0.0 and report.z_deficit > 1e-10
        K = report.K_used
        g0 = fem3d.displacement_gradients(mesh, u0)
        v1, v2, z = tensor3d.construct_duals_pointwise(K, g0, tensor3d.stress(m.lame, g0))

        def J_star(zz):
            Ainv = np.linalg.inv(v2 + zz + K * I3)
            return float(np.sum(
                tensor3d.f_star_3d_density(zz, K)
                - g_star_density(v1, v2, zz, m.lame, Ainv)
            )) * mesh.detJ

        assert J_star(z - 3e-5 * I3) < J_star(z) - 1e-10

    def test_u0_off_the_minimum_fails_energy_deficit(self, monkeypatch):
        m = _model()
        mesh, u0 = fem3d.solve_newton_3d(m)[:2]
        moved = u0.copy()
        moved.reshape(-1)[mesh.free_dofs] += 1e-6 * (-1.0) ** np.arange(mesh.free_dofs.size)
        report = _certify_at(monkeypatch, m, mesh, moved)
        assert "local_min" in _failed(report)
        assert report.energy_deficit > 1e-12
        # and the energy does drop by more than the slack in the ball: the
        # Newton step of the dense tangent, back to u0, stays in it
        free = mesh.free_dofs
        R = residual_3d(m, mesh, moved).ravel()[free]
        Kt = dense_tangent_3d(m, mesh, moved)[np.ix_(free, free)]
        delta = np.zeros(mesh.n_dof)
        delta[free] = -np.linalg.solve(Kt, R)
        assert np.max(np.abs(delta)) <= fem3d.LOCAL_RADIUS
        J0 = fem3d.energy_3d(m, mesh, moved)
        assert fem3d.energy_3d(m, mesh, moved + delta.reshape(-1, 3)) < J0 - 1e-12

    @pytest.mark.parametrize("radius", [fem3d.LOCAL_RADIUS, 0.3])
    @pytest.mark.parametrize("lame", [P11, LameParams(-0.3, 1.0)], ids=["lam>0", "lam<0"])
    def test_shifted_cholesky_matches_dense_eigenvalues(self, radius, lame, monkeypatch):
        # the verdict and the deficit against eigvalsh and a dense solve of
        # the free block of K_k - c G; at radius 0.3 c G swamps the tangent
        monkeypatch.setattr(fem3d, "LOCAL_RADIUS", radius)
        m = SolidModel(1.0, 1.0, 1.0, 3, 2, 2, lame, np.zeros(3), np.array([0.03, 0.01, 0.0]))
        state = fem3d.solve_newton_3d(m)
        mesh, u0, _, _, R0 = state
        free = mesh.free_dofs
        deficit, shift = fem3d._local_min_bound(m, *state)
        # eta bounds ||grad delta||_F on the ball: at each Gauss point every
        # row of grad delta is largest at a corner of the ball
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 8)).reshape(8, -1).T
        largest = max(np.linalg.norm(radius * corners @ mesh.dN[q], axis=-1).max()
                      for q in range(8)) * np.sqrt(3.0)
        col = np.abs(mesh.dN).sum(axis=1).max(axis=0)
        eta = radius * np.sqrt(3.0 * np.sum(col**2))
        assert largest <= eta <= 3.0 * largest
        # c = 2 mu (1 + g_a) eta, g_a = max|u0| eta / radius >= ||grad u0||_F
        g_a = np.max(np.abs(u0)) * eta / radius
        g0 = fem3d.displacement_gradients(mesh, u0)
        assert np.max(np.linalg.norm(g0, axis=(-2, -1))) <= g_a
        c = 2.0 * lame.mu * (1.0 + g_a) * eta
        kept = LameParams(min(lame.lam, 0.0), lame.mu)
        gram = sum(np.kron(np.einsum("na,ma->nm", mesh.dN[q], mesh.dN[q]), I3)
                   for q in range(8)) * mesh.detJ
        G = np.zeros((mesh.n_dof, mesh.n_dof))
        for dofs in mesh.dofs:
            G[np.ix_(dofs, dofs)] += gram
        M = (dense_tangent_3d(m, mesh, u0, kept) - c * G)[np.ix_(free, free)]
        low = np.linalg.eigvalsh(M)[0]
        if radius < 1e-3:
            assert low > 0.5 * shift > 0.0
            # the deficit adds n e LOCAL_RADIUS for the rounding of R0, here
            # below 1e-15
            dense = 0.5 * R0 @ np.linalg.solve(M, R0)
            assert dense <= deficit <= dense + 1e-15
        else:
            assert low < 0.0 and deficit == np.inf

    @pytest.mark.parametrize("dims, box", list(zip(BAND_MESHES, BAND_BOXES)))
    def test_gradient_gram_matches_three_operand_einsum(self, dims, box):
        # entry (n, i, m, i) is detJ S, S a sum of 24 products dN_qna dN_qma
        # with T = sum |dN_qna dN_qma|: to first order either evaluation is
        # within 24 U T of S (an inner product, Higham Thm 3.1) and its detJ
        # product 1 U more, so the two differ by at most 50 U detJ T (52 for
        # the second-order terms); the i != j entries are 0
        m = SolidModel(*box, *dims, lame=P11, body_force=np.zeros(3), traction=np.zeros(3))
        mesh = BoxMesh(m)
        old = mesh.detJ * np.einsum("qna,qma,ij->nimj", mesh.dN, mesh.dN, I3).reshape(24, 24)
        T = np.einsum("qna,qma,ij->nimj", np.abs(mesh.dN), np.abs(mesh.dN), I3).reshape(24, 24)
        new = fem3d._gradient_gram(mesh)
        assert not new[T == 0.0].any() and np.array_equal(new, new.T)
        assert np.all(np.abs(new - old) <= 52.0 * fem3d.U * mesh.detJ * T)

    def test_failed_factorisation_reports_finite_values(self, monkeypatch, capsys):
        monkeypatch.setattr(fem3d, "LOCAL_RADIUS", 0.3)
        code = cli.main(["certify3d", "--mesh", "2,2,2"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert "Infinity" not in out and "NaN" not in out
        assert doc["energy_deficit"] == np.finfo(float).max
        assert [e.split(":")[0] for e in doc["errors"]] == ["local_min"]

    def test_nan_local_min_bound_fails_as_the_largest_double(self, monkeypatch, capsys):
        # a NaN deficit proves nothing: reported as the largest double, as an
        # inf one is, it fails its check
        monkeypatch.setattr(fem3d, "_local_min_bound", lambda *args: (np.nan, 0.0))
        code = cli.main(["certify3d", "--mesh", "2,2,2"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == cli.EXIT_SOLVER_ERROR
        assert "Infinity" not in out and "NaN" not in out
        assert doc["energy_deficit"] == np.finfo(float).max
        assert [e.split(":")[0] for e in doc["errors"]] == ["local_min"]

    def test_spherical_mode_inside_admissible_k(self):
        # spherical mode at K = 0.3, about 0.21 K_max: the bounds pass
        m = _model(nx=4, ny=4, nz=2)
        report = fem3d.certify_3d(m, K=0.3, mode="spherical")
        assert report.passed, report.errors


#: the meshes of the bound-3 tests: the benchmark's smallest two
SMALL_MESHES = [(2, 2, 2), (3, 2, 2)]


class TestHessianVersusM:
    """Bound 3 of fem3d: the z-curvature floor kappa settles the Hessian-
    versus-M check at each point where kappa >= m_min_eig + e_m, and only the
    other points are eigensolved.  Checked against the z-Hessian's smallest
    eigenvalue at 50 digits, and against the check that eigensolves every
    point (``conftest.reference_hessian_certificate``)."""

    @settings(max_examples=10, deadline=None)
    @given(drawn=benchmark_cases(SMALL_MESHES))
    @example(drawn=SPHERICAL_CORNER)
    def test_floor_below_exact_min_eig(self, drawn):
        # tens of ms per point at 50 digits: four points per draw, the
        # floor's smallest among them
        from conftest import mp_hessian_z_min_eig

        case, K, mode = drawn
        report, state = certify_3d_recorded(_box(**case), K, mode)
        assert report.passed, report.errors
        v1, v2, z, X = (state[k].reshape(-1, 3, 3) for k in ("v1", "v2", "z", "X"))
        kappa, lame, K = state["kappa"].ravel(), state["lame"], state["K"]
        eig = np.linalg.eigvalsh(hessian_z(v1, v2, z, lame, K, X))[:, 0]
        for q in {int(np.argmin(kappa)), 0, kappa.size // 2, kappa.size - 1}:
            exact = mp_hessian_z_min_eig(v1[q], v2[q], z[q], lame, K)
            assert kappa[q] <= exact, (q, kappa[q], exact)
            # the eigensolve of the points bound 3 leaves open
            assert abs(eig[q] - exact) <= 1e-12 * abs(exact), (q, eig[q], exact)

    @settings(max_examples=15, deadline=None)
    @given(drawn=benchmark_cases(SMALL_MESHES))
    @example(drawn=SPHERICAL_CORNER)
    def test_same_verdicts_as_full_eigensolve(self, drawn):
        case, K, mode = drawn
        report, errors, min_eig = reference_hessian_certificate(_box(**case), K, mode)
        assert report.errors == errors and report.passed == (not errors)
        assert min_eig >= report.m_min_eig

    @pytest.mark.parametrize("mesh, K, traction", [
        ((2, 2, 2), None, (0.02, 0.0, 0.0)),  # certify3d --mesh 2,2,2 --mode spherical
        ((3, 2, 2), 1.2, (0.02, 0.01, 0.0)),
        ((3, 2, 2), 1.3, (0.02, 0.01, 0.0)),
    ])
    def test_same_failures_as_full_eigensolve(self, mesh, K, traction):
        # near spherical mode's K_max the z-Hessian's smallest eigenvalue is
        # below M's: the open points carry the failure and its message
        m = _model(*mesh, traction=traction)
        report, errors, min_eig = reference_hessian_certificate(m, K, "spherical")
        assert min_eig < report.m_min_eig - 1e-10
        assert report.errors == errors and not report.passed
        assert [e.split(":")[0] for e in errors] == ["hessian"]

    @settings(max_examples=15, deadline=None)
    @given(drawn=benchmark_cases(SMALL_MESHES))
    def test_kernel_skipped_where_floor_settles(self, drawn):
        # e_m <= U (3/K + 5 hbar) on this parameter box, far below the
        # 1e-12 (1/K + 1/mu) taken here; identity mode's floor exceeded
        # m_min_eig more than 80-fold on the benchmark's draws
        case, K, mode = drawn
        kernel = tensor3d.dstar_hessian_z_3d
        with mock.patch.object(tensor3d, "dstar_hessian_z_3d", wraps=kernel) as spy:
            report = fem3d.certify_3d(_box(**case), K, mode)
        m_min, floor = report.m_min_eig, report.z_curvature_floor
        if floor >= m_min + 1e-12 * (1.0 / report.K_used + 1.0 / case["lame"][1]):
            assert spy.call_count == 0
        if spy.call_count == 0:
            assert floor >= m_min
        if mode == "identity":
            assert spy.call_count == 0


N_SAMPLES = 50  # per check, as the samplers that the bounds replaced drew


def _sample_counts_per_sample(m, mesh, u0, duals, K, radius, seed, n=N_SAMPLES):
    """The sampled checks that the bounds replaced, one sample at a time: how
    many of n energies on the 1e-4 sup-ball around u0 and of n dual
    functionals on the symmetric radius-ball around z stay within their
    slacks (1e-12, 1e-10), and how many z-samples met a point where sym(A)
    is not positive definite (eigvalsh), with no dual functional there."""
    v1, v2, z = duals
    rng = np.random.default_rng(seed)
    J0 = fem3d.energy_3d(m, mesh, u0)
    local = 0
    for _ in range(n):
        delta = np.zeros((mesh.n_nodes, 3))
        delta.reshape(-1)[mesh.free_dofs] = rng.uniform(
            -1.0, 1.0, mesh.free_dofs.size
        )
        delta *= 1e-4 / np.max(np.abs(delta))
        local += int(fem3d.energy_3d(m, mesh, u0 + delta) >= J0 - 1e-12)

    def dual_functional(zz):
        Ainv = np.linalg.inv(v2 + zz + K * I3)
        return np.sum(
            tensor3d.f_star_3d_density(zz, K)
            - g_star_density(v1, v2, zz, m.lame, Ainv)
        ) * mesh.detJ

    Jc = dual_functional(z)
    convex = indefinite = 0
    for _ in range(n):
        dz = tensor3d.sym(rng.uniform(-1.0, 1.0, size=z.shape))
        dz *= radius / np.max(np.abs(dz), axis=(-2, -1), keepdims=True)
        zz = z + dz
        if np.min(np.linalg.eigvalsh(tensor3d.sym(v2 + zz + K * I3))[..., 0]) <= 0.0:
            indefinite += 1
        else:
            convex += int(dual_functional(zz) >= Jc - 1e-10)
    return local, convex, indefinite


def _bound_verdicts(m, mesh, u0, duals, K, radius):
    """Whether the local-minimality and z-side bounds hold at (u0, duals),
    from the true pd_margin of the duals."""
    v1, v2, z = duals
    deficit, _ = fem3d._local_min_bound(m, *newton_state(m, mesh, u0))
    margin = tensor3d.pd_margin(v2 + z, K)
    X = np.linalg.inv(v2 + z + K * I3)
    kappa, drop = z_side_bounds(v1, v2, z, m.lame, K, X, margin, radius)
    z_ok = np.min(kappa) > 0.0 and np.sum(drop) * mesh.detJ <= fem3d.SADDLE_TOL
    return deficit <= fem3d.LOCAL_MIN_TOL, z_ok


def _assert_samples_imply_bounds(m, mesh, u0, duals, K, radius, seed, n=N_SAMPLES):
    """Every failed sample, and every indefinite z-sample, fails its bound."""
    local, convex, indefinite = _sample_counts_per_sample(
        m, mesh, u0, duals, K, radius, seed, n
    )
    local_ok, z_ok = _bound_verdicts(m, mesh, u0, duals, K, radius)
    assert local_ok <= (local == n)
    assert z_ok <= (convex == n and indefinite == 0)
    return local, convex, indefinite


class TestBatchedSamples3D:
    """The sampled checks that certify_3d's bounds replaced, as oracles: each
    sample failure implies that the matching bound fails."""

    @pytest.mark.parametrize("case", ["centre", "perturbed", "indefinite"])
    def test_counts_match_per_sample_replay(self, case, monkeypatch):
        traction = (0.0, 0.0, 0.0) if case == "indefinite" else (0.02, 0.01, 0.0)
        m = _model(traction=traction)
        mesh, u0 = fem3d.solve_newton_3d(m)[:2]
        K = 0.999 * tensor3d.admissible_k_max(m.lame)
        g0 = fem3d.displacement_gradients(mesh, u0)
        v1, v2, z = tensor3d.construct_duals_pointwise(K, g0, tensor3d.stress(m.lame, g0))
        radius = min(1e-3, 0.25 * float(np.min(tensor3d.pd_margin(v2 + z, K))) + 1e-12)
        if case == "perturbed":
            # a bump alternating from DOF to DOF moves u0 off the minimum, and
            # a shift of z moves the dual centre off its stationary point
            u0 = u0.copy()
            u0.reshape(-1)[mesh.free_dofs] += 5e-4 * (-1.0) ** np.arange(
                mesh.free_dofs.size
            )
            g0 = fem3d.displacement_gradients(mesh, u0)
            v1, v2, z = tensor3d.construct_duals_pointwise(K, g0, tensor3d.stress(m.lame, g0))
            z = z + 4e-3 * I3
        if case == "indefinite":
            # v2 + z + K*I = 1e-3 I at one point only, with z stationary
            # there (v1 = 0), sampled at radius 1e-3: a sample is indefinite
            # there, and only there, when dz has an eigenvalue below -1e-3
            v2, z = v2.copy(), z.copy()
            S = (1e-3 - K) * I3
            z[1, 5] = K * tensor3d.hooke_apply(tensor3d.compliance_params(m.lame), S)
            v2[1, 5] = S - z[1, 5]
            radius = 1e-3
        local, convex, indefinite = _assert_samples_imply_bounds(
            m, mesh, u0, (v1, v2, z), K, radius, seed=9
        )
        if case == "centre":
            assert (local, convex, indefinite) == (N_SAMPLES, N_SAMPLES, 0)
            report = _certify_at(monkeypatch, m, mesh, u0)
            assert report.passed and report.K_used == K
        elif case == "perturbed":
            assert 0 < local < N_SAMPLES and 0 < convex < N_SAMPLES
            report = _certify_at(monkeypatch, m, mesh, u0, 4e-3 * I3)
            assert {"local_min", "z_convex"} <= _failed(report)
        else:
            assert 0 < indefinite < N_SAMPLES
            assert convex == N_SAMPLES - indefinite

    @settings(max_examples=12, deadline=None)
    @given(
        tx=st.floats(-0.15, 0.3),
        ty=st.floats(-0.05, 0.05),
        lame=st.sampled_from([P11, LameParams(3.0, 0.5), LameParams(-0.2, 1.0)]),
    )
    def test_samples_imply_bounds_near_the_hypothesis_boundary(self, tx, ty, lame):
        # loads up to the 1/8 gradient bound on the 2^3 mesh
        m = SolidModel(1.0, 1.0, 1.0, 2, 2, 2, lame, np.zeros(3), np.array([tx, ty, 0.0]))
        try:
            mesh, u0 = fem3d.solve_newton_3d(m)[:2]
        except (NonConvergence, SingularSystem):
            assume(False)
        g0 = fem3d.displacement_gradients(mesh, u0)
        assume(np.max(np.abs(g0)) < fem3d.GRADIENT_LIMIT)
        K = 0.999 * tensor3d.admissible_k_max(lame)
        duals = tensor3d.construct_duals_pointwise(K, g0, tensor3d.stress(lame, g0))
        margin = float(np.min(tensor3d.pd_margin(duals[1] + duals[2], K)))
        assume(margin >= 0.0)
        radius = min(1e-3, 0.25 * margin + 1e-12)
        _assert_samples_imply_bounds(m, mesh, u0, duals, K, radius, seed=3, n=10)

    def test_peak_memory_bounded(self):
        # no dense n_dof^2 tangent (8.5 MB at 6^3) is formed; the Newton band
        # is 2.4 MB
        assert_certify_peak_below(6, 15e6)

    def test_peak_memory_bounded_at_mesh_cap(self):
        # the dense tangent would be 38 MB at 8^3; the Newton band is 8.6 MB
        assert_certify_peak_below(fem3d.MAX_ELEMS_PER_AXIS, 40e6)


def assert_certify_peak_below(n, bound):
    """certify_3d passes on an n^3 mesh with a traced peak below bound bytes."""
    m = _model(nx=n, ny=n, nz=n)
    tracemalloc.start()
    try:
        report = fem3d.certify_3d(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound
