"""Unit tests for the batched 3D tensor algebra and conjugate densities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastodual import tensor3d
from elastodual.tensor3d import I3, LameParams

from conftest import (
    golden_max,
    isotropic_tensor,
    m_tensor_oracle,
    on_sym,
    random_rotation,
    sym_basis,
)

P11 = LameParams(1.0, 1.0)
U = 0.5 * float(np.finfo(float).eps)


def _random_sym(rng, scale=1.0):
    return tensor3d.sym(scale * rng.uniform(-1.0, 1.0, (3, 3)))


class TestMandel:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            S = _random_sym(rng)
            assert np.allclose(
                tensor3d.mandel_to_sym(tensor3d.sym_to_mandel(S)), S
            )

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(1)
        S, T = _random_sym(rng), _random_sym(rng)
        assert np.sum(S * T) == pytest.approx(
            float(tensor3d.sym_to_mandel(S) @ tensor3d.sym_to_mandel(T))
        )


class TestHooke:
    def test_trace_response(self):
        p = LameParams(2.0, 0.5)
        e = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # Mandel vector of I
        H = tensor3d.hooke_mandel(p)
        assert np.allclose(H @ e, (3 * p.lam + 2 * p.mu) * e)

    def test_component_values(self):
        p = LameParams(1.5, 0.7)
        H = tensor3d.hooke_mandel(p)
        assert H[0, 0] == pytest.approx(p.lam + 2 * p.mu)
        assert H[0, 1] == pytest.approx(p.lam)
        assert H[5, 5] == pytest.approx(2 * p.mu)  # Mandel shear: 2 C_0101

    def test_mandel_spd(self):
        H = tensor3d.hooke_mandel(P11)
        assert np.all(np.linalg.eigvalsh(H) > 0)

    def test_closed_form_apply(self):
        rng = np.random.default_rng(2)
        p = LameParams(0.8, 1.2)
        full = isotropic_tensor(p.lam, p.mu)
        assert np.max(np.abs(tensor3d.hooke_mandel(p) - on_sym(full))) <= 1e-14
        for _ in range(10):
            S = _random_sym(rng)
            assert np.allclose(
                np.einsum("ijkl,kl->ij", full, S), tensor3d.hooke_apply(p, S)
            )

    def test_isotropic_lower_bound(self):
        rng = np.random.default_rng(3)
        p = LameParams(1.0, 0.6)
        for _ in range(50):
            S = _random_sym(rng)
            quad = float(np.sum(S * tensor3d.hooke_apply(p, S)))
            assert quad >= 2.0 * p.mu * float(np.sum(S * S)) - 1e-12

    def test_invalid_lame(self):
        with pytest.raises(ValueError):
            LameParams(1.0, 0.0)
        with pytest.raises(ValueError):
            LameParams(-1.0, 1.0)
        # the compliance's moduli 1/(3 lam + 2 mu) and 1/(2 mu) overflow
        for lam, mu in ((-6.66666666666e-301, 1e-300), (0.0, 2e-309)):
            with pytest.raises(ValueError, match="compliance moduli"):
                LameParams(lam, mu)


class TestHookeInverse:
    def test_two_sided_inverse(self):
        rng = np.random.default_rng(4)
        p = LameParams(1.3, 0.9)
        c = tensor3d.compliance_params(p)
        for _ in range(100):
            S = _random_sym(rng)
            assert np.max(
                np.abs(tensor3d.hooke_apply(c, tensor3d.hooke_apply(p, S)) - S)
            ) <= 1e-12
            assert np.max(
                np.abs(tensor3d.hooke_apply(p, tensor3d.hooke_apply(c, S)) - S)
            ) <= 1e-12

    def test_trace_inverse(self):
        p = LameParams(2.0, 1.0)
        c = tensor3d.compliance_params(p)
        assert np.allclose(
            tensor3d.hooke_apply(c, I3), I3 / (3 * p.lam + 2 * p.mu)
        )

    def test_closed_form_entries(self):
        p = LameParams(1.7, 0.6)
        lam, mu = p.lam, p.mu
        d = I3
        expected = (1.0 / (4.0 * mu)) * (
            np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)
        ) - lam / (2.0 * mu * (3 * lam + 2 * mu)) * np.einsum(
            "ij,kl->ijkl", d, d
        )
        Hb = tensor3d.hooke_mandel(tensor3d.compliance_params(p))
        assert np.max(np.abs(Hb - on_sym(expected))) <= 1e-12

    @pytest.mark.parametrize(
        "lam,mu", [(1.0, 1.0), (3.0, 0.7), (-0.6, 1.0), (50.0, 0.1)]
    )
    def test_matches_numerical_inverse(self, lam, mu):
        p = LameParams(lam, mu)
        Minv = np.linalg.inv(on_sym(isotropic_tensor(lam, mu)))
        Hb = tensor3d.hooke_mandel(tensor3d.compliance_params(p))
        err = np.max(np.abs(Hb - Minv))
        assert err <= 1e-12 * np.max(np.abs(Minv))

    @pytest.mark.parametrize("lam", [1e15, 1e16, 1e17, 1e300])
    def test_nearly_incompressible_compliance(self, lam):
        # 3 lam' + 2 mu' = 1/(3 lam + 2 mu) is below the rounding of lam'
        c = tensor3d.compliance_params(LameParams(lam, 1.0))
        assert c.mu == 0.25
        assert 0.0 < 3.0 * c.lam + 2.0 * c.mu <= 1e-14

    def test_closed_form_apply_agrees(self):
        rng = np.random.default_rng(5)
        p = LameParams(0.4, 1.1)
        # compliance tensor from the numerical inverse on the symmetric basis
        E = sym_basis()
        Minv = np.linalg.inv(on_sym(isotropic_tensor(p.lam, p.mu)))
        full = np.einsum("aij,ab,bkl->ijkl", E, Minv, E)
        for _ in range(10):
            S = _random_sym(rng)
            assert np.allclose(
                np.einsum("ijkl,kl->ij", full, S),
                tensor3d.hooke_apply(tensor3d.compliance_params(p), S),
            )


class TestGreenStrain:
    def test_zero(self):
        assert np.all(tensor3d.green_strain(np.zeros((3, 3))) == 0.0)

    def test_rigid_rotations_annihilated(self):
        rng = np.random.default_rng(6)
        Rs = np.array([random_rotation(rng) for _ in range(50)])
        for R in Rs:
            E = tensor3d.green_strain(R - I3)
            assert np.max(np.abs(E)) <= 1e-12
        # the same rotations as a (5, 10, 3, 3) stack, checked point by point
        E = tensor3d.green_strain(Rs.reshape(5, 10, 3, 3) - I3)
        assert E.shape == (5, 10, 3, 3)
        for Ek in E.reshape(-1, 3, 3):
            assert np.max(np.abs(Ek)) <= 1e-12

    def test_uniaxial(self):
        E = tensor3d.green_strain(np.diag([0.1, 0.0, 0.0]))
        assert E[0, 0] == pytest.approx(0.105)
        assert np.max(np.abs(E - np.diag([0.105, 0, 0]))) <= 1e-15

    def test_frame_indifference_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = 0.1 * rng.uniform(-1, 1, (3, 3))
            R = random_rotation(rng)
            g_rot = R @ (I3 + g) - I3
            E1 = tensor3d.green_strain(g)
            E2 = tensor3d.green_strain(g_rot)
            for f in (np.trace, lambda M: np.trace(M @ M), np.linalg.det):
                assert abs(f(E1) - f(E2)) <= 1e-12


class TestStress:
    def test_zero_and_rotation(self):
        rng = np.random.default_rng(8)
        assert np.all(tensor3d.stress(P11, np.zeros((3, 3))) == 0.0)
        R = random_rotation(rng)
        assert np.max(np.abs(tensor3d.stress(P11, R - I3))) <= 1e-12

    def test_uniaxial_value(self):
        sigma = tensor3d.stress(P11, np.diag([0.1, 0.0, 0.0]))
        expected = 0.105 * I3 + 2.0 * np.diag([0.105, 0.0, 0.0])
        assert np.allclose(sigma, expected)


class TestConstructDualsPointwise:
    def test_zero(self):
        Z = np.zeros((3, 3))
        v1, v2, z = tensor3d.construct_duals_pointwise(P11, 0.5, Z, Z)
        assert np.all(v1 == 0) and np.all(v2 == 0) and np.all(z == 0)

    def test_identities(self):
        rng = np.random.default_rng(9)
        gs = 0.1 * rng.uniform(-1, 1, (20, 3, 3))
        for g in gs:
            sigma = tensor3d.stress(P11, g)
            v1, v2, z = tensor3d.construct_duals_pointwise(P11, 0.8, g, sigma)
            assert np.max(np.abs(z + v2 - sigma)) <= 1e-14
            assert np.max(np.abs(v1 + v2 - (I3 + g) @ sigma)) <= 1e-13
        # one stacked call, each point against its own stress
        v1, v2, z = tensor3d.construct_duals_pointwise(P11, 0.8, gs, tensor3d.stress(P11, gs))
        for k, g in enumerate(gs):
            sigma = tensor3d.stress(P11, g)
            assert np.max(np.abs(z[k] + v2[k] - sigma)) <= 1e-14
            assert np.max(np.abs(v1[k] + v2[k] - (I3 + g) @ sigma)) <= 1e-13

    def test_1d_embedding(self):
        # lam = 0, 2 mu = E makes the (1,1) component match the 1D bar
        E_mod = 1.0
        p = LameParams(0.0, E_mod / 2.0)
        ux, K = 0.1, 0.5
        g = np.diag([ux, 0.0, 0.0])
        v1, v2, z = tensor3d.construct_duals_pointwise(p, K, g, tensor3d.stress(p, g))
        assert z[0, 0] == pytest.approx(K * ux)
        assert v2[0, 0] == pytest.approx(
            E_mod * (ux + 0.5 * ux**2) - K * ux
        )
        assert v1[0, 0] == pytest.approx((z[0, 0] + v2[0, 0] + K) * ux)


class TestPdMargin:
    def test_zero(self):
        assert tensor3d.pd_margin(np.zeros((3, 3)), 1.0) == pytest.approx(0.5)

    def test_shifted_identity(self):
        K = 1.0
        assert tensor3d.pd_margin(-K / 4.0 * I3, K) == pytest.approx(K / 4.0)

    def test_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(10)
        K = 0.7
        Ss = np.array([_random_sym(rng) for _ in range(20)])
        margins = tensor3d.pd_margin(Ss, K)
        assert margins.shape == (20,)
        for S, stacked in zip(Ss, margins):
            M = tensor3d.sym(S) + 0.5 * K * I3
            coeffs = np.poly(M)
            roots = np.sort(np.roots(coeffs).real)
            assert abs(tensor3d.pd_margin(S, K) - roots[0]) <= 1e-12
            assert abs(stacked - roots[0]) <= 1e-12


def _exact_inverse(A: np.ndarray) -> list[list[Fraction]]:
    """A^-1 of a 3x3 in rationals, by the adjugate over the determinant."""
    a = [[Fraction(x) for x in row] for row in A.tolist()]
    C = [[a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
          - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]
          for j in range(3)] for i in range(3)]
    det = sum(a[0][j] * C[0][j] for j in range(3))
    return [[C[j][i] / det for j in range(3)] for i in range(3)]


class TestClosedFormKernel:
    """The one PD decision on A = S + K*I (pd_margin) and LAPACK's inverse of
    A against exact arithmetic, and the range-safe norm and cube of bound 1."""

    @staticmethod
    def _stack(rng, eigs):
        """Matrices with sym(A) = Q diag(eigs) Q^T and a random skew part."""
        out = []
        for lam in eigs:
            Q = random_rotation(rng)
            W = rng.uniform(-1.0, 1.0, (3, 3))
            out.append(Q @ np.diag(lam) @ Q.T + (W - W.T))
        return np.array(out).reshape(4, -1, 3, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        upper=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        log_k=st.floats(-6.0, 1.0),
        t=st.floats(0.0, 2.0),
    )
    def test_pd_margin_gates_the_inverse(self, upper, log_k, t):
        # S's smallest eigenvalue sits near -(1 - t) K/2, so pd_margin ~ t K/2
        # draws the gate's edge.  pd_margin >= 0 proves sym(A) positive
        # definite, with lmin at least low = l0 - 20 U (||S|| + K), l0 =
        # pd_margin + K/2 (bound 1), and the inverse X that J*, the z-Hessian
        # and bound 1 share meets bound 1's residual term in exact arithmetic
        import mpmath  # a test-only dependency, declared in the test extra

        K = 10.0**log_k
        B = np.zeros((3, 3))
        B[np.triu_indices(3)] = upper
        B += np.triu(B, 1).T
        S = B - (np.linalg.eigvalsh(B)[0] + (1.0 - t) * 0.5 * K) * I3
        margin = float(tensor3d.pd_margin(S, K))
        assume(margin >= 0.0)
        A = S + K * I3
        assert np.linalg.eigvalsh(A)[0] > 0.0
        nS = np.linalg.norm(S)
        low = margin + 0.5 * K - 20.0 * U * (nS + K)
        assert low > 0.0
        with mpmath.workdps(50):
            assert min(mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)) >= low
        X = np.linalg.inv(A)
        nX = np.linalg.norm(X)
        res = np.linalg.norm(I3 - A @ X) + 8.0 * U * (2.0 + (nS + 2.0 * K) * nX)
        a, x = ([[Fraction(v) for v in row] for row in M.tolist()] for M in (A, X))
        residual = [[int(i == j) - sum(a[i][k] * x[k][j] for k in range(3))
                     for j in range(3)] for i in range(3)]
        assert sum(r * r for row in residual for r in row) <= Fraction(res) ** 2
        # ||A^-1 - X||_F <= ||A^-1||_2 ||I - A X||_F <= res / low
        error = [[e - Fraction(v) for e, v in zip(erow, xrow)]
                 for erow, xrow in zip(_exact_inverse(A), X.tolist())]
        assert sum(e * e for row in error for e in row) <= (Fraction(res) / Fraction(low)) ** 2

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_power_of_two_scale_is_exact(self, k):
        # scaling S and K by 2^k changes neither the decision pd_margin >= 0
        # nor a bit of 2^k times LAPACK's inverse, so neither needs a range
        # scaling at extreme Lame scales
        rng = np.random.default_rng(23)
        eigs = rng.uniform(0.1, 3.0, (400, 3))
        eigs[:100, 0] = -rng.uniform(1e-3, 2.0, 100)
        A = self._stack(rng, eigs)
        S, K = A - I3, 1.0
        decision = tensor3d.pd_margin(S, K) >= 0.0
        assert 0 < np.count_nonzero(decision) < decision.size
        scaled = tensor3d.pd_margin(np.ldexp(S, k), np.ldexp(K, k)) >= 0.0
        assert np.array_equal(scaled, decision)
        pd = A[1:]
        assert np.array_equal(np.ldexp(np.linalg.inv(np.ldexp(pd, k)), k), np.linalg.inv(pd))

    @pytest.mark.parametrize("k", [-1000, -600, -300, 0, 300, 600, 1000])
    def test_range_safe_norm_and_cube(self, k):
        # each rounds as the plain formula where that stays in range, and
        # scales by exact powers of two where it would not: at 2^+-600 the
        # squares and cubes leave the double range, at 2^+-1000 A itself is
        # near the ends of it
        rng = np.random.default_rng(24)
        A = rng.uniform(-1.0, 1.0, (50, 3, 3))
        b = rng.uniform(0.5, 4.0, 50)
        norm, q = tensor3d.frobenius_norm(A), tensor3d.over_cube(b, b)
        if k == 0:
            assert np.array_equal(norm, np.linalg.norm(A, axis=(-2, -1)))
            assert np.array_equal(q, b / b**3)
        assert np.array_equal(tensor3d.frobenius_norm(np.ldexp(A, k)), np.ldexp(norm, k))
        kb = int(np.clip(k, -340, 340))  # b 2^(3 kb) stays a normal double
        assert np.array_equal(tensor3d.over_cube(np.ldexp(b, 3 * kb), np.ldexp(b, kb)), q)
        assert np.array_equal(tensor3d.over_cube(b, -b), np.full(50, np.inf))


class TestConjugateDensities:
    def test_f_star_values(self):
        assert tensor3d.f_star_3d_density(np.zeros((3, 3)), 1.0) == 0.0
        assert tensor3d.f_star_3d_density(I3, 0.5) == pytest.approx(3.0)

    def test_f_star_componentwise(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-1, 1, (3, 3))
        K = 0.9
        expected = sum(z[i, j] ** 2 / (2 * K) for i in range(3) for j in range(3))
        assert tensor3d.f_star_3d_density(z, K) == pytest.approx(expected)

    def test_g_star_zero_and_identity(self):
        Z = np.zeros((3, 3))
        assert tensor3d.g_star_k_density(Z, Z, Z, P11, I3) == 0.0
        K = 0.5
        assert tensor3d.g_star_k_density(I3, Z, Z, P11, I3 / K) == pytest.approx(
            1.5 / K
        )

    def test_coordinate_ascent_does_not_exceed(self):
        rng = np.random.default_rng(12)
        p = P11
        K = 1.0
        g0 = 0.05 * rng.uniform(-1, 1, (3, 3))
        v1, v2, z = tensor3d.construct_duals_pointwise(p, K, g0, tensor3d.stress(p, g0))
        s = v2 + z
        closed = tensor3d.g_star_k_density(v1, v2, z, p, np.linalg.inv(s + K * I3))

        def phi(a, b):
            X = a + 0.5 * b.T @ b
            return float(
                np.sum(a * s) + np.sum(b * v1)
                - 0.5 * np.sum(X * tensor3d.hooke_apply(p, X))
                - 0.5 * K * np.sum(b * b)
            )

        Ainv = np.linalg.inv(s + K * I3)
        b = v1 @ Ainv
        a = tensor3d.hooke_apply(tensor3d.compliance_params(p), s) - 0.5 * b.T @ b
        assert phi(a, b) == pytest.approx(closed, abs=1e-12)
        for _ in range(8):
            for M in (a, b):
                for i in range(3):
                    for j in range(3):
                        x0 = M[i, j]

                        def slice_f(x, M=M, i=i, j=j):
                            old = M[i, j]
                            M[i, j] = x
                            val = phi(a, b)
                            M[i, j] = old
                            return val

                        M[i, j] = golden_max(slice_f, x0 - 0.5, x0 + 0.5)
        assert phi(a, b) <= closed + 1e-6


class TestDstarHessianZ3D:
    def test_v1_zero(self):
        Z = np.zeros((3, 3))
        K = 0.5
        hz = tensor3d.dstar_hessian_z_3d(Z, Z, Z, P11, K, I3 / K)
        expected = np.eye(6) / K - np.linalg.inv(on_sym(isotropic_tensor(1.0, 1.0)))
        assert np.max(np.abs(hz - expected)) <= 1e-14

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(13)
        p = P11
        K = 1.0
        g0 = 0.05 * rng.uniform(-1, 1, (3, 3))
        v1, v2, z = tensor3d.construct_duals_pointwise(p, K, g0, tensor3d.stress(p, g0))
        Ainv = np.linalg.inv(v2 + z + K * I3)
        hz = tensor3d.dstar_hessian_z_3d(v1, v2, z, p, K, Ainv)

        def density(zz):
            Ainv = np.linalg.inv(v2 + zz + K * I3)
            return tensor3d.f_star_3d_density(zz, K) - tensor3d.g_star_k_density(
                v1, v2, zz, p, Ainv
            )

        # the Hessian acts on symmetric arguments: differentiate along an
        # orthonormal symmetric basis
        eps = 1e-4
        fd = np.zeros((6, 6))
        dirs = sym_basis()
        for aa in range(6):
            for bb in range(6):
                da, db = dirs[aa], dirs[bb]
                fd[aa, bb] = (
                    density(z + eps * da + eps * db)
                    - density(z + eps * da - eps * db)
                    - density(z - eps * da + eps * db)
                    + density(z - eps * da - eps * db)
                ) / (4.0 * eps**2)
        assert np.max(np.abs(fd - hz)) <= 1e-5 * (1.0 + np.max(np.abs(hz)))

    def test_bounded_below_by_m_tensor(self):
        rng = np.random.default_rng(14)
        p = P11
        mode = "identity"
        K = tensor3d.admissible_k_max(p, mode) * 0.999
        m_eig = min(tensor3d.m_tensor_eigs(p, K, mode))
        for _ in range(20):
            g0 = rng.uniform(-0.12, 0.12, (3, 3))
            # keep the spectral norm within the range where the Hessian
            # bound is an operator-norm consequence of the hypotheses
            smax = float(np.linalg.norm(g0, 2))
            g0 *= min(1.0, np.sqrt(3.0 / 64.0) / smax)
            v1, v2, z = tensor3d.construct_duals_pointwise(p, K, g0, tensor3d.stress(p, g0))
            if tensor3d.pd_margin(v2 + z, K) < 0:
                continue
            Ainv = np.linalg.inv(v2 + z + K * I3)
            hz = tensor3d.dstar_hessian_z_3d(v1, v2, z, p, K, Ainv)
            assert np.linalg.eigvalsh(hz)[0] >= m_eig - 1e-12


class TestMTensor:
    def test_large_k_negative(self):
        for mode in tensor3d.M_TENSOR_MODES:
            assert min(tensor3d.m_tensor_eigs(P11, 1e6, mode)) < 0.0

    def test_below_threshold_positive(self):
        for mode in tensor3d.M_TENSOR_MODES:
            k_max = tensor3d.admissible_k_max(P11, mode)
            assert min(tensor3d.m_tensor_eigs(P11, 0.5 * k_max, mode)) > 0.0

    def test_identity_mode_analytic_value(self):
        # for lam = mu = 1 the binding constraint is the deviatoric
        # eigenvalue of Hbar (1/(2 mu)): (1 - 3/32)/K = 1/2 at K = 29/16
        assert tensor3d.admissible_k_max(P11, "identity") == pytest.approx(
            29.0 / 16.0, abs=1e-9
        )

    def test_spherical_mode_analytic_value(self):
        # binding constraint is deviatoric: 1/K = 1/(2 mu) at K = 2 mu
        assert tensor3d.admissible_k_max(P11, "spherical") == pytest.approx(
            2.0, abs=1e-9
        )

    def test_closed_form_matches_grid_sweep(self):
        for mode in tensor3d.M_TENSOR_MODES:
            k_closed = tensor3d.admissible_k_max(P11, mode)
            ks = np.linspace(1e-3, 4.0, 2000)
            eigs = np.linalg.eigvalsh(m_tensor_oracle(1.0, 1.0, ks, mode))[:, 0]
            idx = int(np.argmax(eigs <= 0.0))
            k0, k1 = ks[idx - 1], ks[idx]
            e0, e1 = eigs[idx - 1], eigs[idx]
            k_grid = k0 - e0 * (k1 - k0) / (e1 - e0)
            assert abs(k_closed - k_grid) <= 1e-4

    def test_k_max_is_the_sign_change(self):
        # (lam, mu) pairs where the deviatoric bound 2 mu or the spherical
        # bound 3 lam + 2 mu binds, in each mode; the closed-form spectrum
        # (five deviatoric eigenvalues, one spherical) is the oracle's
        for lam, mu in ((1, 1), (0.5, 2), (3, 0.5), (-0.5, 1), (0, 0.5), (2.7, 1.9)):
            p = LameParams(lam, mu)
            for mode in tensor3d.M_TENSOR_MODES:
                k_max = tensor3d.admissible_k_max(p, mode)
                for K, sign in ((k_max * (1 - 1e-6), 1.0), (k_max * (1 + 1e-6), -1.0)):
                    M = m_tensor_oracle(lam, mu, K, mode)
                    eigs = np.linalg.eigvalsh(M)
                    assert sign * eigs[0] > 0
                    dev, bulk = tensor3d.m_tensor_eigs(p, K, mode)
                    closed = np.sort([dev] * 5 + [bulk])
                    scale = 1.0 / K + np.max(np.abs(M))
                    assert np.max(np.abs(closed - eigs)) <= 1e-12 * scale

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            tensor3d.m_tensor_eigs(P11, 1.0, "bogus")
        with pytest.raises(ValueError):
            tensor3d.admissible_k_max(P11, "bogus")
