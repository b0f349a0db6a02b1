"""Unit tests for the 1D grid, field operations, quadrature, and norms."""

import numpy as np
import pytest

from elastodual.errors import SizeMismatch
from elastodual.mesh1d import Grid1D, derivative, integrate, norm_V

from conftest import average_to_midpoints, interp_linear, norm_U


class TestGrid1D:
    def test_nodes_uniform_and_increasing(self):
        g = Grid1D(2.0, 5)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert np.all(np.diff(g.nodes) > 0)
        assert np.allclose(np.diff(g.nodes), g.h)

    def test_midpoints(self):
        g = Grid1D(1.0, 4)
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 4)
        with pytest.raises(ValueError):
            Grid1D(1.0, 1)

    def test_size_checks(self):
        g = Grid1D(1.0, 4)
        with pytest.raises(SizeMismatch):
            g.check_nodal(np.zeros(4))
        with pytest.raises(SizeMismatch):
            g.check_elem(np.zeros(5))
        with pytest.raises(SizeMismatch):  # one field per call, not a stack
            g.check_nodal(np.zeros((2, 5)))


class TestDerivative:
    def test_zero(self):
        g = Grid1D(1.0, 8)
        assert np.all(derivative(np.zeros(9), g) == 0.0)

    def test_linear(self):
        g = Grid1D(3.0, 6)
        assert np.allclose(derivative(g.nodes.copy(), g), 1.0)

    def test_parabola_hand_values(self):
        g = Grid1D(1.0, 4)
        u = g.nodes * (1.0 - g.nodes)
        assert np.allclose(derivative(u, g), [0.75, 0.25, -0.25, -0.75])

    def test_bit_identical_to_plain_expression(self):
        g = Grid1D(1.3, 1024)
        u = np.random.default_rng(3).uniform(-1.0, 1.0, 1025)
        assert np.array_equal(derivative(u, g), np.diff(u) / g.h)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            derivative(np.zeros(5), Grid1D(1.0, 8))


class TestIntegrate:
    def test_zero(self):
        assert integrate(np.zeros(8), Grid1D(1.0, 8)) == 0.0

    def test_constant(self):
        g = Grid1D(2.5, 10)
        assert integrate(np.full(10, 3.0), g) == pytest.approx(7.5)

    def test_midpoint_rule_parabola(self):
        g = Grid1D(1.0, 64)
        f = g.midpoints**2
        assert abs(integrate(f, g) - 1.0 / 3.0) < 1e-4

    def test_linearity(self):
        g = Grid1D(1.0, 16)
        rng = np.random.default_rng(0)
        f1, f2 = rng.standard_normal(16), rng.standard_normal(16)
        lhs = integrate(2.0 * f1 - 3.0 * f2, g)
        rhs = 2.0 * integrate(f1, g) - 3.0 * integrate(f2, g)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_telescoping(self):
        g = Grid1D(1.0, 32)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(33)
        assert integrate(derivative(u, g), g) == pytest.approx(
            u[-1] - u[0], abs=1e-12
        )


class TestNormU:
    def test_zero(self):
        assert norm_U(np.zeros(9), Grid1D(1.0, 8)) == 0.0

    def test_linear(self):
        g = Grid1D(1.0, 8)
        assert norm_U(g.nodes.copy(), g) == pytest.approx(2.0)

    def test_parabola(self):
        g = Grid1D(1.0, 64)
        u = g.nodes * (1.0 - g.nodes)
        assert abs(norm_U(u, g) - 1.0) < 1e-3

    def test_triangle_inequality(self):
        g = Grid1D(1.0, 16)
        rng = np.random.default_rng(2)
        for _ in range(50):
            u, v = rng.standard_normal(17), rng.standard_normal(17)
            assert norm_U(u + v, g) <= norm_U(u, g) + norm_U(v, g) + 1e-14

    @pytest.mark.parametrize("shape", [(1025,)])
    def test_bit_identical_to_plain_expression(self, shape):
        # norm_U works on in-place temporaries; it must round exactly as the
        # plain expression below
        g = Grid1D(1.3, 1024)
        u = np.random.default_rng(7).uniform(-1e-2, 1e-2, shape)
        ux = np.diff(u) / g.h
        endpoint_max = np.maximum(np.abs(u[:-1]), np.abs(u[1:]))
        plain = np.max(endpoint_max + np.abs(ux))
        assert norm_U(u, g) == plain


class TestNormV:
    def test_zero(self):
        assert norm_V(np.zeros(8)) == 0.0

    def test_hand_value(self):
        assert norm_V(np.array([-3.0, 2.0])) == 3.0

    def test_sine_samples(self):
        g = Grid1D(1.0, 64)
        assert abs(norm_V(np.sin(np.pi * g.midpoints)) - 1.0) < 1e-3

    def test_definiteness_and_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f, e = rng.standard_normal(8), rng.standard_normal(8)
            assert norm_V(f + e) <= norm_V(f) + norm_V(e) + 1e-14
            if norm_V(f) == 0.0:
                assert np.all(f == 0.0)


def test_average_to_midpoints():
    # the nodal energy oracle's load quadrature: the P1 field at the midpoints
    g = Grid1D(1.0, 4)
    u = g.nodes**2
    assert np.allclose(average_to_midpoints(u, g), interp_linear(u, g, g.midpoints)[0])
    with pytest.raises(SizeMismatch):
        average_to_midpoints(u[:-1], g)
