"""Uniform 1D grid, piecewise-linear nodal fields and piecewise-constant
element fields, midpoint quadrature, and the sup-type norms used by the bar
problem.

Nodal fields are plain numpy arrays of length ``n_elem + 1`` (continuous,
piecewise linear); element fields have length ``n_elem`` and represent values
at element midpoints.  One-point midpoint quadrature is exact for elementwise
constant integrands, which is what makes every discrete duality identity in
this package close to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeMismatch


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, L] with ``n_elem`` elements."""

    length: float
    n_elem: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("bar length must be positive")
        if self.n_elem < 2:
            raise ValueError("need at least 2 elements")
        h = float(self.h)  # a Python float: an overflowing 1/h is inf, not a warning
        if not (h > 0 and 1.0 / h < np.inf):
            raise ValueError(f"mesh step L/n = {h:.3e} needs a finite 1/h > 0")
        object.__setattr__(
            self, "nodes", np.linspace(0.0, self.length, self.n_elem + 1)
        )

    @property
    def h(self) -> float:
        return self.length / self.n_elem

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def check_nodal(self, u: np.ndarray) -> None:
        if u.shape != (self.n_elem + 1,):
            raise SizeMismatch(
                f"nodal field has {u.size} values, expected {self.n_elem + 1}"
            )

    def check_elem(self, f: np.ndarray) -> None:
        if f.shape != (self.n_elem,):
            raise SizeMismatch(
                f"element field has {f.size} values, expected {self.n_elem}"
            )


def derivative(u: np.ndarray, g: Grid1D) -> np.ndarray:
    """Elementwise slope of a piecewise-linear nodal field."""
    g.check_nodal(u)
    ux = u[1:] - u[:-1]
    ux /= g.h
    return ux


def integrate(f: np.ndarray, g: Grid1D) -> float:
    """Midpoint-rule integral over [0, L]."""
    g.check_elem(f)
    return float(np.sum(f) * g.h)


def norm_V(f: np.ndarray) -> float:
    """Sup norm of an element field."""
    return float(np.max(np.abs(f)))
