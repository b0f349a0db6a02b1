"""Primal-dual certification of local duality principles in nonlinear
elasticity: a 1D bar and a 3D solid with quadratic-in-Green-strain energy."""

from .mesh1d import Grid1D
from .primal1d import BarModel
from .dual1d import DualConfig, DualState1D, GapReport
from .tensor3d import LameParams
from .fem3d import SolidModel, Gap3DReport

__all__ = [
    "Grid1D",
    "BarModel",
    "DualConfig",
    "DualState1D",
    "GapReport",
    "LameParams",
    "SolidModel",
    "Gap3DReport",
]

__version__ = "0.1.0"
