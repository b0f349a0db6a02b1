"""LAPACK's banded Cholesky factor and solves, in upper band storage, from the
OpenBLAS that numpy's wheels bundle (scipy-openblas64: ILP64 Fortran symbols
``scipy_<name>_64_``), called through ctypes, so the box needs only numpy.
Each call copies its inputs to Fortran order and reports LAPACK's info as
scipy.linalg's wrappers do."""

import ctypes
import functools

import numpy as np
from numpy._core import _multiarray_umath
from numpy.linalg import LinAlgError

from .errors import MissingRoutine

#: each routine's arguments before info: C a char, I an integer, A the data
#: of a float64 Fortran array; after info come the hidden lengths of the chars
_SIGNATURES = {"dpbtrf": "CIIAI", "dpbtrs": "CIIIAIAI", "dtbtrs": "CCCIIIAIAI"}
_TYPES = {"C": ctypes.c_char_p, "I": ctypes.POINTER(ctypes.c_int64), "A": ctypes.c_void_p}


@functools.cache
def _routine(name: str):
    symbol, signature = f"scipy_{name}_64_", _SIGNATURES[name]
    try:  # dlsym through a numpy extension's handle also searches its libraries
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__), symbol)
    except AttributeError:
        raise MissingRoutine(
            f"this numpy does not export LAPACK's {name} as {symbol}; the 3D solve "
            "needs a numpy wheel that bundles scipy-openblas64 (PyPI, numpy >= 2.0)"
        ) from None
    fn.argtypes = ([_TYPES[t] for t in signature] + [_TYPES["I"]]
                   + [ctypes.c_size_t] * signature.count("C"))
    fn.restype = None
    return fn


def _lapack(name: str, *args) -> int:
    """LAPACK's info of ``name`` called on ``args`` (bytes, int, float64 Fortran
    ndarray as its signature says); ``ValueError`` for an illegal argument."""
    info = ctypes.c_int64()
    refs = [a.ctypes.data if isinstance(a, np.ndarray) else
            ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int) else a for a in args]
    _routine(name)(*refs, ctypes.byref(info), *[1] * _SIGNATURES[name].count("C"))
    if info.value < 0:
        raise ValueError(f"illegal value in {info.value}-th argument of internal {name[1:]}")
    return info.value


def factor(ab: np.ndarray) -> np.ndarray:
    """Upper band Cholesky factor R, R^T R = A, of A in upper band storage ab,
    (band + 1, n); ``LinAlgError`` if A is not positive definite."""
    c = np.array(ab, dtype=float, order="F")
    if c.ndim != 2:
        raise ValueError("expected a band of shape (band + 1, n)")
    info = _lapack("dpbtrf", b"U", c.shape[1], c.shape[0] - 1, c, c.shape[0])
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    return c


def _operands(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factor c and a Fortran copy of b, whose shape must be (n,)."""
    c, x = np.asfortranarray(c, dtype=float), np.array(b, dtype=float, order="F")
    if c.ndim != 2 or x.shape != c.shape[1:]:
        raise ValueError("shapes of the factor and the right-hand side are not compatible")
    return c, x


def solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with R^T R x = b, R the factor c of ``factor``."""
    c, x = _operands(c, b)
    _lapack("dpbtrs", b"U", c.shape[1], c.shape[0] - 1, 1, c, c.shape[0], x, x.size)
    return x


def solve_transposed(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with R^T y = b, R the factor c of ``factor``."""
    c, y = _operands(c, b)
    _lapack("dtbtrs", b"U", b"T", b"N", c.shape[1], c.shape[0] - 1, 1, c, c.shape[0],
            y, y.size)
    return y
