"""LAPACK's banded Cholesky factor and solves, in upper band storage, from the
OpenBLAS that numpy's wheels bundle (scipy-openblas64: ILP64 Fortran symbols
``scipy_<name>_64_``), called through ctypes, so the box needs only numpy.
Each call copies its inputs to Fortran order and reports LAPACK's info as
scipy.linalg's wrappers do; each routine's char and integer arguments are
built once per band shape."""

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


# three entries per band shape (the factor and the two solves): 32 hold the
# 7 shapes of perfbench's box3d_certify
@functools.lru_cache(maxsize=32)
def _arguments(name: str, *scalars) -> tuple:
    """``name``'s argument list with its chars and integers ``scalars`` in
    place, the integers as int64 by reference, None in each array's place;
    the positions of those; and the hidden lengths of the chars: built once
    per routine and band shape."""
    signature, values = _SIGNATURES[name], iter(scalars)
    refs = [None if t == "A" else ctypes.byref(ctypes.c_int64(next(values))) if t == "I"
            else next(values) for t in signature]
    slots = [k for k, t in enumerate(signature) if t == "A"]
    return refs, slots, (1,) * signature.count("C")


def _lapack(name: str, scalars: tuple, *arrays: np.ndarray) -> int:
    """LAPACK's info of ``name`` called on its chars and integers ``scalars``
    (bytes, int) and its float64 Fortran ``arrays``, each in the order of its
    signature; ``ValueError`` for an illegal argument."""
    refs, slots, lengths = _arguments(name, *scalars)
    refs, info = refs.copy(), ctypes.c_int64()
    for k, a in zip(slots, arrays):
        refs[k] = a.ctypes.data
    _routine(name)(*refs, ctypes.byref(info), *lengths)
    if info.value < 0:
        raise ValueError(f"illegal value in {info.value}-th argument of internal {name[1:]}")
    return info.value


def factor(ab: np.ndarray) -> np.ndarray:
    """Upper band Cholesky factor R, R^T R = A, of A in upper band storage ab,
    (band + 1, n); ``LinAlgError`` if A is not positive definite."""
    c = np.array(ab, dtype=float, order="F")
    if c.ndim != 2:
        raise ValueError("expected a band of shape (band + 1, n)")
    info = _lapack("dpbtrf", (b"U", c.shape[1], c.shape[0] - 1, c.shape[0]), c)
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
    _lapack("dpbtrs", (b"U", c.shape[1], c.shape[0] - 1, 1, c.shape[0], x.size), c, x)
    return x


def solve_transposed(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with R^T y = b, R the factor c of ``factor``."""
    c, y = _operands(c, b)
    _lapack("dtbtrs", (b"U", b"T", b"N", c.shape[1], c.shape[0] - 1, 1, c.shape[0], y.size),
            c, y)
    return y
