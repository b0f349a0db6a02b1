"""Batched 3D tensor algebra: isotropic stiffness tensor and its inverse,
Green strain and stress, the closed-form conjugate densities, the dual-field
construction, and the positive-definiteness margin that gates the 3D duality
certificate.

Every pointwise function takes one 3x3 matrix or a stack of shape
(..., 3, 3) and returns one value per point, so the FEM and the certifier
evaluate all quadrature points in one call.

Each isotropic fourth-order tensor is stated once, in closed form: Hooke's
law as its action on a stack (``hooke_apply``) and as a 6x6 Mandel matrix
(``hooke_mandel``; orthonormal on symmetric arguments, sqrt(2) scaling on
shear slots), the compliance as Hooke's law with ``compliance_params``, and
the K-feasibility tensor M by its two eigenvalues (``m_tensor_eigs``).
There is no 3x3x3x3 array.

Positive definiteness of the denominator A = v2 + z + K*I is decided once, by
``pd_margin`` (LAPACK's eigvalsh): a margin >= 0 puts the smallest eigenvalue
of sym(A) at K/2 or more, less rounding.  The conjugate density and the
z-Hessian take A^-1 as an argument, so the caller forms one LAPACK inverse
for them and for its z-side bound.  LAPACK's LU inverse of 2^k A is 2^-k
times that of A, bit for bit, so it stays in range at extreme Lame scales.

Convention note: the conjugate term in v1 is tr(A^-1 v1^T v1) with
A = v2 + z + K*I, the dual construction right-multiplies the displacement
gradient, v1 = grad_u (sigma + K*I), and z pairs with the full gradient.
This is the unique combination under which the stationarity system, the
first-Piola identity v1 + v2 = (I + grad_u) sigma, and the discrete zero-gap
chain all close exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

I3 = np.eye(3)

#: readings of the M tensor's delta term, (3/(32K)) D or (3/(32K)) d_ij d_kl,
#: each with the share of 1/K left in M's eigenvalue on deviators and on the
#: spherical part
M_TENSOR_MODES = {"identity": (29 / 32, 29 / 32), "spherical": (1.0, 23 / 32)}

_MANDEL_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_MANDEL_I, _MANDEL_J = np.array(_MANDEL_PAIRS).T
_MANDEL_SCALE = np.where(_MANDEL_I == _MANDEL_J, 1.0, np.sqrt(2.0))


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(M, -1, -2)


def _tr(M: np.ndarray) -> np.ndarray:
    """Trace over the last two axes, shaped to broadcast against (..., 3, 3)."""
    return np.trace(M, axis1=-2, axis2=-1)[..., None, None]


def sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _t(M))


def sym_to_mandel(S: np.ndarray) -> np.ndarray:
    """Mandel 6-vectors of symmetric tensors; (..., 3, 3) -> (..., 6)."""
    return S[..., _MANDEL_I, _MANDEL_J] * _MANDEL_SCALE


def mandel_to_sym(v: np.ndarray) -> np.ndarray:
    """Symmetric tensors from Mandel 6-vectors; (..., 6) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., _MANDEL_I, _MANDEL_J] = v / _MANDEL_SCALE
    S[..., _MANDEL_J, _MANDEL_I] = v / _MANDEL_SCALE
    return S


#: 9x6 matrix whose columns are the orthonormal symmetric basis tensors,
#: flattened row-major
MANDEL_BASIS_9 = mandel_to_sym(np.eye(6)).reshape(6, 9).T
_MANDEL_I3 = sym_to_mandel(I3)


@dataclass(frozen=True)
class LameParams:
    lam: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not 3.0 * self.lam + 2.0 * self.mu > 0:
            raise ValueError("3*lam + 2*mu must be positive")
        if not math.isfinite((3.0 * abs(self.lam) + 2.0 * self.mu) / self.mu):
            raise ValueError("(3*|lam| + 2*mu)/mu must be a finite double")
        lam, mu = _compliance(self.lam, self.mu)
        if not math.isfinite(2.0 * mu) or not math.isfinite(3.0 * lam + 2.0 * mu):
            raise ValueError("the compliance moduli 1/(2*mu) and 1/(3*lam + 2*mu)"
                             " must be finite doubles")


# bounded: every op draws new Lame parameters, so an unbounded cache would
# grow by one entry per op; 4 holds an op's stiffness, its bound-2 stiffness
# and its compliance
@functools.lru_cache(maxsize=4)
def hooke_mandel(p: LameParams) -> np.ndarray:
    """6x6 Mandel matrix of the isotropic stiffness, lam e e^T + 2 mu I6 with
    e the Mandel vector of I; read-only, shared by the calls with equal p (a
    zero lam's sign does not reach it: -0 + 0 = 0)."""
    H = p.lam * np.outer(_MANDEL_I3, _MANDEL_I3) + 2.0 * p.mu * np.eye(6)
    H.flags.writeable = False
    return H


def compliance_params(p: LameParams) -> LameParams:
    """Lame parameters of the (isotropic) inverse stiffness: it scales
    deviators by 1/(2 mu) = 2 mu' and the spherical part by 1/(3 lam + 2 mu)
    = 3 lam' + 2 mu', so mu' = 1/(4 mu), lam' = -lam/(2 mu (3 lam + 2 mu)),
    formed from lam / 2^e and mu / 2^e past mu = m 2^e, |e| > _SCALE_FREE_EXP.
    Past lam/mu ~ 2e15 the rounding of lam' swallows 3 lam' + 2 mu' > 0, so
    lam' stays at least the next double above -2 mu'/3."""
    lam, mu = _compliance(p.lam, p.mu)
    return LameParams(max(lam, float(np.nextafter(-2.0 * mu / 3.0, 0.0))), mu)


def _compliance(lam: float, mu: float) -> tuple[float, float]:
    """(lam', mu') of ``compliance_params`` before its clamp; (inf, inf) if
    either leaves the double range."""
    e = int(_range_exponent(mu))
    lam, mu = math.ldexp(lam, -e), math.ldexp(mu, -e)
    try:
        return (math.ldexp(-lam / (2.0 * mu * (3.0 * lam + 2.0 * mu)), -e),
                math.ldexp(0.25 / mu, -e))
    except OverflowError:
        return math.inf, math.inf


def hooke_apply(p: LameParams, M: np.ndarray) -> np.ndarray:
    """H : M = lam*tr(M)*I + 2*mu*M for symmetric M, in closed form; a
    caller whose M is symmetric only to rounding passes sym(M)."""
    return p.lam * _tr(M) * I3 + 2.0 * p.mu * M


def green_strain(g: np.ndarray) -> np.ndarray:
    """E = (g + g^T + g^T g) / 2 for a displacement gradient g."""
    # numpy's stacked matmul is about 2x slower on the strided transpose
    return 0.5 * (g + _t(g) + np.ascontiguousarray(_t(g)) @ g)


def stress(p: LameParams, g: np.ndarray) -> np.ndarray:
    """Second Piola stress H : green_strain(g)."""
    return hooke_apply(p, green_strain(g))


def construct_duals_pointwise(
    K: float, g0: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual triple (v1, v2, z) at each displacement gradient g0 with its
    ``stress`` sigma.

    z = K*g0, v2 = sigma - z, v1 = g0 @ (sigma + K*I).  The identities
    z + v2 = sigma and v1 + v2 = (I + g0) sigma hold to rounding.
    """
    z = K * g0
    v2 = sigma - z
    v1 = g0 @ (sigma + K * I3)
    return v1, v2, z


#: x = m 2^e with |e| <= 336 has x^2 and x^3 in [2^-1011, 2^1008], normal
#: doubles: ``compliance_params``, ``frobenius_norm`` and ``over_cube`` scale
#: by 2^-e only past it (exact), so in range they round as the plain formula
_SCALE_FREE_EXP = 336


def _range_exponent(x: np.ndarray) -> np.ndarray:
    e = np.frexp(x)[1]
    return e * (np.abs(e) > _SCALE_FREE_EXP)


def frobenius_norm(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each 3x3, (...): in range wherever the norm is,
    though the squares of A may not be."""
    e = _range_exponent(np.max(np.abs(A), axis=(-2, -1)))
    A = np.ldexp(A, -e[..., None, None])
    return np.ldexp(np.sqrt(np.sum(A * A, axis=(-2, -1))), e)


def over_cube(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b^3 where b > 0, else inf: in range wherever the quotient is,
    though b^3 may not be."""
    e = _range_exponent(b)
    return np.divide(np.ldexp(a, -3 * e), np.ldexp(b, -e) ** 3,
                     out=np.full_like(b, np.inf), where=b > 0.0)


def pd_margin(S: np.ndarray, K: float) -> np.ndarray:
    """Margin of the hypothesis S + K*I >= (K/2)*I, i.e. eigmin(S + K/2*I)."""
    return np.linalg.eigvalsh(sym(S) + 0.5 * K * I3).min(axis=-1)


def f_star_3d_density(z: np.ndarray, K: float) -> np.ndarray:
    """Conjugate density z:z / (2K)."""
    return np.sum(z * z, axis=(-2, -1)) / (2.0 * K)


def g_star_k_density(
    S: np.ndarray, gram: np.ndarray, hbar_S: np.ndarray, Ainv: np.ndarray
) -> np.ndarray:
    """Closed-form density of the perturbed conjugate:
    1/2 tr(A^-1 v1^T v1) + 1/2 (v2+z) : Hbar : (v2+z), A = v2 + z + K*I, from
    the per-point terms S = v2 + z, gram = v1^T v1, hbar_S = Hbar : sym(S)
    (``hooke_apply`` with ``compliance_params``) and Ainv = A^-1, which the
    caller forms once and shares with its z-side bound; it has checked that
    sym(A) is positive definite (``pd_margin`` >= 0), which makes A invertible."""
    return 0.5 * np.sum(Ainv * _t(gram), axis=(-2, -1)) + 0.5 * np.sum(
        S * hbar_S, axis=(-2, -1)
    )


def dstar_hessian_z_3d(
    v1: np.ndarray, A: np.ndarray, Ainv: np.ndarray, c: LameParams, K: float
) -> np.ndarray:
    """6x6 Mandel second derivative of the dual density in z on symmetric
    arguments, (..., 6, 6): I6/K - sym(T) - Hbar, T_ijkl = A^-1_jk Y_li with
    Y = A^-1 v1^T v1 A^-1; A = v2 + z + K*I and A^-1 as in
    ``g_star_k_density``, c the compliance, ``compliance_params``."""
    if np.max(np.abs(A - _t(A))) > 1e-9:
        raise ValueError("Hessian assembly expects a symmetric denominator")
    Y = Ainv @ _t(v1) @ v1 @ Ainv
    T = np.einsum("...jk,...li->...ijkl", Ainv, Y).reshape(A.shape[:-2] + (9, 9))
    T = MANDEL_BASIS_9.T @ T @ MANDEL_BASIS_9
    return np.eye(6) / K - sym(T) - hooke_mandel(c)


def _mode_shares(mode: str) -> tuple[float, float]:
    if mode not in M_TENSOR_MODES:
        raise ValueError(f"mode must be one of {tuple(M_TENSOR_MODES)}")
    return M_TENSOR_MODES[mode]


def m_tensor_eigs(
    p: LameParams, K: float, mode: str = "identity"
) -> tuple[float, float]:
    """Eigenvalues on deviators and on the spherical part of the K-feasibility
    tensor D/K - (3/(32K)) delta-term - Hbar, its whole spectrum on symmetric
    arguments; Hbar has eigenvalues 1/(2 mu) and 1/(3 lam + 2 mu) there, and
    ``mode`` picks the delta term (``M_TENSOR_MODES``)."""
    dev, bulk = _mode_shares(mode)
    return dev / K - 0.5 / p.mu, bulk / K - 1.0 / (3.0 * p.lam + 2.0 * p.mu)


def admissible_k_max(p: LameParams, mode: str = "identity") -> float:
    """Largest K for which the M tensor stays positive definite, in closed
    form: both eigenvalues of ``m_tensor_eigs`` are positive exactly for K
    below dev * 2 mu and bulk * (3 lam + 2 mu)."""
    dev, bulk = _mode_shares(mode)
    return min(dev * (2.0 * p.mu), bulk * (3.0 * p.lam + 2.0 * p.mu))
