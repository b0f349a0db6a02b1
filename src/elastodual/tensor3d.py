"""Batched 3D tensor algebra: isotropic stiffness tensor and its inverse,
Green strain and stress, the closed-form conjugate densities, the dual-field
construction, and the positive-definiteness checks that gate the 3D duality
certificate.

Every pointwise function takes one 3x3 matrix or a stack of shape
(..., 3, 3) and returns one value per point, so the FEM and the certifier
evaluate all quadrature points in one call.

Fourth-order tensors carry a 6x6 Mandel representation (orthonormal on
symmetric arguments, sqrt(2) scaling on shear slots) alongside a full
3x3x3x3 array for contractions with non-symmetric arguments.

Convention note: the conjugate term in v1 is tr(A^-1 v1^T v1) with
A = v2 + z + K*I, the dual construction right-multiplies the displacement
gradient, v1 = grad_u (sigma + K*I), and z pairs with the full gradient.
This is the unique combination under which the stationarity system, the
first-Piola identity v1 + v2 = (I + grad_u) sigma, and the discrete zero-gap
chain all close exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite

I3 = np.eye(3)

#: interpretation modes for the delta term of the M tensor
M_TENSOR_MODES = ("identity", "spherical")

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


@dataclass(frozen=True)
class LameParams:
    lam: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not 3.0 * self.lam + 2.0 * self.mu > 0:
            raise ValueError("3*lam + 2*mu must be positive")


@dataclass(frozen=True)
class Tensor4Sym:
    """Fourth-order tensor with minor symmetries, stored in both forms."""

    full: np.ndarray  # (3,3,3,3)
    mandel: np.ndarray = field(init=False, repr=False)  # (6,6)

    def __post_init__(self):
        B = MANDEL_BASIS_9
        M9 = self.full.reshape(9, 9)
        object.__setattr__(self, "mandel", B.T @ M9 @ B)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Contraction T_ijkl M_kl (full representation)."""
        return np.einsum("ijkl,kl->ij", self.full, M)

    def as_matrix9(self) -> np.ndarray:
        return self.full.reshape(9, 9)


def min_eig_on_sym(M9: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of 9x9 operators restricted to symmetric
    arguments; (..., 9, 9) -> (...)."""
    B = MANDEL_BASIS_9
    return np.linalg.eigvalsh(sym(B.T @ M9 @ B)).min(axis=-1)


def hooke(p: LameParams) -> Tensor4Sym:
    """Isotropic stiffness lam*d_ij*d_kl + mu*(d_ik*d_jl + d_il*d_jk)."""
    d = I3
    full = (
        p.lam * np.einsum("ij,kl->ijkl", d, d)
        + p.mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )
    return Tensor4Sym(full=full)


def compliance_params(p: LameParams) -> LameParams:
    """Lame parameters of the (isotropic) inverse stiffness: it scales
    deviators by 1/(2 mu) = 2 mu' and the spherical part by 1/(3 lam + 2 mu)
    = 3 lam' + 2 mu', so mu' = 1/(4 mu), lam' = -lam/(2 mu (3 lam + 2 mu)).
    Past lam/mu ~ 2e15 the rounding of lam' swallows 3 lam' + 2 mu' > 0, so
    lam' stays at least the next double above -2 mu'/3."""
    mu = 0.25 / p.mu
    lam = -p.lam / (2.0 * p.mu * (3.0 * p.lam + 2.0 * p.mu))
    return LameParams(max(lam, float(np.nextafter(-2.0 * mu / 3.0, 0.0))), mu)


def hooke_inverse(p: LameParams) -> Tensor4Sym:
    """Inverse of the stiffness on symmetric tensors (the compliance)."""
    return hooke(compliance_params(p))


def hooke_apply(p: LameParams, M: np.ndarray) -> np.ndarray:
    """H : M = lam*tr(M)*I + 2*mu*sym(M), in closed form."""
    return p.lam * _tr(M) * I3 + 2.0 * p.mu * sym(M)


def hooke_inverse_apply(p: LameParams, S: np.ndarray) -> np.ndarray:
    """Compliance action on a symmetric tensor."""
    return hooke_apply(compliance_params(p), S)


def green_strain(g: np.ndarray) -> np.ndarray:
    """E = (g + g^T + g^T g) / 2 for a displacement gradient g."""
    return 0.5 * (g + _t(g) + _t(g) @ g)


def stress(p: LameParams, g: np.ndarray) -> np.ndarray:
    """Second Piola stress H : green_strain(g)."""
    return hooke_apply(p, green_strain(g))


def construct_duals_pointwise(
    p: LameParams, K: float, g0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual triple (v1, v2, z) at each displacement gradient g0.

    z = K*g0, v2 = sigma - z, v1 = g0 @ (sigma + K*I).  The identities
    z + v2 = sigma and v1 + v2 = (I + g0) sigma hold to rounding.
    """
    if not K > 0:
        raise ValueError("K must be positive")
    sigma = stress(p, g0)
    z = K * g0
    v2 = sigma - z
    v1 = g0 @ (sigma + K * I3)
    return v1, v2, z


def _denominator(v2: np.ndarray, z: np.ndarray, K: float) -> np.ndarray:
    return v2 + z + K * I3


def _require_pd(A: np.ndarray) -> np.ndarray:
    """PD check of the symmetric part at every point; returns the inverse of A.

    The error carries the flat index of the worst point and its margin.
    """
    margins = np.ravel(np.linalg.eigvalsh(sym(A))[..., 0])
    k = int(np.argmin(margins))
    margin = float(margins[k])
    if margin <= 0.0:
        raise NotPositiveDefinite(
            f"v2 + z + K*I has smallest symmetric eigenvalue {margin:.6e}"
            f" at point {k}",
            location=k,
            margin=margin,
        )
    return np.linalg.inv(A)


def pd_margin(S: np.ndarray, K: float) -> np.ndarray:
    """Margin of the hypothesis S + K*I >= (K/2)*I, i.e. eigmin(S + K/2*I)."""
    return np.linalg.eigvalsh(sym(S) + 0.5 * K * I3).min(axis=-1)


def f_star_3d_density(z: np.ndarray, K: float) -> np.ndarray:
    """Conjugate density z:z / (2K)."""
    if not K > 0:
        raise ValueError("K must be positive")
    return np.sum(z * z, axis=(-2, -1)) / (2.0 * K)


def g_star_k_density(
    v1: np.ndarray, v2: np.ndarray, z: np.ndarray, p: LameParams, K: float
) -> np.ndarray:
    """Closed-form density of the perturbed conjugate:
    1/2 tr(A^-1 v1^T v1) + 1/2 (v2+z) : Hbar : (v2+z), A = v2 + z + K*I."""
    A = _denominator(v2, z, K)
    Ainv = _require_pd(A)
    S = v2 + z
    return 0.5 * np.trace(Ainv @ _t(v1) @ v1, axis1=-2, axis2=-1) + 0.5 * np.sum(
        S * hooke_inverse_apply(p, S), axis=(-2, -1)
    )


def dstar_hessian_z_3d(
    v1: np.ndarray, v2: np.ndarray, z: np.ndarray, p: LameParams, K: float
) -> np.ndarray:
    """9x9 second derivative of the dual density in z, (..., 9, 9):
    D/K - (inverse-cubed weighted v1 outer product, symmetrized) - Hbar."""
    A = _denominator(v2, z, K)
    if np.max(np.abs(A - _t(A))) > 1e-9:
        raise ValueError("Hessian assembly expects a symmetric denominator")
    Ainv = _require_pd(A)
    Y = Ainv @ _t(v1) @ v1 @ Ainv
    T = 0.5 * (
        np.einsum("...jk,...li->...ijkl", Ainv, Y)
        + np.einsum("...jk,...li->...ijkl", Y, Ainv)
    ).reshape(A.shape[:-2] + (9, 9))
    Hbar9 = hooke_inverse(p).as_matrix9()
    return np.eye(9) / K - T - Hbar9


def m_tensor(p: LameParams, K: float, mode: str = "identity") -> np.ndarray:
    """9x9 form of the K-feasibility tensor D/K - (3/(32K))*delta-term - Hbar.

    ``mode`` picks the reading of the delta term: "identity" uses the
    fourth-order identity D, "spherical" uses the trace projector
    delta_ij*delta_kl.
    """
    if mode not in M_TENSOR_MODES:
        raise ValueError(f"mode must be one of {M_TENSOR_MODES}")
    if not K > 0:
        raise ValueError("K must be positive")
    D9 = np.eye(9)
    if mode == "identity":
        mid = (3.0 / (32.0 * K)) * D9
    else:
        i9 = I3.reshape(9)
        mid = (3.0 / (32.0 * K)) * np.outer(i9, i9)
    return D9 / K - mid - hooke_inverse(p).as_matrix9()


def m_tensor_check(
    p: LameParams, K: float, mode: str = "identity"
) -> tuple[np.ndarray, float]:
    """Assembled M tensor and its smallest eigenvalue on symmetric arguments."""
    M9 = m_tensor(p, K, mode)
    return M9, float(min_eig_on_sym(M9))


def admissible_k_max(p: LameParams, mode: str = "identity") -> float:
    """Largest K for which the M tensor stays positive definite, in closed form.

    On symmetric tensors Hbar has eigenvalue 1/(2 mu) on deviators and
    1/(3 lam + 2 mu) on the spherical part.  The delta term is (3/32)/K on
    both in "identity" mode; in "spherical" mode it is (9/32)/K on the
    spherical part and zero on deviators.  The M tensor is positive
    definite exactly for K below the smaller of the resulting bounds.
    """
    if mode not in M_TENSOR_MODES:
        raise ValueError(f"mode must be one of {M_TENSOR_MODES}")
    dev, bulk = 2.0 * p.mu, 3.0 * p.lam + 2.0 * p.mu
    if mode == "identity":
        return (29.0 / 32.0) * min(dev, bulk)
    return min(dev, (23.0 / 32.0) * bulk)
