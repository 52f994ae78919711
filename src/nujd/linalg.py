"""Dense complex factorizations used by the algebraic solvers.

The Takagi factorization C = U diag(sigma) U^T of a complex symmetric
C = A + iB comes from one real symmetric eigendecomposition: u = x + iy
satisfies C conj(u) = sigma u exactly when [x; y] is an eigenvector of
H = [[A, B], [B, -A]] for the eigenvalue sigma, and the spectrum of H is
+-sigma.  The m largest eigenpairs of H give U and sigma.  Any orthonormal
eigenbasis of a repeated sigma is a Takagi basis, so equal singular values
need no rule of their own (Horn & Johnson, Matrix Analysis, 2nd ed., 4.4;
Bunse-Gerstner & Gragg, J. Comput. Appl. Math. 21, 1988).  The general
eigendecomposition and the complex-orthogonal polar factor below are the
other two steps of the PUT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import KAPPA_MAX, POLAR_TOL, TAU_RHO, CongruenceKind, GLElement, TaggedMatrix, _exponent, as_complex_matrix, below_floor
from .errors import (
    DefectiveMatrix,
    OrthogonalizationFailure,
    SingularMatrix,
)


@dataclass(frozen=True)
class TakagiFactorization:
    """C = U diag(sigma) U^T with unitary U and nonincreasing sigma >= 0."""

    u: np.ndarray
    sigma: np.ndarray


def takagi(c) -> TakagiFactorization:
    """Takagi factorization of a complex symmetric matrix.

    The input is validated as a transpose-kind ``TaggedMatrix`` (symmetric
    within ``TAU_SYM``) and symmetrized as (C + C^T)/2.  U and sigma are the m
    largest eigenpairs of H = [[A, B], [B, -A]], C = A + iB, with sigma
    clipped at 0.  A zero sigma of multiplicity k >= 2 has a 2k-dimensional
    eigenspace in H, and k vectors taken from it need not be orthonormal as
    complex columns, so U is replaced by Q diag(r_kk / |r_kk|) from its QR
    factorization (phase 1 where r_kk = 0); orthonormal columns keep their
    values to rounding.  Column signs follow ``sign_normalize_columns``.
    With degenerate singular values U is not unique; any unitary U with
    U diag(sigma) U^T = C is a valid answer, so callers should test
    U diag(sigma) U^T against C, not U.
    """
    m = TaggedMatrix(c, CongruenceKind.TRANSPOSE).matrix
    m = (m + m.T) / 2.0
    n = m.shape[0]
    # -H, so that eigh's ascending order puts the n largest sigma first
    h = np.empty((2 * n, 2 * n))
    np.negative(m.real, out=h[:n, :n])
    np.negative(m.imag, out=h[:n, n:])
    np.negative(m.imag, out=h[n:, :n])
    h[n:, n:] = m.real
    values, vectors = np.linalg.eigh(h)
    top = vectors[:, :n]
    q, r = np.linalg.qr(top[:n] + 1j * top[n:])
    d = r.diagonal()
    mags = np.abs(d)
    u = q * np.divide(d, mags, out=np.ones(n, dtype=np.complex128), where=mags > 0)
    sigma = np.maximum(-values[:n], 0.0)
    return TakagiFactorization(u=sign_normalize_columns(u), sigma=sigma)


def unit_phase_columns(w: np.ndarray) -> np.ndarray:
    """``w`` with unit-norm columns, each column's largest-magnitude entry
    made real positive (the deterministic phase of an eigenvector)."""
    w = w / np.linalg.norm(w, axis=0)
    anchors = np.argmax(np.abs(w), axis=0)
    phases = w[anchors, np.arange(w.shape[1])]
    return w * (np.abs(phases) / phases)


def sign_normalize_columns(x: np.ndarray) -> np.ndarray:
    """``x`` with column signs flipped so that the conjugate z of each
    column's largest-magnitude entry (the first on ties), which leads its
    row of X^H, has Re z > 0, or Re z = 0 and Im z >= 0.

    Only +-1 flips are allowed: they keep a Takagi factor's U diag(s) U^T
    and a demixer's X^H C2 conj(X) = I, which a complex phase would break.
    """
    z = x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])].conj()  # rows of X^H
    flip = (z.real < 0) | ((z.real == 0) & (z.imag < 0))
    out = x.copy()
    np.negative(out, out=out, where=flip)
    return out


def general_evd(c) -> tuple[GLElement, np.ndarray]:
    """General (non-normal) eigendecomposition C W = W diag(lam).

    Eigenvalues are sorted by descending magnitude, ties broken by
    descending real part then descending imaginary part.  Columns of W have
    unit norm and their largest-magnitude entry made real positive.  A
    numerically defective input (eigenvector matrix condition above the
    global ceiling) is rejected.
    """
    m = as_complex_matrix(c)
    lam, w = np.linalg.eig(m)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam = lam[order]
    w = unit_phase_columns(w[:, order])
    # GLElement's one SVD certifies W; its floor sigma_min <= sigma_max / KAPPA_MAX is the
    # condition ceiling, and a W that passes it has cond <= KAPPA_MAX after rounding
    try:
        gl = GLElement(w)
    except SingularMatrix:
        raise DefectiveMatrix(
            "matrix is numerically defective: eigenvector condition exceeds "
            f"{KAPPA_MAX:.0e}"
        ) from None
    return gl, lam


def symmetric_orthogonalize(w: GLElement) -> np.ndarray:
    """Complex-orthogonal polar factor V = W (W^T W)^{-1/2}.

    G = W^T W is formed once.  When every off-diagonal entry satisfies
    |g_kl| <= TAU_RHO sqrt(|g_kk| |g_ll|), as it does to rounding for the
    eigenvectors of a complex symmetric matrix with distinct eigenvalues,
    G^{-1/2} is taken to first order about diag(G).  With r = sqrt(diag G)
    (principal roots) and F the off-diagonal part of G,

        V = W diag(r)^{-1} (I - K),   K_kl = F_kl / (r_l (r_k + r_l)),

    so V differs from the exact polar factor by O(TAU_RHO^2) and, on an
    exactly diagonal G, is the column scaling W diag(r)^{-1}.  Every other G
    takes its principal square root through an eigendecomposition, root
    branch arg in (-pi/2, pi/2], and fails when that eigenbasis is
    ill-conditioned.  Both branches fail when G is numerically singular
    (columns of W are complex-isotropic; the singular values of a diagonal G
    are its |g_kk|) or when the result does not satisfy V^T V = I to the
    module tolerance.
    """
    # V does not change under W -> cW, so W is scaled by an exact power of two
    # that keeps W^T W and its products clear of overflow and underflow
    mat = w.matrix * math.ldexp(1.0, -_exponent(w.matrix))
    m = mat.T @ mat
    d = m.diagonal()
    mags = np.abs(d)
    off = m - np.diag(d)
    diagonal = np.all(np.abs(off) <= TAU_RHO * np.sqrt(mags[:, None] * mags))
    svals = mags if diagonal else np.linalg.svd(m, compute_uv=False)
    if below_floor(svals.min(), svals.max()):
        raise OrthogonalizationFailure(
            "W^T W is numerically singular; no complex-orthogonal polar part"
        )
    if diagonal:
        r = np.sqrt(d)
        v = mat / r
        v = v - v @ (off / (r * (r[:, None] + r)))
    else:
        vals, vecs = np.linalg.eig(m)
        if np.linalg.cond(vecs) > KAPPA_MAX:
            raise OrthogonalizationFailure("W^T W has an ill-conditioned eigenbasis")
        inv_root = vecs @ (np.diag(1.0 / np.sqrt(vals.astype(np.complex128))))
        inv_root = inv_root @ np.linalg.inv(vecs)
        v = mat @ inv_root
    n = mat.shape[0]
    err = float(np.linalg.norm(v.T @ v - np.eye(n)))
    if err > POLAR_TOL * n:
        raise OrthogonalizationFailure(
            f"polar factor failed V^T V = I check: error {err:.3e}"
        )
    return v
