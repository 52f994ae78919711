"""Dense complex factorizations used by the algebraic solvers.

The Takagi factorization is computed from an SVD of the symmetrized input:
if C = P S Q^H with C complex symmetric, the unitary mixer Z = P^H conj(Q)
is block diagonal with respect to clusters of equal singular values, and
U = P Z^{1/2} (principal square root per block, eigenphases halved) gives
C = U S U^T.  Clustering generously is safe; splitting a true cluster is not,
so the cluster tolerance is wider than machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GLElement, KAPPA_MAX, TAU_RHO, TAU_SYM, as_complex_matrix, below_floor
from .errors import (
    DefectiveMatrix,
    OrthogonalizationFailure,
    SingularMatrix,
    SymmetryViolation,
)

_CLUSTER_RTOL = 1e-7


@dataclass(frozen=True)
class TakagiFactorization:
    """C = U diag(sigma) U^T with unitary U and nonincreasing sigma >= 0."""

    u: np.ndarray
    sigma: np.ndarray


def _unitary_sqrt(s: np.ndarray) -> np.ndarray:
    """Principal square root of a (numerically) unitary matrix.

    Schur form of a normal matrix is diagonal, so this is eigenphase halving
    in an orthonormal basis; the branch maps arg to (-pi/2, pi/2].
    """
    import scipy.linalg  # only clusters of size >= 2 need it

    t, z = scipy.linalg.schur(s, output="complex")
    return z @ (np.sqrt(np.diag(t))[:, None] * z.conj().T)


def takagi(c) -> TakagiFactorization:
    """Takagi factorization of a complex symmetric matrix.

    The input is symmetrized as (C + C^T)/2 first and must be symmetric
    within ``TAU_SYM`` relative Frobenius error.  With degenerate singular
    values U is not unique; any unitary U with U diag(sigma) U^T = C is a
    valid answer, so callers should test U diag(sigma) U^T against C, not U.
    """
    m = as_complex_matrix(c, square=True)
    scale = float(np.linalg.norm(m))
    if float(np.linalg.norm(m - m.T)) > TAU_SYM * max(scale, np.finfo(float).tiny):
        raise SymmetryViolation("takagi requires a complex symmetric matrix")
    m = (m + m.T) / 2.0
    p, sigma, qh = np.linalg.svd(m)
    s = p.conj().T @ qh.T  # unitary, block diagonal over sigma clusters
    n = m.shape[0]
    u = np.zeros((n, n), dtype=np.complex128)
    values = sigma.tolist()
    gap = _CLUSTER_RTOL * max(values[0] if n else 0.0, 1e-300)
    singles = []
    start = 0
    for i in range(1, n + 1):
        if i == n or values[start] - values[i] > gap:
            if i - start == 1:
                singles.append(start)
            else:
                idx = slice(start, i)
                u[:, idx] = p[:, idx] @ _unitary_sqrt(s[idx, idx])
            start = i
    # a 1x1 block is its own Schur form (t = s, z = [[1]]), so its root is the
    # scalar principal root, bit for bit what _unitary_sqrt's Schur path gives;
    # the batched (n, 1) @ (1, 1) products are the per-cluster ones, bit for bit
    roots = np.sqrt(s[singles, singles])
    u[:, singles] = np.matmul(p[:, singles].T[:, :, None], roots[:, None, None])[:, :, 0].T
    return TakagiFactorization(u=u, sigma=sigma)


def unit_phase_columns(w: np.ndarray) -> np.ndarray:
    """``w`` with unit-norm columns, each column's largest-magnitude entry
    made real positive (the deterministic phase of an eigenvector)."""
    w = w / np.linalg.norm(w, axis=0)
    anchors = np.argmax(np.abs(w), axis=0)
    phases = w[anchors, np.arange(w.shape[1])]
    return w * (np.abs(phases) / phases)


def general_evd(c) -> tuple[GLElement, np.ndarray]:
    """General (non-normal) eigendecomposition C W = W diag(lam).

    Eigenvalues are sorted by descending magnitude, ties broken by
    descending real part then descending imaginary part.  Columns of W have
    unit norm and their largest-magnitude entry made real positive.  A
    numerically defective input (eigenvector matrix condition above the
    global ceiling) is rejected.
    """
    m = as_complex_matrix(c, square=True)
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
    mat = w.matrix
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
    if err > 1e-8 * n:
        raise OrthogonalizationFailure(
            f"polar factor failed V^T V = I check: error {err:.3e}"
        )
    return v
