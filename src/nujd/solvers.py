"""Algebraic joint diagonalizers for one Hermitian + one complex symmetric pair.

The pseudo-uncorrelating transform (PUT) whitens the transpose-congruence
matrix C2 through its Takagi factorization C2 = U S U^T, forms the whitened
Hermitian statistic C1~ = S^{-1/2} U^H C1 U S^{-1/2}, eigendecomposes
C1~ C1~^T = W L W^{-1}, restores complex orthogonality with
V = W (W^T W)^{-1/2}, and returns X = U S^{-1/2} conj(V).  Then
X^H C2 conj(X) = I holds for any invertible symmetric C2, and X^H C1 X is
diagonal exactly when the pair is jointly diagonalizable and the eigenvalues
of C1~ C1~^T are pairwise distinct.  The strong uncorrelating transform is
the positive-definite specialization of the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    EIG_GAP_WARN, GEVD_GAP, TINY,
    CongruenceKind,
    GLElement,
    TaggedMatrix,
    below_floor,
    fro_ratio,
    offdiag_residual,
)
from .errors import (
    ConfigError,
    DegenerateSpectrum,
    DegenerateSpectrumWarning,
    DimensionMismatch,
    InvalidPrecondition,
    NotPositiveDefinite,
    SingularPseudoCovariance,
    SingularSecondMatrix,
    warn,
)
from .linalg import (
    TakagiFactorization,
    general_evd,
    sign_normalize_columns,
    symmetric_orthogonalize,
    takagi,
    unit_phase_columns,
)


@dataclass(frozen=True)
class PutResult:
    """Output of the PUT/SUT pipeline.

    ``lam`` is the diagonal of X^H C1 X in the eigenvalue sort order;
    ``eig_gap`` is the smallest relative gap among the eigenvalue magnitudes
    of the whitened product, which callers should inspect before trusting
    the diagonalization (a degenerate spectrum means the demixer is not
    essentially unique).  ``residual_identity`` is ||X^H C2 conj(X) - I||_F
    and ``residual_offdiag`` the off-diagonal mass of X^H C1 X relative to
    ||C1||_F; on exactly diagonalizable pairs both sit at rounding level,
    on estimated statistics they reflect the sampling error.  A gevd solve
    (``solve_pair``) has no Takagi factor, gap or identity residual, so those
    fields are None and ``residual_offdiag`` is ``core.offdiag_residual``.
    """

    x: GLElement
    lam: np.ndarray
    takagi: Optional[TakagiFactorization]
    eig_gap: Optional[float]
    residual_identity: Optional[float]
    residual_offdiag: float


def _relative_gap(values: np.ndarray) -> float:
    mags = np.abs(np.asarray(values, dtype=np.complex128))
    if mags.size < 2:
        return float("inf")
    scale = float(np.max(mags))
    if scale == 0.0:
        return 0.0
    s = np.sort(mags)
    return float(np.min(np.diff(s)) / scale)


def put(c1: TaggedMatrix, c2: TaggedMatrix) -> PutResult:
    """Pseudo-uncorrelating transform of a (Hermitian, transpose) pair.

    Requires ``c1`` Hermitian kind and ``c2`` transpose kind with all Takagi
    singular values above the invertibility floor.  Emits a
    DegenerateSpectrumWarning when the whitened eigenvalue gap falls below
    ``EIG_GAP_WARN``, in which case the returned demixer is not trustworthy.
    """
    if c1.kind is not CongruenceKind.HERMITIAN:
        raise InvalidPrecondition("c1 must be Hermitian kind")
    if c2.kind is not CongruenceKind.TRANSPOSE:
        raise InvalidPrecondition("c2 must be transpose kind")
    if c1.m != c2.m:
        raise DimensionMismatch("c1 and c2 must share a dimension")
    m = c1.m
    tak = takagi(c2.matrix)
    if below_floor(tak.sigma[-1], tak.sigma[0]):
        raise SingularPseudoCovariance(
            f"Takagi singular value {m - 1} is below the floor "
            f"({tak.sigma[-1]:.3e})",
            index=m - 1,
        )
    isq = 1.0 / np.sqrt(tak.sigma)
    uh = tak.u.conj().T
    c1t = (isq[:, None] * (uh @ c1.matrix @ tak.u)) * isq[None, :]
    c1t = (c1t + c1t.conj().T) / 2.0
    w, lam2 = general_evd(c1t @ c1t.T)
    gap = _relative_gap(lam2)
    if gap < EIG_GAP_WARN:
        warn(
            f"whitened eigenvalue gap {gap:.3e} is degenerate; the demixer "
            "is not essentially unique",
            DegenerateSpectrumWarning,
        )
    v = symmetric_orthogonalize(w)
    x = tak.u @ (isq[:, None] * v.conj())
    x = sign_normalize_columns(x)
    xh = x.conj().T
    d1 = xh @ c1.matrix @ x
    lam = np.diag(d1).copy()
    resid_id = float(np.linalg.norm(xh @ c2.matrix @ x.conj() - np.eye(m)))
    resid_off = fro_ratio(d1 - np.diag(lam), c1.matrix)
    return PutResult(
        x=GLElement(x),
        lam=lam,
        takagi=tak,
        eig_gap=gap,
        residual_identity=resid_id,
        residual_offdiag=resid_off,
    )


def sut(c_hermitian_pd: TaggedMatrix, c_symmetric: TaggedMatrix) -> PutResult:
    """Strong uncorrelating transform, realized through the PUT pipeline.

    Additionally requires the Hermitian matrix positive definite.  When it
    is the covariance matrix, the diagonal of the whitened statistic is the
    reciprocal of the source circularity coefficients.
    """
    if c_hermitian_pd.kind is not CongruenceKind.HERMITIAN:
        raise InvalidPrecondition("the first matrix must be Hermitian kind")
    eig = np.linalg.eigvalsh((c_hermitian_pd.matrix + c_hermitian_pd.matrix.conj().T) / 2)
    if below_floor(eig[0], eig[-1]):
        raise NotPositiveDefinite(
            f"Hermitian matrix is not positive definite (min eigenvalue {eig[0]:.3e})"
        )
    return put(c_hermitian_pd, c_symmetric)


def two_matrix_same_kind(c1: TaggedMatrix, c2: TaggedMatrix) -> GLElement:
    """Joint diagonalizer of two same-kind matrices via a generalized EVD.

    Eigenvectors of C1 C2^{-1} carry the mixing columns, so X = W^{-H}
    diagonalizes both congruences.  Requires C2 invertible and the spectrum
    of C1 C2^{-1} pairwise distinct; a degenerate spectrum is fatal here
    because the diagonalizer is then not essentially unique.
    """
    if c1.kind is not c2.kind:
        raise InvalidPrecondition("both matrices must have the same congruence kind")
    if c1.m != c2.m:
        raise DimensionMismatch("c1 and c2 must share a dimension")
    svals = np.linalg.svd(c2.matrix, compute_uv=False)
    if below_floor(svals[-1], svals[0]):
        raise SingularSecondMatrix("the second matrix is numerically singular")
    m = np.linalg.solve(c2.matrix.T, c1.matrix.T).T
    w, lam = general_evd(m)
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    scale = max(float(np.max(np.abs(lam))), TINY)
    if float(gaps.min()) / scale <= GEVD_GAP:
        raise DegenerateSpectrum(
            "spectrum of C1 C2^{-1} has coinciding eigenvalues; the joint "
            "diagonalizer is not essentially unique"
        )
    xh = np.linalg.solve(w.matrix, np.eye(c1.m))
    # unit-norm rows of X^H, each with its largest entry real positive
    return GLElement(unit_phase_columns(xh.T).conj())


def solve_pair(items, method: str) -> PutResult:
    """Closed-form joint diagonalizer of a two-matrix set by ``method``.

    ``put`` and ``sut`` take one Hermitian and one transpose matrix, in
    either order; ``gevd`` takes two matrices of one kind and diagonalizes
    them by ``two_matrix_same_kind``, with ``lam`` the diagonal of the first
    matrix under X.  Raises ConfigError for a set the method cannot consume.
    """
    if method == "gevd":
        if len(items) != 2 or items[0].kind is not items[1].kind:
            raise ConfigError("gevd needs exactly two matrices of one kind")
        x = two_matrix_same_kind(items[0], items[1])
        xm = x.matrix
        lam = np.diag(xm.conj().T @ items[0].matrix @ (
            xm if items[0].kind is CongruenceKind.HERMITIAN else xm.conj()
        ))
        return PutResult(x, lam, None, None, None, offdiag_residual(items, x))
    herm = [t for t in items if t.kind is CongruenceKind.HERMITIAN]
    sym = [t for t in items if t.kind is CongruenceKind.TRANSPOSE]
    if len(herm) != 1 or len(sym) != 1:
        raise ConfigError(
            f"{method} needs exactly one Hermitian and one transpose matrix, "
            f"got {len(herm)} + {len(sym)}"
        )
    return (sut if method == "sut" else put)(herm[0], sym[0])
