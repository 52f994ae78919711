"""Core domain types and congruence operations.

Everything downstream works on square complex matrices that are transformed
either as ``X^H C X`` (Hermitian congruence) or ``X^H C conj(X)`` (transpose
congruence).  This module provides the tagged containers for those matrices,
the permutation-scaling group G(m) of unavoidable demixing ambiguities, the
essential-equivalence test, and the normalized joint-diagonality residual.

All types are immutable after construction (arrays are frozen) and all
operations are pure functions, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPrecondition,
    NonFiniteEntries,
    PatternViolation,
    SingularMatrix,
    SymmetryViolation,
)

# Numerical policy (double precision with two factorizations of headroom):
# every threshold and outcome-deciding default, one line each; README
# "Numerical policy" lists the same names and values.
TINY = np.finfo(float).tiny  # floor of a relative test's scale, the smallest normal float
TAU_SYM = 1e-8        # relative symmetry-class tolerance
TAU_REAL = 1e-8       # relative tolerance for "real" spectra
TAU_PATTERN = 1e-6    # relative off-pattern tolerance for G(m) membership
TAU_RHO = 1e-10       # relative tolerance for exact collinearity certification
KAPPA_MAX = 1e8       # condition-number ceiling for certified invertibility
SIGMA_MIN = 1e-12     # relative singular-value floor
WITNESS_RTOL = 1e-10  # floor of a witness's residual bound, max(WITNESS_RTOL, tol)
WITNESS_DET = 1e-6    # witness-block |det| below which row 2 is rescaled, relative to max(1, max |entry|^2)
POLAR_TOL = 1e-8      # bound on ||V^T V - I||_F / m for the PUT's polar factor V
EIG_GAP_WARN = 1e-6   # PUT's relative whitened eigenvalue gap below which it warns
GEVD_GAP = 1e-8       # GEVD's relative eigenvalue gap at or below which it fails
SOLVE_TOL = 1e-8      # default residual bound of `nujd solve --tol`
MARGIN = 1e-3         # default certification margin of a simulate config
EQUIV_TOL = 1e-2      # default essential-equivalence tolerance of a simulate config


def below_floor(small, large) -> bool:
    """Whether ``small`` is at or below SIGMA_MIN times ``large``, or times
    TINY when ``large`` is below it (zero, negative)."""
    return small <= SIGMA_MIN * max(large, TINY)


def require_finite(a: np.ndarray, message: str) -> None:
    """Raise NonFiniteEntries(message) unless every entry of ``a`` is finite.

    On a complex array ``np.isfinite`` checks both parts at once.
    """
    if not np.isfinite(a).all():
        raise NonFiniteEntries(message)


def as_complex_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and return a dense complex128 matrix (finite entries only);
    a ``square`` one must also be at least 1×1."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if square and (m.shape[0] != m.shape[1] or m.shape[0] == 0):
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    require_finite(m, "matrix contains NaN or infinite entries")
    m = m.copy()
    m.flags.writeable = False
    return m


def require_tol(tol, name: str = "tol", *, error=InvalidPrecondition, zero_ok: bool = True) -> None:
    """Raise ``error`` naming ``name`` unless ``tol`` lies in [0, 1), or in
    (0, 1) when not ``zero_ok``; NaN and infinities fail the comparisons."""
    above = tol >= 0.0 if zero_ok else tol > 0.0
    if not (above and tol < 1.0):
        interval = "[0, 1)" if zero_ok else "(0, 1)"
        raise error(f"{name} must be finite and lie in {interval}, got {tol}")


def _fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _exponent(a: np.ndarray) -> int:
    """k with max |a_ij| * 2**-k in [1/2, 1) (0 for a zero ``a``; at least -1021,
    so 2**-k is finite).  ``a`` times 2**-k is exact while its entries stay
    normal, its largest square neither overflows nor underflows, and its
    Frobenius norm is 2**-k times the unscaled one bit for bit wherever the
    unscaled squares stay in range (Blue, ACM TOMS 4(1), 1978)."""
    return max(math.frexp(float(np.abs(a).max(initial=0.0)))[1], -1021)


def fro_exceeds(d: np.ndarray, m: np.ndarray, tol: float) -> bool:
    """||d||_F > tol * max(||m||_F, TINY), both norms scaled by ``m``'s 2**-k."""
    s = math.ldexp(1.0, -_exponent(m))
    return _fro(d * s) > tol * max(_fro(m * s), TINY)


def fro_ratio(d: np.ndarray, m: np.ndarray) -> float:
    """||d||_F / max(||m||_F, TINY), each norm scaled by its own 2**-k."""
    kd, km = _exponent(d), _exponent(m)
    r = _fro(d * math.ldexp(1.0, -kd)) / max(_fro(m * math.ldexp(1.0, -km)), TINY)
    return float(np.ldexp(r, kd - km))


class CongruenceKind(enum.Enum):
    """Which congruence transform a matrix is diagonalized by."""

    HERMITIAN = "hermitian"   # C -> X^H C X
    TRANSPOSE = "transpose"   # C -> X^H C conj(X)


@dataclass(frozen=True)
class TaggedMatrix:
    """A square complex matrix labeled with its congruence kind.

    Transpose-kind matrices must be complex symmetric, Hermitian-kind
    matrices Hermitian, both within the relative tolerance ``TAU_SYM``.
    """

    matrix: np.ndarray
    kind: CongruenceKind

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, square=True)
        object.__setattr__(self, "matrix", m)
        d = m - (m.T if self.kind is CongruenceKind.TRANSPOSE else m.conj().T)
        if fro_exceeds(d, m, TAU_SYM):
            raise SymmetryViolation(
                f"matrix is not {self.kind.value}-symmetric: relative error "
                f"{fro_ratio(d, m):.3e} > {TAU_SYM:.0e}"
            )

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DiagonalStack:
    """Diagonal spectra of one congruence kind, viewed column-wise.

    ``spectra`` has shape (n, m): row i is the diagonal of the i-th matrix.
    Position vectors ``z_k = spectra[:, k]`` are what collinearity speaks
    about.  An empty stack (n = 0) is allowed and imposes no constraint.
    Hermitian-kind stacks must have real spectra; split a complex-spectrum
    Hermitian-congruence matrix with :func:`hermitian_skew_split` first.
    """

    kind: CongruenceKind
    spectra: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.spectra, dtype=np.complex128)
        if s.ndim != 2:
            raise DimensionMismatch("spectra must be a 2-d (n, m) array")
        require_finite(s, "spectra contain NaN or infinite entries")
        if s.shape[0] > 0:
            scale = float(np.max(np.abs(s)))
            if scale == 0.0:
                raise SymmetryViolation("at least one spectrum must be nonzero")
            if self.kind is CongruenceKind.HERMITIAN:
                if float(np.max(np.abs(s.imag))) > TAU_REAL * scale:
                    raise SymmetryViolation(
                        "Hermitian-kind stacks need real spectra; "
                        "apply hermitian_skew_split first"
                    )
                s = s.real.astype(np.complex128)
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "spectra", s)

    @property
    def n(self) -> int:
        return self.spectra.shape[0]

    @property
    def m(self) -> int:
        return self.spectra.shape[1]


def stacks_from_rows(rows, m: int) -> tuple[DiagonalStack, DiagonalStack]:
    """(transpose, Hermitian) stacks of a list of (kind, diagonal) rows, in
    row order; a kind without rows gives an empty (0, m) stack."""
    stacks = []
    for kind in (CongruenceKind.TRANSPOSE, CongruenceKind.HERMITIAN):
        picked = [d for k, d in rows if k is kind]
        spectra = np.vstack(picked) if picked else np.zeros((0, m), dtype=np.complex128)
        stacks.append(DiagonalStack(kind, spectra))
    return tuple(stacks)


@dataclass(frozen=True)
class GLElement:
    """An invertible matrix, certified by its singular values at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, square=True)
        object.__setattr__(self, "matrix", m)
        svals = np.linalg.svd(m, compute_uv=False)
        smax, smin = float(svals[0]), float(svals[-1])
        n = m.shape[0]
        floor = max(n * np.finfo(float).eps * smax, smax / KAPPA_MAX)
        if smin <= floor:
            raise SingularMatrix(
                f"matrix not certifiably invertible: sigma_min={smin:.3e}, "
                f"sigma_max={smax:.3e}"
            )

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GmElement:
    """A member of G(m): a diagonal matrix times a permutation."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, square=True)
        object.__setattr__(self, "matrix", m)
        ok, _ = _pattern_test(m, TAU_PATTERN)
        if not ok:
            raise PatternViolation("matrix is not diagonal-times-permutation")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def _pattern_test(e: np.ndarray, tol: float):
    """Check the one-dominant-entry-per-row-and-column pattern.

    Returns (ok, cleaned) where cleaned keeps only the dominant pattern.
    """
    a = np.abs(e)
    n = a.shape[0]
    cols = np.argmax(a, axis=1)
    # column argmaxes must name the same bijection (so cols is one-to-one)
    if not np.array_equal(np.argmax(a, axis=0)[cols], np.arange(n)):
        return False, None
    pattern = np.zeros_like(a, dtype=bool)
    pattern[np.arange(n), cols] = True
    # every off-pattern entry is at most ||off||_F, so no per-row test is needed
    if fro_exceeds(np.where(pattern, 0.0, e), e, tol):
        return False, None
    cleaned = np.where(pattern, e, 0.0)
    return True, cleaned


def hermitian_skew_split(c) -> tuple[np.ndarray, np.ndarray]:
    """Split C into Hermitian parts (H, S) with C = H + i*S.

    H = (C + C^H)/2 and S = (C - C^H)/(2i) are both exactly Hermitian in
    floating point (the symmetrized arithmetic is entrywise conjugate-paired).
    """
    m = as_complex_matrix(c, square=True)
    herm = (m + m.conj().T) / 2.0
    skew = (m - m.conj().T) * (-0.5j)
    return herm, skew


def apply_congruence(x: GLElement, c: TaggedMatrix) -> TaggedMatrix:
    """Transform ``c`` by ``x`` with the congruence its kind prescribes.

    Hermitian kind: X^H C X.  Transpose kind: X^H C conj(X).  The result is
    exactly re-symmetrized, which is legitimate because the transform
    preserves the symmetry class in exact arithmetic.
    """
    if x.m != c.m:
        raise DimensionMismatch(f"dimension mismatch: X is {x.m}, C is {c.m}")
    xh = x.matrix.conj().T
    if c.kind is CongruenceKind.HERMITIAN:
        out = xh @ c.matrix @ x.matrix
        out = (out + out.conj().T) / 2.0
    else:
        out = xh @ c.matrix @ x.matrix.conj()
        out = (out + out.T) / 2.0
    return TaggedMatrix(out, c.kind)


def is_essentially_equivalent(
    x: GLElement, y: GLElement, tol: float = TAU_PATTERN
) -> tuple[bool, Optional[GmElement]]:
    """Test whether X = Y E for some E in G(m), returning E when it exists.

    E = Y^{-1} X is formed by a pivoted LU solve (never an explicit inverse)
    and pattern-tested: exactly one dominant entry per row and column, with
    off-pattern Frobenius mass at most ``tol``·||E||_F.
    """
    if x.m != y.m:
        raise DimensionMismatch("operands must share a dimension")
    require_tol(tol, error=ValueError, zero_ok=False)
    e = np.linalg.solve(y.matrix, x.matrix)
    ok, cleaned = _pattern_test(e, tol)
    if not ok:
        return False, None
    return True, GmElement(cleaned)


def offdiag_residual(s: Sequence[TaggedMatrix], x: GLElement) -> float:
    """Normalized joint-diagonality residual of the set under ``x``.

    sqrt( sum_i ||offdiag(X^H C_i X^dag_i)||_F^2 / sum_i ||C_i||_F^2 );
    zero exactly when every transformed matrix is diagonal.  The sums are
    taken of every C_i times one 2**-k and every off-diagonal part times
    another, as ``fro_ratio`` takes its norms.
    """
    offs = [t - np.diag(np.diag(t)) for t in (apply_congruence(x, c).matrix for c in s)]
    ko, kc = (max(map(_exponent, a), default=0) for a in (offs, [c.matrix for c in s]))
    num = den = 0.0
    for off, c in zip(offs, s):
        num += float(np.sum(np.abs(off * math.ldexp(1.0, -ko)) ** 2))
        den += float(np.sum(np.abs(c.matrix * math.ldexp(1.0, -kc)) ** 2))
    if den == 0.0:
        return 0.0
    return float(np.ldexp(np.sqrt(num / den), ko - kc))
