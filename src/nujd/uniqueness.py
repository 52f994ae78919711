"""Identifiability engine: collinearity predicates and non-uniqueness witnesses.

A joint diagonalizer of tagged diagonal spectra is essentially unique (unique
up to diagonal scaling and permutation) or not, and when it is not this module
constructs an explicit counterexample diagonalizer outside G(m).

The predicates reduce to 2x2 linear systems at a diagonal position pair
(k, l).  Writing the embedded block as [[x1, x2], [x3, x4]] (rows k and l of
an identity), the off-diagonal entries of the transformed matrices vanish iff

    transpose kind:  conj(w_ik) * u + conj(w_il) * v = 0,  u = x1*x2, v = x3*x4
    Hermitian kind:  w_jk * p + w_jl * q = 0,  p = conj(x1)*x2, q = conj(x3)*x4

for every matrix in each family.  A nontrivial simultaneous solution exists
iff both coefficient systems have nontrivial kernels whose component-modulus
profiles match (|u| = |p| and |v| = |q| is forced by u, p sharing a row).
Witnesses are built by extracting the kernels, snapping the moduli, and
factoring each (product, conjugate-product) pair back into a row; every
witness is verified against the reconstructed matrix set before it is
returned.

One entry point, ``identifiability_master``, decides every case: the
single-kind, two-matrix and mixed-residual conditions are its special cases
(pass the other family as None, or one-row stacks).  Each family's Gram
matrix is formed once and gives the |cosine| matrix and the norms of its
position vectors; the pair conditions are then boolean m x m arrays over the
upper triangle.  A decision costs O(n m^2) for the Gram matrices and O(m^2)
for the pair tests.  The pair scan fires at the first matching pair in
row-major order.  One witness is built at that pair and verified once: it is
certified invertible (``GLElement``), its joint-diagonality residual on the
reconstructed set is at most max(WITNESS_RTOL, tol), and it is not essentially
equivalent to the identity.  The witness is the identity outside the pair, so
the residual is computed on its 2x2 block at the pair with the congruences
and the re-symmetrization of ``apply_congruence``.  The entry point raises
InvalidPrecondition unless ``tol`` lies in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    TAU_PATTERN, TAU_RHO, TINY, WITNESS_DET, WITNESS_RTOL,
    CongruenceKind,
    DiagonalStack,
    GLElement,
    _pattern_test,
    require_tol,
)
from .errors import (
    DimensionMismatch,
    InvalidPrecondition,
    SingularMatrix,
    WitnessVerificationError,
)

RULE_MASTER_I = "Identifiability-i"
RULE_MASTER_II = "Identifiability-ii"
RULE_MASTER_III = "Identifiability-iii"


@dataclass(frozen=True)
class UniquenessReport:
    """Verdict of an identifiability check, with certificate when negative.

    A ``NotUnique`` verdict always carries a verified witness: an invertible
    diagonalizer of the reconstructed set that is not essentially equivalent
    to the identity.
    """

    verdict: str                       # "Unique" | "NotUnique"
    rule_fired: str
    rho_transpose: Optional[float] = None
    rho_hermitian: Optional[float] = None
    violating_pair: Optional[tuple] = None    # 0-based (k, l)
    witness: Optional[GLElement] = None
    witness_residual: Optional[float] = None

    @property
    def unique(self) -> bool:
        return self.verdict == "Unique"


def _cosine_abs_matrix(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|cosine| between all position-vector pairs, plus the vector norms.

    Zero position-vectors follow the convention cos = 1 against everything.
    """
    g = spectra.conj().T @ spectra
    norms = np.sqrt(np.maximum(g.diagonal().real, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.abs(g) / (norms[:, None] * norms)
    zero = norms == 0.0
    if zero.any():
        c[zero, :] = 1.0
        c[:, zero] = 1.0
    return np.minimum(c, 1.0, out=c), norms


def _family(stack: DiagonalStack) -> tuple[np.ndarray, np.ndarray]:
    """|cosine| matrix and norms of a family; an empty one imposes no constraint."""
    if stack.n:
        return _cosine_abs_matrix(stack.spectra)
    return np.ones((stack.m, stack.m)), np.zeros(stack.m)


@lru_cache(maxsize=16)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and flat indices of the pairs k < l of an m x m array, row-major."""
    rows, cols = np.triu_indices(m, k=1)
    flat = rows * m + cols
    for a in (rows, cols, flat):
        a.flags.writeable = False
    return rows, cols, flat


def _rho(c: np.ndarray) -> float:
    """Collinearity of a family: its largest |cosine| over pairs k < l."""
    return float(np.max(c.ravel()[_pairs(c.shape[0])[2]]))


def _first_pair(hits: np.ndarray) -> Optional[tuple]:
    """First True pair k < l in row-major order, or None."""
    rows, cols, flat = _pairs(hits.shape[0])
    found = np.flatnonzero(hits.ravel()[flat])
    return (int(rows[found[0]]), int(cols[found[0]])) if found.size else None


# The pair tests below are written as "not separated", so that a comparison
# left undefined by overflow (a NaN) never certifies uniqueness: the pair goes
# to witness verification, which rejects it.


def _collinear(c: np.ndarray, tol: float) -> np.ndarray:
    return ~(c < 1.0 - tol)


def _ratios_match(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Pairs with x_k y_l = x_l y_k up to a relative margin ``tol``."""
    a = np.outer(x, y)
    b = a.T
    return ~(np.abs(a - b) > tol * np.maximum(np.maximum(a, b), TINY))


# ---------------------------------------------------------------------------
# witness machinery


def _pair_kernel(spectra: np.ndarray, pair: tuple, tol: float):
    """Null direction of a family's (n, 2) system at the pair, or None when unconstrained."""
    if spectra.shape[0] == 0:
        return None
    rows = spectra[:, list(pair)]
    scale = float(np.max(np.abs(spectra)))
    if float(np.max(np.abs(rows))) <= tol * max(scale, TINY):
        return None
    _, _, vh = np.linalg.svd(rows)
    vec = vh[-1].conj()
    return vec / np.max(np.abs(vec))


def _row_from_products(prod: complex, cprod: complex) -> tuple[complex, complex]:
    """Factor (x, y) with x*y = prod and conj(x)*y = cprod, |prod| = |cprod|."""
    if abs(prod) == 0.0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    theta = 0.5 * (np.angle(prod) - np.angle(cprod))
    x = np.exp(1j * theta)
    return complex(x), complex(prod / x)


def _pair_witness_block(t_kernel, h_kernel) -> np.ndarray:
    """2x2 diagonalizer block outside G(2) for one position pair.

    ``t_kernel`` is the (u, v) null direction of the transpose-family system,
    ``h_kernel`` the (p, q) direction of the Hermitian-family system; either
    may be None when that family imposes no constraint at the pair.
    """
    if t_kernel is None and h_kernel is None:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128)
    if t_kernel is not None and h_kernel is not None:
        u, v = t_kernel
        p, q = h_kernel
        # shared rows force |u| = |p| and |v| = |q|; snap to geometric means
        mu1 = np.sqrt(abs(u) * abs(p))
        mu2 = np.sqrt(abs(v) * abs(q))
        u = mu1 * np.exp(1j * np.angle(u)) if mu1 > 0 else 0.0
        p = mu1 * np.exp(1j * np.angle(p)) if mu1 > 0 else 0.0
        v = mu2 * np.exp(1j * np.angle(v)) if mu2 > 0 else 0.0
        q = mu2 * np.exp(1j * np.angle(q)) if mu2 > 0 else 0.0
        row1 = _row_from_products(u, p)
        row2 = _row_from_products(v, q)
    elif t_kernel is not None:
        u, v = t_kernel
        row1 = _row_from_products(u, u)
        row2 = _row_from_products(v, v)
    else:
        p, q = h_kernel
        row1 = _row_from_products(p, p)
        row2 = _row_from_products(q, q)
    block = np.array([row1, row2], dtype=np.complex128)
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    if abs(det) < WITNESS_DET * max(1.0, float(np.abs(block).max()) ** 2):
        # rescale row 2 keeping both of its products fixed
        block[1, 0] *= 2.0
        block[1, 1] /= 2.0
    return block


def _spectra_residual(
    block: np.ndarray, pair: tuple, t_spectra: np.ndarray, h_spectra: np.ndarray
) -> float:
    """``offdiag_residual`` of the reconstructed diagonal set under a pair witness.

    The witness is the identity outside rows and columns ``pair``, where it
    holds ``block``.  Row i of a family stands for diag(row i), and on finite
    spectra every transformed matrix is then diagonal outside the 2x2 block
    at ``pair``: those entries are exact zeros.  The congruences and the
    exact re-symmetrization of ``apply_congruence`` are evaluated on that
    block, batched over rows, in O(n) per family; the two symmetrized
    off-diagonal entries have one modulus.  The normalization is every
    spectrum's full squared norm.
    """
    cols = list(pair)
    bc = block.conj()
    num = den = 0.0
    for spectra, right, hermitian in ((t_spectra, bc, False), (h_spectra, block, True)):
        if spectra.shape[0] == 0:
            continue
        t = (bc.T * spectra[:, None, cols]) @ right  # B^H diag(row at pair) R, one per row
        lower = t[:, 1, 0].conj() if hermitian else t[:, 1, 0]
        num += 2.0 * float(np.sum(np.abs((t[:, 0, 1] + lower) / 2.0) ** 2))
        den += float(np.sum(np.abs(spectra) ** 2))
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


def _witness(
    pair: tuple, t_spectra: np.ndarray, h_spectra: np.ndarray, tol: float
) -> tuple[GLElement, float]:
    """Build the witness at ``pair`` and verify it on the (n, m) spectra.

    An empty family (n = 0) imposes no constraint and is not verified against.
    """
    k, l = pair
    block = _pair_witness_block(
        _pair_kernel(np.conj(t_spectra), pair, tol),
        _pair_kernel(h_spectra.real, pair, tol),
    )
    m = t_spectra.shape[1] if t_spectra.shape[0] else h_spectra.shape[1]
    x = np.eye(m, dtype=np.complex128)
    x[k, k], x[k, l] = block[0]
    x[l, k], x[l, l] = block[1]
    try:
        witness = GLElement(x)
    except SingularMatrix as exc:
        raise WitnessVerificationError(f"witness block is singular: {exc}") from exc
    residual = _spectra_residual(block, pair, t_spectra, h_spectra)
    rtol = max(WITNESS_RTOL, tol)
    if not residual <= rtol:
        raise WitnessVerificationError(
            f"witness fails joint diagonality: residual {residual:.3e} > {rtol:.0e}"
        )
    # X is essentially equivalent to I iff X itself has the G(m) pattern
    if _pattern_test(witness.matrix, TAU_PATTERN)[0]:
        raise WitnessVerificationError("witness is essentially equivalent to I")
    return witness, residual


def _report(rule, pair, t_spectra, h_spectra, tol, rho_t=None, rho_h=None):
    """Unique when ``pair`` is None, else NotUnique with the verified witness."""
    if pair is None:
        return UniquenessReport(
            verdict="Unique", rule_fired=rule, rho_transpose=rho_t, rho_hermitian=rho_h
        )
    witness, residual = _witness(pair, t_spectra, h_spectra, tol)
    return UniquenessReport(
        verdict="NotUnique",
        rule_fired=rule,
        rho_transpose=rho_t,
        rho_hermitian=rho_h,
        violating_pair=pair,
        witness=witness,
        witness_residual=residual,
    )


def identifiability_master(
    sym: Optional[DiagonalStack],
    herm: Optional[DiagonalStack],
    tol: float = TAU_RHO,
) -> UniquenessReport:
    """Unified identifiability decision over mixed congruence kinds.

    Unique iff the transpose family has collinearity < 1 (branch i), or the
    Hermitian family does (branch ii), or both equal one and no position pair
    is simultaneously collinear in both families with matching norm ratios
    (branch iii).  An empty family, passed as None, participates with
    collinearity one (it imposes no constraint), so a single-kind stack is
    decided by its own collinearity and one-row stacks by the modulus-product
    test |w1_k| |w2_l| != |w1_l| |w2_k|.
    """
    sym = _coerce_stack(sym, CongruenceKind.TRANSPOSE, herm)
    herm = _coerce_stack(herm, CongruenceKind.HERMITIAN, sym)
    if sym.n == 0 and herm.n == 0:
        raise InvalidPrecondition("both stacks are empty")
    if sym.m != herm.m:
        raise DimensionMismatch("stacks must share the dimension m")
    require_tol(tol)
    if sym.m < 2:
        raise InvalidPrecondition(
            "collinearity needs at least two diagonal positions (m >= 2); "
            "a single source is vacuously ambiguous"
        )
    (c_s, n_s), (c_h, n_h) = _family(sym), _family(herm)
    rho_s = _rho(c_s) if sym.n else None
    rho_h = _rho(c_h) if herm.n else None
    if rho_s is not None and rho_s < 1.0 - tol:
        return _report(RULE_MASTER_I, None, None, None, tol, rho_s, rho_h)
    if rho_h is not None and rho_h < 1.0 - tol:
        return _report(RULE_MASTER_II, None, None, None, tol, rho_s, rho_h)
    hits = _collinear(c_s, tol) & _collinear(c_h, tol) & _ratios_match(n_s, n_h, tol)
    return _report(
        RULE_MASTER_III, _first_pair(hits), sym.spectra, herm.spectra, tol, rho_s, rho_h
    )


def _coerce_stack(stack, kind, other):
    if stack is not None:
        if stack.kind is not kind:
            raise InvalidPrecondition(f"expected a {kind.value}-kind stack")
        return stack
    if other is None:
        raise InvalidPrecondition("both stacks are missing")
    return DiagonalStack(kind, np.zeros((0, other.m), dtype=np.complex128))
