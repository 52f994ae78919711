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

One engine serves every entry point.  Each family's Gram matrix is formed
once and gives the |cosine| matrix and the norms of its position vectors; the
Thm 1, Thm 2 and Thm 3 pair conditions are then boolean m x m arrays over the
upper triangle.  A decision costs O(n m^2) for the Gram matrices and O(m^2)
for the pair tests.  Thm 1 fires at the pair of largest |cosine|, Thm 2 and
the mixed scan at the first matching pair in row-major order.  One witness is
built at the chosen pair and verified once, with the same checks as ever: it
is certified invertible (``GLElement``), its joint-diagonality residual on the
reconstructed set is at most max(1e-10, tol), and it is not essentially
equivalent to the identity.  The residual is computed from the (n, m) spectra
with the congruences and the re-symmetrization of ``apply_congruence``.  The
theorem-named functions are thin shims that fix the rule label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CongruenceKind,
    DiagonalStack,
    GLElement,
    TAU_RHO,
    TAU_PATTERN,
    _pattern_test,
)
from .errors import (
    DimensionMismatch,
    InvalidPrecondition,
    NonFiniteEntries,
    SingularMatrix,
    WitnessVerificationError,
)

RULE_THM1A = "Thm1a"
RULE_THM1B = "Thm1b"
RULE_THM2 = "Thm2"
RULE_THM3 = "Thm3"
RULE_MASTER_I = "Identifiability-i"
RULE_MASTER_II = "Identifiability-ii"
RULE_MASTER_III = "Identifiability-iii"


@dataclass(frozen=True)
class UniquenessReport:
    """Verdict of an identifiability check, with certificate when negative.

    A ``NotUnique`` verdict from the theorem predicates always carries a
    verified witness: an invertible diagonalizer of the reconstructed set
    that is not essentially equivalent to the identity.  The Corollary-2
    style wrapper in the solvers module is sufficiency-only and may report a
    conservative ``NotUnique`` without a witness; see its docstring.
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


def complex_cosine(v, w) -> complex:
    """Cosine of the complex angle, v^H w / (||v|| ||w||), and 1 for zero input."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    w = np.asarray(w, dtype=np.complex128).ravel()
    if v.shape != w.shape:
        raise DimensionMismatch("vectors must have equal length")
    nv = float(np.linalg.norm(v))
    nw = float(np.linalg.norm(w))
    if nv == 0.0 or nw == 0.0:
        return complex(1.0)
    return complex(np.vdot(v, w) / (nv * nw))


def _cosine_abs_matrix(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|cosine| between all position-vector pairs, plus the vector norms.

    Zero position-vectors follow the convention cos = 1 against everything.
    """
    g = spectra.conj().T @ spectra
    norms = np.sqrt(np.clip(np.diag(g).real, 0.0, None))
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.abs(g) / denom
    zero = norms == 0.0
    c[zero, :] = 1.0
    c[:, zero] = 1.0
    return np.minimum(c, 1.0), norms


def _family(stack: DiagonalStack) -> tuple[np.ndarray, np.ndarray]:
    """|cosine| matrix and norms of a family; an empty one imposes no constraint."""
    if stack.n:
        return _cosine_abs_matrix(stack.spectra)
    return np.ones((stack.m, stack.m)), np.zeros(stack.m)


def _require_pairs(m: int) -> None:
    if m < 2:
        raise InvalidPrecondition(
            "collinearity needs at least two diagonal positions (m >= 2); "
            "a single source is vacuously ambiguous"
        )


def _max_pair(c: np.ndarray) -> tuple[float, tuple]:
    """Largest upper-triangle entry and its (k, l), the first on ties."""
    iu, ju = np.triu_indices(c.shape[0], k=1)
    vals = c[iu, ju]
    best = int(np.argmax(vals))
    return float(vals[best]), (int(iu[best]), int(ju[best]))


def _first_pair(hits: np.ndarray) -> Optional[tuple]:
    """First True pair k < l in row-major order, or None."""
    found = np.argwhere(np.triu(hits, k=1))
    return (int(found[0, 0]), int(found[0, 1])) if found.size else None


# The pair tests below are written as "not separated", so that a comparison
# left undefined by overflow (a NaN) never certifies uniqueness: the pair goes
# to witness verification, which rejects it.


def _collinear(c: np.ndarray, tol: float) -> np.ndarray:
    return ~(c < 1.0 - tol)


def _ratios_match(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Pairs with x_k y_l = x_l y_k up to a relative margin ``tol``."""
    a = np.outer(x, y)
    b = a.T
    return ~(np.abs(a - b) > tol * np.maximum(np.maximum(a, b), np.finfo(float).tiny))


def collinearity(stack: DiagonalStack) -> float:
    """Largest |cosine| between position-vectors of the stack, in [0, 1]."""
    rho, _ = _collinearity_with_pair(stack)
    return rho


def _collinearity_with_pair(stack: DiagonalStack) -> tuple[float, tuple]:
    _require_pairs(stack.m)
    if stack.n == 0:
        raise InvalidPrecondition("collinearity of an empty stack is undefined")
    return _max_pair(_cosine_abs_matrix(stack.spectra)[0])


# ---------------------------------------------------------------------------
# witness machinery


def _pair_kernel(spectra: np.ndarray, pair: tuple, tol: float):
    """Null direction of a family's (n, 2) system at the pair, or None when unconstrained."""
    if spectra.shape[0] == 0:
        return None
    rows = spectra[:, list(pair)]
    scale = float(np.max(np.abs(spectra)))
    if float(np.max(np.abs(rows))) <= tol * max(scale, np.finfo(float).tiny):
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
    if abs(det) < 1e-6 * max(1.0, float(np.abs(block).max()) ** 2):
        # rescale row 2 keeping both of its products fixed
        block[1, 0] *= 2.0
        block[1, 1] /= 2.0
    return block


def _spectra_residual(x: np.ndarray, t_spectra: np.ndarray, h_spectra: np.ndarray) -> float:
    """``offdiag_residual`` of the reconstructed diagonal set under ``x``.

    Row i of a family stands for diag(row i).  The congruences and the exact
    re-symmetrization are those of ``apply_congruence``, batched over rows.
    """
    xc = x.conj()
    num = den = 0.0
    for spectra, right, hermitian in ((t_spectra, xc, False), (h_spectra, x, True)):
        if spectra.shape[0] == 0:
            continue
        t = np.einsum("ja,ij,jb->iab", xc, spectra, right)
        t = (t + (t.conj() if hermitian else t).swapaxes(1, 2)) / 2.0
        diag = np.arange(x.shape[0])
        t[:, diag, diag] = 0.0
        num += float(np.sum(np.abs(t) ** 2))
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
    x[np.ix_([k, l], [k, l])] = block
    try:
        witness = GLElement(x)
    except SingularMatrix as exc:
        raise WitnessVerificationError(f"witness block is singular: {exc}") from exc
    residual = _spectra_residual(witness.matrix, t_spectra, h_spectra)
    rtol = max(1e-10, tol)
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


def _by_kind(stack: DiagonalStack) -> tuple[np.ndarray, np.ndarray]:
    """(transpose, Hermitian) spectra of a single-kind stack."""
    empty = np.zeros((0, stack.m), dtype=np.complex128)
    if stack.kind is CongruenceKind.TRANSPOSE:
        return stack.spectra, empty
    return empty, stack.spectra


def _thm2_diagonals(omega1, omega2) -> tuple[np.ndarray, np.ndarray]:
    w1 = np.asarray(omega1, dtype=np.complex128).ravel()
    w2 = np.asarray(omega2, dtype=np.complex128).ravel()
    scale = float(np.max(np.abs(w2))) if w2.size else 0.0
    if scale > 0 and float(np.max(np.abs(w2.imag))) > 1e-8 * scale:
        raise InvalidPrecondition(
            "the Hermitian-side diagonal must be real; split the matrix first"
        )
    if w1.shape != w2.shape:
        raise DimensionMismatch("omega1 and omega2 must have equal length")
    if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
        raise NonFiniteEntries("the diagonals contain NaN or infinite entries")
    return w1, w2.real


# ---------------------------------------------------------------------------
# witnesses at a given pair


def witness_thm1(stack: DiagonalStack, pair: tuple, tol: float = TAU_RHO) -> GLElement:
    """Nontrivial joint diagonalizer for a single-kind stack at a collinear pair.

    Embeds a nontrivial kernel solution of the pair's 2x2 system into an
    identity; raises InvalidPrecondition when the pair is not collinear.
    """
    k, l = pair
    c, _ = _cosine_abs_matrix(stack.spectra)
    if c[k, l] < 1.0 - tol:
        raise InvalidPrecondition(
            f"pair ({k}, {l}) is not collinear: |c| = {c[k, l]:.12f}"
        )
    return _witness(pair, *_by_kind(stack), tol)[0]


def witness_thm2(omega1, omega2, pair: tuple, tol: float = TAU_RHO) -> GLElement:
    """Common diagonalizer outside G(m) for one transpose + one Hermitian matrix.

    Requires the modulus products to coincide at the pair,
    |w1_k| |w2_l| = |w1_l| |w2_k|; both the invertible construction (a scaled
    rotation composed with phase halving) and the singular cases come out of
    the same kernel machinery.
    """
    w1, w2 = _thm2_diagonals(omega1, omega2)
    k, l = pair
    if not _ratios_match(np.abs(w1), np.abs(w2), tol)[k, l]:
        raise InvalidPrecondition(
            f"pair ({k}, {l}) satisfies the strict modulus inequality; "
            "no witness exists"
        )
    return _witness(pair, w1[None, :], w2[None, :], tol)[0]


def witness_thm3(
    sym: DiagonalStack, herm: DiagonalStack, pair: tuple, tol: float = TAU_RHO
) -> GLElement:
    """Common diagonalizer outside G(m) for mixed stacks at a matched pair.

    Requires both families collinear at the pair and matching norm ratios
    (the proportionality constants share one modulus r).  Degenerate
    zero-vector positions fall back to the single-family construction.
    """
    k, l = pair
    (c_s, n_s), (c_h, n_h) = _family(sym), _family(herm)
    if c_s[k, l] < 1.0 - tol:
        why = f"transpose family not collinear (|c| = {c_s[k, l]:.12f})"
    elif c_h[k, l] < 1.0 - tol:
        why = f"Hermitian family not collinear (|c| = {c_h[k, l]:.12f})"
    elif not _ratios_match(n_s, n_h, tol)[k, l]:
        why = "norm ratios differ"
    else:
        return _witness(pair, sym.spectra, herm.spectra, tol)[0]
    raise InvalidPrecondition(f"pair {pair} does not match: {why}")


# ---------------------------------------------------------------------------
# predicates


def unique_thm1(stack: DiagonalStack, tol: float = TAU_RHO) -> UniquenessReport:
    """Single-kind uniqueness: essentially unique iff collinearity < 1.

    Covers both the transpose-congruence case with complex spectra and the
    Hermitian-congruence case with real spectra, which share the criterion.
    """
    rho, pair = _collinearity_with_pair(stack)
    transpose = stack.kind is CongruenceKind.TRANSPOSE
    return _report(
        RULE_THM1A if transpose else RULE_THM1B,
        None if rho < 1.0 - tol else pair,
        *_by_kind(stack),
        tol,
        rho_t=rho if transpose else None,
        rho_h=None if transpose else rho,
    )


def unique_thm2(omega1, omega2, tol: float = TAU_RHO) -> UniquenessReport:
    """One transpose-kind + one Hermitian-kind matrix: modulus-product test.

    Essentially unique iff |w1_k| |w2_l| != |w1_l| |w2_k| for every pair
    k != l, with a relative margin of ``tol``.
    """
    w1, w2 = _thm2_diagonals(omega1, omega2)
    if w1.size < 2:
        raise InvalidPrecondition("need m >= 2 diagonal positions")
    pair = _first_pair(_ratios_match(np.abs(w1), np.abs(w2), tol))
    return _report(RULE_THM2, pair, w1[None, :], w2[None, :], tol)


def unique_thm3(
    sym: DiagonalStack, herm: DiagonalStack, tol: float = TAU_RHO
) -> UniquenessReport:
    """Mixed-kind residual case: both collinearities must equal one on entry.

    Not essentially unique iff some pair is collinear in both families with
    matching norm ratios; the caller with general inputs should use
    :func:`identifiability_master`, which routes here only when applicable.
    """
    if sym.kind is not CongruenceKind.TRANSPOSE or herm.kind is not CongruenceKind.HERMITIAN:
        raise InvalidPrecondition("unique_thm3 expects (transpose, Hermitian) stacks")
    if sym.n == 0 or herm.n == 0:
        raise InvalidPrecondition("unique_thm3 needs both stacks non-empty")
    if sym.m != herm.m:
        raise DimensionMismatch("stacks must share the dimension m")
    rep = _mixed(sym, herm, tol, RULE_THM3)
    if rep.rule_fired != RULE_THM3:
        raise InvalidPrecondition(
            "unique_thm3 requires both collinearities equal to one; "
            "use identifiability_master for the general dispatch"
        )
    return rep


def identifiability_master(
    sym: Optional[DiagonalStack],
    herm: Optional[DiagonalStack],
    tol: float = TAU_RHO,
) -> UniquenessReport:
    """Unified identifiability decision over mixed congruence kinds.

    Unique iff the transpose family has collinearity < 1, or the Hermitian
    family does, or both equal one and no position pair is simultaneously
    collinear in both families with matching norm ratios.  An empty family
    participates with collinearity one (it imposes no constraint), which
    makes the decision agree with the single-kind predicate when the other
    family is empty.
    """
    sym = _coerce_stack(sym, CongruenceKind.TRANSPOSE, herm)
    herm = _coerce_stack(herm, CongruenceKind.HERMITIAN, sym)
    if sym.n == 0 and herm.n == 0:
        raise InvalidPrecondition("both stacks are empty")
    if sym.m != herm.m:
        raise DimensionMismatch("stacks must share the dimension m")
    return _mixed(sym, herm, tol, RULE_MASTER_III)


def _mixed(sym, herm, tol, rule_iii):
    """Branches i and ii on the collinearities, then the Thm 3 pair scan."""
    _require_pairs(sym.m)
    (c_s, n_s), (c_h, n_h) = _family(sym), _family(herm)
    rho_s = _max_pair(c_s)[0] if sym.n else None
    rho_h = _max_pair(c_h)[0] if herm.n else None
    if rho_s is not None and rho_s < 1.0 - tol:
        return _report(RULE_MASTER_I, None, None, None, tol, rho_s, rho_h)
    if rho_h is not None and rho_h < 1.0 - tol:
        return _report(RULE_MASTER_II, None, None, None, tol, rho_s, rho_h)
    hits = _collinear(c_s, tol) & _collinear(c_h, tol) & _ratios_match(n_s, n_h, tol)
    return _report(
        rule_iii, _first_pair(hits), sym.spectra, herm.spectra, tol, rho_s, rho_h
    )


def _coerce_stack(stack, kind, other):
    if stack is not None:
        if stack.kind is not kind:
            raise InvalidPrecondition(f"expected a {kind.value}-kind stack")
        return stack
    if other is None:
        raise InvalidPrecondition("both stacks are missing")
    return DiagonalStack(kind, np.zeros((0, other.m), dtype=np.complex128))
