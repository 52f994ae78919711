import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nujd.core
from nujd import io as nio
from nujd.core import (
    SIGMA_MIN,
    TAU_PATTERN,
    CongruenceKind,
    _pattern_test,
    DiagonalStack,
    GLElement,
    GmElement,
    TaggedMatrix,
    apply_congruence,
    as_complex_matrix,
    below_floor,
    fro_exceeds,
    fro_ratio,
    hermitian_skew_split,
    is_essentially_equivalent,
    offdiag_residual,
)
from nujd.errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteEntries,
    OrthogonalizationFailure,
    PatternViolation,
    SingularMatrix,
    SymmetryViolation,
)

from nujd.linalg import general_evd, symmetric_orthogonalize, takagi
from nujd.solvers import put

from conftest import complex_symmetric, hermitian, put_pair, random_mixing, tagged_put_pair
from _search import gm_distance_batch


def small_complex_matrices(n):
    return arrays(np.float64, (2, n, n), elements=st.floats(-5, 5, width=32)).map(
        lambda a: a[0] + 1j * a[1]
    )


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntries):
            as_complex_matrix([[np.nan, 0], [0, 1]])
        with pytest.raises(NonFiniteEntries):
            as_complex_matrix([[np.inf * 1j, 0], [0, 1]])

    def test_square_enforced(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((2, 3)), square=True)

    @pytest.mark.parametrize(
        "build",
        [
            takagi,
            general_evd,
            GLElement,
            lambda a: TaggedMatrix(a, CongruenceKind.HERMITIAN),
            lambda a: TaggedMatrix(a, CongruenceKind.TRANSPOSE),
        ],
        ids=["takagi", "general_evd", "GLElement", "TaggedMatrix-hermitian", "TaggedMatrix-transpose"],
    )
    def test_empty_square_matrix_rejected(self, build):
        # a 0x0 input stops at the one square-matrix rule, not in a later argmax or index
        with pytest.raises(DimensionMismatch, match=r"non-empty square matrix, got shape \(0, 0\)"):
            build(np.zeros((0, 0)))

    def test_tagged_matrix_symmetry_classes(self):
        TaggedMatrix(np.array([[1, 2j], [2j, 0]]), CongruenceKind.TRANSPOSE)
        TaggedMatrix(np.array([[1, 2j], [-2j, 0]]), CongruenceKind.HERMITIAN)
        with pytest.raises(SymmetryViolation):
            TaggedMatrix(np.array([[1, 2j], [-2j, 0]]), CongruenceKind.TRANSPOSE)
        with pytest.raises(SymmetryViolation):
            TaggedMatrix(np.array([[1, 2j], [2j, 0]]), CongruenceKind.HERMITIAN)

    def test_diagonal_stack_hermitian_needs_real(self):
        with pytest.raises(SymmetryViolation):
            DiagonalStack(CongruenceKind.HERMITIAN, np.array([[1j, 1.0]]))
        DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1j, 1.0]]))

    def test_diagonal_stack_needs_a_nonzero_spectrum(self):
        with pytest.raises(SymmetryViolation):
            DiagonalStack(CongruenceKind.TRANSPOSE, np.zeros((2, 3), dtype=complex))

    def test_gl_element_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            GLElement(np.array([[1.0, 1.0], [1.0, 1.0]]))
        x = GLElement(np.diag([2.0, 1.0]))
        assert np.linalg.cond(x.matrix) == pytest.approx(2.0)

    def test_gm_element_pattern(self):
        GmElement(np.array([[0, 3.0], [1j, 0]]))
        with pytest.raises(PatternViolation):
            GmElement(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_immutability(self):
        t = TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN)
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0

    def test_below_floor_is_relative_and_inclusive(self):
        tiny = np.finfo(float).tiny
        assert below_floor(SIGMA_MIN * 4.0, 4.0)
        assert not below_floor(np.nextafter(SIGMA_MIN * 4.0, 1.0), 4.0)
        # a zero or negative reference scale counts as the smallest normal float
        assert below_floor(0.0, 0.0)
        assert below_floor(-1.0, -2.0)
        assert not below_floor(tiny, 0.0)
        assert not below_floor(np.nan, 1.0)
        # symmetric_orthogonalize floors the diagonal G = W^T W = diag(1, b * b),
        # and 1e-6 * 1e-6 is SIGMA_MIN exactly
        assert 1e-6 * 1e-6 == SIGMA_MIN
        with pytest.raises(OrthogonalizationFailure):
            symmetric_orthogonalize(GLElement(np.diag([1.0, 1e-6])))
        symmetric_orthogonalize(GLElement(np.diag([1.0, np.nextafter(1e-6, 1.0)])))


class TestHermitianSkewSplit:
    def test_identity(self):
        h, s = hermitian_skew_split(np.eye(2))
        assert np.allclose(h, np.eye(2)) and np.allclose(s, 0)

    def test_pure_skew(self):
        h, s = hermitian_skew_split(1j * np.eye(2))
        assert np.allclose(h, 0) and np.allclose(s, np.eye(2))

    def test_hand_example(self):
        c = np.array([[1, 1j], [0, 1]])
        h, s = hermitian_skew_split(c)
        assert np.allclose(h, [[1, 0.5j], [-0.5j, 1]])
        assert np.allclose(s, [[0, 0.5], [0.5, 0]])

    @settings(max_examples=60, deadline=None)
    @given(small_complex_matrices(3))
    def test_roundtrip_and_exact_hermiticity(self, c):
        h, s = hermitian_skew_split(c)
        assert np.array_equal(h, h.conj().T)
        assert np.array_equal(s, s.conj().T)
        scale = max(np.linalg.norm(c), 1.0)
        assert np.linalg.norm(h + 1j * s - c) <= 8 * np.finfo(float).eps * scale


class TestApplyCongruence:
    def test_identity_congruence(self, rng):
        c = TaggedMatrix(hermitian(rng, 3), CongruenceKind.HERMITIAN)
        out = apply_congruence(GLElement(np.eye(3)), c)
        assert np.allclose(out.matrix, c.matrix)

    def test_diagonal_scaling(self):
        c = TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN)
        out = apply_congruence(GLElement(np.diag([2.0, 1.0])), c)
        assert np.allclose(out.matrix, np.diag([4.0, 1.0]))

    def test_transpose_kind_hand_example(self):
        c = TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)
        out = apply_congruence(GLElement(np.diag([1j, 1.0])), c)
        assert np.allclose(out.matrix, np.diag([-1.0, 1.0]))

    def test_group_action(self, rng):
        for kind in CongruenceKind:
            mat = complex_symmetric(rng, 3) if kind is CongruenceKind.TRANSPOSE else hermitian(rng, 3)
            c = TaggedMatrix(mat, kind)
            x = GLElement(random_mixing(rng, 3, cond_cap=30))
            y = GLElement(random_mixing(rng, 3, cond_cap=30))
            once = apply_congruence(y, apply_congruence(x, c))
            joint = apply_congruence(GLElement(x.matrix @ y.matrix), c)
            assert np.linalg.norm(once.matrix - joint.matrix) <= 1e-12 * np.linalg.norm(
                joint.matrix
            ) + 1e-15

    def test_dimension_mismatch(self):
        c = TaggedMatrix(np.eye(3), CongruenceKind.HERMITIAN)
        with pytest.raises(DimensionMismatch):
            apply_congruence(GLElement(np.eye(2)), c)


class TestEssentialEquivalence:
    def test_reflexive_with_identity_factor(self, rng):
        x = GLElement(random_mixing(rng, 4, cond_cap=50))
        same, e = is_essentially_equivalent(x, x)
        assert same and np.allclose(e.matrix, np.eye(4))

    def test_explicit_gm_factor(self, rng):
        y = GLElement(random_mixing(rng, 2, cond_cap=50))
        g = np.array([[0, 3.0], [-1j, 0]])
        x = GLElement(y.matrix @ g)
        same, e = is_essentially_equivalent(x, y)
        assert same and np.allclose(e.matrix, g, atol=1e-10)

    def test_shear_is_not_equivalent(self, rng):
        y = GLElement(random_mixing(rng, 2, cond_cap=50))
        x = GLElement(y.matrix @ np.array([[1.0, 1.0], [0.0, 1.0]]))
        same, e = is_essentially_equivalent(x, y)
        assert not same and e is None

    def test_symmetric_and_transitive(self, rng):
        y = GLElement(random_mixing(rng, 3, cond_cap=20))
        g1 = np.diag([2.0, -1j, 0.5])[:, [1, 2, 0]]
        g2 = np.diag([1j, 3.0, 1.0])[:, [2, 0, 1]]
        x = GLElement(y.matrix @ g1)
        z = GLElement(x.matrix @ g2)
        assert is_essentially_equivalent(x, y)[0]
        assert is_essentially_equivalent(y, x)[0]
        assert is_essentially_equivalent(z, y)[0]

    def test_tol_validation(self, rng):
        x = GLElement(np.eye(2))
        with pytest.raises(ValueError):
            is_essentially_equivalent(x, x, tol=2.0)


class TestOffdiagResidual:
    def test_diagonal_set_is_zero(self):
        s = (TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN),)
        assert offdiag_residual(s, GLElement(np.eye(2))) == 0.0

    def test_all_mass_off_diagonal(self):
        s = (TaggedMatrix(np.array([[0, 1.0], [1.0, 0]]), CongruenceKind.HERMITIAN),)
        assert offdiag_residual(s, GLElement(np.eye(2))) == pytest.approx(1.0)

    def test_exact_diagonalizer(self, rng):
        a = random_mixing(rng, 4, cond_cap=30)
        mats = [
            TaggedMatrix(a @ np.diag(rng.standard_normal(4)) @ a.conj().T, CongruenceKind.HERMITIAN)
            for _ in range(3)
        ]
        x = GLElement(np.linalg.inv(a).conj().T)
        assert offdiag_residual(mats, x) <= 1e-12

    def test_invariance_under_unit_modulus_gm(self, rng):
        a = random_mixing(rng, 3, cond_cap=30)
        mats = (
            TaggedMatrix(a @ np.diag([1.0, 2, 3]) @ a.conj().T, CongruenceKind.HERMITIAN),
            TaggedMatrix(a @ np.diag([1j, 2, 1 + 1j]) @ a.T, CongruenceKind.TRANSPOSE),
        )
        x = GLElement(random_mixing(rng, 3, cond_cap=30))
        e = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))[:, [2, 0, 1]]
        r1 = offdiag_residual(mats, x)
        r2 = offdiag_residual(mats, GLElement(x.matrix @ e))
        assert abs(r1 - r2) <= 1e-12 * max(r1, 1e-30)

    def test_zero_set_invariant_under_general_gm(self, rng):
        a = random_mixing(rng, 3, cond_cap=30)
        mats = (TaggedMatrix(a @ np.diag([1.0, 2, 3]) @ a.conj().T, CongruenceKind.HERMITIAN),)
        x = np.linalg.inv(a).conj().T
        e = np.diag([3.0, -2j, 0.25])[:, [1, 0, 2]]
        assert offdiag_residual(mats, GLElement(x @ e)) <= 1e-12


class TestPatternDistance:
    def test_gm_member_is_zero(self):
        assert gm_distance_batch(np.diag([5.0, -1j])[:, [1, 0]][None])[0] == 0.0

    def test_balanced_row_is_far(self):
        assert gm_distance_batch(np.array([[[1, 1], [1, -1]]]))[0] == pytest.approx(
            np.sqrt(0.5)
        )


def _loop_pattern_test(e, tol):
    """Reference: the bijection check as a per-row loop over the argmaxes."""
    a = np.abs(e)
    n = a.shape[0]
    cols = np.argmax(a, axis=1)
    if len(set(cols.tolist())) != n:
        return False, None
    rows_of_col = np.argmax(a, axis=0)
    for i in range(n):
        if rows_of_col[cols[i]] != i:
            return False, None
    pattern = np.zeros_like(a, dtype=bool)
    pattern[np.arange(n), cols] = True
    scale = float(np.linalg.norm(e))
    off = float(np.linalg.norm(np.where(pattern, 0.0, e)))
    if off > tol * max(scale, np.finfo(float).tiny):
        return False, None
    row_max = a[np.arange(n), cols]
    off_rows = np.where(pattern, 0.0, a)
    if np.any(off_rows.max(axis=1) > np.maximum(tol * row_max, tol * scale)):
        return False, None
    return True, np.where(pattern, e, 0.0)


class TestPatternTest:
    @staticmethod
    def _inputs(rng):
        for m in range(1, 13):
            p = np.eye(m)[rng.permutation(m)]
            d = rng.uniform(0.1, 3.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            pd = np.diag(d) @ p
            yield pd
            # off-pattern noise on both sides of the tolerance
            for noise in (1e-9, 1e-7, 1e-5, 1e-2):
                yield pd + noise * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            yield rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            # argmax ties: equal moduli across a row, a column, everywhere
            tie = pd.copy()
            if m > 1:
                tie[0, :] = abs(tie[0]).max()
                yield tie
                tie = pd.copy()
                tie[:, 0] = abs(tie[:, 0]).max()
                yield tie
            yield np.ones((m, m))
            # non-bijections: two rows pointing at one column, a zero row
            if m > 1:
                bad = pd.copy()
                bad[1] = 0.0
                bad[1, np.argmax(abs(pd[0]))] = 5.0
                yield bad
                zero = pd.copy()
                zero[m - 1] = 0.0
                yield zero
                yield np.triu(np.ones((m, m))) + 1e-3 * np.eye(m)

    def test_matches_the_row_loop(self):
        rng = np.random.default_rng(12)
        seen = {True: 0, False: 0}
        for e in self._inputs(rng):
            for tol in (TAU_PATTERN, 1e-3):
                ok, cleaned = _pattern_test(e, tol)
                ref_ok, ref_cleaned = _loop_pattern_test(e, tol)
                assert ok == ref_ok
                if ok:
                    assert cleaned.tobytes() == ref_cleaned.tobytes()
                else:
                    assert cleaned is None and ref_cleaned is None
                seen[ok] += 1
        assert seen[True] > 20 and seen[False] > 20


class TestPolicyBoundaries:
    """One input on each side of each named threshold, written as literals."""

    def test_symmetry_tolerance(self):
        # ||C - C^T||_F / ||C||_F is about 0.71 d for C = [[1, 1], [1 + d, 1]]
        TaggedMatrix([[1, 1], [1 + 1e-9, 1]], CongruenceKind.TRANSPOSE)
        with pytest.raises(SymmetryViolation):
            TaggedMatrix([[1, 1], [1 + 1e-7, 1]], CongruenceKind.TRANSPOSE)

    def test_real_spectrum_tolerance(self):
        DiagonalStack(CongruenceKind.HERMITIAN, [[1, 1 + 1e-9j]])
        with pytest.raises(SymmetryViolation):
            DiagonalStack(CongruenceKind.HERMITIAN, [[1, 1 + 1e-7j]])

    def test_pattern_tolerance(self):
        # the off-pattern mass of [[1, d], [0, 1]] is about 0.71 d relative
        GmElement([[1, 1e-7], [0, 1]])
        with pytest.raises(PatternViolation):
            GmElement([[1, 1e-5], [0, 1]])

    def test_condition_ceiling(self):
        GLElement(np.diag([1, 1e-7]))
        with pytest.raises(SingularMatrix):
            GLElement(np.diag([1, 1e-9]))


ROOT = Path(__file__).resolve().parents[1]


def _policy_block() -> dict:
    """Name -> value of every constant in core's numerical-policy block."""
    block = (ROOT / "src" / "nujd" / "core.py").read_text().split("\n# Numerical policy")[1]
    names = re.findall(r"^([A-Z][A-Z0-9_]*) = ", block.split("\n\n")[0], re.M)
    return {name: getattr(nujd.core, name) for name in names}


def test_readme_numerical_policy_matches_core():
    section = (ROOT / "README.md").read_text().split("\n## Numerical policy\n")[1].split("\n## ")[0]
    table = dict(re.findall(r"^\| `([A-Z][A-Z0-9_]*)` \| `([^`]+)` \|", section, re.M))
    block = _policy_block()
    assert "TINY" in block and "EQUIV_TOL" in block  # the parse reached both ends of the block
    assert table.keys() == block.keys()
    assert {name: float(value) for name, value in table.items()} == block
    # no other constant name: a threshold the section names is one core has
    assert set(re.findall(r"`([A-Z][A-Z0-9_]{2,})`", section)) <= block.keys()


# ---------------------------------------------------------------------------
# the power-of-two Frobenius rule


def _parent_exceeds(d, m, tol):
    """The unscaled relative test that ``fro_exceeds`` replaces."""
    return float(np.linalg.norm(d)) > tol * max(float(np.linalg.norm(m)), np.finfo(float).tiny)


def _parent_ratio(d, m):
    """The unscaled ratio that ``fro_ratio`` replaces."""
    return float(np.linalg.norm(d)) / max(float(np.linalg.norm(m)), np.finfo(float).tiny)


def _parent_offdiag_residual(s, x):
    """``offdiag_residual`` with unscaled sums."""
    num = den = 0.0
    for c in s:
        t = apply_congruence(x, c).matrix
        num += float(np.sum(np.abs(t - np.diag(np.diag(t))) ** 2))
        den += float(np.sum(np.abs(c.matrix) ** 2))
    return 0.0 if den == 0.0 else float(np.sqrt(num / den))


def _stays_normal(a, k) -> bool:
    """Whether every nonzero real and imaginary part of ``a`` times 2**k is a normal float."""
    a = np.asarray(a, dtype=np.complex128)
    parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    parts = parts[parts > 0] * 2.0**k
    return bool(np.all((parts >= np.finfo(float).tiny) & (parts <= np.finfo(float).max)))


def _entries(n):
    """(n, n) complex matrices whose nonzero parts are at least 1/64 in modulus."""
    part = st.integers(-320, 320).map(lambda i: i / 64)
    return arrays(np.float64, (2, n, n), elements=part).map(lambda a: a[0] + 1j * a[1])


_SCALES = st.integers(-900, 900)
# perturbation sizes on both sides of every relative tolerance
_DELTAS = st.sampled_from([0.0, 1e-12, 1e-9, 5e-9, 1e-8, 2e-8, 1e-7, 5e-7, 1e-6, 3e-6, 1e-3])


def _decision(build, *args):
    try:
        build(*args)
    except (SymmetryViolation, ConfigError) as exc:
        return type(exc)
    return None


def _check_input(d):
    """``check``'s decoding of a one-matrix Hermitian set holding ``d``."""
    return nio.stacks_from_dict(nio.matrix_set_to_dict([TaggedMatrix(d, CongruenceKind.HERMITIAN)]))


class TestScaleFree:
    """Decisions on 2**k A equal those on A, and residuals equal the unscaled
    formula on A bit for bit, for k in [-900, 900] with every entry normal."""

    @settings(max_examples=150, deadline=None)
    @given(_entries(3), _entries(3), _DELTAS, st.sampled_from(list(CongruenceKind)), _SCALES)
    def test_symmetry_decision(self, a, p, delta, kind, k):
        flip = a.T if kind is CongruenceKind.TRANSPOSE else a.conj().T
        c = (a + flip) / 2.0 + delta * p
        assume(_stays_normal(c, k))
        assert _decision(TaggedMatrix, c * 2.0**k, kind) is _decision(TaggedMatrix, c, kind)

    @settings(max_examples=150, deadline=None)
    @given(st.permutations(range(3)), _entries(3), _DELTAS, _SCALES)
    def test_pattern_decision(self, perm, p, delta, k):
        e = np.diag([1.0, -2.0 + 1j, 0.5j])[:, perm] + delta * p
        assume(_stays_normal(e, k))
        ok, cleaned = _pattern_test(e, TAU_PATTERN)
        ok_k, cleaned_k = _pattern_test(e * 2.0**k, TAU_PATTERN)
        assert ok_k == ok
        if ok:
            assert np.array_equal(cleaned_k, cleaned * 2.0**k)

    @settings(max_examples=150, deadline=None)
    @given(_entries(3), _DELTAS, _SCALES)
    def test_check_diagonality_decision(self, p, delta, k):
        d = np.diag([1.0, -3.0, 0.25]) + delta * (p + p.conj().T)
        assume(_stays_normal(d, k))
        assert _decision(_check_input, d * 2.0**k) is _decision(_check_input, d)

    @settings(max_examples=100, deadline=None)
    @given(_entries(3), _entries(3), _entries(3), _SCALES)
    def test_offdiag_residual(self, h, t, x, k):
        s = [TaggedMatrix((h + h.conj().T) / 2.0, CongruenceKind.HERMITIAN),
             TaggedMatrix((t + t.T) / 2.0, CongruenceKind.TRANSPOSE)]
        assume(all(_stays_normal(c.matrix, k) for c in s))
        try:
            x = GLElement(x)
        except SingularMatrix:
            assume(False)
        scaled = [TaggedMatrix(c.matrix * 2.0**k, c.kind) for c in s]
        assert offdiag_residual(scaled, x) == _parent_offdiag_residual(s, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), _SCALES)
    def test_put_residual(self, seed, k):
        c1, c2 = tagged_put_pair(*put_pair(np.random.default_rng(seed), 3))
        res = put(c1, c2)
        x = res.x.matrix
        d1 = x.conj().T @ c1.matrix @ x
        off = d1 - np.diag(np.diag(d1))
        assert res.residual_offdiag == _parent_ratio(off, c1.matrix)
        assume(_stays_normal(off, k) and _stays_normal(c1.matrix, k))
        assert fro_ratio(off * 2.0**k, c1.matrix * 2.0**k) == res.residual_offdiag

    @settings(max_examples=100, deadline=None)
    @given(_entries(4), _entries(4), _DELTAS)
    def test_helpers_are_the_unscaled_formulas_in_range(self, m, p, delta):
        d = delta * p
        assert fro_exceeds(d, m, 1e-8) == _parent_exceeds(d, m, 1e-8)
        assert fro_ratio(d, m) == _parent_ratio(d, m)


_NON_SYMMETRIC = np.array([[1.0, 1.0], [1.001, 1.0]])
_NON_DIAGONAL = np.array([[1.0, 0.3], [0.3, 2.0]])


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e-200])
def test_scaled_probes_keep_their_outcome(scale):
    """The outcomes at unit scale hold past the range of an unscaled Frobenius norm."""
    message = r"^matrix is not transpose-symmetric: relative error 7\.069e-04 > 1e-08$"
    for build in (lambda c: TaggedMatrix(c, CongruenceKind.TRANSPOSE), takagi):
        with pytest.raises(SymmetryViolation, match=message):
            build(_NON_SYMMETRIC * scale)
    with pytest.raises(ConfigError, match="must hold diagonal matrices"):
        _check_input(_NON_DIAGONAL * scale)
    assert _check_input(np.diag([1.0, 2.0]) * scale)[2] == 2
