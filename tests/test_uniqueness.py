import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nujd.core import (
    CongruenceKind,
    GLElement,
    TaggedMatrix,
    gm_pattern_distance,
    is_essentially_equivalent,
    offdiag_residual,
)
from nujd.errors import (
    DimensionMismatch,
    InvalidPrecondition,
    NonFiniteEntries,
    WitnessVerificationError,
)
from nujd.uniqueness import (
    collinearity,
    complex_cosine,
    identifiability_master,
    unique_thm1,
    unique_thm2,
    unique_thm3,
    witness_thm1,
    witness_thm2,
    witness_thm3,
)

from conftest import hermitian_stack, transpose_stack


def reconstructed(sym=None, herm=None):
    mats = []
    if sym is not None:
        mats += [TaggedMatrix(np.diag(r), CongruenceKind.TRANSPOSE) for r in sym.spectra]
    if herm is not None:
        mats += [TaggedMatrix(np.diag(r), CongruenceKind.HERMITIAN) for r in herm.spectra]
    return mats


def assert_sound_witness(report, sym=None, herm=None):
    assert report.verdict == "NotUnique"
    w = report.witness
    assert w is not None
    mats = reconstructed(sym, herm)
    assert offdiag_residual(mats, w) <= 1e-10
    same, _ = is_essentially_equivalent(w, GLElement(np.eye(w.m)))
    assert not same
    assert gm_pattern_distance(w.matrix) > 0.1


class TestComplexCosine:
    def test_aligned(self):
        assert complex_cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert complex_cosine([1, 0], [0, 1]) == 0.0

    def test_zero_vector_convention(self):
        assert complex_cosine([0, 0], [3, 4j]) == 1.0
        assert complex_cosine([0, 0], [0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            complex_cosine([1, 0], [1, 0, 0])

    @settings(max_examples=80, deadline=None)
    @given(
        arrays(np.float64, (2, 4), elements=st.floats(-10, 10, width=32)),
        arrays(np.float64, (2, 4), elements=st.floats(-10, 10, width=32)),
    )
    def test_modulus_bounded(self, a, b):
        v = a[0] + 1j * a[1]
        w = b[0] + 1j * b[1]
        assert abs(complex_cosine(v, w)) <= 1.0 + 1e-12


class TestCollinearity:
    def test_proportional_columns(self):
        assert collinearity(transpose_stack([[1, 2], [2, 4]])) == pytest.approx(1.0)

    def test_orthogonal_positions(self):
        assert collinearity(transpose_stack([[1, 0], [0, 1]])) == pytest.approx(0.0)

    def test_sign_flip_orthogonal(self):
        assert collinearity(transpose_stack([[1, 1], [1, -1]])) == pytest.approx(0.0)

    def test_m1_rejected(self):
        with pytest.raises(InvalidPrecondition):
            collinearity(transpose_stack([[1.0]]))

    def test_invariances(self, rng):
        spectra = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        base = collinearity(transpose_stack(spectra))
        # reorder matrices in the stack
        assert collinearity(transpose_stack(spectra[::-1])) == pytest.approx(base)
        # scale one matrix by a nonzero unit-modulus scalar (value invariant)
        scaled = spectra.copy()
        scaled[2] *= np.exp(0.7j)
        assert collinearity(transpose_stack(scaled)) == pytest.approx(base)
        # permute diagonal positions simultaneously
        perm = rng.permutation(5)
        assert collinearity(transpose_stack(spectra[:, perm])) == pytest.approx(base)

    def test_scaling_one_matrix_preserves_the_verdict(self, rng):
        # general rescaling of one matrix reweights the cosines, but the
        # collinear locus (rho = 1) and the uniqueness verdict are invariant
        for collinear in (False, True):
            spectra = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            if collinear:
                spectra[:, 2] = (0.4 + 1.1j) * spectra[:, 1]
            base = unique_thm1(transpose_stack(spectra)).verdict
            scaled = spectra.copy()
            scaled[1] *= 7.0 - 3.0j
            assert unique_thm1(transpose_stack(scaled)).verdict == base


class TestThm1:
    def test_unique_four_fifths(self):
        rep = unique_thm1(transpose_stack([[1, 2], [2, 1]]))
        assert rep.unique and rep.rho_transpose == pytest.approx(0.8)

    def test_single_matrix_equal_entries(self):
        rep = unique_thm1(hermitian_stack([[1, 1]]))
        assert_sound_witness(rep, herm=hermitian_stack([[1, 1]]))

    def test_proportional_complex_spectra(self):
        st_ = transpose_stack([[1 + 1j, 2 + 2j]])
        rep = unique_thm1(st_)
        assert_sound_witness(rep, sym=st_)

    def test_zero_position_vector(self):
        st_ = transpose_stack([[0, 1 + 1j], [0, 2.0]])
        rep = unique_thm1(st_)
        assert_sound_witness(rep, sym=st_)

    def test_witness_requires_collinear_pair(self):
        with pytest.raises(InvalidPrecondition):
            witness_thm1(transpose_stack([[1, 2], [2, 1]]), (0, 1))


class TestThm2:
    def test_distinct_products_unique(self):
        assert unique_thm2([1 + 1j, 2], [1, 1]).unique

    def test_equal_products(self):
        rep = unique_thm2([1, 1], [1, 1])
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(
            rep,
            sym=transpose_stack([[1, 1]]),
            herm=hermitian_stack([[1, 1]]),
        )

    def test_crossed_zeros_unique(self):
        assert unique_thm2([0, 5], [3, 0]).unique

    def test_phase_only_difference(self):
        rep = unique_thm2([np.exp(1j * np.pi / 2), 1], [1, 1])
        assert_sound_witness(
            rep,
            sym=transpose_stack([[np.exp(1j * np.pi / 2), 1]]),
            herm=hermitian_stack([[1, 1]]),
        )

    def test_negative_hermitian_entries(self):
        rep = unique_thm2([1, 1], [1, -1])
        assert_sound_witness(
            rep,
            sym=transpose_stack([[1, 1]]),
            herm=hermitian_stack([[1, -1]]),
        )

    def test_aligned_zeros(self):
        rep = unique_thm2([1, 0], [1, 0])
        assert_sound_witness(
            rep, sym=transpose_stack([[1, 0]]), herm=hermitian_stack([[1, 0]])
        )

    def test_non_finite_diagonal_rejected(self):
        with pytest.raises(NonFiniteEntries):
            unique_thm2([np.nan, 1], [1, 1])

    def test_witness_rejects_separated_pair(self):
        with pytest.raises(InvalidPrecondition):
            witness_thm2([1 + 1j, 2], [1, 1], (0, 1))


class TestThm3:
    def _matched(self, ratio_sym=2.0, phase=np.pi / 3, ratio_herm=2.0):
        zk = np.array([1.0, 0.5j])
        zl = ratio_sym * np.exp(1j * phase) * zk
        zpk = np.array([0.3, 0.9])
        zpl = ratio_herm * zpk
        sym = transpose_stack(np.column_stack([zk, zl]))
        herm = hermitian_stack(np.column_stack([zpk, zpl]))
        return sym, herm

    def test_matched_ratios_not_unique(self):
        sym, herm = self._matched()
        rep = unique_thm3(sym, herm)
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_mismatched_ratios_unique(self):
        sym, herm = self._matched(ratio_herm=3.0)
        assert unique_thm3(sym, herm).unique

    def test_all_vectors_equal(self):
        sym = transpose_stack([[1, 1]])
        herm = hermitian_stack([[1, 1]])
        rep = unique_thm3(sym, herm)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_zero_norm_falls_back_to_single_family(self):
        # position pair dead in the transpose family entirely
        sym = transpose_stack([[0, 0, 1.0]])
        herm = hermitian_stack([[1, 1, 2.0]])
        rep = unique_thm3(sym, herm)
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_precondition_enforced(self):
        sym = transpose_stack([[1, 0], [0, 1]])  # rho = 0
        herm = hermitian_stack([[1, 1]])
        with pytest.raises(InvalidPrecondition):
            unique_thm3(sym, herm)

    def test_witness_rejects_unmatched_pair(self):
        sym, herm = self._matched(ratio_herm=3.0)
        with pytest.raises(InvalidPrecondition):
            witness_thm3(sym, herm, (0, 1))


class TestMaster:
    def test_branch_i(self):
        rep = identifiability_master(
            transpose_stack([[0.9, 0.1], [0.1, 0.9]]), hermitian_stack([[1, 2]])
        )
        assert rep.unique and rep.rule_fired == "Identifiability-i"

    def test_branch_ii(self):
        rep = identifiability_master(
            transpose_stack([[1, 2]]), hermitian_stack([[0.9, 0.1], [0.1, 0.9]])
        )
        assert rep.unique and rep.rule_fired == "Identifiability-ii"

    def test_empty_sym_falls_to_branch_iii(self):
        herm = hermitian_stack([[1, 2]])
        rep = identifiability_master(None, herm)
        assert rep.rule_fired == "Identifiability-iii"
        assert_sound_witness(rep, herm=herm)

    def test_branch_iii_unique_via_modulus_margin(self):
        rep = identifiability_master(
            transpose_stack([[1 + 1j, 2]]), hermitian_stack([[1, 1]])
        )
        assert rep.unique and rep.rule_fired == "Identifiability-iii"

    def test_agrees_with_thm1_when_one_stack_empty(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            spectra = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            if rng.uniform() < 0.5:  # force some collinear cases
                spectra[:, 1] = (1.5 - 0.5j) * spectra[:, 0]
            stack = transpose_stack(spectra)
            assert (
                identifiability_master(stack, None).verdict
                == unique_thm1(stack).verdict
            )

    def test_agrees_with_thm2_when_single_matrices(self, rng):
        for _ in range(25):
            w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w2 = rng.standard_normal(3)
            if rng.uniform() < 0.5:
                w1[1] = w1[0] * abs(w2[1] / w2[0]) * np.exp(0.3j)
            rep_m = identifiability_master(
                transpose_stack([w1]), hermitian_stack([w2])
            )
            rep_2 = unique_thm2(w1, w2)
            assert rep_m.verdict == rep_2.verdict

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spectra_get_no_witness_with_nan_residual(self):
        # the Gram matrix and the residual overflow: the NaN residual must
        # fail verification instead of passing as "not above the bound"
        with pytest.raises(WitnessVerificationError):
            identifiability_master(
                transpose_stack([[1e200, 1e200]]), hermitian_stack([[1e200, 2e200]])
            )

    def test_both_empty_rejected(self):
        with pytest.raises(InvalidPrecondition):
            identifiability_master(None, None)


from conftest import random_nonidentifiable_stacks


class TestSoundness:
    def test_witnesses_verify_on_constructed_stacks(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(1000):
            sym, herm = random_nonidentifiable_stacks(rng)
            rep = identifiability_master(sym, herm)
            if rep.unique:
                # zeroed-out transpose columns can leave the pair unmatched
                continue
            assert_sound_witness(rep, sym=sym, herm=herm)
            checked += 1
        assert checked >= 900

    def test_margin_relaxes_the_predicate(self):
        # nearly collinear (1 - |c| ~ 1e-9): certified Unique at the exact
        # tolerance, flagged NotUnique at a noisy-estimation margin
        st_ = transpose_stack([[1.0, 1.0], [1.0, 1.0 + 1e-4]])
        assert unique_thm1(st_).verdict == "Unique"
        rep = unique_thm1(st_, tol=1e-3)
        assert rep.verdict == "NotUnique"
        # witness residual is only as small as the margin allows
        assert rep.witness_residual <= 1e-3


# ---------------------------------------------------------------------------
# the vectorized engine against a brute-force per-pair loop

from nujd.uniqueness import _cosine_abs_matrix
import nujd.uniqueness as uniqueness_module


def _loop_rho(stack):
    """Largest |cos| over pairs k < l, the first on ties, by a per-pair loop."""
    best = None
    for k in range(stack.m):
        for l in range(k + 1, stack.m):
            c = _cosine_abs_matrix(stack.spectra)[0][k, l]
            if best is None or c > best[0]:
                best = (float(c), (k, l))
    return best


def _loop_pair_condition(sym, herm, k, l, tol):
    """Thm 3 at one pair, recomputing both |cos| matrices for this pair alone."""
    if sym.n:
        c_s, n_s = _cosine_abs_matrix(sym.spectra)
        cos_s, nk_s, nl_s = c_s[k, l], n_s[k], n_s[l]
    else:
        cos_s, nk_s, nl_s = 1.0, 0.0, 0.0
    if herm.n:
        c_h, n_h = _cosine_abs_matrix(herm.spectra)
        cos_h, nk_h, nl_h = c_h[k, l], n_h[k], n_h[l]
    else:
        cos_h, nk_h, nl_h = 1.0, 0.0, 0.0
    if cos_s < 1.0 - tol or cos_h < 1.0 - tol:
        return False
    a = nk_s * nl_h
    b = nl_s * nk_h
    return abs(a - b) <= tol * max(a, b, np.finfo(float).tiny)


def loop_master(sym, herm, tol):
    """(verdict, rule, pair, rho_t, rho_h) of the identifiability decision."""
    m = sym.m if sym is not None else herm.m
    sym = sym if sym is not None else transpose_stack(np.zeros((0, m)))
    herm = herm if herm is not None else hermitian_stack(np.zeros((0, m)))
    rho_s = _loop_rho(sym)[0] if sym.n else None
    rho_h = _loop_rho(herm)[0] if herm.n else None
    if rho_s is not None and rho_s < 1.0 - tol:
        return "Unique", "Identifiability-i", None, rho_s, rho_h
    if rho_h is not None and rho_h < 1.0 - tol:
        return "Unique", "Identifiability-ii", None, rho_s, rho_h
    for k in range(m):
        for l in range(k + 1, m):
            if _loop_pair_condition(sym, herm, k, l, tol):
                return "NotUnique", "Identifiability-iii", (k, l), rho_s, rho_h
    return "Unique", "Identifiability-iii", None, rho_s, rho_h


def loop_thm2(w1, w2, tol):
    a1, a2 = np.abs(w1), np.abs(w2)
    for k in range(len(w1)):
        for l in range(k + 1, len(w1)):
            a, b = a1[k] * a2[l], a1[l] * a2[k]
            if abs(a - b) <= tol * max(a, b, np.finfo(float).tiny):
                return (k, l)
    return None


_VALUES = [0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1j, 1 + 1j, 2 - 1j, -0.5j]


@st.composite
def stacks_pair(draw):
    """(sym, herm, tol): small-valued stacks, often with a planted matched pair.

    Draws cover empty families, multi-row families, zero position vectors
    and coincident pairs (collinear in both families, equal norm ratios).
    """
    m = draw(st.integers(2, 6))
    ns, nh = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if ns == nh == 0:
        ns = 1
    cells = st.sampled_from(_VALUES)
    sym = np.array(draw(st.lists(cells, min_size=ns * m, max_size=ns * m)), dtype=complex)
    herm = np.array(
        draw(st.lists(cells.map(lambda z: z.real), min_size=nh * m, max_size=nh * m))
    )
    sym, herm = sym.reshape(ns, m), herm.reshape(nh, m)
    if draw(st.booleans()):
        k, l = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
        r = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        sym[:, l] = r * draw(st.sampled_from([1, -1, 1j, np.exp(0.3j)])) * sym[:, k]
        herm[:, l] = r * draw(st.sampled_from([1.0, -1.0])) * herm[:, k]
    for col in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        sym[:, col] = 0.0
    assume(ns == 0 or np.any(sym != 0))
    assume(nh == 0 or np.any(herm != 0))
    tol = draw(st.sampled_from([1e-10, 1e-3]))
    return (
        transpose_stack(sym) if ns else None,
        hermitian_stack(herm) if nh else None,
        tol,
    )


class TestEngineEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(stacks_pair())
    def test_master_matches_the_pair_loop(self, case):
        sym, herm, tol = case
        rep = identifiability_master(sym, herm, tol)
        got = (rep.verdict, rep.rule_fired, rep.violating_pair, rep.rho_transpose, rep.rho_hermitian)
        assert got == loop_master(sym, herm, tol)
        if not rep.unique:
            mats = reconstructed(sym, herm)
            assert rep.witness_residual <= max(1e-10, tol)
            assert abs(rep.witness_residual - offdiag_residual(mats, rep.witness)) <= 1e-12
            same, _ = is_essentially_equivalent(rep.witness, GLElement(np.eye(rep.witness.m)))
            assert not same

    @settings(max_examples=150, deadline=None)
    @given(stacks_pair())
    def test_single_kind_and_two_matrix_match_the_loop(self, case):
        sym, herm, tol = case
        for stack in (sym, herm):
            if stack is not None:
                rep = unique_thm1(stack, tol)
                rho, pair = _loop_rho(stack)
                assert (rep.rho_transpose, rep.rho_hermitian) == (
                    (rho, None) if stack.kind is CongruenceKind.TRANSPOSE else (None, rho)
                )
                assert rep.violating_pair == (None if rho < 1.0 - tol else pair)
        if sym is not None and herm is not None and sym.n == herm.n == 1:
            w1, w2 = sym.spectra[0], herm.spectra[0].real
            rep = unique_thm2(w1, w2, tol)
            assert rep.violating_pair == loop_thm2(w1, w2, tol)
            if not rep.unique:
                assert rep.witness_residual <= max(1e-10, tol)


class TestVerdictInvariance:
    @settings(max_examples=200, deadline=None)
    @given(stacks_pair(), st.randoms(use_true_random=False))
    def test_permutation_scaling_and_conjugation(self, case, rnd):
        # A -> A P D maps D_i to P^T D_i P scaled by d_k^2 (transpose kind)
        # and |d_k|^2 (Hermitian kind): the verdict must not move
        sym, herm, tol = case
        m = (sym if sym is not None else herm).m
        base = identifiability_master(sym, herm, tol)
        perm = list(range(m))
        rnd.shuffle(perm)
        d = np.array([rnd.uniform(0.5, 2.0) * np.exp(1j * rnd.uniform(0, 2 * np.pi)) for _ in range(m)])
        moved_sym = transpose_stack(sym.spectra[:, perm] * d**2) if sym is not None else None
        moved_herm = (
            hermitian_stack(herm.spectra[:, perm].real * np.abs(d) ** 2) if herm is not None else None
        )
        moved = identifiability_master(moved_sym, moved_herm, tol)
        assert (moved.verdict, moved.rule_fired) == (base.verdict, base.rule_fired)
        if sym is not None:
            conj = identifiability_master(transpose_stack(sym.spectra.conj()), herm, tol)
            assert (conj.verdict, conj.rule_fired) == (base.verdict, base.rule_fired)


class TestEngineCost:
    @pytest.mark.parametrize("coincident", [False, True])
    def test_one_gram_matrix_per_family(self, monkeypatch, coincident):
        # the pair scan must not rebuild the |cos| matrices pair by pair
        m = 16
        rng = np.random.default_rng(16)
        h = rng.uniform(0.5, 2.0, m)
        t = np.exp(0.1 * np.arange(m)) * h * np.exp(2j * np.pi * rng.uniform(size=m))
        if coincident:
            t[m - 1] = t[m - 2] * h[m - 1] / h[m - 2]
        calls = []

        def counting(spectra):
            calls.append(spectra.shape)
            return _cosine_abs_matrix(spectra)

        monkeypatch.setattr(uniqueness_module, "_cosine_abs_matrix", counting)
        rep = identifiability_master(transpose_stack([t]), hermitian_stack([h]))
        assert rep.rule_fired == "Identifiability-iii"
        assert rep.violating_pair == ((m - 2, m - 1) if coincident else None)
        assert len(calls) <= 2
        calls.clear()
        identifiability_master(None, hermitian_stack([h]))
        assert len(calls) <= 1
