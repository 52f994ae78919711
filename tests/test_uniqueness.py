import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nujd.core import (
    TAU_RHO,
    CongruenceKind,
    GLElement,
    TaggedMatrix,
    is_essentially_equivalent,
    offdiag_residual,
)
from nujd.errors import (
    DimensionMismatch,
    InvalidPrecondition,
    NonFiniteEntries,
    WitnessVerificationError,
)
from nujd.uniqueness import _pair_witness_block, _witness, identifiability_master

from conftest import BAD_TOLERANCES, hermitian_stack, transpose_stack
from _search import gm_distance_batch


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
    assert gm_distance_batch(w.matrix[None])[0] > 0.1


def single(stack, tol=TAU_RHO):
    """The identifiability decision of a single-kind stack."""
    if stack.kind is CongruenceKind.TRANSPOSE:
        return identifiability_master(stack, None, tol)
    return identifiability_master(None, stack, tol)


def two_matrix(w1, w2):
    """The decision of one transpose-kind and one Hermitian-kind diagonal."""
    return identifiability_master(transpose_stack([w1]), hermitian_stack([w2]))


class TestCollinearity:
    def test_proportional_columns(self):
        assert single(transpose_stack([[1, 2], [2, 4]])).rho_transpose == pytest.approx(1.0)

    def test_orthogonal_positions(self):
        assert single(transpose_stack([[1, 0], [0, 1]])).rho_transpose == pytest.approx(0.0)

    def test_sign_flip_orthogonal(self):
        assert single(transpose_stack([[1, 1], [1, -1]])).rho_transpose == pytest.approx(0.0)

    def test_zero_vector_convention(self):
        # a zero position vector counts as collinear with everything
        assert single(transpose_stack([[0, 3], [0, 4j]])).rho_transpose == 1.0
        assert single(hermitian_stack([[0, 0, 1], [0, 0, 2]])).rho_hermitian == 1.0

    def test_m1_rejected(self):
        with pytest.raises(InvalidPrecondition):
            single(transpose_stack([[1.0]]))

    def test_families_must_share_m(self):
        with pytest.raises(DimensionMismatch):
            identifiability_master(transpose_stack([[1, 0]]), hermitian_stack([[1, 0, 0]]))

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, (2, 3, 4), elements=st.floats(-10, 10, width=32)))
    def test_modulus_bounded(self, a):
        assume(np.any(a != 0))
        # a separated Hermitian family (rho = 0) settles the decision before
        # any witness is built, so only the collinearity value is exercised
        rep = identifiability_master(transpose_stack(a[0] + 1j * a[1]), hermitian_stack(np.eye(4)))
        assert 0.0 <= rep.rho_transpose <= 1.0

    def test_invariances(self, rng):
        spectra = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))

        def rho(z):
            return single(transpose_stack(z)).rho_transpose

        base = rho(spectra)
        # reorder matrices in the stack
        assert rho(spectra[::-1]) == pytest.approx(base)
        # scale one matrix by a nonzero unit-modulus scalar (value invariant)
        scaled = spectra.copy()
        scaled[2] *= np.exp(0.7j)
        assert rho(scaled) == pytest.approx(base)
        # permute diagonal positions simultaneously
        perm = rng.permutation(5)
        assert rho(spectra[:, perm]) == pytest.approx(base)

    def test_scaling_one_matrix_preserves_the_verdict(self, rng):
        # general rescaling of one matrix reweights the cosines, but the
        # collinear locus (rho = 1) and the uniqueness verdict are invariant
        for collinear in (False, True):
            spectra = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            if collinear:
                spectra[:, 2] = (0.4 + 1.1j) * spectra[:, 1]
            base = single(transpose_stack(spectra)).verdict
            scaled = spectra.copy()
            scaled[1] *= 7.0 - 3.0j
            assert single(transpose_stack(scaled)).verdict == base


class TestSingleKind:
    # Thm 1: a single-kind stack is essentially unique iff its collinearity < 1
    def test_unique_four_fifths(self):
        rep = single(transpose_stack([[1, 2], [2, 1]]))
        assert rep.unique and rep.rho_transpose == pytest.approx(0.8)
        assert rep.rule_fired == "Identifiability-i"

    def test_single_matrix_equal_entries(self):
        rep = single(hermitian_stack([[1, 1]]))
        assert rep.rule_fired == "Identifiability-iii"
        assert_sound_witness(rep, herm=hermitian_stack([[1, 1]]))

    def test_proportional_complex_spectra(self):
        st_ = transpose_stack([[1 + 1j, 2 + 2j]])
        rep = single(st_)
        assert_sound_witness(rep, sym=st_)

    def test_zero_position_vector(self):
        st_ = transpose_stack([[0, 1 + 1j], [0, 2.0]])
        rep = single(st_)
        assert_sound_witness(rep, sym=st_)


class TestTwoMatrix:
    # Thm 2: one matrix of each kind is essentially unique iff
    # |w1_k| |w2_l| != |w1_l| |w2_k| for every pair k != l
    def test_distinct_products_unique(self):
        assert two_matrix([1 + 1j, 2], [1, 1]).unique

    def test_equal_products(self):
        rep = two_matrix([1, 1], [1, 1])
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(
            rep,
            sym=transpose_stack([[1, 1]]),
            herm=hermitian_stack([[1, 1]]),
        )

    def test_crossed_zeros_unique(self):
        assert two_matrix([0, 5], [3, 0]).unique

    def test_phase_only_difference(self):
        rep = two_matrix([np.exp(1j * np.pi / 2), 1], [1, 1])
        assert_sound_witness(
            rep,
            sym=transpose_stack([[np.exp(1j * np.pi / 2), 1]]),
            herm=hermitian_stack([[1, 1]]),
        )

    def test_negative_hermitian_entries(self):
        rep = two_matrix([1, 1], [1, -1])
        assert_sound_witness(
            rep,
            sym=transpose_stack([[1, 1]]),
            herm=hermitian_stack([[1, -1]]),
        )

    def test_aligned_zeros(self):
        rep = two_matrix([1, 0], [1, 0])
        assert_sound_witness(
            rep, sym=transpose_stack([[1, 0]]), herm=hermitian_stack([[1, 0]])
        )

    def test_non_finite_diagonal_rejected(self):
        with pytest.raises(NonFiniteEntries):
            two_matrix([np.nan, 1], [1, 1])


class TestMixedResidual:
    # Thm 3: both collinearities equal one; not essentially unique iff some
    # pair is collinear in both families with matching norm ratios
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
        rep = identifiability_master(sym, herm)
        assert rep.rule_fired == "Identifiability-iii"
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_mismatched_ratios_unique(self):
        sym, herm = self._matched(ratio_herm=3.0)
        rep = identifiability_master(sym, herm)
        assert rep.unique and rep.rule_fired == "Identifiability-iii"

    def test_all_vectors_equal(self):
        sym = transpose_stack([[1, 1]])
        herm = hermitian_stack([[1, 1]])
        rep = identifiability_master(sym, herm)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_zero_norm_falls_back_to_single_family(self):
        # position pair dead in the transpose family entirely
        sym = transpose_stack([[0, 0, 1.0]])
        herm = hermitian_stack([[1, 1, 2.0]])
        rep = identifiability_master(sym, herm)
        assert rep.violating_pair == (0, 1)
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_separated_family_decides_before_the_pair_scan(self):
        sym = transpose_stack([[1, 0], [0, 1]])  # rho = 0
        herm = hermitian_stack([[1, 1]])
        rep = identifiability_master(sym, herm)
        assert rep.unique and rep.rule_fired == "Identifiability-i"
        assert rep.violating_pair is None


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
        # a PUT pair whose auto diagonal (1 + 1j, 1 + 2j) is complex: its
        # real part (1, 1) and skew part (1, 2) are two Hermitian rows
        rep = identifiability_master(transpose_stack([[1, 1]]), hermitian_stack([[1, 1], [1, 2]]))
        assert rep.unique and rep.rule_fired == "Identifiability-ii"

    def test_empty_sym_falls_to_branch_iii(self):
        herm = hermitian_stack([[1, 2]])
        rep = identifiability_master(None, herm)
        assert rep.rule_fired == "Identifiability-iii"
        assert_sound_witness(rep, herm=herm)
        # a PUT pair whose real and skew auto parts both fail the modulus
        # test: NotUnique, and the report carries a verified witness
        sym, herm = transpose_stack([[1, 1]]), hermitian_stack([[1, 1]])
        rep = identifiability_master(sym, herm)
        assert rep.rule_fired == "Identifiability-iii"
        assert_sound_witness(rep, sym=sym, herm=herm)

    def test_branch_iii_unique_via_modulus_margin(self):
        rep = identifiability_master(
            transpose_stack([[1 + 1j, 2]]), hermitian_stack([[1, 1]])
        )
        assert rep.unique and rep.rule_fired == "Identifiability-iii"
        # a PUT pair identified by the real part of its auto diagonal alone
        rep = identifiability_master(transpose_stack([[1, 1]]), hermitian_stack([[1, 2]]))
        assert rep.unique and rep.rule_fired == "Identifiability-iii"

    def test_one_stack_empty_is_the_collinearity_test(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            spectra = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            if rng.uniform() < 0.5:  # force some collinear cases
                spectra[:, 1] = (1.5 - 0.5j) * spectra[:, 0]
            stack = transpose_stack(spectra)
            expected = "Unique" if _loop_rho(stack) < 1.0 - TAU_RHO else "NotUnique"
            assert identifiability_master(stack, None).verdict == expected

    def test_single_matrices_are_the_modulus_product_test(self, rng):
        for _ in range(25):
            w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w2 = rng.standard_normal(3)
            if rng.uniform() < 0.5:
                w1[1] = w1[0] * abs(w2[1] / w2[0]) * np.exp(0.3j)
            rep = two_matrix(w1, w2)
            assert rep.unique == (loop_thm2(w1, w2, TAU_RHO) is None)

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


class TestTolerance:
    # (transpose, Hermitian) spectra: (0.5, 0.5) / (1, 1) is not identifiable,
    # (1, 0.2), (0.3, 1) / (1, 2) is
    NOT_UNIQUE = ([[0.5, 0.5]], [[1, 1]])
    UNIQUE = ([[1, 0.2], [0.3, 1]], [[1, 2]])
    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_out_of_range_tol_rejected_in_every_case(self, tol):
        # mixed, single-kind and one-row stacks all go through the one entry
        for spectra in (self.NOT_UNIQUE, self.UNIQUE):
            sym, herm = transpose_stack(spectra[0]), hermitian_stack(spectra[1])
            for pair in ((sym, herm), (sym, None), (None, herm)):
                with pytest.raises(InvalidPrecondition, match=rf"^tol must be finite and lie in \[0, 1\), got {tol}$"):
                    identifiability_master(*pair, tol)

    def test_verdicts_at_valid_tolerances(self):
        sym, herm = transpose_stack(self.NOT_UNIQUE[0]), hermitian_stack(self.NOT_UNIQUE[1])
        for tol in (0.0, 1e-10, 1e-3, 0.5):
            assert_sound_witness(identifiability_master(sym, herm, tol), sym=sym, herm=herm)
        sym, herm = transpose_stack(self.UNIQUE[0]), hermitian_stack(self.UNIQUE[1])
        for tol in (0.0, 1e-10, 1e-3):
            assert identifiability_master(sym, herm, tol).unique


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
        assert single(st_).verdict == "Unique"
        rep = single(st_, tol=1e-3)
        assert rep.verdict == "NotUnique"
        # witness residual is only as small as the margin allows
        assert rep.witness_residual <= 1e-3


# ---------------------------------------------------------------------------
# the vectorized engine against a brute-force per-pair loop

from nujd.uniqueness import _cosine_abs_matrix
import nujd.uniqueness as uniqueness_module


def _loop_rho(stack):
    """Largest |cos| over pairs k < l, by a per-pair loop."""
    return max(
        float(_cosine_abs_matrix(stack.spectra)[0][k, l])
        for k in range(stack.m)
        for l in range(k + 1, stack.m)
    )


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
    rho_s = _loop_rho(sym) if sym.n else None
    rho_h = _loop_rho(herm) if herm.n else None
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
                rep = single(stack, tol)
                rho = _loop_rho(stack)
                assert (rep.rho_transpose, rep.rho_hermitian) == (
                    (rho, None) if stack.kind is CongruenceKind.TRANSPOSE else (None, rho)
                )
                assert rep.unique == (rho < 1.0 - tol)
        if sym is not None and herm is not None and sym.n == herm.n == 1:
            w1, w2 = sym.spectra[0], herm.spectra[0].real
            rep = identifiability_master(sym, herm, tol)
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


# ---------------------------------------------------------------------------
# the cached-index helpers against the formulas they replace

from nujd.uniqueness import (
    _first_pair,
    _pair_kernel,
    _pair_witness_block,
    _rho,
    _spectra_residual,
)


class TestPairHelpers:
    def test_rho_matches_triu_indices(self):
        rng = np.random.default_rng(40)
        for m in range(2, 41):
            for nan_share in (0.0, 0.05):
                c = rng.uniform(size=(m, m))
                c[rng.uniform(size=(m, m)) < nan_share] = np.nan
                ref = float(np.max(c[np.triu_indices(m, k=1)]))
                assert repr(_rho(c)) == repr(ref)
            # NaN on and below the diagonal is outside every pair
            c = np.triu(rng.uniform(size=(m, m)), k=1)
            c[np.tril_indices(m)] = np.nan
            assert _rho(c) == float(np.max(c[np.triu_indices(m, k=1)]))

    def test_first_pair_matches_argwhere(self):
        rng = np.random.default_rng(41)
        for m in range(2, 41):
            for density in (0.0, 0.002, 0.05, 1.0):
                hits = rng.uniform(size=(m, m)) < density
                found = np.argwhere(np.triu(hits, k=1))
                ref = (int(found[0, 0]), int(found[0, 1])) if found.size else None
                assert _first_pair(hits) == ref
            assert _first_pair(np.zeros((m, m), dtype=bool)) is None
            assert _first_pair(np.tril(np.ones((m, m), dtype=bool))) is None
            last = np.zeros((m, m), dtype=bool)
            last[m - 2, m - 1] = True
            assert _first_pair(last) == (m - 2, m - 1)

    @staticmethod
    def _full_residual(x, t, h):
        """Reference: the congruences on the whole m x m witness, by einsum."""
        m = x.shape[0]
        xc = x.conj()
        num = den = 0.0
        for spectra, right, hermitian in ((t, xc, False), (h, x, True)):
            if spectra.shape[0] == 0:
                continue
            a = np.einsum("ja,ij,jb->iab", xc, spectra, right)
            a = (a + (a.conj() if hermitian else a).swapaxes(1, 2)) / 2.0
            a[:, np.arange(m), np.arange(m)] = 0.0
            num += float(np.sum(np.abs(a) ** 2))
            den += float(np.sum(np.abs(spectra) ** 2))
        return float(np.sqrt(num / den)) if den else 0.0

    def test_spectra_residual_matches_einsum(self):
        # the block residual against the full-matrix formula on witnesses
        # that are the identity outside rows and columns {k, l}
        rng = np.random.default_rng(42)
        for m in range(2, 41):
            for nt in range(4):
                for nh in range(4):
                    k, l = sorted(int(i) for i in rng.choice(m, size=2, replace=False))
                    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    x = np.eye(m, dtype=complex)
                    x[np.ix_([k, l], [k, l])] = block
                    t = rng.standard_normal((nt, m)) + 1j * rng.standard_normal((nt, m))
                    h = rng.standard_normal((nh, m)).astype(complex)
                    ref = self._full_residual(x, t, h)
                    got = _spectra_residual(block, (k, l), t, h)
                    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_witness_matrix_is_the_embedded_block(self):
        # plain assignment of the block gives the bits of the np.ix_ embedding
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(300):
            sym, herm = random_nonidentifiable_stacks(rng, m=int(rng.integers(2, 9)))
            rep = identifiability_master(sym, herm)
            if rep.unique:
                continue
            k, l = rep.violating_pair
            t = sym.spectra if sym is not None else np.zeros((0, rep.witness.m), complex)
            h = herm.spectra if herm is not None else np.zeros((0, rep.witness.m), complex)
            block = _pair_witness_block(
                _pair_kernel(np.conj(t), (k, l), TAU_RHO), _pair_kernel(h.real, (k, l), TAU_RHO)
            )
            x = np.eye(rep.witness.m, dtype=complex)
            x[np.ix_([k, l], [k, l])] = block
            assert rep.witness.matrix.tobytes() == x.tobytes()
            assert rep.witness_residual == pytest.approx(
                self._full_residual(x, t, h), rel=1e-9, abs=1e-15
            )
            checked += 1
        assert checked >= 250


@pytest.mark.parametrize("eps, verifies", [(1e-11, True), (1e-8, False)])
def test_witness_residual_floor(eps, verifies):
    # transpose rows (eps, 0) and (1, 1): the position vectors (eps, 1) and
    # (0, 1) have |cos| 1 in floating point, and the pair witness leaves a
    # residual of eps, judged against max(1e-10, tol) at tol = 0
    t = np.array([[eps, 0], [1, 1]], dtype=complex)
    if verifies:
        assert _witness((0, 1), t, np.zeros((0, 2)), 0.0)[1] <= 1e-10
    else:
        with pytest.raises(WitnessVerificationError, match=r"residual 1\.000e-08 > 1e-10"):
            _witness((0, 1), t, np.zeros((0, 2)), 0.0)


@pytest.mark.parametrize("v, rescaled", [(1 - 2e-6, False), (1 - 5e-7, True)])
def test_witness_block_rescale_boundary(v, rescaled):
    # transpose kernel (1, v) gives rows (1, 1) and (1, v), |det| = 1 - v,
    # judged against 1e-6 * max(1, max |entry|^2) = 1e-6
    block = _pair_witness_block((1.0, v), None)
    assert block[0].tolist() == [1, 1]
    assert block[1].tolist() == ([2, v / 2] if rescaled else [1, v])
