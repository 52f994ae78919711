import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nujd.core import (
    CongruenceKind,
    GLElement,
    TaggedMatrix,
    is_essentially_equivalent,
    offdiag_residual,
)
from nujd.errors import (
    ConfigError,
    DefectiveMatrix,
    DegenerateSpectrum,
    DegenerateSpectrumWarning,
    InvalidPrecondition,
    NotPositiveDefinite,
    NumericFailure,
    OrthogonalizationFailure,
    SingularPseudoCovariance,
    SingularSecondMatrix,
)
from nujd.linalg import sign_normalize_columns, takagi
from nujd.solvers import put, solve_pair, sut, two_matrix_same_kind
from nujd.uniqueness import identifiability_master
from nujd.core import DiagonalStack

from nujd import solvers

from conftest import eig_polar_factor, put_pair, random_mixing, random_unitary, tagged_put_pair


def classical_sut(c_h: np.ndarray, c_s: np.ndarray) -> np.ndarray:
    """Independent reference: whiten the Hermitian matrix by its EVD, then
    Takagi-factor the whitened symmetric statistic.

    With W0 = V L^{-1/2} (so W0^H C_h W0 = I) and W0^H C_s conj(W0) = U S U^T,
    the demixer X = W0 U satisfies X^H C_h X = I and X^H C_s conj(X) = S.
    """
    lam, v = np.linalg.eigh(c_h)
    white = v @ np.diag(1.0 / np.sqrt(lam))
    tf = takagi(white.conj().T @ c_s @ white.conj())
    return white @ tf.u


class TestPut:
    def test_already_diagonal(self):
        c1 = TaggedMatrix(np.diag([2.0, 3.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)
        res = put(c1, c2)
        assert np.allclose(res.lam, [3.0, 2.0])
        same, _ = is_essentially_equivalent(res.x, GLElement(np.eye(2)))
        assert same

    def test_diagonal_phase_pseudo(self):
        c1 = TaggedMatrix(np.diag([1.0, 1.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.diag([1.0, np.exp(1j * np.pi / 2)]), CongruenceKind.TRANSPOSE)
        with pytest.warns(DegenerateSpectrumWarning):
            res = put(c1, c2)
        assert res.residual_identity <= 1e-8 * 2
        assert np.allclose(np.abs(res.takagi.u), np.eye(2), atol=1e-12)

    def test_random_instances_recover_mixing(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 9))
            a, w1, w2 = put_pair(rng, m)
            c1, c2 = tagged_put_pair(a, w1, w2)
            res = put(c1, c2)
            assert res.residual_identity <= 1e-8 * m
            assert res.residual_offdiag <= 1e-8
            same, _ = is_essentially_equivalent(
                res.x, GLElement(np.linalg.inv(a).conj().T), 1e-6
            )
            assert same

    def test_kind_preconditions(self):
        h = TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN)
        t = TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)
        with pytest.raises(InvalidPrecondition):
            put(t, t)
        with pytest.raises(InvalidPrecondition):
            put(h, h)

    def test_singular_pseudo_covariance(self):
        c1 = TaggedMatrix(np.diag([2.0, 3.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.diag([1.0, 0.0]), CongruenceKind.TRANSPOSE)
        with pytest.raises(SingularPseudoCovariance):
            put(c1, c2)

    def test_floor_error_names_the_last_index(self):
        # the Takagi floor check reports index m - 1, as solve prints it
        c1 = TaggedMatrix(np.diag([2.0, 3.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.diag([1.0, 1e-15]), CongruenceKind.TRANSPOSE)
        with pytest.raises(SingularPseudoCovariance, match=r"^Takagi singular value 1 is below the floor \("):
            put(c1, c2)

    def test_degenerate_gap_warns_not_raises(self, rng):
        a = random_mixing(rng, 2, cond_cap=10)
        c1 = TaggedMatrix(a @ np.diag([1.0, 1.0]) @ a.conj().T, CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(a @ np.diag([0.5, 0.5]) @ a.T, CongruenceKind.TRANSPOSE)
        with pytest.warns(DegenerateSpectrumWarning):
            res = put(c1, c2)
        assert res.eig_gap < 1e-6
        assert res.residual_identity <= 1e-8 * 2  # identity certificate survives

    @pytest.mark.parametrize("gap, warns", [(5e-7, True), (2e-6, False)])
    def test_gap_warning_boundary(self, gap, warns):
        # EIG_GAP_WARN = 1e-6 on the relative gap of the whitened eigenvalues (w1 / |w2|)^2
        rng = np.random.default_rng(47)
        a = random_mixing(rng, 3, cond_cap=10)
        w2 = np.array([2.0, 0.5, 1.3]) * np.exp(2j * np.pi * rng.uniform(size=3))
        w1 = np.sqrt([1.0, 1.0 - gap, 0.3]) * np.abs(w2)
        c1, c2 = tagged_put_pair(a, w1, w2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = put(c1, c2)
        assert res.eig_gap == pytest.approx(gap, rel=1e-3)
        assert [w.category for w in caught] == ([DegenerateSpectrumWarning] if warns else [])

    def test_equivariance_under_unitary_congruence(self, rng):
        for _ in range(10):
            m = 4
            a, w1, w2 = put_pair(rng, m)
            c1, c2 = tagged_put_pair(a, w1, w2)
            res = put(c1, c2)
            if res.eig_gap <= 1e-4:
                continue
            q = random_unitary(rng, m)
            qc1 = TaggedMatrix(q.conj().T @ c1.matrix @ q, CongruenceKind.HERMITIAN)
            qc2 = TaggedMatrix(q.conj().T @ c2.matrix @ q.conj(), CongruenceKind.TRANSPOSE)
            res_q = put(qc1, qc2)
            same, _ = is_essentially_equivalent(
                GLElement(q @ res_q.x.matrix), res.x, 1e-6
            )
            assert same


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
    def test_equivariance_under_permutation_and_scaling_of_mixing(self, seed, m):
        # A -> A P D maps the population pair to A (P |D|^2 w1 P^T) A^H and
        # A (P D^2 w2 P^T) A^T: the same modulus ratios, permuted, so the
        # Thm 2 separation is kept and both demixers must agree up to G(m).
        rng = np.random.default_rng(seed)
        a, w1, w2 = put_pair(rng, m)
        p = np.eye(m)[rng.permutation(m)]
        d = rng.uniform(0.5, 2.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        res = put(*tagged_put_pair(a, w1, w2))
        res_pd = put(*tagged_put_pair(a @ p @ np.diag(d), w1, w2))
        same, _ = is_essentially_equivalent(res_pd.x, res.x, 1e-6)
        assert same


class TestSut:
    def test_reciprocal_circularity_spectrum(self):
        res = sut(
            TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([0.9, 0.3]), CongruenceKind.TRANSPOSE),
        )
        assert np.allclose(sorted(1.0 / res.lam.real), [0.3, 0.9])

    def test_hand_whitening(self):
        # the whitened spectrum (4/2, 1/0.5) is degenerate, but diagonal
        # inputs keep the eigenbasis axis-aligned and the answer exact
        with pytest.warns(DegenerateSpectrumWarning):
            res = sut(
                TaggedMatrix(np.diag([4.0, 1.0]), CongruenceKind.HERMITIAN),
                TaggedMatrix(np.diag([2.0, 0.5]), CongruenceKind.TRANSPOSE),
            )
        same, _ = is_essentially_equivalent(res.x, GLElement(np.diag([0.5, 1.0])), 1e-8)
        assert same

    def test_degenerate_warning_names_the_callers_line(self):
        # sut runs put, and solve_pair runs either: the warning skips every nujd frame
        items = [
            TaggedMatrix(np.diag([4.0, 1.0]), CongruenceKind.HERMITIAN),
            TaggedMatrix(np.diag([2.0, 0.5]), CongruenceKind.TRANSPOSE),
        ]
        calls = (
            lambda: put(*items),
            lambda: sut(*items),
            lambda: solve_pair(items, "put"),
            lambda: solve_pair(items, "sut"),
        )
        for call in calls:
            with pytest.warns(DegenerateSpectrumWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            sut(
                TaggedMatrix(np.diag([-1.0, 2.0]), CongruenceKind.HERMITIAN),
                TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE),
            )

    def test_sut_put_coincide(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 7))
            a = random_mixing(rng, m)
            while True:
                w1 = rng.uniform(0.3, 3.0, m)
                w2 = rng.uniform(0.3, 3.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
                lam2 = (w1 / np.abs(w2)) ** 2
                s = np.sort(lam2)
                if np.min(np.diff(s)) / s.max() > 1e-4:
                    break
            c1, c2 = tagged_put_pair(a, w1, w2)
            r1 = sut(c1, c2)
            r2 = put(c1, c2)
            same, _ = is_essentially_equivalent(r1.x, r2.x, 1e-6)
            assert same

    def test_agrees_with_classical_sut_oracle(self, rng):
        # the EVD-whitening construction is an independent route to the same
        # demixer when the circularity spectrum is separated
        for _ in range(20):
            m = int(rng.integers(2, 6))
            a = random_mixing(rng, m)
            while True:
                w1 = rng.uniform(0.5, 2.0, m)
                w2 = rng.uniform(0.2, 3.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
                lam2 = (w1 / np.abs(w2)) ** 2
                s = np.sort(lam2)
                if np.min(np.diff(s)) / s.max() > 1e-2:
                    break
            c1, c2 = tagged_put_pair(a, w1, w2)
            x_ref = classical_sut(c1.matrix, c2.matrix)
            res = put(c1, c2)
            same, _ = is_essentially_equivalent(res.x, GLElement(x_ref), 1e-6)
            assert same


class TestTwoMatrixSameKind:
    def test_diagonal_pair(self):
        c1 = TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN)
        x = two_matrix_same_kind(c1, c2)
        same, _ = is_essentially_equivalent(x, GLElement(np.eye(2)))
        assert same

    def test_construct_then_solve(self, rng):
        a = random_mixing(rng, 3)
        c1 = TaggedMatrix(a @ np.diag([1.0, 3.0, 0.4]) @ a.conj().T, CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(a @ a.conj().T, CongruenceKind.HERMITIAN)
        x = two_matrix_same_kind(c1, c2)
        same, _ = is_essentially_equivalent(x, GLElement(np.linalg.inv(a).conj().T), 1e-6)
        assert same
        assert offdiag_residual([c1, c2], x) <= 1e-8

    def test_transpose_kind_pair(self, rng):
        a = random_mixing(rng, 3)
        c1 = TaggedMatrix(a @ np.diag([1 + 1j, 3.0, 0.4j]) @ a.T, CongruenceKind.TRANSPOSE)
        c2 = TaggedMatrix(a @ np.diag([1.0, 1.0, 1.0]) @ a.T, CongruenceKind.TRANSPOSE)
        x = two_matrix_same_kind(c1, c2)
        assert offdiag_residual([c1, c2], x) <= 1e-8

    def test_identical_matrices_degenerate(self, rng):
        a = random_mixing(rng, 2)
        c = TaggedMatrix(a @ a.conj().T, CongruenceKind.HERMITIAN)
        with pytest.raises(DegenerateSpectrum):
            two_matrix_same_kind(c, c)

    @pytest.mark.parametrize("gap, degenerate", [(5e-9, True), (2e-8, False)])
    def test_degenerate_gap_boundary(self, gap, degenerate):
        # DegenerateSpectrum at a relative eigenvalue gap of C1 C2^{-1} of at most 1e-8
        rng = np.random.default_rng(48)
        a = random_mixing(rng, 3, cond_cap=10)
        d2 = np.array([2.0, 0.5, 1.3])
        c1 = TaggedMatrix(a @ np.diag(np.array([1.0, 1.0 - gap, 0.4]) * d2) @ a.conj().T,
                          CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(a @ np.diag(d2) @ a.conj().T, CongruenceKind.HERMITIAN)
        if degenerate:
            with pytest.raises(DegenerateSpectrum):
                two_matrix_same_kind(c1, c2)
        else:
            # the near pair's eigenvectors are accurate to about eps / gap
            assert offdiag_residual([c1, c2], two_matrix_same_kind(c1, c2)) <= 1e-6

    def test_singular_second_matrix(self):
        c1 = TaggedMatrix(np.diag([1.0, 2.0]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.diag([1.0, 0.0]), CongruenceKind.HERMITIAN)
        with pytest.raises(SingularSecondMatrix):
            two_matrix_same_kind(c1, c2)

    def test_mixed_kinds_rejected(self):
        c1 = TaggedMatrix(np.eye(2), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)
        with pytest.raises(InvalidPrecondition):
            two_matrix_same_kind(c1, c2)

    def test_agrees_with_single_kind_predicate(self, rng):
        # the solver succeeds with a separated spectrum exactly when the
        # two-matrix stack is certified unique
        for _ in range(30):
            m = int(rng.integers(2, 5))
            d1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            d2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if rng.uniform() < 0.4:
                d1 = (0.7 - 0.2j) * d2  # collinear stack
            a = random_mixing(rng, m, cond_cap=30)
            c1 = TaggedMatrix(a @ np.diag(d1) @ a.T, CongruenceKind.TRANSPOSE)
            c2 = TaggedMatrix(a @ np.diag(d2) @ a.T, CongruenceKind.TRANSPOSE)
            stack = DiagonalStack(CongruenceKind.TRANSPOSE, np.vstack([d1, d2]))
            verdict = identifiability_master(stack, None).verdict
            try:
                two_matrix_same_kind(c1, c2)
                solved = True
            except (DegenerateSpectrum, SingularSecondMatrix):
                solved = False
            assert solved == (verdict == "Unique")


def _floor_site(solver, r, scale=1.0):
    """Call one floor-checking solver on diagonal inputs whose checked matrix
    is scale * diag(1, r)."""
    h, t = CongruenceKind.HERMITIAN, CongruenceKind.TRANSPOSE
    checked = scale * np.diag([1.0, r])
    if solver is put:
        put(TaggedMatrix(scale * np.diag([2.0, 3.0]), h), TaggedMatrix(checked, t))
    elif solver is sut:
        sut(TaggedMatrix(checked, h), TaggedMatrix(scale * np.diag([1.0, 0.5j]), t))
    else:
        two_matrix_same_kind(TaggedMatrix(scale * np.diag([1.0, 2.0]), h), TaggedMatrix(checked, h))


_FLOOR_SITES = [
    (put, SingularPseudoCovariance),
    (sut, NotPositiveDefinite),
    (two_matrix_same_kind, SingularSecondMatrix),
]


class TestRelativeFloor:
    # put, sut and two_matrix_same_kind share one floor check (core.below_floor)
    # and each keeps its own error class
    @pytest.mark.parametrize("solver, error", _FLOOR_SITES)
    def test_all_zero_matrix_raises_the_site_error(self, solver, error):
        # with every value 0 the smallest sits on the floor (0 <= 0)
        with pytest.raises(error):
            _floor_site(solver, 0.0, scale=0.0)

    @pytest.mark.parametrize("solver, error", _FLOOR_SITES)
    def test_floor_scales_with_the_matrix(self, solver, error):
        # a ratio of 1e-13 is under SIGMA_MIN = 1e-12 at any scale; 1e-11 is not
        for scale in (1.0, 1e-150):
            with pytest.raises(error):
                _floor_site(solver, 1e-13, scale)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSpectrumWarning)
                _floor_site(solver, 1e-11, scale)


class TestSolvePair:
    def test_put_and_sut_take_the_pair_in_either_order(self, rng):
        a, w1, w2 = put_pair(rng, 3)
        c1, c2 = tagged_put_pair(a, np.abs(w1), w2)  # positive definite for the SUT
        for method, solver in (("put", put), ("sut", sut)):
            ref = solver(c1, c2)
            res = solve_pair([c2, c1], method)
            assert np.array_equal(res.x.matrix, ref.x.matrix)
            assert res.residual_identity == ref.residual_identity

    def test_gevd_fields(self, rng):
        a = random_mixing(rng, 3)
        items = [
            TaggedMatrix(a @ np.diag([1 + 1j, 3.0, 0.4j]) @ a.T, CongruenceKind.TRANSPOSE),
            TaggedMatrix(a @ a.T, CongruenceKind.TRANSPOSE),
        ]
        res = solve_pair(items, "gevd")
        assert res.takagi is None and res.eig_gap is None and res.residual_identity is None
        assert res.residual_offdiag == offdiag_residual(items, res.x)
        x = res.x.matrix
        assert np.array_equal(res.lam, np.diag(x.conj().T @ items[0].matrix @ x.conj()))

    @pytest.mark.parametrize("method, kinds", [
        ("put", ["hermitian"]),
        ("sut", ["transpose", "transpose"]),
        ("gevd", ["hermitian", "hermitian", "hermitian"]),
    ])
    def test_unusable_set_is_a_config_error(self, method, kinds):
        items = [TaggedMatrix(np.eye(2), CongruenceKind(k)) for k in kinds]
        with pytest.raises(ConfigError):
            solve_pair(items, method)


class TestTwoGapRules:
    """PUT measures the gap between eigenvalue magnitudes, GEVD the complex
    distance between eigenvalues; each pair below is decided by that choice."""

    def test_put_warns_on_a_conjugate_eigenpair(self):
        # C1~ conj(C1~) has the eigenvalues +-2i: no demixer separates them
        # (residual_offdiag 1), yet a complex-distance gap would read 2
        c1 = TaggedMatrix(np.array([[1, 1j], [-1j, -1]]), CongruenceKind.HERMITIAN)
        c2 = TaggedMatrix(np.eye(2), CongruenceKind.TRANSPOSE)
        with pytest.warns(DegenerateSpectrumWarning, match="whitened eigenvalue gap"):
            res = put(c1, c2)
        assert res.eig_gap <= 1e-15
        assert res.residual_offdiag == pytest.approx(1.0)

    def test_gevd_solves_eigenvalues_of_one_modulus(self):
        # C1 C2^{-1} = A diag(1, i) A^{-1}: a magnitude gap would read
        # rounding level and refuse a pair that has an exact diagonalizer
        a = np.array([[1, 2j], [0.5, 1]])
        c1 = TaggedMatrix(a @ np.diag([1, 1j]) @ a.T, CongruenceKind.TRANSPOSE)
        c2 = TaggedMatrix(a @ a.T, CongruenceKind.TRANSPOSE)
        mags = np.abs(np.linalg.eigvals(c1.matrix @ np.linalg.inv(c2.matrix)))
        assert np.ptp(mags) <= 1e-15
        res = solve_pair([c1, c2], "gevd")
        assert res.residual_offdiag <= 1e-15


def test_numeric_errors_share_one_base_class():
    for cls in (SingularPseudoCovariance, OrthogonalizationFailure, DefectiveMatrix,
                DegenerateSpectrum, NotPositiveDefinite, SingularSecondMatrix):
        assert issubclass(cls, NumericFailure)


class TestPostconditionIdentities:
    def test_identities_against_reconstruction(self, rng):
        # X^H C1 X = diag(lam) and X^H C2 conj(X) = I on random instances
        for _ in range(25):
            m = int(rng.integers(2, 7))
            a, w1, w2 = put_pair(rng, m)
            c1, c2 = tagged_put_pair(a, w1, w2)
            res = put(c1, c2)
            x = res.x.matrix
            d1 = x.conj().T @ c1.matrix @ x
            assert np.linalg.norm(d1 - np.diag(res.lam)) <= 1e-8 * np.linalg.norm(c1.matrix)
            i2 = x.conj().T @ c2.matrix @ x.conj()
            assert np.linalg.norm(i2 - np.eye(m)) <= 1e-8 * m
            # lam matches the model spectrum w1 / |w2| as a multiset
            expected = np.sort(w1 / np.abs(w2))
            assert np.allclose(np.sort(res.lam.real), expected, rtol=1e-6)


class TestPolarFactorInPut:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_matches_the_eig_polar_factor_pipeline(self, m, monkeypatch):
        # the eigenvectors of a distinct-spectrum C1~ C1~^T have W^T W
        # diagonal to rounding, so PUT takes the column-scaling branch; its X
        # is the eigendecomposition pipeline's to rounding
        rng = np.random.default_rng(70 + m)
        for _ in range(8):
            a, w1, w2 = put_pair(rng, m, margin=0.07 if m < 16 else 1e-3)
            c1, c2 = tagged_put_pair(a, w1, w2)
            res = put(c1, c2)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "symmetric_orthogonalize", eig_polar_factor)
                ref = put(c1, c2)
            x, xr = res.x.matrix, ref.x.matrix
            assert np.abs(x - xr).max() <= 1e-12 * np.abs(xr).max()
            assert np.abs(res.lam - ref.lam).max() <= 1e-12 * np.abs(ref.lam).max()
            assert res.takagi.u.tobytes() == ref.takagi.u.tobytes()
            assert res.eig_gap == ref.eig_gap

    def test_put_pair_raises_when_no_draw_separates(self, rng):
        # at m = 32 no draw in 20,000 clears the default 7% margin
        with pytest.raises(ValueError, match=r"m=32 .*margin=0\.07"):
            put_pair(rng, 32)


def _loop_sign_normalize(x):
    """Reference: the per-column loop over the rows of X^H."""
    out = x.copy()
    xh = out.conj().T
    for i in range(xh.shape[0]):
        j = int(np.argmax(np.abs(xh[i])))
        z = xh[i, j]
        if z.real < 0 or (z.real == 0 and z.imag < 0):
            out[:, i] = -out[:, i]
    return out


class TestSignNormalize:
    def test_matches_the_column_loop_bitwise(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            m = int(rng.integers(1, 13))
            x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            # zero out parts so that Re z == 0 (and signed zeros) occur
            x.real[rng.uniform(size=(m, m)) < 0.2] = 0.0
            x.real[rng.uniform(size=(m, m)) < 0.1] = -0.0
            assert sign_normalize_columns(x).tobytes() == _loop_sign_normalize(x).tobytes()

    def test_ties_and_imaginary_anchors(self):
        cases = [
            # equal magnitudes: the first index is the anchor
            np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex),
            np.array([[1j, -1.0], [-1j, 1j]]),
            # Re z == 0 with Im z < 0, i.e. Im x > 0 at the anchor
            np.array([[2j, 0.5], [0.5, -2j]]),
            np.array([[-0.0 + 1j, 3.0], [1.0, -0.0 - 3j]]),
            np.array([[0.0, 0.0], [0.0, 0.0]], dtype=complex),
        ]
        for x in cases:
            assert sign_normalize_columns(x).tobytes() == _loop_sign_normalize(x).tobytes()
        assert np.array_equal(sign_normalize_columns(cases[2])[:, 0], -cases[2][:, 0])
