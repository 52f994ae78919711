import warnings

import numpy as np
import pytest

from nujd.errors import (
    DefectiveMatrix,
    OrthogonalizationFailure,
    SingularMatrix,
    SymmetryViolation,
)
from nujd.linalg import (
    general_evd,
    symmetric_orthogonalize,
    takagi,
)
from nujd.core import TAU_RHO, GLElement

from conftest import complex_symmetric, eig_polar_factor, random_mixing, random_unitary


def _reconstruct(tf):
    """U diag(sigma) U^T of a Takagi factorization."""
    return tf.u @ (tf.sigma[:, None] * tf.u.T)


class TestTakagi:
    EPS = np.finfo(float).eps

    def test_real_nonneg_diagonal(self):
        tf = takagi(np.diag([4.0, 1.0]))
        assert np.allclose(tf.sigma, [4.0, 1.0])
        assert np.allclose(np.abs(tf.u), np.eye(2))
        assert np.allclose(_reconstruct(tf), np.diag([4.0, 1.0]))

    def test_degenerate_offdiagonal(self):
        c = np.array([[0, 1.0], [1.0, 0]])
        tf = takagi(c)
        assert np.allclose(tf.sigma, [1.0, 1.0])
        assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(2)) <= 1e-12
        assert np.linalg.norm(_reconstruct(tf) - c) <= 1e-12

    def test_scalar_phase_halving(self):
        c = np.array([[2.0 * np.exp(0.7j)]])
        tf = takagi(c)
        assert tf.sigma[0] == pytest.approx(2.0)
        assert tf.u[0, 0] == pytest.approx(np.exp(0.35j))

    def test_clustered_inputs_reconstruct(self):
        rng = np.random.default_rng(45)
        for sigma in ([3.0, 3.0, 1.0], [2.0, 2.0, 2.0, 0.5], [4.0, 1.5, 1.5, 1.0, 1.0, 0.2]):
            m = len(sigma)
            q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            c = q @ np.diag(sigma) @ q.T
            tf = takagi(c)
            assert np.allclose(tf.sigma, sigma)
            assert np.linalg.norm(_reconstruct(tf) - c) <= 1e-12 * np.linalg.norm(c)
            assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(m)) <= 1e-12 * m

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-8, 2e-7, 1e-6, 1e-4, None])
    def test_near_equal_and_zero_singular_values_stay_at_rounding(self, gap):
        # the top two singular values at relative gap ``gap``; with gap None,
        # k >= 2 zero singular values, whose 2k-dimensional eigenspace in
        # [[A, B], [B, -A]] does not give orthonormal complex columns by itself
        rng = np.random.default_rng(46)
        for m in range(2, 9):
            for k in ([0] * 20 if gap is not None else list(range(2, m + 1)) * 3):
                sigma = np.sort(rng.uniform(0.05, 1.0, m))[::-1]
                if gap is None:
                    sigma[m - k:] = 0.0
                else:
                    sigma[:2] = 1.0, 1.0 - gap
                q = random_unitary(rng, m)
                c = q @ np.diag(sigma) @ q.T
                tf = takagi(c)
                assert np.linalg.norm(_reconstruct(tf) - c) <= 10 * m * self.EPS * np.linalg.norm(c)
                assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(m)) <= 10 * m * self.EPS
                assert np.all(tf.sigma >= 0.0) and np.all(np.diff(tf.sigma) <= 0.0)
                assert np.abs(tf.sigma - sigma).max() <= 10 * m * self.EPS

    def test_rejects_nonsymmetric(self):
        with pytest.raises(SymmetryViolation):
            takagi(np.array([[1, 2], [3, 4.0]]))

    def test_random_reconstruction_property(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            c = complex_symmetric(rng, m)
            tf = takagi(c)
            scale = max(np.linalg.norm(c), np.finfo(float).tiny)
            worst = max(worst, np.linalg.norm(_reconstruct(tf) - c) / scale)
            assert np.all(np.diff(tf.sigma) <= 1e-12)
            assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(m)) <= 1e-10 * m
        assert worst <= 1e-9

    def test_matches_hermitian_evd_on_real_spd(self, rng):
        b = rng.standard_normal((4, 4))
        c = b @ b.T + 4 * np.eye(4)
        tf = takagi(c)
        assert np.allclose(tf.sigma, np.linalg.eigvalsh(c)[::-1], rtol=1e-10)


class TestGeneralEVD:
    def test_diagonal_input(self):
        w, lam = general_evd(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(lam, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(w.matrix), np.eye(3)[:, [1, 2, 0]])

    def test_construct_then_factor(self, rng):
        s = random_mixing(rng, 2, cond_cap=20)
        c = s @ np.diag([2.0, 1.0]) @ np.linalg.inv(s)
        w, lam = general_evd(c)
        assert np.allclose(lam, [2.0, 1.0], atol=1e-10)
        assert np.linalg.norm(c @ w.matrix - w.matrix @ np.diag(lam)) <= 1e-8 * np.linalg.norm(c)

    @pytest.mark.parametrize("c", [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
        np.eye(4, k=1),  # eigenvector matrix exactly singular: sigma_min = 0
        3.0 * np.eye(6, k=1) + np.eye(6),
    ])
    def test_jordan_block_rejected(self, c):
        # SingularMatrix is not a DefectiveMatrix, so it would escape here
        assert not issubclass(SingularMatrix, DefectiveMatrix)
        with pytest.raises(DefectiveMatrix):
            general_evd(c)

    def test_trace_consistency(self, rng):
        for _ in range(25):
            c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            _, lam = general_evd(c)
            assert abs(lam.sum() - np.trace(c)) <= 1e-8 * max(abs(np.trace(c)), 1.0)

    def test_tie_break_determinism(self):
        c = np.diag([1.0 + 1.0j, 1.0 - 1.0j, -np.sqrt(2.0)])
        _, lam = general_evd(c)
        assert np.allclose(lam, [1.0 + 1.0j, 1.0 - 1.0j, -np.sqrt(2.0)])


class TestSymmetricOrthogonalize:
    def test_real_orthogonal_fixed_point(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert np.allclose(symmetric_orthogonalize(GLElement(q)), q)

    def test_diagonal_cancels(self):
        assert np.allclose(symmetric_orthogonalize(GLElement(np.diag([2.0, 3.0]))), np.eye(2))

    def test_imaginary_eigenvalues_ok(self):
        w = np.array([[1.0, 1j], [1j, 1.0]])
        v = symmetric_orthogonalize(GLElement(w))
        assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-8 * 2

    def test_column_space_preserved(self, rng):
        w = GLElement(random_mixing(rng, 4, cond_cap=20))
        v = symmetric_orthogonalize(w)
        assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-8 * 4
        m = np.linalg.solve(w.matrix, v)
        assert np.linalg.cond(m) < 1e8

    def test_near_singular_wtw_fails(self):
        # kappa(W) ~ 5e6 passes the GL certificate but W^T W crosses the
        # relative singular-value floor, so no polar part is attempted
        w = np.diag([1.0, 2e-7])
        with pytest.raises(OrthogonalizationFailure):
            symmetric_orthogonalize(GLElement(w))

    def test_defective_wtw_never_silently_wrong(self):
        # W^T W = [[2i, 1], [1, t]] is defective at t = 0 (double eigenvalue
        # i, one eigenvector); near that set the contract is: either raise
        # or return V with V^T V = I inside the stated tolerance.
        for t in (0.0, 1e-12, 1e-8, 1e-4):
            m = np.array([[2j, 1.0], [1.0, t]])
            tf = takagi(m)
            w = np.sqrt(tf.sigma)[:, None] * tf.u.T
            try:
                v = symmetric_orthogonalize(GLElement(w))
            except OrthogonalizationFailure:
                continue
            assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-8 * 2

    @pytest.mark.parametrize("s, eta, fails", [(10.0, 1e-8, False), (100.0, 1e-15, True)])
    def test_polar_check_boundary(self, s, eta, fails):
        # W = [[1 + s, i s (1 + eta)], [i s (1 + eta), 1 - s]] is complex symmetric
        # and defective at eta = 0, so W^T W = W^2 takes the eigendecomposition
        # branch with a near-defective eigenbasis (condition below 1e8); rounding
        # leaves ||V^T V - I||_F near 1e-11 at (10, 1e-8) and near 5e-7 at
        # (100, 1e-15), on either side of the bound 1e-8 * m = 2e-8
        b = 1j * s * (1 + eta)
        w = GLElement(np.array([[1 + s, b], [b, 1 - s]]))
        if fails:
            with pytest.raises(OrthogonalizationFailure, match="V\\^T V = I check"):
                symmetric_orthogonalize(w)
        else:
            v = symmetric_orthogonalize(w)
            assert np.linalg.norm(v.T @ v - np.eye(2)) <= 2e-8

    @pytest.mark.parametrize("scale", [1e100, 1e-160])
    def test_polar_factor_is_scale_invariant(self, rng, scale):
        # V = W (W^T W)^{-1/2} does not change under W -> cW; forming W^T W
        # from 1e100 W overflowed, and from 1e-160 W fell below the floor
        w, _ = general_evd(complex_symmetric(rng, 3))
        v = symmetric_orthogonalize(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = symmetric_orthogonalize(GLElement(w.matrix * scale))
        assert np.abs(scaled - v).max() <= 1e-15

    def test_scaled_rotation_of_complex_orthogonal(self, rng):
        theta = 0.3 + 0.2j
        base = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        w = GLElement(base @ np.diag([2.0, 0.5]))
        v = symmetric_orthogonalize(w)
        assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-8 * 2


def _diagonal_branch(w):
    """Whether W^T W is diagonal to TAU_RHO, the test that picks the branch."""
    g = w.T @ w
    d = np.abs(np.diag(g))
    return bool(np.all(np.abs(g - np.diag(np.diag(g))) <= TAU_RHO * np.sqrt(np.outer(d, d))))


def _rotation_blocks(rng, m):
    """Permuted block-diagonal complex rotations times complex column scales."""
    w = np.zeros((m, m), dtype=complex)
    for j in range(0, m - 1, 2):
        th = rng.standard_normal() + 1j * rng.standard_normal()
        w[j:j + 2, j:j + 2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    if m % 2:
        w[m - 1, m - 1] = 1.0
    d = rng.uniform(0.2, 3.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    return w[rng.permutation(m)] * d


class TestPolarFactorBranches:
    """The diagonal branch against the eigendecomposition formula it replaces."""

    EPS = np.finfo(float).eps

    def test_exactly_diagonal_gram_agrees_to_rounding(self):
        rng = np.random.default_rng(60)
        for m in range(1, 17):
            for _ in range(10):
                # a permutation times a diagonal: every off-diagonal g_kl is 0
                d = rng.uniform(0.05, 5.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
                cut = rng.uniform(size=m) < 0.2
                d[cut] = 1j * np.abs(d[cut])  # g_kk < 0: the root on its branch cut
                w = np.eye(m)[rng.permutation(m)] * d
                g = w.T @ w
                assert np.count_nonzero(g - np.diag(np.diag(g))) == 0
                v = symmetric_orthogonalize(GLElement(w))
                ref = eig_polar_factor(GLElement(w))
                assert np.abs(v - ref).max() <= 4 * self.EPS * np.abs(ref).max()

    def test_near_diagonal_gram_agrees_with_eig_formula(self, rng):
        # W^T W diagonal up to rounding: real orthogonal, scaled complex
        # rotations, block-diagonal complex rotations
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        theta = 0.3 + 0.2j
        base = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        cases = [q, base @ np.diag([2.0, 0.5])]
        cases += [_rotation_blocks(rng, m) for m in range(2, 17) for _ in range(3)]
        for w in cases:
            assert _diagonal_branch(w)
            v = symmetric_orthogonalize(GLElement(w))
            ref = eig_polar_factor(GLElement(w))
            assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.linalg.norm(v.T @ v - np.eye(w.shape[0])) <= 1e-13 * w.shape[0]

    def test_dense_gram_is_bitwise_the_eig_formula(self, rng):
        cases = [random_unitary(rng, m) for m in (2, 3, 5, 8)]
        cases += [random_mixing(rng, m, cond_cap=20) for m in (2, 4, 6, 12)]
        cases.append(np.array([[1.0, 1j], [1j, 1.0]]))
        for t in (1e-12, 1e-8, 1e-4):  # the defective family of the test above
            tf = takagi(np.array([[2j, 1.0], [1.0, t]]))
            cases.append(np.sqrt(tf.sigma)[:, None] * tf.u.T)
        for w in cases:
            assert not _diagonal_branch(w)
            try:
                ref = eig_polar_factor(GLElement(w))
            except OrthogonalizationFailure as exc:
                with pytest.raises(OrthogonalizationFailure, match=str(exc)):
                    symmetric_orthogonalize(GLElement(w))
                continue
            assert symmetric_orthogonalize(GLElement(w)).tobytes() == ref.tobytes()

    def test_first_order_correction_is_second_order_accurate(self):
        # off-diagonal g_kl at about 1e-12 relative: the corrected V is the
        # eig formula's polar factor, and V^T V = I, to rounding
        rng = np.random.default_rng(61)
        for m in (2, 5, 9):
            for _ in range(10):
                w = _rotation_blocks(rng, m)
                w = w + 1e-12 * np.abs(w).max() * rng.standard_normal((m, m))
                assert _diagonal_branch(w)
                g = w.T @ w
                assert np.count_nonzero(np.abs(g - np.diag(np.diag(g))) > 1e-14)
                v = symmetric_orthogonalize(GLElement(w))
                ref = eig_polar_factor(GLElement(w))
                assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("t,delta", [(1e-5, 5e-3), (3e-6, 1e-1)])
    def test_nearly_isotropic_column_on_the_diagonal_branch_fails(self, t, delta):
        # column 1 has w^T w = t^2 delta against ||w||^2 = t^2; column 2 is
        # transpose-orthogonal to it, so W^T W = diag(t^2 delta, delta, 1) up
        # to rounding, below the floor, while W is certifiably invertible
        a, b = np.sqrt((1 + delta) / 2), np.sqrt((1 - delta) / 2)
        w = GLElement(np.array([[t * a, 1j * b, 0], [1j * t * b, -a, 0], [0, 0, 1]]))
        assert _diagonal_branch(w.matrix)
        with pytest.raises(OrthogonalizationFailure, match="numerically singular"):
            symmetric_orthogonalize(w)
        with pytest.raises(OrthogonalizationFailure, match="numerically singular"):
            eig_polar_factor(w)
