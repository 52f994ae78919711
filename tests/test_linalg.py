import numpy as np
import pytest

from nujd.errors import (
    DefectiveMatrix,
    OrthogonalizationFailure,
    SingularMatrix,
    SymmetryViolation,
)
from nujd.linalg import (
    _CLUSTER_RTOL,
    _unitary_sqrt,
    general_evd,
    symmetric_orthogonalize,
    takagi,
)
from nujd.core import GLElement

from conftest import complex_symmetric, random_mixing


class TestTakagi:
    def test_real_nonneg_diagonal(self):
        tf = takagi(np.diag([4.0, 1.0]))
        assert np.allclose(tf.sigma, [4.0, 1.0])
        assert np.allclose(np.abs(tf.u), np.eye(2))
        assert np.allclose(tf.reconstruct(), np.diag([4.0, 1.0]))

    def test_degenerate_offdiagonal(self):
        c = np.array([[0, 1.0], [1.0, 0]])
        tf = takagi(c)
        assert np.allclose(tf.sigma, [1.0, 1.0])
        assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(2)) <= 1e-12
        assert np.linalg.norm(tf.reconstruct() - c) <= 1e-12

    def test_scalar_phase_halving(self):
        c = np.array([[2.0 * np.exp(0.7j)]])
        tf = takagi(c)
        assert tf.sigma[0] == pytest.approx(2.0)
        assert tf.u[0, 0] == pytest.approx(np.exp(0.35j))

    def test_scalar_cluster_root_matches_schur_bitwise(self):
        import scipy.linalg

        rng = np.random.default_rng(11)
        for theta in rng.uniform(-np.pi, np.pi, 500):
            s = np.array([[np.exp(1j * theta)]])
            t, z = scipy.linalg.schur(s, output="complex")
            schur_root = z @ (np.sqrt(np.diag(t))[:, None] * z.conj().T)
            assert _unitary_sqrt(s).tobytes() == schur_root.tobytes()

    @staticmethod
    def _loop_u(c):
        """Reference: U from one product per cluster, singletons included."""
        m = (c + c.T) / 2.0
        p, sigma, qh = np.linalg.svd(m)
        s = p.conj().T @ qh.T
        n = m.shape[0]
        u = np.zeros((n, n), dtype=np.complex128)
        start = 0
        for i in range(1, n + 1):
            if i == n or sigma[start] - sigma[i] > _CLUSTER_RTOL * max(sigma[0], 1e-300):
                idx = slice(start, i)
                u[:, idx] = p[:, idx] @ _unitary_sqrt(s[idx, idx])
                start = i
        return u

    def test_singleton_clusters_match_the_per_cluster_products_bitwise(self):
        rng = np.random.default_rng(44)
        for m in list(range(1, 33)) * 3:
            c = complex_symmetric(rng, m)
            assert takagi(c).u.tobytes() == self._loop_u(c).tobytes()

    def test_clustered_inputs_reconstruct(self):
        rng = np.random.default_rng(45)
        for sigma in ([3.0, 3.0, 1.0], [2.0, 2.0, 2.0, 0.5], [4.0, 1.5, 1.5, 1.0, 1.0, 0.2]):
            m = len(sigma)
            q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            c = q @ np.diag(sigma) @ q.T
            tf = takagi(c)
            assert tf.u.tobytes() == self._loop_u(c).tobytes()
            assert np.allclose(tf.sigma, sigma)
            assert np.linalg.norm(tf.reconstruct() - c) <= 1e-12 * np.linalg.norm(c)
            assert np.linalg.norm(tf.u.conj().T @ tf.u - np.eye(m)) <= 1e-12 * m

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
            worst = max(worst, np.linalg.norm(tf.reconstruct() - c) / scale)
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

    def test_scaled_rotation_of_complex_orthogonal(self, rng):
        theta = 0.3 + 0.2j
        base = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        w = GLElement(base @ np.diag([2.0, 0.5]))
        v = symmetric_orthogonalize(w)
        assert np.linalg.norm(v.T @ v - np.eye(2)) <= 1e-8 * 2
