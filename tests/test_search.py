"""The Gram-form objective of the criterion-3 oracle against independent references.

The residual is checked against `core.offdiag_residual` on the diagonal
matrices it stands for, and the gradient against central finite differences
of the squared residual in the Wirtinger convention the Adam step uses,
g = d f / d conj(X) = (df/d Re X + i df/d Im X) / 2.
"""

import numpy as np
import pytest

from nujd.core import CongruenceKind, GLElement, TaggedMatrix, offdiag_residual

from _search import _gradient, _residual_sq, _split


def _family(rng):
    """(kind, matrix) pairs for n_t transpose and n_h Hermitian diagonal
    matrices, n_t, n_h in {0..3} and not both 0, and their TaggedMatrix set."""
    while True:
        nt, nh = (int(v) for v in rng.integers(0, 4, 2))
        if nt + nh:
            break
    mats = [("t", np.diag(rng.standard_normal(2) + 1j * rng.standard_normal(2))) for _ in range(nt)]
    mats += [("h", np.diag(rng.standard_normal(2))) for _ in range(nh)]
    kinds = {"t": CongruenceKind.TRANSPOSE, "h": CongruenceKind.HERMITIAN}
    return mats, [TaggedMatrix(c, kinds[k]) for k, c in mats]


def _points(rng, b=4):
    return rng.standard_normal((b, 2, 2)) + 1j * rng.standard_normal((b, 2, 2))


@pytest.mark.parametrize("seed", range(40))
def test_residual_is_the_offdiag_residual(seed):
    rng = np.random.default_rng(seed)
    mats, tagged = _family(rng)
    x = _points(rng)
    got = np.sqrt(_residual_sq(x, *_split(mats)))
    want = [offdiag_residual(tagged, GLElement(xi)) for xi in x]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(40))
def test_gradient_is_the_conjugate_wirtinger_derivative(seed):
    rng = np.random.default_rng(100 + seed)
    mats, _ = _family(rng)
    gram = _split(mats)
    x = _points(rng)
    h = 1e-6
    fd = np.zeros_like(x)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = h
            dre = _residual_sq(x + e, *gram) - _residual_sq(x - e, *gram)
            dim = _residual_sq(x + 1j * e, *gram) - _residual_sq(x - 1j * e, *gram)
            fd[:, i, j] = (dre + 1j * dim) / (4 * h)
    g = _gradient(x, *gram)
    assert np.max(np.abs(g - fd)) <= 1e-7 * np.max(np.abs(g))


def test_non_diagonal_matrix_is_rejected():
    with pytest.raises(ValueError, match="diagonal matrices only"):
        _split([("h", np.array([[1.0, 1e-300], [1e-300, 1.0]]))])
