"""Randomized local-search oracle over 2x2 joint diagonalizers.

Independent of the library's predicates: minimizes the normalized
off-diagonal residual directly by batched Wirtinger-gradient descent (Adam),
rows projected to unit norm after every step.  Used to cross-check Unique
verdicts: a counterexample is a converged point with small residual that is
far from the diagonal-times-permutation pattern and honestly invertible.

The matrices are diagonal, so a family enters only through its 2x2 Gram
matrix M = D^T conj(D) of its (n, 2) diagonals D.  With a_k = conj(X_k0) X_k1
and b_k = conj(X_k0 X_k1), the (0, 1) entry of X^H diag(d) X is d . a, its
(1, 0) entry the conjugate, and both off-diagonal entries of
X^H diag(d) conj(X) are d . b, so the squared residual is
2 Re(a^T M_h conj(a) + b^T M_s conj(b)) / den for the Hermitian (h) and
transpose (s) families, and an Adam step costs O(restarts), whatever the
number of matrices.
"""

import numpy as np


def _split(mats):
    """Gram matrices, 2x2, of the Hermitian and transpose diagonals, and their mass."""
    for _, c in mats:
        if np.any(c[[0, 1], [1, 0]]):
            raise ValueError("the search takes diagonal matrices only")
    herm = np.array([np.diag(c) for kind, c in mats if kind == "h"], dtype=complex).reshape(-1, 2)
    sym = np.array([np.diag(c) for kind, c in mats if kind == "t"], dtype=complex).reshape(-1, 2)
    den = sum(np.sum(np.abs(c) ** 2) for _, c in mats)
    return herm.T @ herm.conj(), sym.T @ sym.conj(), float(den)


def _products(x):
    """Columns X_k0, X_k1 and a_k = conj(X_k0) X_k1, b_k = conj(X_k0 X_k1), each (b, 2)."""
    c0, c1 = x[..., 0], x[..., 1]
    return c0, c1, c0.conj() * c1, (c0 * c1).conj()


def _residual_sq(x, gh, gs, den):
    _, _, a, b = _products(x)
    return 2.0 * np.sum(a @ gh * a.conj() + b @ gs * b.conj(), axis=1).real / den


def _gradient(x, gh, gs, den):
    """d(residual^2)/d conj(X)."""
    c0, c1, a, b = _products(x)
    s = b.conj() @ gs.T
    g0 = c1 * (a.conj() @ gh.T) + c1.conj() * s
    g1 = c0 * (a @ gh) + c0.conj() * s
    return 2.0 * np.stack([g0, g1], axis=-1) / den


def gm_distance_batch(x):
    a = np.abs(x)
    total = np.sum(a**2, axis=(1, 2))
    keep = np.sum(np.max(a, axis=2) ** 2, axis=1)
    return np.sqrt(np.maximum(total - keep, 0.0) / total)


def search_diagonalizers(mats, restarts=500, iters=220, seed=0, lr=0.15):
    """Minimize the joint residual from `restarts` random unit-row starts.

    ``mats`` is a list of (kind, matrix) with kind "h" (Hermitian congruence)
    or "t" (transpose congruence).  Returns (X, residuals) with X of shape
    (restarts, 2, 2).
    """
    gh, gs, den = _split(mats)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((restarts, 2, 2)) + 1j * rng.standard_normal((restarts, 2, 2))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    mom = np.zeros_like(x)
    vel = np.zeros(x.shape, dtype=float)
    b1, b2 = 0.9, 0.999
    for t in range(1, iters + 1):
        g = _gradient(x, gh, gs, den)
        mom = b1 * mom + (1 - b1) * g
        vel = b2 * vel + (1 - b2) * np.abs(g) ** 2
        x = x - lr * (mom / (1 - b1**t)) / (np.sqrt(vel / (1 - b2**t)) + 1e-12)
        x /= np.linalg.norm(x, axis=2, keepdims=True)
    # the residual can round below zero; a NaN would count as no hit
    return x, np.sqrt(np.maximum(_residual_sq(x, gh, gs, den), 0.0))


def find_counterexample(mats, restarts=500, iters=220, seed=0):
    """Best non-G(2) diagonalizer candidate: (residual, distance) or None."""
    x, r = search_diagonalizers(mats, restarts=restarts, iters=iters, seed=seed)
    d = gm_distance_batch(x)
    det = np.abs(np.linalg.det(x))
    mask = (r < 1e-6) & (d > 0.1) & (det > 0.05)
    if not mask.any():
        return None
    idx = int(np.argmin(np.where(mask, r, np.inf)))
    return float(r[idx]), float(d[idx])
