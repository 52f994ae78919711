"""Randomized local-search oracle over 2x2 joint diagonalizers.

Independent of the library's predicates: minimizes the normalized
off-diagonal residual directly by batched Wirtinger-gradient descent (Adam),
rows projected to unit norm after every step.  Used to cross-check Unique
verdicts: a counterexample is a converged point with small residual that is
far from the diagonal-times-permutation pattern and honestly invertible.
"""

import numpy as np

_P = 1.0 - np.eye(2)


def _split(mats):
    """Diagonals, shape (n, 2), of the Hermitian and transpose matrices, and their mass."""
    for _, c in mats:
        if np.any(_P * c):
            raise ValueError("the search takes diagonal matrices only")
    herm = np.array([np.diag(c) for kind, c in mats if kind == "h"]).reshape(-1, 2)
    sym = np.array([np.diag(c) for kind, c in mats if kind == "t"]).reshape(-1, 2)
    den = sum(np.sum(np.abs(c) ** 2) for _, c in mats)
    return herm.astype(complex), sym.astype(complex), float(den)


def _mul(a, b):
    """Batched 2x2 products a @ b as explicit broadcast sums over the last two axes."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _congruences(x, herm, sym):
    """X^H C X per Hermitian matrix and X^H S conj(X) per symmetric one, shape (n, b, 2, 2).

    ``herm`` and ``sym`` hold diagonals, so X^H D scales the columns of X^H.
    """
    xh = x.conj().transpose(0, 2, 1)[None]
    return (
        _mul(xh * herm[:, None, None, :], x[None]),
        _mul(xh * sym[:, None, None, :], x.conj()[None]),
    )


def _residual_sq(x, herm, sym, den):
    num = sum(np.sum(np.abs(_P * m) ** 2, axis=(0, 2, 3)) for m in _congruences(x, herm, sym))
    return num / den


def _gradient(x, herm, sym, den):
    mh, ms = _congruences(x, herm, sym)
    eh = _P * mh
    es = (_P * ms).conj().transpose(0, 1, 3, 2)
    # D X and (S + S^T) conj(X) = 2 D conj(X) scale the rows of X
    g = np.sum(_mul(herm[:, None, :, None] * x[None], eh.conj().transpose(0, 1, 3, 2) + eh), axis=0)
    g = g + np.sum(_mul((2.0 * sym)[:, None, :, None] * x.conj()[None], es), axis=0)
    return g / den


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
    herm, sym, den = _split(mats)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((restarts, 2, 2)) + 1j * rng.standard_normal((restarts, 2, 2))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    mom = np.zeros_like(x)
    vel = np.zeros(x.shape, dtype=float)
    b1, b2 = 0.9, 0.999
    for t in range(1, iters + 1):
        g = _gradient(x, herm, sym, den)
        mom = b1 * mom + (1 - b1) * g
        vel = b2 * vel + (1 - b2) * np.abs(g) ** 2
        x = x - lr * (mom / (1 - b1**t)) / (np.sqrt(vel / (1 - b2**t)) + 1e-12)
        x /= np.linalg.norm(x, axis=2, keepdims=True)
    return x, np.sqrt(_residual_sq(x, herm, sym, den))


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
