"""Reference computations for the benchmark's output checks, in numpy only.

Every function here is written from the paper's statements and the README's
conventions, not from the ``nujd`` sources, so a fault in the program does not
hide itself by sharing code with its check.  Conventions: Hermitian congruence
is ``X^H C X``, transpose congruence ``X^H C conj(X)``; spectra stacks are
``(n, m)`` arrays whose row i is the diagonal of the i-th matrix.
"""

from __future__ import annotations

import numpy as np

TOL_EXACT = 1e-10       # certification tolerance for exact spectra
TOL_PATTERN = 1e-6      # off-pattern tolerance for diagonal-times-permutation


def covariance(data: np.ndarray) -> np.ndarray:
    """(1/T) sum x(t) x(t)^H of the mean-removed rows of ``data`` (m, T)."""
    x = data - data.mean(axis=1, keepdims=True)
    return (x @ x.conj().T) / data.shape[1]


def pseudo_covariance(data: np.ndarray) -> np.ndarray:
    """(1/T) sum x(t) x(t)^T of the mean-removed rows of ``data`` (m, T)."""
    x = data - data.mean(axis=1, keepdims=True)
    return (x @ x.T) / data.shape[1]


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def collinearity(spectra: np.ndarray) -> float:
    """Thm 1: largest |cos| between distinct columns (position vectors).

    A zero column counts as collinear with every other column.
    """
    s = np.asarray(spectra, dtype=complex)
    m = s.shape[1]
    best = 0.0
    norms = np.linalg.norm(s, axis=0)
    for k in range(m):
        for l in range(k + 1, m):
            if norms[k] == 0.0 or norms[l] == 0.0:
                return 1.0
            c = abs(np.vdot(s[:, k], s[:, l])) / (norms[k] * norms[l])
            best = max(best, min(float(c), 1.0))
    return best


def modulus_product_pairs(t: np.ndarray, h: np.ndarray, tol: float = TOL_EXACT) -> list:
    """Thm 2: position pairs (k, l) where |t_k| |h_l| = |t_l| |h_k| within tol."""
    at, ah = np.abs(np.asarray(t)), np.abs(np.asarray(h))
    pairs = []
    for k in range(at.size):
        for l in range(k + 1, at.size):
            a, b = at[k] * ah[l], at[l] * ah[k]
            if abs(a - b) <= tol * max(a, b, np.finfo(float).tiny):
                pairs.append((k, l))
    return pairs


def expected_verdict(sym: np.ndarray, herm: np.ndarray, tol: float = TOL_EXACT) -> str:
    """Identifiability of a (transpose rows, Hermitian rows) spectra pair.

    Unique when either non-empty family has collinearity below one;
    otherwise NotUnique exactly when some pair is collinear in both families
    with equal proportionality moduli (||z_k|| ||z'_l|| = ||z_l|| ||z'_k||).
    With one row per family this is the Thm 2 modulus-product test.
    """
    sym = np.asarray(sym, dtype=complex).reshape(-1, np.shape(sym)[-1])
    herm = np.asarray(herm, dtype=complex).reshape(-1, np.shape(herm)[-1])
    for fam in (sym, herm):
        if fam.shape[0] and collinearity(fam) < 1.0 - tol:
            return "Unique"
    m = max(sym.shape[1], herm.shape[1])
    ns = np.linalg.norm(sym, axis=0) if sym.shape[0] else np.zeros(m)
    nh = np.linalg.norm(herm, axis=0) if herm.shape[0] else np.zeros(m)
    for k in range(m):
        for l in range(k + 1, m):
            if all(
                fam.shape[0] == 0 or collinearity(fam[:, [k, l]]) >= 1.0 - tol
                for fam in (sym, herm)
            ):
                a, b = ns[k] * nh[l], ns[l] * nh[k]
                if abs(a - b) <= tol * max(a, b, np.finfo(float).tiny):
                    return "NotUnique"
    return "Unique"


def witness_residual(x: np.ndarray, sym: np.ndarray, herm: np.ndarray) -> float:
    """Off-diagonal mass of the transformed diagonal set, relative to its size."""
    num = den = 0.0
    xh = x.conj().T
    for row in np.atleast_2d(sym):
        out = xh @ np.diag(row) @ x.conj()
        num += float(np.sum(np.abs(out - np.diag(np.diag(out))) ** 2))
        den += float(np.sum(np.abs(row) ** 2))
    for row in np.atleast_2d(herm):
        out = xh @ np.diag(row) @ x
        num += float(np.sum(np.abs(out - np.diag(np.diag(out))) ** 2))
        den += float(np.sum(np.abs(row) ** 2))
    return float(np.sqrt(num / den)) if den else 0.0


def pattern_distance(x: np.ndarray) -> float:
    """Row-wise distance from the G(m) pattern: off-maximum mass over ||x||_F."""
    a2 = np.abs(np.asarray(x)) ** 2
    total = float(a2.sum())
    if total == 0.0:
        return 0.0
    return float(np.sqrt(max(total - float(a2.max(axis=1).sum()), 0.0) / total))


def is_diag_times_perm(g: np.ndarray, tol: float = TOL_PATTERN) -> bool:
    """One dominant entry per row and per column, the rest below tol relative."""
    a = np.abs(np.asarray(g))
    cols = a.argmax(axis=1)
    if len(set(cols.tolist())) != a.shape[0]:
        return False
    off = a.copy()
    off[np.arange(a.shape[0]), cols] = 0.0
    return float(np.linalg.norm(off)) <= tol * float(np.linalg.norm(a))


def amari(g: np.ndarray) -> float:
    """Amari-style index of g = X^H A in [0, 1]: 0 iff diagonal times permutation."""
    a = np.abs(np.asarray(g))
    m = a.shape[0]
    if m == 1:
        return 0.0
    rows = (a / a.max(axis=1, keepdims=True)).sum() - m
    cols = (a / a.max(axis=0, keepdims=True)).sum() - m
    return float((rows + cols) / (2.0 * m * (m - 1)))


def put_certificate(x: np.ndarray, c2: np.ndarray) -> float:
    """||X^H C2 conj(X) - I||_F: the PUT whitening certificate."""
    return float(np.linalg.norm(x.conj().T @ c2 @ x.conj() - np.eye(x.shape[0])))


def offdiag_ratio(x: np.ndarray, c: np.ndarray, transpose: bool) -> float:
    """||offdiag(X^H C X^dag)||_F / ||C||_F for one matrix."""
    out = x.conj().T @ c @ (x.conj() if transpose else x)
    off = out - np.diag(np.diag(out))
    return float(np.linalg.norm(off) / max(np.linalg.norm(c), 1e-300))


def cum4_0000_diagonal(kinds, powers, a: np.ndarray) -> np.ndarray:
    """Effective diagonal of the order-4 slice, pattern 0000, slots 3-4 fixed to channel 1.

    For unit-power BPSK E[s^4] - 3 E[s^2]^2 = 1 - 3 = -2; for unit-power QPSK
    E[s^4] = -1 and E[s^2] = 0.  Fixed unconjugated slots pinned to channel 1
    multiply source k's cumulant by a[0, k]^2.
    """
    base = {"bpsk": -2.0, "qpsk": -1.0}
    kappa = np.array([base[k] * p * p for k, p in zip(kinds, powers)], dtype=complex)
    return kappa * a[0, :] ** 2
