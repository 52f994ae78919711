import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nujd
from nujd.core import KAPPA_MAX, SIGMA_MIN, CongruenceKind, DiagonalStack, TaggedMatrix
from nujd.errors import OrthogonalizationFailure


def run_fresh(code: str, *args) -> dict:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    checkout's ``nujd``; the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nujd.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# tolerances outside [0, 1) that every tolerance check must reject
BAD_TOLERANCES = [-1.0, -0.5, 1.0, 2.0, np.inf, -np.inf, np.nan]


def random_mixing(rng, m, cond_cap=100.0):
    while True:
        a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        if np.linalg.cond(a) <= cond_cap:
            return a


def random_unitary(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def complex_symmetric(rng, m):
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (c + c.T) / 2


def hermitian(rng, m):
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (c + c.conj().T) / 2


def put_pair(rng, m, margin=0.07, cond_cap=100.0):
    """(A, omega1 real, omega2 complex) with separated two-matrix margins.

    Redraws the spectra at most 1000 times, then raises ValueError: at large
    m with a wide margin hardly any draw separates every ratio.
    """
    a = random_mixing(rng, m, cond_cap)
    for _ in range(1000):
        w1 = rng.uniform(0.3, 3.0, m) * rng.choice([-1.0, 1.0], m)
        w2 = rng.uniform(0.3, 3.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        ratios = np.sort(np.abs(w1) / np.abs(w2))
        if np.min(np.diff(ratios) / ratios[:-1]) > margin:
            return a, w1, w2
    raise ValueError(f"put_pair: no spectra draw at m={m} separates every ratio by margin={margin}")


def tagged_put_pair(a, w1, w2):
    c1 = TaggedMatrix(a @ np.diag(w1) @ a.conj().T, CongruenceKind.HERMITIAN)
    c2 = TaggedMatrix(a @ np.diag(w2) @ a.T, CongruenceKind.TRANSPOSE)
    return c1, c2


def eig_polar_factor(w):
    """Reference polar factor W (W^T W)^{-1/2} through a full eigendecomposition.

    This is ``linalg.symmetric_orthogonalize`` before it took W^T W that is
    diagonal to TAU_RHO by a column scaling: the floor SVD, ``eig``, the
    eigenbasis condition, the principal root and ``inv`` on every input.
    """
    mat = w.matrix
    m = mat.T @ mat
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= SIGMA_MIN * svals[0]:
        raise OrthogonalizationFailure(
            "W^T W is numerically singular; no complex-orthogonal polar part"
        )
    vals, vecs = np.linalg.eig(m)
    if np.linalg.cond(vecs) > KAPPA_MAX:
        raise OrthogonalizationFailure("W^T W has an ill-conditioned eigenbasis")
    inv_root = vecs @ (np.diag(1.0 / np.sqrt(vals.astype(np.complex128))))
    inv_root = inv_root @ np.linalg.inv(vecs)
    v = mat @ inv_root
    n = mat.shape[0]
    err = float(np.linalg.norm(v.T @ v - np.eye(n)))
    if err > 1e-8 * n:
        raise OrthogonalizationFailure(
            f"polar factor failed V^T V = I check: error {err:.3e}"
        )
    return v


def transpose_stack(spectra):
    return DiagonalStack(CongruenceKind.TRANSPOSE, np.asarray(spectra, dtype=complex))


def hermitian_stack(spectra):
    return DiagonalStack(CongruenceKind.HERMITIAN, np.asarray(spectra, dtype=complex))


def random_nonidentifiable_stacks(rng, m=None):
    """Constructed non-identifiable (sym, herm) stack pair.

    Forces one position pair collinear in every present family with matching
    proportionality moduli, so the joint diagonalizer is provably not
    essentially unique; either family may be empty or pair-dead.
    """
    m = int(rng.integers(2, 7)) if m is None else m
    ns = int(rng.integers(0, 4))
    nh = int(rng.integers(0, 4))
    if ns == 0 and nh == 0:
        ns = 1
    k, l = sorted(rng.choice(m, size=2, replace=False).tolist())
    sym = rng.standard_normal((ns, m)) + 1j * rng.standard_normal((ns, m))
    herm = rng.standard_normal((nh, m))
    r = float(rng.uniform(0.2, 4.0))
    phase = float(rng.uniform(0, 2 * np.pi))
    sign = -1.0 if rng.uniform() < 0.3 else 1.0
    if ns:
        sym[:, l] = r * np.exp(1j * phase) * sym[:, k]
    if nh:
        herm[:, l] = sign * r * herm[:, k]
    if ns and m > 2 and rng.uniform() < 0.15:
        sym[:, k] = 0.0
        sym[:, l] = 0.0
    sym_stack = DiagonalStack(CongruenceKind.TRANSPOSE, sym) if ns else None
    herm_stack = DiagonalStack(CongruenceKind.HERMITIAN, herm) if nh else None
    return sym_stack, herm_stack


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
