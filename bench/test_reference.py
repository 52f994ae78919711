"""The benchmark's checks must reject broken outputs.

Run with ``python3 -m pytest bench/test_reference.py`` from the repository
root.  Each test feeds a check a deliberately broken output (a sheared
demixer, a flipped verdict, a perturbed witness, a wrongly normalized
estimate) and asserts the check flags it, next to the intact output it
accepts.  These tests are not part of the repository's tier-1 suite.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from nujd.core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix  # noqa: E402
from nujd.solvers import put  # noqa: E402
from nujd.uniqueness import identifiability_master  # noqa: E402


def shear(x: np.ndarray) -> np.ndarray:
    s = np.eye(x.shape[0], dtype=complex)
    s[0, 1] = 0.3
    return x @ s


@pytest.fixture(scope="module")
def certify():
    wl = workloads.CertifySolve(seed=5)
    wl.setup()
    wl._round(0)
    assert wl.check() == []
    return wl


def _instances(wl, kind, m=None):
    return [o for o in wl.outcomes if o[0]["kind"] == kind and (m is None or o[0]["m"] == m)]


def test_thm1_collinearity():
    z = np.array([[1 + 1j, 2 + 2j, 1.0], [2.0, 4.0, -1.0]])
    assert ref.collinearity(z[:, :2]) == pytest.approx(1.0)
    assert ref.collinearity(z) == pytest.approx(1.0)
    assert ref.collinearity(z[:, 1:]) < 0.9


def test_thm2_modulus_products():
    h = np.array([1.0, 2.0, 3.0])
    t = np.array([1.0, 4.0j, 2.0])          # ratios 1, 2, 2/3
    assert ref.modulus_product_pairs(t, h) == []
    t_bad = np.array([1.0, 2.0j, 2.0])      # ratio 1 at positions 0 and 1
    assert ref.modulus_product_pairs(t_bad, h) == [(0, 1)]
    assert ref.expected_verdict(t_bad[None, :], h[None, :]) == "NotUnique"
    assert ref.expected_verdict(t[None, :], h[None, :]) == "Unique"


def test_flipped_verdict_is_rejected(certify):
    inst, rep, res, err = _instances(certify, "not_unique", 8)[0]
    assert ref.expected_verdict(inst["sym"], inst["herm"]) == rep.verdict == "NotUnique"
    bad = workloads.CertifySolve(seed=5)
    bad.pool = certify.pool
    bad.outcomes = [(inst, dataclasses.replace(rep, verdict="Unique"), res, err)]
    assert bad.check()


def test_perturbed_witness_is_rejected(certify):
    inst, rep, res, err = _instances(certify, "not_unique", 4)[0]
    x = rep.witness.matrix
    assert ref.witness_residual(x, inst["sym"], inst["herm"]) <= workloads.WITNESS_RESIDUAL_MAX
    assert ref.pattern_distance(x) > workloads.WITNESS_DISTANCE_MIN
    noisy = x + 1e-3 * np.random.default_rng(0).standard_normal(x.shape)
    assert ref.witness_residual(noisy, inst["sym"], inst["herm"]) > 1e-8
    bad = workloads.CertifySolve(seed=5)
    bad.pool = certify.pool
    bad.outcomes = [(inst, dataclasses.replace(rep, witness=GLElement(noisy)), res, err)]
    assert bad.check()
    trivial = dataclasses.replace(rep, witness=GLElement(np.eye(inst["m"])))
    bad.outcomes = [(inst, trivial, res, err)]
    assert bad.check()


def test_pattern_distance():
    p = np.eye(4)[[2, 0, 3, 1]] * np.array([1.0, 2j, -3.0, 0.5])
    assert ref.pattern_distance(p) == 0.0
    assert ref.is_diag_times_perm(p)
    assert ref.pattern_distance(shear(p)) > 1e-2
    assert not ref.is_diag_times_perm(shear(p))


def test_sheared_demixer_is_rejected(certify):
    inst, rep, res, err = _instances(certify, "scan", 16)[0]
    g = res.x.matrix.conj().T @ inst["a"]
    assert ref.is_diag_times_perm(g) and ref.amari(g) < 1e-8
    sheared = shear(res.x.matrix)
    assert ref.amari(sheared.conj().T @ inst["a"]) > 1e-3
    assert ref.put_certificate(res.x.matrix, inst["c2"]) < 1e-8 * inst["m"]
    assert ref.put_certificate(sheared, inst["c2"]) > 1e-2
    assert ref.offdiag_ratio(sheared, inst["c1"], transpose=False) > 1e-3
    bad = workloads.CertifySolve(seed=5)
    bad.pool = certify.pool
    bad.outcomes = [(inst, rep, dataclasses.replace(res, x=GLElement(sheared)), err)]
    assert bad.check()


def test_amari_index():
    rng = np.random.default_rng(1)
    assert ref.amari(np.diag([1.0, -2j, 3.0])[[1, 2, 0]]) == 0.0
    assert ref.amari(np.ones((3, 3))) == pytest.approx(1.0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert ref.amari(g) > workloads.AMARI_BOUND_CUM4


def test_covariance_estimates():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500)) + (1 + 2j)
    from nujd.statistics import SignalBlock, covariance, pseudo_covariance

    w = SignalBlock(data)
    assert ref.relative_error(covariance(w).matrix, ref.covariance(data)) < 1e-12
    assert ref.relative_error(pseudo_covariance(w).matrix, ref.pseudo_covariance(data)) < 1e-12
    uncentred = data @ data.conj().T / data.shape[1]
    assert ref.relative_error(uncentred, ref.covariance(data)) > 1e-2
    unbiased = ref.covariance(data) * data.shape[1] / (data.shape[1] - 1)
    assert ref.relative_error(unbiased, ref.covariance(data)) > 1e-10


def test_put_certificate_and_verdict_on_program_output():
    rng = np.random.default_rng(3)
    t, h = workloads._ratio_pair(rng, 6)
    a = workloads._unitary(rng, 6) * np.exp(rng.uniform(0.0, 1.0, 6))
    res = put(TaggedMatrix(a @ np.diag(h) @ a.conj().T, CongruenceKind.HERMITIAN),
              TaggedMatrix(a @ np.diag(t) @ a.T, CongruenceKind.TRANSPOSE))
    assert ref.put_certificate(res.x.matrix, a @ np.diag(t) @ a.T) < 1e-10
    rep = identifiability_master(DiagonalStack(CongruenceKind.TRANSPOSE, t[None, :]),
                                 DiagonalStack(CongruenceKind.HERMITIAN, h[None, :]))
    assert rep.verdict == ref.expected_verdict(t[None, :], h[None, :]) == "Unique"


def test_simulate_check_rejects_flipped_verdict():
    wl = workloads.Simulate("simulate_sut", workloads.SUT_CONFIG, workloads.AMARI_BOUND_SUT, seed=9)
    wl.setup()
    wl._batch(0)
    assert wl.check() == []
    wl.batches[0][1]["trials"][0]["identifiability"] = "NotUnique"
    assert wl.check()
