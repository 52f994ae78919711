"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7b runs PUT on the lag-1 pair (lag-1 correlation Hermitian
part + lag-1 pseudo-correlation).  For the specified AR(1) sources, whose
circularity coefficients are equal, that pair is not essentially unique:

- an AR(1) source k with pole a_k, circularity lambda_k and power p_k has
  lag-1 correlation diagonal h_k = a_k p_k and lag-1 pseudo-correlation
  diagonal t_k = a_k lambda_k p_k (`simulation._pop_order2_entry`),
- so t_k = lambda_k h_k, and the Thm 2 products are
  |t_k||h_l| = lambda_k |h_k||h_l| and |t_l||h_k| = lambda_l |h_k||h_l|,
- which coincide whenever lambda_k = lambda_l, whatever the poles; by
  the Thm 2 test of `identifiability_master` the pair is then not
  essentially unique.

The test therefore checks that the certifier flags the specified sources as
NotUnique, and that PUT recovers the mixing from the same lag-1 recipe once
the circularities differ (the values of criterion 7a), where Thm 2 holds.
"""

import time

import numpy as np

from nujd.core import (
    CongruenceKind,
    DiagonalStack,
    GLElement,
    TaggedMatrix,
    is_essentially_equivalent,
    offdiag_residual,
)
from nujd.simulation import ExperimentConfig, SourceSpec, generate, run_experiment
from nujd.solvers import put, sut
from nujd.statistics import (
    SignalBlock,
    autocorrelation,
    covariance,
    cumulant_slice,
    lagged_cumulant_slice,
    pseudo_autocorrelation,
    pseudo_covariance,
    windowed_covariances,
)
from nujd.uniqueness import identifiability_master

from _reference import circularity_coefficient, cumulant
from conftest import put_pair, random_nonidentifiable_stacks, tagged_put_pair
from _search import find_counterexample, gm_distance_batch


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_put_correctness():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    failures = 0
    for i in range(1000):
        m = 2 + i % 7
        a, w1, w2 = put_pair(rng, m, margin=0.05)
        c1, c2 = tagged_put_pair(a, w1, w2)
        res = put(c1, c2)
        ok_id = res.residual_identity <= 1e-8 * m
        ok_off = res.residual_offdiag <= 1e-8
        same, _ = is_essentially_equivalent(
            res.x, GLElement(np.linalg.inv(a).conj().T), 1e-6
        )
        if not (ok_id and ok_off and same):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 30.0
    assert _report(
        1, ok, f"put correctness on 1000 instances, failures={failures}, {elapsed:.1f}s"
    )


def test_criterion_2_witness_soundness():
    rng = np.random.default_rng(2002)
    t0 = time.time()
    bad = 0
    produced = 0
    while produced < 10000:
        sym, herm = random_nonidentifiable_stacks(rng)
        rep = identifiability_master(sym, herm)
        if rep.unique:
            # pair-dead transpose columns occasionally leave no matched pair
            continue
        produced += 1
        mats = []
        if sym is not None:
            mats += [TaggedMatrix(np.diag(r), CongruenceKind.TRANSPOSE) for r in sym.spectra]
        if herm is not None:
            mats += [TaggedMatrix(np.diag(r), CongruenceKind.HERMITIAN) for r in herm.spectra]
        w = rep.witness
        if w is None:
            bad += 1
            continue
        resid = offdiag_residual(mats, w)
        dist = gm_distance_batch(w.matrix[None])[0]
        if resid > 1e-10 or dist <= 0.1:
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0
    assert _report(
        2, ok, f"10000 NotUnique verdicts all shipped sound witnesses, bad={bad}, {elapsed:.1f}s"
    )


def _random_unique_m2(rng):
    """Random m=2 stack pair whose Unique verdict has margin >= 0.05."""
    while True:
        ns = int(rng.integers(0, 4))
        nh = int(rng.integers(0, 4))
        if ns + nh == 0:
            continue
        sym = rng.standard_normal((ns, 2)) + 1j * rng.standard_normal((ns, 2))
        herm = rng.standard_normal((nh, 2))
        from nujd.core import DiagonalStack

        s = DiagonalStack(CongruenceKind.TRANSPOSE, sym) if ns else None
        h = DiagonalStack(CongruenceKind.HERMITIAN, herm) if nh else None
        rep = identifiability_master(s, h)
        if not rep.unique:
            continue
        rhos = [r for r in (rep.rho_transpose, rep.rho_hermitian) if r is not None]
        if min(rhos) <= 0.95:
            return s, h
        # single-pair (branch iii) case: require a clear modulus margin
        if ns == 1 and nh == 1:
            a = abs(sym[0, 0]) * abs(herm[0, 1])
            b = abs(sym[0, 1]) * abs(herm[0, 0])
            if abs(a - b) / max(a, b) >= 0.05:
                return s, h


def _stack_mats_for_search(sym, herm):
    mats = []
    if sym is not None:
        mats += [("t", np.diag(r)) for r in sym.spectra]
    if herm is not None:
        mats += [("h", np.diag(r)) for r in herm.spectra]
    return mats


def test_criterion_3_predicate_oracle_agreement_m2():
    rng = np.random.default_rng(3003)
    t0 = time.time()
    false_uniques = 0
    for i in range(500):
        sym, herm = _random_unique_m2(rng)
        hit = find_counterexample(
            _stack_mats_for_search(sym, herm), restarts=500, iters=200, seed=int(rng.integers(1 << 31))
        )
        if hit is not None:
            false_uniques += 1
    bad_witnesses = 0
    produced = 0
    while produced < 500:
        sym, herm = random_nonidentifiable_stacks(rng, m=2)
        rep = identifiability_master(sym, herm)
        if rep.unique:
            continue
        produced += 1
        mats = []
        if sym is not None:
            mats += [TaggedMatrix(np.diag(r), CongruenceKind.TRANSPOSE) for r in sym.spectra]
        if herm is not None:
            mats += [TaggedMatrix(np.diag(r), CongruenceKind.HERMITIAN) for r in herm.spectra]
        w = rep.witness
        if (
            w is None
            or offdiag_residual(mats, w) > 1e-10
            or gm_distance_batch(w.matrix[None])[0] <= 0.1
        ):
            bad_witnesses += 1
    elapsed = time.time() - t0
    ok = false_uniques == 0 and bad_witnesses == 0 and elapsed < 600.0
    assert _report(
        3,
        ok,
        "500 Unique instances survive 500-restart search "
        f"(false={false_uniques}), 500 NotUnique witnesses certify "
        f"(bad={bad_witnesses}), {elapsed:.0f}s",
    )


def test_criterion_4_sut_put_coincidence():
    rng = np.random.default_rng(4004)
    agree = 0
    total = 0
    while total < 200:
        m = 2 + total % 5
        a, _, w2 = put_pair(rng, m, margin=0.05)
        w1 = rng.uniform(0.3, 3.0, m)  # positive definite Hermitian side
        lam2 = np.sort((w1 / np.abs(w2)) ** 2)
        if np.min(np.diff(lam2)) / lam2.max() <= 1e-4:
            continue
        total += 1
        c1, c2 = tagged_put_pair(a, w1, w2)
        r_sut = sut(c1, c2)
        r_put = put(c1, c2)
        same, _ = is_essentially_equivalent(r_sut.x, r_put.x, 1e-6)
        agree += bool(same)
    ok = agree == 200
    assert _report(4, ok, f"sut/put essentially equivalent in {agree}/200 cases")


def test_criterion_5_cumulant_estimator():
    t = 100000
    bpsk_hits = 0
    gauss_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        s = (rng.integers(0, 2, t) * 2.0 - 1.0) + 0.0j
        if abs(cumulant([s] * 4, (0, 0, 0, 0)) + 2.0) <= 0.1:
            bpsk_hits += 1
        g = (rng.standard_normal(t) + 1j * rng.standard_normal(t)) / np.sqrt(2)
        if abs(cumulant([g] * 4, (0, 0, 1, 1))) <= 0.1:
            gauss_hits += 1
    ok = bpsk_hits >= 19 and gauss_hits >= 19
    assert _report(
        5, ok, f"cum4 bands: bpsk {bpsk_hits}/20 at -2+-0.1, gaussian {gauss_hits}/20 at 0+-0.1"
    )


def test_criterion_6_circularity_coefficient():
    t = 100000
    worst = 0.0
    for lam in (0.0, 0.3, 0.5, 0.9, 1.0):
        for seed in range(20):
            src, _ = generate(
                (SourceSpec("noncircular_gaussian", circularity=lam),), t, [6000, seed]
            )
            worst = max(worst, abs(circularity_coefficient(src.data[0]) - lam))
    ok = worst <= 0.02
    assert _report(6, ok, f"|lambda_hat - lambda| worst case {worst:.4f} <= 0.02")


def test_criterion_7a_sut_end_to_end():
    cfg = ExperimentConfig(
        sources=(
            SourceSpec("noncircular_gaussian", circularity=0.9),
            SourceSpec("noncircular_gaussian", circularity=0.3),
        ),
        T=100000,
        seed=7007,
        trials=50,
        statistics=({"statistic": "covariance"}, {"statistic": "pseudo_covariance"}),
        solver="sut",
    )
    rep = run_experiment(cfg)
    median = rep["aggregate"]["amari_median"]
    ok = rep["aggregate"]["failed"] == 0 and median < 0.1
    assert _report(
        "7a", ok, f"sut on lambda=(0.9,0.3): median amari {median:.4f} < 0.1 over 50 seeds"
    )


def _lag1_put_config(circularities):
    return ExperimentConfig(
        sources=(
            SourceSpec("ar1_noncircular", circularity=circularities[0], coefficient=0.9),
            SourceSpec("ar1_noncircular", circularity=circularities[1], coefficient=0.2),
        ),
        T=100000,
        seed=7008,
        trials=50,
        statistics=(
            {"statistic": "autocorrelation", "lag": 1, "part": "hermitian"},
            {"statistic": "pseudo_autocorrelation", "lag": 1},
        ),
        solver="put",
    )


def test_criterion_7b_put_on_lag1_pair_as_specified():
    # The SUT pair of these sources: population covariance diag (1, 1),
    # pseudo-covariance diag (0.5, 0.5), so the engine must report NotUnique
    # with a verified witness.
    sut_check = identifiability_master(
        DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[0.5, 0.5]])),
        DiagonalStack(CongruenceKind.HERMITIAN, np.array([[1.0, 1.0]])),
    )
    cor_ok = sut_check.verdict == "NotUnique" and sut_check.witness is not None

    # Specified sources, equal circularities: the lag-1 pair has
    # t_k = lambda_k h_k, so every population verdict must be NotUnique.
    spec = run_experiment(_lag1_put_config((0.5, 0.5)))
    n_not_unique = sum(r.get("identifiability") == "NotUnique" for r in spec["trials"])
    spec_ok = spec["aggregate"]["failed"] == 0 and n_not_unique == 50

    # Same poles and recipe, distinct circularities: Thm 2 holds, so PUT
    # must recover the mixing.
    rec = run_experiment(_lag1_put_config((0.9, 0.3)))
    n_unique = sum(r.get("identifiability") == "Unique" for r in rec["trials"])
    median = rec["aggregate"]["amari_median"]
    rec_ok = rec["aggregate"]["failed"] == 0 and n_unique == 50 and median < 0.1

    assert _report(
        "7b",
        cor_ok and spec_ok and rec_ok,
        f"SUT pair NotUnique with witness={cor_ok}; lag-1 pair on lambda=(0.5,0.5): "
        f"NotUnique in {n_not_unique}/50, failed={spec['aggregate']['failed']}; "
        f"on lambda=(0.9,0.3): Unique in {n_unique}/50, "
        f"failed={rec['aggregate']['failed']}, median amari {median:.4f} < 0.1",
    )


def test_criterion_7b_companion_identifiable_recipe():
    # same sources, identifiable pair: demonstrates the machinery succeeds
    # once the recipe pairs statistics with distinct modulus-product profiles
    cfg = ExperimentConfig(
        sources=(
            SourceSpec("ar1_noncircular", circularity=0.5, coefficient=0.9),
            SourceSpec("ar1_noncircular", circularity=0.5, coefficient=0.2),
        ),
        T=100000,
        seed=7009,
        trials=50,
        statistics=(
            {"statistic": "covariance"},
            {"statistic": "pseudo_autocorrelation", "lag": 1},
        ),
        solver="put",
    )
    rep = run_experiment(cfg)
    median = rep["aggregate"]["amari_median"]
    ok = rep["aggregate"]["failed"] == 0 and median < 0.1
    assert _report(
        "7b-companion",
        ok,
        f"put on covariance + lag-1 pseudo pair: median amari {median:.4f} < 0.1",
    )


def _bootstrap_sigma(rng, data, estimator, n_boot=20, block_len=128):
    t = data.shape[1]
    reps = []
    for _ in range(n_boot):
        starts = rng.integers(0, t, size=int(np.ceil(t / block_len)))
        idx = (starts[:, None] + np.arange(block_len)[None, :]).ravel()[:t] % t
        reps.append(estimator(SignalBlock(data[:, idx])))
    return float(np.linalg.norm(np.std(np.array(reps), axis=0)))


def test_criterion_8_multilinearity_every_statistic():
    t = 10000
    m = 2

    def stacked_preimage(s, w, bits, fixed, axes):
        stacked = SignalBlock(np.vstack([s.data, w.data]))
        return cumulant_slice(
            stacked, bits, tuple(m + c for c in fixed), axes
        ).raw[:m, :m]

    statistics = {
        "covariance": {
            "est": lambda b: covariance(b).matrix,
            "source": lambda s, w, a: covariance(s).matrix,
            "dag": "H",
        },
        "pseudo_covariance": {
            "est": lambda b: pseudo_covariance(b).matrix,
            "source": lambda s, w, a: pseudo_covariance(s).matrix,
            "dag": "T",
        },
        "autocorrelation": {
            "est": lambda b: autocorrelation(b, 1).raw,
            "source": lambda s, w, a: autocorrelation(s, 1).raw,
            "dag": "H",
        },
        "pseudo_autocorrelation": {
            "est": lambda b: pseudo_autocorrelation(b, 1).matrix,
            "source": lambda s, w, a: pseudo_autocorrelation(s, 1).matrix,
            "dag": "T",
        },
        "windowed_covariance": {
            "est": lambda b: windowed_covariances(b, [(0, t // 2)])[0].matrix,
            "source": lambda s, w, a: windowed_covariances(s, [(0, t // 2)])[0].matrix,
            "dag": "H",
        },
        "cumulant_slice": {
            "est": lambda b: cumulant_slice(b, (0, 1, 0, 0), (0, 1), (0, 1)).raw,
            "source": lambda s, w, a: stacked_preimage(s, w, (0, 1, 0, 0), (0, 1), (0, 1)),
            "dag": "H",
        },
        "lagged_cumulant_slice": {
            "est": lambda b: lagged_cumulant_slice(b, (0, 0), (0, 1), (0, 1)).raw,
            "source": lambda s, w, a: lagged_cumulant_slice(s, (0, 0), (0, 1), (0, 1)).raw,
            "dag": "T",
        },
    }
    failures = {}
    for name, spec in statistics.items():
        bad = 0
        for trial in range(50):
            rng = np.random.default_rng(8000 + trial)
            src, truth = generate(
                (
                    SourceSpec("bpsk"),
                    SourceSpec("ar1_noncircular", circularity=0.6, coefficient=0.7),
                ),
                t,
                [8000, trial],
                cond_cap=10,
            )
            a = truth.a.matrix
            w = SignalBlock(a @ src.data)
            cw = spec["est"](w)
            cs = spec["source"](src, w, a)
            mapped = a @ cs @ (a.conj().T if spec["dag"] == "H" else a.T)
            lhs = float(np.linalg.norm(cw - mapped))
            sigma = _bootstrap_sigma(rng, w.data, spec["est"])
            bound = 5.0 * sigma * np.linalg.norm(a, 2) ** 2
            if lhs > bound:
                bad += 1
        if bad:
            failures[name] = bad
    ok = not failures
    assert _report(
        8,
        ok,
        f"multilinearity within 5*sigma_bootstrap for all 7 statistics x 50 trials"
        + (f", failures: {failures}" if failures else ""),
    )
