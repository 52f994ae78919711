import os

import numpy as np
import pytest

from nujd.core import GLElement, is_essentially_equivalent
from nujd.errors import ConfigError
from nujd.simulation import (
    ExperimentConfig,
    SourceSpec,
    amari_index,
    demix,
    generate,
    mix,
    population_diagonal,
    population_matrices,
    population_stacks,
    run_experiment,
    run_trial,
    worker_count,
)
from nujd.solvers import put, put_identifiability_check
from nujd.statistics import circularity_coefficient


class TestSourceSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SourceSpec("laser")
        with pytest.raises(ConfigError):
            SourceSpec("noncircular_gaussian", circularity=1.5)
        with pytest.raises(ConfigError):
            SourceSpec("ar1_noncircular", circularity=0.5, coefficient=1.0)
        with pytest.raises(ConfigError):
            SourceSpec("block_nonstationary", variance_profile=())
        with pytest.raises(ConfigError):
            SourceSpec("bpsk", power=0.0)


class TestGenerate:
    def test_bpsk_alphabet(self):
        src, _ = generate((SourceSpec("bpsk"),), 1000, 1)
        assert set(np.unique(src.data.real)) == {-1.0, 1.0}
        assert np.all(src.data.imag == 0)

    def test_circularity_targets(self):
        specs = tuple(
            SourceSpec("noncircular_gaussian", circularity=lam)
            for lam in (0.0, 0.3, 0.5, 0.9, 1.0)
        )
        src, _ = generate(specs, 100000, 2)
        for i, lam in enumerate((0.0, 0.3, 0.5, 0.9, 1.0)):
            assert abs(circularity_coefficient(src.data[i]) - lam) <= 0.02

    def test_block_variance_ratio(self):
        src, _ = generate(
            (SourceSpec("block_nonstationary", variance_profile=(1.0, 4.0)),), 40000, 3
        )
        first = np.var(src.data[0, :20000])
        second = np.var(src.data[0, 20000:])
        assert second / first == pytest.approx(4.0, rel=0.15)

    def test_ar1_power_is_stationary(self):
        src, _ = generate(
            (SourceSpec("ar1_noncircular", circularity=0.5, coefficient=0.95),), 50000, 4
        )
        assert np.mean(np.abs(src.data[0]) ** 2) == pytest.approx(1.0, rel=0.1)
        assert np.mean(np.abs(src.data[0, :500]) ** 2) == pytest.approx(1.0, rel=0.4)

    def test_mixing_condition_cap(self):
        _, truth = generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 200, 5, cond_cap=20)
        assert truth.a.cond <= 20

    def test_seeded_determinism(self):
        s1, t1 = generate((SourceSpec("qpsk"), SourceSpec("bpsk")), 500, 7)
        s2, t2 = generate((SourceSpec("qpsk"), SourceSpec("bpsk")), 500, 7)
        assert np.array_equal(s1.data, s2.data)
        assert np.array_equal(t1.a.matrix, t2.a.matrix)

    def test_min_samples(self):
        with pytest.raises(ConfigError):
            generate((SourceSpec("bpsk"),), 50, 1)


class TestMixDemix:
    def test_identity_roundtrip(self, rng):
        src, truth = generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 300, 9)
        w = mix(src, GLElement(np.eye(2)))
        assert np.array_equal(w.data, src.data)
        w = mix(src, GLElement(np.diag([2.0, 1.0])))
        assert np.array_equal(w.data[0], 2.0 * src.data[0])
        swap = GLElement(np.eye(2)[:, [1, 0]])
        assert np.array_equal(mix(src, swap).data[0], src.data[1])

    def test_demix_inverts(self):
        src, truth = generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 300, 10)
        w = mix(src, truth.a)
        y = demix(w, GLElement(np.linalg.inv(truth.a.matrix).conj().T))
        assert np.allclose(y.data, src.data)


class TestAmariIndex:
    def test_gm_members_score_zero(self):
        assert amari_index(np.eye(3)) == 0.0
        assert amari_index(np.diag([5.0, -1j])[:, [1, 0]]) == 0.0

    def test_uniform_matrix_is_maximal(self):
        assert amari_index(np.ones((2, 2))) == pytest.approx(1.0)

    def test_exact_invariances(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = amari_index(g)
        # unit-modulus diagonal times permutation on both sides
        d1 = np.diag(np.exp(1j * rng.uniform(0, 6, 4)))[:, rng.permutation(4)]
        d2 = np.diag(np.exp(1j * rng.uniform(0, 6, 4)))[:, rng.permutation(4)]
        assert amari_index(d1 @ g @ d2) == pytest.approx(base, abs=1e-14)
        # global scalar
        assert amari_index((0.3 - 2j) * g) == pytest.approx(base, abs=1e-14)

    def test_gm_multiplication_preserves_the_zero_locus(self, rng):
        # arbitrary G(m) members on either side keep the score at zero
        g = np.diag([2.0, -1j, 0.5])[:, [2, 0, 1]]
        e1 = np.diag([5.0, 1j, -3.0])[:, [1, 2, 0]]
        assert amari_index(e1 @ g) == 0.0
        assert amari_index(g @ e1) == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(ConfigError):
            amari_index(np.array([[0.0, 0.0], [1.0, 1.0]]))


class TestPopulationValues:
    def test_covariance_and_pseudo(self):
        specs = (
            SourceSpec("bpsk"),
            SourceSpec("noncircular_gaussian", circularity=0.4),
            SourceSpec("circular_gaussian"),
        )
        _, truth = generate(specs, 200, 11)
        cov = population_diagonal(truth, {"statistic": "covariance"}, 200)
        assert np.allclose(cov, [1, 1, 1])
        pv = population_diagonal(truth, {"statistic": "pseudo_covariance"}, 200)
        assert np.allclose(pv, [1.0, 0.4, 0.0])

    def test_ar_lags(self):
        specs = (SourceSpec("ar1_noncircular", circularity=0.5, coefficient=0.9),
                 SourceSpec("circular_gaussian"))
        _, truth = generate(specs, 200, 12)
        auto = population_diagonal(
            truth, {"statistic": "autocorrelation", "lag": 2, "part": "hermitian"}, 200
        )
        assert np.allclose(auto, [0.81, 0.0])
        pa = population_diagonal(truth, {"statistic": "pseudo_autocorrelation", "lag": 1}, 200)
        assert np.allclose(pa, [0.45, 0.0])

    def test_population_stacks_drop_zero_rows(self):
        specs = (SourceSpec("circular_gaussian"), SourceSpec("circular_gaussian"))
        _, truth = generate(specs, 200, 13)
        sym, herm, ok = population_stacks(
            truth,
            ({"statistic": "covariance"}, {"statistic": "pseudo_covariance"}),
            200,
        )
        assert ok and sym.n == 0 and herm.n == 1

    def test_end_to_end_exact_population_put(self, rng):
        # analytic matrices through put give essentially exact recovery
        # whenever the sufficiency check certifies the pair with margin
        specs = (
            SourceSpec("noncircular_gaussian", circularity=0.9),
            SourceSpec("noncircular_gaussian", circularity=0.3),
        )
        _, truth = generate(specs, 200, 14)
        a = truth.a.matrix
        recipe = ({"statistic": "covariance"}, {"statistic": "pseudo_covariance"})
        cov = population_diagonal(truth, recipe[0], 200)
        pv = population_diagonal(truth, recipe[1], 200)
        check = put_identifiability_check(cov, pv, tol=1e-3)
        assert check.unique
        c1, c2 = population_matrices(truth, recipe, 200)
        res = put(c1, c2)
        g = res.x.matrix.conj().T @ a
        assert amari_index(g) <= 1e-8
        same, _ = is_essentially_equivalent(
            res.x, GLElement(np.linalg.inv(a).conj().T), 1e-6
        )
        assert same
        # scoring consistency: equivalence implies a tiny amari index
        assert amari_index(g) <= 10 * 1e-6


def _sut_config(**kw):
    base = dict(
        sources=(
            SourceSpec("noncircular_gaussian", circularity=0.9),
            SourceSpec("noncircular_gaussian", circularity=0.3),
        ),
        T=20000,
        seed=21,
        trials=3,
        statistics=({"statistic": "covariance"}, {"statistic": "pseudo_covariance"}),
        solver="sut",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_sut_batch(self):
        rep = run_experiment(_sut_config())
        assert rep["aggregate"]["failed"] == 0
        assert rep["aggregate"]["amari_median"] < 0.05
        assert all(r["identifiability"] == "Unique" for r in rep["trials"])
        assert all(r["essentially_equivalent"] for r in rep["trials"])

    def test_determinism_and_thread_invariance(self, monkeypatch):
        r1 = run_experiment(_sut_config())
        r2 = run_experiment(_sut_config())
        assert r1 == r2
        monkeypatch.setenv("NUJD_THREADS", "3")
        r3 = run_experiment(_sut_config())
        assert r3 == r1

    def test_per_trial_errors_recorded_not_fatal(self):
        # two identical windows make C1 = C2 exactly: the gevd spectrum is
        # fully degenerate and every trial records the error without
        # aborting the batch
        cfg = ExperimentConfig(
            sources=(SourceSpec("bpsk"), SourceSpec("qpsk")),
            T=20000,
            seed=22,
            trials=2,
            statistics=(
                {"statistic": "windowed_covariance", "windows": [(0, 10000), (0, 10000)]},
            ),
            solver="gevd",
        )
        rep = run_experiment(cfg)
        assert len(rep["trials"]) == 2
        assert rep["aggregate"]["failed"] == 2
        assert all(r["error"] == "DegenerateSpectrum" for r in rep["trials"])

    def test_gevd_recipe(self):
        cfg = ExperimentConfig(
            sources=(
                SourceSpec("block_nonstationary", variance_profile=(1.0, 4.0)),
                SourceSpec("block_nonstationary", variance_profile=(4.0, 1.0)),
            ),
            T=40000,
            seed=31,
            trials=2,
            statistics=(
                {"statistic": "windowed_covariance", "windows": [(0, 20000), (20000, 20000)]},
            ),
            solver="gevd",
        )
        rep = run_experiment(cfg)
        assert rep["aggregate"]["failed"] == 0
        assert rep["aggregate"]["amari_median"] < 0.05

    def test_incompatible_recipe_for_put(self):
        cfg = _sut_config(statistics=({"statistic": "covariance"},) * 2, solver="put")
        rep = run_experiment(cfg)
        assert all(r["error"] == "ConfigError" for r in rep["trials"])

    def test_noise_hook(self):
        rep = run_experiment(_sut_config(noise_snr_db=30.0))
        assert rep["aggregate"]["failed"] == 0
        assert rep["aggregate"]["amari_median"] < 0.2

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            _sut_config(solver="magic")

    def test_trial_identifiability_unavailable_when_no_closed_form(self):
        cfg = ExperimentConfig(
            sources=(
                SourceSpec("block_nonstationary", variance_profile=(1.0, 2.0)),
                SourceSpec("bpsk"),
            ),
            T=20000,
            seed=41,
            trials=1,
            statistics=(
                {"statistic": "lagged_cumulant_slice", "pattern": "0000",
                 "offsets": (0, 1, 0, 0), "axes": (0, 1), "fixed": (0, 0)},
                {"statistic": "covariance"},
            ),
            solver="put",
        )
        rec = run_trial(cfg, 0)
        assert rec["identifiability"] == "unavailable"


class TestWorkerCount:
    # a pure function of the NUJD_THREADS value: no thread pool is started
    def test_unset_or_empty_means_one(self):
        assert worker_count(None, 8) == 1
        assert worker_count("", 8) == 1

    def test_clamped_to_trials_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count("3", 8) == 3
        assert worker_count("100000", 8) == 4
        assert worker_count("100000", 2) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count("3", 8) == 1

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1"])
    def test_invalid_values_rejected(self, value):
        with pytest.raises(ConfigError, match="NUJD_THREADS"):
            worker_count(value, 8)
